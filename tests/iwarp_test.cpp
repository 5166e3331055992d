// End-to-end tests of the iWARP stack: RDMA write/read, send/recv,
// segmentation, reliability under loss injection, and protection checks.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "fault/plan.hpp"
#include "hw/fabric.hpp"
#include "hw/node.hpp"
#include "iwarp/rnic.hpp"
#include "verbs/verbs.hpp"

namespace fabsim::iwarp {
namespace {

hw::SwitchConfig ethernet_switch() {
  return hw::SwitchConfig{Rate::gbit_per_sec(10.0), ns(450), ns(100)};
}

hw::PciConfig pcie_x8() { return hw::PciConfig{Rate::mb_per_sec(2000.0), ns(250)}; }

/// Two nodes, one RNIC each, one connected QP pair.
struct World {
  explicit World(RnicConfig config = {})
      : fabric(engine, ethernet_switch()),
        node0(engine, 0, pcie_x8()),
        node1(engine, 1, pcie_x8()),
        nic0(node0, fabric, config),
        nic1(node1, fabric, config),
        send_cq0(engine),
        recv_cq0(engine),
        send_cq1(engine),
        recv_cq1(engine) {
    qp0 = nic0.create_qp(send_cq0, recv_cq0);
    qp1 = nic1.create_qp(send_cq1, recv_cq1);
    Rnic::connect(*qp0, *qp1);
  }

  Engine engine;
  hw::Switch fabric;
  hw::Node node0, node1;
  Rnic nic0, nic1;
  verbs::CompletionQueue send_cq0, recv_cq0, send_cq1, recv_cq1;
  std::unique_ptr<verbs::QueuePair> qp0, qp1;
};

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 7) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  return v;
}

TEST(IwarpRdmaWrite, PlacesDataAndCompletes) {
  World w;
  auto& src = w.node0.mem().alloc(4096);
  auto& dst = w.node1.mem().alloc(4096);
  const auto payload = pattern(1024);
  std::memcpy(w.node0.mem().window(src.addr(), 1024).data(), payload.data(), 1024);

  Time write_done = 0;
  Time placed_at = 0;
  w.engine.spawn([](World& world, hw::Buffer& s, hw::Buffer& d, Time& done,
                    Time& placed) -> Task<> {
    auto lkey = co_await world.nic0.reg_mr(s.addr(), s.size());
    auto rkey = co_await world.nic1.reg_mr(d.addr(), d.size());
    auto watch = world.nic1.watch_placement(d.addr(), 1024);
    co_await world.qp0->post_send(verbs::SendWr{
        .wr_id = 11, .opcode = verbs::Opcode::kRdmaWrite,
        .sge = {s.addr(), 1024, lkey}, .remote_addr = d.addr(), .rkey = rkey});
    auto completion =
        co_await verbs::next_completion(world.send_cq0, world.node0.cpu(), ns(250));
    EXPECT_EQ(completion.wr_id, 11u);
    EXPECT_EQ(completion.type, verbs::Completion::Type::kRdmaWrite);
    done = world.engine.now();
    co_await watch->wait();
    placed = world.engine.now();
  }(w, src, dst, write_done, placed_at));
  w.engine.run();

  ASSERT_GT(placed_at, 0u);
  EXPECT_LT(write_done, placed_at + us(50));
  // One-way small/medium message latency should be in the ~10 us class.
  EXPECT_GT(placed_at, us(5));
  EXPECT_LT(placed_at, us(40));
  auto view = w.node1.mem().window(dst.addr(), 1024);
  EXPECT_EQ(std::memcmp(view.data(), payload.data(), 1024), 0);
}

TEST(IwarpSendRecv, UntaggedFifoMatching) {
  World w;
  auto& src = w.node0.mem().alloc(8192);
  auto& dst_a = w.node1.mem().alloc(4096);
  auto& dst_b = w.node1.mem().alloc(4096);
  const auto payload = pattern(3000);
  std::memcpy(w.node0.mem().window(src.addr(), 3000).data(), payload.data(), 3000);

  std::vector<std::uint64_t> recv_order;
  w.engine.spawn([](World& world, hw::Buffer& s, hw::Buffer& da, hw::Buffer& db,
                    std::vector<std::uint64_t>& order) -> Task<> {
    auto lkey = co_await world.nic0.reg_mr(s.addr(), s.size());
    auto rkey_a = co_await world.nic1.reg_mr(da.addr(), da.size());
    auto rkey_b = co_await world.nic1.reg_mr(db.addr(), db.size());
    co_await world.qp1->post_recv(verbs::RecvWr{101, {da.addr(), 4096, rkey_a}});
    co_await world.qp1->post_recv(verbs::RecvWr{102, {db.addr(), 4096, rkey_b}});
    co_await world.qp0->post_send(verbs::SendWr{
        .wr_id = 1, .opcode = verbs::Opcode::kSend, .sge = {s.addr(), 3000, lkey}});
    co_await world.qp0->post_send(verbs::SendWr{
        .wr_id = 2, .opcode = verbs::Opcode::kSend, .sge = {s.addr() + 4096, 100, lkey}});
    for (int i = 0; i < 2; ++i) {
      auto completion =
          co_await verbs::next_completion(world.recv_cq1, world.node1.cpu(), ns(250));
      order.push_back(completion.wr_id);
      EXPECT_EQ(completion.type, verbs::Completion::Type::kRecv);
    }
  }(w, src, dst_a, dst_b, recv_order));
  w.engine.run();

  EXPECT_EQ(recv_order, (std::vector<std::uint64_t>{101, 102}));
  auto view = w.node1.mem().window(dst_a.addr(), 3000);
  EXPECT_EQ(std::memcmp(view.data(), payload.data(), 3000), 0);
}

TEST(IwarpRdmaRead, FetchesRemoteData) {
  World w;
  auto& remote = w.node1.mem().alloc(8192);
  auto& sink = w.node0.mem().alloc(8192);
  const auto payload = pattern(6000, 3);
  std::memcpy(w.node1.mem().window(remote.addr(), 6000).data(), payload.data(), 6000);

  w.engine.spawn([](World& world, hw::Buffer& rem, hw::Buffer& snk) -> Task<> {
    auto sink_key = co_await world.nic0.reg_mr(snk.addr(), snk.size());
    auto rkey = co_await world.nic1.reg_mr(rem.addr(), rem.size());
    co_await world.qp0->post_send(verbs::SendWr{
        .wr_id = 77, .opcode = verbs::Opcode::kRdmaRead,
        .sge = {snk.addr(), 6000, sink_key}, .remote_addr = rem.addr(), .rkey = rkey});
    auto completion =
        co_await verbs::next_completion(world.send_cq0, world.node0.cpu(), ns(250));
    EXPECT_EQ(completion.wr_id, 77u);
    EXPECT_EQ(completion.type, verbs::Completion::Type::kRdmaRead);
    EXPECT_EQ(completion.byte_len, 6000u);
  }(w, remote, sink));
  w.engine.run();

  auto view = w.node0.mem().window(sink.addr(), 6000);
  EXPECT_EQ(std::memcmp(view.data(), payload.data(), 6000), 0);
}

TEST(IwarpSegmentation, LargeMessageSegmentCount) {
  World w;
  const std::uint32_t len = 1 << 20;
  auto& src = w.node0.mem().alloc(len, /*with_data=*/false);
  auto& dst = w.node1.mem().alloc(len, /*with_data=*/false);

  w.engine.spawn([](World& world, hw::Buffer& s, hw::Buffer& d, std::uint32_t n) -> Task<> {
    auto lkey = co_await world.nic0.reg_mr(s.addr(), s.size());
    auto rkey = co_await world.nic1.reg_mr(d.addr(), d.size());
    auto watch = world.nic1.watch_placement(d.addr(), n);
    co_await world.qp0->post_send(verbs::SendWr{
        .wr_id = 5, .opcode = verbs::Opcode::kRdmaWrite,
        .sge = {s.addr(), n, lkey}, .remote_addr = d.addr(), .rkey = rkey});
    co_await watch->wait();
  }(w, src, dst, len));
  w.engine.run();

  const auto mss = w.nic0.config().mss;
  const std::uint64_t data_segments = (len + mss - 1) / mss;
  // Sent segments = data segments (acks are counted by the receiver side).
  EXPECT_EQ(w.nic0.segments_sent(), data_segments);
  EXPECT_EQ(w.nic0.retransmits(), 0u);
  // The receiver sent pure acks back.
  EXPECT_GE(w.nic1.segments_sent(), 0u);
}

TEST(IwarpThroughput, OneWayBandwidthIsPcixBound) {
  World w;
  const std::uint32_t len = 4 << 20;
  auto& src = w.node0.mem().alloc(len, false);
  auto& dst = w.node1.mem().alloc(len, false);
  Time done = 0;
  w.engine.spawn([](World& world, hw::Buffer& s, hw::Buffer& d, std::uint32_t n,
                    Time& fin) -> Task<> {
    auto lkey = co_await world.nic0.reg_mr(s.addr(), s.size());
    auto rkey = co_await world.nic1.reg_mr(d.addr(), d.size());
    auto watch = world.nic1.watch_placement(d.addr(), n);
    const Time start = world.engine.now();
    co_await world.qp0->post_send(verbs::SendWr{
        .wr_id = 5, .opcode = verbs::Opcode::kRdmaWrite,
        .sge = {s.addr(), n, lkey}, .remote_addr = d.addr(), .rkey = rkey});
    co_await watch->wait();
    fin = world.engine.now() - start;
  }(w, src, dst, len, done));
  w.engine.run();

  const double mbps = static_cast<double>(len) / to_sec(done) / 1e6;
  // Must be below the 10GbE line rate and in the high-hundreds class.
  EXPECT_LT(mbps, 1250.0);
  EXPECT_GT(mbps, 500.0);
}

TEST(IwarpProtection, BadRkeyThrows) {
  World w;
  auto& src = w.node0.mem().alloc(4096);
  auto& dst = w.node1.mem().alloc(4096);
  w.engine.spawn([](World& world, hw::Buffer& s, hw::Buffer& d) -> Task<> {
    auto lkey = co_await world.nic0.reg_mr(s.addr(), s.size());
    auto rkey = co_await world.nic1.reg_mr(d.addr(), 64);  // too small
    co_await world.qp0->post_send(verbs::SendWr{
        .wr_id = 1, .opcode = verbs::Opcode::kRdmaWrite,
        .sge = {s.addr(), 1024, lkey}, .remote_addr = d.addr(), .rkey = rkey});
  }(w, src, dst));
  EXPECT_THROW(w.engine.run(), std::invalid_argument);
}

TEST(IwarpProtection, MissingRecvThrows) {
  World w;
  auto& src = w.node0.mem().alloc(4096);
  w.engine.spawn([](World& world, hw::Buffer& s) -> Task<> {
    auto lkey = co_await world.nic0.reg_mr(s.addr(), s.size());
    co_await world.qp0->post_send(verbs::SendWr{
        .wr_id = 1, .opcode = verbs::Opcode::kSend, .sge = {s.addr(), 64, lkey}});
  }(w, src));
  EXPECT_THROW(w.engine.run(), std::logic_error);
}

TEST(IwarpProtection, UnregisteredLkeyThrows) {
  World w;
  auto& src = w.node0.mem().alloc(4096);
  EXPECT_THROW(
      {
        w.engine.spawn([](World& world, hw::Buffer& s) -> Task<> {
          co_await world.qp0->post_send(verbs::SendWr{
              .wr_id = 1, .opcode = verbs::Opcode::kSend, .sge = {s.addr(), 64, 999}});
        }(w, src));
        w.engine.run();
      },
      std::invalid_argument);
}

TEST(IwarpReliability, RecoversFromLossWithGoBackN) {
  RnicConfig config;
  config.rto = us(200);
  World w(config);
  fault::FaultPlan plan;
  plan.drop_probability(0.02);
  w.engine.set_fault_injector(&plan);
  const std::uint32_t len = 512 * 1024;
  auto& src = w.node0.mem().alloc(len);
  auto& dst = w.node1.mem().alloc(len);
  const auto payload = pattern(len, 9);
  std::memcpy(w.node0.mem().window(src.addr(), len).data(), payload.data(), len);

  w.engine.spawn([](World& world, hw::Buffer& s, hw::Buffer& d, std::uint32_t n) -> Task<> {
    auto lkey = co_await world.nic0.reg_mr(s.addr(), s.size());
    auto rkey = co_await world.nic1.reg_mr(d.addr(), d.size());
    auto watch = world.nic1.watch_placement(d.addr(), n);
    co_await world.qp0->post_send(verbs::SendWr{
        .wr_id = 5, .opcode = verbs::Opcode::kRdmaWrite,
        .sge = {s.addr(), n, lkey}, .remote_addr = d.addr(), .rkey = rkey});
    co_await watch->wait();
  }(w, src, dst, len));
  w.engine.run();

  EXPECT_GT(w.nic0.retransmits(), 0u) << "loss injection should force retransmission";
  auto view = w.node1.mem().window(dst.addr(), len);
  EXPECT_EQ(std::memcmp(view.data(), payload.data(), len), 0)
      << "go-back-N must deliver the exact byte stream";
}

TEST(IwarpDeterminism, IdenticalRunsProduceIdenticalTimelines) {
  auto run_once = [] {
    World w;
    auto& src = w.node0.mem().alloc(65536, false);
    auto& dst = w.node1.mem().alloc(65536, false);
    Time done = 0;
    w.engine.spawn([](World& world, hw::Buffer& s, hw::Buffer& d, Time& fin) -> Task<> {
      auto lkey = co_await world.nic0.reg_mr(s.addr(), s.size());
      auto rkey = co_await world.nic1.reg_mr(d.addr(), d.size());
      for (int i = 0; i < 5; ++i) {
        auto watch = world.nic1.watch_placement(d.addr(), 65536);
        co_await world.qp0->post_send(verbs::SendWr{
            .wr_id = 5, .opcode = verbs::Opcode::kRdmaWrite,
            .sge = {s.addr(), 65536, lkey}, .remote_addr = d.addr(), .rkey = rkey});
        co_await watch->wait();
      }
      fin = world.engine.now();
    }(w, src, dst, done));
    w.engine.run();
    return std::pair{done, w.engine.events_processed()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fabsim::iwarp
