// Bounded-buffer switch tests: tail drop under incast and the go-back-N
// recovery from congestion loss (as opposed to random loss) of iWARP's
// TCP and IB's RC.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"

namespace fabsim::core {
namespace {

TEST(BoundedSwitch, NoDropsWhenBufferIsLargeEnough) {
  NetworkProfile p = iwarp_profile();
  p.switch_cfg.max_queue_bytes = 8ull << 20;
  Cluster cluster(2, p);
  verbs::CompletionQueue cq(cluster.engine());
  auto qp0 = cluster.device(0).create_qp(cq, cq);
  auto qp1 = cluster.device(1).create_qp(cq, cq);
  cluster.device(0).establish(*qp0, *qp1);
  const std::uint32_t len = 1 << 20;
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);

  cluster.engine().spawn([](Cluster& c, verbs::QueuePair& qp, std::uint64_t s, std::uint64_t d,
                            std::uint32_t n) -> Task<> {
    auto lkey = co_await c.device(0).reg_mr(s, n);
    auto rkey = co_await c.device(1).reg_mr(d, n);
    auto watch = c.device(1).watch_placement(d, n);
    co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                        .opcode = verbs::Opcode::kRdmaWrite,
                                        .sge = {s, n, lkey},
                                        .remote_addr = d,
                                        .rkey = rkey});
    co_await watch->wait();
  }(cluster, *qp0, src.addr(), dst.addr(), len));
  cluster.engine().run();
  EXPECT_EQ(cluster.fabric().output_drops(cluster.rnic(1).fabric_port()), 0u);
  EXPECT_EQ(cluster.rnic(0).retransmits(), 0u);
}

TEST(BoundedSwitch, IncastOverflowDropsAndTcpRecovers) {
  // Three clients blast one server through a switch with only 48 KB of
  // buffering on the hot port. The switch tail-drops; iWARP's TCP and
  // IB's RC must both deliver every byte anyway. The writes start
  // together once every registration is done: IB pins 7 us a page on
  // the server's one CPU, which would otherwise stagger the writers so
  // far apart that nothing drops. The direct crossbar tail-drops
  // whatever flow control its config names, so both must recover then.
  for (const auto& [net, flow] : {std::pair{Network::kIwarp, hw::FlowControl::kLossy},
                                 std::pair{Network::kIb, hw::FlowControl::kLossy},
                                 std::pair{Network::kIwarp, hw::FlowControl::kCredit},
                                 std::pair{Network::kIb, hw::FlowControl::kCredit}}) {
    SCOPED_TRACE(std::string(network_name(net)) + " " + hw::flow_control_name(flow));
    NetworkProfile p = profile(net);
    p.switch_cfg.max_queue_bytes = 48 * 1024;
    p.switch_cfg.flow = flow;
    p.rnic.rto = us(300);
    Cluster cluster(4, p);

    const std::uint32_t len = 256 * 1024;
    std::vector<std::unique_ptr<verbs::CompletionQueue>> cqs;
    std::vector<std::unique_ptr<verbs::QueuePair>> sqps, cqps;
    std::vector<hw::Buffer*> sbufs, cbufs;
    int done = 0;
    int registered = 0;
    Event go(cluster.engine());
    for (int c = 0; c < 3; ++c) {
      cqs.push_back(std::make_unique<verbs::CompletionQueue>(cluster.engine()));
      auto* cq = cqs.back().get();
      sqps.push_back(cluster.device(0).create_qp(*cq, *cq));
      cqps.push_back(cluster.device(c + 1).create_qp(*cq, *cq));
      cluster.device(0).establish(*sqps.back(), *cqps.back());
      sbufs.push_back(&cluster.node(0).mem().alloc(len));
      cbufs.push_back(&cluster.node(c + 1).mem().alloc(len));
    }

    for (int c = 0; c < 3; ++c) {
      cluster.engine().spawn([](Cluster& cl, verbs::QueuePair& qp, hw::Buffer& src,
                                hw::Buffer& dst, int client, std::uint32_t n, Event& start,
                                int* ready, int* finished) -> Task<> {
        auto view = cl.node(client + 1).mem().window(src.addr(), n);
        for (std::uint32_t i = 0; i < n; ++i) {
          view[i] = static_cast<std::byte>((i * 7 + static_cast<std::uint32_t>(client)) & 0xff);
        }
        auto lkey = co_await cl.device(client + 1).reg_mr(src.addr(), n);
        auto rkey = co_await cl.device(0).reg_mr(dst.addr(), n);
        auto watch = cl.device(0).watch_placement(dst.addr(), n);
        if (++*ready == 3) start.trigger();
        co_await start.wait();
        co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                            .opcode = verbs::Opcode::kRdmaWrite,
                                            .sge = {src.addr(), n, lkey},
                                            .remote_addr = dst.addr(),
                                            .rkey = rkey});
        co_await watch->wait();
        ++*finished;
      }(cluster, *cqps[static_cast<std::size_t>(c)], *cbufs[static_cast<std::size_t>(c)],
        *sbufs[static_cast<std::size_t>(c)], c, len, go, &registered, &done));
    }
    cluster.engine().run();

    EXPECT_EQ(done, 3) << "all transfers must complete despite congestion drops";
    EXPECT_EQ(cluster.engine().live_processes(), 0u) << "no writer may be left suspended";
    EXPECT_GT(cluster.fabric().output_drops(cluster.device(0).fabric_port()), 0u)
        << "the hot port must have overflowed";
    std::uint64_t total_retransmits = 0;
    for (int c = 1; c <= 3; ++c) {
      total_retransmits +=
          net == Network::kIb ? cluster.hca(c).retransmits() : cluster.rnic(c).retransmits();
    }
    EXPECT_GT(total_retransmits, 0u);

    // Byte-exact delivery at the server.
    for (int c = 0; c < 3; ++c) {
      auto view = cluster.node(0).mem().window(sbufs[static_cast<std::size_t>(c)]->addr(), len);
      for (std::uint32_t i = 0; i < len; i += 97) {
        ASSERT_EQ(view[i], static_cast<std::byte>((i * 7 + static_cast<std::uint32_t>(c)) & 0xff))
            << "client " << c << " byte " << i;
      }
    }
  }
}

TEST(BoundedSwitch, SmallerBuffersDropMore) {
  auto drops_with = [](std::uint64_t buffer_bytes) {
    NetworkProfile p = iwarp_profile();
    p.switch_cfg.max_queue_bytes = buffer_bytes;
    p.rnic.rto = us(300);
    Cluster cluster(3, p);
    verbs::CompletionQueue cq(cluster.engine());
    std::vector<std::unique_ptr<verbs::QueuePair>> qps;
    const std::uint32_t len = 128 * 1024;
    std::vector<hw::Buffer*> targets;
    for (int c = 0; c < 2; ++c) {
      auto server_qp = cluster.device(0).create_qp(cq, cq);
      auto client_qp = cluster.device(c + 1).create_qp(cq, cq);
      cluster.device(0).establish(*server_qp, *client_qp);
      targets.push_back(&cluster.node(0).mem().alloc(len, false));
      auto& src = cluster.node(c + 1).mem().alloc(len, false);
      cluster.engine().spawn([](Cluster& cl, verbs::QueuePair& qp, std::uint64_t s,
                                std::uint64_t d, int client, std::uint32_t n) -> Task<> {
        auto lkey = co_await cl.device(client + 1).reg_mr(s, n);
        auto rkey = co_await cl.device(0).reg_mr(d, n);
        auto watch = cl.device(0).watch_placement(d, n);
        co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                            .opcode = verbs::Opcode::kRdmaWrite,
                                            .sge = {s, n, lkey},
                                            .remote_addr = d,
                                            .rkey = rkey});
        co_await watch->wait();
      }(cluster, *client_qp, src.addr(), targets.back()->addr(), c, len));
      qps.push_back(std::move(server_qp));
      qps.push_back(std::move(client_qp));
    }
    cluster.engine().run();
    return cluster.fabric().output_drops(cluster.rnic(0).fabric_port());
  };
  const auto small = drops_with(16 * 1024);
  const auto large = drops_with(1 << 20);
  EXPECT_GT(small, large);
  EXPECT_EQ(large, 0u);
}

}  // namespace
}  // namespace fabsim::core
