// Tracer tests: capacity, filtering helpers, zero-cost-when-off, and
// event sequences emitted by the stacks.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "fault/plan.hpp"
#include "sim/trace.hpp"

namespace fabsim {
namespace {

TEST(Tracer, RecordsAndCounts) {
  Tracer tracer;
  tracer.emit(us(1), TraceCategory::kHost, 0, "alpha one");
  tracer.emit(us(2), TraceCategory::kNic, 1, "beta two");
  tracer.emit(us(3), TraceCategory::kProto, 0, "alpha three");
  EXPECT_EQ(tracer.entries().size(), 3u);
  EXPECT_EQ(tracer.count_containing("alpha"), 2u);
  EXPECT_EQ(tracer.count_containing("beta"), 1u);
  EXPECT_EQ(tracer.count_containing("gamma"), 0u);
  tracer.clear();
  EXPECT_TRUE(tracer.entries().empty());
}

TEST(Tracer, CapacityBoundsAndDropCount) {
  Tracer tracer;
  tracer.set_capacity(5);
  for (int i = 0; i < 12; ++i) tracer.emit(us(i), TraceCategory::kWire, 0, "x");
  EXPECT_EQ(tracer.entries().size(), 5u);
  EXPECT_EQ(tracer.dropped(), 7u);
}

TEST(Tracer, KeepLatestRingOverwritesOldest) {
  Tracer tracer;
  tracer.set_capacity(4);
  tracer.set_overflow_mode(Tracer::OverflowMode::kKeepLatest);
  for (int i = 0; i < 10; ++i) {
    tracer.emit(us(i), TraceCategory::kProto, 0, "e" + std::to_string(i));
  }
  EXPECT_EQ(tracer.entries().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // The ring keeps the tail of the run, in chronological order.
  const auto ordered = tracer.ordered();
  ASSERT_EQ(ordered.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ordered[i].label, "e" + std::to_string(6 + i));
    if (i > 0) {
      EXPECT_GE(ordered[i].at, ordered[i - 1].at);
    }
  }
  EXPECT_NE(tracer.summary().find("oldest events overwritten"), std::string::npos)
      << tracer.summary();
  EXPECT_EQ(tracer.summary().find("INCOMPLETE"), std::string::npos)
      << "keep-latest is deliberate truncation, not an incomplete trace";
  // Default mode keeps the head instead.
  Tracer head;
  head.set_capacity(4);
  for (int i = 0; i < 10; ++i) head.emit(us(i), TraceCategory::kProto, 0, std::to_string(i));
  EXPECT_EQ(head.ordered().front().label, "0");
}

TEST(Tracer, FilteredDumpSelectsCategoryAndNode) {
  Tracer tracer;
  tracer.emit(us(1), TraceCategory::kHost, 0, "host zero");
  tracer.emit(us(2), TraceCategory::kWire, 0, "wire zero");
  tracer.emit(us(3), TraceCategory::kWire, 1, "wire one");

  auto dumped = [&](Tracer::Filter filter) {
    std::FILE* f = std::tmpfile();
    tracer.dump(f, filter);
    std::string out(static_cast<std::size_t>(std::ftell(f)), '\0');
    std::rewind(f);
    const std::size_t got = std::fread(out.data(), 1, out.size(), f);
    out.resize(got);
    std::fclose(f);
    return out;
  };

  std::string wires = dumped({.category = TraceCategory::kWire, .node = {}});
  EXPECT_EQ(wires.find("host zero"), std::string::npos);
  EXPECT_NE(wires.find("wire zero"), std::string::npos);
  EXPECT_NE(wires.find("wire one"), std::string::npos);
  EXPECT_NE(wires.find("(2 of "), std::string::npos) << "filtered dump shows shown/total";

  std::string node1 = dumped({.category = {}, .node = 1});
  EXPECT_EQ(node1.find("wire zero"), std::string::npos);
  EXPECT_NE(node1.find("wire one"), std::string::npos);

  std::string both = dumped({.category = TraceCategory::kWire, .node = 0});
  EXPECT_NE(both.find("wire zero"), std::string::npos);
  EXPECT_EQ(both.find("wire one"), std::string::npos);

  std::string all = dumped({});
  EXPECT_EQ(all.find(" of "), std::string::npos) << "unfiltered dump keeps plain summary";
}

TEST(Tracer, SummarySurfacesDropCount) {
  Tracer tracer;
  tracer.emit(us(1), TraceCategory::kHost, 0, "a");
  tracer.emit(us(2), TraceCategory::kProto, 0, "b");
  EXPECT_NE(tracer.summary().find("2 events"), std::string::npos);
  EXPECT_NE(tracer.summary().find("proto=1"), std::string::npos);
  EXPECT_NE(tracer.summary().find("0 dropped"), std::string::npos);
  EXPECT_EQ(tracer.summary().find("INCOMPLETE"), std::string::npos);

  tracer.set_capacity(2);
  for (int i = 0; i < 3; ++i) tracer.emit(us(i), TraceCategory::kWire, 0, "x");
  EXPECT_NE(tracer.summary().find("3 dropped"), std::string::npos)
      << "a truncated trace must say so: " << tracer.summary();
  EXPECT_NE(tracer.summary().find("INCOMPLETE"), std::string::npos);
}

TEST(Tracer, EngineEmitsNothingWhenDisabled) {
  core::Cluster cluster(2, core::Network::kIwarp);
  auto& src = cluster.node(0).mem().alloc(4096, false);
  auto& dst = cluster.node(1).mem().alloc(4096, false);
  EXPECT_EQ(cluster.engine().tracer(), nullptr);
  cluster.engine().spawn([](core::Cluster& c, std::uint64_t s) -> Task<> {
    co_await c.setup_mpi();
    co_await c.mpi_rank(0).send(1, 1, s, 64);
  }(cluster, src.addr()));
  cluster.engine().spawn([](core::Cluster& c, std::uint64_t d) -> Task<> {
    co_await c.setup_mpi();
    co_await c.mpi_rank(1).recv(0, 1, d, 4096);
  }(cluster, dst.addr()));
  cluster.engine().run();  // must not crash with tracer == nullptr
}

TEST(Tracer, RendezvousEmitsProtocolSequence) {
  core::Cluster cluster(2, core::Network::kIwarp);
  Tracer tracer;
  cluster.engine().set_tracer(&tracer);
  const std::uint32_t len = 32 * 1024;
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);

  cluster.engine().spawn([](core::Cluster& c, std::uint64_t s, std::uint32_t n) -> Task<> {
    co_await c.setup_mpi();
    co_await c.mpi_rank(0).send(1, 1, s, n);
  }(cluster, src.addr(), len));
  cluster.engine().spawn([](core::Cluster& c, std::uint64_t d, std::uint32_t n) -> Task<> {
    co_await c.setup_mpi();
    co_await c.mpi_rank(1).recv(0, 1, d, n);
  }(cluster, dst.addr(), len));
  cluster.engine().run();

  EXPECT_EQ(tracer.count_containing("rendezvous RTS"), 1u);
  EXPECT_EQ(tracer.count_containing("rendezvous CTS"), 1u);
  EXPECT_EQ(tracer.count_containing("pin-down cache miss"), 2u) << "both sides pin once";
  EXPECT_GE(tracer.count_containing("TCP segment tagged-write"),
            static_cast<std::size_t>(len / 1408))
      << "the RDMA write's data segments must appear";
  EXPECT_EQ(tracer.count_containing("retransmit"), 0u) << "no loss injected";

  // The protocol order must hold: RTS before CTS before the data.
  std::size_t rts_at = 0, cts_at = 0, first_data = 0;
  for (std::size_t i = 0; i < tracer.entries().size(); ++i) {
    const auto& label = tracer.entries()[i].label;
    if (rts_at == 0 && label.find("rendezvous RTS") != std::string::npos) rts_at = i + 1;
    if (cts_at == 0 && label.find("rendezvous CTS") != std::string::npos) cts_at = i + 1;
    if (first_data == 0 && label.find("TCP segment tagged-write") != std::string::npos) {
      first_data = i + 1;
    }
  }
  EXPECT_LT(rts_at, cts_at);
  EXPECT_LT(cts_at, first_data);
}

TEST(Tracer, LossInjectionEmitsRetransmits) {
  core::NetworkProfile p = core::iwarp_profile();
  p.rnic.rto = us(200);
  core::Cluster cluster(2, p);
  fault::FaultPlan plan;
  plan.drop_probability(0.05);
  cluster.engine().set_fault_injector(&plan);
  Tracer tracer;
  cluster.engine().set_tracer(&tracer);
  const std::uint32_t len = 256 * 1024;
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);

  cluster.engine().spawn([](core::Cluster& c, std::uint64_t s, std::uint64_t d,
                            std::uint32_t n) -> Task<> {
    verbs::CompletionQueue cq(c.engine());
    auto qp0 = c.device(0).create_qp(cq, cq);
    auto qp1 = c.device(1).create_qp(cq, cq);
    c.device(0).establish(*qp0, *qp1);
    auto lkey = co_await c.device(0).reg_mr(s, n);
    auto rkey = co_await c.device(1).reg_mr(d, n);
    auto watch = c.device(1).watch_placement(d, n);
    co_await qp0->post_send(verbs::SendWr{.wr_id = 1,
                                          .opcode = verbs::Opcode::kRdmaWrite,
                                          .sge = {s, n, lkey},
                                          .remote_addr = d,
                                          .rkey = rkey});
    co_await watch->wait();
  }(cluster, src.addr(), dst.addr(), len));
  cluster.engine().run();

  EXPECT_GT(tracer.count_containing("RTO fired"), 0u);
  EXPECT_GT(tracer.count_containing("retransmit"), 0u);
}

}  // namespace
}  // namespace fabsim
