// FabricScope MetricRegistry tests: counter/gauge semantics, phase
// attribution, snapshot naming, engine null-guards, and the taxonomy
// Cluster::collect_metrics() publishes after a real traffic run.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "core/runners.hpp"
#include "sim/histogram.hpp"
#include "sim/metrics.hpp"

namespace fabsim {
namespace {

TEST(MetricRegistry, CounterFindOrCreateAndAccumulate) {
  MetricRegistry r;
  EXPECT_FALSE(r.has_counter("a.b"));
  EXPECT_EQ(r.counter_value("a.b"), 0u) << "missing counter reads as 0";
  r.counter("a.b").add();
  r.counter("a.b").add(9);
  EXPECT_TRUE(r.has_counter("a.b"));
  EXPECT_EQ(r.counter_value("a.b"), 10u);
  Counter& c = r.counter("a.b");
  c.set(3);
  EXPECT_EQ(r.counter_value("a.b"), 3u) << "references alias the stored counter";
}

TEST(MetricRegistry, GaugeTracksHighWaterMark) {
  MetricRegistry r;
  EXPECT_EQ(r.gauge_max("depth"), 0.0);
  r.gauge("depth").set(4.0);
  r.gauge("depth").set(9.0);
  r.gauge("depth").set(2.0);
  EXPECT_EQ(r.gauge("depth").value(), 2.0);
  EXPECT_EQ(r.gauge_max("depth"), 9.0) << "max survives later lower sets";
}

TEST(MetricRegistry, PhaseAttributionPerNodeAndTotal) {
  MetricRegistry r;
  r.charge_phase(Phase::kHost, us(10));
  r.charge_phase(Phase::kHost, us(5));
  r.charge_phase(Phase::kNic, us(7));
  r.charge_phase(Phase::kWire, us(3));
  r.charge_phase(Phase::kWire, us(3));

  EXPECT_EQ(r.phase_time(Phase::kHost), us(15));
  EXPECT_EQ(r.phase_time(Phase::kNic), us(7));
  EXPECT_EQ(r.phase_time(Phase::kWire), us(6)) << "charges accumulate";

  r.reset_phases();
  EXPECT_EQ(r.phase_time(Phase::kHost), Time{0});
  EXPECT_EQ(r.phase_time(Phase::kWire), Time{0});
}

TEST(MetricRegistry, SnapshotNamingAndOrder) {
  MetricRegistry r;
  r.counter("z.count").add(4);
  r.counter("a.count").add(1);
  r.gauge("depth").set(6.5);
  r.charge_phase(Phase::kNic, us(12));

  const auto snap = r.snapshot();
  // Sorted flat view: counters verbatim, gauges as "<name>.max", charged
  // phases as "phase.<name>.us"; phases with zero time are omitted.
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].first, "a.count");
  EXPECT_EQ(snap[0].second, 1.0);
  EXPECT_EQ(snap[1].first, "depth.max");
  EXPECT_EQ(snap[1].second, 6.5);
  EXPECT_EQ(snap[2].first, "phase.nic.us");
  EXPECT_DOUBLE_EQ(snap[2].second, 12.0);
  EXPECT_EQ(snap[3].first, "z.count");

  r.clear();
  EXPECT_TRUE(r.snapshot().empty());
}

TEST(MetricRegistry, EngineGuardsWhenDetached) {
  Engine engine;
  EXPECT_EQ(engine.metrics(), nullptr);
  engine.charge_phase(Phase::kHost, us(1));  // must be a no-op, not a crash
}

TEST(MetricRegistry, EngineForwardsWhenAttached) {
  Engine engine;
  MetricRegistry r;
  engine.set_metrics(&r);
  engine.charge_phase(Phase::kWire, us(4));
  EXPECT_EQ(r.phase_time(Phase::kWire), us(4));
}

// One MPI message over each stack, then assert collect_metrics()
// publishes the documented taxonomy with sane values.
void run_one_message(core::Cluster& cluster, std::uint32_t len) {
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
}

TEST(ClusterMetrics, IwarpTaxonomyAfterTraffic) {
  core::Cluster cluster(2, core::Network::kIwarp);
  MetricRegistry r;
  cluster.engine().set_metrics(&r);
  run_one_message(cluster, 64 * 1024);
  cluster.collect_metrics(r);

  EXPECT_GT(r.counter_value("iwarp.node0.segments_sent"), 0u);
  EXPECT_GT(r.counter_value("iwarp.node1.acks_sent"), 0u);
  EXPECT_EQ(r.counter_value("iwarp.node0.retransmits"), 0u) << "no loss injected";
  EXPECT_GT(r.counter_value("iwarp.node0.pcix_bytes"), 0u);
  EXPECT_GT(r.counter_value("hw.node0.cpu_busy_us"), 0u);
  EXPECT_GT(r.counter_value("hw.node0.pcie_bytes_read"), 0u);
  EXPECT_TRUE(r.has_counter("switch.port0.tail_drops"));
  // The run must also have charged wall time to the three phases.
  EXPECT_GT(r.phase_time(Phase::kHost), Time{0});
  EXPECT_GT(r.phase_time(Phase::kNic), Time{0});
  EXPECT_GT(r.phase_time(Phase::kWire), Time{0});
}

TEST(ClusterMetrics, IbTaxonomyAfterTraffic) {
  core::Cluster cluster(2, core::Network::kIb);
  MetricRegistry r;
  cluster.engine().set_metrics(&r);
  run_one_message(cluster, 64 * 1024);
  cluster.collect_metrics(r);

  EXPECT_GT(r.counter_value("ib.node0.packets_sent"), 0u);
  // The RC ack/NAK machinery arms only under an active fault injector —
  // on the lossless fabric the counters exist but must stay zero.
  EXPECT_TRUE(r.has_counter("ib.node0.acks_sent"));
  EXPECT_EQ(r.counter_value("ib.node0.acks_sent") + r.counter_value("ib.node1.acks_sent"), 0u);
  EXPECT_EQ(r.counter_value("ib.node0.naks_sent"), 0u);
  EXPECT_GT(r.counter_value("ib.node0.context_hits") +
                r.counter_value("ib.node0.context_misses"),
            0u);
  EXPECT_GT(r.counter_value("mpi.rank0.rndv_sends"), 0u) << "64 KB goes rendezvous";
}

TEST(ClusterMetrics, MxTaxonomyAfterTraffic) {
  core::Cluster cluster(2, core::Network::kMxom);
  MetricRegistry r;
  cluster.engine().set_metrics(&r);
  run_one_message(cluster, 64 * 1024);
  cluster.collect_metrics(r);

  EXPECT_GT(r.counter_value("mx.node0.frames_sent"), 0u);
  EXPECT_GT(r.counter_value("mx.node0.rndv_sends"), 0u);
  EXPECT_EQ(r.counter_value("mx.node0.resends"), 0u);
  EXPECT_GT(r.counter_value("mx.node0.reg_cache_hits") +
                r.counter_value("mx.node0.reg_cache_misses"),
            0u);
}

TEST(ClusterMetrics, RunnerPublishesHistogramAndRegistry) {
  // The runner plumbing end to end: observers passed through a bench
  // runner come back populated.
  Histogram hist;
  MetricRegistry r;
  const double lat = core::mpi_pingpong_latency_us(core::iwarp_profile(), 1024, 10, &hist, &r);
  EXPECT_GT(lat, 0.0);
  EXPECT_GT(hist.count(), 0u);
  EXPECT_GT(hist.p50(), 0.0);
  EXPECT_GE(hist.p99(), hist.p50());
  EXPECT_GT(r.counter_value("iwarp.node0.segments_sent"), 0u);
}

}  // namespace
}  // namespace fabsim
