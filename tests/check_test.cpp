// FabricCheck tests.
//
// Every per-layer checker gets a *negative* test: feed it a deliberately
// corrupted state and prove it fires with the right rule id. The audit
// predicates are free functions, so corruption means "call with bad
// inputs" — no corruption seams inside the NICs. The monitor-level
// behaviours (fatal vs counting, engine hooks, daemon exclusion) and the
// two meta-properties the whole subsystem rests on — zero timeline
// overhead and run-digest determinism — are pinned at the end.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "check/audits.hpp"
#include "check/invariant.hpp"
#include "core/cluster.hpp"
#include "mpi/request.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "verbs/verbs.hpp"

namespace fabsim {
namespace {

using check::InvariantMonitor;
using check::InvariantViolationError;
using check::Layer;
using check::Verdict;

bool fired(const Verdict& v, const char* rule) {
  return !v.ok && std::string(v.rule) == rule;
}

// ---------------------------------------------------------------------------
// Monitor plumbing
// ---------------------------------------------------------------------------

TEST(Monitor, FatalModeThrowsTypedErrorWithContext) {
  InvariantMonitor monitor(/*fatal=*/true);
  try {
    monitor.report(us(42), Layer::kIb, 3, "psn_gap_in_inflight", "gap after 7");
    FAIL() << "fatal monitor must throw";
  } catch (const InvariantViolationError& e) {
    EXPECT_EQ(e.violation().layer, Layer::kIb);
    EXPECT_EQ(e.violation().node, 3);
    EXPECT_EQ(e.violation().rule, "psn_gap_in_inflight");
    EXPECT_NE(std::string(e.what()).find("ib.psn_gap_in_inflight"), std::string::npos);
  }
}

TEST(Monitor, CountingModeAccumulatesAndPublishesMetrics) {
  InvariantMonitor monitor(/*fatal=*/false);
  MetricRegistry registry;
  monitor.set_metrics(&registry);
  monitor.report(us(1), Layer::kHw, 0, "queue_overflow", "a");
  monitor.report(us(2), Layer::kHw, 1, "queue_overflow", "b");
  monitor.report(us(3), Layer::kMx, 0, "resend_queue_gap", "c");
  EXPECT_EQ(monitor.violation_count(), 3u);
  EXPECT_FALSE(monitor.clean());
  EXPECT_EQ(registry.counter_value("check.violations"), 3u);
  EXPECT_EQ(registry.counter_value("check.hw.queue_overflow"), 2u);
  EXPECT_EQ(registry.counter_value("check.mx.resend_queue_gap"), 1u);
}

TEST(Monitor, ExpectEvaluatesDetailLazily) {
  InvariantMonitor monitor(/*fatal=*/false);
  bool built = false;
  monitor.expect(true, us(1), Layer::kSim, 0, "never", [&] {
    built = true;
    return std::string("unused");
  });
  EXPECT_FALSE(built) << "passing expectations must not build detail strings";
  monitor.expect(false, us(1), Layer::kSim, 0, "fires", [&] {
    built = true;
    return std::string("used");
  });
  EXPECT_TRUE(built);
  EXPECT_EQ(monitor.violation_count(), 1u);
}

// ---------------------------------------------------------------------------
// sim: engine-level invariants
// ---------------------------------------------------------------------------

TEST(SimCheck, PostIntoThePastIsReported) {
  Engine engine;
  InvariantMonitor monitor(/*fatal=*/false);
  engine.set_monitor(&monitor);
  engine.post(us(10), [&] {
    engine.post(us(5), [] {});  // scheduled before "now": corrupt
  });
  engine.run();
  // post() checks every insertion; a counting monitor records the misuse
  // and the run goes on.
  ASSERT_EQ(monitor.violation_count(), 1u);
  EXPECT_EQ(monitor.violations()[0].rule, "time_monotone");
  EXPECT_EQ(monitor.violations()[0].layer, Layer::kSim);
}

TEST(SimCheck, PostIntoThePastThrowsWithoutMonitor) {
  // The check is not an assert: it runs in release builds too, and a
  // bare engine refuses the post instead of queueing it behind the clock.
  Engine engine;
  engine.post(us(10), [&engine] { engine.post(us(5), [] {}); });
  EXPECT_THROW(engine.run(), std::logic_error);
  EXPECT_EQ(engine.now(), us(10));
}

TEST(SimCheck, StuckCoroutineAtDrainIsALostWakeup) {
  Engine engine;
  InvariantMonitor monitor(/*fatal=*/false);
  engine.set_monitor(&monitor);
  auto forever = std::make_unique<Event>(engine);
  engine.spawn([](Event& e) -> Task<> { co_await e.wait(); }(*forever));
  engine.post(us(1), [] {});  // some real work, then the queue drains
  engine.run();
  ASSERT_EQ(monitor.violation_count(), 1u);
  EXPECT_EQ(monitor.violations()[0].rule, "lost_wakeup");
}

TEST(SimCheck, DaemonsAreExemptFromLostWakeupAudit) {
  // Infinite service loops (e.g. the ChVerbs async-progress thread) park
  // on events forever by design; spawn_daemon excludes them.
  Engine engine;
  InvariantMonitor monitor(/*fatal=*/false);
  engine.set_monitor(&monitor);
  auto forever = std::make_unique<Event>(engine);
  engine.spawn_daemon([](Event& e) -> Task<> { co_await e.wait(); }(*forever));
  engine.post(us(1), [] {});
  engine.run();
  EXPECT_EQ(monitor.violation_count(), 0u);
  EXPECT_EQ(engine.live_daemons(), 1u);
}

// ---------------------------------------------------------------------------
// hw: switch invariants
// ---------------------------------------------------------------------------

TEST(HwCheck, OverFullOutputQueueFires) {
  EXPECT_TRUE(fired(check::audit_switch_occupancy(/*backlog=*/9000.0, /*frame=*/1500,
                                                  /*max=*/8192),
                    "queue_overflow"));
  EXPECT_TRUE(check::audit_switch_occupancy(4000.0, 1500, 8192).ok);
  EXPECT_TRUE(check::audit_switch_occupancy(1.0, 1500, 0).ok) << "0 means unbounded";
}

TEST(HwCheck, FrameLeakBreaksConservation) {
  // 10 in, 7 out, 1 fault drop, 1 tail drop: one frame vanished.
  EXPECT_TRUE(fired(check::audit_switch_conservation(10, 7, 1, 1), "frame_conservation"));
  // Duplication is just as illegal as a leak.
  EXPECT_TRUE(fired(check::audit_switch_conservation(10, 9, 1, 1), "frame_conservation"));
  EXPECT_TRUE(check::audit_switch_conservation(10, 8, 1, 1).ok);
}

// ---------------------------------------------------------------------------
// ib: RC transport invariants
// ---------------------------------------------------------------------------

TEST(IbCheck, PsnGapInInflightQueueFires) {
  // IB inflight PSNs.
  EXPECT_TRUE(fired(check::audit_resend_queue({4, 5, 7}, 8), "resend_queue_gap"));
  EXPECT_TRUE(fired(check::audit_resend_queue({4, 5, 6}, 9), "resend_tail_mismatch"));
  EXPECT_TRUE(check::audit_resend_queue({4, 5, 6}, 7).ok);
  EXPECT_TRUE(check::audit_resend_queue({}, 7).ok);
}

TEST(IbCheck, AckBeyondWindowFires) {
  // IB cumulative ack PSN against snd_psn.
  EXPECT_TRUE(fired(check::audit_ack_window(/*ack=*/12, /*next=*/10), "ack_beyond_window"));
  EXPECT_TRUE(check::audit_ack_window(10, 10).ok);
  EXPECT_TRUE(check::audit_ack_window(3, 10).ok);
}

TEST(IbCheck, PrematureErrorEntryFires) {
  EXPECT_TRUE(fired(check::audit_ib_retry_exhausted(/*count=*/2, /*limit=*/3),
                    "premature_error"));
  EXPECT_TRUE(check::audit_ib_retry_exhausted(4, 3).ok);
}

// ---------------------------------------------------------------------------
// iwarp: MPA/DDP/TCP invariants
// ---------------------------------------------------------------------------

TEST(IwarpCheck, WindowOverrunFires) {
  // 3000 unacked + 2000 new > 4096 window.
  EXPECT_TRUE(fired(check::audit_iwarp_window(/*snd_nxt=*/3000, /*snd_una=*/0, /*chunk=*/2000,
                                              /*window=*/4096),
                    "window_overrun"));
  EXPECT_TRUE(check::audit_iwarp_window(3000, 0, 1000, 4096).ok);
}

TEST(IwarpCheck, AckOutsideByteStreamFires) {
  EXPECT_TRUE(fired(check::audit_ack_window(/*ack=*/5000, /*snd_nxt=*/4000), "ack_beyond_window"));
  EXPECT_TRUE(check::audit_ack_window(4000, 4000).ok);
}

TEST(IwarpCheck, ReorderedUntaggedSegmentFires) {
  // Second segment of a message placed before the first: offset 1460
  // arrives while 0 bytes are placed.
  EXPECT_TRUE(fired(check::audit_iwarp_untagged_inorder(/*msg_offset=*/1460, /*placed=*/0,
                                                        /*msg_id=*/9),
                    "untagged_out_of_order"));
  EXPECT_TRUE(check::audit_iwarp_untagged_inorder(1460, 1460, 9).ok);
}

// ---------------------------------------------------------------------------
// mx: firmware reliability invariants (the go-back-N predicates are shared
// with IB RC and iWARP TCP)
// ---------------------------------------------------------------------------

TEST(MxCheck, ResendQueueGapFires) {
  // Per-flow unacked sequence numbers against the flow's next_seq.
  EXPECT_TRUE(fired(check::audit_resend_queue({1, 2, 4}, 5), "resend_queue_gap"));
  EXPECT_TRUE(fired(check::audit_resend_queue({1, 2, 3}, 5), "resend_tail_mismatch"));
  EXPECT_TRUE(check::audit_resend_queue({1, 2, 3}, 4).ok);
}

TEST(MxCheck, FlowAckBeyondWindowFires) {
  // Flow ack against next_seq.
  EXPECT_TRUE(fired(check::audit_ack_window(/*ack=*/9, /*next=*/6), "ack_beyond_window"));
  EXPECT_TRUE(check::audit_ack_window(6, 6).ok);
}

// ---------------------------------------------------------------------------
// mpi: matching-queue and request-lifecycle invariants
// ---------------------------------------------------------------------------

TEST(MpiCheck, MatchingPostedAndUnexpectedEntriesFire) {
  using check::audit_mpi_queue_disjoint;
  EXPECT_TRUE(fired(audit_mpi_queue_disjoint(/*posted_src=*/1, /*posted_tag=*/7,
                                             /*msg_src=*/1, /*msg_tag=*/7),
                    "queue_overlap"));
  // Wildcards match anything — still an overlap.
  EXPECT_TRUE(fired(audit_mpi_queue_disjoint(mpi::kAnySource, mpi::kAnyTag, 2, 3),
                    "queue_overlap"));
  EXPECT_TRUE(audit_mpi_queue_disjoint(1, 7, 1, 8).ok);
  EXPECT_TRUE(audit_mpi_queue_disjoint(1, 7, 2, 7).ok);
}

TEST(MpiCheck, DoubleCompletedRequestIsReported) {
  Engine engine;
  InvariantMonitor monitor(/*fatal=*/false);
  engine.set_monitor(&monitor);
  mpi::Request request(engine);
  request.complete(mpi::Status{.source = 0, .tag = 5, .length = 64});
  EXPECT_EQ(monitor.violation_count(), 0u);
  request.complete(mpi::Status{.source = 1, .tag = 5, .length = 64});  // corrupt: twice
  ASSERT_EQ(monitor.violation_count(), 1u);
  EXPECT_EQ(monitor.violations()[0].rule, "double_complete");
  EXPECT_EQ(monitor.violations()[0].layer, Layer::kMpi);
  // First completion's status survives; the duplicate is dropped.
  EXPECT_EQ(request.status().source, 0);
}

// ---------------------------------------------------------------------------
// Meta-properties: zero overhead and digest determinism
// ---------------------------------------------------------------------------

/// One small IB Send/Recv through the full stack; returns (now, digest,
/// events) so runs can be compared bit-for-bit.
struct RunFingerprint {
  Time finished;
  std::uint64_t digest;
  std::uint64_t events;
};

RunFingerprint run_ib_workload(bool with_monitor) {
  core::Cluster cluster(2, core::ib_profile());
  if (with_monitor) cluster.enable_checks(/*fatal=*/true);
  const std::uint32_t len = 16 * 1024;
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);
  verbs::CompletionQueue scq(cluster.engine());
  verbs::CompletionQueue rcq(cluster.engine());
  std::vector<std::unique_ptr<verbs::QueuePair>> qps;
  cluster.engine().spawn([](core::Cluster& c, verbs::CompletionQueue& send_cq,
                            verbs::CompletionQueue& recv_cq,
                            std::vector<std::unique_ptr<verbs::QueuePair>>& pairs, std::uint64_t s,
                            std::uint64_t d, std::uint32_t n) -> Task<> {
    pairs.push_back(c.device(0).create_qp(send_cq, send_cq));
    pairs.push_back(c.device(1).create_qp(recv_cq, recv_cq));
    c.device(0).establish(*pairs[0], *pairs[1]);
    auto lkey = co_await c.device(0).reg_mr(s, n);
    auto rkey = co_await c.device(1).reg_mr(d, n);
    co_await pairs[1]->post_recv(verbs::RecvWr{.wr_id = 2, .sge = {d, n, rkey}});
    co_await pairs[0]->post_send(
        verbs::SendWr{.wr_id = 1, .opcode = verbs::Opcode::kSend, .sge = {s, n, lkey}});
    co_await verbs::next_completion(recv_cq, c.node(1).cpu(), ns(200));
  }(cluster, scq, rcq, qps, src.addr(), dst.addr(), len));
  cluster.engine().run();
  return {cluster.engine().now(), cluster.engine().run_digest(),
          cluster.engine().events_processed()};
}

TEST(CheckMeta, MonitorLeavesTimelineByteIdentical) {
  const RunFingerprint bare = run_ib_workload(/*with_monitor=*/false);
  const RunFingerprint audited = run_ib_workload(/*with_monitor=*/true);
  EXPECT_EQ(bare.finished, audited.finished);
  EXPECT_EQ(bare.events, audited.events);
  EXPECT_EQ(bare.digest, audited.digest)
      << "an attached monitor must observe, never perturb";
}

TEST(CheckMeta, RunDigestIsDeterministicAndDiscriminating) {
  const RunFingerprint a = run_ib_workload(false);
  const RunFingerprint b = run_ib_workload(false);
  EXPECT_EQ(a.digest, b.digest) << "same configuration, same digest";
  EXPECT_GT(a.events, 0u);

  // A different workload must fingerprint differently.
  Engine small;
  small.post(us(1), [] {});
  small.run();
  EXPECT_NE(a.digest, small.run_digest());
}

}  // namespace
}  // namespace fabsim
