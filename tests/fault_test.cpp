// Fault-injection subsystem tests.
//
// Covers the FaultPlan decision logic in isolation, the switch-level
// injection point, and — most importantly — the per-stack recovery
// machinery the injector makes reachable: IB RC end-to-end retransmission
// (including retry exhaustion into the QP error state), the MX firmware
// resend queue for both eager and rendezvous traffic, and the iWARP
// go-back-N driven by engine-level (not adapter-local) loss. The
// no-faults runs pin the key invariant: an inert plan leaves every
// timing byte-identical to an uninstrumented run. The FabricFail
// section covers structural failures on routed Clos fabrics: link
// flaps mid-transfer (reroute + drain/requeue), silent switch
// partitions (retry exhaustion surfaces, nothing hangs), multi-hop
// fault determinism, and the FabricCheck negative test for the
// credit-accounting seam.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "core/cluster.hpp"
#include "fault/go_back_n.hpp"
#include "fault/plan.hpp"
#include "hw/fabric.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "topo/topology.hpp"
#include "verbs/verbs.hpp"

namespace fabsim {
namespace {

using fault::FaultAction;
using fault::FaultPlan;
using fault::FaultSite;

// ---------------------------------------------------------------------------
// FaultPlan decision logic (no simulation required)
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// The shared go-back-N (fault/go_back_n.hpp)
// ---------------------------------------------------------------------------

/// A window unit spanning [seq, seq + len), like an iWARP segment.
struct Span {
  std::uint64_t seq = 0;
  std::uint64_t len = 1;
  std::uint64_t end() const { return seq + len; }
};

TEST(GoBackN, WindowReleasesCumulativelyAndResetsRetries) {
  // Byte-stream units: [0,100), [100,250), [250,300).
  fault::RetransmitWindow<Span> window;
  for (const std::uint64_t len : {100, 150, 50}) {
    const std::uint64_t seq = window.stamp(len);
    EXPECT_TRUE(window.hold(Span{seq, len}, seq).ok);
  }
  window.count_retry();
  std::vector<std::uint64_t> released;
  const auto record = [&](const Span& unit) { released.push_back(unit.seq); };
  EXPECT_FALSE(window.release(99, record));
  EXPECT_EQ(window.timeout(us(1), 6), us(2)) << "no progress keeps the retry count";
  EXPECT_TRUE(window.release(250, record));
  EXPECT_EQ(released, (std::vector<std::uint64_t>{0, 100})) << "oldest first, once acked";
  EXPECT_EQ(window.timeout(us(1), 6), us(1)) << "progress resets the retry count";
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].seq, 250u);
}

TEST(GoBackN, HoldAuditsContiguity) {
  fault::RetransmitWindow<Span> window;
  const std::uint64_t first = window.stamp();
  EXPECT_TRUE(window.hold(Span{first}, first).ok);
  window.stamp();  // a stamped unit that was never held
  const std::uint64_t third = window.stamp();
  const check::Verdict gap = window.hold(Span{third}, third);
  EXPECT_FALSE(gap.ok);
  EXPECT_STREQ(gap.rule, "resend_queue_gap");
}

TEST(GoBackN, TimerGenerationsSupersedeAndBackoffIsCapped) {
  fault::RetransmitWindow<Span> window;
  ASSERT_TRUE(window.arm());
  const std::uint64_t gen = window.generation();
  EXPECT_FALSE(window.arm()) << "an armed timer is not armed twice";
  EXPECT_TRUE(window.is_current(gen));
  window.cancel();
  EXPECT_FALSE(window.is_current(gen)) << "a cancelled timeout is superseded";
  ASSERT_TRUE(window.arm());
  EXPECT_FALSE(window.is_current(gen));
  EXPECT_TRUE(window.is_current(window.generation()));

  for (int i = 0; i < 9; ++i) window.count_retry();
  EXPECT_EQ(window.timeout(us(100), /*backoff_cap=*/6), us(6400)) << "IB/MX: rto << 6 at most";
  EXPECT_EQ(window.timeout(us(500), /*backoff_cap=*/0), us(500)) << "iWARP: fixed rto";
}

TEST(GoBackN, ReceiverSignalsEachGapOnceAndCoalescesAcks) {
  using Arrival = fault::InOrderReceiver::Arrival;
  fault::InOrderReceiver rx;
  EXPECT_EQ(rx.accept(0), Arrival::kInOrder);
  EXPECT_EQ(rx.accept(2), Arrival::kGap);
  EXPECT_EQ(rx.accept(3), Arrival::kGapSignalled);
  EXPECT_EQ(rx.accept(0), Arrival::kDuplicate);
  EXPECT_EQ(rx.expected(), 1u);
  EXPECT_EQ(rx.accept(1), Arrival::kInOrder);
  EXPECT_EQ(rx.accept(3), Arrival::kGap) << "a new gap is signalled again";
  EXPECT_EQ(rx.unacked(), 2u);
  EXPECT_FALSE(rx.ack_due(/*last_of_message=*/false, /*ack_every=*/4));
  EXPECT_TRUE(rx.ack_due(/*last_of_message=*/true, /*ack_every=*/4));
  EXPECT_TRUE(rx.ack_due(false, /*ack_every=*/2));
  rx.acked();
  EXPECT_EQ(rx.unacked(), 0u);
}

TEST(FaultPlan, InertByDefault) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_EQ(plan.on_frame(FaultSite{us(1), 0, 1, 100}).action, FaultAction::kDeliver);
  FaultPlan armed;
  armed.drop_probability(0.5);
  EXPECT_TRUE(armed.active());
}

TEST(FaultPlan, NthFrameIsOneShotAndOneBased) {
  FaultPlan plan;
  plan.nth_frame(2, FaultAction::kDrop);
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(plan.on_frame(FaultSite{us(1), 0, 1, 100}).action, FaultAction::kDeliver);
  EXPECT_EQ(plan.on_frame(FaultSite{us(2), 0, 1, 100}).action, FaultAction::kDrop);
  EXPECT_EQ(plan.on_frame(FaultSite{us(3), 0, 1, 100}).action, FaultAction::kDeliver);
  EXPECT_EQ(plan.frames_seen(), 3u);
  EXPECT_EQ(plan.frames_dropped(), 1u);
}

TEST(FaultPlan, ScheduledEntryMatchesNodeOnceAtOrAfterTime) {
  FaultPlan plan;
  plan.at(us(10), 5, FaultAction::kDrop);
  // Too early, and wrong node after the deadline: untouched.
  EXPECT_EQ(plan.on_frame(FaultSite{us(5), 5, 1, 100}).action, FaultAction::kDeliver);
  EXPECT_EQ(plan.on_frame(FaultSite{us(11), 3, 7, 100}).action, FaultAction::kDeliver);
  // First frame touching node 5 at/after t=10us: dropped, exactly once.
  EXPECT_EQ(plan.on_frame(FaultSite{us(12), 5, 1, 100}).action, FaultAction::kDrop);
  EXPECT_EQ(plan.on_frame(FaultSite{us(13), 5, 1, 100}).action, FaultAction::kDeliver);
}

TEST(FaultPlan, LinkFlapDropsBothDirectionsInsideWindow) {
  FaultPlan plan;
  plan.link_flap(2, us(10), us(20));
  EXPECT_EQ(plan.on_frame(FaultSite{us(9), 2, 0, 100}).action, FaultAction::kDeliver);
  EXPECT_EQ(plan.on_frame(FaultSite{us(10), 2, 0, 100}).action, FaultAction::kDrop);
  EXPECT_EQ(plan.on_frame(FaultSite{us(15), 0, 2, 100}).action, FaultAction::kDrop);
  EXPECT_EQ(plan.on_frame(FaultSite{us(15), 0, 1, 100}).action, FaultAction::kDeliver)
      << "frames not touching the flapped node pass";
  EXPECT_EQ(plan.on_frame(FaultSite{us(20), 2, 0, 100}).action, FaultAction::kDeliver)
      << "window end is exclusive";
}

TEST(FaultPlan, NicStallDelaysUntilWindowCloses) {
  FaultPlan plan;
  plan.nic_stall(1, us(10), us(30));
  const auto decision = plan.on_frame(FaultSite{us(12), 1, 0, 100});
  EXPECT_EQ(decision.action, FaultAction::kDelay);
  EXPECT_EQ(decision.delay, us(18)) << "held until the stall window closes";
  EXPECT_EQ(plan.on_frame(FaultSite{us(30), 1, 0, 100}).action, FaultAction::kDeliver);
}

TEST(FaultPlan, SameSeedSameDecisions) {
  FaultPlan a(1234), b(1234);
  a.drop_probability(0.3).corrupt_probability(0.1);
  b.drop_probability(0.3).corrupt_probability(0.1);
  for (int i = 0; i < 200; ++i) {
    const FaultSite site{us(i), 0, 1, 100};
    EXPECT_EQ(a.on_frame(site).action, b.on_frame(site).action) << "frame " << i;
  }
  EXPECT_EQ(a.frames_dropped(), b.frames_dropped());
  EXPECT_EQ(a.frames_corrupted(), b.frames_corrupted());
  EXPECT_GT(a.frames_dropped(), 0u);
  EXPECT_GT(a.frames_corrupted(), 0u);
}

// ---------------------------------------------------------------------------
// Switch-level injection point
// ---------------------------------------------------------------------------

class CountingSink : public hw::FrameSink {
 public:
  explicit CountingSink(Engine& engine) : engine_(&engine) {}
  void deliver(hw::Frame frame) override {
    ++delivered;
    last_at = engine_->now();
    last_corrupted = frame.corrupted;
  }
  int delivered = 0;
  Time last_at = 0;
  bool last_corrupted = false;

 private:
  Engine* engine_;
};

TEST(SwitchFaults, DropCorruptAndDelayAtIngress) {
  Engine engine;
  FaultPlan plan;
  plan.nth_frame(1, FaultAction::kDrop)
      .nth_frame(2, FaultAction::kCorrupt)
      .nth_frame(3, FaultAction::kDelay, us(5));
  engine.set_fault_injector(&plan);
  hw::Switch fabric(engine, hw::SwitchConfig{Rate::gbit_per_sec(10.0), ns(400), ns(100)});
  CountingSink a(engine), b(engine);
  const int pa = fabric.attach(a);
  const int pb = fabric.attach(b);

  // Space arrivals out so each frame's port booking is independent.
  engine.post(0, [&] { fabric.ingress(hw::Frame{pa, pb, 1000, {}}); });
  engine.post(us(10), [&] { fabric.ingress(hw::Frame{pa, pb, 1000, {}}); });
  engine.post(us(20), [&] { fabric.ingress(hw::Frame{pa, pb, 1000, {}}); });
  engine.post(us(30), [&] { fabric.ingress(hw::Frame{pa, pb, 1000, {}}); });
  engine.run();

  EXPECT_EQ(b.delivered, 3) << "frame 1 dropped at the switch";
  EXPECT_EQ(fabric.fault_drops(), 1u);
  EXPECT_EQ(fabric.fault_corruptions(), 1u);
  EXPECT_EQ(fabric.fault_delays(), 1u);
  // Frame 4 (untouched): prop+cut_through+serialization+prop = 1.4us.
  EXPECT_EQ(b.last_at, us(30) + ns(1400));
  EXPECT_FALSE(b.last_corrupted);
}

// ---------------------------------------------------------------------------
// IB RC end-to-end retransmission
// ---------------------------------------------------------------------------

struct IbRun {
  Time finished = 0;
  verbs::Completion send_completion{};
  verbs::Completion recv_completion{};
  bool got_send = false;
  bool got_recv = false;
  bool qp0_error = false;
  std::uint64_t retransmits = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t corrupt_discards = 0;
};

/// One Send/Recv of `len` bytes from node 0 to node 1 over IB, with an
/// optional fault plan attached to the engine.
IbRun run_ib_send(FaultPlan* plan, std::uint32_t len, bool expect_recv = true,
                  core::NetworkProfile profile = core::ib_profile()) {
  core::Cluster cluster(2, profile);
  if (plan != nullptr) cluster.engine().set_fault_injector(plan);
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);

  IbRun out;
  // CQs and QPs outlive the coroutine: late duplicate acks (their frames
  // already in flight when the workload finishes) still reference them.
  verbs::CompletionQueue scq(cluster.engine());
  verbs::CompletionQueue rcq(cluster.engine());
  std::vector<std::unique_ptr<verbs::QueuePair>> qps;

  cluster.engine().spawn([](core::Cluster& c, verbs::CompletionQueue& send_cq,
                            verbs::CompletionQueue& recv_cq,
                            std::vector<std::unique_ptr<verbs::QueuePair>>& pairs, std::uint64_t s,
                            std::uint64_t d, std::uint32_t n, bool want_recv,
                            IbRun& result) -> Task<> {
    pairs.push_back(c.device(0).create_qp(send_cq, send_cq));
    pairs.push_back(c.device(1).create_qp(recv_cq, recv_cq));
    c.device(0).establish(*pairs[0], *pairs[1]);
    auto lkey = co_await c.device(0).reg_mr(s, n);
    auto rkey = co_await c.device(1).reg_mr(d, n);
    co_await pairs[1]->post_recv(verbs::RecvWr{.wr_id = 2, .sge = {d, n, rkey}});
    co_await pairs[0]->post_send(
        verbs::SendWr{.wr_id = 1, .opcode = verbs::Opcode::kSend, .sge = {s, n, lkey}});
    result.send_completion = co_await verbs::next_completion(send_cq, c.node(0).cpu(), ns(200));
    result.got_send = true;
    if (want_recv) {
      result.recv_completion = co_await verbs::next_completion(recv_cq, c.node(1).cpu(), ns(200));
      result.got_recv = true;
    }
    result.qp0_error = pairs[0]->in_error();
  }(cluster, scq, rcq, qps, src.addr(), dst.addr(), len, expect_recv, out));
  cluster.engine().run();

  out.finished = cluster.engine().now();
  out.retransmits = cluster.hca(0).retransmits();
  out.acks_sent = cluster.hca(1).acks_sent();
  out.corrupt_discards = cluster.hca(1).corrupt_discards();
  return out;
}

TEST(IbFaults, ZeroFaultPlanIsByteIdenticalToLosslessRun) {
  const std::uint32_t len = 64 * 1024;
  IbRun bare = run_ib_send(nullptr, len);
  FaultPlan inert;  // attached but inert: must not perturb anything
  IbRun with_plan = run_ib_send(&inert, len);

  ASSERT_TRUE(bare.got_recv);
  ASSERT_TRUE(with_plan.got_recv);
  EXPECT_EQ(bare.finished, with_plan.finished)
      << "an inert plan must leave the timeline byte-identical";
  EXPECT_EQ(with_plan.retransmits, 0u);
  EXPECT_EQ(with_plan.acks_sent, 0u) << "reliability must stay cold without active faults";
  EXPECT_GT(inert.frames_seen(), 0u) << "the plan was consulted, it just never acted";
}

TEST(IbFaults, SingleDropTriggersExactlyOneRetransmit) {
  const std::uint32_t len = 1024;  // single-MTU message
  FaultPlan plan;
  plan.nth_frame(1, FaultAction::kDrop);  // the lone data packet
  IbRun run = run_ib_send(&plan, len);

  EXPECT_EQ(plan.frames_dropped(), 1u);
  EXPECT_EQ(run.retransmits, 1u);
  ASSERT_TRUE(run.got_send);
  ASSERT_TRUE(run.got_recv);
  EXPECT_EQ(run.send_completion.status, verbs::Completion::Status::kSuccess);
  EXPECT_EQ(run.send_completion.wr_id, 1u);
  EXPECT_EQ(run.recv_completion.status, verbs::Completion::Status::kSuccess);
  EXPECT_EQ(run.recv_completion.byte_len, len);
  EXPECT_FALSE(run.qp0_error);
  EXPECT_GE(run.acks_sent, 1u);
}

TEST(IbFaults, CorruptedPacketIsDiscardedAndRetransmitted) {
  const std::uint32_t len = 1024;
  FaultPlan plan;
  plan.nth_frame(1, FaultAction::kCorrupt);
  IbRun run = run_ib_send(&plan, len);

  EXPECT_EQ(run.corrupt_discards, 1u) << "receiver must drop the bad-CRC packet";
  EXPECT_EQ(run.retransmits, 1u);
  ASSERT_TRUE(run.got_recv);
  EXPECT_EQ(run.recv_completion.byte_len, len);
}

TEST(IbFaults, RetryExhaustionMovesQpToErrorState) {
  core::NetworkProfile profile = core::ib_profile();
  profile.hca.rto = us(20);      // keep the backoff ladder short
  profile.hca.retry_limit = 3;
  FaultPlan plan;
  plan.link_flap(/*node=*/0, 0, sec(10.0));  // node 0 unreachable, forever
  IbRun run = run_ib_send(&plan, 1024, /*expect_recv=*/false, profile);

  ASSERT_TRUE(run.got_send);
  EXPECT_EQ(run.send_completion.status, verbs::Completion::Status::kRetryExceeded);
  EXPECT_EQ(run.send_completion.wr_id, 1u);
  EXPECT_TRUE(run.qp0_error);
  EXPECT_EQ(run.retransmits, 3u) << "one go-back-N round per retry before exhaustion";
}

TEST(IbFaults, RecoveryAfterLinkFlapWindowCloses) {
  FaultPlan plan;
  plan.link_flap(/*node=*/1, 0, us(150));  // outage covers the first RTO round
  IbRun run = run_ib_send(&plan, 8 * 1024);

  ASSERT_TRUE(run.got_recv);
  EXPECT_EQ(run.recv_completion.byte_len, 8u * 1024u);
  EXPECT_GT(plan.frames_dropped(), 0u);
  EXPECT_GT(run.retransmits, 0u);
  EXPECT_FALSE(run.qp0_error);
}

TEST(IbFaults, SameSeedReproducesIdenticalRetryCounts) {
  const std::uint32_t len = 256 * 1024;
  FaultPlan a(99), b(99);
  a.drop_probability(0.05);
  b.drop_probability(0.05);
  IbRun first = run_ib_send(&a, len);
  IbRun second = run_ib_send(&b, len);

  ASSERT_TRUE(first.got_recv);
  ASSERT_TRUE(second.got_recv);
  EXPECT_GT(a.frames_dropped(), 0u);
  EXPECT_EQ(a.frames_dropped(), b.frames_dropped());
  EXPECT_EQ(first.retransmits, second.retransmits);
  EXPECT_EQ(first.acks_sent, second.acks_sent);
  EXPECT_EQ(first.finished, second.finished) << "whole-run determinism, not just counters";
}

TEST(IbFaults, TraceRecordsNakDrivenRecoverySequence) {
  // Drop the middle of a multi-packet message: the receiver sees a PSN
  // gap, NAKs once, and the sender go-back-N retransmits — all without
  // waiting for the RTO. The kProto trace pins the sequence down.
  core::Cluster cluster(2, core::ib_profile());
  FaultPlan plan;
  plan.nth_frame(2, FaultAction::kDrop);
  cluster.engine().set_fault_injector(&plan);
  Tracer tracer;
  cluster.engine().set_tracer(&tracer);
  const std::uint32_t len = 8 * 1024;  // 4 MTU-size packets
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

  EXPECT_EQ(tracer.count_containing("IB RC NAK"), 1u) << "one NAK per gap, not per packet";
  EXPECT_GE(tracer.count_containing("IB RC retransmit"), 1u);
  EXPECT_EQ(tracer.count_containing("RTO fired"), 0u) << "NAK repairs before the timer";

  // Order: the NAK precedes the retransmit that answers it.
  std::size_t nak_at = 0, rexmit_at = 0;
  for (std::size_t i = 0; i < tracer.entries().size(); ++i) {
    const auto& label = tracer.entries()[i].label;
    if (nak_at == 0 && label.find("IB RC NAK") != std::string::npos) nak_at = i + 1;
    if (rexmit_at == 0 && label.find("IB RC retransmit") != std::string::npos) rexmit_at = i + 1;
  }
  EXPECT_LT(nak_at, rexmit_at);
}

// ---------------------------------------------------------------------------
// Retry exhaustion with an RDMA Read pending (both verbs transports)
// ---------------------------------------------------------------------------

struct StrandedReadRun {
  verbs::Completion read_completion{};
  verbs::Completion recv_completion{};
  bool got_read = false;
  bool got_recv = false;
  bool requester_error = false;
  bool responder_error = false;
  std::uint64_t retry_exceeded = 0;  ///< flushes the requester's device counted
  bool reported_pending = false;     ///< monitor saw error_pending_completion
};

/// Regression: an RDMA Read whose *request* was delivered and acked but
/// whose *response* is lost forever used to hang silently — the
/// requester had nothing left to retransmit, so no timer fired on its
/// side, the responder exhausted its retries alone, and the read's
/// completion never materialized (under-counting kRetryExceeded). Now the
/// responder propagates its terminal failure to the peer, and the
/// requester flushes both the stranded read and the receive it had
/// posted with kRetryExceeded.
StrandedReadRun run_stranded_read(core::Network network) {
  core::NetworkProfile profile = core::profile(network);
  profile.rnic.rto = us(20);
  profile.rnic.retry_limit = 3;
  profile.hca.rto = us(20);
  profile.hca.retry_limit = 3;
  core::Cluster cluster(2, profile);
  check::InvariantMonitor& monitor = cluster.enable_checks(/*fatal=*/false);

  // Frame order for a one-segment read: f1 = request (0->1), f2 = ack
  // (1->0), f3 = response (1->0). Drop the response and every retransmit
  // of it; the request and its ack sail through.
  FaultPlan plan;
  for (std::uint64_t n = 3; n <= 12; ++n) plan.nth_frame(n, FaultAction::kDrop);
  cluster.engine().set_fault_injector(&plan);

  const std::uint32_t len = 1024;  // below MTU and MSS: exactly one response frame
  auto& sink = cluster.node(0).mem().alloc(len, false);
  auto& inbox = cluster.node(0).mem().alloc(len, false);
  auto& source = cluster.node(1).mem().alloc(len, false);

  StrandedReadRun out;
  verbs::CompletionQueue send_cq(cluster.engine());
  verbs::CompletionQueue recv_cq(cluster.engine());
  verbs::CompletionQueue peer_cq(cluster.engine());
  std::vector<std::unique_ptr<verbs::QueuePair>> qps;
  qps.push_back(cluster.device(0).create_qp(send_cq, recv_cq));
  qps.push_back(cluster.device(1).create_qp(peer_cq, peer_cq));
  cluster.device(0).establish(*qps[0], *qps[1]);
  cluster.engine().spawn([](core::Cluster& c, verbs::QueuePair& qp, verbs::CompletionQueue& scq,
                            verbs::CompletionQueue& rcq, std::uint64_t d, std::uint64_t r,
                            std::uint64_t s, std::uint32_t n, StrandedReadRun& result) -> Task<> {
    auto lkey = co_await c.device(0).reg_mr(d, n);
    auto inbox_key = co_await c.device(0).reg_mr(r, n);
    auto rkey = co_await c.device(1).reg_mr(s, n);
    co_await qp.post_recv(verbs::RecvWr{.wr_id = 2, .sge = {r, n, inbox_key}});
    co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                        .opcode = verbs::Opcode::kRdmaRead,
                                        .sge = {d, n, lkey},
                                        .remote_addr = s,
                                        .rkey = rkey});
    result.read_completion = co_await verbs::next_completion(scq, c.node(0).cpu(), ns(200));
    result.got_read = true;
    result.recv_completion = co_await verbs::next_completion(rcq, c.node(0).cpu(), ns(200));
    result.got_recv = true;
  }(cluster, *qps[0], send_cq, recv_cq, sink.addr(), inbox.addr(), source.addr(), len, out));
  cluster.engine().run();

  out.requester_error = qps[0]->in_error();
  out.responder_error = qps[1]->in_error();
  out.retry_exceeded = network == core::Network::kIb
                           ? cluster.hca(0).retry_exceeded_completions()
                           : cluster.rnic(0).retry_exceeded_completions();
  for (const auto& v : monitor.violations()) {
    if (v.rule == "error_pending_completion") out.reported_pending = true;
  }
  return out;
}

void expect_stranded_read_flushed(const StrandedReadRun& run) {
  ASSERT_TRUE(run.got_read) << "the stranded read must complete, not hang";
  EXPECT_EQ(run.read_completion.status, verbs::Completion::Status::kRetryExceeded);
  EXPECT_EQ(run.read_completion.wr_id, 1u);
  EXPECT_EQ(run.read_completion.type, verbs::Completion::Type::kRdmaRead);
  ASSERT_TRUE(run.got_recv) << "the posted receive must flush, not hang";
  EXPECT_EQ(run.recv_completion.status, verbs::Completion::Status::kRetryExceeded);
  EXPECT_EQ(run.recv_completion.wr_id, 2u);
  EXPECT_EQ(run.recv_completion.type, verbs::Completion::Type::kRecv);
  EXPECT_TRUE(run.responder_error) << "retry exhaustion must move the responder QP to error";
  EXPECT_TRUE(run.requester_error) << "peer failure must move the requester QP to error";
  EXPECT_EQ(run.retry_exceeded, 2u) << "the read and the receive both count as kRetryExceeded";
}

TEST(IbFaults, RetryExhaustionWithPendingReadFlushesCompletion) {
  const StrandedReadRun run = run_stranded_read(core::Network::kIb);
  expect_stranded_read_flushed(run);
  // The monitor saw the QP die with work still pending.
  EXPECT_TRUE(run.reported_pending) << "enter_error with pending reads must be reported";
}

TEST(IwarpFaults, RetryExhaustionWithPendingReadFlushesCompletion) {
  expect_stranded_read_flushed(run_stranded_read(core::Network::kIwarp));
}

// ---------------------------------------------------------------------------
// MX reliable delivery
// ---------------------------------------------------------------------------

struct MxRun {
  Time finished = 0;
  bool send_done = false;
  bool recv_done = false;
  std::uint32_t recv_len = 0;
  std::uint64_t resends = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t corrupt_discards = 0;
};

MxRun run_mx_send(FaultPlan* plan, std::uint32_t len,
                  core::NetworkProfile profile = core::mxoe_profile()) {
  core::Cluster cluster(2, profile);
  if (plan != nullptr) cluster.engine().set_fault_injector(plan);
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);

  MxRun out;
  cluster.engine().spawn(
      [](core::Cluster& c, std::uint64_t s, std::uint32_t n, MxRun& result) -> Task<> {
        auto request = co_await c.endpoint(0).isend(s, n, c.endpoint(1).port(), 7);
        co_await c.endpoint(0).wait(request);
        result.send_done = request->done();
      }(cluster, src.addr(), len, out));
  cluster.engine().spawn(
      [](core::Cluster& c, std::uint64_t d, std::uint32_t n, MxRun& result) -> Task<> {
        auto request = co_await c.endpoint(1).irecv(d, n, 7, ~0ull);
        co_await c.endpoint(1).wait(request);
        result.recv_done = request->done();
        result.recv_len = request->length();
      }(cluster, dst.addr(), len, out));
  cluster.engine().run();

  out.finished = cluster.engine().now();
  out.resends = cluster.endpoint(0).resends() + cluster.endpoint(1).resends();
  out.acks_sent = cluster.endpoint(0).acks_sent() + cluster.endpoint(1).acks_sent();
  out.corrupt_discards = cluster.endpoint(1).corrupt_discards();
  return out;
}

TEST(MxFaults, ZeroFaultPlanIsByteIdenticalToLosslessRun) {
  for (const std::uint32_t len : {16u * 1024u, 64u * 1024u}) {  // eager and rendezvous
    MxRun bare = run_mx_send(nullptr, len);
    FaultPlan inert;
    MxRun with_plan = run_mx_send(&inert, len);
    ASSERT_TRUE(bare.recv_done);
    ASSERT_TRUE(with_plan.recv_done);
    EXPECT_EQ(bare.finished, with_plan.finished) << "len=" << len;
    EXPECT_EQ(with_plan.resends, 0u);
    EXPECT_EQ(with_plan.acks_sent, 0u) << "reliability must stay cold without active faults";
  }
}

TEST(MxFaults, RecoversDroppedEagerFrame) {
  core::NetworkProfile profile = core::mxoe_profile();
  profile.mx.rto = us(50);
  FaultPlan plan;
  plan.nth_frame(1, FaultAction::kDrop);  // the lone eager data frame
  MxRun run = run_mx_send(&plan, 4096, profile);

  EXPECT_EQ(plan.frames_dropped(), 1u);
  EXPECT_TRUE(run.send_done);
  ASSERT_TRUE(run.recv_done);
  EXPECT_EQ(run.recv_len, 4096u);
  EXPECT_GE(run.resends, 1u);
}

TEST(MxFaults, RecoversDroppedRendezvousRts) {
  core::NetworkProfile profile = core::mxoe_profile();
  profile.mx.rto = us(50);
  FaultPlan plan;
  plan.nth_frame(1, FaultAction::kDrop);  // the RTS itself
  const std::uint32_t len = 64 * 1024;    // > eager_max: rendezvous path
  MxRun run = run_mx_send(&plan, len, profile);

  EXPECT_EQ(plan.frames_dropped(), 1u);
  ASSERT_TRUE(run.recv_done);
  EXPECT_EQ(run.recv_len, len);
  EXPECT_GE(run.resends, 1u);
}

TEST(MxFaults, RecoversRandomRendezvousLossDeterministically) {
  const std::uint32_t len = 256 * 1024;
  core::NetworkProfile profile = core::mxoe_profile();
  profile.mx.rto = us(100);
  FaultPlan a(7), b(7);
  a.drop_probability(0.05);
  b.drop_probability(0.05);
  MxRun first = run_mx_send(&a, len, profile);
  MxRun second = run_mx_send(&b, len, profile);

  ASSERT_TRUE(first.recv_done);
  EXPECT_EQ(first.recv_len, len);
  EXPECT_GT(a.frames_dropped(), 0u);
  EXPECT_GT(first.resends, 0u);
  // Same seed, same plan: identical drop schedule, resend count, timing.
  EXPECT_EQ(a.frames_dropped(), b.frames_dropped());
  EXPECT_EQ(first.resends, second.resends);
  EXPECT_EQ(first.finished, second.finished);
}

TEST(MxFaults, CorruptedEagerFrameIsDiscardedAndResent) {
  core::NetworkProfile profile = core::mxoe_profile();
  profile.mx.rto = us(50);
  FaultPlan plan;
  plan.nth_frame(1, FaultAction::kCorrupt);
  MxRun run = run_mx_send(&plan, 4096, profile);

  EXPECT_EQ(run.corrupt_discards, 1u);
  ASSERT_TRUE(run.recv_done);
  EXPECT_EQ(run.recv_len, 4096u);
  EXPECT_GE(run.resends, 1u);
}

// ---------------------------------------------------------------------------
// Fabric failures on routed topologies (FabricFail)
// ---------------------------------------------------------------------------

struct ClosRun {
  verbs::Completion send[2]{};
  bool sent_ok[2] = {false, false};
  bool placed[2] = {false, false};
  bool qp0_error = false;
  int epochs = 0;  // LFT recomputes observed during the run
  std::uint64_t digest = 0;
  std::uint64_t violations = 0;
  std::string first_rule;
};

/// Two concurrent 16KB RDMA writes (nodes 0 and 1 -> node 3) across a
/// 2-level credit-flow-control Clos, under one of two failure shapes:
///
///  * flap (partition=false): the uplink both flows route through
///    (link 1 = leaf0 <-> spine1, by the dst % spines tie-break) goes
///    down mid-transfer and comes back 25us later. The trigger polls
///    the uplink's queue at fixed times and fires at the first tick
///    that finds frames queued behind it, so the drain/requeue path is
///    genuinely exercised no matter how long QP setup takes — and the
///    poll times are fixed, so the run stays deterministic.
///  * partition (partition=true): the writers' shared edge switch dies
///    *silently* — an undetected failure, injected through the
///    FaultPlan seam the way ext_chaos does it, so the stacks arm their
///    reliability machinery (faults_armed) — for longer than the whole
///    retry ladder. Both flows must surface kRetryExceeded rather than
///    hang. Note the split: detected structural failures (topo.fail_*)
///    are repaired losslessly by reroute + credit requeue and need no
///    stack recovery at all; only *undetected* loss needs an armed plan.
ClosRun run_clos_writes(bool leak_seam, bool partition) {
  core::NetworkProfile profile = core::ib_profile();
  profile.hca.rto = us(20);
  profile.hca.retry_limit = partition ? 3 : 5;
  profile.fabric = topo::FabricSpec{2, 4, 1.0, hw::FlowControl::kCredit};
  profile.switch_cfg.max_queue_bytes = 4096;  // ~2 MTUs: queues build behind the uplink
  profile.switch_cfg.mutation_leak_credit_on_drain = leak_seam;
  core::Cluster cluster(4, profile);
  check::InvariantMonitor& monitor = cluster.enable_checks(/*fatal=*/false);
  topo::Topology& topo = cluster.topology();
  const int epoch_before = topo.lft_epoch();

  FaultPlan plan;
  if (partition) {
    plan.switch_down(topo.edge_index_of(0), us(0), ms(500));
    cluster.engine().set_fault_injector(&plan);
  } else {
    const topo::Topology::LinkRec uplink = topo.links()[1];
    topo::Topology* tp = &topo;
    Engine* eng = &cluster.engine();
    auto flapped = std::make_shared<bool>(false);
    for (int tick = 2; tick <= 400; tick += 2) {
      eng->post(us(tick), [tp, eng, flapped, uplink] {
        if (*flapped) return;
        if (tp->sw(uplink.a).output_queue_frames(uplink.port_a) == 0) return;
        *flapped = true;
        tp->fail_link(1);
        eng->post(eng->now() + us(25), [tp] { tp->restore_link(1); });
      });
    }
  }

  const std::uint32_t len = 16 * 1024;
  ClosRun out;
  std::vector<std::unique_ptr<verbs::CompletionQueue>> cqs;
  std::vector<std::unique_ptr<verbs::QueuePair>> qps;
  for (int s = 0; s < 2; ++s) {
    auto& src = cluster.node(s).mem().alloc(len, false);
    auto& dst = cluster.node(3).mem().alloc(len, false);
    cqs.push_back(std::make_unique<verbs::CompletionQueue>(cluster.engine()));
    auto dst_qp = cluster.device(3).create_qp(*cqs.back(), *cqs.back());
    auto src_qp = cluster.device(s).create_qp(*cqs.back(), *cqs.back());
    cluster.device(3).establish(*dst_qp, *src_qp);
    cluster.engine().spawn([](core::Cluster& c, verbs::QueuePair& qp, verbs::CompletionQueue& cq,
                              int sender, std::uint64_t sa, std::uint64_t da, std::uint32_t n,
                              verbs::Completion* comp, bool* sent_ok, bool* was_placed) -> Task<> {
      auto lkey = co_await c.device(sender).reg_mr(sa, n);
      auto rkey = co_await c.device(3).reg_mr(da, n);
      auto watch = c.device(3).watch_placement(da, n);
      co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                          .opcode = verbs::Opcode::kRdmaWrite,
                                          .sge = {sa, n, lkey},
                                          .remote_addr = da,
                                          .rkey = rkey});
      *comp = co_await verbs::next_completion(cq, c.node(sender).cpu(), ns(200));
      *sent_ok = comp->status == verbs::Completion::Status::kSuccess;
      // A failed write never places its bytes; waiting would strand this
      // coroutine and trip the lost-wakeup audit.
      if (*sent_ok) {
        co_await watch->wait();
        *was_placed = true;
      }
    }(cluster, *src_qp, *cqs.back(), s, src.addr(), dst.addr(), len, &out.send[s],
      &out.sent_ok[s], &out.placed[s]));
    qps.push_back(std::move(dst_qp));
    qps.push_back(std::move(src_qp));
  }
  cluster.engine().run();

  out.qp0_error = qps[1]->in_error();
  out.epochs = topo.lft_epoch() - epoch_before;
  MetricRegistry registry;
  cluster.collect_metrics(registry);
  out.digest = registry.counter_value("sim.digest");
  out.violations = monitor.violation_count();
  if (!monitor.violations().empty()) out.first_rule = monitor.violations()[0].rule;
  return out;
}

TEST(FabricFaults, LinkFlapMidTransferReroutesAndRecovers) {
  const ClosRun r = run_clos_writes(/*leak_seam=*/false, /*partition=*/false);
  EXPECT_GE(r.epochs, 2) << "the down/up window must drive two LFT recomputes";
  EXPECT_TRUE(r.sent_ok[0]);
  EXPECT_TRUE(r.sent_ok[1]);
  EXPECT_TRUE(r.placed[0]) << "writer 0's bytes must arrive via the rerouted path";
  EXPECT_TRUE(r.placed[1]);
  EXPECT_FALSE(r.qp0_error);
  EXPECT_EQ(r.violations, 0u) << "drain/requeue must conserve frames and credits: "
                              << r.first_rule;
}

TEST(FabricFaults, MultiHopFaultRunsAreDigestStable) {
  const ClosRun a = run_clos_writes(/*leak_seam=*/false, /*partition=*/false);
  const ClosRun b = run_clos_writes(/*leak_seam=*/false, /*partition=*/false);
  EXPECT_EQ(a.digest, b.digest) << "reroute + drain must not break run determinism";
}

TEST(FabricFaults, SilentEdgeSwitchPartitionSurfacesRetryExhaustion) {
  const ClosRun r = run_clos_writes(/*leak_seam=*/false, /*partition=*/true);
  ASSERT_TRUE(r.send[0].wr_id == 1u && r.send[1].wr_id == 1u)
      << "both writes must complete (with an error), not hang";
  EXPECT_EQ(r.send[0].status, verbs::Completion::Status::kRetryExceeded);
  EXPECT_EQ(r.send[1].status, verbs::Completion::Status::kRetryExceeded);
  EXPECT_FALSE(r.placed[0]);
  EXPECT_TRUE(r.qp0_error) << "retry exhaustion must move the QP to the error state";
  EXPECT_EQ(r.violations, 0u)
      << "a surfaced error is a clean outcome, not an invariant violation: " << r.first_rule;
}

// The FabricCheck negative test for the credit-accounting seam: arm the
// test-only leak (the link-failure drain "forgets" to return one frame's
// committed buffer space) and prove the quiescence audit catches it.
TEST(FabricFaults, LeakedCreditOnDrainIsCaughtByFabricCheck) {
  const ClosRun r = run_clos_writes(/*leak_seam=*/true, /*partition=*/false);
  EXPECT_GE(r.violations, 1u) << "the leaked occupancy must not go unnoticed";
  EXPECT_EQ(r.first_rule, "queue_not_drained");
  // The leak is an accounting bug, not a data-loss bug: every byte still
  // lands, only the quiescent credit identity is broken.
  EXPECT_TRUE(r.placed[0]);
  EXPECT_TRUE(r.placed[1]);
}

// ---------------------------------------------------------------------------
// iWARP go-back-N driven by the engine-level injector
// ---------------------------------------------------------------------------

TEST(IwarpFaults, EngineInjectorDrivesGoBackN) {
  // Every drop comes from the engine-level plan, and the RNIC must arm
  // its retry timers for it (faults_armed).
  core::Cluster cluster(2, core::Network::kIwarp);
  FaultPlan plan(11);
  plan.drop_probability(0.05);
  cluster.engine().set_fault_injector(&plan);
  const std::uint32_t len = 256 * 1024;
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);

  bool placed = false;
  cluster.engine().spawn([](core::Cluster& c, std::uint64_t s, std::uint64_t d, std::uint32_t n,
                            bool& done) -> Task<> {
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
    done = true;
  }(cluster, src.addr(), dst.addr(), len, placed));
  cluster.engine().run();

  EXPECT_TRUE(placed) << "go-back-N must recover engine-injected loss";
  EXPECT_GT(plan.frames_dropped(), 0u);
  EXPECT_GT(cluster.rnic(0).retransmits(), 0u);
}

}  // namespace
}  // namespace fabsim
