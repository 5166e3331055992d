// FabricCheck per-layer audit predicates.
//
// Each protocol invariant is a free function over the minimal slice of
// component state it constrains, returning a Verdict: ok, or a failure
// with the rule id and a detail string. The stacks call these with live
// state (reporting failures through the engine's InvariantMonitor); the
// negative tests in tests/check_test.cpp call the same functions with
// deliberately corrupted inputs to prove every checker actually fires.
// Keeping the predicate separate from the reporting is what makes the
// checkers testable without building corruption seams into the NICs.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "check/invariant.hpp"

namespace fabsim::check {

/// Outcome of one audit predicate.
struct Verdict {
  bool ok = true;
  const char* rule = "";
  std::string detail;

  static Verdict pass() { return Verdict{}; }
  static Verdict fail(const char* rule, std::string detail) {
    return Verdict{false, rule, std::move(detail)};
  }

  /// Report through `monitor` (if attached) when the audit failed.
  void report(InvariantMonitor* monitor, Time at, Layer layer, int node) const {
    if (!ok && monitor != nullptr) monitor->report(at, layer, node, rule, detail);
  }
};

// ---------------------------------------------------------------------------
// sim: engine quiescence
// ---------------------------------------------------------------------------

/// Quiescence/deadlock oracle: once the event queue drains, every
/// non-daemon process must have run to completion. A process still
/// suspended at that point lost a wakeup (event trigger, completion
/// push, ack) — the Engine reports it at drain, and FabricExplore uses
/// the same predicate to classify a schedule as deadlocking. Inline on
/// purpose: sim::Engine calls it from its drain hook, and fabsim_check
/// links against fabsim_sim, so an out-of-line definition would close a
/// library cycle (same reason invariant.hpp is header-only).
inline Verdict audit_quiescence(std::size_t live_processes, std::size_t live_daemons) {
  const std::size_t stuck = live_processes - live_daemons;
  if (stuck == 0) return Verdict::pass();
  return Verdict::fail("lost_wakeup",
                       std::to_string(stuck) +
                           " process(es) still suspended with an empty event queue — a wakeup "
                           "(event trigger, completion push, ack) was lost");
}

// ---------------------------------------------------------------------------
// hw: switch fabric
// ---------------------------------------------------------------------------

/// Bounded-buffer admission: once a frame is accepted, the output-port
/// backlog (including the new frame) must fit the configured buffer.
Verdict audit_switch_occupancy(double backlog_bytes, std::uint32_t frame_bytes,
                               std::uint64_t max_queue_bytes);

/// Frame conservation at a quiescent point: every frame handed to
/// ingress() was either forwarded, dropped by the fault injector,
/// tail-dropped, lost to a failed link/switch (down_drops), or
/// unroutable after a failure partitioned the fabric — nothing
/// vanishes, nothing is duplicated. In routed (multi-stage) fabrics the
/// same identity holds per hop: link arrivals count as ingress,
/// transmissions to the next switch as forwarding.
Verdict audit_switch_conservation(std::uint64_t ingressed, std::uint64_t forwarded,
                                  std::uint64_t fault_drops, std::uint64_t tail_drops,
                                  std::uint64_t down_drops = 0,
                                  std::uint64_t unroutable_drops = 0);

/// Credit non-negativity: an output queue's committed occupancy (queued
/// bytes plus credit-reserved bytes in flight toward it) can never go
/// below zero — a negative value means a credit was returned twice.
Verdict audit_credit_nonnegative(std::int64_t occupancy_bytes);

/// Routed-fabric quiescence: when the event queue drains, every output
/// port must have transmitted everything (no stranded frames) and every
/// consumed credit must have been returned (occupancy back to zero) —
/// the credit-conservation half of the flow-control contract.
Verdict audit_switch_queue_drained(int port, std::size_t queued_frames,
                                   std::int64_t occupancy_bytes, bool transmitting);

// ---------------------------------------------------------------------------
// go-back-N (IB RC, MX flows, iWARP TCP), reported under the caller's layer
// ---------------------------------------------------------------------------

/// Resend queue (IB inflight PSNs, MX per-flow unacked seqs): held
/// sequence numbers are contiguous and the next stamp continues the
/// tail — go-back-N replay depends on it. fault::RetransmitWindow::hold
/// checks the same rule incrementally, one unit at a time.
Verdict audit_resend_queue(const std::deque<std::uint64_t>& seqs, std::uint64_t next);

/// Cumulative ack legality: a peer can only ack what was actually sent
/// (ack <= next: IB snd_psn, MX next_seq, iWARP snd_nxt).
Verdict audit_ack_window(std::uint64_t ack, std::uint64_t next);

// ---------------------------------------------------------------------------
// ib: RC transport
// ---------------------------------------------------------------------------

/// RTO/error legality: a QP may enter the error state only after the
/// retry counter actually exceeded the limit.
Verdict audit_ib_retry_exhausted(int retry_count, int retry_limit);

// ---------------------------------------------------------------------------
// iwarp: MPA/DDP over TCP
// ---------------------------------------------------------------------------

/// TCP sender window: a segment may only be emitted while it fits the
/// advertised window ((snd_nxt - snd_una) + chunk <= window).
Verdict audit_iwarp_window(std::uint64_t snd_nxt, std::uint64_t snd_una, std::uint32_t chunk,
                           std::uint32_t window);

/// DDP untagged delivery is in-order per message: segment msg_offset
/// must equal the bytes already placed for that message.
Verdict audit_iwarp_untagged_inorder(std::uint32_t msg_offset, std::uint32_t placed,
                                     std::uint64_t msg_id);

// ---------------------------------------------------------------------------
// mpi: matching queues
// ---------------------------------------------------------------------------

/// Posted/unexpected disjointness: an unexpected message that matches a
/// posted receive means the matching logic failed to pair them; the two
/// queues must never hold a matching pair at a quiescent point.
/// Wildcards follow MPI semantics (src = kAnySource, tag = kAnyTag).
Verdict audit_mpi_queue_disjoint(int posted_src, int posted_tag, int msg_src, int msg_tag);

}  // namespace fabsim::check
