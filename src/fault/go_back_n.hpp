// Go-back-N, written once for IB RC (PSNs), the MX firmware flows
// (per-peer frame seqs) and iWARP TCP (byte-stream offsets). Senders
// hold units and arm the retry timer only while hw::Switch::can_lose().
//
// Neither half posts events or knows its caller: a stack arms the timer
// and posts its own on_timeout(id, generation()) under its own scope
// label, and composes NAKs, piggybacked and delayed acks, and its
// completion and error semantics from these operations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "check/audits.hpp"
#include "sim/time.hpp"

namespace fabsim::fault {

/// Sender half: units held for resend oldest first, the consecutive
/// timeout count and a generation-counted retry timer. A unit stamped
/// [seq, end) is acked once a cumulative ack reaches `unit.end()`:
/// psn+1 / seq+1 for IB and MX, seq+len for the iWARP byte stream.
template <typename Unit>
class RetransmitWindow {
 public:
  /// First sequence number the next stamp takes.
  std::uint64_t next() const { return next_; }
  /// Take the next `len` sequence numbers; returns the first.
  std::uint64_t stamp(std::uint64_t len = 1) { return std::exchange(next_, next_ + len); }

  /// Hold `unit`, stamped from `seq`, for resend. The verdict is the
  /// O(1) contiguity audit: the unit must start where the held tail
  /// ends and end at the next stamp (rule "resend_queue_gap").
  [[nodiscard]] check::Verdict hold(Unit unit, std::uint64_t seq) {
    const std::uint64_t end = unit.end();
    const bool contiguous = (held_.empty() || held_.back().end() == seq) && end == next_;
    // HOT-OK(resend window bounded by the send window; capacity reused after warm-up)
    held_.push_back(std::move(unit));
    if (contiguous) return check::Verdict::pass();
    return check::Verdict::fail(
        "resend_queue_gap",
        "held unit [" + std::to_string(seq) + ", " + std::to_string(end) + ") is not contiguous");
  }

  /// Release, oldest first, every held unit whose end is at or below
  /// `ack`, calling `on_release(unit)` for each. Returns whether the ack
  /// made progress; progress resets the retry count.
  template <typename OnRelease>
  bool release(std::uint64_t ack, OnRelease&& on_release) {
    bool progress = false;
    while (!held_.empty() && held_.front().end() <= ack) {
      const Unit unit = std::move(held_.front());
      held_.pop_front();
      progress = true;
      on_release(unit);
    }
    if (progress) retries_ = 0;
    return progress;
  }
  bool release(std::uint64_t ack) {
    return release(ack, [](const Unit&) {});
  }

  bool empty() const { return held_.empty(); }
  std::size_t size() const { return held_.size(); }
  /// The i-th held unit, oldest first: resend order.
  const Unit& operator[](std::size_t i) const { return held_[i]; }
  /// Drop every held unit (the peer is gone; nothing will be resent).
  void clear() { held_.clear(); }

  /// One more timeout since the last ack progress; returns the count.
  int count_retry() { return ++retries_; }
  /// Retry timeout after the current count: rto << min(retries, cap).
  /// Cap 0 keeps a fixed timeout.
  Time timeout(Time rto, int backoff_cap) const {
    return rto * (1ULL << std::min(retries_, backoff_cap));
  }

  /// Arm the retry timer unless it is running; returns whether it was
  /// armed now. The caller then posts its timeout with generation().
  bool arm() {
    if (timer_armed_) return false;
    timer_armed_ = true;
    ++timer_gen_;
    return true;
  }
  std::uint64_t generation() const { return timer_gen_; }
  /// Disarm the timer; a timeout already posted is no longer current.
  void cancel() {
    timer_armed_ = false;
    ++timer_gen_;
  }
  /// True when the timeout posted with `gen` is the armed one.
  bool is_current(std::uint64_t gen) const { return timer_armed_ && gen == timer_gen_; }

 private:
  std::deque<Unit> held_;
  std::uint64_t next_ = 0;
  std::uint64_t timer_gen_ = 0;
  int retries_ = 0;
  bool timer_armed_ = false;
};

/// Receiver half (IB PSNs, MX flow seqs, iWARP byte-stream offsets):
/// accepts units strictly in order, signals each gap once and counts
/// units toward the next coalesced ack.
class InOrderReceiver {
 public:
  enum class Arrival : std::uint8_t {
    kInOrder,       ///< the expected unit: accepted
    kDuplicate,     ///< already accepted (an ack was lost or raced a resend)
    kGap,           ///< ahead of the expected unit, first since the gap opened
    kGapSignalled,  ///< ahead again; the gap was already signalled
  };

  /// Classify unit [seq, seq + len); an in-order one counts toward the
  /// next ack.
  Arrival accept(std::uint64_t seq, std::uint64_t len = 1) {
    if (seq == expected_) {
      expected_ = seq + len;
      gap_signalled_ = false;
      ++unacked_;
      return Arrival::kInOrder;
    }
    if (seq < expected_) return Arrival::kDuplicate;
    if (gap_signalled_) return Arrival::kGapSignalled;
    gap_signalled_ = true;
    return Arrival::kGap;
  }

  /// The cumulative ack: everything below it was accepted.
  std::uint64_t expected() const { return expected_; }
  /// Units accepted since the last ack went out.
  std::uint32_t unacked() const { return unacked_; }
  /// Coalesced acking: ack the last unit of a message, else every
  /// `ack_every` units.
  bool ack_due(bool last_of_message, std::uint32_t ack_every) const {
    return last_of_message || unacked_ >= ack_every;
  }
  /// An ack carrying expected() went out.
  void acked() { unacked_ = 0; }

 private:
  std::uint64_t expected_ = 0;
  std::uint32_t unacked_ = 0;
  bool gap_signalled_ = false;
};

}  // namespace fabsim::fault
