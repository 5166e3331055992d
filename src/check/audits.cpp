#include "check/audits.hpp"

namespace fabsim::check {

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

Verdict audit_switch_occupancy(double backlog_bytes, std::uint32_t frame_bytes,
                               std::uint64_t max_queue_bytes) {
  if (max_queue_bytes == 0) return Verdict::pass();  // unbounded buffer
  if (backlog_bytes + frame_bytes <= static_cast<double>(max_queue_bytes)) {
    return Verdict::pass();
  }
  return Verdict::fail("queue_overflow",
                       "admitted frame of " + u64(frame_bytes) + "B onto a backlog of " +
                           std::to_string(backlog_bytes) + "B, exceeding the " +
                           u64(max_queue_bytes) + "B port buffer");
}

Verdict audit_switch_conservation(std::uint64_t ingressed, std::uint64_t forwarded,
                                  std::uint64_t fault_drops, std::uint64_t tail_drops,
                                  std::uint64_t down_drops, std::uint64_t unroutable_drops) {
  if (ingressed == forwarded + fault_drops + tail_drops + down_drops + unroutable_drops) {
    return Verdict::pass();
  }
  return Verdict::fail("frame_conservation",
                       "ingressed " + u64(ingressed) + " != forwarded " + u64(forwarded) +
                           " + fault_drops " + u64(fault_drops) + " + tail_drops " +
                           u64(tail_drops) + " + down_drops " + u64(down_drops) +
                           " + unroutable_drops " + u64(unroutable_drops));
}

Verdict audit_credit_nonnegative(std::int64_t occupancy_bytes) {
  if (occupancy_bytes >= 0) return Verdict::pass();
  return Verdict::fail("credit_negative",
                       "output-queue occupancy went negative (" +
                           std::to_string(occupancy_bytes) +
                           "B): a credit was returned twice");
}

Verdict audit_switch_queue_drained(int port, std::size_t queued_frames,
                                   std::int64_t occupancy_bytes, bool transmitting) {
  if (queued_frames == 0 && occupancy_bytes == 0 && !transmitting) return Verdict::pass();
  return Verdict::fail("queue_not_drained",
                       "port " + std::to_string(port) + " at quiescence: " +
                           u64(queued_frames) + " frame(s) still queued, " +
                           std::to_string(occupancy_bytes) + "B occupancy outstanding" +
                           (transmitting ? ", transmission in flight" : ""));
}

Verdict audit_resend_queue(const std::deque<std::uint64_t>& seqs, std::uint64_t next) {
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    if (seqs[i] != seqs[i - 1] + 1) {
      return Verdict::fail("resend_queue_gap", "held[" + u64(i) + "] seq " + u64(seqs[i]) +
                                                   " does not follow " + u64(seqs[i - 1]));
    }
  }
  if (!seqs.empty() && seqs.back() + 1 != next) {
    return Verdict::fail("resend_tail_mismatch",
                         "held tail seq " + u64(seqs.back()) + " + 1 != next " + u64(next));
  }
  return Verdict::pass();
}

Verdict audit_ack_window(std::uint64_t ack, std::uint64_t next) {
  if (ack <= next) return Verdict::pass();
  return Verdict::fail("ack_beyond_window",
                       "cumulative ack " + u64(ack) + " acks units never sent (next " + u64(next) +
                           ")");
}

Verdict audit_ib_retry_exhausted(int retry_count, int retry_limit) {
  if (retry_count > retry_limit) return Verdict::pass();
  return Verdict::fail("premature_error",
                       "QP entered error state at retry " + std::to_string(retry_count) +
                           " of limit " + std::to_string(retry_limit));
}

Verdict audit_iwarp_window(std::uint64_t snd_nxt, std::uint64_t snd_una, std::uint32_t chunk,
                           std::uint32_t window) {
  if (snd_nxt - snd_una + chunk <= window) return Verdict::pass();
  return Verdict::fail("window_overrun",
                       "emitting " + u64(chunk) + "B with " + u64(snd_nxt - snd_una) +
                           "B already outstanding exceeds the " + u64(window) + "B window");
}

Verdict audit_iwarp_untagged_inorder(std::uint32_t msg_offset, std::uint32_t placed,
                                     std::uint64_t msg_id) {
  if (msg_offset == placed) return Verdict::pass();
  return Verdict::fail("untagged_out_of_order",
                       "msg " + u64(msg_id) + ": segment at offset " + u64(msg_offset) +
                           " delivered with only " + u64(placed) +
                           "B placed (DDP untagged delivery must be in-order)");
}

Verdict audit_mpi_queue_disjoint(int posted_src, int posted_tag, int msg_src, int msg_tag) {
  constexpr int kAnySource = -1;  // mirrors mpi::kAnySource / kAnyTag
  constexpr int kAnyTag = -1;
  const bool src_match = posted_src == kAnySource || posted_src == msg_src;
  const bool tag_match = posted_tag == kAnyTag || posted_tag == msg_tag;
  if (!(src_match && tag_match)) return Verdict::pass();
  return Verdict::fail("queue_overlap",
                       "unexpected message (src " + std::to_string(msg_src) + ", tag " +
                           std::to_string(msg_tag) + ") matches posted receive (src " +
                           std::to_string(posted_src) + ", tag " + std::to_string(posted_tag) +
                           ") — matching failed to pair them");
}

}  // namespace fabsim::check
