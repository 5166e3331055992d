// MX-10G endpoint: Myrinet Express message-passing library.
//
// The API mirrors MX's programming model — non-blocking send/receive with
// 64-bit match bits and a mask, completion via test/wait — which is why
// MPICH-MX's MPI shim is so thin (paper §6.1). Matching runs on the NIC:
// posted-receive and unexpected queues live in NIC memory and their
// traversal costs NIC engine time, not host time. Internally the library
// switches from an eager protocol (copy through a pinned ring, messages
// up to `eager_max`) to a rendezvous protocol (RTS/CTS handshake, then
// zero-copy DMA) — the source of the 32 KB dip in the paper's user-level
// bandwidth curves. Rendezvous pinning goes through an internal
// registration cache bounded in bytes.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "fault/go_back_n.hpp"
#include "hw/fabric.hpp"
#include "hw/node.hpp"
#include "hw/reg_cache.hpp"
#include "mx/config.hpp"
#include "sim/scope.hpp"
#include "sim/sync.hpp"
#include "verbs/verbs.hpp"

namespace fabsim::check {
class InvariantMonitor;
}

namespace fabsim::mx {

/// Completion handle for a non-blocking operation.
class Request {
 public:
  explicit Request(Engine& engine) : done_event_(engine) {}

  bool done() const { return done_; }
  /// The operation was abandoned (peer unreachable after retry
  /// exhaustion, or cancelled): done, but no data moved.
  bool failed() const { return failed_; }
  /// Matched message length (valid once done; receives may be shorter
  /// than the posted capacity).
  std::uint32_t length() const { return length_; }
  std::uint64_t match_bits() const { return match_bits_; }

  Event& done_event() { return done_event_; }

  void complete(std::uint32_t length, std::uint64_t match) {
    done_ = true;
    length_ = length;
    match_bits_ = match;
    done_event_.trigger();
  }

  void fail() {
    done_ = true;
    failed_ = true;
    done_event_.trigger();
  }

 private:
  bool done_ = false;
  bool failed_ = false;
  std::uint32_t length_ = 0;
  std::uint64_t match_bits_ = 0;
  Event done_event_;
};

using RequestPtr = std::shared_ptr<Request>;

class Endpoint final : public hw::FrameSink {
 public:
  Endpoint(hw::Node& node, hw::Switch& fabric, MxConfig config);

  /// Woken whenever a new unexpected message (or RTS) is queued — lets
  /// probe-style callers block without polling.
  Notifier& unexpected_activity() { return unexpected_activity_; }

  /// Non-blocking send of [addr, addr+len) to `dest` (a fabric port).
  Task<RequestPtr> isend(std::uint64_t addr, std::uint32_t len, int dest,
                         std::uint64_t match_bits);

  /// Non-blocking receive into [addr, addr+capacity); matches an incoming
  /// message whose (bits & match_mask) == match_bits.
  Task<RequestPtr> irecv(std::uint64_t addr, std::uint32_t capacity, std::uint64_t match_bits,
                         std::uint64_t match_mask);

  /// Blocking wait for completion (mx_wait).
  Task<> wait(const RequestPtr& request);

  /// Non-blocking completion probe (mx_test); charges the probe cost.
  Task<bool> test(const RequestPtr& request);

  /// mx_cancel: withdraw a posted receive that has not matched yet. The
  /// request fails (done, failed()) so a blocked wait() returns; returns
  /// false if the operation already matched or completed. This is how an
  /// application unblocks receives stranded by a dead peer.
  Task<bool> cancel(const RequestPtr& request);

  /// mx_iprobe: peek the unexpected queue for a matching message without
  /// consuming it; returns (match_bits, length) if present.
  struct ProbeResult {
    bool found = false;
    std::uint64_t match_bits = 0;
    std::uint32_t length = 0;
  };
  Task<ProbeResult> iprobe(std::uint64_t match_bits, std::uint64_t match_mask);

  // --- hw::FrameSink ---
  void deliver(hw::Frame frame) override;

  int port() const { return port_; }
  hw::Node& node() { return *node_; }
  const MxConfig& config() const { return config_; }

  // Statistics for tests and utilization studies.
  Time dma_busy_time() const { return dma_.busy_time(); }
  Time tx_engine_busy_time() const { return tx_engine_.busy_time(); }
  Time rx_engine_busy_time() const { return rx_engine_.busy_time(); }
  Time tx_link_busy_time() const { return tx_link_.busy_time(); }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t reg_cache_hits() const { return reg_hits_; }
  std::uint64_t reg_cache_misses() const { return reg_misses_; }
  std::size_t unexpected_depth() const { return unexpected_.size(); }
  std::size_t posted_depth() const { return posted_.size(); }
  std::size_t unexpected_max_depth() const { return unexpected_hwm_; }
  std::size_t posted_max_depth() const { return posted_hwm_; }
  std::uint64_t eager_sends() const { return eager_sends_; }
  std::uint64_t rndv_sends() const { return rndv_sends_; }
  std::uint64_t resends() const { return resends_; }
  std::uint64_t rto_fires() const { return rto_fires_; }
  std::uint64_t resent_bytes() const { return resent_bytes_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t corrupt_discards() const { return corrupt_discards_; }
  std::uint64_t flow_failures() const { return flow_failures_; }
  const hw::RegCache& reg_cache() const { return reg_cache_; }

  /// FabricCheck final audit (quiescent state only): the NIC-resident
  /// matching queues must be disjoint — a fully-arrived unexpected
  /// message that matches a posted receive means matching failed to pair
  /// them — and every per-flow resend queue must be seq-contiguous.
  void audit_consistency(check::InvariantMonitor& monitor);

 private:
  enum class FrameKind : std::uint8_t { kEager, kRts, kCts, kData, kAck };

  struct MxFrame {
    FrameKind kind = FrameKind::kEager;
    int src_port = -1;
    std::uint64_t msg_id = 0;  ///< sender-side id
    std::uint64_t match_bits = 0;
    std::uint32_t msg_len = 0;
    std::uint32_t offset = 0;
    std::uint32_t payload_len = 0;
    bool first_of_message = false;
    bool last_of_message = false;
    std::uint64_t peer_msg_id = 0;  ///< CTS: receiver handle echo
    // Reliability header (stamped only while frames can be lost).
    bool has_seq = false;   ///< per-flow sequenced (everything but kAck)
    std::uint64_t seq = 0;
    bool has_ack = false;   ///< cumulative piggybacked / standalone ack
    std::uint64_t ack = 0;  ///< all flow seqs below this are acked
    /// The whole message's source snapshot, shared by all of its frames;
    /// null for control frames and size-only sources.
    std::shared_ptr<const std::vector<std::byte>> data;

    /// This frame's bytes: [offset, offset+payload_len) of `data`.
    std::span<const std::byte> payload() const {
      return std::span(*data).subspan(offset, payload_len);
    }
  };

  /// Sender-side state of one outgoing message.
  struct SendOp {
    RequestPtr request;
    int dest = -1;
    std::uint32_t len = 0;
    std::uint64_t match_bits = 0;
    bool eager = false;
    std::shared_ptr<const std::vector<std::byte>> data;  ///< source snapshot taken by isend
  };

  /// Receiver-side posted receive.
  struct PostedRecv {
    RequestPtr request;
    std::uint64_t addr = 0;
    std::uint32_t capacity = 0;
    std::uint64_t match_bits = 0;
    std::uint64_t match_mask = 0;
  };

  /// Receiver-side record of a message that arrived before its receive.
  struct Unexpected {
    FrameKind kind;  ///< kEager (data buffered) or kRts
    int src_port = -1;
    std::uint64_t msg_id = 0;
    std::uint64_t match_bits = 0;
    std::uint32_t msg_len = 0;
    std::uint32_t buffered = 0;  ///< eager bytes landed so far
    bool complete = false;       ///< all eager bytes buffered
    /// The sender's snapshot, placed whole once every frame has arrived.
    std::shared_ptr<const std::vector<std::byte>> data;
    PostedRecv matched;          ///< receive waiting for buffering to finish
    bool has_match = false;
  };

  /// Receiver-side state of an in-progress rendezvous pull.
  struct RndvRecv {
    PostedRecv recv;
    std::uint32_t msg_len = 0;
    std::uint32_t placed = 0;
    int src_port = -1;  ///< sender, so a flow failure can strand-sweep
  };

  void send_eager(SendOp op);
  void send_rts(SendOp op);
  void send_control(FrameKind kind, int dest, std::uint64_t msg_id, std::uint64_t peer_msg_id,
                    std::uint64_t match_bits, std::uint32_t msg_len);
  void stream_data(std::uint64_t msg_id, std::uint64_t receiver_handle);
  /// Cut `op` into MTU frames of `kind` (eager, or rendezvous data for
  /// `receiver_handle`); the last one completes the send request.
  void send_frames(FrameKind kind, const SendOp& op, std::uint64_t msg_id,
                   std::uint64_t receiver_handle);
  void handle_eager_arrival(MxFrame frame);
  void handle_rts(const MxFrame& frame);
  void handle_cts(const MxFrame& frame);
  void handle_data(const MxFrame& frame);
  void finish_eager_delivery(Unexpected& u);
  void start_rendezvous(const PostedRecv& recv, int src_port, std::uint64_t sender_msg_id,
                        std::uint64_t match_bits, std::uint32_t msg_len);
  /// Pin [addr, addr+len) through the registration cache; returns the time
  /// the pages are pinned (host CPU is charged on misses).
  Time pin(Time ready, std::uint64_t addr, std::uint32_t len);

  /// A frame waiting its turn through the tx DMA/engine/link chain.
  struct PendingTx {
    MxFrame frame;
    int dest = -1;
    bool carries_data = false;
    RequestPtr complete;  ///< request to complete at wire handoff, if any
    std::uint32_t complete_len = 0;
    std::uint64_t complete_match = 0;
  };
  void enqueue_tx(PendingTx tx);
  void pump_tx();

  /// A frame held for resend, with what the tx chain needs to resend it.
  struct Unacked {
    MxFrame frame;
    bool carries_data = false;
    std::uint64_t end() const { return frame.seq + 1; }  ///< acked by ack >= end()
  };

  /// Sender-side reliability state for one destination port.
  struct FlowTx {
    fault::RetransmitWindow<Unacked> window;  ///< seqs, resend queue, retry timer
    bool failed = false;  ///< retry limit hit: peer declared unreachable
  };

  void send_flow_ack(int dest);
  void handle_flow_ack(int src_port, std::uint64_t ack);
  void arm_flow_timer(int dest);
  void on_flow_timeout(int dest, std::uint64_t gen);
  /// Retry exhaustion: declare `dest` unreachable and fail every request
  /// stuck behind that flow (pending rendezvous sends, mid-buffer eager
  /// arrivals, rendezvous pulls from that peer) so nothing hangs.
  void fail_flow(int dest);
  bool flow_failed(int dest) const {
    auto it = tx_flows_.find(dest);
    return it != tx_flows_.end() && it->second.failed;
  }

  static bool matches(const PostedRecv& recv, std::uint64_t bits) {
    return (bits & recv.match_mask) == recv.match_bits;
  }

  Engine& engine() { return node_->engine(); }

  // Scope/ownership annotations (scripts/scope_check.py, src/sim/scope.hpp).
  FABSIM_ENGINE_LOCAL;  // engine plumbing + run-constant wiring
  hw::Node* node_;
  hw::Switch* fabric_;
  MxConfig config_;
  Notifier unexpected_activity_;
  int port_;
  FABSIM_OWNED_BY(port_);  // mutable firmware state: matching queues, tx
                           // chain and flow reliability are confined to
                           // this node's events (or scope -1 handoffs)
  hw::RegCache reg_cache_;
  hw::MemoryRegistry registry_;  ///< cost model for pinning
  PipelinedServer tx_engine_;
  PipelinedServer rx_engine_;
  SerialServer dma_;
  SerialServer tx_link_;

  std::uint64_t next_msg_id_ = 1;
  std::map<std::uint64_t, SendOp> pending_sends_;  ///< rendezvous awaiting CTS
  std::deque<PostedRecv> posted_;
  std::deque<Unexpected> unexpected_;
  std::map<std::uint64_t, RndvRecv> rndv_recvs_;  ///< by receiver handle id
  std::uint64_t next_recv_handle_ = 1;

  std::deque<PendingTx> txq_;
  bool pump_armed_ = false;
  std::map<int, FlowTx> tx_flows_;                  ///< by destination port
  std::map<int, fault::InOrderReceiver> rx_flows_;  ///< by source port
  std::uint64_t frames_sent_ = 0;
  std::uint64_t reg_hits_ = 0;
  std::uint64_t reg_misses_ = 0;
  std::uint64_t eager_sends_ = 0;
  std::uint64_t rndv_sends_ = 0;
  std::uint64_t resends_ = 0;
  std::uint64_t rto_fires_ = 0;
  std::uint64_t resent_bytes_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t corrupt_discards_ = 0;
  std::uint64_t flow_failures_ = 0;
  std::size_t unexpected_hwm_ = 0;
  std::size_t posted_hwm_ = 0;
};

}  // namespace fabsim::mx
