// iWARP RDMA-enabled NIC (RNIC).
//
// Implements the iWARP protocol suite the way the NetEffect NE010e does in
// hardware: verbs work requests are turned into RDMAP messages, cut into
// MPA-aligned DDP segments, carried over a reliable TCP byte stream per
// connection, and framed onto Ethernet. The receive side places tagged
// segments directly into registered user memory (DDP) — no intermediate
// copies. A pipelined protocol engine (initiation interval << latency)
// processes segments from all connections, which is the architectural
// source of the card's multi-connection scalability. All data to and from
// host memory crosses the card's internal half-duplex PCI-X bus — the
// bandwidth bottleneck the paper reports.
//
// The verbs message layer (registration, QPs, work-request translation,
// placement and completion) is verbs::Device's; this class is the
// transport under it. The stack is event-driven (no coroutines inside
// the NIC); only the host-facing verbs calls are awaitable. TCP runs on
// the shared go-back-N (fault/go_back_n.hpp): the receiver accepts the
// byte stream in order, and while a frame can be lost
// (hw::Switch::can_lose()) the sender keeps segments for resend and runs
// a fixed retry timeout over them.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "fault/go_back_n.hpp"
#include "iwarp/config.hpp"
#include "sim/scope.hpp"
#include "verbs/verbs.hpp"

namespace fabsim::iwarp {

class Rnic final : public verbs::Device {
 public:
  Rnic(hw::Node& node, hw::Switch& fabric, RnicConfig config);

  // --- hw::FrameSink ---
  void deliver(hw::Frame frame) override;

  const RnicConfig& config() const { return config_; }

  // Statistics for tests and utilization studies.
  Time pcix_busy_time() const { return pcix_.busy_time(); }
  std::uint64_t pcix_bytes() const { return pcix_.bytes_transferred(); }
  Time tx_engine_busy_time() const { return tx_engine_.busy_time(); }
  Time rx_engine_busy_time() const { return rx_engine_.busy_time(); }
  Time tx_link_busy_time() const { return tx_link_.busy_time(); }
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t rto_fires() const { return rto_fires_; }
  std::uint64_t retransmitted_bytes() const { return retransmitted_bytes_; }
  std::uint64_t corrupt_discards() const { return corrupt_discards_; }
  std::uint64_t conn_errors() const { return conn_errors_; }

 private:
  using MsgKind = verbs::MsgKind;

  /// An RDMAP message queued for transmission.
  struct OutMsg : verbs::Message {
    std::uint64_t msg_id = 0;
    std::uint32_t offset = 0;  ///< next byte to segment
  };

  /// One TCP segment on the wire (MPA keeps DDP headers aligned, so
  /// segments never span RDMAP messages — mirrored here).
  struct Segment : verbs::MsgHeader {
    std::uint64_t seq = 0;  ///< stream offset of payload[0]
    std::uint64_t ack = 0;  ///< piggybacked cumulative ack
    std::uint64_t end() const { return seq + payload_len; }  ///< acked by ack >= end()
  };

  /// Per-connection TCP/RDMAP state (this side).
  struct Conn : verbs::Conn {
    FABSIM_OWNED_BY(qp->device_->fabric_port());  // TCP/RDMAP machine state:
                                                  // advances only inside the
                                                  // owning NIC's events
    // Transmit.
    std::deque<OutMsg> sendq;
    fault::RetransmitWindow<Segment> tx;  ///< snd_nxt, go-back-N copies, retry timer
    std::uint64_t snd_una = 0;            ///< oldest unacknowledged byte

    // Receive.
    fault::InOrderReceiver rx;  ///< rcv_nxt and the segments owed an ack
    bool delack_armed = false;
  };

  // --- verbs::Device transport hooks ---
  std::unique_ptr<verbs::Conn> make_conn() override { return std::make_unique<Conn>(); }
  void submit(verbs::Conn& conn, verbs::Message msg) override;

  Conn& conn_at(int id) { return static_cast<Conn&>(*conns().at(static_cast<std::size_t>(id))); }
  void pump(Conn& conn);
  void emit_segment(Conn& conn, OutMsg& msg, std::uint32_t chunk);
  void transmit(Conn& conn, Segment segment, bool retransmit);
  void send_pure_ack(Conn& conn);
  void handle_ack(Conn& conn, std::uint64_t ack);
  void arm_timer(Conn& conn);
  void on_timeout(int conn_id, std::uint64_t gen);
  /// Retry exhaustion (TCP gives up): flush every outstanding signaled
  /// WR — un-completed sends/writes still in the sendq, pending reads,
  /// posted receives — with kRetryExceeded, then notify the peer
  /// out-of-band (the RST analog) so its side errors out too.
  void enter_error(Conn& conn);
  void peer_conn_error(int conn_id);
  /// Error completion for a message that will never finish transmitting.
  void flush_outmsg(Conn& conn, const OutMsg& msg);
  void handle_read_request(Conn& conn, const Segment& request);
  void complete_placement(Conn& conn, const Segment& segment);
  /// FabricCheck audits of an inbound segment, before it is placed.
  void audit_placement(check::InvariantMonitor& monitor, Conn& conn, const Segment& segment);

  // Scope/ownership annotations (scripts/scope_check.py, src/sim/scope.hpp).
  FABSIM_ENGINE_LOCAL;  // run-constant configuration
  RnicConfig config_;
  FABSIM_OWNED_BY(port_);  // mutable NIC/protocol state: confined to this
                           // node's events (or scope -1 wire handoffs)
  hw::PcixBus pcix_;
  PipelinedServer tx_engine_;
  PipelinedServer rx_engine_;
  SerialServer tx_link_;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t rto_fires_ = 0;
  std::uint64_t retransmitted_bytes_ = 0;
  std::uint64_t corrupt_discards_ = 0;
  std::uint64_t conn_errors_ = 0;
};

}  // namespace fabsim::iwarp
