// InfiniBand Host Channel Adapter (HCA), Reliable Connection transport.
//
// Verbs work requests become messages segmented into MTU packets on a 4X
// SDR link (1 GB/s data rate per direction). On a lossless fabric
// (credit-based link-level flow control) there is no retransmission
// machinery; per-QP packet order is preserved end to end.
//
// The processing engine is processor-based: one packet at a time,
// occupancy == full processing time (contrast with the iWARP RNIC's
// pipeline). QP contexts live in host memory (MemFree) behind a small
// LRU cache; the miss penalty is what serializes multi-connection
// traffic past 8 connections in the paper's Figure 2.
//
// While a frame can be lost (hw::Switch::can_lose()), RC reliability is
// modelled on the shared go-back-N (fault/go_back_n.hpp): packets carry
// PSNs, the responder acks cumulatively (coalesced, NAK on a gap), and
// the requester keeps a retransmit window with a backed-off retry timer.
// Exhausting the retry counter moves the QP to the error state and
// surfaces error completions — the real RC failure contract.
//
// The verbs message layer (registration, QPs, work-request translation,
// placement and completion) is verbs::Device's; this class is the
// transport under it.
#pragma once

#include <cstdint>
#include <list>
#include <memory>

#include "fault/go_back_n.hpp"
#include "ib/config.hpp"
#include "sim/scope.hpp"
#include "verbs/verbs.hpp"

namespace fabsim::ib {

class Hca final : public verbs::Device {
 public:
  Hca(hw::Node& node, hw::Switch& fabric, HcaConfig config);

  // --- hw::FrameSink ---
  void deliver(hw::Frame frame) override;

  const HcaConfig& config() const { return config_; }

  // Statistics for tests and utilization studies.
  Time proc_busy_time() const { return proc_.busy_time(); }
  Time dma_busy_time() const { return dma_.busy_time(); }
  Time tx_link_busy_time() const { return tx_link_.busy_time(); }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t context_misses() const { return context_misses_; }
  std::uint64_t context_hits() const { return context_hits_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t naks_sent() const { return naks_sent_; }
  std::uint64_t rto_fires() const { return rto_fires_; }
  std::uint64_t retransmitted_bytes() const { return retransmitted_bytes_; }
  std::uint64_t corrupt_discards() const { return corrupt_discards_; }

 private:
  using MsgKind = verbs::MsgKind;

  struct Packet : verbs::MsgHeader {
    // Reliability header (meaningful only while frames can be lost).
    std::uint64_t psn = 0;
    bool is_ack = false;       ///< pure acknowledgement packet
    bool is_nak = false;       ///< sequence-gap NAK (ack_psn = expected)
    std::uint64_t ack_psn = 0; ///< cumulative: all PSNs below are acked
    std::uint64_t end() const { return psn + 1; }  ///< acked by ack_psn >= end()
  };

  struct Conn : verbs::Conn {
    FABSIM_OWNED_BY(qp->device_->fabric_port());  // RC machine state: advances
                                                  // only inside the owning
                                                  // HCA's events
    // RC reliability (active only while frames can be lost).
    fault::RetransmitWindow<Packet> tx;  ///< requester: PSNs, inflight, retry timer
    fault::InOrderReceiver rx;           ///< responder: expected PSN, NAK once per gap
  };

  // --- verbs::Device transport hooks ---
  std::unique_ptr<verbs::Conn> make_conn() override { return std::make_unique<Conn>(); }
  void submit(verbs::Conn& conn, verbs::Message msg) override;

  Conn& conn_at(int id) { return static_cast<Conn&>(*conns().at(static_cast<std::size_t>(id))); }
  void send_message(Conn& conn, verbs::Message msg);
  /// Push one packet through DMA -> engine -> link and onto the fabric.
  void transmit_packet(Conn& conn, Packet packet, bool retransmit);
  void send_ack(Conn& conn, bool nak);
  void handle_ack_packet(Conn& conn, const Packet& ack);
  void retransmit_inflight(Conn& conn);
  void arm_timer(Conn& conn);
  void on_timeout(int conn_id, std::uint64_t gen);
  void enter_error(Conn& conn);
  /// Out-of-band error propagation from the peer HCA: stands in for the
  /// requester-side response timeout the model elides (a real requester
  /// retries the read and exhausts its own counter when the responder
  /// dies mid-response).
  void peer_conn_error(int conn_id);
  /// Charge engine time for one packet; returns its completion time.
  /// Accesses the QP context cache for first-of-message packets.
  Time engine_process(Time ready, const Packet& packet, bool transmit_side, int local_conn_id);
  Time context_access(int conn_id);

  // Scope/ownership annotations (scripts/scope_check.py, src/sim/scope.hpp).
  FABSIM_ENGINE_LOCAL;  // run-constant configuration
  HcaConfig config_;
  FABSIM_OWNED_BY(port_);  // mutable HCA/protocol state: confined to this
                           // node's events (or scope -1 wire handoffs)
  SerialServer dma_;     ///< NIC DMA engine, shared by both directions
  SerialServer proc_;    ///< processor-based protocol engine, shared
  SerialServer tx_link_;
  std::list<int> context_lru_;  ///< most-recent at front; values are conn ids
  std::uint64_t packets_sent_ = 0;
  std::uint64_t context_misses_ = 0;
  std::uint64_t context_hits_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t naks_sent_ = 0;
  std::uint64_t rto_fires_ = 0;
  std::uint64_t retransmitted_bytes_ = 0;
  std::uint64_t corrupt_discards_ = 0;
};

}  // namespace fabsim::ib
