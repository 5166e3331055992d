// Switch fabric model.
//
// A Switch runs in one of two modes:
//
//  * Direct (the seed model): every NIC connects to one switch port by a
//    full-duplex link and the port number doubles as the node's fabric
//    address. The transmit-side serialization is booked by the *NIC* (its
//    tx server), so the switch covers: ingress propagation -> cut-through
//    latency -> output-port serialization (contention point) -> egress
//    propagation -> delivery to the destination NIC's FrameSink. The
//    output port is a pure booking horizon; a bounded buffer tail-drops.
//
//  * Routed (multi-stage fabrics, built only by topo::Topology): ports
//    face either NICs or other switches, an LFT (linear forwarding
//    table, destination node -> output port) computed at build time picks
//    the egress, and each output port runs an event-driven FIFO queue so
//    backpressure is observable. Per-link flow control comes in two
//    flavours (SwitchConfig::flow): kLossy tail-drops at output-queue
//    admission (Ethernet), kCredit holds the frame *upstream* until the
//    next hop's output queue has room (IB-style credits / PAUSE), so
//    congestion spreads hop by hop instead of dropping.
//
// Routed switches are failure-aware (FabricFail): topo::Topology can
// mark ports (links) or the whole switch down, drain or requeue the
// affected queues per flow-control mode, and recompute LFTs around the
// failed element. Frames that meet a failure are counted (down_drops /
// unroutable_drops) so per-hop conservation still balances, and credit
// commitments are always returned — link failure must never leak
// occupancy (audit_switch_queue_drained proves it at quiescence).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/audits.hpp"
#include "fault/injector.hpp"
#include "hw/frame.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/scope.hpp"
#include "sim/time.hpp"

namespace fabsim::hw {

/// Link-level flow control for routed-mode switches.
enum class FlowControl : std::uint8_t {
  kLossy,   ///< tail-drop at output-queue admission (Ethernet / iWARP)
  kCredit,  ///< hop-by-hop credits: sender stalls until downstream has buffer
};

inline const char* flow_control_name(FlowControl flow) {
  return flow == FlowControl::kCredit ? "credit" : "lossy";
}

struct SwitchConfig {
  Rate link_rate;        ///< per-direction link bandwidth
  Time cut_through = 0;  ///< fixed switch traversal latency
  Time propagation = 0;  ///< per-hop cable propagation delay
  /// Per-output-port buffer in bytes; 0 = unbounded. Ethernet switches
  /// tail-drop when the buffer overflows (each stack recovers via
  /// go-back-N, armed by Switch::can_lose()); IB and Myrinet fabrics are
  /// modelled lossless, so their profiles leave this at 0.
  std::uint64_t max_queue_bytes = 0;
  /// Routed mode only: flow control on this switch's ingress buffers.
  FlowControl flow = FlowControl::kLossy;
  /// Switch id within a topo::Topology (metric/trace labels); 0 for the
  /// seed's single crossbar.
  int id = 0;

  /// Test-only mutation seam (FabricExplore): re-introduce the credit
  /// leak the down-drain path originally shipped with — the first frame
  /// drained off a failed port keeps its committed occupancy, so the
  /// quiescence audit (queue drained, occupancy zero) must catch it.
  bool mutation_leak_credit_on_drain = false;

  /// Test-only mutation seam (FabricScope-Check): label the routed-mode
  /// admission event with the *source node's* scope instead of -1. The
  /// admitted frame mutates shared switch queue state, so the label is a
  /// lie — scope_check.py --mutation must flag the call site statically
  /// and an attached monitor's scope audit must trap Switch::admit
  /// dynamically.
  bool mutation_mislabel_wire_scope = false;
};

class Switch {
 public:
  Switch(Engine& engine, SwitchConfig config) : engine_(&engine), config_(config) {}

  /// Attach a receive sink; returns the node's address on this fabric.
  /// Direct mode: the port number itself. Routed mode: the globally
  /// unique endpoint id the owning Topology reserved for this port (and
  /// the local LFT learns dst -> this port).
  int attach(FrameSink& sink);

  /// Frame handed over by the source NIC at the moment its last bit left
  /// the NIC (the NIC booked tx serialization already).
  void ingress(Frame frame);

  // --- Routed mode (driven by topo::Topology builders only) -------------

  /// Switch participates in a routed fabric of `num_nodes` endpoints;
  /// allocates the LFT (all entries unroutable until set).
  void enable_routing(int num_nodes);
  bool routed() const { return !lft_.empty(); }

  /// LFT entry: frames for `dst_node` leave through `port`.
  void set_route(int dst_node, int port);
  /// Output port for `dst_node` (identity in direct mode); throws when
  /// the LFT has no entry — building-time routing bugs must be loud.
  int route(int dst_node) const;
  /// Degraded-mode lookup: -1 when no path exists (a failure
  /// partitioned the fabric). The data path uses this form and counts
  /// the frame as an unroutable drop instead of throwing, so per-stack
  /// timeout machinery (not an exception) owns recovery.
  int route_lookup(int dst_node) const {
    if (!routed()) return dst_node;
    return lft_.at(static_cast<std::size_t>(dst_node));
  }
  const std::vector<int>& lft() const { return lft_; }

  // --- Failure state (driven by topo::Topology failover only) ---------

  /// Mark one port's link down/up. While down the port neither admits
  /// nor transmits; restoring kicks the transmit pump.
  void set_port_down(int port);
  void set_port_up(int port);
  bool port_down(int port) const { return ports_.at(static_cast<std::size_t>(port)).down; }

  /// Whole-switch failure: every arrival is counted and dropped (with
  /// its credit commitment returned) until the switch is restored.
  void set_switch_down(bool down) { down_ = down; }
  bool switch_down() const { return down_; }

  /// Drain a failed port after the owning Topology recomputed LFTs:
  /// credit flow control requeues each frame onto its rerouted output
  /// port (no path -> counted drop), lossy drops and counts. Committed
  /// occupancy is released either way — link failure never leaks
  /// credits.
  void requeue_down_port(int port);

  /// Dead-switch drain: drop every queued frame on every port (both
  /// flow-control modes — the switch lost its buffers), releasing all
  /// committed occupancy and waking stalled upstreams.
  void drain_all_drop();

  /// Reserve the next NIC-facing attach() for global endpoint `node_id`
  /// (reservations are consumed in FIFO order).
  void expect_endpoint(int node_id);

  /// Add a switch-facing port wired toward `peer`; returns the port.
  /// Call on both switches to form a full-duplex link.
  int connect_to(Switch& peer);

  /// Peer switch behind `port` (nullptr for NIC-facing ports).
  const Switch* port_peer(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).peer;
  }

  // --- Accessors --------------------------------------------------------

  const SwitchConfig& config() const { return config_; }
  std::size_t num_ports() const { return ports_.size(); }

  /// True when a frame crossing this switch can be lost: an armed fault
  /// injector, or a bounded buffer that tail-drops (always on the direct
  /// crossbar; under lossy flow control when routed). The one rule every
  /// stack arms its go-back-N recovery by (fault/go_back_n.hpp).
  bool can_lose() const {
    return fault::faults_armed(*engine_) ||
           (config_.max_queue_bytes != 0 && (config_.flow == FlowControl::kLossy || !routed()));
  }

  /// Total bytes-time booked on an output port (for utilization checks).
  Time output_busy_time(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).tx.busy_time();
  }

  /// Frames tail-dropped at an output port (bounded-buffer mode only).
  std::uint64_t output_drops(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).drops;
  }

  /// Fault-injector drops attributed to the output port the frame was
  /// routed to (so drops are port-attributable, not just switch-global).
  std::uint64_t output_fault_drops(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).fault_drops;
  }

  /// High-water mark of an output port's queued backlog, in bytes.
  double output_queue_hwm_bytes(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).queue_hwm_bytes;
  }

  /// Routed mode: high-water mark of whole frames queued at a port.
  std::uint64_t output_queue_hwm_frames(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).queue_hwm_frames;
  }

  /// Routed mode: times the head-of-line frame found the downstream
  /// buffer full and the port had to stall (credit flow control only).
  std::uint64_t output_credit_stalls(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).credit_stalls;
  }

  /// Routed mode: total simulated time this port spent paused waiting
  /// for downstream credits.
  Time output_pause_time(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).pause_time;
  }

  /// Routed mode: current committed occupancy of a port's output buffer
  /// (bytes queued plus credit-reserved in flight toward it).
  std::int64_t output_occupancy_bytes(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).occupancy_bytes;
  }

  std::size_t output_queue_frames(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).queue.size();
  }

  // Frames perturbed by the attached fault injector at this switch.
  std::uint64_t fault_drops() const { return fault_drops_; }
  std::uint64_t fault_corruptions() const { return fault_corruptions_; }
  std::uint64_t fault_delays() const { return fault_delays_; }

  // Frames lost to fabric failures at this switch: met a down
  // link/switch (down_drops) or had no surviving path after a reroute
  // (unroutable_drops).
  std::uint64_t down_drops() const { return down_drops_; }
  std::uint64_t unroutable_drops() const { return unroutable_drops_; }

  // Conservation accounting: every ingressed frame is forwarded,
  // fault-dropped, tail-dropped, lost to a failed element, or
  // unroutable. In routed mode "ingressed" counts frames entering this
  // switch from NICs *and* upstream switches, and "forwarded" counts
  // output-port transmissions (to a NIC or the next switch), so the
  // identity holds per hop.
  std::uint64_t frames_ingressed() const { return frames_ingressed_; }
  std::uint64_t frames_forwarded() const { return frames_forwarded_; }
  std::uint64_t tail_drops_total() const {
    std::uint64_t drops = 0;
    for (const Port& port : ports_) drops += port.drops;
    return drops;
  }

  /// Whole-switch conservation audit (registered as a monitor final
  /// check by core::Cluster; also cross-checked against the FaultPlan's
  /// own drop counter there).
  check::Verdict audit_conservation() const {
    return check::audit_switch_conservation(frames_ingressed_, frames_forwarded_, fault_drops_,
                                            tail_drops_total(), down_drops_, unroutable_drops_);
  }

  /// Routed-mode quiescence audits: once the event queue drains, every
  /// output queue must be empty and every consumed credit returned.
  void audit_quiescence(check::InvariantMonitor& monitor, Time now) const;

 private:
  /// "Not stalled" sentinel for Port::stall_since (Time is unsigned).
  static constexpr Time kNotStalled = ~Time{0};

  struct Port {
    FrameSink* sink = nullptr;  // NIC-facing egress (null for switch links)
    Switch* peer = nullptr;     // switch-facing egress (null for NIC ports)
    SerialServer tx;            // output-port serialization: the contention point
    std::uint64_t drops = 0;
    std::uint64_t fault_drops = 0;
    double queue_hwm_bytes = 0.0;  // backlog high-water mark
    // Routed mode: event-driven output queue + flow-control state.
    std::deque<Frame> queue;
    std::int64_t occupancy_bytes = 0;  // queued + credit-committed in flight
    bool transmitting = false;
    bool waiting = false;  // registered as a waiter on a downstream port
    Time stall_since = kNotStalled;
    Time pause_time = 0;
    std::uint64_t credit_stalls = 0;
    std::uint64_t queue_hwm_frames = 0;
    /// Upstream ports stalled on this queue's space, FIFO (determinism).
    std::vector<std::pair<Switch*, int>> waiters;
    /// Link failure: the port neither admits nor transmits while down.
    bool down = false;
  };

  // Direct (seed) data path: booking model, port index == node address.
  void ingress_direct(Frame frame);

  // Routed data path: LFT + event-driven per-port queues.
  void ingress_routed(Frame frame);
  /// Frame arriving from an upstream switch (cut-through already paid).
  void link_arrival(Frame frame);
  /// Admission into output `port`. `credit_reserved` marks frames whose
  /// buffer space was already committed upstream at credit-grant time.
  void admit(int port, Frame frame, bool credit_reserved);
  void try_transmit(int port);
  /// Wake path for a port stalled on downstream credits: clears the
  /// waiter registration, then retries.
  void retry_transmit(int port);
  /// Decrement a queue's committed occupancy and wake stalled upstreams.
  void release_occupancy(int port, std::uint32_t bytes);

  /// Fault-injection seam shared by both modes; returns false when the
  /// frame was dropped. `out_port` attributes the drop.
  bool apply_faults(Frame& frame, int out_port, Time& at_switch);

  // Scope/ownership annotations (scripts/scope_check.py, src/sim/scope.hpp).
  FABSIM_ENGINE_LOCAL;  // engine plumbing + build-time configuration
  Engine* engine_;
  SwitchConfig config_;
  FABSIM_SHARED;  // fabric state: frames from every node funnel through the
                  // port queues, LFT and conservation counters, so touching
                  // them is only legal from scope -1 events
  std::vector<Port> ports_;
  std::vector<int> lft_;  // routed mode: dst node -> output port (-1 unset)
  std::vector<int> pending_endpoint_ids_;
  std::size_t next_pending_ = 0;
  std::uint64_t fault_drops_ = 0;
  std::uint64_t fault_corruptions_ = 0;
  std::uint64_t fault_delays_ = 0;
  std::uint64_t frames_ingressed_ = 0;
  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t down_drops_ = 0;
  std::uint64_t unroutable_drops_ = 0;
  bool down_ = false;         ///< whole-switch failure
  bool leak_spent_ = false;   ///< mutation seam: one leak, once
};

}  // namespace fabsim::hw
