// Fault-injection surface shared by every fabric.
//
// A FaultInjector is attached to the Engine (like the Tracer) and is
// consulted once per frame at the hw::Switch fault seams: once per frame
// on the seed's direct crossbar, once per *hop* on routed multi-stage
// fabrics, so a FaultPlan can address an individual link by (switch,
// output port). Frames are lost only there. The injector decides the
// frame's fate — deliver, drop, corrupt (delivered but discarded by the
// receiver's CRC check), or delay — and the go-back-N recovery every
// stack shares (fault/go_back_n.hpp: iWARP TCP, IB RC retransmission, MX
// resend) earns its keep against those decisions.
//
// Stacks arm that recovery only while hw::Switch::can_lose() is true —
// `faults_armed()` here, or bounded tail-drop buffers — so an absent or
// inert injector leaves every lossless run byte-identical in timing to
// the unhooked simulator.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace fabsim::fault {

/// One frame crossing an injection point. On routed fabrics the site
/// also names the hop: the switch consulting the injector and the output
/// port the frame was routed to — together they address one directed
/// link, so plans can fail individual cables and whole switches. The
/// seed's direct crossbar leaves them at -1.
struct FaultSite {
  Time now = 0;
  int src_node = -1;
  int dst_node = -1;
  std::uint32_t wire_bytes = 0;
  int switch_id = -1;  ///< switch consulting the injector (routed fabrics)
  int out_port = -1;   ///< output port the frame was routed to
};

enum class FaultAction : std::uint8_t {
  kDeliver,  ///< pass through untouched
  kDrop,     ///< frame vanishes on the wire
  kCorrupt,  ///< delivered, but the receiver's CRC check discards it
  kDelay,    ///< delivered late by `FaultDecision::delay`
};

struct FaultDecision {
  FaultAction action = FaultAction::kDeliver;
  Time delay = 0;  ///< extra latency when action == kDelay
};

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Decide the fate of one frame. Called in simulation-event order, so
  /// any internal PRNG consumption is deterministic for a given seed.
  virtual FaultDecision on_frame(const FaultSite& site) = 0;

  /// True when this injector could ever perturb a frame. Stacks use it
  /// to decide whether to arm acks/timers/retransmit state; an inert
  /// (zero-fault) plan must leave timing untouched.
  virtual bool active() const = 0;
};

/// True when the engine carries an injector that can actually perturb
/// frames (one half of hw::Switch::can_lose()).
inline bool faults_armed(Engine& engine) {
  FaultInjector* injector = engine.fault_injector();
  return injector != nullptr && injector->active();
}

}  // namespace fabsim::fault
