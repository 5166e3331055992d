#include "hw/fabric.hpp"

#include <stdexcept>

namespace fabsim::hw {

int Switch::attach(FrameSink& sink) {
  Port port;
  port.sink = &sink;
  ports_.push_back(std::move(port));
  const int index = static_cast<int>(ports_.size()) - 1;
  if (!routed()) return index;
  if (next_pending_ >= pending_endpoint_ids_.size()) {
    throw std::logic_error("Switch::attach: no endpoint reservation on this switch (routed "
                           "fabrics assign addresses through topo::Topology)");
  }
  const int node_id = pending_endpoint_ids_[next_pending_++];
  set_route(node_id, index);
  return node_id;
}

void Switch::enable_routing(int num_nodes) {
  lft_.assign(static_cast<std::size_t>(num_nodes), -1);
}

void Switch::set_route(int dst_node, int port) {
  lft_.at(static_cast<std::size_t>(dst_node)) = port;
}

int Switch::route(int dst_node) const {
  if (!routed()) return dst_node;  // direct mode: address == port
  const int port = lft_.at(static_cast<std::size_t>(dst_node));
  if (port < 0) {
    throw std::logic_error("Switch::route: no LFT entry for node " + std::to_string(dst_node) +
                           " at switch " + std::to_string(config_.id));
  }
  return port;
}

void Switch::expect_endpoint(int node_id) { pending_endpoint_ids_.push_back(node_id); }

int Switch::connect_to(Switch& peer) {
  Port port;
  port.peer = &peer;
  ports_.push_back(std::move(port));
  return static_cast<int>(ports_.size()) - 1;
}

void Switch::ingress(Frame frame) {
  // Scope trap: ingress mutates shared fabric state (conservation
  // counters, port queues), so only a scope -1 event may run it.
  FABSIM_AUDIT_SHARED(*engine_, check::Layer::kHw, config_.id, "Switch::ingress");
  if (routed()) {
    ingress_routed(std::move(frame));
  } else {
    ingress_direct(std::move(frame));
  }
}

bool Switch::apply_faults(Frame& frame, int out_port, Time& at_switch) {
  fault::FaultInjector* injector = engine_->fault_injector();
  if (injector == nullptr) return true;
  // Routed fabrics address the hop: (switch id, routed output port)
  // names one directed link, so plans can fail individual cables. The
  // seed's direct crossbar keeps the unaddressed site (-1/-1).
  const fault::FaultDecision decision = injector->on_frame(
      fault::FaultSite{engine_->now(), frame.src_node, frame.dst_node, frame.wire_bytes,
                       routed() ? config_.id : -1, routed() ? out_port : -1});
  switch (decision.action) {
    case fault::FaultAction::kDrop:
      ++fault_drops_;
      ++ports_.at(static_cast<std::size_t>(out_port)).fault_drops;
      engine_->trace(TraceCategory::kWire, frame.src_node, [&] {
        return "FAULT drop " + std::to_string(frame.src_node) + "->" +
               std::to_string(frame.dst_node) + " " + std::to_string(frame.wire_bytes) + "B";
      });
      return false;
    case fault::FaultAction::kCorrupt:
      ++fault_corruptions_;
      engine_->trace(TraceCategory::kWire, frame.src_node, [&] {
        return "FAULT corrupt " + std::to_string(frame.src_node) + "->" +
               std::to_string(frame.dst_node);
      });
      frame.corrupted = true;
      break;
    case fault::FaultAction::kDelay:
      ++fault_delays_;
      engine_->trace(TraceCategory::kWire, frame.src_node, [&] {
        return "FAULT delay " + std::to_string(frame.src_node) + "->" +
               std::to_string(frame.dst_node) + " +" + std::to_string(to_us(decision.delay)) + "us";
      });
      at_switch += decision.delay;
      break;
    case fault::FaultAction::kDeliver:
      break;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Direct (seed) data path: pure booking arithmetic, no queues.
// ---------------------------------------------------------------------------

void Switch::ingress_direct(Frame frame) {
  const int dst = frame.dst_node;
  Port& out = ports_.at(static_cast<std::size_t>(dst));
  Time at_switch = engine_->now() + config_.propagation + config_.cut_through;
  ++frames_ingressed_;

  if (!apply_faults(frame, dst, at_switch)) return;

  if (out.tx.busy_until() > at_switch && !config_.link_rate.is_zero()) {
    // Backlog already booked on this output port, in bytes at link rate.
    const double backlog_bytes = static_cast<double>(out.tx.busy_until() - at_switch) /
                                 config_.link_rate.ps_per_byte();
    if (backlog_bytes > out.queue_hwm_bytes) out.queue_hwm_bytes = backlog_bytes;
    if (config_.max_queue_bytes > 0 &&
        backlog_bytes + frame.wire_bytes > static_cast<double>(config_.max_queue_bytes)) {
      ++out.drops;
      return;
    }
  }

  if (check::InvariantMonitor* monitor = engine_->monitor();
      monitor != nullptr && out.tx.busy_until() > at_switch && !config_.link_rate.is_zero()) {
    // Occupancy bound: the frame was admitted, so the backlog it joins
    // must still fit the configured port buffer.
    const double backlog = static_cast<double>(out.tx.busy_until() - at_switch) /
                           config_.link_rate.ps_per_byte();
    check::audit_switch_occupancy(backlog, frame.wire_bytes, config_.max_queue_bytes)
        .report(monitor, engine_->now(), check::Layer::kHw, dst);
  }

  ++frames_forwarded_;
  const Time serialization = config_.link_rate.bytes_time(frame.wire_bytes);
  const Time sent = out.tx.book(at_switch, serialization);
  const Time delivered = sent + config_.propagation;
  // Wire phase: serialization through the congested output port plus
  // the fixed traversal costs.
  engine_->charge_phase(Phase::kWire,
                        serialization + config_.cut_through + 2 * config_.propagation);
  // Scope label: delivery runs entirely inside the destination NIC
  // (sink == the NIC attached to port `dst`), so co-enabled deliveries
  // to different ports commute for schedule exploration.
  engine_->post(delivered, /*scope=*/dst,  // SCOPE-OK(sink is the dst NIC's FrameSink — state owned by the labelled node; the frame is lambda-owned)
                [sink = out.sink, f = std::move(frame)]() mutable {
    sink->deliver(std::move(f));
  });
}

// ---------------------------------------------------------------------------
// Routed data path: LFT + event-driven per-port FIFO queues.
// ---------------------------------------------------------------------------

void Switch::ingress_routed(Frame frame) {
  ++frames_ingressed_;
  if (down_) {
    // The NIC fired into a dead edge switch: lost at the first hop. The
    // sender's timeout machinery owns recovery.
    ++down_drops_;
    return;
  }
  const int out = route_lookup(frame.dst_node);
  if (out < 0) {
    // Degraded mode: a failure partitioned the fabric and no path to
    // dst survives. Count and drop — per-stack retry exhaustion (IB
    // kRetryExceeded, iWARP/MX equivalents) surfaces the error.
    ++unroutable_drops_;
    engine_->trace(TraceCategory::kWire, frame.src_node, [&] {
      return "UNROUTABLE " + std::to_string(frame.src_node) + "->" +
             std::to_string(frame.dst_node) + " at switch " + std::to_string(config_.id);
    });
    return;
  }
  Time at_switch = engine_->now() + config_.propagation + config_.cut_through;

  // Fault injection runs at every hop (here and in link_arrival), each
  // consult addressed with (switch, out port) so plans can fail one
  // link. Every drop decision lands on exactly one switch's counters,
  // so the FaultPlan-vs-fabric drop cross-check still balances.
  if (!apply_faults(frame, out, at_switch)) return;

  // First-hop traversal costs; per-hop serialization is charged at each
  // output port's transmit, downstream cut-through at each link arrival.
  engine_->charge_phase(Phase::kWire, config_.propagation + config_.cut_through);
  frame.credit_port = -1;  // NIC-side ingress commits no credit
  // Admission mutates shared switch queue state, so the honest label is
  // -1. The FabricScope-Check mutation seam swaps in the source node's
  // scope; the mislabel expression is hoisted so nothing reads `frame`
  // alongside the capture's std::move.
  const int mislabeled = frame.src_node;
  engine_->post(at_switch,
                FABSIM_MUTATION_SCOPE(/*scope=*/-1, mislabeled,
                                      config_.mutation_mislabel_wire_scope),
                [this, out, f = std::move(frame)]() mutable {
                  admit(out, std::move(f), /*credit_reserved=*/false);
                });
}

void Switch::link_arrival(Frame frame) {
  FABSIM_AUDIT_SHARED(*engine_, check::Layer::kHw, config_.id, "Switch::link_arrival");
  ++frames_ingressed_;
  engine_->charge_phase(Phase::kWire, config_.cut_through);
  const bool credit_frame = config_.flow == FlowControl::kCredit && frame.credit_port >= 0;
  if (down_) {
    // Switch died with frames still in flight toward it. Return the
    // committed buffer space so no credit leaks across the failure.
    ++down_drops_;
    if (credit_frame) release_occupancy(frame.credit_port, frame.wire_bytes);
    return;
  }
  const int out = route_lookup(frame.dst_node);
  if (out < 0) {
    ++unroutable_drops_;
    if (credit_frame) release_occupancy(frame.credit_port, frame.wire_bytes);
    engine_->trace(TraceCategory::kWire, frame.src_node, [&] {
      return "UNROUTABLE " + std::to_string(frame.src_node) + "->" +
             std::to_string(frame.dst_node) + " at switch " + std::to_string(config_.id);
    });
    return;
  }
  // Per-hop fault consult, same (switch, out port) addressing as the
  // first hop. A drop here must also return the committed credit.
  Time at_switch = engine_->now();
  if (!apply_faults(frame, out, at_switch)) {
    if (credit_frame) release_occupancy(frame.credit_port, frame.wire_bytes);
    return;
  }
  if (at_switch > engine_->now()) {
    // Fault-injected extra latency: admission waits out the delay.
    engine_->post(at_switch, /*scope=*/-1, [this, out, credit_frame,
                                            f = std::move(frame)]() mutable {
      admit(out, std::move(f), credit_frame);
    });
    return;
  }
  // Credit links committed this frame's buffer space upstream; lossy
  // links admit (and may tail-drop) on arrival.
  admit(out, std::move(frame), credit_frame);
}

FABSIM_HOT void Switch::admit(int port, Frame frame, bool credit_reserved) {
  // Scope trap: the dynamic half of the mislabel mutation self-test —
  // an admission event carrying a confined label lands here.
  FABSIM_AUDIT_SHARED(*engine_, check::Layer::kHw, config_.id, "Switch::admit");
  // Routing-epoch reconciliation: the upstream committed buffer space on
  // the output port the *old* LFT named. If a reroute landed the frame
  // on a different port, move the commitment there so nothing leaks.
  if (credit_reserved && frame.credit_port != port) {
    if (frame.credit_port >= 0) release_occupancy(frame.credit_port, frame.wire_bytes);
    credit_reserved = false;
  }
  Port& out = ports_.at(static_cast<std::size_t>(port));
  if (out.down) {
    // Routed into a link that failed while the frame was crossing the
    // fabric: the frame is lost here, its credit returned.
    if (credit_reserved) release_occupancy(port, frame.wire_bytes);
    ++down_drops_;
    return;
  }
  if (!credit_reserved) {
    if (config_.flow == FlowControl::kLossy && config_.max_queue_bytes > 0 &&
        out.occupancy_bytes + frame.wire_bytes >
            static_cast<std::int64_t>(config_.max_queue_bytes)) {
      ++out.drops;
      return;
    }
    out.occupancy_bytes += frame.wire_bytes;
  }
  // HOT-OK(per-port frame queue bounded by queue_capacity; capacity reused after warm-up)
  out.queue.push_back(std::move(frame));
  if (static_cast<double>(out.occupancy_bytes) > out.queue_hwm_bytes) {
    out.queue_hwm_bytes = static_cast<double>(out.occupancy_bytes);
  }
  if (out.queue.size() > out.queue_hwm_frames) {
    out.queue_hwm_frames = static_cast<std::uint64_t>(out.queue.size());
  }
  try_transmit(port);
}

void Switch::retry_transmit(int port) {
  ports_.at(static_cast<std::size_t>(port)).waiting = false;
  try_transmit(port);
}

void Switch::try_transmit(int port) {
  Port& out = ports_.at(static_cast<std::size_t>(port));
  // `waiting` means a wake from the downstream queue is already pending;
  // transmitting before it would reorder past the credit gate. A down
  // port (or a dead switch) transmits nothing until restored.
  if (down_ || out.down || out.transmitting || out.waiting || out.queue.empty()) return;
  Frame& head = out.queue.front();
  head.credit_port = -1;

  if (out.peer != nullptr && config_.flow == FlowControl::kCredit) {
    // Credit gate: the head frame needs committed space in the
    // downstream output queue it will be routed to. No space -> stall
    // this port (head-of-line blocking: congestion spreads upstream).
    // When the downstream LFT has no path (post-failure degraded mode)
    // there is no buffer to commit; the peer counts the frame
    // unroutable on arrival.
    Switch& down = *out.peer;
    const int droute = down.route_lookup(head.dst_node);
    if (droute >= 0) {
      Port& dq = down.ports_.at(static_cast<std::size_t>(droute));
      if (down.config_.max_queue_bytes > 0 &&
          dq.occupancy_bytes + head.wire_bytes >
              static_cast<std::int64_t>(down.config_.max_queue_bytes)) {
        if (out.stall_since == kNotStalled) {
          out.stall_since = engine_->now();
          ++out.credit_stalls;
        }
        out.waiting = true;
        // HOT-OK(PAUSE waiter list bounded by the port count)
        dq.waiters.emplace_back(this, port);
        return;
      }
      dq.occupancy_bytes += head.wire_bytes;  // credit consumed
      head.credit_port = droute;
    }
  }

  if (out.stall_since != kNotStalled) {
    out.pause_time += engine_->now() - out.stall_since;
    out.stall_since = kNotStalled;
  }

  Frame frame = std::move(out.queue.front());
  out.queue.pop_front();
  release_occupancy(port, frame.wire_bytes);
  out.transmitting = true;

  const Time serialization = config_.link_rate.bytes_time(frame.wire_bytes);
  out.tx.book(engine_->now(), serialization);
  engine_->charge_phase(Phase::kWire, serialization + config_.propagation);
  const Time sent = engine_->now() + serialization;

  if (out.sink != nullptr) {
    // Last hop: deliver to the NIC after egress propagation. Delivery
    // runs entirely inside the destination NIC, so it is scope-confined.
    engine_->post(sent + config_.propagation, /*scope=*/frame.dst_node,  // SCOPE-OK(sink is the dst NIC's FrameSink — state owned by the labelled node; the frame is lambda-owned)
                  [sink = out.sink, f = std::move(frame)]() mutable {
                    sink->deliver(std::move(f));
                  });
  } else {
    Switch* peer = out.peer;
    engine_->post(sent + config_.propagation + peer->config_.cut_through, /*scope=*/-1,
                  [peer, f = std::move(frame)]() mutable { peer->link_arrival(std::move(f)); });
  }

  engine_->post(sent, /*scope=*/-1, [this, port] {
    Port& p = ports_.at(static_cast<std::size_t>(port));
    p.transmitting = false;
    ++frames_forwarded_;
    try_transmit(port);
  });
}

// ---------------------------------------------------------------------------
// Failure state: driven by topo::Topology failover.
// ---------------------------------------------------------------------------

void Switch::set_port_down(int port) {
  ports_.at(static_cast<std::size_t>(port)).down = true;
}

void Switch::set_port_up(int port) {
  ports_.at(static_cast<std::size_t>(port)).down = false;
  // The port may have accumulated rerouted frames while down (credit
  // requeue can land on a port that fails later); restart the pump.
  try_transmit(port);
}

void Switch::requeue_down_port(int port) {
  Port& out = ports_.at(static_cast<std::size_t>(port));
  std::deque<Frame> stranded;
  stranded.swap(out.queue);
  for (Frame& frame : stranded) {
    if (config_.mutation_leak_credit_on_drain && !leak_spent_) {
      // Mutation seam: the first drained frame keeps its committed
      // occupancy — the credit leak audit_switch_queue_drained exists
      // to catch. One-shot so the leak is exactly one frame's worth.
      leak_spent_ = true;
    } else {
      release_occupancy(port, frame.wire_bytes);
    }
    if (config_.flow == FlowControl::kCredit) {
      // Lossless fabric: the frames were admitted under a credit
      // guarantee, so reroute them onto the post-failure LFT instead of
      // dropping. No surviving path (or the path still runs through
      // this dead link) -> counted loss, stacks recover via timeout.
      const int alt = route_lookup(frame.dst_node);
      if (alt >= 0 && alt != port && !ports_.at(static_cast<std::size_t>(alt)).down) {
        frame.credit_port = -1;
        admit(alt, std::move(frame), /*credit_reserved=*/false);
        continue;
      }
    }
    ++down_drops_;
    engine_->trace(TraceCategory::kWire, frame.src_node, [&] {
      return "LINKDOWN drop " + std::to_string(frame.src_node) + "->" +
             std::to_string(frame.dst_node) + " at switch " + std::to_string(config_.id) +
             " port " + std::to_string(port);
    });
  }
}

void Switch::drain_all_drop() {
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    Port& out = ports_[p];
    std::deque<Frame> stranded;
    stranded.swap(out.queue);
    for (Frame& frame : stranded) {
      if (config_.mutation_leak_credit_on_drain && !leak_spent_) {
        leak_spent_ = true;
      } else {
        release_occupancy(static_cast<int>(p), frame.wire_bytes);
      }
      ++down_drops_;
    }
  }
}

void Switch::release_occupancy(int port, std::uint32_t bytes) {
  Port& out = ports_.at(static_cast<std::size_t>(port));
  out.occupancy_bytes -= bytes;
  if (check::InvariantMonitor* monitor = engine_->monitor()) {
    check::audit_credit_nonnegative(out.occupancy_bytes)
        .report(monitor, engine_->now(), check::Layer::kHw, config_.id);
  }
  if (out.waiters.empty()) return;
  // The freed space may unblock stalled upstream ports; wake them in
  // FIFO registration order (deterministic). Each retry re-registers if
  // it is still blocked.
  std::vector<std::pair<Switch*, int>> waiters;
  waiters.swap(out.waiters);
  for (const auto& [up_switch, up_port] : waiters) {
    engine_->post(engine_->now(), /*scope=*/-1,
                  [up_switch, up_port] { up_switch->retry_transmit(up_port); });
  }
}

void Switch::audit_quiescence(check::InvariantMonitor& monitor, Time now) const {
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const Port& port = ports_[p];
    check::audit_switch_queue_drained(static_cast<int>(p), port.queue.size(),
                                      port.occupancy_bytes, port.transmitting)
        .report(&monitor, now, check::Layer::kHw, config_.id);
  }
}

}  // namespace fabsim::hw
