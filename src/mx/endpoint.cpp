#include "mx/endpoint.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/audits.hpp"

namespace fabsim::mx {

MxConfig mxom_defaults() {
  return MxConfig{};  // Myrinet framing is the baseline
}

MxConfig mxoe_defaults() {
  MxConfig config;
  config.frame_overhead = 60;  // Ethernet preamble+header+CRC+IFG+MX header
  return config;
}

Endpoint::Endpoint(hw::Node& node, hw::Switch& fabric, MxConfig config)
    : node_(&node),
      fabric_(&fabric),
      config_(config),
      unexpected_activity_(node.engine()),
      port_(fabric.attach(*this)),
      reg_cache_(config.reg_cache_entries, config.reg_cache_bytes),
      registry_(config.reg) {}

// ---------------------------------------------------------------------------
// Host API
// ---------------------------------------------------------------------------

Task<RequestPtr> Endpoint::isend(std::uint64_t addr, std::uint32_t len, int dest,
                                 std::uint64_t match_bits) {
  if (len == 0) throw std::invalid_argument("mx: zero-length send");
  co_await node_->cpu().compute(config_.isend_cpu);

  auto request = std::make_shared<Request>(engine());
  SendOp op;
  op.request = request;
  op.dest = dest;
  op.len = len;
  op.match_bits = match_bits;
  op.eager = len <= config_.eager_max;
  if (op.eager) ++eager_sends_; else ++rndv_sends_;

  if (op.eager) {
    // Copy into the pinned send ring (the single send-side copy of MX's
    // eager protocol); the user buffer is reusable immediately after.
    co_await node_->cpu().copy(addr, len);
  } else {
    // Rendezvous: pin the source through the registration cache (cost
    // shows up in the send overhead on a miss), then advertise with RTS.
    const Time pinned = pin(engine().now(), addr, len);
    co_await engine().sleep_until(pinned);
  }
  // Both protocols carry the source as of this call: a conforming caller
  // leaves a rendezvous buffer alone until the request completes anyway.
  op.data = node_->mem().snapshot(addr, len);
  engine().post(engine().now() + config_.doorbell, /*scope=*/port_,
                [this, op = std::move(op)]() mutable {
                  if (op.eager) {
                    send_eager(std::move(op));
                  } else {
                    send_rts(std::move(op));
                  }
                });
  co_return request;
}

Task<RequestPtr> Endpoint::irecv(std::uint64_t addr, std::uint32_t capacity,
                                 std::uint64_t match_bits, std::uint64_t match_mask) {
  co_await node_->cpu().compute(config_.irecv_cpu);

  auto request = std::make_shared<Request>(engine());
  PostedRecv recv{request, addr, capacity, match_bits & match_mask, match_mask};

  // The NIC walks its unexpected queue looking for a match; traversal
  // costs NIC engine time per item inspected. The scan and the dispatch
  // (or posted-queue insertion) happen atomically once the traversal
  // completes — otherwise a message arriving mid-traversal could miss
  // both queues and strand the rendezvous.
  const Time handoff = engine().now() + config_.doorbell;
  const Time traversal = config_.match_unexpected_item * (unexpected_.size() + 1);
  engine().charge_phase(Phase::kNic, traversal);
  const Time matched_at = rx_engine_.book(handoff, traversal, traversal);
  co_await engine().sleep_until(matched_at);

  auto it = unexpected_.begin();
  for (; it != unexpected_.end(); ++it) {
    if (!it->has_match && (it->match_bits & match_mask) == recv.match_bits) break;
  }
  if (it == unexpected_.end()) {
    posted_.push_back(std::move(recv));
    if (posted_.size() > posted_hwm_) posted_hwm_ = posted_.size();
    co_return request;
  }

  if (it->kind == FrameKind::kEager) {
    it->matched = recv;
    it->has_match = true;
    if (it->complete) {
      Unexpected taken = std::move(*it);
      unexpected_.erase(it);
      finish_eager_delivery(taken);
    }
    // else: the matching receive is attached; delivery finishes when the
    // last eager frame lands.
  } else {  // kRts
    Unexpected taken = std::move(*it);
    unexpected_.erase(it);
    start_rendezvous(recv, taken.src_port, taken.msg_id, taken.match_bits, taken.msg_len);
  }
  co_return request;
}

Task<> Endpoint::wait(const RequestPtr& request) {
  if (!request->done()) co_await request->done_event().wait();
}

Task<bool> Endpoint::test(const RequestPtr& request) {
  co_await node_->cpu().compute(config_.test_cpu);
  co_return request->done();
}

Task<bool> Endpoint::cancel(const RequestPtr& request) {
  co_await node_->cpu().compute(config_.test_cpu);
  if (request->done()) co_return false;
  auto it = std::find_if(posted_.begin(), posted_.end(),
                         [&](const PostedRecv& recv) { return recv.request == request; });
  if (it == posted_.end()) co_return false;  // already matched: too late to cancel
  posted_.erase(it);
  request->fail();
  co_return true;
}

Task<Endpoint::ProbeResult> Endpoint::iprobe(std::uint64_t match_bits,
                                             std::uint64_t match_mask) {
  co_await node_->cpu().compute(config_.test_cpu);
  // The NIC walks the unexpected queue, same cost model as a receive.
  const Time traversal = config_.match_unexpected_item * (unexpected_.size() + 1);
  engine().charge_phase(Phase::kNic, traversal);
  const Time done = rx_engine_.book(engine().now() + config_.doorbell, traversal, traversal);
  co_await engine().sleep_until(done);
  for (const Unexpected& u : unexpected_) {
    if (!u.has_match && (u.match_bits & match_mask) == (match_bits & match_mask)) {
      // Eager messages are probe-visible only once fully buffered.
      if (u.kind == FrameKind::kEager && !u.complete) continue;
      co_return ProbeResult{true, u.match_bits, u.msg_len};
    }
  }
  co_return ProbeResult{};
}

// ---------------------------------------------------------------------------
// Transmit paths
// ---------------------------------------------------------------------------

FABSIM_HOT void Endpoint::enqueue_tx(PendingTx tx) {
  // A failed flow transmits nothing: sequencing new frames onto a dead
  // peer would strand them in the resend queue forever. Anything that
  // still carries a completion fails instead of silently vanishing.
  if (tx.frame.kind != FrameKind::kAck && flow_failed(tx.dest)) {
    if (tx.complete != nullptr && !tx.complete->done()) tx.complete->fail();
    return;
  }
  // Firmware reliability: every frame except acks gets a per-flow sequence
  // number and a slot in the resend queue. Resends arrive here with their
  // sequence already stamped and must not be re-recorded.
  if (fabric_->can_lose() && tx.frame.kind != FrameKind::kAck && !tx.frame.has_seq) {
    fault::RetransmitWindow<Unacked>& window = tx_flows_[tx.dest].window;
    tx.frame.has_seq = true;
    tx.frame.seq = window.stamp();
    window.hold(Unacked{tx.frame, tx.carries_data}, tx.frame.seq)
        .report(engine().monitor(), engine().now(), check::Layer::kMx, node_->id());
    arm_flow_timer(tx.dest);
  }
  // HOT-OK(tx queue bounded by posted sends; capacity reused after warm-up)
  txq_.push_back(std::move(tx));
  if (!pump_armed_) {
    pump_armed_ = true;
    pump_tx();
  }
}

// The transmit pump paces frame emission at the rate the DMA engine
// actually frees up: one frame's fetch completes before the next is
// booked. Booking a whole message up front would let a large send
// head-of-line-block receive traffic on the shared DMA engine — real
// NIC firmware interleaves both directions.
void Endpoint::pump_tx() {
  // Scope trap: the tx chain mutates state FABSIM_OWNED_BY(port_).
  FABSIM_AUDIT_OWNED(engine(), check::Layer::kMx, port_, "Endpoint::pump_tx");
  if (txq_.empty()) {
    pump_armed_ = false;
    return;
  }
  PendingTx tx = std::move(txq_.front());
  txq_.pop_front();
  ++frames_sent_;

  Time ready = engine().now();
  if (tx.carries_data) {
    // Fetch from host memory across PCIe (x4 in the paper's testbed),
    // then through the NIC's shared DMA engine. The next frame enters the
    // pipeline as soon as this one's PCIe fetch completes, so the stages
    // overlap across frames while the shared DMA engine still serves
    // receive traffic interleaved at its real arrival rate.
    const Time fetched = node_->pcie().dma_read(ready, tx.frame.payload_len + 64);
    const Time dma_cost =
        config_.dma_transaction + config_.dma_rate.bytes_time(tx.frame.payload_len + 64);
    engine().charge_phase(Phase::kNic, dma_cost);
    ready = dma_.book(fetched, dma_cost);
    engine().post(fetched, /*scope=*/port_, [this] { pump_tx(); });
  } else {
    engine().post(ready, /*scope=*/port_, [this] { pump_tx(); });
  }

  const Time occupancy = config_.tx_occupancy +
                         config_.engine_byte_rate.bytes_time(tx.frame.payload_len) +
                         (tx.frame.first_of_message ? config_.per_message_overhead : 0);
  engine().charge_phase(Phase::kNic, occupancy);
  const Time processed = tx_engine_.book(ready, occupancy, config_.tx_latency);
  const std::uint32_t wire_bytes =
      std::max<std::uint32_t>(tx.frame.payload_len, config_.control_bytes) +
      config_.frame_overhead;
  const Time serialization = fabric_->config().link_rate.bytes_time(wire_bytes);
  engine().charge_phase(Phase::kWire, serialization);
  const Time sent = tx_link_.book(processed, serialization);
  const int src = port_;
  engine().post(sent, [this, tx = std::move(tx), src, wire_bytes]() mutable {
    if (tx.complete != nullptr) {
      tx.complete->complete(tx.complete_len, tx.complete_match);
    }
    if (fabric_->can_lose()) {
      // Piggyback the freshest cumulative ack for this peer on every
      // outgoing frame; reset the standalone-ack countdown.
      fault::InOrderReceiver& rx = rx_flows_[tx.dest];
      tx.frame.has_ack = true;
      tx.frame.ack = rx.expected();
      rx.acked();
    }
    fabric_->ingress(hw::Frame{src, tx.dest, wire_bytes, std::move(tx.frame)});
  });
}

// ---------------------------------------------------------------------------
// Firmware reliability (armed only while frames can be lost)
// ---------------------------------------------------------------------------

void Endpoint::send_flow_ack(int dest) {
  MxFrame frame;
  frame.kind = FrameKind::kAck;
  frame.src_port = port_;
  frame.payload_len = 0;
  frame.has_ack = true;
  frame.ack = rx_flows_[dest].expected();
  ++acks_sent_;
  enqueue_tx(PendingTx{std::move(frame), dest, /*carries_data=*/false, nullptr, 0, 0});
}

void Endpoint::handle_flow_ack(int src_port, std::uint64_t ack) {
  auto it = tx_flows_.find(src_port);
  if (it == tx_flows_.end()) return;
  fault::RetransmitWindow<Unacked>& window = it->second.window;
  if (check::InvariantMonitor* monitor = engine().monitor()) {
    check::audit_ack_window(ack, window.next())
        .report(monitor, engine().now(), check::Layer::kMx, node_->id());
  }
  if (!window.release(ack)) return;
  // The running timer covers a freed head of line: cancel and re-cover.
  window.cancel();
  if (!window.empty()) arm_flow_timer(src_port);
}

void Endpoint::arm_flow_timer(int dest) {
  fault::RetransmitWindow<Unacked>& window = tx_flows_[dest].window;
  if (!window.arm()) return;
  const std::uint64_t gen = window.generation();
  engine().post(engine().now() + window.timeout(config_.rto, /*backoff_cap=*/6),
                /*scope=*/port_, [this, dest, gen] { on_flow_timeout(dest, gen); });
}

void Endpoint::on_flow_timeout(int dest, std::uint64_t gen) {
  FABSIM_AUDIT_OWNED(engine(), check::Layer::kMx, port_, "Endpoint::on_flow_timeout");
  fault::RetransmitWindow<Unacked>& window = tx_flows_[dest].window;
  if (!window.is_current(gen)) return;  // superseded
  window.cancel();
  if (window.empty()) return;
  const int retry = window.count_retry();
  ++rto_fires_;
  if (retry > config_.retry_limit) {
    fail_flow(dest);
    return;
  }
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "MX flow RTO fired: retry " + std::to_string(retry) + " to port " + std::to_string(dest);
  });
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "MX resend to port " + std::to_string(dest) + ": " + std::to_string(window.size()) +
           " frames";
  });
  for (std::size_t i = 0; i < window.size(); ++i) {
    ++resends_;
    const Unacked& u = window[i];
    resent_bytes_ += u.frame.payload_len;
    // Resends never carry a completion: the original wire handoff (or the
    // eventual ack) owns request completion.
    enqueue_tx(PendingTx{u.frame, dest, u.carries_data, nullptr, 0, 0});
  }
  arm_flow_timer(dest);
}

void Endpoint::fail_flow(int dest) {
  FlowTx& flow = tx_flows_[dest];
  if (flow.failed) return;
  flow.failed = true;
  flow.window.clear();  // nothing will be resent; quiescence audits see no strands
  flow.window.cancel();
  ++flow_failures_;
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "MX flow to port " + std::to_string(dest) + " failed: retry limit " +
           std::to_string(config_.retry_limit) + " exhausted, peer unreachable";
  });
  // Rendezvous sends still waiting for a CTS that will never arrive.
  for (auto it = pending_sends_.begin(); it != pending_sends_.end();) {
    if (it->second.dest == dest) {
      if (!it->second.request->done()) it->second.request->fail();
      it = pending_sends_.erase(it);
    } else {
      ++it;
    }
  }
  // Rendezvous pulls sourced from the dead peer: remaining data frames
  // will never arrive, so fail the receive now.
  for (auto it = rndv_recvs_.begin(); it != rndv_recvs_.end();) {
    if (it->second.src_port == dest) {
      if (!it->second.recv.request->done()) it->second.recv.request->fail();
      it = rndv_recvs_.erase(it);
    } else {
      ++it;
    }
  }
  // Unexpected-queue entries from the dead peer that can no longer make
  // progress: a half-buffered eager message (its tail is lost) fails any
  // receive already attached to it; an RTS advertisement is withdrawn —
  // the sender-side request already failed with the flow, and matching it
  // later would send a CTS onto this dead flow and strand the receive.
  for (auto it = unexpected_.begin(); it != unexpected_.end();) {
    if (it->src_port == dest && (it->kind == FrameKind::kRts || !it->complete)) {
      if (it->has_match && !it->matched.request->done()) it->matched.request->fail();
      it = unexpected_.erase(it);
    } else {
      ++it;
    }
  }
}

void Endpoint::send_eager(SendOp op) {
  if (flow_failed(op.dest)) {
    op.request->fail();
    return;
  }
  send_frames(FrameKind::kEager, op, next_msg_id_++, /*receiver_handle=*/0);
}

void Endpoint::send_frames(FrameKind kind, const SendOp& op, std::uint64_t msg_id,
                           std::uint64_t receiver_handle) {
  for (std::uint32_t offset = 0; offset < op.len;) {
    const std::uint32_t chunk = std::min(config_.mtu, op.len - offset);
    MxFrame frame;
    frame.kind = kind;
    frame.src_port = port_;
    frame.msg_id = msg_id;
    frame.peer_msg_id = receiver_handle;
    frame.match_bits = op.match_bits;
    frame.msg_len = op.len;
    frame.offset = offset;
    frame.payload_len = chunk;
    frame.first_of_message = (offset == 0);
    frame.data = op.data;
    offset += chunk;
    frame.last_of_message = (offset == op.len);
    PendingTx tx{std::move(frame), op.dest, /*carries_data=*/true, nullptr, 0, 0};
    if (tx.frame.last_of_message) {
      tx.complete = op.request;
      tx.complete_len = op.len;
      tx.complete_match = op.match_bits;
    }
    enqueue_tx(std::move(tx));
  }
}

void Endpoint::send_rts(SendOp op) {
  if (flow_failed(op.dest)) {
    op.request->fail();
    return;
  }
  const std::uint64_t msg_id = next_msg_id_++;
  send_control(FrameKind::kRts, op.dest, msg_id, 0, op.match_bits, op.len);
  // HOT-OK(rendezvous bookkeeping bounded by outstanding sends)
  pending_sends_.emplace(msg_id, std::move(op));
}

void Endpoint::send_control(FrameKind kind, int dest, std::uint64_t msg_id,
                            std::uint64_t peer_msg_id, std::uint64_t match_bits,
                            std::uint32_t msg_len) {
  MxFrame frame;
  frame.kind = kind;
  frame.src_port = port_;
  frame.msg_id = msg_id;
  frame.peer_msg_id = peer_msg_id;
  frame.match_bits = match_bits;
  frame.msg_len = msg_len;
  frame.payload_len = 0;
  frame.first_of_message = true;
  frame.last_of_message = true;
  enqueue_tx(PendingTx{std::move(frame), dest, /*carries_data=*/false, nullptr, 0, 0});
}

void Endpoint::stream_data(std::uint64_t msg_id, std::uint64_t receiver_handle) {
  auto it = pending_sends_.find(msg_id);
  // HOT-OK(protocol-violation guard; unreachable in a conforming run)
  if (it == pending_sends_.end()) throw std::logic_error("mx: CTS for unknown send");
  const SendOp op = std::move(it->second);
  pending_sends_.erase(it);
  send_frames(FrameKind::kData, op, msg_id, receiver_handle);
}

Time Endpoint::pin(Time ready, std::uint64_t addr, std::uint32_t len) {
  if (!config_.reg_cache_enabled) {
    ++reg_misses_;
    const Time cost = registry_.register_cost(len) + registry_.deregister_cost(len);
    return node_->cpu().charge(ready, cost);
  }
  auto result = reg_cache_.lookup(addr, len);
  if (result.hit) {
    ++reg_hits_;
    return ready;
  }
  ++reg_misses_;
  Time cost = registry_.register_cost(len);
  for (const auto& evicted : result.evicted) cost += registry_.deregister_cost(evicted.len);
  return node_->cpu().charge(ready, cost);
}

// ---------------------------------------------------------------------------
// Receive paths
// ---------------------------------------------------------------------------

void Endpoint::deliver(hw::Frame raw) {
  // Scope trap: delivery mutates this endpoint's matching/reliability
  // state, so the carrying event must carry this node's scope (or -1).
  FABSIM_AUDIT_OWNED(engine(), check::Layer::kMx, port_, "Endpoint::deliver");
  if (raw.corrupted) {
    // Failed frame CRC: discarded at the link interface, recovered by the
    // sender's resend timer exactly like a drop.
    ++corrupt_discards_;
    return;
  }
  MxFrame frame = std::any_cast<MxFrame>(std::move(raw.payload));

  if (fabric_->can_lose()) {
    if (frame.has_ack) handle_flow_ack(frame.src_port, frame.ack);
    if (frame.kind == FrameKind::kAck) {
      // Ack-only frame: consumes a sliver of engine time, nothing more.
      engine().charge_phase(Phase::kNic, config_.rx_occupancy / 2);
      rx_engine_.book(engine().now(), config_.rx_occupancy / 2, config_.rx_latency);
      return;
    }
    if (frame.has_seq) {
      using Arrival = fault::InOrderReceiver::Arrival;
      fault::InOrderReceiver& rx = rx_flows_[frame.src_port];
      const Arrival arrival = rx.accept(frame.seq);
      if (arrival != Arrival::kInOrder) {
        // A duplicate (our ack was lost or raced a resend) re-asserts the
        // cumulative ack so the sender's window advances. A sequence gap
        // drops the frame (in-order delivery is enforced) and re-asserts
        // once per gap; the resend timer restarts the stream.
        if (arrival != Arrival::kGapSignalled) send_flow_ack(frame.src_port);
        return;
      }
      if (rx.ack_due(frame.last_of_message, config_.ack_every)) send_flow_ack(frame.src_port);
    }
  }

  Time occupancy =
      (frame.kind == FrameKind::kData || frame.kind == FrameKind::kEager ? config_.rx_occupancy
                                                                         : config_.rx_occupancy / 2) +
      config_.engine_byte_rate.bytes_time(frame.payload_len) +
      (frame.first_of_message ? config_.per_message_overhead : 0);

  // NIC-resident matching: the first frame of an eager message or an RTS
  // walks the posted-receive queue; each item inspected costs engine time.
  if ((frame.kind == FrameKind::kEager && frame.first_of_message) ||
      frame.kind == FrameKind::kRts) {
    std::size_t scanned = 0;
    for (const PostedRecv& recv : posted_) {
      ++scanned;
      if (matches(recv, frame.match_bits)) break;
    }
    occupancy += config_.match_posted_item * (scanned == 0 ? 1 : scanned);
  }

  engine().charge_phase(Phase::kNic, occupancy);
  const Time processed = rx_engine_.book(engine().now(), occupancy, config_.rx_latency);

  switch (frame.kind) {
    case FrameKind::kEager: {
      const Time land_cost =
          config_.dma_transaction + config_.dma_rate.bytes_time(frame.payload_len + 64);
      engine().charge_phase(Phase::kNic, land_cost);
      Time landed = dma_.book(processed, land_cost);
      landed = node_->pcie().dma_write(landed, frame.payload_len + 64);
      engine().post(landed, /*scope=*/port_, [this, frame = std::move(frame)]() mutable {
        handle_eager_arrival(std::move(frame));
      });
      break;
    }
    case FrameKind::kRts:
      engine().post(processed, /*scope=*/port_,
                    [this, frame = std::move(frame)]() mutable { handle_rts(frame); });
      break;
    case FrameKind::kCts:
      engine().post(processed, /*scope=*/port_,
                    [this, frame = std::move(frame)]() mutable { handle_cts(frame); });
      break;
    case FrameKind::kData: {
      const Time place_cost =
          config_.dma_transaction + config_.dma_rate.bytes_time(frame.payload_len + 64);
      engine().charge_phase(Phase::kNic, place_cost);
      Time placed = dma_.book(processed, place_cost);
      placed = node_->pcie().dma_write(placed, frame.payload_len + 64);
      engine().post(placed, /*scope=*/port_,
                    [this, frame = std::move(frame)]() mutable { handle_data(frame); });
      break;
    }
    case FrameKind::kAck:
      break;  // handled (and returned) before engine booking
  }
}

void Endpoint::handle_eager_arrival(MxFrame frame) {
  Unexpected* entry = nullptr;
  if (frame.first_of_message) {
    // Try to match a posted receive right away.
    auto it = std::find_if(posted_.begin(), posted_.end(), [&](const PostedRecv& recv) {
      return matches(recv, frame.match_bits);
    });
    Unexpected u;
    u.kind = FrameKind::kEager;
    u.src_port = frame.src_port;
    u.msg_id = frame.msg_id;
    u.match_bits = frame.match_bits;
    u.msg_len = frame.msg_len;
    u.data = frame.data;
    if (it != posted_.end()) {
      u.matched = *it;
      u.has_match = true;
      posted_.erase(it);
    }
    // HOT-OK(unexpected queue bounded by unmatched arrivals)
    unexpected_.push_back(std::move(u));
    if (unexpected_.size() > unexpected_hwm_) unexpected_hwm_ = unexpected_.size();
    entry = &unexpected_.back();
    if (!entry->has_match) unexpected_activity_.notify_all();
  } else {
    auto it = std::find_if(unexpected_.begin(), unexpected_.end(), [&](const Unexpected& u) {
      return u.src_port == frame.src_port && u.msg_id == frame.msg_id;
    });
    if (it == unexpected_.end()) {
      // A failed flow purges half-buffered entries; continuations already
      // in flight from the dead peer land here and are discarded.
      if (flow_failed(frame.src_port)) return;
      // HOT-OK(protocol-violation guard; unreachable in a conforming run)
      throw std::logic_error("mx: eager continuation without head");
    }
    entry = &*it;
  }

  entry->buffered += frame.payload_len;
  if (entry->buffered < entry->msg_len) return;

  entry->complete = true;
  if (entry->has_match) {
    Unexpected taken = std::move(*entry);
    unexpected_.erase(std::find_if(
        unexpected_.begin(), unexpected_.end(), [&](const Unexpected& u) {
          return u.src_port == taken.src_port && u.msg_id == taken.msg_id;
        }));
    finish_eager_delivery(taken);
  }
  // else: stays buffered in the unexpected queue until a receive matches.
}

void Endpoint::finish_eager_delivery(Unexpected& u) {
  const PostedRecv& recv = u.matched;
  // HOT-OK(application-misuse guard; unreachable in a conforming run)
  if (recv.capacity < u.msg_len) throw std::length_error("mx: receive buffer too small");
  // The single receive-side copy: unexpected/ring buffer -> user buffer,
  // done by the host.
  const Time copied = node_->cpu().charge_copy(engine().now(), recv.addr, u.msg_len);
  if (u.data != nullptr) node_->mem().write(recv.addr, *u.data);
  engine().post(copied, /*scope=*/port_,  // SCOPE-OK(the completion touches only this node's Request; the lambda owns a shared_ptr ref plus two scalar copies)
                [request = recv.request, len = u.msg_len, match = u.match_bits] {
                  request->complete(len, match);
                });
}

void Endpoint::handle_rts(const MxFrame& frame) {
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "MX RTS arrived: match=" + std::to_string(frame.match_bits) + " len=" +
           std::to_string(frame.msg_len);
  });
  auto it = std::find_if(posted_.begin(), posted_.end(), [&](const PostedRecv& recv) {
    return matches(recv, frame.match_bits);
  });
  if (it == posted_.end()) {
    Unexpected u;
    u.kind = FrameKind::kRts;
    u.src_port = frame.src_port;
    u.msg_id = frame.msg_id;
    u.match_bits = frame.match_bits;
    u.msg_len = frame.msg_len;
    u.complete = true;
    // HOT-OK(unexpected queue bounded by unmatched arrivals)
    unexpected_.push_back(std::move(u));
    if (unexpected_.size() > unexpected_hwm_) unexpected_hwm_ = unexpected_.size();
    unexpected_activity_.notify_all();
    return;
  }
  PostedRecv recv = *it;
  posted_.erase(it);
  start_rendezvous(recv, frame.src_port, frame.msg_id, frame.match_bits, frame.msg_len);
}

void Endpoint::start_rendezvous(const PostedRecv& recv, int src_port,
                                std::uint64_t sender_msg_id, std::uint64_t match_bits,
                                std::uint32_t msg_len) {
  // HOT-OK(application-misuse guard; unreachable in a conforming run)
  if (recv.capacity < msg_len) throw std::length_error("mx: receive buffer too small");
  if (flow_failed(src_port)) {
    // The sender died between advertising and this match: the CTS could
    // never be delivered, so fail the receive instead of stranding it.
    if (!recv.request->done()) recv.request->fail();
    return;
  }
  const std::uint64_t handle = next_recv_handle_++;
  // HOT-OK(rendezvous bookkeeping bounded by outstanding receives)
  rndv_recvs_.emplace(handle, RndvRecv{recv, msg_len, 0, src_port});
  // Pin the target buffer (cache hit is free; a miss charges the host),
  // then grant the sender the go-ahead.
  const Time pinned = pin(engine().now(), recv.addr, msg_len);
  engine().post(pinned, /*scope=*/port_, [this, src_port, sender_msg_id, handle, match_bits,
                                          msg_len] {
    send_control(FrameKind::kCts, src_port, sender_msg_id, handle, match_bits, msg_len);
  });
}

void Endpoint::handle_cts(const MxFrame& frame) {
  // A CTS racing the flow-failure declaration: the pending send was
  // already failed and purged, so the grant is moot.
  if (flow_failed(frame.src_port)) return;
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "MX CTS arrived: streaming msg " + std::to_string(frame.msg_id);
  });
  stream_data(frame.msg_id, frame.peer_msg_id);
}

void Endpoint::handle_data(const MxFrame& frame) {
  auto it = rndv_recvs_.find(frame.peer_msg_id);
  if (it == rndv_recvs_.end()) {
    // A failed flow purges its rendezvous pulls; data already in flight
    // from the dead peer lands here and is discarded.
    if (flow_failed(frame.src_port)) return;
    // HOT-OK(protocol-violation guard; unreachable in a conforming run)
    throw std::logic_error("mx: data for unknown rendezvous");
  }
  RndvRecv& rr = it->second;
  if (frame.data != nullptr) {
    node_->mem().write(rr.recv.addr + frame.offset, frame.payload());
  }
  rr.placed += frame.payload_len;
  if (rr.placed < rr.msg_len) return;
  rr.recv.request->complete(rr.msg_len, frame.match_bits);
  rndv_recvs_.erase(it);
}

// ---------------------------------------------------------------------------
// FabricCheck audits
// ---------------------------------------------------------------------------

void Endpoint::audit_consistency(check::InvariantMonitor& monitor) {
  // Matching-queue disjointness. Only fully-arrived, still-unmatched
  // unexpected entries count: a message mid-buffering (or one already
  // paired and draining) is legitimately in both worlds at once.
  for (const PostedRecv& recv : posted_) {
    for (const Unexpected& u : unexpected_) {
      if (u.has_match || (u.kind == FrameKind::kEager && !u.complete)) continue;
      if (!matches(recv, u.match_bits)) continue;
      monitor.report(engine().now(), check::Layer::kMx, node_->id(), "queue_overlap",
                     "unexpected " + std::string(u.kind == FrameKind::kRts ? "RTS" : "eager") +
                         " (match 0x" + std::to_string(u.match_bits) +
                         ") matches a posted receive — NIC matching failed to pair them");
    }
  }
  // Resend-queue consistency for every flow (whole-queue form).
  for (const auto& [dest, flow] : tx_flows_) {
    std::deque<std::uint64_t> seqs;
    for (std::size_t i = 0; i < flow.window.size(); ++i) seqs.push_back(flow.window[i].frame.seq);
    check::audit_resend_queue(seqs, flow.window.next())
        .report(&monitor, engine().now(), check::Layer::kMx, node_->id());
  }
}

}  // namespace fabsim::mx
