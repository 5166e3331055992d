#include "ib/hca.hpp"

#include <algorithm>
#include <string>

#include "check/audits.hpp"

namespace fabsim::ib {

// ---------------------------------------------------------------------------
// Construction / doorbell
// ---------------------------------------------------------------------------

Hca::Hca(hw::Node& node, hw::Switch& fabric, HcaConfig config)
    : verbs::Device("ib", node, fabric, config.reg, config.post_send_cpu, config.post_recv_cpu),
      config_(config) {}

void Hca::submit(verbs::Conn& posted, verbs::Message msg) {
  const int conn_id = posted.id;
  // Scope labels on HCA-internal continuations (doorbell, timers, ack and
  // placement processing) mark them as confined to this node for schedule
  // exploration; wire handoffs stay unscoped (-1) because they mutate
  // shared switch state.
  engine().post(engine().now() + config_.doorbell, /*scope=*/port_,
                [this, conn_id, msg = std::move(msg)]() mutable {
                  send_message(conn_at(conn_id), std::move(msg));
                });
}

// ---------------------------------------------------------------------------
// Transmit path
// ---------------------------------------------------------------------------

Time Hca::context_access(int conn_id) {
  auto it = std::find(context_lru_.begin(), context_lru_.end(), conn_id);
  if (it != context_lru_.end()) {
    context_lru_.erase(it);
    // HOT-OK(context-cache LRU node, bounded by the cache capacity)
    context_lru_.push_front(conn_id);
    ++context_hits_;
    return 0;
  }
  // HOT-OK(context-cache LRU node, bounded by the cache capacity)
  context_lru_.push_front(conn_id);
  if (static_cast<int>(context_lru_.size()) > config_.context_cache_entries) {
    context_lru_.pop_back();
  }
  ++context_misses_;
  return config_.context_miss_penalty;
}

Time Hca::engine_process(Time ready, const Packet& packet, bool transmit_side,
                         int local_conn_id) {
  Time occupancy = (transmit_side ? config_.tx_packet_proc : config_.rx_packet_proc) +
                   config_.engine_byte_rate.bytes_time(packet.payload_len);
  if (packet.first_of_message) {
    occupancy += transmit_side ? config_.tx_message_proc : config_.rx_message_proc;
    occupancy += context_access(local_conn_id);
  }
  engine().charge_phase(Phase::kNic, occupancy);
  return proc_.book(ready, occupancy) + config_.engine_latency_pad;
}

void Hca::send_message(Conn& conn, verbs::Message msg) {
  // Scope trap: all transmit-side HCA state is FABSIM_OWNED_BY(port_).
  FABSIM_AUDIT_OWNED(engine(), check::Layer::kIb, port_, "Hca::send_message");
  // Track a read until its response completes it: the request packet is
  // acked (and leaves inflight) long before the response arrives, and
  // enter_error must be able to flush the stranded completion.
  if (msg.kind == MsgKind::kReadRequest) conn.track_read(msg);
  const std::uint64_t msg_id = conn.next_msg_id++;
  for (std::uint32_t offset = 0; offset < msg.len;) {
    const std::uint32_t chunk = std::min(config_.mtu, msg.len - offset);
    Packet packet{verbs::chunk_header(msg, msg_id, offset, chunk, conn.peer_conn_id)};
    offset += chunk;
    transmit_packet(conn, std::move(packet), /*retransmit=*/false);
  }
}

FABSIM_HOT void Hca::transmit_packet(Conn& conn, Packet packet, bool retransmit) {
  const bool rel = fabric_->can_lose();
  if (rel && !retransmit) {
    // Requester side: stamp the PSN, keep a copy for retransmission, and
    // make sure a retry timer covers the (possibly new) head of line.
    packet.psn = conn.tx.stamp();
    conn.tx.hold(packet, packet.psn)
        .report(engine().monitor(), engine().now(), check::Layer::kIb, node_->id());
    arm_timer(conn);
  }
  if (retransmit) {
    ++retransmits_;
    retransmitted_bytes_ += packet.payload_len;
  }
  ++packets_sent_;

  // Fetch payload from host memory through the NIC DMA engine (retransmits
  // re-fetch: the card does not buffer payloads past the wire handoff).
  const bool carries_data = packet.kind != MsgKind::kReadRequest;
  Time ready = engine().now();
  if (carries_data) {
    const Time dma_cost =
        config_.dma_transaction + config_.dma_rate.bytes_time(packet.payload_len + 64);
    engine().charge_phase(Phase::kNic, dma_cost);
    ready = dma_.book(ready, dma_cost);
  }
  const Time processed = engine_process(ready, packet, /*transmit_side=*/true, conn.id);
  const Time serialization =
      fabric_->config().link_rate.bytes_time(packet.payload_len + config_.packet_overhead);
  engine().charge_phase(Phase::kWire, serialization);
  const Time sent = tx_link_.book(processed, serialization);

  // On the lossless fabric the send completion can be pushed at wire
  // handoff; with reliability armed it is deferred until the ack frees the
  // packet from the inflight queue (handle_ack_packet).
  const bool completes = !rel && packet.completes_send();
  verbs::QueuePair* qp = conn.qp;
  const int src = port_;
  const int dst = conn.peer->fabric_port();
  engine().post(sent, [this, packet = std::move(packet), completes, qp, src, dst]() mutable {
    if (completes) complete_send(*qp, packet);
    fabric_->ingress(
        hw::Frame{src, dst, packet.payload_len + config_.packet_overhead, std::move(packet)});
  });
}

// ---------------------------------------------------------------------------
// RC end-to-end reliability (armed only while frames can be lost)
// ---------------------------------------------------------------------------

void Hca::send_ack(Conn& conn, bool nak) {
  Packet ack{};
  ack.dst_conn_id = conn.peer_conn_id;
  ack.is_ack = !nak;
  ack.is_nak = nak;
  ack.ack_psn = conn.rx.expected();
  conn.rx.acked();
  ++acks_sent_;
  if (nak) {
    ++naks_sent_;
    engine().trace(TraceCategory::kProto, node_->id(), [&] {
      return "IB RC NAK: expected psn " + std::to_string(conn.rx.expected());
    });
  }

  // Acks share the protocol engine and the tx link with data, and ride the
  // fabric like any other frame — so they too can be dropped or delayed.
  engine().charge_phase(Phase::kNic, config_.ack_proc);
  const Time processed = proc_.book(engine().now(), config_.ack_proc);
  const Time ack_serialization = fabric_->config().link_rate.bytes_time(config_.ack_wire_bytes);
  engine().charge_phase(Phase::kWire, ack_serialization);
  const Time sent = tx_link_.book(processed, ack_serialization);
  const int src = port_;
  const int dst = conn.peer->fabric_port();
  const std::uint32_t wire = config_.ack_wire_bytes;
  engine().post(sent, [this, ack, src, dst, wire]() mutable {
    fabric_->ingress(hw::Frame{src, dst, wire, std::move(ack)});
  });
}

void Hca::handle_ack_packet(Conn& conn, const Packet& ack) {
  if (conn.qp->in_error()) return;
  if (check::InvariantMonitor* monitor = engine().monitor()) {
    check::audit_ack_window(ack.ack_psn, conn.tx.next())
        .report(monitor, engine().now(), check::Layer::kIb, node_->id());
  }
  // Sends complete when the ack frees their last packet.
  conn.tx.release(ack.ack_psn, [&](const Packet& done) {
    if (done.completes_send()) complete_send(*conn.qp, done);
  });
  // Any timer now covers the wrong head of line; cancel it and re-arm if
  // packets remain outstanding.
  conn.tx.cancel();
  if (ack.is_nak) {
    retransmit_inflight(conn);  // go-back-N from the requested PSN
  } else if (!conn.tx.empty()) {
    arm_timer(conn);
  }
}

void Hca::retransmit_inflight(Conn& conn) {
  if (conn.qp->in_error()) return;
  // Go-back-N: resend everything outstanding, oldest first, preserving the
  // original PSNs so the responder sees an in-order stream again.
  const std::size_t outstanding = conn.tx.size();
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "IB RC retransmit from psn " + std::to_string(conn.tx[0].psn) + ": " +
           std::to_string(outstanding) + " packets";
  });
  for (std::size_t i = 0; i < outstanding; ++i) {
    transmit_packet(conn, conn.tx[i], /*retransmit=*/true);
  }
  arm_timer(conn);
}

void Hca::arm_timer(Conn& conn) {
  if (!conn.tx.arm()) return;
  const std::uint64_t gen = conn.tx.generation();
  const int conn_id = conn.id;
  engine().post(engine().now() + conn.tx.timeout(config_.rto, /*backoff_cap=*/6),
                /*scope=*/port_, [this, conn_id, gen] { on_timeout(conn_id, gen); });
}

void Hca::on_timeout(int conn_id, std::uint64_t gen) {
  FABSIM_AUDIT_OWNED(engine(), check::Layer::kIb, port_, "Hca::on_timeout");
  Conn& conn = conn_at(conn_id);
  if (!conn.tx.is_current(gen)) return;  // superseded
  conn.tx.cancel();
  if (conn.tx.empty()) return;
  const int retry = conn.tx.count_retry();
  ++rto_fires_;
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "IB RC RTO fired: retry " + std::to_string(retry) + "/" +
           std::to_string(config_.retry_limit);
  });
  if (retry > config_.retry_limit) {
    if (check::InvariantMonitor* monitor = engine().monitor()) {
      // RTO legality: the error transition is only legal once the retry
      // counter has actually exceeded the configured limit.
      check::audit_ib_retry_exhausted(retry, config_.retry_limit)
          .report(monitor, engine().now(), check::Layer::kIb, node_->id());
    }
    enter_error(conn);
    return;
  }
  retransmit_inflight(conn);
}

void Hca::enter_error(Conn& conn) {
  set_error(*conn.qp);
  conn.tx.cancel();
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "IB RC retry limit exhausted: QP " + std::to_string(conn.qp->qp_num()) +
           " -> error state";
  });
  // Flush outstanding signaled work requests with an error completion —
  // the RC contract when the transport retry counter is exhausted.
  // Read requests are skipped: the pending-read flush below owns read
  // completions (the request may or may not still be inflight; the list
  // covers both). Read responses are responder-generated, with no local
  // work request; the peer notification below errors the stranded
  // requester out.
  for (std::size_t i = 0; i < conn.tx.size(); ++i) {
    const Packet& packet = conn.tx[i];
    if (packet.completes_send()) flush_send(*conn.qp, packet.kind, packet.wr_id, packet.msg_len);
  }
  conn.tx.clear();

  // Reads whose request was already acked (and so left the inflight
  // queue) but whose response never arrived used to vanish here without
  // a completion, silently under-counting kRetryExceeded. Flush them all
  // and report the previously-silent ones through the monitor.
  if (!conn.pending_reads.empty() && !config_.mutation_strand_pending_reads) {
    if (check::InvariantMonitor* monitor = engine().monitor()) {
      monitor->report(engine().now(), check::Layer::kIb, node_->id(), "error_pending_completion",
                      "QP " + std::to_string(conn.qp->qp_num()) + " entered error with " +
                          std::to_string(conn.pending_reads.size()) +
                          " RDMA read(s) still pending; flushing with kRetryExceeded");
    }
    flush_reads(conn);
  }
  flush_recvs(conn);

  if (conn.peer != nullptr && !config_.mutation_strand_pending_reads) {
    // Out-of-band, like connect(): stands in for the peer-side teardown
    // (its own timeout exhaustion, or the CM disconnect event) that this
    // model elides. Without it a receiver whose sender died — or a read
    // requester whose responder died — waits forever. connect() pairs
    // only devices of one type.
    static_cast<Hca*>(conn.peer)->peer_conn_error(conn.peer_conn_id);
  }
}

void Hca::peer_conn_error(int conn_id) {
  Conn& conn = conn_at(conn_id);
  if (conn.qp->in_error()) return;
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "IB RC peer failure: QP " + std::to_string(conn.qp->qp_num()) +
           " -> error state (responder died mid-response)";
  });
  enter_error(conn);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void Hca::deliver(hw::Frame frame) {
  // Scope trap: delivery mutates this HCA's receive state, so the
  // carrying event must be labelled with this node's scope (or -1).
  FABSIM_AUDIT_OWNED(engine(), check::Layer::kIb, port_, "Hca::deliver");
  if (frame.corrupted) {
    // Failed ICRC/VCRC: the packet is silently discarded and recovered (if
    // at all) by the requester's retry timer, exactly like a drop.
    ++corrupt_discards_;
    return;
  }
  Packet packet = std::any_cast<Packet>(std::move(frame.payload));
  Conn& conn = conn_at(packet.dst_conn_id);

  if (packet.is_ack || packet.is_nak) {
    engine().charge_phase(Phase::kNic, config_.ack_proc);
    const Time done = proc_.book(engine().now(), config_.ack_proc);
    const int conn_id = packet.dst_conn_id;
    engine().post(done, /*scope=*/port_, [this, conn_id, packet] {
      handle_ack_packet(conn_at(conn_id), packet);
    });
    return;
  }

  if (fabric_->can_lose()) {
    using Arrival = fault::InOrderReceiver::Arrival;
    const Arrival arrival = conn.rx.accept(packet.psn);
    if (arrival != Arrival::kInOrder) {
      // A duplicate (our ack was lost or a retransmit raced it) re-asserts
      // the cumulative ack so the requester can advance. A sequence gap is
      // NAKed once; the go-back-N retransmission restarts the stream at the
      // expected PSN.
      if (arrival == Arrival::kGap) send_ack(conn, /*nak=*/true);
      if (arrival == Arrival::kDuplicate &&
          !(config_.mutation_drop_final_ack && packet.last_of_message)) {
        send_ack(conn, /*nak=*/false);
      }
      return;
    }
    if (conn.rx.ack_due(packet.last_of_message, config_.ack_every) &&
        !(config_.mutation_drop_final_ack && packet.last_of_message &&
          conn.rx.unacked() < config_.ack_every)) {
      send_ack(conn, /*nak=*/false);
    }
  }

  // On the receive side the packet's destination connection id is local.
  const Time processed =
      engine_process(engine().now(), packet, /*transmit_side=*/false, packet.dst_conn_id);

  if (packet.kind == MsgKind::kReadRequest) {
    // Read-after-write ordering: the responder must observe all earlier
    // placements from this stream before snapshotting the source, so the
    // request rides through the same FIFO DMA stage the data uses.
    engine().charge_phase(Phase::kNic, config_.dma_transaction);
    const Time ordered = dma_.book(processed, config_.dma_transaction);
    const int conn_id = packet.dst_conn_id;
    engine().post(ordered, /*scope=*/port_, [this, conn_id, packet = std::move(packet)] {
      send_message(conn_at(conn_id), read_response(packet));
    });
    return;
  }

  const Time place_cost =
      config_.dma_transaction + config_.dma_rate.bytes_time(packet.payload_len + 64);
  engine().charge_phase(Phase::kNic, place_cost);
  const Time placed = dma_.book(processed, place_cost);
  const int conn_id = packet.dst_conn_id;
  engine().post(placed, /*scope=*/port_, [this, conn_id, packet = std::move(packet)] {
    Conn& c = conn_at(conn_id);
    if (const verbs::RxMsg* rx = place(c, packet)) complete_message(c, packet, *rx);
  });
}

}  // namespace fabsim::ib
