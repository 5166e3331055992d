#include "iwarp/rnic.hpp"

#include <algorithm>
#include <string>

#include "check/audits.hpp"

namespace fabsim::iwarp {

// ---------------------------------------------------------------------------
// Construction / doorbell
// ---------------------------------------------------------------------------

Rnic::Rnic(hw::Node& node, hw::Switch& fabric, RnicConfig config)
    : verbs::Device("iwarp", node, fabric, config.reg, config.post_send_cpu,
                    config.post_recv_cpu),
      config_(config),
      pcix_(config.pcix) {
  pcix_.set_owner(&node.engine());
}

void Rnic::submit(verbs::Conn& posted, verbs::Message msg) {
  const int conn_id = posted.id;
  // Doorbell: the NIC picks the WQE up `doorbell` later; the host call
  // returns immediately after ringing it.
  // Scope label: node-confined continuation (see sim/schedule.hpp); the
  // wire handoffs below stay unscoped because they touch the switch.
  engine().post(engine().now() + config_.doorbell, /*scope=*/port_,
                [this, conn_id, msg = std::move(msg)]() mutable {
                  Conn& conn = conn_at(conn_id);
                  OutMsg out{std::move(msg)};
                  if (conn.qp->in_error()) {
                    // Raced the error transition: flush instead of queueing.
                    flush_outmsg(conn, out);
                    return;
                  }
                  out.msg_id = conn.next_msg_id++;
                  if (out.kind == MsgKind::kReadRequest) conn.track_read(out);
                  // HOT-OK(send queue bounded by posted WRs; capacity reused after warm-up)
                  conn.sendq.push_back(std::move(out));
                  pump(conn);
                });
}

// ---------------------------------------------------------------------------
// Transmit path
// ---------------------------------------------------------------------------

void Rnic::pump(Conn& conn) {
  // Scope trap: all transmit-side NIC state is FABSIM_OWNED_BY(port_).
  FABSIM_AUDIT_OWNED(engine(), check::Layer::kIwarp, port_, "Rnic::pump");
  if (conn.qp->in_error()) return;
  while (!conn.sendq.empty()) {
    OutMsg& msg = conn.sendq.front();
    while (msg.offset < msg.len) {
      const std::uint32_t chunk = std::min<std::uint32_t>(config_.mss, msg.len - msg.offset);
      if (conn.tx.next() - conn.snd_una + chunk > config_.window) return;  // window closed
      emit_segment(conn, msg, chunk);
    }
    conn.sendq.pop_front();
  }
}

FABSIM_HOT void Rnic::emit_segment(Conn& conn, OutMsg& msg, std::uint32_t chunk) {
  Segment segment{verbs::chunk_header(msg, msg.msg_id, msg.offset, chunk, conn.peer_conn_id)};
  segment.ack = conn.rx.expected();  // piggybacked cumulative ack
  if (check::InvariantMonitor* monitor = engine().monitor()) {
    // TCP window legality: pump() already refused segments that do not
    // fit, so an overrun here means the sliding-window bookkeeping broke.
    check::audit_iwarp_window(conn.tx.next(), conn.snd_una, chunk, config_.window)
        .report(monitor, engine().now(), check::Layer::kIwarp, node_->id());
  }
  msg.offset += chunk;
  segment.seq = conn.tx.stamp(chunk);
  if (fabric_->can_lose()) {
    // Keep a copy for go-back-N only while the fabric can lose it.
    conn.tx.hold(segment, segment.seq)
        .report(engine().monitor(), engine().now(), check::Layer::kIwarp, node_->id());
  }
  transmit(conn, std::move(segment), /*retransmit=*/false);
  arm_timer(conn);
}

namespace {
const char* kind_name(int k) {
  switch (k) {
    case 0: return "untagged";
    case 1: return "tagged-write";
    case 2: return "read-req";
    case 3: return "read-resp";
  }
  return "?";
}
}  // namespace

void Rnic::transmit(Conn& conn, Segment segment, bool retransmit) {
  ++segments_sent_;
  if (retransmit) {
    ++retransmits_;
    retransmitted_bytes_ += segment.payload_len;
  }
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return std::string(retransmit ? "TCP retransmit " : "TCP segment ") +
           kind_name(static_cast<int>(segment.kind)) + " seq=" + std::to_string(segment.seq) +
           " len=" + std::to_string(segment.payload_len) +
           (segment.last_of_message ? " [last]" : "");
  });

  const bool carries_data =
      segment.kind == MsgKind::kUntagged || segment.kind == MsgKind::kTaggedWrite ||
      segment.kind == MsgKind::kReadResponse;

  // Stage 1: fetch payload (and descriptor, for the first segment of a
  // message) from host memory across PCIe and the internal PCI-X bus.
  // Read responses are fetched by the NIC autonomously — same path.
  Time ready = engine().now();
  if (segment.first_of_message && !retransmit) ready += config_.wqe_fetch;
  if (carries_data) {
    const Time pcie_done = node_->pcie().dma_read(ready, segment.payload_len + 64);
    ready = pcix_.transfer(pcie_done, segment.payload_len + 32);
  }

  // Stage 2: protocol engine (TCP/IP + MPA + DDP + RDMAP processing).
  const Time occupancy = config_.tx_occupancy +
                         config_.engine_byte_rate.bytes_time(segment.payload_len) +
                         (segment.first_of_message ? config_.per_message_overhead : 0);
  engine().charge_phase(Phase::kNic, occupancy);
  const Time engine_done = tx_engine_.book(ready, occupancy, config_.tx_latency);

  // Stage 3: Ethernet serialization onto the NIC->switch link.
  const std::uint32_t wire_bytes = segment.payload_len + config_.seg_overhead;
  const Time serialization = fabric_->config().link_rate.bytes_time(wire_bytes);
  engine().charge_phase(Phase::kWire, serialization);
  const Time sent = tx_link_.book(engine_done, serialization);

  const int src = port_;
  const int dst = conn.peer->fabric_port();
  const bool completes = segment.completes_send() && !retransmit;
  verbs::QueuePair* qp = conn.qp;
  engine().post(sent, [this, segment = std::move(segment), completes, qp, src, dst]() mutable {
    if (completes) complete_send(*qp, segment);
    fabric_->ingress(
        hw::Frame{src, dst, segment.payload_len + config_.seg_overhead, std::move(segment)});
  });
}

void Rnic::send_pure_ack(Conn& conn) {
  ++acks_sent_;
  conn.rx.acked();
  Segment ack{};
  ack.dst_conn_id = conn.peer_conn_id;
  ack.payload_len = 0;
  ack.ack = conn.rx.expected();
  const Time ack_serialization = fabric_->config().link_rate.bytes_time(config_.ack_wire_bytes);
  engine().charge_phase(Phase::kWire, ack_serialization);
  const Time sent = tx_link_.book(engine().now(), ack_serialization);
  const int src = port_;
  const int dst = conn.peer->fabric_port();
  engine().post(sent, [this, ack = std::move(ack), src, dst]() mutable {
    fabric_->ingress(hw::Frame{src, dst, config_.ack_wire_bytes, std::move(ack)});
  });
}

// ---------------------------------------------------------------------------
// Reliability: cumulative acks + go-back-N
// ---------------------------------------------------------------------------

void Rnic::handle_ack(Conn& conn, std::uint64_t ack) {
  if (check::InvariantMonitor* monitor = engine().monitor()) {
    // Byte-stream conservation: a cumulative ack beyond snd_nxt would
    // acknowledge bytes that were never put on the stream.
    check::audit_ack_window(ack, conn.tx.next())
        .report(monitor, engine().now(), check::Layer::kIwarp, node_->id());
  }
  if (ack <= conn.snd_una) return;
  conn.snd_una = ack;
  conn.tx.release(ack);
  conn.tx.cancel();  // the running timer covers a freed head of line
  if (!conn.tx.empty()) arm_timer(conn);
  pump(conn);  // window may have opened
}

void Rnic::arm_timer(Conn& conn) {
  // Timers only matter while the fabric can lose a frame.
  if (!fabric_->can_lose() || !conn.tx.arm()) return;
  const std::uint64_t gen = conn.tx.generation();
  const int conn_id = conn.id;
  engine().post(engine().now() + conn.tx.timeout(config_.rto, /*backoff_cap=*/0),
                /*scope=*/port_, [this, conn_id, gen] { on_timeout(conn_id, gen); });
}

void Rnic::on_timeout(int conn_id, std::uint64_t gen) {
  FABSIM_AUDIT_OWNED(engine(), check::Layer::kIwarp, port_, "Rnic::on_timeout");
  Conn& conn = conn_at(conn_id);
  if (!conn.tx.is_current(gen)) return;  // superseded
  conn.tx.cancel();
  if (conn.tx.empty()) return;
  ++rto_fires_;
  const int retry = conn.tx.count_retry();
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "TCP RTO fired: go-back-N from seq=" + std::to_string(conn.snd_una) + " (retry " +
           std::to_string(retry) + "/" + std::to_string(config_.retry_limit) + ")";
  });
  if (retry > config_.retry_limit) {
    // TCP gives up: the connection resets instead of retrying forever —
    // a fabric partition must surface as an error, not a hang.
    enter_error(conn);
    return;
  }
  // Go-back-N: resend everything outstanding.
  for (std::size_t i = 0; i < conn.tx.size(); ++i) {
    Segment copy = conn.tx[i];
    copy.ack = conn.rx.expected();
    transmit(conn, std::move(copy), /*retransmit=*/true);
  }
  arm_timer(conn);
}

void Rnic::flush_outmsg(Conn& conn, const OutMsg& msg) {
  // A read response is responder-generated: the requester's side owns
  // the error.
  if (!msg.signaled || msg.kind == MsgKind::kReadResponse) return;
  const bool read = msg.kind == MsgKind::kReadRequest;
  flush_send(*conn.qp, msg.kind, msg.wr_id, read ? msg.read_len : msg.len);
}

void Rnic::enter_error(Conn& conn) {
  if (conn.qp->in_error()) return;
  set_error(*conn.qp);
  conn.tx.cancel();
  ++conn_errors_;
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "TCP retry limit exhausted: QP " + std::to_string(conn.qp->qp_num()) +
           " connection reset -> error state";
  });
  // Sends and writes complete optimistically at first wire handoff, so
  // only messages whose final segment never left (still in the sendq)
  // owe a completion. Read requests are owned by the pending-read list;
  // drop their sendq duplicates first so they flush exactly once.
  for (const OutMsg& msg : conn.sendq) {
    if (msg.kind == MsgKind::kReadRequest) conn.retire_read(msg.wr_id);
    flush_outmsg(conn, msg);
  }
  conn.sendq.clear();
  conn.tx.clear();
  // Reads whose request is already on the wire (or acked) but whose
  // response will never arrive, then the posted receives.
  flush_reads(conn);
  flush_recvs(conn);
  // Out-of-band peer notification: stands in for the RST the peer's TCP
  // would see (or its own retry exhaustion) — both sides observe the
  // teardown, neither hangs. connect() pairs only devices of one type.
  if (conn.peer != nullptr) static_cast<Rnic*>(conn.peer)->peer_conn_error(conn.peer_conn_id);
}

void Rnic::peer_conn_error(int conn_id) {
  Conn& conn = conn_at(conn_id);
  if (conn.qp->in_error()) return;
  engine().trace(TraceCategory::kProto, node_->id(), [&] {
    return "TCP peer failure: QP " + std::to_string(conn.qp->qp_num()) +
           " -> error state (connection reset by peer)";
  });
  enter_error(conn);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void Rnic::deliver(hw::Frame frame) {
  // Scope trap: delivery mutates this NIC's receive state, so the
  // carrying event must be labelled with this node's scope (or -1).
  FABSIM_AUDIT_OWNED(engine(), check::Layer::kIwarp, port_, "Rnic::deliver");
  if (frame.corrupted) {
    // Failed Ethernet CRC / MPA marker check: the segment is discarded and
    // the TCP go-back-N machinery recovers it like any other loss.
    ++corrupt_discards_;
    return;
  }
  Segment segment = std::any_cast<Segment>(std::move(frame.payload));
  Conn& conn = conn_at(segment.dst_conn_id);
  if (conn.qp->in_error()) return;  // dead connection: late arrivals discarded

  handle_ack(conn, segment.ack);
  if (segment.payload_len == 0) {
    // Pure ack: account engine occupancy for throughput fidelity only.
    engine().charge_phase(Phase::kNic, config_.ack_occupancy);
    rx_engine_.book(engine().now(), config_.ack_occupancy, config_.ack_occupancy);
    return;
  }

  using Arrival = fault::InOrderReceiver::Arrival;
  if (conn.rx.accept(segment.seq, segment.payload_len) != Arrival::kInOrder) {
    // Out of order (a preceding frame was dropped, or a resend raced an
    // ack): go-back-N receiver drops the segment and re-asserts the
    // cumulative ack.
    send_pure_ack(conn);
    return;
  }

  const Time occupancy = config_.rx_occupancy +
                         config_.engine_byte_rate.bytes_time(segment.payload_len) +
                         (segment.first_of_message ? config_.per_message_overhead : 0);
  engine().charge_phase(Phase::kNic, occupancy);
  const Time engine_done = rx_engine_.book(engine().now(), occupancy, config_.rx_latency);

  if (conn.rx.ack_due(segment.last_of_message, config_.ack_every)) {
    send_pure_ack(conn);
  } else if (!conn.delack_armed) {
    // Classic delayed-ACK timer: the withheld ack goes out soon even if
    // no further segment arrives (otherwise a sender whose window closed
    // mid-quota would stall forever).
    conn.delack_armed = true;
    const int conn_id = segment.dst_conn_id;
    engine().post(engine().now() + config_.delayed_ack_timeout, /*scope=*/port_, [this, conn_id] {
      Conn& c = conn_at(conn_id);
      c.delack_armed = false;
      if (c.rx.unacked() > 0) send_pure_ack(c);
    });
  }

  if (segment.kind == MsgKind::kReadRequest) {
    // Read-after-write ordering: ride through the same placement FIFO
    // (PCI-X then PCIe) that earlier tagged writes use, so the snapshot
    // sees every preceding byte of this stream.
    const Time pcix_done = pcix_.transfer(engine_done, 8);
    const Time ordered = node_->pcie().dma_write(pcix_done, 8);
    const int conn_id = segment.dst_conn_id;
    engine().post(ordered, /*scope=*/port_, [this, conn_id, segment = std::move(segment)] {
      handle_read_request(conn_at(conn_id), segment);
    });
    return;
  }

  // Direct data placement: engine -> PCI-X -> PCIe write into user memory.
  const Time pcix_done = pcix_.transfer(engine_done, segment.payload_len + 32);
  const Time placed = node_->pcie().dma_write(pcix_done, segment.payload_len + 64);
  const int conn_id = segment.dst_conn_id;
  engine().post(placed, /*scope=*/port_, [this, conn_id, segment = std::move(segment)]() mutable {
    complete_placement(conn_at(conn_id), segment);
  });
}

void Rnic::handle_read_request(Conn& conn, const Segment& request) {
  if (conn.qp->in_error()) return;
  OutMsg response{read_response(request)};
  response.msg_id = conn.next_msg_id++;
  // HOT-OK(read-response send queue bounded by outstanding reads)
  conn.sendq.push_back(std::move(response));
  pump(conn);
}

void Rnic::complete_placement(Conn& conn, const Segment& segment) {
  if (conn.qp->in_error()) return;
  if (check::InvariantMonitor* monitor = engine().monitor()) {
    audit_placement(*monitor, conn, segment);
  }
  const verbs::RxMsg* rx = place(conn, segment);
  if (rx == nullptr) return;
  engine().trace(TraceCategory::kNic, node_->id(), [&] {
    return std::string("DDP placement complete: ") + kind_name(static_cast<int>(segment.kind)) +
           " " + std::to_string(segment.msg_len) + "B at 0x" + std::to_string(rx->target_addr);
  });
  complete_message(conn, segment, *rx);
}

void Rnic::audit_placement(check::InvariantMonitor& monitor, Conn& conn, const Segment& segment) {
  if (segment.kind == MsgKind::kUntagged) {
    // DDP untagged delivery rides the in-order TCP stream, so segments
    // of one message must arrive in offset order.
    check::audit_iwarp_untagged_inorder(segment.msg_offset, conn.rx_msgs[segment.msg_id].placed,
                                        segment.msg_id)
        .report(&monitor, engine().now(), check::Layer::kIwarp, node_->id());
  } else if (!registry().covers(segment.rkey, segment.place_addr, segment.payload_len)) {
    monitor.report(engine().now(), check::Layer::kIwarp, node_->id(), "tagged_bounds",
                   "tagged placement at 0x" + std::to_string(segment.place_addr) + " +" +
                       std::to_string(segment.payload_len) + "B not covered by rkey " +
                       std::to_string(segment.rkey));
  }
}

}  // namespace fabsim::iwarp
