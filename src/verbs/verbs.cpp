#include "verbs/verbs.hpp"

#include <stdexcept>
#include <string>
#include <typeinfo>

namespace fabsim::verbs {

namespace {

/// Stream bytes an RDMA Read Request control message occupies.
constexpr std::uint32_t kReadRequestBytes = 28;

/// Completion type of a send-side work request carried as `kind`.
Completion::Type send_type(MsgKind kind) {
  if (kind == MsgKind::kUntagged) return Completion::Type::kSend;
  if (kind == MsgKind::kTaggedWrite) return Completion::Type::kRdmaWrite;
  return Completion::Type::kRdmaRead;
}

}  // namespace

Task<Completion> next_completion(CompletionQueue& cq, hw::HostCpu& cpu, Time poll_cost) {
  for (;;) {
    if (auto completion = cq.poll()) {
      co_await cpu.compute(poll_cost);
      co_return *completion;
    }
    co_await cq.notifier().wait();
  }
}

MsgHeader chunk_header(const Message& msg, std::uint64_t msg_id, std::uint32_t offset,
                       std::uint32_t len, int dst_conn_id) {
  MsgHeader chunk{};
  chunk.dst_conn_id = dst_conn_id;
  chunk.kind = msg.kind;
  chunk.msg_id = msg_id;
  chunk.msg_len = msg.len;
  chunk.msg_offset = offset;
  chunk.payload_len = len;
  chunk.rkey = msg.rkey;
  chunk.wr_id = msg.wr_id;
  chunk.signaled = msg.signaled;
  chunk.first_of_message = (offset == 0);
  chunk.last_of_message = (offset + len == msg.len);
  chunk.read_sink_addr = msg.read_sink_addr;
  chunk.read_sink_key = msg.read_sink_key;
  chunk.read_len = msg.read_len;
  if (msg.kind == MsgKind::kTaggedWrite || msg.kind == MsgKind::kReadResponse) {
    chunk.place_addr = msg.remote_addr + offset;
  } else if (msg.kind == MsgKind::kReadRequest) {
    chunk.place_addr = msg.remote_addr;  // remote source
  }
  chunk.data = msg.data;
  return chunk;
}

void Conn::track_read(const Message& request) {
  // HOT-OK(pending-read list bounded by outstanding RDMA reads)
  pending_reads.push_back(PendingRead{request.wr_id, request.read_len, request.signaled});
}

void Conn::retire_read(std::uint64_t wr_id) {
  for (auto it = pending_reads.begin(); it != pending_reads.end(); ++it) {
    if (it->wr_id == wr_id) {
      pending_reads.erase(it);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Verbs surface
// ---------------------------------------------------------------------------

Task<> QueuePair::post_send(SendWr wr) { return device_->post_send(*this, wr); }

Task<> QueuePair::post_recv(RecvWr wr) { return device_->post_recv(*this, wr); }

Device::Device(const char* name, hw::Node& node, hw::Switch& fabric, hw::RegistrationConfig reg,
               Time post_send_cpu, Time post_recv_cpu)
    : node_(&node),
      fabric_(&fabric),
      port_(fabric.attach(*this)),
      name_(name),
      post_send_cpu_(post_send_cpu),
      post_recv_cpu_(post_recv_cpu),
      registry_(reg) {}

Task<MrKey> Device::reg_mr(std::uint64_t addr, std::uint64_t len) {
  co_await node_->cpu().compute(registry_.register_cost(len));
  co_return registry_.register_region(addr, len);
}

Task<> Device::dereg_mr(MrKey key) {
  const auto* region = registry_.lookup(key);
  if (region == nullptr) {
    throw std::invalid_argument(std::string(name_) + ": dereg_mr of unknown key");
  }
  const Time cost = registry_.deregister_cost(region->len);
  registry_.deregister(key);
  co_await node_->cpu().compute(cost);
}

std::unique_ptr<QueuePair> Device::create_qp(CompletionQueue& send_cq, CompletionQueue& recv_cq) {
  return std::unique_ptr<QueuePair>(new QueuePair(*this, next_qp_num_++, send_cq, recv_cq));
}

std::shared_ptr<Event> Device::watch_placement(std::uint64_t addr, std::uint64_t len) {
  auto event = std::make_shared<Event>(engine());
  watches_.push_back(Watch{addr, len, event});
  return event;
}

void Device::connect(QueuePair& a, QueuePair& b) {
  // Both ends must speak the same transport: a TCP stream cannot peer
  // with an RC PSN machine.
  if (typeid(*a.device_) != typeid(*b.device_)) {
    throw std::invalid_argument(std::string(a.device_->name_) + ": cannot connect to a " +
                                b.device_->name_ + " QP");
  }
  if (a.connected() || b.connected()) {
    throw std::logic_error(std::string(a.device_->name_) + ": QP already connected");
  }
  Conn& conn_a = a.device_->new_conn(a);
  Conn& conn_b = b.device_->new_conn(b);
  conn_a.peer = b.device_;
  conn_a.peer_conn_id = conn_b.id;
  conn_b.peer = a.device_;
  conn_b.peer_conn_id = conn_a.id;
  a.conn_id_ = conn_a.id;
  b.conn_id_ = conn_b.id;
}

Conn& Device::new_conn(QueuePair& qp) {
  conns_.push_back(make_conn());
  Conn& conn = *conns_.back();
  conn.qp = &qp;
  conn.id = static_cast<int>(conns_.size()) - 1;
  return conn;
}

// ---------------------------------------------------------------------------
// Host-facing post paths
// ---------------------------------------------------------------------------

Task<> Device::post_send(QueuePair& qp, SendWr wr) {
  if (!qp.connected()) {
    throw std::logic_error(std::string(name_) + ": post_send on unconnected QP");
  }
  if (qp.in_error_) {
    throw std::runtime_error(std::string(name_) + ": post_send on QP in error state");
  }
  if (wr.sge.length == 0) {
    throw std::invalid_argument(std::string(name_) + ": zero-length work request");
  }
  if (!registry_.covers(wr.sge.lkey, wr.sge.addr, wr.sge.length)) {
    throw std::invalid_argument(std::string(name_) + ": sge not covered by lkey");
  }
  co_await node_->cpu().compute(post_send_cpu_);

  Message msg{};
  msg.wr_id = wr.wr_id;
  msg.signaled = wr.signaled;
  switch (wr.opcode) {
    case Opcode::kSend:
      msg.kind = MsgKind::kUntagged;
      msg.len = wr.sge.length;
      break;
    case Opcode::kRdmaWrite:
      msg.kind = MsgKind::kTaggedWrite;
      msg.len = wr.sge.length;
      msg.remote_addr = wr.remote_addr;
      msg.rkey = wr.rkey;
      break;
    case Opcode::kRdmaRead:
      msg.kind = MsgKind::kReadRequest;
      msg.len = kReadRequestBytes;
      msg.remote_addr = wr.remote_addr;  // remote source
      msg.rkey = wr.rkey;
      msg.read_sink_addr = wr.sge.addr;  // local sink
      msg.read_sink_key = wr.sge.lkey;
      msg.read_len = wr.sge.length;
      break;
  }
  if (wr.opcode != Opcode::kRdmaRead) msg.data = node_->mem().snapshot(wr.sge.addr, wr.sge.length);
  submit(*conns_[static_cast<std::size_t>(qp.conn_id_)], std::move(msg));
}

Task<> Device::post_recv(QueuePair& qp, RecvWr wr) {
  if (!qp.connected()) {
    throw std::logic_error(std::string(name_) + ": post_recv on unconnected QP");
  }
  if (qp.in_error_) {
    throw std::runtime_error(std::string(name_) + ": post_recv on QP in error state");
  }
  if (!registry_.covers(wr.sge.lkey, wr.sge.addr, wr.sge.length)) {
    throw std::invalid_argument(std::string(name_) + ": recv sge not covered by lkey");
  }
  co_await node_->cpu().compute(post_recv_cpu_);
  conns_[static_cast<std::size_t>(qp.conn_id_)]->recv_queue.push_back(wr);
}

// ---------------------------------------------------------------------------
// Receive side: placement and completion
// ---------------------------------------------------------------------------

RxMsg* Device::place(Conn& conn, const MsgHeader& chunk) {
  RxMsg& rx = conn.rx_msgs[chunk.msg_id];

  std::uint64_t addr = 0;
  if (chunk.kind == MsgKind::kUntagged) {
    if (chunk.msg_offset == 0) {
      if (conn.recv_queue.empty()) {
        // HOT-OK(protocol-violation guard; unreachable in a conforming run)
        throw std::logic_error(std::string(name_) + ": untagged message with no posted receive");
      }
      const RecvWr wr = conn.recv_queue.front();
      conn.recv_queue.pop_front();
      if (wr.sge.length < chunk.msg_len) {
        // HOT-OK(protocol-violation guard; unreachable in a conforming run)
        throw std::length_error(std::string(name_) + ": posted receive buffer too small");
      }
      rx.target_addr = wr.sge.addr;
      rx.recv_wr_id = wr.wr_id;
    }
    addr = rx.target_addr + chunk.msg_offset;
  } else {  // tagged: kTaggedWrite or kReadResponse
    if (!registry_.covers(chunk.rkey, chunk.place_addr, chunk.payload_len)) {
      // HOT-OK(protocol-violation guard; unreachable in a conforming run)
      throw std::invalid_argument(std::string(name_) + ": tagged placement not covered by rkey");
    }
    addr = chunk.place_addr;
    if (chunk.msg_offset == 0) rx.target_addr = chunk.place_addr;
  }

  if (chunk.data != nullptr) {
    node_->mem().write(addr, chunk.payload());
  } else if (hw::Buffer* buffer = node_->mem().find(addr);
             buffer == nullptr || addr + chunk.payload_len > buffer->addr() + buffer->size()) {
    // HOT-OK(protocol-violation guard; unreachable in a conforming run)
    throw std::out_of_range(std::string(name_) + ": placement outside any buffer");
  }

  rx.placed += chunk.payload_len;
  return rx.placed < chunk.msg_len ? nullptr : &rx;
}

void Device::complete_message(Conn& conn, const MsgHeader& chunk, const RxMsg& rx) {
  const std::uint64_t base = rx.target_addr;
  const std::uint64_t recv_wr_id = rx.recv_wr_id;
  conn.rx_msgs.erase(chunk.msg_id);
  switch (chunk.kind) {
    case MsgKind::kUntagged:
      conn.qp->recv_cq_->push(
          Completion{recv_wr_id, Completion::Type::kRecv, chunk.msg_len, conn.qp->qp_num_});
      break;
    case MsgKind::kReadResponse:
      conn.qp->send_cq_->push(
          Completion{chunk.wr_id, Completion::Type::kRdmaRead, chunk.msg_len, conn.qp->qp_num_});
      conn.retire_read(chunk.wr_id);
      check_watches(base, chunk.msg_len);
      break;
    case MsgKind::kTaggedWrite:
      check_watches(base, chunk.msg_len);
      break;
    case MsgKind::kReadRequest:
      break;  // answered by read_response
  }
}

void Device::check_watches(std::uint64_t addr, std::uint32_t len) {
  for (auto it = watches_.begin(); it != watches_.end();) {
    if (it->addr >= addr && it->addr + it->len <= addr + len) {
      it->event->trigger();
      it = watches_.erase(it);
    } else {
      ++it;
    }
  }
}

Message Device::read_response(const MsgHeader& request) {
  if (!registry_.covers(request.rkey, request.place_addr, request.read_len)) {
    // HOT-OK(protocol-violation guard; unreachable in a conforming run)
    throw std::invalid_argument(std::string(name_) + ": RDMA read source not covered by rkey");
  }
  Message response{};
  response.kind = MsgKind::kReadResponse;
  response.wr_id = request.wr_id;
  response.signaled = true;
  response.len = request.read_len;
  response.remote_addr = request.read_sink_addr;
  response.rkey = request.read_sink_key;
  response.data = node_->mem().snapshot(request.place_addr, request.read_len);
  return response;
}

// ---------------------------------------------------------------------------
// Send completions and the error flush
// ---------------------------------------------------------------------------

void Device::complete_send(QueuePair& qp, const MsgHeader& chunk) {
  qp.send_cq_->push(Completion{chunk.wr_id, send_type(chunk.kind), chunk.msg_len, qp.qp_num_});
}

void Device::flush_send(QueuePair& qp, MsgKind kind, std::uint64_t wr_id, std::uint32_t len) {
  qp.send_cq_->push(Completion{wr_id, send_type(kind), len, qp.qp_num_,
                               Completion::Status::kRetryExceeded});
  ++retry_exceeded_completions_;
}

void Device::flush_reads(Conn& conn) {
  for (const PendingRead& read : conn.pending_reads) {
    if (!read.signaled) continue;
    flush_send(*conn.qp, MsgKind::kReadRequest, read.wr_id, read.len);
  }
  conn.pending_reads.clear();
}

void Device::flush_recvs(Conn& conn) {
  // The RQ drains with flush errors when a QP enters the error state — a
  // receiver blocked on its recv CQ surfaces the failure instead of
  // hanging on data that will never arrive.
  for (const RecvWr& wr : conn.recv_queue) {
    conn.qp->recv_cq_->push(Completion{wr.wr_id, Completion::Type::kRecv, 0, conn.qp->qp_num_,
                                       Completion::Status::kRetryExceeded});
    ++retry_exceeded_completions_;
  }
  conn.recv_queue.clear();
}

}  // namespace fabsim::verbs
