#include "sockets/host_tcp.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace fabsim::sockets {

Task<> Socket::send(std::uint64_t addr, std::uint32_t len) {
  return stack_->send_impl(conn_id_, addr, len);
}

Task<std::uint32_t> Socket::recv(std::uint64_t addr, std::uint32_t capacity) {
  return stack_->recv_impl(conn_id_, addr, capacity);
}

std::uint32_t Socket::available() const {
  const auto& conn = *stack_->conns_.at(static_cast<std::size_t>(conn_id_));
  return static_cast<std::uint32_t>(conn.rx_bytes_total - conn.rx_consumed);
}

HostTcp::HostTcp(hw::Node& node, hw::Switch& fabric, TcpConfig config)
    : node_(&node), fabric_(&fabric), config_(config), port_(fabric.attach(*this)) {}

std::pair<std::unique_ptr<Socket>, std::unique_ptr<Socket>> HostTcp::connect(HostTcp& a,
                                                                             HostTcp& b) {
  a.conns_.push_back(std::make_unique<Conn>());
  b.conns_.push_back(std::make_unique<Conn>());
  const int ca = static_cast<int>(a.conns_.size()) - 1;
  const int cb = static_cast<int>(b.conns_.size()) - 1;
  a.conns_.back()->peer = &b;
  a.conns_.back()->peer_conn_id = cb;
  a.conns_.back()->readable = std::make_unique<Notifier>(a.engine());
  b.conns_.back()->peer = &a;
  b.conns_.back()->peer_conn_id = ca;
  b.conns_.back()->readable = std::make_unique<Notifier>(b.engine());
  return {std::unique_ptr<Socket>(new Socket(a, ca)), std::unique_ptr<Socket>(new Socket(b, cb))};
}

Task<> HostTcp::send_impl(int conn_id, std::uint64_t addr, std::uint32_t len) {
  if (len == 0) throw std::invalid_argument("sockets: zero-length send");
  Conn& conn = *conns_.at(static_cast<std::size_t>(conn_id));

  // Syscall entry + user->kernel copy.
  co_await node_->cpu().compute(config_.syscall);
  co_await node_->cpu().copy(addr, len);

  // Grab the payload bytes (if the buffer carries data).
  const std::shared_ptr<const std::vector<std::byte>> data = node_->mem().snapshot(addr, len);

  // Kernel transmit path: per-segment stack work on this CPU, then the
  // NIC serializes each frame onto the wire.
  std::uint32_t offset = 0;
  while (offset < len) {
    const std::uint32_t chunk = std::min(config_.mss, len - offset);
    const Time stack_done = node_->cpu().charge(engine().now(), config_.tx_segment_cpu);
    const Time sent = tx_link_.book(
        stack_done, fabric_->config().link_rate.bytes_time(chunk + config_.seg_overhead));
    Segment segment;
    segment.dst_conn_id = conn.peer_conn_id;
    segment.offset = offset;
    segment.payload_len = chunk;
    segment.data = data;
    ++segments_sent_;
    const std::uint32_t wire = chunk + config_.seg_overhead;
    Conn* c = &conn;
    engine().post(sent, [this, segment = std::move(segment), c, wire]() mutable {
      fabric_->ingress(hw::Frame{port_, c->peer->port_, wire, std::move(segment)});
    });
    offset += chunk;
  }
  // The send call returns once the last segment is handed to the kernel
  // transmit queue (which we have just booked).
  co_await engine().yield();
}

void HostTcp::deliver(hw::Frame frame) {
  // Scope trap: delivery mutates this stack's socket state, so the
  // carrying event must carry this node's scope (or -1).
  FABSIM_AUDIT_OWNED(engine(), check::Layer::kSim, port_, "HostTcp::deliver");
  // Failed checksum: the NIC discards the frame before the host ever sees
  // an interrupt (this simplified stack models no retransmission, so the
  // bytes are simply lost — pair it with a fault-free plan or the iWARP
  // stack when loss recovery matters).
  if (frame.corrupted) return;
  Segment segment = std::any_cast<Segment>(std::move(frame.payload));

  // Interrupt + softirq + TCP processing on the host CPU; the payload is
  // readable only after that completes.
  const Time processed = node_->cpu().charge(engine().now(), config_.rx_segment_cpu);
  const int conn_id = segment.dst_conn_id;
  engine().post(processed, /*scope=*/port_, [this, conn_id, segment = std::move(segment)]() mutable {
    Conn& c = *conns_.at(static_cast<std::size_t>(conn_id));
    if (segment.data != nullptr) {
      const auto bytes = std::span(*segment.data).subspan(segment.offset, segment.payload_len);
      // HOT-OK(socket receive ring append, bounded by the receive window)
      c.rx_buffer.insert(c.rx_buffer.end(), bytes.begin(), bytes.end());
    }
    c.rx_bytes_total += segment.payload_len;
    c.readable->notify_all();
  });
}

Task<std::uint32_t> HostTcp::recv_impl(int conn_id, std::uint64_t addr,
                                       std::uint32_t capacity) {
  if (capacity == 0) throw std::invalid_argument("sockets: zero-capacity recv");
  Conn& conn = *conns_.at(static_cast<std::size_t>(conn_id));

  co_await node_->cpu().compute(config_.syscall);
  const bool blocked = conn.rx_bytes_total == conn.rx_consumed;
  while (conn.rx_bytes_total == conn.rx_consumed) {
    co_await conn.readable->wait();
  }
  if (blocked) co_await node_->cpu().compute(config_.wakeup);

  const std::uint32_t available =
      static_cast<std::uint32_t>(conn.rx_bytes_total - conn.rx_consumed);
  const std::uint32_t take = std::min(available, capacity);

  // Kernel->user copy.
  co_await node_->cpu().copy(addr, take);
  if (!conn.rx_buffer.empty()) {
    const std::uint32_t data_take =
        std::min<std::uint32_t>(take, static_cast<std::uint32_t>(conn.rx_buffer.size()));
    std::vector<std::byte> out(conn.rx_buffer.begin(), conn.rx_buffer.begin() + data_take);
    conn.rx_buffer.erase(conn.rx_buffer.begin(), conn.rx_buffer.begin() + data_take);
    node_->mem().write(addr, out);
  }
  conn.rx_consumed += take;
  co_return take;
}

}  // namespace fabsim::sockets
