// Host-based TCP sockets over plain 10GbE — the baseline iWARP exists to
// beat, and one of the paper's named future-work items ("we intend to
// extend our study to include udapl, sockets, ...").
//
// Unlike the iWARP RNIC (full protocol offload, zero copy), this stack
// charges everything to the host CPU: the send syscall plus a user->
// kernel copy, per-segment protocol processing on both sides (checksum,
// header handling, interrupt + softirq on receive), and a kernel->user
// copy at recv. The NIC is dumb: it only serializes frames onto the
// wire. The fabric is lossless in these experiments, so reliability
// machinery is omitted (the iWARP stack models loss + go-back-N where
// that matters).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "hw/fabric.hpp"
#include "hw/node.hpp"
#include "sim/scope.hpp"
#include "sim/sync.hpp"

namespace fabsim::sockets {

struct TcpConfig {
  std::uint32_t mss = 1448;
  std::uint32_t seg_overhead = 78;  ///< Ethernet + IP + TCP headers, preamble, IFG
  Time syscall = us(1.5);           ///< send()/recv() entry/exit, kernel 2.6 class
  Time tx_segment_cpu = us(1.5);    ///< per-segment transmit-side stack work
  Time rx_segment_cpu = us(2.2);    ///< interrupt + softirq + TCP receive per segment
  /// Interrupt -> scheduler -> process wakeup latency, paid whenever a
  /// blocked recv() is woken (streaming receivers that find data ready
  /// skip it — that is what interrupt coalescing buys).
  Time wakeup = us(14.0);
  /// Socket-buffer copies use the node's memcpy model on top of these.
};

class HostTcp;

/// One endpoint of an established connection.
class Socket {
 public:
  /// Blocking send of [addr, addr+len): returns once the payload has been
  /// copied into the kernel and handed to the NIC (standard semantics).
  Task<> send(std::uint64_t addr, std::uint32_t len);

  /// Blocking receive of up to `capacity` bytes into [addr, ...); returns
  /// the number of bytes delivered (at least 1).
  Task<std::uint32_t> recv(std::uint64_t addr, std::uint32_t capacity);

  /// Bytes currently buffered in the kernel, readable without blocking.
  std::uint32_t available() const;

 private:
  friend class HostTcp;
  Socket(HostTcp& stack, int conn_id) : stack_(&stack), conn_id_(conn_id) {}
  HostTcp* stack_;
  int conn_id_;
};

class HostTcp final : public hw::FrameSink {
 public:
  HostTcp(hw::Node& node, hw::Switch& fabric, TcpConfig config = {});

  /// Out-of-band connection establishment between two stacks.
  static std::pair<std::unique_ptr<Socket>, std::unique_ptr<Socket>> connect(HostTcp& a,
                                                                             HostTcp& b);

  // --- hw::FrameSink ---
  void deliver(hw::Frame frame) override;

  hw::Node& node() { return *node_; }
  int fabric_port() const { return port_; }
  std::uint64_t segments_sent() const { return segments_sent_; }

 private:
  friend class Socket;

  struct Segment {
    int dst_conn_id = -1;
    std::uint32_t offset = 0;  ///< of this segment's bytes in the send call's payload
    std::uint32_t payload_len = 0;
    /// The send call's snapshot, shared by all of its segments; null for a
    /// size-only source.
    std::shared_ptr<const std::vector<std::byte>> data;
  };

  struct Conn {
    HostTcp* peer = nullptr;
    int peer_conn_id = -1;
    // Receive-side kernel socket buffer.
    std::deque<std::byte> rx_buffer;
    std::uint64_t rx_bytes_total = 0;  ///< counts even for size-only payloads
    std::uint64_t rx_consumed = 0;
    std::unique_ptr<Notifier> readable;
  };

  Task<> send_impl(int conn_id, std::uint64_t addr, std::uint32_t len);
  Task<std::uint32_t> recv_impl(int conn_id, std::uint64_t addr, std::uint32_t capacity);

  Engine& engine() { return node_->engine(); }

  // Scope/ownership annotations (scripts/scope_check.py, src/sim/scope.hpp).
  FABSIM_ENGINE_LOCAL;  // engine plumbing + run-constant wiring
  hw::Node* node_;
  hw::Switch* fabric_;
  TcpConfig config_;
  int port_;
  FABSIM_OWNED_BY(port_);  // kernel socket state: confined to this node's
                           // events (or scope -1 wire handoffs)
  SerialServer tx_link_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t segments_sent_ = 0;
};

}  // namespace fabsim::sockets
