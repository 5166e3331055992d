// Verbs: queue pairs, completion queues, memory regions, work requests,
// and the message layer both RC transports share.
//
// The iWARP RNIC and the InfiniBand HCA are both a `verbs::Device` — it
// plays the role of the OpenFabrics/Gen2 verbs the paper uses for its
// head-to-head multi-connection comparison (§5.1). The semantics follow
// the two standards' shared core: QP-based, connection-oriented, RDMA
// Write/Read plus two-sided Send/Receive, explicit memory registration.
//
// Everything above the transport is implemented once, here: memory
// registration, QP creation and connection, work-request validation and
// its translation into a message, receive-side placement and
// completion, RDMA Read responses, and the error flush of pending reads
// and posted receives. A transport derives from `Device` and owns what
// the paper's findings rest on: how a message is cut into wire units
// and carried reliably, and the engine and bus models on the way
// (iwarp::Rnic: MPA/DDP over TCP behind PCI-X on a pipelined engine;
// ib::Hca: RC PSNs on a processor-based engine with a QP-context cache).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/fabric.hpp"
#include "hw/memory.hpp"
#include "hw/node.hpp"
#include "sim/engine.hpp"
#include "sim/scope.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace fabsim::verbs {

using MrKey = hw::MemoryRegistry::Key;

enum class Opcode : std::uint8_t { kSend, kRdmaWrite, kRdmaRead };

/// Scatter/gather element (single-element lists are enough for every
/// benchmark in the paper).
struct Sge {
  std::uint64_t addr = 0;
  std::uint32_t length = 0;
  MrKey lkey = 0;
};

struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  Sge sge;
  std::uint64_t remote_addr = 0;  ///< RDMA only
  MrKey rkey = 0;                 ///< RDMA only
  bool signaled = true;
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  Sge sge;
};

struct Completion {
  enum class Type : std::uint8_t { kSend, kRecv, kRdmaWrite, kRdmaRead };
  enum class Status : std::uint8_t {
    kSuccess = 0,
    kRetryExceeded,  ///< transport retry counter exhausted; QP is in error
  };
  std::uint64_t wr_id = 0;
  Type type = Type::kSend;
  std::uint32_t byte_len = 0;
  int qp_num = -1;
  Status status = Status::kSuccess;
};

/// Completion queue: providers push, hosts poll (or block on next()).
class CompletionQueue {
 public:
  explicit CompletionQueue(Engine& engine) : notifier_(engine) {}

  std::optional<Completion> poll() {
    if (entries_.empty()) return std::nullopt;
    Completion completion = entries_.front();
    entries_.pop_front();
    return completion;
  }

  std::size_t depth() const { return entries_.size(); }

  /// Provider side: enqueue a completion and wake blocked pollers.
  void push(Completion completion) {
    entries_.push_back(completion);
    notifier_.notify_all();
  }

  Notifier& notifier() { return notifier_; }

 private:
  std::deque<Completion> entries_;
  Notifier notifier_;
};

/// Block until a completion is available; charges `poll_cost` to the CPU
/// for the successful poll (the spin iterations while waiting overlap the
/// NIC's work and are not charged, matching the paper's polling loops).
Task<Completion> next_completion(CompletionQueue& cq, hw::HostCpu& cpu, Time poll_cost);

// ---------------------------------------------------------------------------
// Messages: what a transport carries
// ---------------------------------------------------------------------------

/// RDMAP message types (iWARP) / RC opcodes (IB): an untagged Send, a
/// tagged RDMA Write, and the two halves of an RDMA Read.
enum class MsgKind : std::uint8_t { kUntagged, kTaggedWrite, kReadRequest, kReadResponse };

/// A message a transport queues for transmission.
struct Message {
  MsgKind kind = MsgKind::kUntagged;
  std::uint64_t wr_id = 0;
  bool signaled = true;
  std::uint32_t len = 0;          ///< bytes the message occupies on the wire
  std::uint64_t remote_addr = 0;  ///< tagged placement target / read source
  MrKey rkey = 0;
  std::uint64_t read_sink_addr = 0;  ///< requester-side sink (read only)
  MrKey read_sink_key = 0;
  std::uint32_t read_len = 0;
  std::shared_ptr<const std::vector<std::byte>> data;  ///< source snapshot, optional
};

/// The message fields every wire unit carries (an iWARP DDP segment, an
/// IB packet): one chunk of one message on one connection.
struct MsgHeader {
  int dst_conn_id = -1;
  MsgKind kind = MsgKind::kUntagged;
  std::uint64_t msg_id = 0;
  std::uint32_t msg_len = 0;
  std::uint32_t msg_offset = 0;
  std::uint32_t payload_len = 0;
  /// Tagged target of this chunk; for a read request, the remote source.
  std::uint64_t place_addr = 0;
  MrKey rkey = 0;
  std::uint64_t wr_id = 0;
  bool signaled = true;
  bool first_of_message = false;
  bool last_of_message = false;
  std::uint64_t read_sink_addr = 0;
  MrKey read_sink_key = 0;
  std::uint32_t read_len = 0;
  /// The whole message's source snapshot, shared by all of its chunks;
  /// null for a size-only source.
  std::shared_ptr<const std::vector<std::byte>> data;

  /// This chunk's bytes: [msg_offset, msg_offset+payload_len) of `data`.
  std::span<const std::byte> payload() const {
    return std::span(*data).subspan(msg_offset, payload_len);
  }

  /// True for the last chunk of a signaled Send or RDMA Write: the chunk
  /// whose delivery completes the work request on the send CQ.
  bool completes_send() const {
    return last_of_message && signaled &&
           (kind == MsgKind::kUntagged || kind == MsgKind::kTaggedWrite);
  }
};

/// Header of the chunk [offset, offset+len) of `msg`, bound for the peer
/// connection `dst_conn_id`.
MsgHeader chunk_header(const Message& msg, std::uint64_t msg_id, std::uint32_t offset,
                       std::uint32_t len, int dst_conn_id);

/// Progress of one inbound message.
struct RxMsg {
  std::uint32_t placed = 0;
  std::uint64_t target_addr = 0;
  std::uint64_t recv_wr_id = 0;  ///< untagged only
};

/// An RDMA Read posted locally whose response has not been fully placed.
/// The request leaves the transport's retransmit state as soon as it is
/// acknowledged, so this list is what lets retry exhaustion flush the
/// read with an error completion instead of letting the requester hang.
struct PendingRead {
  std::uint64_t wr_id = 0;
  std::uint32_t len = 0;
  bool signaled = true;
};

class Device;

// ---------------------------------------------------------------------------
// Queue pairs and connections
// ---------------------------------------------------------------------------

/// A reliable-connection queue pair: one QP <-> one connection of its
/// device.
class QueuePair {
 public:
  QueuePair(const QueuePair&) = delete;  // connections and in-flight events hold its address
  QueuePair& operator=(const QueuePair&) = delete;

  /// Post a send-side work request. Charges host CPU; returns once the
  /// request is handed to the NIC (completion arrives on the send CQ).
  Task<> post_send(SendWr wr);

  /// Post a receive buffer for incoming Send messages.
  Task<> post_recv(RecvWr wr);

  int qp_num() const { return qp_num_; }
  bool connected() const { return conn_id_ >= 0; }

  /// True once the transport has moved this QP to the error state (retry
  /// exhaustion on either side). Further posts are rejected.
  bool in_error() const { return in_error_; }

 private:
  friend class Device;
  QueuePair(Device& device, int qp_num, CompletionQueue& send_cq, CompletionQueue& recv_cq)
      : device_(&device), qp_num_(qp_num), send_cq_(&send_cq), recv_cq_(&recv_cq) {}

  FABSIM_ENGINE_LOCAL;  // wiring fixed at create_qp/connect time
  Device* device_;
  int qp_num_;
  FABSIM_OWNED_BY(device_->fabric_port());  // QP state advances only inside
                                            // the owning device's events
  int conn_id_ = -1;
  bool in_error_ = false;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
};

/// Per-connection message state. A transport derives its connection
/// state (stream or PSN machine, retransmit queue, timers) from it.
struct Conn {
  Conn() = default;
  Conn(const Conn&) = delete;  // lives once, in its device's connection table
  Conn& operator=(const Conn&) = delete;
  virtual ~Conn() = default;

  /// Track a read request from its doorbell until its response completes.
  void track_read(const Message& request);
  /// Drop a read from the pending list (completed, or flushed elsewhere).
  void retire_read(std::uint64_t wr_id);

  FABSIM_ENGINE_LOCAL;  // wiring fixed at connect() time
  QueuePair* qp = nullptr;
  Device* peer = nullptr;
  int id = -1;  ///< own index in the device's connection table
  int peer_conn_id = -1;
  FABSIM_OWNED_BY(qp->device_->fabric_port());  // message state: advances only
                                                // inside the owning device's
                                                // events
  std::uint64_t next_msg_id = 1;
  std::map<std::uint64_t, RxMsg> rx_msgs;
  std::deque<RecvWr> recv_queue;
  std::deque<PendingRead> pending_reads;
};

// ---------------------------------------------------------------------------
// The device: verbs surface plus the shared message layer
// ---------------------------------------------------------------------------

/// A verbs-capable device (RNIC or HCA) attached to one fabric port.
class Device : public hw::FrameSink {
 public:
  Device(const Device&) = delete;  // the switch and in-flight events hold its address
  Device& operator=(const Device&) = delete;

  /// Register [addr, addr+len) for device access. Charges the host CPU
  /// with the (expensive) pinning cost.
  Task<MrKey> reg_mr(std::uint64_t addr, std::uint64_t len);
  Task<> dereg_mr(MrKey key);

  std::unique_ptr<QueuePair> create_qp(CompletionQueue& send_cq, CompletionQueue& recv_cq);

  /// Out-of-band connection establishment between a local QP and a QP of
  /// a peer device of the same technology (instant — the paper
  /// pre-establishes all connections before timing).
  void establish(QueuePair& local, QueuePair& remote) { connect(local, remote); }
  static void connect(QueuePair& a, QueuePair& b);

  /// One-shot event triggered when an inbound RDMA Write (or read
  /// response) covering [addr, addr+len) has been fully placed. This is
  /// how benchmarks emulate the paper's "poll the target buffer"
  /// completion check.
  std::shared_ptr<Event> watch_placement(std::uint64_t addr, std::uint64_t len);

  hw::MemoryRegistry& registry() { return registry_; }
  hw::Node& node() { return *node_; }
  int fabric_port() const { return port_; }

  /// Error completions flushed with kRetryExceeded when a QP entered the
  /// error state.
  std::uint64_t retry_exceeded_completions() const { return retry_exceeded_completions_; }

 protected:
  /// `name` prefixes error messages ("iwarp", "ib"); the CPU costs are
  /// charged by post_send/post_recv.
  Device(const char* name, hw::Node& node, hw::Switch& fabric, hw::RegistrationConfig reg,
         Time post_send_cpu, Time post_recv_cpu);

  // --- Transport hooks ---
  /// A fresh connection of the transport's own type (connect time).
  virtual std::unique_ptr<Conn> make_conn() = 0;
  /// Take a validated send-side message from the host: ring the
  /// doorbell and queue it for transmission.
  virtual void submit(Conn& conn, Message msg) = 0;

  // --- Shared message layer, called by the transports ---
  /// Place one inbound chunk into host memory: the first chunk of a Send
  /// consumes the next posted receive, a tagged chunk must lie inside
  /// its rkey's region. Returns the message's progress when this chunk
  /// completed it (pass it to complete_message), else nullptr.
  RxMsg* place(Conn& conn, const MsgHeader& chunk);
  /// Deliver a fully placed message: push its completion, retire its
  /// pending read, and trigger any placement watch it covers.
  void complete_message(Conn& conn, const MsgHeader& chunk, const RxMsg& rx);
  /// The response a read request asks for, with a snapshot of the source.
  Message read_response(const MsgHeader& request);

  /// Success completion for a Send or RDMA Write handed to the wire (or
  /// acknowledged).
  static void complete_send(QueuePair& qp, const MsgHeader& chunk);
  /// Error completion for a send-side work request that will never
  /// finish.
  void flush_send(QueuePair& qp, MsgKind kind, std::uint64_t wr_id, std::uint32_t len);
  /// Flush the pending reads (flush_reads) or the posted receives
  /// (flush_recvs) with kRetryExceeded once the QP is in the error state.
  void flush_reads(Conn& conn);
  void flush_recvs(Conn& conn);
  static void set_error(QueuePair& qp) { qp.in_error_ = true; }

  Engine& engine() { return node_->engine(); }
  const std::vector<std::unique_ptr<Conn>>& conns() const { return conns_; }

  // Scope/ownership annotations (scripts/scope_check.py, src/sim/scope.hpp).
  FABSIM_ENGINE_LOCAL;  // engine plumbing + run-constant wiring
  hw::Node* node_;
  hw::Switch* fabric_;
  int port_;

 private:
  Task<> post_send(QueuePair& qp, SendWr wr);
  Task<> post_recv(QueuePair& qp, RecvWr wr);
  Conn& new_conn(QueuePair& qp);
  void check_watches(std::uint64_t addr, std::uint32_t len);

  friend class QueuePair;

  struct Watch {
    std::uint64_t addr;
    std::uint64_t len;
    std::shared_ptr<Event> event;
  };

  FABSIM_ENGINE_LOCAL;  // run-constant name and host costs
  const char* name_;
  Time post_send_cpu_;
  Time post_recv_cpu_;
  FABSIM_OWNED_BY(port_);  // verbs state: confined to this node's events
  hw::MemoryRegistry registry_;
  int next_qp_num_ = 1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Watch> watches_;
  std::uint64_t retry_exceeded_completions_ = 0;
};

}  // namespace fabsim::verbs
