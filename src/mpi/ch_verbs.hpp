// MiniMPI channel over verbs (iWARP RNIC or InfiniBand HCA).
//
// Protocols match the MPICH derivatives the paper measures:
//   * eager: the payload travels with its envelope through a pre-posted
//     ring of registered staging buffers (one copy on each side), with
//     credit-based flow control;
//   * rendezvous (> eager_threshold): RTS -> CTS(rkey) -> RDMA Write ->
//     FIN, with real memory registration on both sides through an LRU
//     pin-down cache.
// Matching (posted-receive and unexpected-message queues) runs on the
// host; traversal costs are charged per item inspected — these queues are
// the subject of the paper's §6.5.
//
// Progress is synchronous, MPICH-style: the library only advances inside
// MPI calls. That is what makes the rendezvous receiver overhead jump in
// the LogP experiment (Fig 5) — there is no asynchronous progress thread.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "hw/reg_cache.hpp"
#include "mpi/channel.hpp"
#include "mpi/config.hpp"
#include "sim/scope.hpp"
#include "verbs/verbs.hpp"

namespace fabsim::check {
class InvariantMonitor;
}

namespace fabsim::mpi {

class ChVerbs final : public Channel {
 public:
  ChVerbs(int rank, int world_size, verbs::Device& device, hw::Node& node, Engine& engine,
          MpiConfig config);

  /// Wire a full mesh of QPs and pre-post all eager rings. Must be
  /// awaited (once) before any communication.
  static Task<> connect_mesh(std::span<ChVerbs* const> ranks);

  /// Spawn the background progress engine (config.async_progress). The
  /// loop idles on the CQ notifier, so it never keeps the event queue
  /// alive, but it does keep the process count non-zero.
  void start_async_progress();

  Task<RequestPtr> isend(int dst, int tag, std::uint64_t addr, std::uint32_t len,
                         bool synchronous) override;
  Task<RequestPtr> irecv(int src, int tag, std::uint64_t addr, std::uint32_t capacity) override;
  Task<> wait(RequestPtr request) override;
  Task<bool> test(RequestPtr request) override;
  Task<Status> probe(int src, int tag) override;

  int rank() const override { return rank_; }
  int size() const override { return world_size_; }
  hw::Node& node() override { return *node_; }
  std::size_t unexpected_queue_depth() const override { return unexpected_.size(); }
  std::size_t posted_queue_depth() const override { return posted_.size(); }

  /// Pin-down cache statistics (Fig 6 analysis).
  std::uint64_t pin_hits() const { return pin_hits_; }
  std::uint64_t pin_misses() const { return pin_misses_; }
  std::uint64_t eager_send_count() const { return eager_send_count_; }
  std::uint64_t rndv_send_count() const { return rndv_send_count_; }
  std::size_t unexpected_max_depth() const { return unexpected_hwm_; }
  std::size_t posted_max_depth() const { return posted_hwm_; }
  const hw::RegCache& pin_cache() const { return pin_cache_; }

  /// FabricCheck final audit (quiescent state only): the posted and
  /// unexpected queues must be disjoint — an unexpected message that
  /// matches a posted receive means MPI matching failed to pair them.
  void audit_queues(check::InvariantMonitor& monitor);

 private:
  enum class Kind : std::uint8_t { kEager, kEagerSync, kRts, kCts, kFin, kAck, kCredit };

  /// On-the-wire MPI envelope, serialized at the front of every message.
  struct Envelope {
    Kind kind = Kind::kEager;
    std::int32_t src_rank = -1;
    std::int32_t tag = 0;
    std::uint32_t len = 0;
    std::uint64_t req_id = 0;       ///< sender request id (sync/rndv handshakes)
    std::uint64_t target_addr = 0;  ///< CTS: receiver buffer
    std::uint32_t rkey = 0;         ///< CTS: receiver rkey
    std::uint32_t credits = 0;      ///< kCredit: slots returned
  };
  static constexpr std::uint32_t kEnvBytes = 48;

  enum class WrType : std::uint8_t { kRecvSlot, kSendData, kSendCtrl, kRndvWrite };

  struct Peer {
    std::unique_ptr<verbs::QueuePair> qp;
    hw::Buffer* send_arena = nullptr;
    hw::Buffer* recv_arena = nullptr;
    verbs::MrKey send_key = 0;
    verbs::MrKey recv_key = 0;
    std::deque<std::uint32_t> free_data_slots;
    std::deque<std::uint32_t> free_ctrl_slots;
    std::int64_t credits = 0;  ///< remote ring slots we may consume
    std::uint32_t freed_since_credit = 0;
  };

  struct PostedRecv {
    int src;
    int tag;
    std::uint64_t addr;
    std::uint32_t capacity;
    RequestPtr request;
  };

  struct UnexpectedMsg {
    Envelope env;
    int peer;
    /// Eager payloads are copied out of the ring into host memory when
    /// they are found unexpected (MPICH behaviour), so no slot is held.
    std::shared_ptr<const std::vector<std::byte>> data;
  };

  struct RndvSend {
    RequestPtr request;
    std::uint64_t addr;
    std::uint32_t len;
    verbs::MrKey lkey;
    int dst;
    int tag;
  };

  static std::uint64_t encode_wr(WrType type, int peer, std::uint64_t low);
  static WrType wr_type(std::uint64_t wr_id);
  static int wr_peer(std::uint64_t wr_id);
  static std::uint64_t wr_low(std::uint64_t wr_id);

  std::uint32_t slot_size() const { return kEnvBytes + config_.eager_threshold; }
  std::uint64_t slot_addr(const hw::Buffer& arena, std::uint32_t slot) const {
    return arena.addr() + static_cast<std::uint64_t>(slot) * slot_size();
  }

  void write_envelope(hw::Buffer& arena, std::uint32_t slot, const Envelope& env);
  Envelope read_envelope(const hw::Buffer& arena, std::uint32_t slot) const;
  void copy_payload_in(Peer& peer, std::uint32_t slot, std::uint64_t src_addr,
                       std::uint32_t len);
  void copy_payload_out(const Peer& peer, std::uint32_t slot, std::uint64_t dst_addr,
                        std::uint32_t len);

  Task<> setup_peer(int peer_rank);
  Task<> eager_send(int dst, Kind kind, int tag, std::uint64_t addr, std::uint32_t len,
                    std::uint64_t req_id);
  Task<> send_control(int dst, Envelope env);
  Task<std::uint32_t> take_data_slot(int dst);
  Task<std::uint32_t> take_ctrl_slot(int dst);
  Task<verbs::MrKey> pin(std::uint64_t addr, std::uint32_t len);
  Task<> release_recv_slot(int peer, std::uint32_t slot, bool count_credit);
  Task<> accept_rndv(const Envelope& env, int peer, std::uint64_t addr, RequestPtr request);
  Task<> deliver_eager_from_slot(const Envelope& env, int peer, std::uint32_t slot,
                                 std::uint64_t addr, std::uint32_t capacity, RequestPtr request);
  Task<> deliver_eager_from_unexpected(const UnexpectedMsg& msg, std::uint64_t addr,
                                       std::uint32_t capacity, RequestPtr request);
  Task<> maybe_ack(const Envelope& env, int peer_rank);
  /// Drain every completion currently in the CQ (non-blocking progress).
  Task<> drain();
  /// Block for one completion, then handle it.
  Task<> progress_blocking();
  Task<> handle(verbs::Completion completion);
  Task<> handle_inbound(int peer, std::uint32_t slot);

  hw::HostCpu& cpu() { return node_->cpu(); }

  // Scope/ownership annotations (scripts/scope_check.py, src/sim/scope.hpp).
  FABSIM_ENGINE_LOCAL;  // wiring fixed at construction
  int rank_;
  int world_size_;
  verbs::Device* device_;
  hw::Node* node_;
  Engine* engine_;
  MpiConfig config_;
  FABSIM_OWNED_BY(rank_);  // host-side MPI progress state: advances only
                           // in this rank's coroutines (scope -1 resumes)
  verbs::CompletionQueue cq_;
  std::vector<Peer> peers_;  ///< indexed by peer rank (self unused)
  std::deque<PostedRecv> posted_;
  std::deque<UnexpectedMsg> unexpected_;
  std::map<std::uint64_t, RequestPtr> pending_acks_;
  std::map<std::uint64_t, RndvSend> rndv_sends_;
  std::map<std::pair<int, std::uint64_t>, RequestPtr> rndv_recvs_;
  hw::RegCache pin_cache_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, verbs::MrKey> pinned_keys_;
  std::uint64_t next_req_id_ = 1;
  std::uint64_t eager_send_count_ = 0;
  std::uint64_t rndv_send_count_ = 0;
  std::size_t unexpected_hwm_ = 0;
  std::size_t posted_hwm_ = 0;
  int outstanding_eager_ = 0;
  std::uint64_t pin_hits_ = 0;
  std::uint64_t pin_misses_ = 0;
};

}  // namespace fabsim::mpi
