#include "mpi/ch_verbs.hpp"

#include <cstring>
#include <stdexcept>

#include "check/audits.hpp"

namespace fabsim::mpi {

namespace {
constexpr std::uint64_t kSlotAlign = 64;
}

ChVerbs::ChVerbs(int rank, int world_size, verbs::Device& device, hw::Node& node, Engine& engine,
                 MpiConfig config)
    : rank_(rank),
      world_size_(world_size),
      device_(&device),
      node_(&node),
      engine_(&engine),
      config_(config),
      cq_(engine),
      peers_(static_cast<std::size_t>(world_size)),
      pin_cache_(config.pin_cache_entries, config.pin_cache_bytes) {}

// ---------------------------------------------------------------------------
// Wiring
// ---------------------------------------------------------------------------

Task<> ChVerbs::connect_mesh(std::span<ChVerbs* const> ranks) {
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    for (std::size_t j = i + 1; j < ranks.size(); ++j) {
      ChVerbs& a = *ranks[i];
      ChVerbs& b = *ranks[j];
      a.peers_[j].qp = a.device_->create_qp(a.cq_, a.cq_);
      b.peers_[i].qp = b.device_->create_qp(b.cq_, b.cq_);
      a.device_->establish(*a.peers_[j].qp, *b.peers_[i].qp);
      co_await a.setup_peer(static_cast<int>(j));
      co_await b.setup_peer(static_cast<int>(i));
    }
  }
}

Task<> ChVerbs::setup_peer(int peer_rank) {
  Peer& peer = peers_[static_cast<std::size_t>(peer_rank)];
  const std::uint64_t slot = slot_size();
  const std::uint64_t data_slots = config_.eager_buffers;
  const std::uint64_t ctrl_slots = config_.control_slots;
  const std::uint64_t send_total = (data_slots + ctrl_slots) * slot;
  const std::uint64_t recv_total = (data_slots + 2 * ctrl_slots) * slot;

  peer.send_arena = &node_->mem().alloc(((send_total + kSlotAlign - 1) / kSlotAlign) * kSlotAlign);
  peer.recv_arena = &node_->mem().alloc(((recv_total + kSlotAlign - 1) / kSlotAlign) * kSlotAlign);
  // Startup registration: done once, outside any measurement; bypass the
  // per-call CPU charge (real MPIs register rings in MPI_Init).
  peer.send_key = device_->registry().register_region(peer.send_arena->addr(), send_total);
  peer.recv_key = device_->registry().register_region(peer.recv_arena->addr(), recv_total);

  for (std::uint32_t i = 0; i < data_slots; ++i) peer.free_data_slots.push_back(i);
  for (std::uint32_t i = 0; i < ctrl_slots; ++i) {
    peer.free_ctrl_slots.push_back(static_cast<std::uint32_t>(data_slots) + i);
  }
  peer.credits = static_cast<std::int64_t>(data_slots);

  const std::uint32_t recv_slots = static_cast<std::uint32_t>(data_slots + 2 * ctrl_slots);
  for (std::uint32_t i = 0; i < recv_slots; ++i) {
    co_await peer.qp->post_recv(verbs::RecvWr{
        encode_wr(WrType::kRecvSlot, peer_rank, i),
        {slot_addr(*peer.recv_arena, i), static_cast<std::uint32_t>(slot), peer.recv_key}});
  }
}

// ---------------------------------------------------------------------------
// Envelope / slot helpers
// ---------------------------------------------------------------------------

std::uint64_t ChVerbs::encode_wr(WrType type, int peer, std::uint64_t low) {
  return (static_cast<std::uint64_t>(type) << 56) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer)) << 32) |
         (low & 0xffffffffull);
}
ChVerbs::WrType ChVerbs::wr_type(std::uint64_t wr_id) {
  return static_cast<WrType>(wr_id >> 56);
}
int ChVerbs::wr_peer(std::uint64_t wr_id) {
  return static_cast<int>((wr_id >> 32) & 0xffffff);
}
std::uint64_t ChVerbs::wr_low(std::uint64_t wr_id) { return wr_id & 0xffffffffull; }

void ChVerbs::write_envelope(hw::Buffer& arena, std::uint32_t slot, const Envelope& env) {
  auto view = arena.range(static_cast<std::uint64_t>(slot) * slot_size(), kEnvBytes);
  static_assert(sizeof(Envelope) <= kEnvBytes);
  std::memcpy(view.data(), &env, sizeof(Envelope));
}

ChVerbs::Envelope ChVerbs::read_envelope(const hw::Buffer& arena, std::uint32_t slot) const {
  Envelope env;
  auto view = arena.range(static_cast<std::uint64_t>(slot) * slot_size(), kEnvBytes);
  std::memcpy(&env, view.data(), sizeof(Envelope));
  return env;
}

void ChVerbs::copy_payload_in(Peer& peer, std::uint32_t slot, std::uint64_t src_addr,
                              std::uint32_t len) {
  hw::Buffer* src = node_->mem().find(src_addr);
  if (src == nullptr || src_addr + len > src->addr() + src->size()) {
    throw std::out_of_range("mpi: send buffer outside any allocation");
  }
  if (!src->has_data() || len == 0) return;
  auto from = node_->mem().window(src_addr, len);
  auto to =
      peer.send_arena->range(static_cast<std::uint64_t>(slot) * slot_size() + kEnvBytes, len);
  std::memcpy(to.data(), from.data(), len);
}

void ChVerbs::copy_payload_out(const Peer& peer, std::uint32_t slot, std::uint64_t dst_addr,
                               std::uint32_t len) {
  hw::Buffer* dst = node_->mem().find(dst_addr);
  if (dst == nullptr || dst_addr + len > dst->addr() + dst->size()) {
    throw std::out_of_range("mpi: receive buffer outside any allocation");
  }
  if (!dst->has_data() || len == 0) return;
  auto from =
      peer.recv_arena->range(static_cast<std::uint64_t>(slot) * slot_size() + kEnvBytes, len);
  node_->mem().write(dst_addr, from);
}

// ---------------------------------------------------------------------------
// Send paths
// ---------------------------------------------------------------------------

Task<RequestPtr> ChVerbs::isend(int dst, int tag, std::uint64_t addr, std::uint32_t len,
                                bool synchronous) {
  if (dst < 0 || dst >= world_size_ || dst == rank_) {
    throw std::invalid_argument("mpi: bad destination rank");
  }
  co_await cpu().compute(config_.send_call_cpu);
  co_await drain();

  auto request = std::make_shared<Request>(*engine_);
  if (len <= config_.eager_threshold) {
    ++eager_send_count_;
    const std::uint64_t id = next_req_id_++;
    co_await eager_send(dst, synchronous ? Kind::kEagerSync : Kind::kEager, tag, addr, len, id);
    if (synchronous) {
      pending_acks_[id] = request;
    } else {
      request->complete(Status{rank_, tag, len});
    }
  } else {
    ++rndv_send_count_;
    const std::uint64_t id = next_req_id_++;
    const verbs::MrKey lkey = co_await pin(addr, len);
    rndv_sends_[id] = RndvSend{request, addr, len, lkey, dst, tag};
    node_->engine().trace(TraceCategory::kProto, rank_, [&] {
      return "MPI rendezvous RTS -> rank " + std::to_string(dst) + " tag=" + std::to_string(tag) +
             " len=" + std::to_string(len);
    });
    Envelope rts;
    rts.kind = Kind::kRts;
    rts.src_rank = rank_;
    rts.tag = tag;
    rts.len = len;
    rts.req_id = id;
    co_await send_control(dst, rts);
  }
  co_return request;
}

Task<std::uint32_t> ChVerbs::take_data_slot(int dst) {
  Peer& peer = peers_[static_cast<std::size_t>(dst)];
  // Credit + slot acquisition with inline progress (MPICH spins its
  // progress engine while blocking; so do we). Channels with a hard
  // outstanding-send limit additionally stall on their own completions.
  while (peer.credits <= 0 || peer.free_data_slots.empty() ||
         (config_.max_outstanding_eager > 0 &&
          outstanding_eager_ >= config_.max_outstanding_eager)) {
    co_await progress_blocking();
  }
  ++outstanding_eager_;
  --peer.credits;
  const std::uint32_t slot = peer.free_data_slots.front();
  peer.free_data_slots.pop_front();
  co_return slot;
}

Task<std::uint32_t> ChVerbs::take_ctrl_slot(int dst) {
  Peer& peer = peers_[static_cast<std::size_t>(dst)];
  while (peer.free_ctrl_slots.empty()) {
    co_await progress_blocking();
  }
  const std::uint32_t slot = peer.free_ctrl_slots.front();
  peer.free_ctrl_slots.pop_front();
  co_return slot;
}

Task<> ChVerbs::eager_send(int dst, Kind kind, int tag, std::uint64_t addr, std::uint32_t len,
                           std::uint64_t req_id) {
  Peer& peer = peers_[static_cast<std::size_t>(dst)];
  const std::uint32_t slot = co_await take_data_slot(dst);
  // One send-side copy: user buffer -> registered staging slot.
  co_await cpu().copy(addr, len);
  Envelope env;
  env.kind = kind;
  env.src_rank = rank_;
  env.tag = tag;
  env.len = len;
  env.req_id = req_id;
  write_envelope(*peer.send_arena, slot, env);
  copy_payload_in(peer, slot, addr, len);
  co_await peer.qp->post_send(verbs::SendWr{
      .wr_id = encode_wr(WrType::kSendData, dst, slot),
      .opcode = verbs::Opcode::kSend,
      .sge = {slot_addr(*peer.send_arena, slot), kEnvBytes + len, peer.send_key}});
}

Task<> ChVerbs::send_control(int dst, Envelope env) {
  Peer& peer = peers_[static_cast<std::size_t>(dst)];
  const std::uint32_t slot = co_await take_ctrl_slot(dst);
  write_envelope(*peer.send_arena, slot, env);
  co_await peer.qp->post_send(verbs::SendWr{
      .wr_id = encode_wr(WrType::kSendCtrl, dst, slot),
      .opcode = verbs::Opcode::kSend,
      .sge = {slot_addr(*peer.send_arena, slot), kEnvBytes, peer.send_key}});
}

Task<verbs::MrKey> ChVerbs::pin(std::uint64_t addr, std::uint32_t len) {
  auto result = pin_cache_.lookup(addr, len);
  if (result.hit) {
    ++pin_hits_;
    node_->engine().trace(TraceCategory::kHost, rank_, [] { return "pin-down cache hit"; });
    co_return static_cast<verbs::MrKey>(result.user);
  }
  ++pin_misses_;
  node_->engine().trace(TraceCategory::kHost, rank_, [&] {
    return "pin-down cache miss: registering " + std::to_string(len) + "B";
  });
  const verbs::MrKey key = co_await device_->reg_mr(addr, len);
  pin_cache_.set_front_user(key);
  for (const auto& evicted : result.evicted) {
    co_await device_->dereg_mr(static_cast<verbs::MrKey>(evicted.user));
  }
  co_return key;
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

Task<RequestPtr> ChVerbs::irecv(int src, int tag, std::uint64_t addr, std::uint32_t capacity) {
  co_await cpu().compute(config_.recv_call_cpu);
  co_await drain();

  auto request = std::make_shared<Request>(*engine_);

  // Walk the unexpected-message queue (Fig 7's cost), FIFO.
  std::size_t scanned = 0;
  auto it = unexpected_.begin();
  for (; it != unexpected_.end(); ++it) {
    ++scanned;
    if ((src == kAnySource || it->env.src_rank == src) &&
        (tag == kAnyTag || it->env.tag == tag)) {
      break;
    }
  }
  if (it == unexpected_.end()) {
    if (scanned > 0) co_await cpu().compute(config_.unexpected_item_cost * scanned);
    posted_.push_back(PostedRecv{src, tag, addr, capacity, request});
    if (posted_.size() > posted_hwm_) posted_hwm_ = posted_.size();
    co_return request;
  }

  // Take the entry out of the queue *before* charging the traversal cost:
  // another progress context (async progress, nested handlers) must never
  // match the same message while this coroutine is suspended.
  const UnexpectedMsg msg = *it;
  unexpected_.erase(it);
  if (scanned > 0) co_await cpu().compute(config_.unexpected_item_cost * scanned);
  if (msg.env.kind == Kind::kRts) {
    co_await accept_rndv(msg.env, msg.peer, addr, request);
  } else {
    co_await deliver_eager_from_unexpected(msg, addr, capacity, request);
  }
  co_return request;
}

Task<> ChVerbs::deliver_eager_from_slot(const Envelope& env, int peer_rank, std::uint32_t slot,
                                        std::uint64_t addr, std::uint32_t capacity,
                                        RequestPtr request) {
  if (capacity < env.len) throw std::length_error("mpi: receive buffer too small");
  Peer& peer = peers_[static_cast<std::size_t>(peer_rank)];
  // One receive-side copy: ring slot -> user buffer.
  co_await cpu().copy(addr, env.len);
  copy_payload_out(peer, slot, addr, env.len);
  co_await release_recv_slot(peer_rank, slot, /*count_credit=*/true);
  co_await maybe_ack(env, peer_rank);
  request->complete(Status{env.src_rank, env.tag, env.len});
}

Task<> ChVerbs::deliver_eager_from_unexpected(const UnexpectedMsg& msg, std::uint64_t addr,
                                              std::uint32_t capacity, RequestPtr request) {
  const Envelope& env = msg.env;
  if (capacity < env.len) throw std::length_error("mpi: receive buffer too small");
  // Copy from the host-side unexpected buffer into the user buffer.
  co_await cpu().copy(addr, env.len);
  if (msg.data != nullptr) {
    hw::Buffer* dst = node_->mem().find(addr);
    if (dst != nullptr && dst->has_data()) node_->mem().write(addr, *msg.data);
  }
  co_await maybe_ack(env, msg.peer);
  request->complete(Status{env.src_rank, env.tag, env.len});
}

Task<> ChVerbs::maybe_ack(const Envelope& env, int peer_rank) {
  if (env.kind != Kind::kEagerSync) co_return;
  Envelope ack;
  ack.kind = Kind::kAck;
  ack.src_rank = rank_;
  ack.tag = env.tag;
  ack.req_id = env.req_id;
  co_await send_control(peer_rank, ack);
}

Task<> ChVerbs::accept_rndv(const Envelope& env, int peer_rank, std::uint64_t addr,
                            RequestPtr request) {
  node_->engine().trace(TraceCategory::kProto, rank_, [&] {
    return "MPI rendezvous CTS -> rank " + std::to_string(peer_rank) + " (target pinned)";
  });
  const verbs::MrKey rkey = co_await pin(addr, env.len);
  rndv_recvs_[{peer_rank, env.req_id}] = request;
  Envelope cts;
  cts.kind = Kind::kCts;
  cts.src_rank = rank_;
  cts.tag = env.tag;
  cts.len = env.len;
  cts.req_id = env.req_id;
  cts.target_addr = addr;
  cts.rkey = rkey;
  co_await send_control(peer_rank, cts);
}

Task<> ChVerbs::release_recv_slot(int peer_rank, std::uint32_t slot, bool count_credit) {
  Peer& peer = peers_[static_cast<std::size_t>(peer_rank)];
  co_await peer.qp->post_recv(verbs::RecvWr{
      encode_wr(WrType::kRecvSlot, peer_rank, slot),
      {slot_addr(*peer.recv_arena, slot), slot_size(), peer.recv_key}});
  // Only slots consumed by credit-paying (eager) messages earn credits
  // back; control traffic uses the reserved headroom.
  if (count_credit && ++peer.freed_since_credit >= config_.credit_batch) {
    Envelope credit;
    credit.kind = Kind::kCredit;
    credit.src_rank = rank_;
    credit.credits = peer.freed_since_credit;
    peer.freed_since_credit = 0;
    co_await send_control(peer_rank, credit);
  }
}

// ---------------------------------------------------------------------------
// Progress engine
// ---------------------------------------------------------------------------

void ChVerbs::start_async_progress() {
  // A daemon: the loop never terminates by design, so it must not count
  // as a stuck process in the engine's no-lost-wakeup audit.
  engine_->spawn_daemon([](ChVerbs* self) -> Task<> {
    for (;;) {
      co_await self->progress_blocking();
    }
  }(this));
}

Task<> ChVerbs::wait(RequestPtr request) {
  // With async progress enabled this wait and the background engine both
  // drive progress_blocking(); each completion is handled exactly once
  // (next_completion re-polls after every wakeup).
  while (!request->done()) co_await progress_blocking();
}

Task<bool> ChVerbs::test(RequestPtr request) {
  co_await cpu().compute(config_.wait_poll_cpu);
  co_await drain();
  co_return request->done();
}

Task<Status> ChVerbs::probe(int src, int tag) {
  co_await cpu().compute(config_.recv_call_cpu);
  for (;;) {
    co_await drain();
    std::size_t scanned = 0;
    for (const UnexpectedMsg& msg : unexpected_) {
      ++scanned;
      if ((src == kAnySource || msg.env.src_rank == src) &&
          (tag == kAnyTag || msg.env.tag == tag)) {
        co_await cpu().compute(config_.unexpected_item_cost * scanned);
        co_return Status{msg.env.src_rank, msg.env.tag, msg.env.len};
      }
    }
    if (scanned > 0) co_await cpu().compute(config_.unexpected_item_cost * scanned);
    co_await progress_blocking();
  }
}

Task<> ChVerbs::drain() {
  while (auto completion = cq_.poll()) {
    co_await handle(*completion);
  }
}

Task<> ChVerbs::progress_blocking() {
  const verbs::Completion completion =
      co_await verbs::next_completion(cq_, cpu(), config_.wait_poll_cpu);
  co_await handle(completion);
}

Task<> ChVerbs::handle(verbs::Completion completion) {
  const std::uint64_t wr = completion.wr_id;
  switch (wr_type(wr)) {
    case WrType::kRecvSlot:
      co_await cpu().compute(config_.handler_cpu);
      co_await handle_inbound(wr_peer(wr), static_cast<std::uint32_t>(wr_low(wr)));
      break;
    case WrType::kSendData: {
      Peer& peer = peers_[static_cast<std::size_t>(wr_peer(wr))];
      peer.free_data_slots.push_back(static_cast<std::uint32_t>(wr_low(wr)));
      --outstanding_eager_;
      break;
    }
    case WrType::kSendCtrl: {
      Peer& peer = peers_[static_cast<std::size_t>(wr_peer(wr))];
      peer.free_ctrl_slots.push_back(static_cast<std::uint32_t>(wr_low(wr)));
      break;
    }
    case WrType::kRndvWrite: {
      auto it = rndv_sends_.find(wr_low(wr));
      if (it == rndv_sends_.end()) throw std::logic_error("mpi: rndv write without state");
      it->second.request->complete(Status{rank_, it->second.tag, it->second.len});
      rndv_sends_.erase(it);
      break;
    }
  }
}

Task<> ChVerbs::handle_inbound(int peer_rank, std::uint32_t slot) {
  Peer& peer = peers_[static_cast<std::size_t>(peer_rank)];
  const Envelope env = read_envelope(*peer.recv_arena, slot);

  switch (env.kind) {
    case Kind::kEager:
    case Kind::kEagerSync:
    case Kind::kRts: {
      // Walk the posted-receive queue (Fig 8's cost), FIFO.
      std::size_t scanned = 0;
      auto it = posted_.begin();
      for (; it != posted_.end(); ++it) {
        ++scanned;
        if ((it->src == kAnySource || it->src == env.src_rank) &&
            (it->tag == kAnyTag || it->tag == env.tag)) {
          break;
        }
      }
      if (it != posted_.end()) {
        // Same re-entrancy rule: claim the receive before suspending.
        const PostedRecv posted = *it;
        posted_.erase(it);
        co_await cpu().compute(config_.posted_item_cost * scanned);
        if (env.kind == Kind::kRts) {
          co_await release_recv_slot(peer_rank, slot, false);
          co_await accept_rndv(env, peer_rank, posted.addr, posted.request);
        } else {
          co_await deliver_eager_from_slot(env, peer_rank, slot, posted.addr, posted.capacity,
                                           posted.request);
        }
        break;
      }
      if (scanned > 0) co_await cpu().compute(config_.posted_item_cost * scanned);

      if (it == posted_.end()) {
        node_->engine().trace(TraceCategory::kHost, rank_, [&] {
          return "MPI unexpected message from rank " + std::to_string(env.src_rank) + " tag=" +
                 std::to_string(env.tag);
        });
        UnexpectedMsg msg{env, peer_rank, nullptr};
        if (env.kind != Kind::kRts) {
          // Copy the payload out of the ring into host memory and return
          // the slot immediately (MPICH keeps its ring shallow this way).
          co_await cpu().copy(slot_addr(*peer.recv_arena, slot) + kEnvBytes, env.len);
          if (env.len > 0) {
            msg.data =
                node_->mem().snapshot(slot_addr(*peer.recv_arena, slot) + kEnvBytes, env.len);
          }
          co_await release_recv_slot(peer_rank, slot, /*count_credit=*/true);
        } else {
          co_await release_recv_slot(peer_rank, slot, false);
        }
        unexpected_.push_back(std::move(msg));
        if (unexpected_.size() > unexpected_hwm_) unexpected_hwm_ = unexpected_.size();
        co_return;
      }
      break;
    }
    case Kind::kCts: {
      auto it = rndv_sends_.find(env.req_id);
      if (it == rndv_sends_.end()) throw std::logic_error("mpi: CTS without rndv state");
      const RndvSend& rs = it->second;
      // Zero-copy payload: RDMA Write straight from the user buffer, then
      // FIN on the same QP (ordering guarantees FIN trails the data).
      co_await peer.qp->post_send(verbs::SendWr{
          .wr_id = encode_wr(WrType::kRndvWrite, peer_rank, env.req_id),
          .opcode = verbs::Opcode::kRdmaWrite,
          .sge = {rs.addr, rs.len, rs.lkey},
          .remote_addr = env.target_addr,
          .rkey = env.rkey});
      Envelope fin;
      fin.kind = Kind::kFin;
      fin.src_rank = rank_;
      fin.tag = env.tag;
      fin.len = env.len;
      fin.req_id = env.req_id;
      co_await release_recv_slot(peer_rank, slot, false);
      co_await send_control(peer_rank, fin);
      break;
    }
    case Kind::kFin: {
      auto it = rndv_recvs_.find({peer_rank, env.req_id});
      if (it == rndv_recvs_.end()) throw std::logic_error("mpi: FIN without rndv state");
      it->second->complete(Status{env.src_rank, env.tag, env.len});
      rndv_recvs_.erase(it);
      co_await release_recv_slot(peer_rank, slot, false);
      break;
    }
    case Kind::kAck: {
      auto it = pending_acks_.find(env.req_id);
      if (it == pending_acks_.end()) throw std::logic_error("mpi: ACK without ssend state");
      it->second->complete(Status{rank_, env.tag, 0});
      pending_acks_.erase(it);
      co_await release_recv_slot(peer_rank, slot, false);
      break;
    }
    case Kind::kCredit: {
      peer.credits += env.credits;
      co_await release_recv_slot(peer_rank, slot, false);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// FabricCheck audits
// ---------------------------------------------------------------------------

void ChVerbs::audit_queues(check::InvariantMonitor& monitor) {
  for (const PostedRecv& recv : posted_) {
    for (const UnexpectedMsg& msg : unexpected_) {
      check::audit_mpi_queue_disjoint(recv.src, recv.tag, msg.env.src_rank, msg.env.tag)
          .report(&monitor, engine_->now(), check::Layer::kMpi, rank_);
    }
  }
}

}  // namespace fabsim::mpi
