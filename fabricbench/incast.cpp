// Workload `incast_lossy`: 64 endpoints on a 2-level Clos (radix 16) with
// 32 KB port buffers; 32 senders push 64 KB chunks to one receiver on
// data-carrying buffers — RDMA Write for the verbs stacks, rendezvous
// sends for MX. iWARP and MXoE ride lossy tail-drop links, IB rides
// credit flow control. Closed loop: a sender posts its next chunk only
// after the previous one completed. A cell runs kRounds incasts in turn;
// for each the seed picks the receiver, the 32 senders and each sender's
// start stagger, and it picks the payload pattern. Averaging over rounds
// keeps the work per cell close from seed to seed.
#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "bench.hpp"
#include "core/cluster.hpp"
#include "sim/prof.hpp"
#include "sim/random.hpp"

namespace fabricbench {

namespace {

using core::Network;

constexpr int kEndpoints = 64;
constexpr int kSenders = 32;
constexpr std::uint32_t kChunk = 64 * 1024;  // above every eager threshold
constexpr int kRounds = 4;
constexpr int kChunks = 2;  // per sender and round
constexpr int kFlows = kRounds * kSenders;
constexpr std::uint64_t kPortBuffer = 32ull << 10;
constexpr Time kMaxStagger = us(20);
constexpr Time kPollDetect = ns(100);

core::NetworkProfile incast_profile(Network net) {
  core::NetworkProfile p = core::profile(net);
  const hw::FlowControl link_layer = p.fabric.flow;
  p.fabric = topo::FabricSpec{2, 16, 1.0};
  p.fabric.flow = link_layer;
  p.switch_cfg.max_queue_bytes = kPortBuffer;
  p.rnic.rto = us(300);  // keep go-back-N rounds short at this scale, as ext_incast does
  return p;
}

/// Flow f belongs to round f / kSenders: sender[f] pushes to receiver[f].
struct Inputs {
  std::vector<int> receiver, sender;
  std::vector<Time> stagger;
  std::uint64_t pattern_seed = 0;
  bool corrupt = false;
};

Inputs make_inputs(const RunParams& params) {
  fabsim::Xoshiro256 rng(params.seed);
  Inputs in;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<int> nodes(kEndpoints);
    std::iota(nodes.begin(), nodes.end(), 0);
    for (int i = kEndpoints - 1; i > 0; --i) {
      std::swap(nodes[static_cast<std::size_t>(i)],
                nodes[rng.uniform_below(static_cast<std::uint64_t>(i) + 1)]);
    }
    for (int s = 0; s < kSenders; ++s) {
      in.receiver.push_back(nodes[0]);
      in.sender.push_back(nodes[static_cast<std::size_t>(s) + 1]);
      in.stagger.push_back(
          static_cast<Time>(rng.uniform_below(static_cast<std::uint64_t>(kMaxStagger))));
    }
  }
  in.pattern_seed = rng.next();
  in.corrupt = params.corrupt_expected;
  return in;
}

/// Chunk `chunk` of flow `flow`: a deterministic byte pattern.
void fill_pattern(const Inputs& in, int flow, int chunk, std::span<std::byte> out) {
  fabsim::Xoshiro256 rng(in.pattern_seed ^ (static_cast<std::uint64_t>(flow) << 32) ^
                         static_cast<std::uint64_t>(chunk));
  for (std::size_t i = 0; i < out.size(); i += sizeof(std::uint64_t)) {
    const std::uint64_t word = rng.next();
    std::memcpy(out.data() + i, &word, std::min(sizeof(word), out.size() - i));
  }
}

struct World {
  World(const core::NetworkProfile& profile, const Inputs& inputs, Probe& p)
      : cluster(kEndpoints, profile), in(inputs), probe(p) {}

  core::Cluster cluster;
  const Inputs& in;
  Probe& probe;
  std::vector<hw::Buffer*> src, dst;  ///< per flow: sender's buffer, its slot at the receiver
  std::vector<std::unique_ptr<verbs::CompletionQueue>> cqs;
  std::vector<std::unique_ptr<verbs::QueuePair>> send_qps, recv_qps;
  std::vector<verbs::MrKey> lkeys, rkeys;
  int run_span = -1;
  std::vector<char> chunk_failed = std::vector<char>(kFlows * kChunks, 0);
  std::uint64_t chunks_done = 0;

  /// Compare the receiver's slot for `flow` against chunk `chunk`'s pattern.
  bool placed_ok(int flow, int chunk) {
    std::vector<std::byte> want(kChunk);
    fill_pattern(in, flow, chunk, want);
    if (in.corrupt) want[0] ^= std::byte{1};
    const auto got = dst[static_cast<std::size_t>(flow)]->bytes();
    return std::memcmp(got.data(), want.data(), kChunk) == 0;
  }
  void fail(int flow, int chunk) {
    chunk_failed[static_cast<std::size_t>(flow * kChunks + chunk)] = 1;
  }
};

Task<> register_flow(World& w, int flow) {
  const auto f = static_cast<std::size_t>(flow);
  w.lkeys[f] = co_await w.cluster.device(w.in.sender[f]).reg_mr(w.src[f]->addr(), kChunk);
  w.rkeys[f] = co_await w.cluster.device(w.in.receiver[f]).reg_mr(w.dst[f]->addr(), kChunk);
}

Task<> verbs_sender(World& w, int flow) {
  const auto f = static_cast<std::size_t>(flow);
  const int s = w.in.sender[f];
  verbs::Device& target = w.cluster.device(w.in.receiver[f]);
  co_await w.cluster.engine().sleep(w.in.stagger[f]);
  for (int c = 0; c < kChunks; ++c) {
    fill_pattern(w.in, flow, c, w.src[f]->bytes());
    const int span = w.probe.traced() ? w.probe.spans->open("verbs.rdma_write_chunk", w.run_span,
                                                            w.probe.next_op++)
                                      : -1;
    auto placed = target.watch_placement(w.dst[f]->addr(), kChunk);
    co_await w.send_qps[f]->post_send(verbs::SendWr{.wr_id = static_cast<std::uint64_t>(c),
                                                    .opcode = verbs::Opcode::kRdmaWrite,
                                                    .sge = {w.src[f]->addr(), kChunk, w.lkeys[f]},
                                                    .remote_addr = w.dst[f]->addr(),
                                                    .rkey = w.rkeys[f]});
    const verbs::Completion done =
        co_await verbs::next_completion(*w.cqs[f], w.cluster.node(s).cpu(), kPollDetect);
    if (done.status != verbs::Completion::Status::kSuccess) {
      w.fail(flow, c);
    } else {
      co_await placed->wait();
      if (!w.placed_ok(flow, c)) w.fail(flow, c);
    }
    if (span >= 0) w.probe.spans->close(span);
    ++w.chunks_done;
  }
}

Task<> mx_sender(World& w, int flow) {
  const auto f = static_cast<std::size_t>(flow);
  mx::Endpoint& ep = w.cluster.endpoint(w.in.sender[f]);
  const int dest = w.cluster.endpoint(w.in.receiver[f]).port();
  co_await w.cluster.engine().sleep(w.in.stagger[f]);
  for (int c = 0; c < kChunks; ++c) {
    fill_pattern(w.in, flow, c, w.src[f]->bytes());
    const int span = w.probe.traced() ? w.probe.spans->open("mx.rndv_send_chunk", w.run_span,
                                                            w.probe.next_op++)
                                      : -1;
    auto req = co_await ep.isend(w.src[f]->addr(), kChunk, dest, 0x1000 + f);
    co_await ep.wait(req);
    if (req->failed()) w.fail(flow, c);
    if (span >= 0) w.probe.spans->close(span);
    ++w.chunks_done;
  }
}

Task<> mx_receiver(World& w, int flow) {
  const auto f = static_cast<std::size_t>(flow);
  mx::Endpoint& ep = w.cluster.endpoint(w.in.receiver[f]);
  for (int c = 0; c < kChunks; ++c) {
    auto req = co_await ep.irecv(w.dst[f]->addr(), kChunk, 0x1000 + f, ~0ull);
    co_await ep.wait(req);
    if (req->failed() || req->length() != kChunk || !w.placed_ok(flow, c)) w.fail(flow, c);
  }
}

Cell run_cell(Network net, const RunParams& params, Probe& probe) {
  Cell cell;
  cell.net = net;
  const Inputs inputs = make_inputs(params);
  const core::NetworkProfile profile = incast_profile(net);
  Profiler profiler(Profiler::Config{.sample_stride = 1, .max_slices = 0});

  // Set-up: cluster build, data buffers, and for verbs one QP pair per
  // flow (create, establish, reg_mr on both ends).
  const HeapTally setup_heap0 = heap_tally();
  const double setup0 = now_s();
  std::unique_ptr<World> w;
  {
    ScopedSpan span(probe.spans, "core.cluster_build", probe.parent);
    w = std::make_unique<World>(profile, inputs, probe);
  }
  cell.build_s = now_s() - setup0;
  Engine& engine = w->cluster.engine();
  {
    ScopedSpan span(probe.spans, w->cluster.is_verbs() ? "verbs.setup" : "mx.setup",
                    probe.parent);
    for (std::size_t f = 0; f < kFlows; ++f) {
      w->src.push_back(&w->cluster.node(inputs.sender[f]).mem().alloc(kChunk, true));
      w->dst.push_back(&w->cluster.node(inputs.receiver[f]).mem().alloc(kChunk, true));
    }
    if (w->cluster.is_verbs()) {
      w->lkeys.resize(kFlows);
      w->rkeys.resize(kFlows);
      for (int flow = 0; flow < kFlows; ++flow) {
        const auto f = static_cast<std::size_t>(flow);
        verbs::Device& source = w->cluster.device(inputs.sender[f]);
        verbs::Device& target = w->cluster.device(inputs.receiver[f]);
        w->cqs.push_back(std::make_unique<verbs::CompletionQueue>(engine));
        w->recv_qps.push_back(target.create_qp(*w->cqs.back(), *w->cqs.back()));
        w->send_qps.push_back(source.create_qp(*w->cqs.back(), *w->cqs.back()));
        target.establish(*w->recv_qps.back(), *w->send_qps.back());
        engine.spawn(register_flow(*w, flow));
      }
      engine.run();
    }
  }
  cell.setup_s = now_s() - setup0;
  cell.setup_heap = heap_tally() - setup_heap0;
  cell.setup_events = engine.events_processed();

  // Run: round after round, every sender pushes kChunks chunks; then
  // teardown.
  if (probe.traced()) w->cluster.attach_profiler(profiler);
  const HeapTally run_heap0 = heap_tally();
  for (int round = 0; round < kRounds; ++round) {
    const double part0 = now_s();
    ScopedSpan span(probe.spans, "incast.round", probe.parent);
    w->run_span = span.id();
    for (int flow = round * kSenders; flow < (round + 1) * kSenders; ++flow) {
      if (w->cluster.is_verbs()) {
        engine.spawn(verbs_sender(*w, flow));
      } else {
        engine.spawn(mx_receiver(*w, flow));
        engine.spawn(mx_sender(*w, flow));
      }
    }
    engine.run();
    cell.run_parts.push_back(now_s() - part0);
    cell.run_s += cell.run_parts.back();
  }
  cell.run_heap = heap_tally() - run_heap0;

  cell.run_events = engine.events_processed() - cell.setup_events;
  cell.digest = engine.run_digest();
  cell.ops = static_cast<std::uint64_t>(kFlows) * kChunks;
  // A chunk that never completed counts as failed.
  cell.ops_failed = static_cast<std::uint64_t>(
                        std::count(w->chunk_failed.begin(), w->chunk_failed.end(), 1)) +
                    (cell.ops - w->chunks_done);
  if (probe.traced()) read_traced(w->cluster, profiler, cell);
  teardown(w, probe, cell);
  return cell;
}

}  // namespace

const Workload kIncastLossy{"incast_lossy",
                            {Network::kIwarp, Network::kIb, Network::kMxoe},
                            /*uses_seed=*/true,
                            run_cell};

}  // namespace fabricbench
