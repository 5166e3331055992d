// Workload `allreduce_clos`: 32 MPI ranks on a 2-level non-blocking
// leaf-spine Clos (radix 16), alternating 64 B (eager) and 32 KB
// (rendezvous on the verbs MPI) allreduces on data-carrying buffers.
// Closed loop: every rank issues its next allreduce only after the
// previous one returned. The seed picks the rank-to-leaf placements (the
// keys of MPI_Comm_splits, which reorder the recursive-doubling
// partners) and the values every rank contributes. Each cell runs
// kPlacements placements in turn, so the work per cell varies little
// from seed to seed.
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

constexpr int kRanks = 32;
constexpr std::uint32_t kSmallDoubles = 8;     // 64 B
constexpr std::uint32_t kLargeDoubles = 4096;  // 32 KB
constexpr int kPlacements = 4;
constexpr int kIters = 10;  // per rank and placement, small and large alternating
constexpr std::uint64_t kSplitScratch = 64 + 16 * kRanks;

core::NetworkProfile clos_profile(Network net) {
  core::NetworkProfile p = core::profile(net);
  const hw::FlowControl link_layer = p.fabric.flow;
  p.fabric = topo::FabricSpec{2, 16, 1.0};
  p.fabric.flow = link_layer;
  // The eager rings are data-carrying and there are N^2 of them: keep
  // them small so a 32-rank world stays at a few hundred MB of host RSS.
  p.mpi.eager_buffers = 16;
  p.mpi.control_slots = 4;
  p.mpi.credit_batch = 8;  // credits must come back before a ring drains
  return p;
}

/// Seeded inputs and the host-computed expected sums. Contributions are
/// small integers, so every summation order gives the same bits.
struct Inputs {
  /// Per placement, per world rank: its position in the communicator.
  std::vector<std::vector<int>> split_key;
  std::vector<std::vector<double>> small, large;
  std::vector<double> small_sum, large_sum;
};

Inputs make_inputs(const RunParams& params) {
  fabsim::Xoshiro256 rng(params.seed);
  Inputs in;
  in.split_key.assign(kPlacements, std::vector<int>(kRanks));
  for (std::vector<int>& key : in.split_key) {
    std::iota(key.begin(), key.end(), 0);
    for (int i = kRanks - 1; i > 0; --i) {
      std::swap(key[static_cast<std::size_t>(i)],
                key[rng.uniform_below(static_cast<std::uint64_t>(i) + 1)]);
    }
  }
  auto contributions = [&rng](std::uint32_t count, std::vector<std::vector<double>>& per_rank,
                              std::vector<double>& sum) {
    sum.assign(count, 0.0);
    per_rank.assign(kRanks, std::vector<double>(count));
    for (auto& mine : per_rank) {
      for (std::uint32_t i = 0; i < count; ++i) {
        mine[i] = static_cast<double>(static_cast<int>(rng.uniform_below(2048)) - 1024);
        sum[i] += mine[i];
      }
    }
  };
  contributions(kSmallDoubles, in.small, in.small_sum);
  contributions(kLargeDoubles, in.large, in.large_sum);
  if (params.corrupt_expected) in.small_sum[0] += 1.0;
  return in;
}

struct World {
  World(const core::NetworkProfile& profile, const Inputs& inputs, Probe& p)
      : cluster(kRanks, profile), in(inputs), probe(p) {
    for (auto& placement : comm) placement.resize(kRanks);
  }

  core::Cluster cluster;
  const Inputs& in;
  Probe& probe;
  std::vector<hw::Buffer*> data, scratch, split_scratch;
  /// comm[placement][world rank]
  std::vector<std::vector<std::unique_ptr<mpi::Rank>>> comm{kPlacements};
  int run_span = -1;
  std::uint64_t ops_done = 0;
  std::uint64_t ops_failed = 0;
  std::vector<double> small_ms, large_ms;
};

Task<> setup_rank(World& w, int me) {
  const auto idx = static_cast<std::size_t>(me);
  co_await w.cluster.setup_mpi();
  mpi::Rank& world = w.cluster.mpi_rank(me);
  for (int p = 0; p < kPlacements; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    w.comm[pi][idx] =
        co_await world.split(0, w.in.split_key[pi][idx], w.split_scratch[idx]->addr());
  }
  co_await world.barrier();
}

/// Rank `me`'s kIters allreduces on placement `placement`.
Task<> run_rank(World& w, int placement, int me) {
  const auto idx = static_cast<std::size_t>(me);
  mpi::Rank& comm = *w.comm[static_cast<std::size_t>(placement)][idx];
  hw::AddressSpace& mem = w.cluster.node(me).mem();
  const std::uint64_t data = w.data[idx]->addr();
  const bool spanned = me == 0 && w.probe.traced();
  for (int i = 0; i < kIters; ++i) {
    const bool large = i % 2 == 1;
    const std::vector<double>& mine = large ? w.in.large[idx] : w.in.small[idx];
    const std::vector<double>& want = large ? w.in.large_sum : w.in.small_sum;
    const std::uint64_t bytes = mine.size() * sizeof(double);
    std::memcpy(mem.window(data, bytes).data(), mine.data(), bytes);

    const std::uint64_t op = w.probe.next_op++;
    const int span = spanned ? w.probe.spans->open(large ? "mpi.allreduce_large"
                                                         : "mpi.allreduce_small",
                                                   w.run_span, op)
                             : -1;
    co_await comm.allreduce_sum(data, w.scratch[idx]->addr(),
                                static_cast<std::uint32_t>(mine.size()));
    if (spanned) (large ? w.large_ms : w.small_ms).push_back(w.probe.spans->close(span) * 1e3);

    ++w.ops_done;
    if (std::memcmp(mem.window(data, bytes).data(), want.data(), bytes) != 0) ++w.ops_failed;
  }
}

Cell run_cell(Network net, const RunParams& params, Probe& probe) {
  Cell cell;
  cell.net = net;
  const Inputs inputs = make_inputs(params);
  const core::NetworkProfile profile = clos_profile(net);
  // Declared before the world: the engine detaches it on destruction.
  Profiler profiler(Profiler::Config{.sample_stride = 1, .max_slices = 0});

  // Set-up: cluster build, buffers, MPI wire-up, the placement split and
  // a first barrier.
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
    ScopedSpan span(probe.spans, "mpi.setup", probe.parent);
    for (int r = 0; r < kRanks; ++r) {
      hw::AddressSpace& mem = w->cluster.node(r).mem();
      w->data.push_back(&mem.alloc(kLargeDoubles * sizeof(double), true));
      w->scratch.push_back(&mem.alloc(kLargeDoubles * sizeof(double), true));
      w->split_scratch.push_back(&mem.alloc(kSplitScratch, true));
    }
    for (int r = 0; r < kRanks; ++r) engine.spawn(setup_rank(*w, r));
    engine.run();
  }
  cell.setup_s = now_s() - setup0;
  cell.setup_heap = heap_tally() - setup_heap0;
  cell.setup_events = engine.events_processed();

  // Run: placement after placement, kIters closed-loop allreduces per
  // rank; then teardown.
  if (probe.traced()) w->cluster.attach_profiler(profiler);
  const HeapTally run_heap0 = heap_tally();
  for (int p = 0; p < kPlacements; ++p) {
    const double part0 = now_s();
    ScopedSpan span(probe.spans, "mpi.allreduce_placement", probe.parent);
    w->run_span = span.id();
    for (int r = 0; r < kRanks; ++r) engine.spawn(run_rank(*w, p, r));
    engine.run();
    cell.run_parts.push_back(now_s() - part0);
    cell.run_s += cell.run_parts.back();
  }
  cell.run_heap = heap_tally() - run_heap0;

  cell.run_events = engine.events_processed() - cell.setup_events;
  cell.digest = engine.run_digest();
  cell.ops = static_cast<std::uint64_t>(kRanks) * kPlacements * kIters;
  // An allreduce that never returned counts as failed.
  cell.ops_failed = w->ops_failed + (cell.ops - w->ops_done);
  if (probe.traced()) {
    read_traced(w->cluster, profiler, cell);
    cell.small_ms = std::move(w->small_ms);
    cell.large_ms = std::move(w->large_ms);
  }
  teardown(w, probe, cell);
  return cell;
}

}  // namespace

const Workload kAllreduceClos{"allreduce_clos",
                              {Network::kIwarp, Network::kIb, Network::kMxoe},
                              /*uses_seed=*/true,
                              run_cell};

}  // namespace fabricbench
