// google-benchmark microbenchmarks of the simulation core itself:
// event throughput, the event queue held at a fixed depth, coroutine
// context switches, resource booking, a full iWARP RDMA-write transfer,
// and a steady-state 16-rank MPI allreduce per network as end-to-end
// figures of merit. This binary is the only producer of host-time
// numbers: scripts/bench_engine.py records its events_per_sec counters
// in the BENCH_engine.json trajectory.
//
// The *Profiled variants re-run a workload with a FabricProf profiler
// attached: the events/sec delta against the detached twin is the
// measured profiler overhead, and the prof_* counters surface where the
// host time and heap churn go.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/prof.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"

namespace {

using namespace fabsim;

/// Publish the engine's own processed-event count as a wall-clock rate:
/// scripts/bench_engine.py scrapes "events_per_sec" into the
/// BENCH_engine.json perf trajectory.
void report_event_rate(benchmark::State& state, std::uint64_t events) {
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_EventQueueThroughput(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    Engine engine;
    std::uint64_t sink = 0;
    for (int i = 0; i < 10000; ++i) {
      engine.post(static_cast<Time>(i), [&sink, i] { sink += static_cast<std::uint64_t>(i); });
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
    events += engine.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  report_event_rate(state, events);
}
BENCHMARK(BM_EventQueueThroughput);

/// The classic hold model at a fixed queue depth: the queue is prefilled
/// to state.range(0) events, and each dispatched event posts one
/// successor, so the depth never changes. Delays are log-uniform in
/// [2^15, 2^23) ps (33 ns to 8.4 us), the range most FabricBench posts
/// fall in; they come from a fixed-seed Xoshiro256, drawn once into a
/// table so the timed loop pays for the queue, not for exp2. The lanes
/// bracket FabricBench's queues: 256 events, and 2048, past the traced
/// peaks of 1093 (allreduce_clos) and 1511 (incast_lossy).
void BM_EventQueueHold(benchmark::State& state) {
  struct Hold {
    Engine engine;
    std::vector<Time> delays;
    std::size_t next = 0;
    void fire() {
      const Time d = delays[next++ & (delays.size() - 1)];
      engine.post(engine.now() + d, [this] { fire(); });
    }
  };
  Hold hold;
  Xoshiro256 rng(1);
  hold.delays.resize(4096);  // a power of two: the index wraps with a mask
  for (Time& d : hold.delays) d = static_cast<Time>(std::exp2(15.0 + 8.0 * rng.uniform()));
  for (std::int64_t i = 0; i < state.range(0); ++i) hold.fire();
  // Untimed: one longest delay, after which every queued event was
  // posted by a dispatched one and the pending times are in their
  // steady mix.
  hold.engine.run_until(Time{1} << 23);

  // Each iteration runs 2^21 ps of simulated time: about 1.4 x depth
  // events, at the delays' mean of 1.5 us.
  constexpr Time kWindow = Time{1} << 21;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t before = hold.engine.events_processed();
    hold.engine.run_until(hold.engine.now() + kWindow);
    events += hold.engine.events_processed() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  report_event_rate(state, events);
}
BENCHMARK(BM_EventQueueHold)->Arg(256)->Arg(2048);

void BM_CoroutineSleepChain(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    Engine engine;
    engine.spawn([](Engine& e) -> Task<> {
      for (int i = 0; i < 10000; ++i) co_await e.sleep(ns(10));
    }(engine));
    engine.run();
    events += engine.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  report_event_rate(state, events);
}
BENCHMARK(BM_CoroutineSleepChain);

void BM_MailboxPingPong(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    Engine engine;
    Mailbox<int> a(engine), b(engine);
    engine.spawn([](Mailbox<int>& rx, Mailbox<int>& tx) -> Task<> {
      for (int i = 0; i < 5000; ++i) {
        tx.send(i);
        co_await rx.recv();
      }
    }(a, b));
    engine.spawn([](Mailbox<int>& rx, Mailbox<int>& tx) -> Task<> {
      for (int i = 0; i < 5000; ++i) {
        const int v = co_await rx.recv();
        tx.send(v);
      }
    }(b, a));
    engine.run();
    events += engine.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  report_event_rate(state, events);
}
BENCHMARK(BM_MailboxPingPong);

/// BM_EventQueueThroughput with the profiler attached (1-in-16 clock
/// sampling, no slice retention): the events/sec gap to the detached
/// twin is the attached-profiler cost, and the prof_* counters give the
/// hot-spot breakdown per event — host ns in dispatch, queue depth as
/// binary-heap height, and allocator traffic on the queue storage.
void BM_EventQueueThroughputProfiled(benchmark::State& state) {
  std::uint64_t events = 0;
  Profiler profiler(Profiler::Config{.sample_stride = 16, .max_slices = 0});
  for (auto _ : state) {
    Engine engine;
    engine.set_profiler(&profiler);
    std::uint64_t sink = 0;
    for (int i = 0; i < 10000; ++i) {
      engine.post(static_cast<Time>(i), [&sink, i] { sink += static_cast<std::uint64_t>(i); });
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
    events += engine.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  report_event_rate(state, events);
  if (profiler.sampled_dispatches() > 0) {
    state.counters["prof_dispatch_ns_per_event"] =
        static_cast<double>(profiler.sampled_dispatch_ns()) /
        static_cast<double>(profiler.sampled_dispatches());
  }
  if (profiler.events_dispatched() > 0) {
    const auto per_event = [&](double v) {
      return v / static_cast<double>(profiler.events_dispatched());
    };
    state.counters["prof_heapify_cost_per_event"] =
        per_event(static_cast<double>(profiler.heapify_cost()));
    state.counters["prof_alloc_bytes_per_event"] =
        per_event(static_cast<double>(profiler.alloc_delta().bytes_allocated));
  }
  state.counters["prof_queue_peak_depth"] = static_cast<double>(profiler.peak_depth());
  // The zero-allocation dispatch contract, as a bench counter: tracked
  // allocations per dispatched event with amortized queue growth
  // excluded. Must read 0.0 after the InplaceFn payload rework.
  state.counters["prof_alloc_allocs_per_event"] = profiler.allocs_per_event();
}
BENCHMARK(BM_EventQueueThroughputProfiled);

void BM_SerialServerBooking(benchmark::State& state) {
  SerialServer server;
  Time now = 0;
  for (auto _ : state) {
    now = server.book(now, ns(100));
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerialServerBooking);

void BM_IwarpRdmaWrite64K(benchmark::State& state) {
  using namespace fabsim::core;
  std::uint64_t events = 0;
  for (auto _ : state) {
    Cluster cluster(2, Network::kIwarp);
    verbs::CompletionQueue cq0(cluster.engine()), cq1(cluster.engine());
    auto qp0 = cluster.device(0).create_qp(cq0, cq0);
    auto qp1 = cluster.device(1).create_qp(cq1, cq1);
    cluster.device(0).establish(*qp0, *qp1);
    auto& src = cluster.node(0).mem().alloc(65536, false);
    auto& dst = cluster.node(1).mem().alloc(65536, false);
    auto k0 = cluster.device(0).registry().register_region(src.addr(), 65536);
    auto k1 = cluster.device(1).registry().register_region(dst.addr(), 65536);
    cluster.engine().spawn([](Cluster& c, verbs::QueuePair& qp, hw::Buffer& s, hw::Buffer& d,
                              verbs::MrKey lk, verbs::MrKey rk) -> Task<> {
      auto watch = c.device(1).watch_placement(d.addr(), 65536);
      co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                          .opcode = verbs::Opcode::kRdmaWrite,
                                          .sge = {s.addr(), 65536, lk},
                                          .remote_addr = d.addr(),
                                          .rkey = rk});
      co_await watch->wait();
    }(cluster, *qp0, src, dst, k0, k1));
    cluster.engine().run();
    events += cluster.engine().events_processed();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 65536);
  report_event_rate(state, events);
}
BENCHMARK(BM_IwarpRdmaWrite64K);

/// Steady-state MPI allreduce: 16 ranks, 4096 doubles, 64 eager slots
/// per peer. Cluster build, setup_mpi(), the first barrier, a warm-up
/// and the cluster's destruction run outside the timed loop; each
/// iteration is one allreduce over all ranks, and events_per_sec counts
/// only the events those allreduces dispatch.
///
/// The warm-up runs one untimed allreduce per receive slot of a verbs
/// ring. Every allreduce sends at least one message over each ring it
/// uses, and a ring's receives consume its slots in turn, so afterwards
/// every slot of every ring in use has been written once: no timed
/// allreduce meets a ring page for the first time, whose zeroing (or
/// page fault) would otherwise dominate a short timed run.
void BM_AllreduceSteadyState(benchmark::State& state, core::Network network) {
  constexpr int kRanks = 16;
  constexpr std::uint32_t kDoubles = 4096;
  core::NetworkProfile profile = core::profile(network);
  profile.mpi.eager_buffers = 64;  // keep the N^2 mesh memory bounded at 16 ranks
  core::Cluster cluster(kRanks, profile);
  std::vector<std::uint64_t> data, scratch;
  for (int r = 0; r < kRanks; ++r) {
    data.push_back(cluster.node(r).mem().alloc(kDoubles * sizeof(double), false).addr());
    scratch.push_back(cluster.node(r).mem().alloc(kDoubles * sizeof(double), false).addr());
  }
  for (int r = 0; r < kRanks; ++r) {
    cluster.engine().spawn([](core::Cluster& c, int me) -> Task<> {
      co_await c.setup_mpi();
      co_await c.mpi_rank(me).barrier();
    }(cluster, r));
  }
  cluster.engine().run();

  const auto allreduce = [&] {
    for (int r = 0; r < kRanks; ++r) {
      const auto i = static_cast<std::size_t>(r);
      cluster.engine().spawn([](mpi::Rank& rank, std::uint64_t d, std::uint64_t s) -> Task<> {
        co_await rank.allreduce_sum(d, s, kDoubles);
      }(cluster.mpi_rank(r), data[i], scratch[i]));
    }
    cluster.engine().run();
  };
  // ChVerbs posts eager_buffers + 2 * control_slots receives per ring.
  const std::size_t ring_slots = profile.mpi.eager_buffers + 2 * profile.mpi.control_slots;
  for (std::size_t i = 0; i < ring_slots; ++i) allreduce();

  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t before = cluster.engine().events_processed();
    allreduce();
    events += cluster.engine().events_processed() - before;
  }
  state.SetItemsProcessed(state.iterations());
  report_event_rate(state, events);
}
BENCHMARK_CAPTURE(BM_AllreduceSteadyState, iWARP, core::Network::kIwarp);
BENCHMARK_CAPTURE(BM_AllreduceSteadyState, IB, core::Network::kIb);
BENCHMARK_CAPTURE(BM_AllreduceSteadyState, MXoE, core::Network::kMxoe);
BENCHMARK_CAPTURE(BM_AllreduceSteadyState, MXoM, core::Network::kMxom);

}  // namespace

BENCHMARK_MAIN();
