// FabricProf tests: the host-time profiler must observe, never perturb.
//
// The load-bearing properties, in order:
//   * a detached profiler (the default) leaves the simulated timeline
//     byte-identical — same digest, same final time, same event count;
//   * an *attached* profiler also leaves it byte-identical, at every
//     sampling stride — the sampling decision is a counter test, never
//     a clock read, so host-time measurement cannot leak into
//     simulated results;
//   * the prof.* counters actually populate and obey their conservation
//     laws (pops == posts + requeues when the queue drains);
//   * the counting-allocator seam tallies per thread, and the profiler
//     publishes only its attach windows' share of it;
//   * the Chrome-trace host lanes round-trip through minijson.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "sim/prof.hpp"
#include "sim/sync.hpp"
#include "sim/trace_export.hpp"

namespace fabsim {
namespace {

struct Fingerprint {
  Time finished;
  std::uint64_t digest;
  std::uint64_t events;
};

/// A mixed workload: raw posts, a sleep chain, and a mailbox ping-pong —
/// enough co-enabled events and coroutine churn to make any profiler
/// perturbation show up in the digest.
Fingerprint run_workload(Profiler* profiler) {
  Engine engine;
  if (profiler != nullptr) engine.set_profiler(profiler);
  std::uint64_t sink = 0;
  for (int i = 0; i < 500; ++i) {
    engine.post(us(static_cast<double>(i % 50)), /*scope=*/i % 4,
                [&sink, i] { sink += static_cast<std::uint64_t>(i); });
  }
  engine.spawn([](Engine& e) -> Task<> {
    for (int i = 0; i < 200; ++i) co_await e.sleep(ns(100));
  }(engine));
  Mailbox<int> a(engine), b(engine);
  engine.spawn([](Mailbox<int>& rx, Mailbox<int>& tx) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      tx.send(i);
      co_await rx.recv();
    }
  }(a, b));
  engine.spawn([](Mailbox<int>& rx, Mailbox<int>& tx) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      const int v = co_await rx.recv();
      tx.send(v);
    }
  }(b, a));
  engine.run();
  return {engine.now(), engine.run_digest(), engine.events_processed()};
}

TEST(Prof, DetachedAndAttachedRunsAreByteIdentical) {
  const Fingerprint detached = run_workload(nullptr);
  Profiler profiler;
  const Fingerprint attached = run_workload(&profiler);
  EXPECT_EQ(detached.finished, attached.finished);
  EXPECT_EQ(detached.events, attached.events);
  EXPECT_EQ(detached.digest, attached.digest)
      << "an attached profiler must observe, never perturb";
}

TEST(Prof, SamplingStrideNeverPerturbsSimulatedResults) {
  const Fingerprint baseline = run_workload(nullptr);
  for (std::uint32_t stride : {1u, 7u, 64u, 1024u}) {
    Profiler profiler(Profiler::Config{.sample_stride = stride});
    const Fingerprint fp = run_workload(&profiler);
    EXPECT_EQ(baseline.digest, fp.digest) << "stride " << stride;
    EXPECT_EQ(baseline.finished, fp.finished) << "stride " << stride;
  }
}

TEST(Prof, CountersPopulateAndConserve) {
  Profiler profiler(Profiler::Config{.sample_stride = 1});
  const Fingerprint fp = run_workload(&profiler);
  EXPECT_GT(profiler.posts(), 0u);
  // Every posted event was eventually dispatched; no policy, no requeues.
  EXPECT_EQ(profiler.pops(), profiler.posts() + profiler.requeues());
  EXPECT_EQ(profiler.requeues(), 0u);
  EXPECT_GT(profiler.peak_depth(), 0u);
  EXPECT_GT(profiler.heapify_cost(), 0u);
  // Stride 1: every dispatch sampled.
  EXPECT_EQ(profiler.sampled_dispatches(), fp.events);
  EXPECT_EQ(profiler.events_dispatched(), fp.events);
  EXPECT_GT(profiler.run_host_ns(), 0u);
  EXPECT_GT(profiler.events_per_sec(), 0.0);
}

TEST(Prof, PerScopeAttributionSeesThePostedScopes) {
  Profiler profiler(Profiler::Config{.sample_stride = 1});
  run_workload(&profiler);
  // The raw posts use scopes 0..3; coroutine resumes post at scope -1.
  ASSERT_FALSE(profiler.by_scope().empty());
  EXPECT_TRUE(profiler.by_scope().count(-1));
  EXPECT_TRUE(profiler.by_scope().count(0));
  EXPECT_TRUE(profiler.by_scope().count(3));
  std::uint64_t samples = 0;
  for (const auto& [scope, tally] : profiler.by_scope()) samples += tally.first;
  EXPECT_EQ(samples, profiler.sampled_dispatches());
}

TEST(Prof, PublishExportsProfTaxonomy) {
  Profiler profiler(Profiler::Config{.sample_stride = 4});
  run_workload(&profiler);
  MetricRegistry registry;
  profiler.publish(registry);
  EXPECT_EQ(registry.counter_value("prof.queue.posts"), profiler.posts());
  EXPECT_EQ(registry.counter_value("prof.queue.pops"), profiler.pops());
  EXPECT_EQ(registry.counter_value("prof.queue.peak_depth"), profiler.peak_depth());
  EXPECT_EQ(registry.counter_value("prof.queue.heapify_cost"), profiler.heapify_cost());
  EXPECT_EQ(registry.counter_value("prof.dispatch.stride"), 4u);
  EXPECT_EQ(registry.counter_value("prof.dispatch.sampled"), profiler.sampled_dispatches());
  EXPECT_EQ(registry.counter_value("prof.host.events"), profiler.events_dispatched());
  EXPECT_TRUE(registry.has_counter("prof.dispatch.shared.ns"));
  EXPECT_TRUE(registry.has_counter("prof.dispatch.node0.samples"));
  EXPECT_TRUE(registry.has_counter("prof.alloc.allocs"));
  EXPECT_GE(registry.gauge_max("prof.host.events_per_sec"), 0.0);
}

TEST(Prof, PeakDepthMatchesKnownBacklog) {
  Profiler profiler;
  Engine engine;
  engine.set_profiler(&profiler);
  for (int i = 0; i < 100; ++i) engine.post(us(static_cast<double>(i + 1)), [] {});
  EXPECT_EQ(profiler.peak_depth(), 100u);
  engine.run();
  EXPECT_EQ(profiler.pops(), 100u);
}

TEST(Prof, SliceRetentionIsBoundedByConfig) {
  Profiler profiler(Profiler::Config{.sample_stride = 1, .max_slices = 8});
  run_workload(&profiler);
  EXPECT_EQ(profiler.slices().size(), 8u);
  EXPECT_GT(profiler.slices_dropped(), 0u);
  // The aggregates keep counting past the slice cap.
  EXPECT_EQ(profiler.sampled_dispatches(), profiler.slices().size() + profiler.slices_dropped());
}

TEST(Prof, PolicyRequeuesAreAccounted) {
  // With a policy attached, materializing a co-enabled set pops every
  // same-time event and requeues the not-chosen ones: pops must equal
  // posts + requeues once the queue drains.
  Profiler profiler;
  InsertionOrderPolicy policy;
  Engine engine;
  engine.set_profiler(&profiler);
  engine.set_schedule_policy(&policy);
  int ran = 0;
  for (int i = 0; i < 4; ++i) engine.post(us(1), /*scope=*/i, [&ran] { ++ran; });
  engine.run();
  EXPECT_EQ(ran, 4);
  EXPECT_GT(profiler.requeues(), 0u);
  EXPECT_EQ(profiler.pops(), profiler.posts() + profiler.requeues());
}

TEST(Prof, CountingAllocatorTalliesOnlyWhileTracking) {
  const prof::AllocStats before = prof::alloc_stats();
  {
    std::vector<int, prof::CountingAllocator<int>> tracked;
    tracked.resize(1024);
  }
  const prof::AllocStats after = prof::alloc_stats();
  EXPECT_GT(after.allocs, before.allocs);
  EXPECT_GE(after.bytes_allocated - before.bytes_allocated, 1024 * sizeof(int));
  EXPECT_EQ(after.allocs - before.allocs, after.frees - before.frees)
      << "vector destruction returns every tracked allocation";
}

TEST(Prof, CountingAllocatorTallyIsPerThread) {
  const prof::AllocStats before = prof::alloc_stats();
  std::uint64_t other_thread_allocs = 0;
  std::thread worker([&other_thread_allocs] {
    const std::uint64_t start = prof::alloc_stats().allocs;
    {
      std::vector<int, prof::CountingAllocator<int>> churn;
      churn.resize(1024);
    }
    other_thread_allocs = prof::alloc_stats().allocs - start;
  });
  worker.join();
  EXPECT_GT(other_thread_allocs, 0u);
  EXPECT_EQ(prof::alloc_stats().allocs, before.allocs)
      << "another thread's allocations must not reach this thread's tally";
}

TEST(Prof, AllocDeltaCountsOnlyTheAttachWindows) {
  // Churn before attach must not appear in the profiler's delta.
  {
    Engine warmup;
    for (int i = 0; i < 1000; ++i) warmup.post(us(static_cast<double>(i)), [] {});
    warmup.run();
  }
  Profiler profiler;
  {
    Engine engine;
    engine.set_profiler(&profiler);
    for (int i = 0; i < 1000; ++i) engine.post(us(static_cast<double>(i)), [] {});
    engine.run();
  }  // engine death detaches; the window's tally is folded and kept
  const prof::AllocStats delta = profiler.alloc_delta();
  EXPECT_GT(delta.allocs, 0u) << "queue growth for 1000 posted events must be visible";
  EXPECT_GT(delta.bytes_allocated, 0u);

  // A second attach window accumulates on top instead of rebaselining.
  {
    Engine engine;
    engine.set_profiler(&profiler);
    for (int i = 0; i < 1000; ++i) engine.post(us(static_cast<double>(i)), [] {});
    engine.run();
  }
  EXPECT_GE(profiler.alloc_delta().allocs, delta.allocs);
}

TEST(Prof, ChromeTraceHostLanesRoundTripThroughMinijson) {
  Tracer tracer;
  Profiler profiler(Profiler::Config{.sample_stride = 1});
  Engine engine;
  engine.set_tracer(&tracer);
  engine.set_profiler(&profiler);
  for (int i = 0; i < 10; ++i) {
    engine.post(us(static_cast<double>(i)), /*scope=*/i % 2, [&engine, i] {
      engine.trace(TraceCategory::kHost, i % 2, [i] { return "evt" + std::to_string(i); });
    });
  }
  engine.run();
  ASSERT_GT(profiler.slices().size(), 0u);

  const std::string doc = chrome_trace_json(tracer, &profiler);
  const minijson::Value root = minijson::parse(doc);
  const minijson::Array& events = root.at("traceEvents").as_array();

  std::size_t host_slices = 0;
  bool host_process_named = false;
  bool sim_instants_present = false;
  for (const minijson::Value& event : events) {
    const std::string ph = event.at("ph").as_string();
    if (ph == "M" && event.at("name").as_string() == "process_name" &&
        static_cast<int>(event.at("pid").as_number()) == kHostProfilePid) {
      host_process_named = event.at("args").at("name").as_string() == "host (profiler)";
    }
    if (ph == "X" && event.has("cat") && event.at("cat").as_string() == "prof") {
      ++host_slices;
      EXPECT_GE(event.at("dur").as_number(), 0.0);
      EXPECT_TRUE(event.at("args").has("sim_us"));
      EXPECT_EQ(static_cast<int>(event.at("pid").as_number()), kHostProfilePid);
    }
    if (ph == "i") sim_instants_present = true;
  }
  EXPECT_TRUE(host_process_named);
  EXPECT_TRUE(sim_instants_present) << "sim-time lanes must survive next to the host lanes";
  EXPECT_EQ(host_slices, profiler.slices().size());
}

TEST(Prof, ClusterAttachPublishesProfIntoCollectedMetrics) {
  core::Cluster cluster(2, core::Network::kIwarp);
  Profiler profiler;
  cluster.attach_profiler(profiler);
  cluster.engine().spawn([](Engine& e) -> Task<> {
    for (int i = 0; i < 50; ++i) co_await e.sleep(us(1));
  }(cluster.engine()));
  cluster.engine().run();
  MetricRegistry registry;
  cluster.collect_metrics(registry);
  EXPECT_GT(registry.counter_value("prof.queue.posts"), 0u);
  EXPECT_GT(registry.counter_value("prof.host.events"), 0u);
  EXPECT_GT(registry.counter_value("sim.events"), 0u);
}

TEST(Prof, ResetClearsEverything) {
  Profiler profiler(Profiler::Config{.sample_stride = 1});
  run_workload(&profiler);
  ASSERT_GT(profiler.posts(), 0u);
  profiler.reset();
  EXPECT_EQ(profiler.posts(), 0u);
  EXPECT_EQ(profiler.sampled_dispatches(), 0u);
  EXPECT_EQ(profiler.events_dispatched(), 0u);
  EXPECT_TRUE(profiler.slices().empty());
  EXPECT_EQ(profiler.alloc_delta().allocs, 0u);
}

}  // namespace
}  // namespace fabsim
