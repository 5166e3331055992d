// FabricHot-Check, dynamic half (src/sim/hot.hpp + sim/inplace_fn.hpp):
// InplaceFn move/destroy semantics and the compile-time over-size
// rejection, the InvariantMonitor's per-dispatch allocation budget with
// amortized queue growth excused, the detached/attached digest-
// transparency pin, and the mutation self-test — the deliberately
// allocating FABSIM_MUTATION_HOTALLOC seam in Engine::dispatch must be
// trapped by the monitor on live events, proving the runtime gate can
// actually fail. scripts/hotpath_check.py --mutation proves the same
// for the static half. The budget's suite keeps its historical name so
// the test IDs stay stable.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/invariant.hpp"
#include "sim/engine.hpp"
#include "sim/inplace_fn.hpp"
#include "sim/prof.hpp"

namespace fabsim {
namespace {

// --- InplaceFn semantics ----------------------------------------------

TEST(InplaceFn, InvokesAndReportsEngagement) {
  sim::EventFn empty;
  EXPECT_FALSE(static_cast<bool>(empty));

  int hits = 0;
  sim::EventFn fn([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceFn, MoveTransfersTheCallableAndEmptiesTheSource) {
  int hits = 0;
  sim::EventFn a([&hits] { ++hits; });
  sim::EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): probing moved-from state
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  sim::EventFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move): probing moved-from state
  ASSERT_TRUE(static_cast<bool>(c));
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceFn, DestroysTheCaptureExactlyOnce) {
  auto token = std::make_shared<int>(7);
  EXPECT_EQ(token.use_count(), 1);
  {
    sim::EventFn holder([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    sim::EventFn moved(std::move(holder));
    EXPECT_EQ(token.use_count(), 2) << "relocation must not duplicate the capture";
    // Move-assign over an engaged target destroys the old capture.
    auto other = std::make_shared<int>(9);
    sim::EventFn target([other] { (void)*other; });
    EXPECT_EQ(other.use_count(), 2);
    target = std::move(moved);
    EXPECT_EQ(other.use_count(), 1) << "assigned-over capture must be destroyed";
    EXPECT_EQ(token.use_count(), 2);
    // emplace() over an engaged wrapper destroys the old capture too,
    // and reset() empties it.
    target.emplace([other] { (void)*other; });
    EXPECT_EQ(token.use_count(), 1) << "emplaced-over capture must be destroyed";
    EXPECT_EQ(other.use_count(), 2);
    target.reset();
    EXPECT_FALSE(static_cast<bool>(target));
    EXPECT_EQ(other.use_count(), 1) << "reset must destroy the capture";
  }
  EXPECT_EQ(token.use_count(), 1) << "scope exit must destroy the capture";
}

/// Whether Engine::post, with and without a scope label, accepts an F.
template <typename F>
concept Postable = requires(Engine& engine, F fn) {
  engine.post(Time{0}, std::move(fn));
  engine.post(Time{0}, /*scope=*/0, std::move(fn));
};

TEST(InplaceFn, OversizeCallablesAreRejectedAtCompileTime) {
  // A capture that fits is constructible; one byte past the inline
  // capacity is not — the deleted constructor turns a silently
  // heap-spilling std::function into a build error at the post site.
  struct Fits {
    unsigned char payload[sim::kEventFnCapacity];
    void operator()() const {}
  };
  struct Oversize {
    unsigned char payload[sim::kEventFnCapacity + 1];
    void operator()() const {}
  };
  // Storage is pointer-aligned: a capture that needs more is rejected
  // the same way.
  struct alignas(16) OverAligned {
    unsigned char payload[16];
    void operator()() const {}
  };
  static_assert(std::is_constructible_v<sim::EventFn, Fits>);
  static_assert(!std::is_constructible_v<sim::EventFn, Oversize>);
  static_assert(!std::is_constructible_v<sim::EventFn, OverAligned>);
  EXPECT_TRUE((std::is_constructible_v<sim::EventFn, Fits>));
  EXPECT_FALSE((std::is_constructible_v<sim::EventFn, Oversize>));
  // Engine::post builds the callable in its queue slot; the same
  // captures pass or fail there.
  static_assert(Postable<Fits>);
  static_assert(!Postable<Oversize>);
  static_assert(!Postable<OverAligned>);
}

// --- Allocation budget unit semantics ---------------------------------

TEST(HotpathAuditor, TrapsTrackedAllocationInsideAnEventBracket) {
  check::InvariantMonitor monitor(/*fatal=*/false);

  // Allocation outside any event bracket (setup code) is not audited.
  {
    std::vector<int, prof::CountingAllocator<int>> setup;
    setup.resize(64);
  }
  EXPECT_EQ(monitor.hot_violations(), 0u);

  monitor.begin_event(us(1), /*scope=*/-1);
  {
    std::vector<int, prof::CountingAllocator<int>> inside;
    inside.resize(64);
  }
  monitor.end_event();
  EXPECT_EQ(monitor.hot_checks(), 1u);
  EXPECT_EQ(monitor.hot_violations(), 1u);
  ASSERT_EQ(monitor.violation_count(), 1u);
  EXPECT_EQ(monitor.violations().front().rule, "hot_alloc_budget");
}

TEST(HotpathAuditor, ExcusedGrowthStaysWithinBudget) {
  check::InvariantMonitor monitor(/*fatal=*/false);

  monitor.begin_event(us(1), /*scope=*/-1);
  {
    std::vector<int, prof::CountingAllocator<int>> growth;
    growth.reserve(16);  // exactly one tracked allocation
    monitor.excuse_growth(1);
  }
  monitor.end_event();
  EXPECT_EQ(monitor.hot_checks(), 1u);
  EXPECT_EQ(monitor.hot_violations(), 0u) << "excused growth must not trip the budget";
}

TEST(HotpathAuditor, ThrowsWithoutMonitorAndIsInertWhenDetached) {
  check::InvariantMonitor monitor;  // fatal: the first violation throws
  monitor.begin_event(us(1), /*scope=*/-1);
  {
    std::vector<int, prof::CountingAllocator<int>> v;
    v.resize(8);
  }
  EXPECT_THROW(monitor.end_event(), check::InvariantViolationError);
}

// --- Engine integration ------------------------------------------------

struct ChainRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
};

// Chained posts from inside callbacks: the queue grows *during*
// dispatch, so the amortized-growth excusal is exercised on the real
// hot path, not just in the unit test above.
ChainRun run_chain(bool attach_monitor, bool arm_mutation) {
  Engine engine;
  check::InvariantMonitor monitor(/*fatal=*/false);
  if (attach_monitor) engine.set_monitor(&monitor);
  engine.set_mutation_hotalloc(arm_mutation);

  struct Chain {
    Engine* engine;
    int remaining;
    void fire() {
      if (remaining-- <= 0) return;
      // Two children per firing: the queue depth ramps, forcing several
      // backing-store growths mid-dispatch.
      engine->post(engine->now() + us(1), [this] { fire(); });
      engine->post(engine->now() + us(2), [this] { fire(); });
    }
  };
  Chain chain{&engine, 2000};
  engine.post(us(1), [&chain] { chain.fire(); });
  engine.run();

  return ChainRun{engine.run_digest(), engine.events_processed(), monitor.hot_checks(),
                  monitor.hot_violations()};
}

// The budget is an observer: attaching the monitor must not perturb the
// schedule. Same workload with and without it -> byte-identical digest.
TEST(HotpathAuditor, AttachedAuditorLeavesRunDigestIdentical) {
  const ChainRun plain = run_chain(/*attach_monitor=*/false, /*arm_mutation=*/false);
  const ChainRun audited = run_chain(/*attach_monitor=*/true, /*arm_mutation=*/false);
  EXPECT_EQ(plain.digest, audited.digest);
  EXPECT_EQ(plain.events, audited.events);
  EXPECT_EQ(audited.checks, audited.events) << "every dispatch must be bracketed";
  EXPECT_EQ(audited.violations, 0u)
      << "steady-state dispatch must stay within the zero-allocation budget "
         "(queue growth excused)";
}

// The mutation self-test: arm the deliberately allocating seam in
// Engine::dispatch; the monitor's budget must trap every event.
TEST(HotpathAuditor, CatchesArmedHotallocMutation) {
  const ChainRun mutated = run_chain(/*attach_monitor=*/true, /*arm_mutation=*/true);
  EXPECT_GT(mutated.violations, 0u);
  EXPECT_EQ(mutated.violations, mutated.events)
      << "the armed seam allocates on every dispatch";
}

// The acceptance number for ROADMAP item 1: steady-state dispatch is
// zero-allocation as measured by the profiler's per-event tally.
TEST(HotpathProfiler, AllocsPerEventIsZeroInSteadyState) {
  Engine engine;
  Profiler profiler;
  engine.set_profiler(&profiler);
  int ran = 0;
  for (int i = 0; i < 10'000; ++i) {
    engine.post(us(static_cast<double>(i)), [&ran] { ++ran; });
  }
  engine.run();
  EXPECT_EQ(ran, 10'000);
  EXPECT_EQ(profiler.alloc_events(), 10'000u);
  EXPECT_EQ(profiler.allocs_per_event(), 0.0)
      << "dispatch_allocs=" << profiler.dispatch_allocs()
      << " growth=" << profiler.dispatch_growth_allocs();
}

TEST(HotpathProfiler, GrowthDuringDispatchIsAttributedNotCharged) {
  Engine engine;
  Profiler profiler;
  engine.set_profiler(&profiler);
  // Posting from inside callbacks grows the queue mid-dispatch; the
  // growth is visible in the tally but excluded from allocs_per_event.
  struct Chain {
    Engine* engine;
    int remaining;
    void fire() {
      if (remaining-- <= 0) return;
      engine->post(engine->now() + us(1), [this] { fire(); });
      engine->post(engine->now() + us(2), [this] { fire(); });
    }
  };
  Chain chain{&engine, 5000};
  engine.post(us(1), [&chain] { chain.fire(); });
  engine.run();
  EXPECT_GT(profiler.queue_growths(), 0u) << "the ramp must have grown the queue";
  EXPECT_EQ(profiler.allocs_per_event(), 0.0);
  EXPECT_EQ(profiler.dispatch_allocs(), profiler.dispatch_growth_allocs())
      << "the only tracked allocations during dispatch are queue growths";
}

}  // namespace
}  // namespace fabsim
