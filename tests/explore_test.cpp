// FabricExplore tests: the SchedulePolicy seam, the controlled policy's
// record/replay contract, the DFS + reduction, the counterexample
// minimizer, the schedule fuzzer, and — the self-test the subsystem
// exists for — rediscovery of two deliberately re-introduced historical
// bugs behind the ib::HcaConfig mutation flags.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "explore/explorer.hpp"
#include "explore/scenarios.hpp"
#include "fault/plan.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"

namespace fabsim {
namespace {

using explore::ControlledPolicy;
using explore::ExploreBudget;
using explore::ExploreResult;
using explore::Explorer;
using explore::Finding;
using explore::FindingKind;
using explore::Mutation;
using explore::RunContext;
using explore::RunOutcome;
using explore::Scenario;
using explore::Schedule;

// ---------------------------------------------------------------------------
// SchedulePolicy seam: attaching the default policy must not perturb
// anything
// ---------------------------------------------------------------------------

/// A little workload with several same-timestamp ties: three waves of
/// scoped events plus an unscoped one per wave.
std::uint64_t run_toy_engine(SchedulePolicy* policy, std::vector<int>* order = nullptr) {
  Engine engine;
  if (policy != nullptr) engine.set_schedule_policy(policy);
  int tag = 0;
  for (int wave = 0; wave < 3; ++wave) {
    for (int node = 0; node < 3; ++node) {
      const int id = tag++;
      engine.post(us(wave + 1), /*scope=*/node, [order, id] {
        if (order != nullptr) order->push_back(id);
      });
    }
    const int id = tag++;
    engine.post(us(wave + 1), [order, id] {  // scope -1: conflicts with all
      if (order != nullptr) order->push_back(id);
    });
  }
  engine.run();
  return engine.run_digest();
}

TEST(ScheduleSeam, InsertionOrderPolicyIsByteIdenticalToNoPolicy) {
  std::vector<int> bare_order, policy_order, controlled_order;
  const std::uint64_t bare = run_toy_engine(nullptr, &bare_order);
  InsertionOrderPolicy insertion;
  const std::uint64_t with_policy = run_toy_engine(&insertion, &policy_order);
  ControlledPolicy controlled;  // empty prefix + default tail = index 0
  const std::uint64_t with_controlled = run_toy_engine(&controlled, &controlled_order);

  EXPECT_EQ(bare, with_policy) << "reifying the default tie-break must not change the digest";
  EXPECT_EQ(bare, with_controlled);
  EXPECT_EQ(bare_order, policy_order);
  EXPECT_EQ(bare_order, controlled_order);
  // Each 4-way wave is re-materialized after every dispatch, so it
  // yields decisions of arity 4, 3, 2 (choose() is skipped at arity 1).
  ASSERT_EQ(controlled.decisions().size(), 9u);
  for (std::size_t i = 0; i < controlled.decisions().size(); ++i) {
    EXPECT_EQ(controlled.decisions()[i].arity, 4u - i % 3) << "decision " << i;
    EXPECT_EQ(controlled.decisions()[i].chosen, 0u);
  }
}

TEST(ScheduleSeam, DefaultPolicyIsByteIdenticalOnAFullClusterRun) {
  // End-to-end version of the same invariant: a real cluster workload
  // (MX eager exchange with a dropped frame) under no policy vs. the
  // reified default.
  auto run = [](SchedulePolicy* policy) {
    core::Cluster cluster(2, core::mxoe_profile());
    if (policy != nullptr) cluster.engine().set_schedule_policy(policy);
    fault::FaultPlan plan;
    plan.nth_frame(1, fault::FaultAction::kDrop);
    cluster.engine().set_fault_injector(&plan);
    const std::uint32_t len = 4096;
    auto& src = cluster.node(0).mem().alloc(len, false);
    auto& dst = cluster.node(1).mem().alloc(len, false);
    cluster.engine().spawn([](core::Cluster& c, std::uint64_t s, std::uint32_t n) -> Task<> {
      auto request = co_await c.endpoint(0).isend(s, n, c.endpoint(1).port(), 7);
      co_await c.endpoint(0).wait(request);
    }(cluster, src.addr(), len));
    cluster.engine().spawn([](core::Cluster& c, std::uint64_t d, std::uint32_t n) -> Task<> {
      auto request = co_await c.endpoint(1).irecv(d, n, 7, ~0ull);
      co_await c.endpoint(1).wait(request);
    }(cluster, dst.addr(), len));
    cluster.engine().run();
    return std::pair{cluster.engine().run_digest(), cluster.engine().events_processed()};
  };
  const auto bare = run(nullptr);
  InsertionOrderPolicy insertion;
  const auto reified = run(&insertion);
  EXPECT_EQ(bare.first, reified.first);
  EXPECT_EQ(bare.second, reified.second);
}

TEST(ScheduleSeam, ControlledPolicyFlagsDivergentPrefix) {
  ControlledPolicy controlled({/*decision 0:*/ 9});  // arity is only 4
  std::vector<int> order;
  run_toy_engine(&controlled, &order);
  EXPECT_TRUE(controlled.diverged()) << "out-of-range prefix entries must be flagged";
  EXPECT_EQ(controlled.decisions().front().chosen, 0u) << "and clamped to the default";
}

TEST(ScheduleSeam, NonDefaultChoiceReordersCoEnabledEvents) {
  std::vector<int> default_order, flipped_order;
  run_toy_engine(nullptr, &default_order);
  ControlledPolicy flip({1});  // run the second-inserted event of wave 1 first
  const std::uint64_t flipped_digest = run_toy_engine(&flip, &flipped_order);
  EXPECT_NE(default_order, flipped_order);
  EXPECT_EQ(flipped_order[0], default_order[1]);
  EXPECT_NE(flipped_digest, run_toy_engine(nullptr)) << "the digest must witness the reorder";
}

/// A capture that counts its own moves.
struct MoveCount {
  explicit MoveCount(int* counter) : moves(counter) {}
  MoveCount(MoveCount&& other) noexcept : moves(other.moves) { ++*moves; }
  int* moves;
};

/// Always dispatches the last-inserted co-enabled event, never the head,
/// and records the scope labels of every ready set it is shown.
class LastPolicy final : public SchedulePolicy {
 public:
  std::size_t choose(const std::vector<ReadyEvent>& ready) override {
    std::vector<int> scopes;
    for (const ReadyEvent& event : ready) scopes.push_back(event.scope);
    seen.push_back(scopes);
    return ready.size() - 1;
  }
  std::vector<std::vector<int>> seen;
};

TEST(ScheduleSeam, PolicyReordersKeysNotPayloads) {
  // A policy reorders co-enabled events by their queue keys; payloads
  // stay in their slab slots, so a capture moves exactly as often as it
  // does with no policy attached: once, into its slot, where post()
  // builds it.
  auto run = [](SchedulePolicy* policy, std::vector<int>& order) {
    int moves = 0;
    Engine engine;
    engine.set_schedule_policy(policy);
    for (int i = 0; i < 4; ++i) {
      engine.post(us(1), /*scope=*/i,
                  [count = MoveCount(&moves), &order, i] { order.push_back(i); });
    }
    engine.run();
    return moves;
  };
  std::vector<int> bare_order, last_order;
  const int bare_moves = run(nullptr, bare_order);
  LastPolicy last;
  const int policy_moves = run(&last, last_order);
  EXPECT_EQ(bare_order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(last_order, (std::vector<int>{3, 2, 1, 0})) << "the policy picked non-head events";
  EXPECT_EQ(bare_moves, 4) << "each capture moves once, into its slot";
  EXPECT_EQ(policy_moves, bare_moves);
  // The ready sets carry each event's scope label from its slot.
  EXPECT_EQ(last.seen, (std::vector<std::vector<int>>{{0, 1, 2, 3}, {0, 1, 2}, {0, 1}}));
}

// ---------------------------------------------------------------------------
// Explorer on toy scenarios: bug finding, record/replay, minimization,
// reduction, fuzz determinism
// ---------------------------------------------------------------------------

/// A schedule-dependent bug: at t=2us two *conflicting* (unscoped)
/// events race, and only the non-default order trips the expectation.
/// The t=1us and t=3us waves are benign padding so the minimizer has
/// something to shrink.
Scenario racy_toy() {
  return Scenario{"racy_toy", [](RunContext& ctx) {
    Engine engine;
    ctx.arm(engine);
    auto writer_ran = std::make_shared<bool>(false);
    auto reader_saw_gap = std::make_shared<bool>(false);
    for (int node = 0; node < 2; ++node) engine.post(us(1), node, [] {});
    engine.post(us(2), [writer_ran] { *writer_ran = true; });
    engine.post(us(2), [writer_ran, reader_saw_gap] {
      if (!*writer_ran) *reader_saw_gap = true;  // reader overtook the writer
    });
    for (int node = 0; node < 2; ++node) engine.post(us(3), node, [] {});
    engine.run();
    ctx.expect(!*reader_saw_gap, "reader must never observe the pre-write state");
    ctx.finish(engine);
  }};
}

/// Fully commuting ties only (distinct scopes, no shared state): clean
/// under every schedule, and every alternative is prunable.
Scenario commuting_toy() {
  return Scenario{"commuting_toy", [](RunContext& ctx) {
    Engine engine;
    ctx.arm(engine);
    for (int wave = 1; wave <= 3; ++wave) {
      for (int node = 0; node < 3; ++node) engine.post(us(wave), node, [] {});
    }
    engine.run();
    ctx.finish(engine);
  }};
}

TEST(Explorer, FindsScheduleDependentBugAndMinimizesIt) {
  ExploreBudget budget;
  budget.max_runs = 64;
  Explorer explorer(racy_toy(), budget);
  const ExploreResult result = explorer.explore();

  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& finding = result.findings.front();
  EXPECT_EQ(finding.kind, FindingKind::kExpectation);
  EXPECT_EQ(finding.rule, "scenario_expectation");
  EXPECT_TRUE(finding.replay_confirmed);
  // Decision 0 is the benign t=1 wave, decision 1 the racing pair: the
  // minimized counterexample is exactly "default, then flip".
  EXPECT_EQ(finding.schedule.choices, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_LE(finding.schedule.choices.size(), finding.original_choices + 1);
}

TEST(Explorer, RecordedScheduleReplaysToIdenticalRun) {
  Explorer explorer(racy_toy(), ExploreBudget{});
  const RunOutcome base = explorer.run_schedule({});
  ASSERT_FALSE(base.failed) << "default order runs writer before reader";
  const RunOutcome again = explorer.run_schedule(base.choices);
  EXPECT_EQ(base.digest, again.digest);
  EXPECT_EQ(base.events, again.events);
  EXPECT_EQ(base.choices, again.choices);
  EXPECT_FALSE(again.diverged);
}

TEST(Explorer, CounterexampleArtifactRoundTripsThroughJsonAndReplays) {
  ExploreBudget budget;
  budget.max_runs = 64;
  Explorer explorer(racy_toy(), budget);
  const ExploreResult result = explorer.explore();
  ASSERT_FALSE(result.findings.empty());
  const Schedule& schedule = result.findings.front().schedule;

  const Schedule parsed = Schedule::from_json(schedule.to_json());
  EXPECT_EQ(parsed.scenario, schedule.scenario);
  EXPECT_EQ(parsed.kind, schedule.kind);
  EXPECT_EQ(parsed.rule, schedule.rule);
  EXPECT_EQ(parsed.digest, schedule.digest);
  EXPECT_EQ(parsed.events, schedule.events);
  EXPECT_EQ(parsed.choices, schedule.choices);
  EXPECT_EQ(parsed.arities, schedule.arities);

  const RunOutcome replayed = Explorer::replay(racy_toy(), parsed);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.kind, FindingKind::kExpectation);
  EXPECT_EQ(replayed.digest, parsed.digest) << "replay must be bit-for-bit";
}

TEST(Explorer, ReductionPrunesCommutingAlternativesAndStaysClean) {
  ExploreBudget with_reduction;
  with_reduction.max_runs = 256;
  Explorer reduced(commuting_toy(), with_reduction);
  const ExploreResult r1 = reduced.explore();
  EXPECT_TRUE(r1.clean());
  EXPECT_TRUE(r1.stats.frontier_exhausted);
  EXPECT_GT(r1.stats.pruned, 0u) << "every non-default order of disjoint-node events is redundant";

  ExploreBudget without = with_reduction;
  without.reduction = false;
  Explorer full(commuting_toy(), without);
  const ExploreResult r2 = full.explore();
  EXPECT_TRUE(r2.clean());
  EXPECT_EQ(r2.stats.pruned, 0u);
  EXPECT_GT(r2.stats.enqueued, r1.stats.enqueued)
      << "disabling the reduction must strictly enlarge the explored set";
}

TEST(Explorer, ReductionDoesNotPruneConflictingEvents) {
  // The racy pair is unscoped (-1): the reduction must keep both orders,
  // so the bug is found even with reduction enabled (it is, above) and
  // the pruned counter never counts a conflicting pair. Here: force a
  // run where the only ties are conflicting and check nothing is pruned.
  Scenario conflicting{"conflicting_toy", [](RunContext& ctx) {
    Engine engine;
    ctx.arm(engine);
    engine.post(us(1), [] {});
    engine.post(us(1), [] {});
    engine.run();
    ctx.finish(engine);
  }};
  ExploreBudget budget;
  budget.max_runs = 16;
  Explorer explorer(std::move(conflicting), budget);
  const ExploreResult result = explorer.explore();
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.stats.pruned, 0u);
  EXPECT_EQ(result.stats.enqueued, 1u) << "the one alternative order must be explored";
}

TEST(Explorer, FuzzerIsDeterministicUnderAFixedSeed) {
  Explorer explorer(commuting_toy(), ExploreBudget{});
  const RunOutcome a = explorer.run_schedule({}, ControlledPolicy::Tail::kRandom, 1234);
  const RunOutcome b = explorer.run_schedule({}, ControlledPolicy::Tail::kRandom, 1234);
  EXPECT_EQ(a.choices, b.choices);
  EXPECT_EQ(a.digest, b.digest);

  // A different seed must be able to pick a different walk (9 three-way
  // ties: the chance of a collision is negligible, and determinism above
  // is what the test pins).
  const RunOutcome c = explorer.run_schedule({}, ControlledPolicy::Tail::kRandom, 99);
  EXPECT_NE(a.choices, c.choices);

  // A fuzz run is replayable: its recorded trace, replayed as a prefix
  // with the default tail, reproduces the identical run.
  const RunOutcome replay = explorer.run_schedule(a.choices);
  EXPECT_EQ(replay.digest, a.digest);
  EXPECT_EQ(replay.choices, a.choices);
}

TEST(Explorer, DetectsDeadlockAsAFinding) {
  Scenario stuck{"stuck_toy", [](RunContext& ctx) {
    Engine engine;
    ctx.arm(engine);
    // A process that waits on an event nobody ever triggers.
    auto gate = std::make_shared<Event>(engine);
    engine.spawn([](std::shared_ptr<Event> g) -> Task<> { co_await g->wait(); }(gate));
    engine.run();
    ctx.finish(engine);
  }};
  Explorer explorer(std::move(stuck), ExploreBudget{});
  const ExploreResult result = explorer.explore();
  ASSERT_FALSE(result.findings.empty());
  EXPECT_EQ(result.findings.front().kind, FindingKind::kDeadlock);
  EXPECT_EQ(result.findings.front().rule, "lost_wakeup");
}

// ---------------------------------------------------------------------------
// Mutation self-test: the explorer must rediscover both re-introduced
// historical bugs within the default budget
// ---------------------------------------------------------------------------

ExploreBudget mutation_budget() {
  ExploreBudget budget;
  budget.max_runs = 32;  // both bugs bite on the baseline schedule
  budget.fuzz_runs = 0;
  return budget;
}

TEST(MutationSelfTest, RediscoversStrandedReadHangAsDeadlock) {
  Explorer explorer(
      explore::find_scenario("ib_read_response_loss", Mutation::kStrandPendingReads),
      mutation_budget());
  const ExploreResult result = explorer.explore();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& finding = result.findings.front();
  EXPECT_EQ(finding.kind, FindingKind::kDeadlock);
  EXPECT_EQ(finding.rule, "lost_wakeup");
  EXPECT_TRUE(finding.replay_confirmed);
  EXPECT_TRUE(finding.schedule.choices.empty())
      << "the hang needs no schedule steering: minimization must shrink to the default";

  const RunOutcome replayed = Explorer::replay(
      explore::find_scenario("ib_read_response_loss", Mutation::kStrandPendingReads),
      finding.schedule);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.kind, FindingKind::kDeadlock);
  EXPECT_EQ(replayed.digest, finding.schedule.digest);
}

TEST(MutationSelfTest, RediscoversDroppedFinalAckAsExpectationFailure) {
  Explorer explorer(explore::find_scenario("ib_send_loss", Mutation::kDropFinalAck),
                    mutation_budget());
  const ExploreResult result = explorer.explore();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& finding = result.findings.front();
  EXPECT_EQ(finding.kind, FindingKind::kExpectation);
  EXPECT_EQ(finding.rule, "scenario_expectation");
  EXPECT_TRUE(finding.replay_confirmed);

  const RunOutcome replayed = Explorer::replay(
      explore::find_scenario("ib_send_loss", Mutation::kDropFinalAck), finding.schedule);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.kind, FindingKind::kExpectation);
}

TEST(MutationSelfTest, UnmutatedScenariosExploreClean) {
  for (const char* name : {"ib_send_loss", "ib_read_response_loss"}) {
    Explorer explorer(explore::find_scenario(name), mutation_budget());
    const ExploreResult result = explorer.explore();
    EXPECT_TRUE(result.clean()) << name << " must be clean without a mutation armed";
  }
}

TEST(MutationSelfTest, MutationNamesRoundTrip) {
  for (const Mutation m :
       {Mutation::kNone, Mutation::kStrandPendingReads, Mutation::kDropFinalAck}) {
    Mutation parsed = Mutation::kNone;
    ASSERT_TRUE(explore::mutation_from_name(explore::mutation_name(m), parsed));
    EXPECT_EQ(parsed, m);
  }
  Mutation out = Mutation::kNone;
  EXPECT_FALSE(explore::mutation_from_name("bogus", out));
}

}  // namespace
}  // namespace fabsim
