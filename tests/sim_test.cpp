// Unit tests for the discrete-event engine, coroutine tasks, sync
// primitives, and timed resources.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/schedule.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace fabsim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(ns(1), 1000u);
  EXPECT_EQ(us(1), 1'000'000u);
  EXPECT_EQ(us(9.78), 9'780'000u);
  EXPECT_DOUBLE_EQ(to_us(us(12.5)), 12.5);
}

TEST(Rate, BandwidthMath) {
  const Rate r = Rate::mb_per_sec(1000.0);  // 1 GB/s => 1 ns/byte
  EXPECT_EQ(r.bytes_time(1), ns(1));
  EXPECT_EQ(r.bytes_time(1'000'000), ms(1));
  const Rate ten_gig = Rate::gbit_per_sec(10.0);  // 1250 MB/s => 0.8 ns/byte
  EXPECT_EQ(ten_gig.bytes_time(1000), ns(800));
  EXPECT_NEAR(ten_gig.mb_per_sec_value(), 1250.0, 1e-9);
}

TEST(Engine, SleepAdvancesTime) {
  Engine engine;
  Time woke = 0;
  engine.spawn([](Engine& e, Time& w) -> Task<> {
    co_await e.sleep(us(5));
    w = e.now();
  }(engine, woke));
  engine.run();
  EXPECT_EQ(woke, us(5));
  EXPECT_EQ(engine.live_processes(), 0u);
}

TEST(Engine, SameTimeEventsRunInPostOrder) {
  // 300 ties fill more than one payload block and several heap levels.
  for (const int count : {5, 300}) {
    Engine engine;
    std::vector<int> order, expected;
    for (int i = 0; i < count; ++i) {
      engine.post(us(1), [i, &order] { order.push_back(i); });
      expected.push_back(i);
    }
    engine.run();
    EXPECT_EQ(order, expected) << count << " ties";
  }
}

/// The two stream shapes of the queue's order test, about 30,000 posts
/// each.
/// - kBranching: 16,384 prefilled events on a coarse time grid (so many
///   share a timestamp), and callbacks that post 0-2 more, some at now().
/// - kPipelines: the traffic the queue's run merge is built for. Eight
///   pipelines post windows of 1-24 events in increasing time order,
///   interleaved with each other, and a fired event may post its
///   pipeline's next window: runs end and restart. The prefill opens
///   with 2,048 posts at decreasing times, each earlier than every
///   queued event, so each starts a run; callbacks add shorter
///   decreasing bursts.
enum class StreamShape { kBranching, kPipelines };

/// A seeded stream of one shape. It runs through run_until boundaries,
/// then to the end. Returns the post index of each dispatched event, in
/// dispatch order, and the (at, post index) of every post.
struct DeepStream {
  std::vector<std::uint64_t> dispatched;
  std::vector<std::pair<Time, std::uint64_t>> posted;
  std::uint64_t digest = 0;
  bool dispatched_past_boundary = false;
};

DeepStream run_deep_stream(SchedulePolicy* policy, StreamShape shape) {
  struct Driver {
    Engine engine;
    Xoshiro256 rng{20261020};
    StreamShape shape;
    DeepStream out;
    Time boundary = 0;
    std::array<Time, 8> pipe_tail{};  ///< each pipeline's latest post
    void post(Time at, int pipe) {
      const std::uint64_t id = out.posted.size();
      out.posted.emplace_back(at, id);
      engine.post(at, static_cast<int>(id % 4) - 1, [this, id, pipe] { fire(id, pipe); });
    }
    /// One window of `pipe`: posts 0-3 grid steps apart, from no earlier
    /// than the pipeline's latest post.
    void post_window(int pipe) {
      Time at = std::max(engine.now(), pipe_tail[pipe]);
      for (std::uint64_t n = 1 + rng.uniform_below(24); n > 0; --n) {
        at += ns(10) * rng.uniform_below(4);
        post(at, pipe);
      }
      pipe_tail[pipe] = at;
    }
    void fire(std::uint64_t id, int pipe) {
      if (engine.now() > boundary) out.dispatched_past_boundary = true;
      out.dispatched.push_back(id);
      if (out.posted.size() >= 30'000) return;
      if (shape == StreamShape::kBranching) {
        const std::uint64_t children = rng.uniform_below(3);
        for (std::uint64_t c = 0; c < children; ++c) {
          const bool at_now = rng.bernoulli(0.25);
          post(engine.now() + (at_now ? 0 : ns(10) * (1 + rng.uniform_below(64))), pipe);
        }
        return;
      }
      if (rng.bernoulli(0.125)) post_window(pipe);
      if (rng.bernoulli(0.03125)) {
        for (std::uint64_t n = 1 + rng.uniform_below(32); n > 0; --n) {
          post(engine.now() + ns(1) * n, pipe);
        }
      }
    }
  };
  Driver driver;
  driver.shape = shape;
  driver.engine.set_schedule_policy(policy);
  if (shape == StreamShape::kBranching) {
    for (int i = 0; i < 16'384; ++i) driver.post(ns(10) * driver.rng.uniform_below(512), 0);
  } else {
    for (int i = 2048; i > 0; --i) driver.post(ns(2) * i, i % 8);
    for (int pipe = 0; pipe < 8; ++pipe) driver.post_window(pipe);
  }
  for (Time t = ns(500); t <= us(6); t += ns(500)) {
    driver.boundary = t;
    driver.engine.run_until(t);
    EXPECT_EQ(driver.engine.now(), t);
  }
  driver.boundary = ~Time{0};
  driver.engine.run();
  driver.out.digest = driver.engine.run_digest();
  return std::move(driver.out);
}

TEST(Engine, DeepQueueDispatchesInStableTimeOrder) {
  for (const StreamShape shape : {StreamShape::kBranching, StreamShape::kPipelines}) {
    SCOPED_TRACE(shape == StreamShape::kBranching ? "branching stream" : "pipeline stream");
    const DeepStream bare = run_deep_stream(nullptr, shape);
    EXPECT_GT(bare.posted.size(), 20'000u);
    EXPECT_FALSE(bare.dispatched_past_boundary) << "run_until ran an event past its boundary";
    // Every post was dispatched once, in (at, post index) order: a stable
    // sort of the posts by time.
    std::vector<std::pair<Time, std::uint64_t>> expected = bare.posted;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(bare.dispatched.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(bare.dispatched[i], expected[i].second) << "dispatch " << i;
    }
    // A policy that always picks the head pops every co-enabled set and
    // pushes the rest back; the order and the digest must not move.
    InsertionOrderPolicy head;
    const DeepStream with_policy = run_deep_stream(&head, shape);
    EXPECT_EQ(with_policy.dispatched, bare.dispatched);
    EXPECT_EQ(with_policy.posted, bare.posted);
    EXPECT_EQ(with_policy.digest, bare.digest);
  }
}

TEST(EventKey, PackRoundTripsItsLimitsAndRejectsPastThem) {
  EXPECT_EQ(sim::EventKey::kSeqLimit, std::uint64_t{1} << 40);
  EXPECT_EQ(sim::EventKey::kSlotLimit, std::uint64_t{1} << 24);
  const std::uint64_t max_seq = sim::EventKey::kSeqLimit - 1;
  const auto max_slot = static_cast<std::uint32_t>(sim::EventKey::kSlotLimit - 1);
  const std::pair<std::uint64_t, std::uint32_t> cases[] = {
      {0, 0}, {max_seq, 0}, {0, max_slot}, {max_seq, max_slot}, {12345, 678}};
  for (const auto& [seq, slot] : cases) {
    const sim::EventKey key = sim::EventKey::pack(us(3), seq, slot);
    EXPECT_EQ(key.at, us(3));
    EXPECT_EQ(key.seq(), seq);
    EXPECT_EQ(key.slot(), slot);
  }
  EXPECT_THROW(sim::EventKey::pack(0, max_seq + 1, 0), std::length_error);
  EXPECT_THROW(sim::EventKey::pack(0, 0, max_slot + 1), std::length_error);
  EXPECT_THROW(sim::EventKey::pack(0, ~std::uint64_t{0}, ~std::uint32_t{0}), std::length_error);
  // Keys order by (at, seq); the slot bits never decide.
  EXPECT_TRUE(sim::EventKey::pack(1, 5, max_slot) < sim::EventKey::pack(1, 6, 0));
  EXPECT_TRUE(sim::EventKey::pack(1, max_seq, max_slot) < sim::EventKey::pack(2, 0, 0));
  EXPECT_FALSE(sim::EventKey::pack(2, 0, 0) < sim::EventKey::pack(1, max_seq, 0));
}

TEST(Engine, NestedTasksPropagateValues) {
  Engine engine;
  int result = 0;
  auto inner = [](Engine& e) -> Task<int> {
    co_await e.sleep(ns(10));
    co_return 42;
  };
  engine.spawn([](Engine& e, auto make_inner, int& r) -> Task<> {
    r = co_await make_inner(e);
  }(engine, inner, result));
  engine.run();
  EXPECT_EQ(result, 42);
}

TEST(Engine, ExceptionsSurfaceFromRun) {
  Engine engine;
  engine.spawn([](Engine& e) -> Task<> {
    co_await e.sleep(us(1));
    throw std::runtime_error("boom");
  }(engine));
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Engine, JoinWaitsForProcess) {
  Engine engine;
  Time joined_at = 0;
  Process worker = engine.spawn([](Engine& e) -> Task<> { co_await e.sleep(us(7)); }(engine));
  engine.spawn([](Engine& e, Process p, Time& t) -> Task<> {
    co_await p.join();
    t = e.now();
  }(engine, worker, joined_at));
  engine.run();
  EXPECT_EQ(joined_at, us(7));
  EXPECT_TRUE(worker.done());
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  int fired = 0;
  engine.post(us(1), [&] { ++fired; });
  engine.post(us(10), [&] { ++fired; });
  engine.run_until(us(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), us(5));
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine engine;
    std::vector<Time> stamps;
    for (int p = 0; p < 3; ++p) {
      engine.spawn([](Engine& e, std::vector<Time>& s, int id) -> Task<> {
        for (int i = 0; i < 4; ++i) {
          co_await e.sleep(us(1 + id));
          s.push_back(e.now() * 10 + static_cast<Time>(id));
        }
      }(engine, stamps, p));
    }
    engine.run();
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Event, WakesAllWaiters) {
  Engine engine;
  Event event(engine);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Event& ev, int& w) -> Task<> {
      co_await ev.wait();
      ++w;
    }(event, woken));
  }
  engine.spawn([](Engine& e, Event& ev) -> Task<> {
    co_await e.sleep(us(2));
    ev.trigger();
  }(engine, event));
  engine.run();
  EXPECT_EQ(woken, 3);
  EXPECT_TRUE(event.triggered());
}

TEST(Event, WaitAfterTriggerIsImmediate) {
  Engine engine;
  Event event(engine);
  event.trigger();
  Time woke = 1;
  engine.spawn([](Engine& e, Event& ev, Time& w) -> Task<> {
    co_await ev.wait();
    w = e.now();
  }(engine, event, woke));
  engine.run();
  EXPECT_EQ(woke, 0u);
}

TEST(Semaphore, EnforcesMutualExclusion) {
  Engine engine;
  Semaphore sem(engine, 1);
  std::vector<std::pair<Time, Time>> spans;  // (enter, exit)
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Engine& e, Semaphore& s, std::vector<std::pair<Time, Time>>& sp) -> Task<> {
      co_await s.acquire();
      const Time enter = e.now();
      co_await e.sleep(us(3));
      sp.emplace_back(enter, e.now());
      s.release();
    }(engine, sem, spans));
  }
  engine.run();
  ASSERT_EQ(spans.size(), 3u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].first, spans[i - 1].second) << "critical sections overlap";
  }
}

TEST(Mailbox, FifoDelivery) {
  Engine engine;
  Mailbox<int> box(engine);
  std::vector<int> got;
  engine.spawn([](Mailbox<int>& b, std::vector<int>& g) -> Task<> {
    for (int i = 0; i < 3; ++i) g.push_back(co_await b.recv());
  }(box, got));
  engine.spawn([](Engine& e, Mailbox<int>& b) -> Task<> {
    b.send(1);
    co_await e.sleep(us(1));
    b.send(2);
    b.send(3);
  }(engine, box));
  engine.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Mailbox, TryRecvNonBlocking) {
  Engine engine;
  Mailbox<std::string> box(engine);
  EXPECT_FALSE(box.try_recv().has_value());
  box.send("hi");
  auto value = box.try_recv();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "hi");
}

TEST(SerialServer, BackToBackBooking) {
  SerialServer server;
  EXPECT_EQ(server.book(us(0), us(2)), us(2));
  EXPECT_EQ(server.book(us(1), us(2)), us(4));  // queued behind first
  EXPECT_EQ(server.book(us(10), us(1)), us(11));
  EXPECT_EQ(server.busy_time(), us(5));
  EXPECT_EQ(server.jobs(), 3u);
}

TEST(PipelinedServer, OverlapsJobs) {
  PipelinedServer engine_model;
  // occupancy 1us, latency 5us: jobs complete 5, 6, 7us — pipelined.
  EXPECT_EQ(engine_model.book(0, us(1), us(5)), us(5));
  EXPECT_EQ(engine_model.book(0, us(1), us(5)), us(6));
  EXPECT_EQ(engine_model.book(0, us(1), us(5)), us(7));
}

TEST(PipelinedServer, SerialWhenOccupancyEqualsLatency) {
  PipelinedServer engine_model;
  EXPECT_EQ(engine_model.book(0, us(5), us(5)), us(5));
  EXPECT_EQ(engine_model.book(0, us(5), us(5)), us(10));
}

TEST(Resource, ServeAwaitable) {
  Engine engine;
  SerialServer bus;
  std::vector<Time> done;
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Engine& e, SerialServer& b, std::vector<Time>& d) -> Task<> {
      co_await serve(e, b, us(2));
      d.push_back(e.now());
    }(engine, bus, done));
  }
  engine.run();
  EXPECT_EQ(done, (std::vector<Time>{us(2), us(4), us(6)}));
}

TEST(Random, DeterministicAndUniform) {
  Xoshiro256 a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Xoshiro256 rng(99);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
  EXPECT_GE(acc.min(), 0.0);
  EXPECT_LT(acc.max(), 1.0);
}

TEST(Stats, WelfordMatchesClosedForm) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
}

}  // namespace
}  // namespace fabsim
