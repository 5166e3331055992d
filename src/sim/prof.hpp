// FabricProf: host-side engine profiler.
//
// Everything else in this tree observes *simulated* time; the Profiler
// is the one component that is allowed to look at the host clock. It is
// attached to the Engine exactly like the Tracer / InvariantMonitor:
// caller-owned, null when disabled, every hook on the dispatch path
// guards on the pointer so the detached cost is one predictable branch —
// pinned by a byte-identical run_digest() test and by the events/sec
// trajectory in BENCH_engine.json.
//
// What it measures, and how the cost is bounded:
//   * dispatch host time — wall-clock nanoseconds spent inside event
//     callbacks, attributed per scope label (the node-confinement label
//     Engine::post() already carries for FabricExplore). The clock is
//     only read for 1-in-N dispatches (Config::sample_stride), and the
//     sampling decision is a counter test, never a clock read, so the
//     *simulated* results are invariant under any stride (pinned by
//     tests).
//   * event-queue churn — posts, pops, policy requeues, the peak queue
//     depth, and an accumulated "heapify cost" (sum of bit_width(depth)
//     over every queue operation — the height of a binary heap of that
//     depth). It indexes how deep the whole queue was, in a form
//     comparable across queue implementations; it does not count the
//     engine's work, whose heap holds only the heads of sorted runs.
//   * allocation churn — a counting-allocator seam (prof::
//     CountingAllocator) that the Engine's event-queue storage runs on.
//     Its thread-local tally always counts; the Profiler publishes the
//     delta over its attach windows, so per-post heap traffic becomes a
//     visible, regressable number.
//   * host-time trace lanes — the sampled dispatch slices are retained
//     (up to Config::max_slices) and exported by the Chrome-trace
//     writer as duration events on a dedicated "host (profiler)"
//     process, next to the simulated-time lanes.
//
// Results surface through publish() as a `prof.*` taxonomy in the
// MetricRegistry (counters plus a prof.host.events_per_sec gauge) and
// through accessors for benches that want the numbers directly.
//
// Not thread-safe: like the Engine itself, one Profiler serves one
// single-threaded simulation at a time.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace fabsim {

class MetricRegistry;

namespace prof {

/// Allocation tally behind the counting-allocator seam. The Profiler and
/// the InvariantMonitor read deltas of it; nothing ever resets it.
struct AllocStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes_allocated = 0;
  std::uint64_t bytes_freed = 0;
};

namespace detail {
// NOLINT(global-state): an allocator has no object to hang state off, so
// the tally lives at namespace scope. It is thread_local, so engines on
// different threads never share it, and it is host-side observability
// only (like the wall clock, rule 10): nothing simulated reads it, so it
// can't couple event scopes or feed the digest.
inline thread_local AllocStats alloc_stats_storage;  // NOLINT(global-state): see above
}  // namespace detail

/// This thread's tally.
inline AllocStats& alloc_stats() { return detail::alloc_stats_storage; }

/// std::allocator with accounting: containers on the event/continuation
/// posting path (the Engine's queue storage) allocate through this, so
/// heap traffic per posted event is measurable instead of folklore.
/// Costs a thread-local increment per (rare, amortized) container growth.
template <typename T>
struct CountingAllocator {
  using value_type = T;

  CountingAllocator() noexcept = default;
  template <typename U>
  CountingAllocator(const CountingAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    AllocStats& stats = alloc_stats();
    ++stats.allocs;
    stats.bytes_allocated += n * sizeof(T);
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    AllocStats& stats = alloc_stats();
    ++stats.frees;
    stats.bytes_freed += n * sizeof(T);
    std::allocator<T>{}.deallocate(p, n);
  }

  template <typename U>
  bool operator==(const CountingAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace prof

class Profiler {
 public:
  struct Config {
    /// Read the host clock for 1 in this many dispatches. 1 = every
    /// event (max detail, max overhead); larger strides bound the
    /// profiler's own cost on hot runs. Never affects simulated results.
    std::uint32_t sample_stride = 16;
    /// Retained sampled slices for the Chrome-trace host lanes; further
    /// samples still feed the aggregates but drop their slice record.
    std::size_t max_slices = 65'536;
  };

  /// One sampled dispatch, in host time relative to attach.
  struct Slice {
    double host_us_start;
    double host_us_dur;
    Time sim_at;  ///< simulated clock when the event ran
    int scope;    ///< Engine::post scope label; -1 = shared
  };

  Profiler() { sanitize(); }
  explicit Profiler(Config config) : config_(config) { sanitize(); }

  // --- Engine hooks (hot path) --------------------------------------
  // The Engine calls these through a null-guarded pointer; everything
  // here is O(1) and clock-free except the 1-in-stride sampled pair
  // begin_dispatch(true) / end_dispatch().

  void on_attach();  ///< host epoch + allocation baseline; opens an alloc window
  void on_detach();  ///< folds the open alloc window into the totals

  /// A new event entered the queue (depth after the push).
  void on_post(std::size_t depth_after) {
    ++posts_;
    note_heap_op(depth_after);
  }
  /// An event left the queue (depth before the pop).
  void on_dequeue(std::size_t depth_before) {
    ++pops_;
    heapify_cost_ += std::bit_width(depth_before);
  }
  /// A SchedulePolicy materialization pushed a not-chosen event back.
  void on_requeue(std::size_t depth_after) {
    ++requeues_;
    note_heap_op(depth_after);
  }
  /// The Engine's event queue grew a backing store (amortized doubling
  /// of the run tails or the heads heap, or a new block of the payload
  /// slab);
  /// `allocs` is how many tracked allocations that one growth step
  /// performed. Growth allocations that land inside a dispatch bracket
  /// are attributed separately so allocs_per_event() reflects only the
  /// steady-state per-event cost.
  void on_queue_growth(std::uint64_t allocs = 1) {
    ++queue_growths_;
    if (in_event_) dispatch_growth_allocs_ += allocs;
  }

  /// Bracket one event callback for the per-dispatch allocation tally.
  /// Unlike the strided host-clock sampling, this runs for every event:
  /// it reads the global counter, never the clock.
  void begin_event_allocs() {
    event_allocs_at_begin_ = prof::alloc_stats().allocs;
    in_event_ = true;
  }
  void end_event_allocs() {
    if (!in_event_) return;
    in_event_ = false;
    ++alloc_events_;
    dispatch_allocs_ += prof::alloc_stats().allocs - event_allocs_at_begin_;
  }

  /// Decide whether to sample this dispatch; true means the caller must
  /// pair it with end_dispatch() around the callback.
  bool begin_dispatch(Time sim_now, int scope) {
    if (dispatch_tick_++ % config_.sample_stride != 0) return false;
    begin_sampled(sim_now, scope);
    return true;
  }
  void end_dispatch();

  /// Bracket a dispatch loop (Engine::run / run_until): accumulates the
  /// wall time and event count the events/sec figure is computed from.
  void on_run_begin(std::uint64_t events_processed);
  void on_run_end(std::uint64_t events_processed);

  // --- results ------------------------------------------------------

  std::uint64_t posts() const { return posts_; }
  std::uint64_t pops() const { return pops_; }
  std::uint64_t requeues() const { return requeues_; }
  std::size_t peak_depth() const { return peak_depth_; }
  std::uint64_t heapify_cost() const { return heapify_cost_; }
  std::uint64_t sampled_dispatches() const { return sampled_; }
  std::uint64_t sampled_dispatch_ns() const { return sampled_ns_; }
  std::uint64_t run_host_ns() const { return run_ns_; }
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// Events dispatched per host second across all run windows so far.
  double events_per_sec() const {
    return run_ns_ > 0 ? static_cast<double>(dispatched_) * 1e9 / static_cast<double>(run_ns_)
                       : 0.0;
  }

  /// (samples, host ns) per scope label, ordered: -1 (shared) first.
  const std::map<int, std::pair<std::uint64_t, std::uint64_t>>& by_scope() const {
    return by_scope_;
  }

  const std::vector<Slice>& slices() const { return slices_; }
  std::uint64_t slices_dropped() const { return slices_dropped_; }

  /// Allocation tally across every attach window so far (tracked
  /// containers only; traffic while detached is not counted).
  prof::AllocStats alloc_delta() const;

  std::uint64_t queue_growths() const { return queue_growths_; }
  std::uint64_t dispatch_allocs() const { return dispatch_allocs_; }
  std::uint64_t dispatch_growth_allocs() const { return dispatch_growth_allocs_; }
  std::uint64_t alloc_events() const { return alloc_events_; }

  /// Tracked allocations per dispatched event in steady state (amortized
  /// event-queue growth excluded). ROADMAP item 1's zero-allocation
  /// acceptance number: 0.0 after the InplaceFn payload swap.
  double allocs_per_event() const {
    return alloc_events_ > 0 ? static_cast<double>(dispatch_allocs_ - dispatch_growth_allocs_) /
                                   static_cast<double>(alloc_events_)
                             : 0.0;
  }

  /// Export everything under `prefix` ("prof." by default): counters
  /// for the queue/dispatch/alloc tallies plus a <prefix>host.
  /// events_per_sec gauge. Per-scope detail lands under
  /// <prefix>dispatch.node<k>.* so Report::aggregate_key trims it.
  void publish(MetricRegistry& registry, const std::string& prefix = "prof.") const;

  void reset();

 private:
  void sanitize() {
    if (config_.sample_stride == 0) config_.sample_stride = 1;
  }
  void note_heap_op(std::size_t depth) {
    if (depth > peak_depth_) peak_depth_ = depth;
    heapify_cost_ += std::bit_width(depth);
  }
  void begin_sampled(Time sim_now, int scope);

  Config config_{};
  std::uint64_t posts_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t requeues_ = 0;
  std::size_t peak_depth_ = 0;
  std::uint64_t heapify_cost_ = 0;

  std::uint64_t dispatch_tick_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t sampled_ns_ = 0;
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> by_scope_;

  std::uint64_t run_ns_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t run_begin_events_ = 0;
  std::int64_t run_begin_ns_ = 0;
  bool in_run_ = false;

  std::int64_t epoch_ns_ = 0;
  std::int64_t sample_begin_ns_ = 0;
  Time sample_sim_at_ = 0;
  int sample_scope_ = -1;
  bool in_sample_ = false;

  std::uint64_t queue_growths_ = 0;
  std::uint64_t dispatch_allocs_ = 0;
  std::uint64_t dispatch_growth_allocs_ = 0;
  std::uint64_t alloc_events_ = 0;
  std::uint64_t event_allocs_at_begin_ = 0;
  bool in_event_ = false;

  std::vector<Slice> slices_;
  std::uint64_t slices_dropped_ = 0;

  prof::AllocStats alloc_baseline_{};  ///< global tally at last attach
  prof::AllocStats alloc_accum_{};     ///< closed attach windows' delta
  bool attached_ = false;
};

}  // namespace fabsim
