// Discrete-event simulation engine.
//
// The Engine owns a monotone event queue keyed by (time, sequence number),
// which makes every run fully deterministic: ties are broken by insertion
// order. Coroutine processes (Task<void>) are spawned as top-level
// "drivers"; all suspension points (sleep, Event, Semaphore, resources)
// resume through the queue, never inline, so no process can starve another
// at the same timestamp.
//
// The Engine must outlive every process spawned on it. Destroying an Engine
// with live processes destroys their coroutine frames (stack unwinding via
// RAII still runs inside each frame).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "check/invariant.hpp"
#include "sim/hot.hpp"
#include "sim/inplace_fn.hpp"
#include "sim/metrics.hpp"
#include "sim/prof.hpp"
#include "sim/schedule.hpp"
#include "sim/scope.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace fabsim {

class Engine;

namespace fault {
class FaultInjector;
}

namespace detail {

/// Shared completion state for a spawned process.
struct ProcessState {
  bool done = false;
  std::vector<std::coroutine_handle<>> joiners;
};

/// Self-destroying top-level coroutine that drives a Task to completion.
struct Driver {
  struct promise_type {
    Engine* engine = nullptr;

    Driver get_return_object() {
      return Driver{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) const noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    // drive() catches everything itself; anything reaching here is fatal.
    void unhandled_exception() noexcept { std::terminate(); }
  };

  std::coroutine_handle<promise_type> handle;
};

}  // namespace detail

/// Handle to a spawned process; join() suspends until it completes.
class Process {
 public:
  Process() = default;
  explicit Process(std::shared_ptr<detail::ProcessState> state) : state_(std::move(state)) {}

  bool done() const { return !state_ || state_->done; }

  auto join() const {
    struct Awaiter {
      std::shared_ptr<detail::ProcessState> state;
      bool await_ready() const noexcept { return !state || state->done; }
      void await_suspend(std::coroutine_handle<> h) const { state->joiners.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{state_};
  }

 private:
  std::shared_ptr<detail::ProcessState> state_;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule a callback at absolute time `at`. Posting before now() is
  /// misuse and fails loudly in every build: an attached monitor reports
  /// sim.time_monotone, and without one post() throws std::logic_error.
  /// The payload is a sim::EventFn — fixed inline storage, no heap: a
  /// capture that outgrows sim::kEventFnCapacity is a compile error at
  /// the post site, never a silent allocation on the dispatch path.
  void post(Time at, sim::EventFn fn) { post(at, /*scope=*/-1, std::move(fn)); }

  /// Schedule a callback whose effects are confined to one node. The
  /// scope label feeds the SchedulePolicy's commutativity metadata (two
  /// co-enabled events on different nodes commute); it has no effect on
  /// the default schedule. Pass -1 when the event touches shared state.
  ///
  /// Defined inline: post is the write half of the hot path, and keeping
  /// it visible to every caller lets the compiler collapse the
  /// construct-then-move chain of the by-value sim::EventFn instead of
  /// relocating it across a translation-unit boundary.
  FABSIM_HOT void post(Time at, int scope, sim::EventFn fn) {
    if (at < now_) report_past_post(at);
    // Amortized backing-store growth is the one allocation class the
    // zero-alloc dispatch contract permits: push() reports how many
    // tracked allocations it performed (key heap, payload slab, free-list
    // reserve — 0 in steady state), so the monitor's per-event budget
    // and the profiler's allocs_per_event exclude exactly those.
    const int growths = queue_.push(at, next_seq_++, scope, std::move(fn));
    if (growths > 0) {
      if (profiler_ != nullptr) profiler_->on_queue_growth(static_cast<std::uint64_t>(growths));
      if (monitor_ != nullptr) monitor_->excuse_growth(static_cast<std::uint64_t>(growths));
    }
    if (profiler_ != nullptr) profiler_->on_post(queue_.size());
  }

  /// Schedule a coroutine resumption at absolute time `at`.
  void post_resume(Time at, std::coroutine_handle<> h);

  /// Awaitable: suspend for duration `d`.
  auto sleep(Time d) { return SleepAwaiter{this, now_ + d}; }

  /// Awaitable: suspend until absolute time `t` (no-op if in the past).
  auto sleep_until(Time t) { return SleepAwaiter{this, t < now_ ? now_ : t}; }

  /// Awaitable: re-queue at the current time, letting same-time events run.
  auto yield() { return SleepAwaiter{this, now_}; }

  /// Start a coroutine as a top-level process. Runs until its first
  /// suspension point immediately.
  Process spawn(Task<> task);

  /// Spawn a background service process (e.g. an async-progress loop)
  /// that legitimately outlives the workload: it is excluded from the
  /// no-lost-wakeup audit at queue drain.
  Process spawn_daemon(Task<> task);

  /// Run until the event queue drains. Rethrows the first exception that
  /// escaped any process.
  void run();

  /// Run events with timestamp <= t, then set now() = t.
  void run_until(Time t);

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t live_processes() const { return drivers_.size(); }
  std::size_t live_daemons() const { return daemons_.size(); }

  /// FNV-1a digest folded over the (time, sequence) pair of every event
  /// processed so far. Two runs of the same workload must produce the
  /// same digest — this is the determinism verifier's fingerprint
  /// (scripts/check_determinism.sh diffs it against every committed
  /// report).
  std::uint64_t run_digest() const { return digest_; }

  /// Fold extra material (e.g. a final-metrics hash) into the digest.
  void digest_mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (value >> (8 * i)) & 0xff;
      digest_ *= 0x100000001b3ULL;
    }
  }

  /// Optional structured tracer (null when disabled). Emission sites
  /// guard on this pointer, so tracing costs one branch when off.
  Tracer* tracer() { return tracer_; }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Convenience: emit at the current time if tracing is enabled.
  void trace(TraceCategory category, int node, std::string label) {
    if (tracer_ != nullptr) tracer_->emit(now_, category, node, std::move(label));
  }

  /// Optional metric registry (null when disabled). Caller-owned, like
  /// the tracer; emission sites guard on this pointer so FabricScope
  /// costs one branch when off.
  MetricRegistry* metrics() { return metrics_; }
  void set_metrics(MetricRegistry* metrics) { metrics_ = metrics; }

  /// Convenience: attribute `duration` of simulated time to a LogP-style
  /// phase (host CPU / NIC / wire) if metrics are enabled.
  void charge_phase(Phase phase, Time duration) {
    if (metrics_ != nullptr) metrics_->charge_phase(phase, duration);
  }

  /// Optional fault injector (null when the fabric is perfect). Owned by
  /// the caller, like the tracer; the Switch consults it per frame.
  /// Attach before traffic starts — stacks sample it to decide whether
  /// to arm their recovery machinery.
  fault::FaultInjector* fault_injector() { return fault_injector_; }
  void set_fault_injector(fault::FaultInjector* injector) { fault_injector_ = injector; }

  /// Optional FabricCheck invariant monitor (null when auditing is off).
  /// Caller-owned, like the tracer. The engine itself reports event-time
  /// monotonicity and no-lost-wakeup violations; every stack reports its
  /// own protocol invariants through the same monitor. The dispatch loop
  /// also brackets every event with it, which runs the scope audit
  /// (FABSIM_AUDIT_* traps) and the per-event allocation budget. Never
  /// posts or reorders events, so an attached monitor leaves run_digest()
  /// byte-identical (pinned by tests).
  check::InvariantMonitor* monitor() { return monitor_; }
  void set_monitor(check::InvariantMonitor* monitor) { monitor_ = monitor; }

  /// Optional FabricProf host-time profiler (null when profiling is
  /// off). Caller-owned, like the tracer; the dispatch loop and post()
  /// guard on this pointer, so a detached profiler costs one branch per
  /// event and the simulated timeline stays byte-identical (pinned by
  /// tests). Attaching opens an allocation window on the counting-
  /// allocator tally; detaching (or destroying the engine) closes it.
  Profiler* profiler() { return profiler_; }
  void set_profiler(Profiler* profiler);

  /// Test-only: arm the FABSIM_MUTATION_HOTALLOC seam so the dispatch
  /// path performs one deliberate tracked allocation per event — the
  /// allocation budget's runtime self-test (the static half is
  /// `hotpath_check.py --mutation`).
  void set_mutation_hotalloc(bool armed) { mutation_hotalloc_ = armed; }

  /// Optional pluggable tie-break for co-enabled events (FabricExplore).
  /// Caller-owned, like the tracer. With no policy (the default) the
  /// dispatch loop pops straight off the priority queue — the insertion-
  /// order schedule — without materializing ready sets.
  SchedulePolicy* schedule_policy() { return policy_; }
  void set_schedule_policy(SchedulePolicy* policy) { policy_ = policy; }

  struct SleepAwaiter {
    Engine* engine;
    Time at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const { engine->post_resume(at, h); }
    void await_resume() const noexcept {}
  };

 private:
  friend struct detail::Driver::promise_type::FinalAwaiter;

  /// Binary min-heap over (at, seq), replacing std::priority_queue so the
  /// Engine can (a) count an imminent capacity growth *as it happens* —
  /// the one allocation the zero-alloc dispatch contract excuses — and
  /// (b) push popped keys back for a SchedulePolicy. Pop order is
  /// identical: (at, seq) keys are unique, so the heap's tie-handling
  /// never matters.
  ///
  /// The heap holds 24-byte Keys; the sim::EventFn payloads live in a
  /// side slab indexed by Key::slot and recycled through a free list.
  /// Keeping the payload out of the heap matters: every sift-up/down
  /// swap moves a trivially-copyable Key instead of a kEventFnCapacity-
  /// byte inline buffer plus a relocate call through the vtable — with
  /// the payload inline, reheapification cost scales with capture size
  /// and halves BM_EventQueueThroughput.
  ///
  /// The slab itself is chunked (fixed-size payload blocks, each
  /// reserved once and never reallocated), so a payload's address is
  /// stable for its whole queued life: slab growth mints a fresh block
  /// instead of relocating every parked continuation, and the Engine
  /// dispatches straight out of the slot by reference — one payload
  /// move in (post), zero moves out — before release() destroys the
  /// capture and recycles the slot.
  class EventQueue {
   public:
    struct Key {
      Time at;
      std::uint64_t seq;
      int scope;
      std::uint32_t slot;  ///< payload index into the slab
      bool operator>(const Key& other) const {
        if (at != other.at) return at > other.at;
        return seq > other.seq;
      }
    };

    bool empty() const { return keys_.empty(); }
    std::size_t size() const { return keys_.size(); }
    const Key& top() const { return keys_.front(); }

    /// Returns the number of tracked backing-store allocations the push
    /// performed (0 in steady state) so the caller can excuse them with
    /// the observers: the key heap's amortized doubling, plus — when a
    /// fresh payload block is minted — the block's one-shot reserve, the
    /// block directory's occasional doubling, and the free list's
    /// matching reserve.
    FABSIM_HOT int push(Time at, std::uint64_t seq, int scope, sim::EventFn&& fn) {
      int growths = 0;
      if (keys_.size() == keys_.capacity()) ++growths;
      std::uint32_t slot;
      if (free_.empty()) {
        if (chunks_.empty() || chunks_.back().size() == kChunkSize) {
          if (chunks_.size() == chunks_.capacity()) ++growths;
          ++growths;  // the new block's payload buffer, reserved once below
          // HOT-OK(payload-block mint, amortized over kChunkSize posts; counted in the return value and excused with the observers)
          chunks_.emplace_back();
          // HOT-OK(one-shot block reserve; counted in the return value and excused with the observers)
          chunks_.back().reserve(kChunkSize);
          const std::size_t cap = chunks_.size() * kChunkSize;
          if (cap > free_.capacity()) {
            ++growths;
            // HOT-OK(free-list capacity tracks the slab so release()'s push_back never reallocates)
            free_.reserve(cap);
          }
        }
        Chunk& chunk = chunks_.back();
        slot = static_cast<std::uint32_t>(((chunks_.size() - 1) << kChunkShift) + chunk.size());
        // HOT-OK(block was reserved to kChunkSize at mint; within capacity, never reallocates)
        chunk.push_back(std::move(fn));
      } else {
        slot = free_.back();
        free_.pop_back();
        payload(slot) = std::move(fn);
      }
      push_key(Key{at, seq, scope, slot});
      return growths;
    }

    /// Push a key onto the heap. From push() the key store may grow
    /// (counted there); re-pushing keys pop_key() just returned, as a
    /// SchedulePolicy materialization does, never grows it.
    FABSIM_HOT void push_key(const Key& key) {
      // HOT-OK(key-heap growth, amortized; push() counts it in its return value and the observers excuse it)
      keys_.push_back(key);
      std::push_heap(keys_.begin(), keys_.end(), std::greater<>{});
    }

    /// Pop the (at, seq) minimum's key. The payload slot stays live —
    /// pinned for in-place dispatch, or for push_key() — until
    /// release(slot).
    FABSIM_HOT Key pop_key() {
      std::pop_heap(keys_.begin(), keys_.end(), std::greater<>{});
      const Key key = keys_.back();
      keys_.pop_back();
      return key;
    }

    /// The parked continuation for a popped key. The reference stays
    /// valid across posts made while it runs: blocks never reallocate,
    /// and the slot cannot be recycled before release().
    FABSIM_HOT sim::EventFn& payload(std::uint32_t slot) {
      return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
    }

    /// Destroy a dispatched payload (captured frames and completion
    /// state die here, exactly where the pre-slab queue destroyed its
    /// popped item) and recycle the slot.
    FABSIM_HOT void release(std::uint32_t slot) {
      payload(slot) = sim::EventFn();
      // HOT-OK(free_ was reserved to the slab's capacity in push(); this never reallocates)
      free_.push_back(slot);
    }

   private:
    /// Payloads per block: big enough to amortize block mints, small
    /// enough that an idle queue is not sitting on megabytes.
    static constexpr std::size_t kChunkShift = 8;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

    // The backing stores allocate through the FabricProf counting
    // allocator (a no-op branch unless the seam is armed), so event-
    // posting heap traffic is a measured number, not folklore.
    using Chunk = std::vector<sim::EventFn, prof::CountingAllocator<sim::EventFn>>;
    std::vector<Key, prof::CountingAllocator<Key>> keys_;
    std::vector<Chunk, prof::CountingAllocator<Chunk>> chunks_;
    std::vector<std::uint32_t, prof::CountingAllocator<std::uint32_t>> free_;
  };

  static detail::Driver drive(Engine* engine, Task<> task,
                              std::shared_ptr<detail::ProcessState> state);

  void note_exception(std::exception_ptr e) {
    if (!pending_exception_) pending_exception_ = std::move(e);
  }
  void check_exception();

  Process spawn_impl(Task<> task, bool daemon);
  /// Pop the key of the next event to dispatch. Without a SchedulePolicy
  /// that is the (time, seq) minimum; with one, the keys of the
  /// co-enabled set at the head timestamp are popped, the policy picks
  /// one, and the others are pushed back. Payloads never leave their
  /// slab slots.
  EventQueue::Key pop_next();
  /// One run-loop iteration: pop, account, dispatch in place from the
  /// slab, then surface any deferred exception.
  void step();
  /// Run one event's callback inside the monitor's event bracket and the
  /// profiler's allocation tally and sampled host-time measurement, when
  /// they are attached; with neither, four tests and the call. This is
  /// the hot-path root: everything it reaches is subject to the
  /// FabricHot-Check purity rules (scripts/hotpath_check.py walks the
  /// call graph from here).
  FABSIM_HOT void dispatch(int scope, sim::EventFn& fn) {
    if (monitor_ != nullptr) monitor_->begin_event(now_, scope);
    FABSIM_MUTATION_HOTALLOC(mutation_hotalloc_);
    if (profiler_ == nullptr) {
      fn();
    } else {
      profiler_->begin_event_allocs();
      if (profiler_->begin_dispatch(now_, scope)) {
        fn();
        profiler_->end_dispatch();
      } else {
        fn();
      }
      profiler_->end_event_allocs();
    }
    if (monitor_ != nullptr) monitor_->end_event();
  }
  /// Digest + bookkeeping for one popped event.
  void account_event(Time at, std::uint64_t seq);
  /// Misuse diagnostic for a post() into the past: reports to the
  /// monitor, or throws std::logic_error without one. Out of line so the
  /// inline post() stays free of string building.
  FABSIM_COLD void report_past_post(Time at);
  /// Monitor hooks at queue drain: lost-wakeup audit + final checks.
  void on_drain();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  ///< FNV-1a offset basis
  EventQueue queue_;
  // Scratch for the SchedulePolicy path of pop_next(): members so their
  // capacity is reused across materializations instead of reallocated
  // per co-enabled set.
  std::vector<EventQueue::Key> ready_;
  std::vector<ReadyEvent> view_;
  std::unordered_set<void*> drivers_;
  std::unordered_set<void*> daemons_;
  std::exception_ptr pending_exception_;
  Tracer* tracer_ = nullptr;
  MetricRegistry* metrics_ = nullptr;
  fault::FaultInjector* fault_injector_ = nullptr;
  check::InvariantMonitor* monitor_ = nullptr;
  Profiler* profiler_ = nullptr;
  SchedulePolicy* policy_ = nullptr;
  bool mutation_hotalloc_ = false;
};

}  // namespace fabsim
