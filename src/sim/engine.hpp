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

#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <type_traits>
#include <unordered_set>
#include <utility>
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

namespace sim {

/// The event queue's 16-byte heap key: the event's time, and one word
/// that packs its sequence number (high 40 bits) with the slab slot of
/// its payload (low 24 bits). Sequence numbers are unique, so ordering
/// keys by (at, word) orders events exactly by (at, seq): the slot bits
/// never decide.
struct EventKey {
  static constexpr unsigned kSlotBits = 24;
  /// Events one engine may post in its lifetime (2^40).
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << (64 - kSlotBits);
  /// Events one engine may hold queued at once (2^24).
  static constexpr std::uint64_t kSlotLimit = std::uint64_t{1} << kSlotBits;

  Time at;
  std::uint64_t word;  ///< seq << kSlotBits | slot

  /// Pack (seq, slot) beside `at`. A seq or slot past its field throws
  /// std::length_error in every build; the throw sits in a cold
  /// out-of-line function, so the hot path pays one test.
  FABSIM_HOT static EventKey pack(Time at, std::uint64_t seq, std::uint32_t slot) {
    if (((seq >> (64 - kSlotBits)) | (slot >> kSlotBits)) != 0) [[unlikely]] {
      overflow(seq, slot);
    }
    return EventKey{at, (seq << kSlotBits) | slot};
  }

  std::uint64_t seq() const { return word >> kSlotBits; }
  std::uint32_t slot() const { return static_cast<std::uint32_t>(word & (kSlotLimit - 1)); }

  /// Strict (at, seq) order, as one branch-free 128-bit compare.
  friend bool operator<(const EventKey& a, const EventKey& b) {
    using Wide = unsigned __int128;
    return ((Wide{a.at} << 64) | a.word) < ((Wide{b.at} << 64) | b.word);
  }

 private:
  [[noreturn]] FABSIM_COLD static void overflow(std::uint64_t seq, std::uint32_t slot);
};

}  // namespace sim

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
  /// The callback is held in a sim::EventFn — fixed inline storage, no
  /// heap: a capture that outgrows sim::kEventFnCapacity is a compile
  /// error at the post site, never a silent allocation on the dispatch
  /// path.
  template <typename F>
    requires sim::EventFn::fits<std::remove_cvref_t<F>>
  void post(Time at, F&& fn) {
    post(at, /*scope=*/-1, std::forward<F>(fn));
  }

  /// Schedule a callback whose effects are confined to one node. The
  /// scope label feeds the SchedulePolicy's commutativity metadata (two
  /// co-enabled events on different nodes commute); it has no effect on
  /// the default schedule. Pass -1 when the event touches shared state.
  ///
  /// Defined inline: post is the write half of the hot path. The
  /// callable is constructed once, directly in its queue slot.
  template <typename F>
    requires sim::EventFn::fits<std::remove_cvref_t<F>>
  FABSIM_HOT void post(Time at, int scope, F&& fn) {
    if (at < now_) report_past_post(at);
    // Amortized backing-store growth is the one allocation class the
    // zero-alloc dispatch contract permits: push() reports how many
    // tracked allocations it performed (key heap, payload slab — 0 in
    // steady state), so the monitor's per-event budget and the
    // profiler's allocs_per_event exclude exactly those.
    const int growths = queue_.push(at, next_seq_++, scope, std::forward<F>(fn));
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

  /// Convenience: emit at the current time if tracing is enabled. The
  /// label is built by calling `make_label` only when a tracer is
  /// attached, so an untraced run builds (and allocates) no labels.
  template <typename MakeLabel>
  void trace(TraceCategory category, int node, MakeLabel&& make_label) {
    if (tracer_ != nullptr) tracer_->emit(now_, category, node, make_label());
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

  /// The event queue: a 4-ary min-heap of 16-byte sim::EventKeys over a
  /// slab of payload slots.
  ///
  /// Pop order is exactly (at, seq): keys are unique, so the heap's tie
  /// handling never matters. The Engine drives the heap itself so it can
  /// (a) count an imminent capacity growth *as it happens* — the one
  /// allocation the zero-alloc dispatch contract excuses — and (b) push
  /// popped keys back for a SchedulePolicy.
  ///
  /// Keys are stored kArity - 1 places into 64-byte-aligned lines, so
  /// the four children of a node fill exactly one cache line: a
  /// sift-down step reads one line and makes three compares. Four
  /// children per node halve the heap's height against a binary heap,
  /// and a 16-byte key moves in two words. Against std::push_heap and
  /// std::pop_heap over a plain vector of the same keys, this heap ran
  /// FabricBench incast_lossy 5.9% and 4.5% faster (medians of 10
  /// alternating 20 s runs each at seeds 1 and 7, faster in 18 of the
  /// 20 pairs; 4-core Xeon VM) and headline within run-to-run spread.
  ///
  /// A payload slot is 192 bytes: the post's scope label, then the
  /// sim::EventFn, whose callable post() constructs in place. Slots
  /// live in fixed-size blocks that are allocated once and never
  /// reallocated, so a payload's address is stable for its whole queued
  /// life: the Engine dispatches straight out of the slot by reference,
  /// and release() destroys the capture and recycles the slot. A free
  /// slot links to the next free one through the scope field, so the
  /// free list needs no storage of its own.
  class EventQueue {
   public:
    using Key = sim::EventKey;

    /// One payload: the post's scope label, then its callable. Not
    /// over-aligned: 64-byte-aligned blocks come from aligned
    /// allocations, which fragmented glibc's heap enough to raise
    /// FabricBench headline's peak RSS from 14.5 to 16.6 MB (4-core
    /// Xeon VM, 20 s runs).
    struct Slot {
      /// User-provided, so a new block is not zero-filled: mint() writes
      /// each slot's free-list link, and the empty callable its ops
      /// pointer, nothing more.
      Slot() {}  // NOLINT(modernize-use-equals-default): = default would zero-fill
      union {
        int scope;                ///< while queued: the post's scope label
        std::uint32_t next_free;  ///< while free: the next free slot, or kNoSlot
      };
      sim::EventFn fn;
    };
    static_assert(sizeof(Slot) == 3 * 64, "a payload slot is the size of three cache lines");

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const Key& top() const { return key(0); }

    /// Park `fn` in a free slot and queue its key. Returns the number of
    /// tracked backing-store allocations the push performed (0 in steady
    /// state) so the caller can excuse them with the observers: the key
    /// heap's amortized doubling, and — when a fresh payload block is
    /// minted — the block itself and the block directory's occasional
    /// doubling.
    template <typename F>
    FABSIM_HOT int push(Time at, std::uint64_t seq, int scope, F&& fn) {
      const int growths = free_ == kNoSlot ? mint() : 0;
      const std::uint32_t index = free_;
      const Key key = Key::pack(at, seq, index);
      Slot& s = slot(index);
      free_ = s.next_free;
      s.scope = scope;
      // HOT-OK(builds the callable in the slot's inline storage; placement new, no allocation)
      s.fn.emplace(std::forward<F>(fn));
      return growths + push_key(key);
    }

    /// Push a key onto the heap; returns 1 if the key store grew. From
    /// push() the store may grow (counted there); re-pushing keys
    /// pop_key() just returned, as a SchedulePolicy materialization
    /// does, never grows it.
    FABSIM_HOT int push_key(const Key& key) {
      int growths = 0;
      while ((size_ + kPad) / kKeysPerLine >= lines_.size()) {
        if (lines_.size() == lines_.capacity()) ++growths;
        // HOT-OK(key-heap growth to a new high-water mark, amortized; counted in the return value and excused with the observers)
        lines_.emplace_back();
        heap_ = reinterpret_cast<Key*>(lines_.data()) + kPad;
      }
      sift_up(size_++, key);
      return growths;
    }

    /// Pop the (at, seq) minimum's key. The payload slot stays live —
    /// pinned for in-place dispatch, or for push_key() — until
    /// release(slot).
    FABSIM_HOT Key pop_key() {
      const Key top = key(0);
      if (--size_ > 0) sift_down(key(size_));
      return top;
    }

    /// The slot of a popped key. The reference stays valid across posts
    /// made while its callable runs: blocks never reallocate, and the
    /// slot cannot be recycled before release().
    FABSIM_HOT Slot& slot(std::uint32_t index) {
      return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
    }

    /// Destroy a dispatched payload (captured frames and completion
    /// state die here, exactly where the pre-slab queue destroyed its
    /// popped item) and recycle the slot.
    FABSIM_HOT void release(std::uint32_t index) {
      Slot& s = slot(index);
      s.fn.reset();
      s.next_free = free_;
      free_ = index;
    }

   private:
    /// Children per heap node. Of 2, 4 and 8, 4 ran FabricBench
    /// incast_lossy fastest (2 by 1%, 8 by 5%); on headline and the
    /// hold lanes the three were within run-to-run spread.
    static constexpr std::size_t kArity = 4;
    static constexpr std::size_t kKeysPerLine = 64 / sizeof(Key);
    /// Logical index i lives at physical index i + kPad, so the children
    /// of every node (logical kArity*i + 1 ...) start a line.
    static constexpr std::size_t kPad = kArity - 1;
    struct alignas(64) Line {
      Key keys[kKeysPerLine];
    };
    static_assert(sizeof(Line) == kKeysPerLine * sizeof(Key), "lines hold keys end to end");

    /// Payloads per block: big enough to amortize block mints, small
    /// enough that an idle queue is not sitting on megabytes.
    static constexpr std::size_t kChunkShift = 8;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    Key& key(std::size_t i) { return heap_[i]; }
    const Key& key(std::size_t i) const { return heap_[i]; }

    /// Move the hole at `hole` up until `k` may fill it.
    void sift_up(std::size_t hole, const Key k) {
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / kArity;
        if (!(k < key(parent))) break;
        key(hole) = key(parent);
        hole = parent;
      }
      key(hole) = k;
    }

    /// The smaller of two key indices, chosen without a branch: which
    /// key is smaller is a coin flip the branch predictor cannot learn.
    std::size_t min_index(std::size_t a, std::size_t b) const {
      const std::size_t take_b = key(b) < key(a);
      return a ^ ((a ^ b) & (0 - take_b));
    }

    /// The smallest key of the n children starting at `first`, n a power
    /// of two, as a knockout tournament: n - 1 compares in log2(n)
    /// rounds, the compares of a round independent of each other.
    template <std::size_t N>
    std::size_t group_min(std::size_t first) const {
      if constexpr (N == 1) {
        return first;
      } else {
        return min_index(group_min<N / 2>(first), group_min<N / 2>(first + N / 2));
      }
    }

    /// Move the hole at the root down until `k` may fill it.
    void sift_down(const Key k) {
      std::size_t hole = 0;
      for (;;) {
        const std::size_t first = hole * kArity + 1;
        if (first >= size_) break;
        std::size_t best;
        if (first + kArity <= size_) {
          best = group_min<kArity>(first);
        } else {
          best = first;
          for (std::size_t c = first + 1; c < size_; ++c) best = min_index(best, c);
        }
        if (!(key(best) < k)) break;
        key(hole) = key(best);
        hole = best;
      }
      key(hole) = k;
    }

    /// Allocate one block of kChunkSize slots and put them on the free
    /// list, lowest index first. Returns the tracked allocations made.
    int mint() {
      int growths = 1;  // the block
      if (chunks_.size() == chunks_.capacity()) ++growths;
      // HOT-OK(payload-block mint, amortized over kChunkSize posts; counted in the return value and excused with the observers)
      chunks_.emplace_back(kChunkSize);
      const auto base = static_cast<std::uint32_t>((chunks_.size() - 1) << kChunkShift);
      for (std::uint32_t i = kChunkSize; i-- > 0;) {
        chunks_.back()[i].next_free = free_;
        free_ = base + i;
      }
      return growths;
    }

    // The backing stores allocate through the FabricProf counting
    // allocator (a no-op branch unless the seam is armed), so event-
    // posting heap traffic is a measured number, not folklore.
    using Chunk = std::vector<Slot, prof::CountingAllocator<Slot>>;
    std::vector<Line, prof::CountingAllocator<Line>> lines_;
    /// Logical index 0 of the heap: the lines, read as one flat array of
    /// keys, kPad keys in.
    Key* heap_ = nullptr;
    std::size_t size_ = 0;
    std::vector<Chunk, prof::CountingAllocator<Chunk>> chunks_;
    std::uint32_t free_ = kNoSlot;
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
