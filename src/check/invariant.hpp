// FabricCheck: the engine's runtime checker.
//
// An InvariantMonitor is attached to an Engine the same way the Tracer,
// the MetricRegistry and the FaultInjector are: caller-owned, optional,
// and every emission site guards on the pointer so a disabled monitor
// costs one branch. It does three jobs through one seam:
//
//   * protocol invariants — each layer reports violations of its own
//     invariants (PSN monotonicity, DDP ordering, queue bounds, request
//     lifecycle, ...) through report()/expect();
//   * the scope audit (FabricScope-Check's dynamic half, sim/scope.hpp) —
//     Engine::dispatch brackets every event with begin_event(at, scope) /
//     end_event(), and the FABSIM_AUDIT_OWNED / FABSIM_AUDIT_SHARED traps
//     in the stacks call owned_access() / shared_access(). An access whose
//     owner contradicts the dispatching event's scope label is reported as
//     sim.scope_confinement or sim.scope_shared_state;
//   * the allocation budget (FabricHot-Check's dynamic half, sim/hot.hpp) —
//     the same bracket charges every prof::CountingAllocator allocation
//     made during the event against a budget of zero, minus the queue
//     growth the Engine excuses through excuse_growth(). Any excess is
//     sim.hot_alloc_budget. Only the Engine's event queue allocates
//     through CountingAllocator, and post() excuses each of its growths,
//     so the budget proves that the queue counts its own growth honestly.
//     It does not see other heap traffic: whole-process allocations per
//     event are FabricBench's heap.allocs_per_event.
//
// Every violation, whatever its source, has the same typed record
// (sim-time, layer, node, rule) and the same two reporting modes:
//   * fatal (the default, used by tests): the first violation throws
//     InvariantViolationError out of Engine::run();
//   * counting (used by FABSIM_CHECK bench runs): violations accumulate
//     in the monitor and surface as `check.<layer>.<rule>` counters via
//     an optional MetricRegistry, so a sweep completes and reports.
//
// The monitor never posts events and never advances time: attaching one
// must leave the simulated timeline byte-identical (pinned by
// tests/check_test.cpp, tests/scope_test.cpp and tests/hotpath_test.cpp).
//
// Everything here is header-only on purpose: sim::Engine invokes the
// monitor from its run loop, and fabsim_check links against fabsim_sim —
// inline definitions break what would otherwise be a library cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/hot.hpp"
#include "sim/metrics.hpp"
#include "sim/prof.hpp"
#include "sim/time.hpp"

namespace fabsim::check {

/// Which protocol layer reported the violation.
enum class Layer : std::uint8_t { kSim, kHw, kIb, kIwarp, kMx, kMpi };

inline const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kHw: return "hw";
    case Layer::kIb: return "ib";
    case Layer::kIwarp: return "iwarp";
    case Layer::kMx: return "mx";
    case Layer::kMpi: return "mpi";
  }
  return "?";
}

/// One broken invariant, with enough context to debug it post-mortem.
struct InvariantViolation {
  Time at = 0;        ///< simulated time of the report
  Layer layer = Layer::kSim;
  int node = -1;      ///< node / rank / port; -1 when not applicable
  std::string rule;   ///< stable rule id, e.g. "resend_queue_gap"
  std::string detail; ///< human-readable specifics

  std::string to_string() const {
    return std::string(layer_name(layer)) + "." + rule + " @" + std::to_string(to_us(at)) +
           "us node=" + std::to_string(node) + ": " + detail;
  }
};

/// Thrown by a fatal monitor on the first violation.
class InvariantViolationError : public std::runtime_error {
 public:
  explicit InvariantViolationError(InvariantViolation violation)
      : std::runtime_error("invariant violated: " + violation.to_string()),
        violation_(std::move(violation)) {}

  const InvariantViolation& violation() const { return violation_; }

 private:
  InvariantViolation violation_;
};

class InvariantMonitor {
 public:
  /// `fatal` = throw on the first violation (test mode); otherwise count.
  explicit InvariantMonitor(bool fatal = true) : fatal_(fatal) {}

  bool fatal() const { return fatal_; }

  /// Optional registry for `check.*` counters in counting mode.
  void set_metrics(MetricRegistry* metrics) { metrics_ = metrics; }

  /// Record a violation. Fatal monitors throw; counting monitors keep
  /// the record (bounded) and bump `check.violations` +
  /// `check.<layer>.<rule>`.
  void report(Time at, Layer layer, int node, std::string rule, std::string detail) {
    InvariantViolation violation{at, layer, node, std::move(rule), std::move(detail)};
    // HOT-OK(fatal-mode audit stop; never taken on a clean steady-state run)
    if (fatal_) throw InvariantViolationError(std::move(violation));
    ++violation_count_;
    if (metrics_ != nullptr) {
      metrics_->counter("check.violations").add();
      metrics_->counter(std::string("check.") + layer_name(layer) + "." + violation.rule).add();
    }
    // HOT-OK(violation recording, capped at kMaxKept; clean runs never reach it)
    if (violations_.size() < kMaxKept) violations_.push_back(std::move(violation));
  }

  /// Audit helper: the detail string is only built on failure, so hot
  /// paths pay one predicate evaluation and one branch.
  template <typename DetailFn>
  void expect(bool ok, Time at, Layer layer, int node, const char* rule, DetailFn&& detail) {
    if (!ok) report(at, layer, node, rule, std::forward<DetailFn>(detail)());
  }

  std::uint64_t violation_count() const { return violation_count_; }
  const std::vector<InvariantViolation>& violations() const { return violations_; }
  bool clean() const { return violations_.empty() && violation_count_ == 0; }

  // --- Engine dispatch bracket ------------------------------------------

  /// Engine::dispatch calls this before every event callback, with the
  /// scope label the event was posted under (-1 = unconfined).
  void begin_event(Time at, int scope) {
    event_at_ = at;
    event_scope_ = scope;
    allocs_at_begin_ = prof::alloc_stats().allocs;
    excused_ = 0;
    in_event_ = true;
  }

  /// The Engine's event queue grew during this event: excuse that many
  /// tracked allocations from the event's zero budget.
  void excuse_growth(std::uint64_t allocs) {
    if (in_event_) excused_ += allocs;
  }

  /// Engine::dispatch calls this after the callback returns: charges the
  /// event's unexcused tracked allocations against the zero budget.
  void end_event() {
    if (!in_event_) return;
    in_event_ = false;
    ++hot_checks_;
    const std::uint64_t allocs = prof::alloc_stats().allocs - allocs_at_begin_;
    if (allocs > excused_) report_alloc_budget(allocs - excused_);
  }

  // --- Scope traps (FABSIM_AUDIT_OWNED / FABSIM_AUDIT_SHARED) -----------
  // No-ops outside a dispatch bracket: spawn()'s run-to-first-suspension
  // happens in caller context, where no scope label exists to check.

  /// State owned by `owner_node` is being touched. Legal from an event
  /// labelled with that node's scope or with -1 (no claim).
  void owned_access(Layer layer, int owner_node, const char* what) {
    if (!in_event_) return;
    ++scope_checks_;
    if (event_scope_ >= 0 && owner_node >= 0 && event_scope_ != owner_node) {
      report_scope_confinement(layer, owner_node, what);
    }
  }

  /// Cross-node shared state is being touched. Legal only from an event
  /// labelled -1: a confined label claims the event cannot reach shared
  /// state, which is exactly what DPOR reduction relies on.
  void shared_access(Layer layer, int node, const char* what) {
    if (!in_event_) return;
    ++scope_checks_;
    if (event_scope_ >= 0) report_scope_shared_state(layer, node, what);
  }

  /// Audit coverage, published as scope.* and hot.* by
  /// Cluster::collect_metrics. Zero checks with a monitor attached means
  /// the traps or the bracket never ran.
  std::uint64_t scope_checks() const { return scope_checks_; }
  std::uint64_t scope_violations() const { return scope_violations_; }
  std::uint64_t hot_checks() const { return hot_checks_; }
  std::uint64_t hot_violations() const { return hot_violations_; }

  /// Final checks run when the engine's event queue drains (end of every
  /// Engine::run()). Components register whole-state audits here —
  /// conservation laws, queue disjointness — things only checkable at a
  /// quiescent point. Checks must be idempotent: staged benches drain
  /// more than once.
  void add_final_check(std::function<void(InvariantMonitor&)> fn) {
    final_checks_.push_back(std::move(fn));
  }

  void run_final_checks() {
    for (auto& fn : final_checks_) fn(*this);
  }

 private:
  // Violation paths: kept out of the bracket and trap bodies, so those
  // stay free of string building.
  FABSIM_COLD void report_scope_confinement(Layer layer, int owner_node, const char* what) {
    ++scope_violations_;
    report(event_at_, layer, owner_node, "scope_confinement",
           std::string(what) + ": state owned by node " + std::to_string(owner_node) +
               " touched by an event labelled scope " + std::to_string(event_scope_));
  }
  FABSIM_COLD void report_scope_shared_state(Layer layer, int node, const char* what) {
    ++scope_violations_;
    report(event_at_, layer, node, "scope_shared_state",
           std::string(what) + ": shared state touched by an event labelled scope " +
               std::to_string(event_scope_) + " (shared state requires scope -1)");
  }
  FABSIM_COLD void report_alloc_budget(std::uint64_t unexcused) {
    ++hot_violations_;
    report(event_at_, Layer::kSim, -1, "hot_alloc_budget",
           "event dispatched " + std::to_string(unexcused) +
               " tracked allocation(s); the hot-path budget is 0"
               " (amortized queue growth is excused separately)");
  }

  // Cap the retained records so a hot-loop violation in counting mode
  // cannot grow without bound; the count keeps the true total.
  static constexpr std::size_t kMaxKept = 256;

  bool fatal_;
  MetricRegistry* metrics_ = nullptr;
  std::uint64_t violation_count_ = 0;
  std::vector<InvariantViolation> violations_;
  std::vector<std::function<void(InvariantMonitor&)>> final_checks_;

  // Dispatch bracket state.
  bool in_event_ = false;
  Time event_at_ = 0;
  int event_scope_ = -1;
  std::uint64_t allocs_at_begin_ = 0;
  std::uint64_t excused_ = 0;

  std::uint64_t scope_checks_ = 0;
  std::uint64_t scope_violations_ = 0;
  std::uint64_t hot_checks_ = 0;
  std::uint64_t hot_violations_ = 0;
};

}  // namespace fabsim::check
