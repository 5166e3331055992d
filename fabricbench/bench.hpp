// FabricBench: outside-in host-time benchmark of the FabricSim libraries.
//
// The benchmark drives the simulator only through its public API
// (core::Cluster, setup_mpi, mpi::Rank, verbs, mx::Endpoint, the
// core::runners and Engine::run) and times those calls with its own host
// clock. Each workload runs one *cell* per network per cycle: a set-up
// window, then a run window over a fixed amount of simulated work. The
// untraced pass yields the end-to-end numbers; the traced pass attaches a
// stride-1 Profiler, records spans around every layer call and snapshots
// the simulated counters. See README.md for every metric's definition.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "sim/metrics.hpp"
#include "sim/prof.hpp"

namespace fabsim::core {
class Cluster;
}

namespace fabricbench {

using namespace fabsim;  // the simulator's public API, used throughout

// --- host clock --------------------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- whole-process heap counter (heap_counter.cpp) ----------------------

/// Running totals of this thread's global operator new calls. The
/// replacement operators are linked into the benchmark binary only.
struct HeapTally {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
HeapTally heap_tally();
inline HeapTally operator-(HeapTally a, HeapTally b) {
  return HeapTally{a.allocs - b.allocs, a.bytes - b.bytes};
}
inline HeapTally& operator+=(HeapTally& a, HeapTally b) {
  a.allocs += b.allocs;
  a.bytes += b.bytes;
  return a;
}

// --- spans --------------------------------------------------------------

/// In-memory span log of the traced pass: one span per layer call, with
/// its parent and the application op it belongs to. Written once, at
/// exit, in the Chrome-trace format the simulator's exporter uses.
class SpanLog {
 public:
  SpanLog() : epoch_s_(now_s()) {}

  /// `name` must be a string literal (spans keep the pointer).
  int open(const char* name, int parent, std::uint64_t op = 0);
  /// Close span `id`; returns its duration in seconds.
  double close(int id);
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;
    std::uint64_t op;
  };
  double epoch_s_;
  std::vector<Span> spans_;
};

/// RAII span on an optional log: a no-op when `log` is null (the
/// untraced pass), so call sites need no branches of their own.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent, std::uint64_t op = 0)
      : log_(log), id_(log != nullptr ? log->open(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// --- per-cell results -----------------------------------------------------

/// What one pass needs from the caller: the span log (null = untraced)
/// and the span every cell's spans hang under.
struct Probe {
  SpanLog* spans = nullptr;
  int parent = -1;
  std::uint64_t next_op = 1;  ///< op ids, unique across the process
  bool traced() const { return spans != nullptr; }
};

/// One network's set-up plus run, in one pass.
struct Cell {
  core::Network net{};
  double build_s = 0;  ///< Cluster construction, inside setup_s
  double setup_s = 0;
  double run_s = 0;  ///< the sum of run_parts
  /// Host seconds of each part of the run window, in order: a runner
  /// call, an allreduce placement or an incast round, then teardown.
  std::vector<double> run_parts;
  std::uint64_t setup_events = 0;
  std::uint64_t run_events = 0;
  std::uint64_t digest = 0;  ///< Engine::run_digest, folded over the cell's clusters
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  HeapTally setup_heap;
  HeapTally run_heap;

  // Traced pass only.
  MetricRegistry counters;  ///< collect_metrics() snapshot, summed over clusters
  bool profiled = false;    ///< the Profiler could attach (not on headline)
  double dispatch_ns_per_event = 0;
  double heap_ops_per_event = 0;
  double queue_peak_depth = 0;
  double queue_allocs_per_event = 0;
  std::vector<double> small_ms, large_ms;  ///< allreduce_clos rank-0 spans
  std::map<std::string, double> runner_s;  ///< headline: host s per runner span name

  // headline only: the 22 runner outputs, keyed as in expected.json.
  std::vector<std::pair<const char*, double>> values;
};

/// Inputs of one cell: the workload seed, and the negative self-test
/// switch that corrupts one expected output so the check must fire.
struct RunParams {
  std::uint64_t seed = 1;
  bool corrupt_expected = false;
};

/// Per-workload input generator and runner: run one cell of `net`.
struct Workload {
  const char* name;
  std::vector<core::Network> nets;
  bool uses_seed;
  Cell (*run_cell)(core::Network net, const RunParams& params, Probe& probe);
};

extern const Workload kHeadline;
extern const Workload kAllreduceClos;
extern const Workload kIncastLossy;

/// One of the paper's 19 headline numbers: `num` (or the ratio num/den)
/// of the headline runner outputs, against the paper's value.
struct PaperNumber {
  const char* num;
  const char* den;  ///< nullptr: the number is `num` itself
  double paper;
};
const std::vector<PaperNumber>& paper_numbers();

/// The traced pass's end-of-run readings: the cluster's simulated
/// counters and the stride-1 Profiler's dispatch and queue numbers.
void read_traced(core::Cluster& cluster, const Profiler& profiler, Cell& cell);

/// Destroy `world` inside the run window: users pay teardown too, so its
/// host time and heap traffic count toward the cell's run numbers.
template <typename World>
void teardown(std::unique_ptr<World>& world, const Probe& probe, Cell& cell) {
  const HeapTally heap0 = heap_tally();
  const double t0 = now_s();
  {
    ScopedSpan span(probe.spans, "core.cluster_teardown", probe.parent);
    world.reset();
  }
  cell.run_parts.push_back(now_s() - t0);
  cell.run_s += cell.run_parts.back();
  cell.run_heap += heap_tally() - heap0;
}

}  // namespace fabricbench
