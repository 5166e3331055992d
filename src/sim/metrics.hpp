// FabricScope metric registry: named counters, gauges, and per-phase
// time attribution.
//
// A MetricRegistry is attached to the Engine exactly like the Tracer:
// caller-owned, null when disabled, every emission site guards on the
// pointer so the cost is one branch when observability is off. Names
// are hierarchical dotted strings ("ib.node0.retransmits",
// "switch.port2.tail_drops", "mpi.rank1.unexpected_max_depth") so a
// snapshot sorts into a readable taxonomy and downstream tools can
// split on '.' to group by component.
//
// Two populations coexist:
//   * pull — components keep their own cheap integer counters (they
//     already do: retransmits_, reg_hits_, busy_time()); at end of run
//     Cluster::collect_metrics() snapshots them into the registry, so
//     names exist only at collection time.
//   * push — phase time (host/NIC/wire, the Fig. 5 decomposition),
//     attributed as it is booked.
//
// Names and metrics live in one arena per registry: destroying a
// registry frees a few blocks, not one heap node per name.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace fabsim {

/// Where a slice of simulated time was spent, LogP-style. kHost is CPU
/// time in the library/application, kNic is DMA + NIC engine occupancy,
/// kWire is serialization + propagation through the fabric.
enum class Phase : std::uint8_t { kHost, kNic, kWire };

inline const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kHost: return "host";
    case Phase::kNic: return "nic";
    case Phase::kWire: return "wire";
  }
  return "?";
}

/// Monotone event count (retransmits, acks, cache hits).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  void set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level (queue depth, utilization). Remembers its
/// high-water mark, which is usually the number the paper wants.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  double value() const { return value_; }
  double max() const { return max_; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
};

class MetricRegistry {
 public:
  /// Name-sorted metrics; keys and nodes are allocated in the arena.
  template <typename Metric>
  using Map = std::pmr::map<std::pmr::string, Metric, std::less<>>;

  /// Find-or-create by hierarchical name. References stay valid for the
  /// registry's lifetime (map nodes are stable, and the arena never
  /// frees one before the registry goes).
  Counter& counter(std::string_view name) { return find_or_add(store_->counters, name); }
  Gauge& gauge(std::string_view name) { return find_or_add(store_->gauges, name); }

  bool has_counter(std::string_view name) const { return store_->counters.contains(name); }
  std::uint64_t counter_value(std::string_view name) const {
    auto it = store_->counters.find(name);
    return it == store_->counters.end() ? 0 : it->second.value();
  }
  double gauge_max(std::string_view name) const {
    auto it = store_->gauges.find(name);
    return it == store_->gauges.end() ? 0.0 : it->second.max();
  }

  // --- per-phase time attribution -----------------------------------
  // charge_phase() is the hot push-path hook: hardware models call it
  // (through Engine::charge_phase, guarded on null) whenever they book
  // busy time on a serial/pipelined resource. Accumulated per phase, for
  // the global LogP split.

  void charge_phase(Phase phase, Time duration) {
    phase_total_[static_cast<std::size_t>(phase)] += duration;
  }
  Time phase_time(Phase phase) const { return phase_total_[static_cast<std::size_t>(phase)]; }
  void reset_phases() { phase_total_[0] = phase_total_[1] = phase_total_[2] = 0; }

  // --- iteration -----------------------------------------------------

  const Map<Counter>& counters() const { return store_->counters; }
  const Map<Gauge>& gauges() const { return store_->gauges; }

  /// Flat sorted (name, value) view of everything — counters, gauge
  /// high-water marks, and phase totals in microseconds — for reports.
  std::vector<std::pair<std::string, double>> snapshot() const;

  void clear() { *this = MetricRegistry(); }

 private:
  /// The maps and the arena they allocate from, held through one
  /// pointer so the registry moves without rebinding an allocator.
  struct Store {
    std::pmr::monotonic_buffer_resource arena;
    Map<Counter> counters{&arena};
    Map<Gauge> gauges{&arena};
  };

  template <typename Metric>
  static Metric& find_or_add(Map<Metric>& map, std::string_view name) {
    auto it = map.find(name);
    if (it == map.end()) it = map.emplace(name, Metric{}).first;
    return it->second;
  }

  std::unique_ptr<Store> store_ = std::make_unique<Store>();
  Time phase_total_[3] = {0, 0, 0};
};

}  // namespace fabsim
