// Workload `headline`: the paper's headline table, made with the same
// core::runners calls as bench/tab_headline. Every runner call builds its
// own 2-node crossbar cluster on size-only buffers, so cluster builds
// stay inside the run window; the set-up window holds only one warm-up
// build per network. The paper's configurations are fixed, so the seed
// is ignored.
#include <functional>

#include "bench.hpp"
#include "core/cluster.hpp"
#include "core/runners.hpp"

namespace fabricbench {

namespace {

using core::Network;
using core::NetworkProfile;

/// One runner call: its output key, the span its host time is booked
/// under, and the call itself.
struct Call {
  const char* key;
  const char* span;
  std::function<double(const NetworkProfile&, MetricRegistry*)> run;
};

Call ul_latency(const char* key) {
  return {key, "core.runner.userlevel_latency", [](const NetworkProfile& p, MetricRegistry* m) {
            return core::userlevel_pingpong_latency_us(p, 4, 30, nullptr, m);
          }};
}
Call ul_bandwidth(const char* key) {
  return {key, "core.runner.userlevel_bw", [](const NetworkProfile& p, MetricRegistry* m) {
            return core::userlevel_bandwidth_mbps(p, 4 << 20, 4, nullptr, m);
          }};
}
Call mpi_latency(const char* key) {
  return {key, "core.runner.mpi_latency", [](const NetworkProfile& p, MetricRegistry* m) {
            return core::mpi_pingpong_latency_us(p, 4, 30, nullptr, m);
          }};
}
Call mpi_bidir(const char* key) {
  return {key, "core.runner.mpi_bw", [](const NetworkProfile& p, MetricRegistry* m) {
            return core::mpi_bidir_bw_mbps(p, 1 << 20, 8, nullptr, m);
          }};
}
Call mpi_bothway(const char* key) {
  return {key, "core.runner.mpi_bw", [](const NetworkProfile& p, MetricRegistry* m) {
            return core::mpi_bothway_bw_mbps(p, 1 << 20, 12, 3, nullptr, m);
          }};
}
Call bufreuse(const char* key, std::uint32_t msg, bool reuse) {
  return {key, "core.runner.bufreuse", [msg, reuse](const NetworkProfile& p, MetricRegistry* m) {
            return core::bufreuse_latency_us(p, msg, reuse, 16, 32, nullptr, m);
          }};
}

/// tab_headline's calls, grouped by network (22 calls for 19 numbers:
/// each buffer re-use ratio takes two).
std::vector<Call> calls_for(Network net) {
  switch (net) {
    case Network::kIwarp:
      return {ul_latency("iwarp.userlevel_latency_us"), ul_bandwidth("iwarp.userlevel_bw_mbps"),
              mpi_latency("iwarp.mpi_latency_us"), mpi_bidir("iwarp.mpi_bidir_mbps"),
              mpi_bothway("iwarp.mpi_bothway_mbps"),
              bufreuse("iwarp.bufreuse_256k_cold_us", 256 << 10, false),
              bufreuse("iwarp.bufreuse_256k_warm_us", 256 << 10, true)};
    case Network::kIb:
      return {ul_latency("ib.userlevel_latency_us"), ul_bandwidth("ib.userlevel_bw_mbps"),
              mpi_latency("ib.mpi_latency_us"), mpi_bidir("ib.mpi_bidir_mbps"),
              mpi_bothway("ib.mpi_bothway_mbps"),
              bufreuse("ib.bufreuse_128k_cold_us", 128 << 10, false),
              bufreuse("ib.bufreuse_128k_warm_us", 128 << 10, true)};
    case Network::kMxoe:
      return {ul_latency("mxoe.userlevel_latency_us"), mpi_latency("mxoe.mpi_latency_us")};
    case Network::kMxom:
      return {ul_latency("mxom.userlevel_latency_us"), ul_bandwidth("mxom.userlevel_bw_mbps"),
              mpi_latency("mxom.mpi_latency_us"), mpi_bothway("mxom.mpi_bothway_mbps"),
              bufreuse("mxom.bufreuse_1m_cold_us", 1 << 20, false),
              bufreuse("mxom.bufreuse_1m_warm_us", 1 << 20, true)};
  }
  return {};
}

/// Fold a 64-bit value into an FNV-1a digest (the Engine's own mixing).
std::uint64_t digest_mix(std::uint64_t digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

void add_counters(MetricRegistry& into, const MetricRegistry& from) {
  for (const auto& [name, counter] : from.counters()) into.counter(name).add(counter.value());
  for (const auto& [name, gauge] : from.gauges()) {
    Gauge& g = into.gauge(name);
    if (gauge.max() > g.max()) g.set(gauge.max());
  }
}

Cell run_cell(Network net, const RunParams& /*params*/, Probe& probe) {
  Cell cell;
  cell.net = net;
  const NetworkProfile profile = core::profile(net);
  const std::vector<Call> calls = calls_for(net);

  // Set-up: one warm-up build of the 2-node crossbar every runner uses.
  const HeapTally setup_heap0 = heap_tally();
  const double setup0 = now_s();
  {
    ScopedSpan span(probe.spans, "core.cluster_build", probe.parent);
    core::Cluster warm(2, profile);
  }
  cell.build_s = cell.setup_s = now_s() - setup0;
  cell.setup_heap = heap_tally() - setup_heap0;

  // Run: every runner call, each on its own fresh cluster. A registry is
  // passed in both passes so every call yields its sim.digest.
  std::vector<MetricRegistry> registries(calls.size());
  cell.values.reserve(calls.size());
  cell.run_parts.reserve(calls.size());
  const HeapTally run_heap0 = heap_tally();
  {
    ScopedSpan run_span(probe.spans, "headline.run", probe.parent);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const std::uint64_t op = probe.next_op++;
      ScopedSpan span(probe.spans, calls[i].span, run_span.id(), op);
      const double call0 = now_s();
      const double value = calls[i].run(profile, &registries[i]);
      cell.run_parts.push_back(now_s() - call0);
      cell.run_s += cell.run_parts.back();
      cell.values.emplace_back(calls[i].key, value);
    }
  }
  cell.run_heap = heap_tally() - run_heap0;

  cell.digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (std::size_t i = 0; i < calls.size(); ++i) {
    cell.digest = digest_mix(cell.digest, registries[i].counter_value("sim.digest"));
    cell.run_events += registries[i].counter_value("sim.events");
    cell.ops += 1;
    if (probe.traced()) {
      add_counters(cell.counters, registries[i]);
      cell.runner_s[calls[i].span] += cell.run_parts[i];
    }
  }
  return cell;
}

}  // namespace

const Workload kHeadline{"headline",
                         {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom},
                         /*uses_seed=*/false,
                         run_cell};

const std::vector<PaperNumber>& paper_numbers() {
  static const std::vector<PaperNumber> numbers = {
      {"iwarp.userlevel_latency_us", nullptr, 9.78},
      {"ib.userlevel_latency_us", nullptr, 4.53},
      {"mxoe.userlevel_latency_us", nullptr, 3.45},
      {"mxom.userlevel_latency_us", nullptr, 3.05},
      {"iwarp.userlevel_bw_mbps", nullptr, 880},
      {"ib.userlevel_bw_mbps", nullptr, 970},
      {"mxom.userlevel_bw_mbps", nullptr, 930},
      {"iwarp.mpi_latency_us", nullptr, 10.7},
      {"ib.mpi_latency_us", nullptr, 4.8},
      {"mxoe.mpi_latency_us", nullptr, 3.6},
      {"mxom.mpi_latency_us", nullptr, 3.3},
      {"iwarp.mpi_bidir_mbps", nullptr, 856},
      {"ib.mpi_bidir_mbps", nullptr, 960},
      {"iwarp.mpi_bothway_mbps", nullptr, 950},
      {"ib.mpi_bothway_mbps", nullptr, 1780},
      {"mxom.mpi_bothway_mbps", nullptr, 1400},
      {"ib.bufreuse_128k_cold_us", "ib.bufreuse_128k_warm_us", 4.3},
      {"iwarp.bufreuse_256k_cold_us", "iwarp.bufreuse_256k_warm_us", 2.0},
      {"mxom.bufreuse_1m_cold_us", "mxom.bufreuse_1m_warm_us", 2.4},
  };
  return numbers;
}

}  // namespace fabricbench
