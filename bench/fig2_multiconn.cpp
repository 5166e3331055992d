// Figure 2: normalized multiple-connection latency and aggregate
// throughput for NetEffect iWARP vs Mellanox IB over the common verbs
// interface, 1..256 connections between two nodes.
#include <string>
#include <vector>

#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  const Bench bench("fig2_multiconn", argc, argv, {.quick = true});
  const bool quick = bench.quick();

  const std::vector<int> connections =
      quick ? std::vector<int>{1, 4, 16, 64} : std::vector<int>{1, 2, 4, 8, 16, 32, 64, 128, 256};
  const std::vector<std::uint32_t> lat_sizes = {1, 1024, 2048, 4096, 8192, 16384};
  const std::vector<std::uint32_t> tput_sizes = {512, 1024, 2048, 4096, 8192, 16384};
  // FabricScope probe configuration (present in both sweep variants).
  constexpr int kProbeConns = 16;
  constexpr std::uint32_t kProbeMsg = 1024;

  Report report(bench.report_name());
  report.add_note("multi-connection scalability, iWARP vs IB over common verbs");
  report.add_note("probe: per-round normalized latency histogram + metrics at conns=16 msg=1024B");
  report.add_note("paper: iWARP normalized latency keeps dropping up to 128 connections "
                  "(pipelined protocol engine); IB improves only up to 8 connections, then "
                  "serializes (QP context cache misses on the MemFree card)");
  report.add_note("paper: IB small-message throughput drops at 8+ connections, iWARP sustains; "
                  "behaviour converges for messages > 4 KB");

  for (Network network : {Network::kIwarp, Network::kIb}) {
    std::vector<std::string> cols;
    for (auto m : lat_sizes) cols.push_back("msg=" + std::to_string(m) + "B");
    Table latency(std::string("Normalized multi-connection latency (us) — ") +
                      network_name(network),
                  "connections", cols);
    for (int c : connections) {
      std::vector<double> row;
      for (auto m : lat_sizes) {
        Probe probe(c == kProbeConns && m == kProbeMsg);
        row.push_back(multiconn_normalized_latency_us(profile(network), c, m, 16, probe.hist(),
                                                      probe.metrics()));
        probe.record(report, network_name(network), "norm_latency_us");
      }
      latency.add_row(c, std::move(row));
    }
    report.add_table(latency);
  }

  for (Network network : {Network::kIwarp, Network::kIb}) {
    std::vector<std::string> cols;
    for (auto m : tput_sizes) cols.push_back("msg=" + std::to_string(m) + "B");
    Table tput(std::string("Multi-connection aggregate throughput (MB/s) — ") +
                   network_name(network),
               "connections", cols);
    for (int c : connections) {
      std::vector<double> row;
      for (auto m : tput_sizes) {
        row.push_back(multiconn_throughput_mbps(profile(network), c, m));
      }
      tput.add_row(c, std::move(row));
    }
    report.add_table(tput);
  }

  return bench.finish(report);
}
