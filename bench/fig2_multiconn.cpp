// Figure 2: normalized multiple-connection latency and aggregate
// throughput for NetEffect iWARP vs Mellanox IB over the common verbs
// interface, 1..256 connections between two nodes.
#include <cstdio>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  // quick: a reduced sweep, reported as <name>_quick beside the full run.
  const bool quick = argc == 2 && std::string(argv[1]) == "quick";
  if (argc > 1 && !quick) {
    std::fprintf(stderr, "usage: %s [quick]\n", argv[0]);
    return 2;
  }
  std::printf("=== Figure 2: multi-connection scalability (paper Sec. 5.1) ===\n");

  const std::vector<int> connections =
      quick ? std::vector<int>{1, 4, 16, 64} : std::vector<int>{1, 2, 4, 8, 16, 32, 64, 128, 256};
  const std::vector<std::uint32_t> lat_sizes = {1, 1024, 2048, 4096, 8192, 16384};
  const std::vector<std::uint32_t> tput_sizes = {512, 1024, 2048, 4096, 8192, 16384};
  // FabricScope probe configuration (present in both sweep variants).
  constexpr int kProbeConns = 16;
  constexpr std::uint32_t kProbeMsg = 1024;

  Report report(quick ? "fig2_multiconn_quick" : "fig2_multiconn");
  report.add_note("multi-connection scalability, iWARP vs IB over common verbs");
  report.add_note("probe: per-round normalized latency histogram + metrics at conns=16 msg=1024B");

  for (Network network : {Network::kIwarp, Network::kIb}) {
    std::vector<std::string> cols;
    for (auto m : lat_sizes) cols.push_back("msg=" + std::to_string(m) + "B");
    Table latency(std::string("Normalized multi-connection latency (us) — ") +
                      network_name(network),
                  "connections", cols);
    for (int c : connections) {
      std::vector<double> row;
      for (auto m : lat_sizes) {
        if (c == kProbeConns && m == kProbeMsg) {
          Histogram hist;
          MetricRegistry metrics;
          row.push_back(multiconn_normalized_latency_us(profile(network), c, m, 16, &hist,
                                                        &metrics));
          report.add_histogram(std::string(network_name(network)) + ".norm_latency_us", hist);
          report.add_metrics(metrics, std::string(network_name(network)) + ".");
        } else {
          row.push_back(multiconn_normalized_latency_us(profile(network), c, m));
        }
      }
      latency.add_row(c, std::move(row));
    }
    latency.print();
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
    tput.print();
    report.add_table(tput);
  }

  report.write();

  std::printf(
      "\nPaper reference shape: iWARP normalized latency keeps dropping up to 128\n"
      "connections (pipelined protocol engine); IB improves only up to 8\n"
      "connections, then serializes (QP context cache misses on the MemFree\n"
      "card). Throughput mirrors it: IB small-message throughput drops at 8+\n"
      "connections, iWARP sustains. Behaviour converges for messages > 4 KB.\n");
  return 0;
}
