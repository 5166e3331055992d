// Figure 7: effect of the unexpected-message queue on latency. Each side
// first floods the other with `depth` small unexpected messages, then the
// two sides run a synchronous-send ping-pong; the reported value is the
// ratio of loaded-queue latency to empty-queue latency.
#include <cstdio>
#include <string>

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
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};
  std::printf("=== Figure 7: unexpected-message queue effect (paper Sec. 6.5.1) ===\n");

  const std::vector<int> depths = quick ? std::vector<int>{64, 256} :
                                          std::vector<int>{16, 64, 128, 256, 512};
  // FabricScope probe configuration (present in both depth sweeps).
  constexpr std::uint32_t kProbeMsg = 1024;
  constexpr int kProbeDepth = 256;

  Report report(quick ? "fig7_unexpected_queue_quick" : "fig7_unexpected_queue");
  report.add_note("unexpected-message queue effect: loaded/empty latency ratio");
  report.add_note("probe: loaded half-RTT histogram + metrics at msg=1024B depth=256");

  for (std::uint32_t msg : {16u, 1024u, 4096u, 16384u, 65536u}) {
    std::vector<std::string> cols;
    for (Network n : networks) cols.push_back(network_name(n));
    Table ratio("Loaded/empty latency ratio, msg=" + std::to_string(msg) + "B",
                "queue_depth", cols);
    std::vector<double> base;
    for (Network n : networks) {
      base.push_back(unexpected_queue_latency_us(profile(n), msg, 0));
    }
    for (int depth : depths) {
      std::vector<double> row;
      int i = 0;
      for (Network n : networks) {
        double loaded = 0;
        if (msg == kProbeMsg && depth == kProbeDepth) {
          Histogram hist;
          MetricRegistry metrics;
          loaded = unexpected_queue_latency_us(profile(n), msg, depth, 16, &hist, &metrics);
          report.add_histogram(std::string(network_name(n)) + ".loaded_latency_us", hist);
          report.add_metrics(metrics, std::string(network_name(n)) + ".");
        } else {
          loaded = unexpected_queue_latency_us(profile(n), msg, depth);
        }
        row.push_back(loaded / base[static_cast<std::size_t>(i++)]);
      }
      ratio.add_row(depth, std::move(row));
    }
    ratio.print();
    report.add_table(ratio);
  }

  report.write();

  std::printf(
      "\nPaper reference shape: small and medium messages suffer considerably\n"
      "from a loaded unexpected queue; large messages barely (especially on\n"
      "iWARP). MPICH-MX is best for both Myrinet and Ethernet because MX\n"
      "offloads unexpected-message handling to the NIC.\n");
  return 0;
}
