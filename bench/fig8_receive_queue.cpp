// Figure 8: effect of the receive (posted) queue on latency. Both sides
// pre-post `depth` receives with a never-yet-matched tag; every measured
// ping-pong message must traverse them before reaching its own receive.
// Reported: ratio of loaded-queue latency to empty-queue latency.
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
  std::printf("=== Figure 8: receive-queue effect (paper Sec. 6.5.2) ===\n");

  const std::vector<int> depths = quick ? std::vector<int>{64, 256} :
                                          std::vector<int>{16, 64, 128, 256, 512};
  // FabricScope probe configuration (present in both depth sweeps).
  constexpr std::uint32_t kProbeMsg = 1024;
  constexpr int kProbeDepth = 256;

  Report report(quick ? "fig8_receive_queue_quick" : "fig8_receive_queue");
  report.add_note("receive (posted) queue effect: loaded/empty latency ratio");
  report.add_note("probe: loaded half-RTT histogram + metrics at msg=1024B depth=256");

  for (std::uint32_t msg : {16u, 256u, 1024u, 8192u, 32768u, 131072u}) {
    std::vector<std::string> cols;
    for (Network n : networks) cols.push_back(network_name(n));
    Table ratio("Loaded/empty latency ratio, msg=" + std::to_string(msg) + "B",
                "queue_depth", cols);
    std::vector<double> base;
    for (Network n : networks) {
      base.push_back(recv_queue_latency_us(profile(n), msg, 0));
    }
    for (int depth : depths) {
      std::vector<double> row;
      int i = 0;
      for (Network n : networks) {
        double loaded = 0;
        if (msg == kProbeMsg && depth == kProbeDepth) {
          Histogram hist;
          MetricRegistry metrics;
          loaded = recv_queue_latency_us(profile(n), msg, depth, 16, &hist, &metrics);
          report.add_histogram(std::string(network_name(n)) + ".loaded_latency_us", hist);
          report.add_metrics(metrics, std::string(network_name(n)) + ".");
        } else {
          loaded = recv_queue_latency_us(profile(n), msg, depth);
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
      "\nPaper reference shape: the receive-queue impact is more than twice the\n"
      "unexpected-queue impact for small messages; the iWARP MPI is best (max\n"
      "ratio ~2.5 per the paper's conclusions), Myrinet is the worst network\n"
      "here — MX's NIC-resident traversal of early-posted receives is slow.\n");
  return 0;
}
