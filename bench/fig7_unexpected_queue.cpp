// Figure 7: effect of the unexpected-message queue on latency. Each side
// first floods the other with `depth` small unexpected messages, then the
// two sides run a synchronous-send ping-pong; the reported value is the
// ratio of loaded-queue latency to empty-queue latency.
#include <string>

#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  const Bench bench("fig7_unexpected_queue", argc, argv, {.quick = true});
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};

  const std::vector<int> depths = bench.quick() ? std::vector<int>{64, 256} :
                                                  std::vector<int>{16, 64, 128, 256, 512};
  // FabricScope probe configuration (present in both depth sweeps).
  constexpr std::uint32_t kProbeMsg = 1024;
  constexpr int kProbeDepth = 256;

  Report report(bench.report_name());
  report.add_note("unexpected-message queue effect: loaded/empty latency ratio");
  report.add_note("probe: loaded half-RTT histogram + metrics at msg=1024B depth=256");
  report.add_note("paper: small and medium messages suffer considerably from a loaded "
                  "unexpected queue, large messages barely (especially on iWARP); MPICH-MX is "
                  "best for both Myrinet and Ethernet because MX offloads unexpected-message "
                  "handling to the NIC");

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
        Probe probe(msg == kProbeMsg && depth == kProbeDepth);
        const double loaded = unexpected_queue_latency_us(profile(n), msg, depth, 16,
                                                          probe.hist(), probe.metrics());
        probe.record(report, network_name(n), "loaded_latency_us");
        row.push_back(loaded / base[static_cast<std::size_t>(i++)]);
      }
      ratio.add_row(depth, std::move(row));
    }
    report.add_table(ratio);
  }

  return bench.finish(report);
}
