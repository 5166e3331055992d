// Figure 8: effect of the receive (posted) queue on latency. Both sides
// pre-post `depth` receives with a never-yet-matched tag; every measured
// ping-pong message must traverse them before reaching its own receive.
// Reported: ratio of loaded-queue latency to empty-queue latency.
#include <string>

#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  const Bench bench("fig8_receive_queue", argc, argv, {.quick = true});
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};

  const std::vector<int> depths = bench.quick() ? std::vector<int>{64, 256} :
                                                  std::vector<int>{16, 64, 128, 256, 512};
  // FabricScope probe configuration (present in both depth sweeps).
  constexpr std::uint32_t kProbeMsg = 1024;
  constexpr int kProbeDepth = 256;

  Report report(bench.report_name());
  report.add_note("receive (posted) queue effect: loaded/empty latency ratio");
  report.add_note("probe: loaded half-RTT histogram + metrics at msg=1024B depth=256");
  report.add_note("paper: the receive-queue impact is more than twice the unexpected-queue "
                  "impact for small messages; the iWARP MPI is best (max ratio ~2.5), Myrinet "
                  "is the worst network here: MX's NIC-resident traversal of early-posted "
                  "receives is slow");

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
        Probe probe(msg == kProbeMsg && depth == kProbeDepth);
        const double loaded =
            recv_queue_latency_us(profile(n), msg, depth, 16, probe.hist(), probe.metrics());
        probe.record(report, network_name(n), "loaded_latency_us");
        row.push_back(loaded / base[static_cast<std::size_t>(i++)]);
      }
      ratio.add_row(depth, std::move(row));
    }
    report.add_table(ratio);
  }

  return bench.finish(report);
}
