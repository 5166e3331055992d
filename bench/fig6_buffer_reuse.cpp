// Figure 6: effect of message-buffer re-use on ping-pong latency.
// 16 statically-allocated buffers per message size; the reported value is
// the ratio of no-re-use (cycle all 16) latency over full-re-use (always
// the same buffer) latency.
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
  constexpr std::uint32_t kProbeMsg = 4096;
  std::printf("=== Figure 6: buffer re-use effect (paper Sec. 6.4) ===\n");

  Report report(quick ? "fig6_buffer_reuse_quick" : "fig6_buffer_reuse");
  report.add_note("buffer re-use effect: no-reuse/full-reuse latency ratio");
  report.add_note("probe: cold (no-reuse) and warm half-RTT histograms + metrics at msg=4KB");

  Table ratio("Latency ratio: 0% re-use / 100% re-use", "msg_bytes",
              {"iWARP", "IB", "MXoE", "MXoM"});
  for (std::uint32_t msg : pow2_sizes(64, quick ? 256 * 1024 : 1 << 20)) {
    std::vector<double> row;
    const int iters = msg >= (1 << 19) ? 20 : 32;
    for (Network n : networks) {
      double cold = 0, warm = 0;
      if (msg == kProbeMsg) {
        Histogram cold_hist, warm_hist;
        MetricRegistry metrics;
        cold = bufreuse_latency_us(profile(n), msg, /*reuse=*/false, 16, iters, &cold_hist,
                                   &metrics);
        warm = bufreuse_latency_us(profile(n), msg, /*reuse=*/true, 16, iters, &warm_hist);
        report.add_histogram(std::string(network_name(n)) + ".cold_latency_us", cold_hist);
        report.add_histogram(std::string(network_name(n)) + ".warm_latency_us", warm_hist);
        report.add_metrics(metrics, std::string(network_name(n)) + ".");
      } else {
        cold = bufreuse_latency_us(profile(n), msg, /*reuse=*/false, 16, iters);
        warm = bufreuse_latency_us(profile(n), msg, /*reuse=*/true, 16, iters);
      }
      row.push_back(cold / warm);
    }
    ratio.add_row(msg, std::move(row));
  }
  ratio.print();

  report.add_table(ratio);
  report.write();

  std::printf(
      "\nPaper reference points: <10%% impact up to 256 B; eager-size ratios\n"
      "~1.08 (iWARP) / ~1.55 (IB) / ~1.53 (Myrinet); rendezvous-size peaks 4.3\n"
      "(IB, 128 KB), ~2.0 (iWARP, 256 KB), ~2.4 (Myri-10G, 1 MB). Registration\n"
      "cost dominates; iWARP is best for very large messages. Disabling the MX\n"
      "registration cache flattens the Myrinet curve (see ext_ablation_regcache).\n");
  return 0;
}
