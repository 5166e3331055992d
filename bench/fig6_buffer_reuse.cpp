// Figure 6: effect of message-buffer re-use on ping-pong latency.
// 16 statically-allocated buffers per message size; the reported value is
// the ratio of no-re-use (cycle all 16) latency over full-re-use (always
// the same buffer) latency.
#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  const Bench bench("fig6_buffer_reuse", argc, argv, {.quick = true});
  const bool quick = bench.quick();
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};
  constexpr std::uint32_t kProbeMsg = 4096;

  Report report(bench.report_name());
  report.add_note("buffer re-use effect: no-reuse/full-reuse latency ratio");
  report.add_note("probe: cold (no-reuse) and warm half-RTT histograms + metrics at msg=4KB");
  report.add_note("paper: <10% impact up to 256 B; eager-size ratios ~1.08 (iWARP) / ~1.55 (IB) "
                  "/ ~1.53 (Myrinet); rendezvous-size peaks 4.3 (IB, 128 KB), ~2.0 (iWARP, "
                  "256 KB), ~2.4 (Myri-10G, 1 MB)");
  report.add_note("paper: registration cost dominates; iWARP is best for very large messages; "
                  "disabling the MX registration cache flattens the Myrinet curve (see "
                  "ext_ablation_regcache)");

  Table ratio("Latency ratio: 0% re-use / 100% re-use", "msg_bytes",
              {"iWARP", "IB", "MXoE", "MXoM"});
  for (std::uint32_t msg : pow2_sizes(64, quick ? 256 * 1024 : 1 << 20)) {
    std::vector<double> row;
    const int iters = msg >= (1 << 19) ? 20 : 32;
    for (Network n : networks) {
      Probe cold_probe(msg == kProbeMsg), warm_probe(msg == kProbeMsg);
      const double cold = bufreuse_latency_us(profile(n), msg, /*reuse=*/false, 16, iters,
                                              cold_probe.hist(), cold_probe.metrics());
      const double warm =
          bufreuse_latency_us(profile(n), msg, /*reuse=*/true, 16, iters, warm_probe.hist());
      cold_probe.record(report, network_name(n), "cold_latency_us");
      warm_probe.record(report, network_name(n), "warm_latency_us");
      row.push_back(cold / warm);
    }
    ratio.add_row(msg, std::move(row));
  }

  report.add_table(ratio);
  return bench.finish(report);
}
