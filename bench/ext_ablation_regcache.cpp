// Extension X3 — ablation: MX registration cache disabled.
// The paper notes (Sec. 6.4): "when we disable the Myrinet registration
// cache, the effect of buffer re-use decreases to a maximum of ~1.25" —
// with no cache, both re-use patterns pay registration, so the ratio
// collapses. We sweep the cache bound as well to show the thrash point
// moving.
#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

/// Cold/warm latency ratio. `cold` observes the cold pattern: its metric
/// dump (reg_cache hits/misses/evictions) tells the whole story.
double ratio_at(const NetworkProfile& p, std::uint32_t msg, Probe& cold) {
  return bufreuse_latency_us(p, msg, /*reuse=*/false, 16, 24, cold.hist(), cold.metrics()) /
         bufreuse_latency_us(p, msg, /*reuse=*/true, 16, 24);
}

}  // namespace

int main(int argc, char** argv) {
  const Bench bench("ext_ablation_regcache", argc, argv);
  // Probe at this size: past the default 8 MB pinned-byte bound for 16
  // buffers, i.e. inside the thrash regime the ablation is about.
  constexpr std::uint32_t kProbeMsg = 524288;

  Report report(bench.report_name());
  report.add_note("MX registration-cache ablation: buffer re-use ratio vs cache config");
  report.add_note("probe: cold-pattern histograms + reg_cache metrics at msg=512KB, cache on/off");
  report.add_note("expected: with the cache on, the ratio climbs once 16 buffers no longer fit "
                  "in the pinned-byte bound (default 8 MB -> ~512 KB+ messages); with it off "
                  "both patterns register every time: ratio ~1 (the paper still saw ~1.25 from "
                  "TLB/page-table warmth, which the flat registration-cost model does not "
                  "include; see EXPERIMENTS.md)");
  report.add_note("expected: a smaller bound moves the thrash point left; a larger bound "
                  "defers it");

  Table table("Buffer re-use ratio on MXoM", "msg_bytes",
              {"cache on", "cache off", "cache 2MB", "cache 32MB"});
  for (std::uint32_t msg : {32768u, 131072u, 262144u, 524288u, 1u << 20}) {
    NetworkProfile on = mxom_profile();
    NetworkProfile off = mxom_profile();
    off.mx.reg_cache_enabled = false;
    NetworkProfile small = mxom_profile();
    small.mx.reg_cache_bytes = 2ull << 20;
    NetworkProfile large = mxom_profile();
    large.mx.reg_cache_bytes = 32ull << 20;
    Probe on_probe(msg == kProbeMsg), off_probe(msg == kProbeMsg), unobserved(false);
    table.add_row(msg, {ratio_at(on, msg, on_probe), ratio_at(off, msg, off_probe),
                        ratio_at(small, msg, unobserved), ratio_at(large, msg, unobserved)});
    on_probe.record(report, "cache_on", "cold_latency_us");
    off_probe.record(report, "cache_off", "cold_latency_us");
  }
  report.add_table(table);
  return bench.finish(report);
}
