// Figure 5: parameterized-LogP parameters g(m), Os(m), Or(m) measured
// with Kielmann's method on all four MPI stacks — plus the FabricScope
// cross-check: the same decomposition regenerated bottom-up from the
// engine's measured per-phase time attribution (host / NIC / wire),
// rather than from the protocol-level timing probes.
#include <string>
#include <vector>

#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  const Bench bench("fig5_logp", argc, argv, {.quick = true});
  const bool quick = bench.quick();
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};
  constexpr std::uint32_t kProbeMsg = 1024;

  Report report(bench.report_name());
  report.add_note("LogP g/Os/Or via Kielmann's method, all four MPI stacks");
  report.add_note("probe: Os/Or call-duration histograms + metrics at msg=1024B");
  report.add_note("breakdown tables: measured per-phase attribution (FabricScope), not closed form");
  report.add_note("paper: ~1 us overheads for very short messages; the receiver overhead jumps "
                  "at the eager/rendezvous switch for iWARP and IB (the receiving process "
                  "performs the rendezvous), but not for Myrinet (MX progresses large transfers "
                  "autonomously)");
  report.add_note("expected: the measured breakdown tells the same story bottom-up: host time "
                  "dominates short messages, wire+NIC time dominates large ones");

  Table gap("LogP gap g(m) (us)", "msg_bytes", {"iWARP", "IB", "MXoE", "MXoM"});
  Table os("LogP sender overhead Os(m) (us)", "msg_bytes", {"iWARP", "IB", "MXoE", "MXoM"});
  Table ores("LogP receiver overhead Or(m) (us)", "msg_bytes", {"iWARP", "IB", "MXoE", "MXoM"});
  for (std::uint32_t msg : pow2_sizes(1, quick ? 64 * 1024 : 1 << 20)) {
    std::vector<double> g, o_s, o_r;
    for (Network n : networks) {
      // One registry per point: the Os probe carries it, the Or probe
      // adds only its histogram.
      Probe os_probe(msg == kProbeMsg), or_probe(msg == kProbeMsg);
      const LogpPoint point = logp_parameters(profile(n), msg, msg >= (1 << 19) ? 8 : 16,
                                              os_probe.hist(), or_probe.hist(),
                                              os_probe.metrics());
      os_probe.record(report, network_name(n), "os_us");
      or_probe.record(report, network_name(n), "or_us");
      g.push_back(point.gap_us);
      o_s.push_back(point.os_us);
      o_r.push_back(point.or_us);
    }
    gap.add_row(msg, std::move(g));
    os.add_row(msg, std::move(o_s));
    ores.add_row(msg, std::move(o_r));
  }
  report.add_table(gap);
  report.add_table(os);
  report.add_table(ores);

  // Measured decomposition: where each ping-pong message's half-RTT went
  // according to the engine's phase attribution (host CPU vs DMA + NIC
  // engines vs serialization + propagation). The phases are busy-time
  // totals over both endpoints divided by the number of one-way
  // messages, so pipelined stages can overlap within the half-RTT.
  const std::vector<std::uint32_t> breakdown_sizes =
      quick ? std::vector<std::uint32_t>{64, 4096, 65536}
            : std::vector<std::uint32_t>{64, 1024, 4096, 16384, 65536, 262144};
  for (Network n : networks) {
    Table breakdown(std::string("Measured phase breakdown (us/message) — ") + network_name(n),
                    "msg_bytes", {"host", "nic", "wire", "half_rtt"});
    for (std::uint32_t msg : breakdown_sizes) {
      const PhaseBreakdown b = mpi_phase_breakdown(profile(n), msg, quick ? 12 : 24);
      breakdown.add_row(msg, {b.host_us, b.nic_us, b.wire_us, b.total_us});
    }
    report.add_table(breakdown);
  }

  return bench.finish(report);
}
