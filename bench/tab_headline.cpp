// Headline summary table: every number the paper's abstract and body
// quote, side by side with this reproduction's measurement.
#include <cstdio>
#include <string>

#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

/// One paper/measured pair: two scalars, plus a note with the deviation.
void row(Report& report, const std::string& name, double paper, double measured,
         const char* unit) {
  const double dev = paper > 0 ? (measured - paper) / paper * 100.0 : 0.0;
  char line[160];
  std::snprintf(line, sizeof(line), "%s: paper %.2f, measured %.2f %s (%+.1f%%)", name.c_str(),
                paper, measured, unit, dev);
  report.add_note(line);
  report.add_scalar(name + " (paper)", paper, unit);
  report.add_scalar(name + " (measured)", measured, unit);
}

}  // namespace

int main(int argc, char** argv) {
  const Bench bench("tab_headline", argc, argv);

  const auto iw = profile(Network::kIwarp);
  const auto ib = profile(Network::kIb);
  const auto moe = profile(Network::kMxoe);
  const auto mom = profile(Network::kMxom);

  Report report(bench.report_name());
  report.add_note("headline numbers: paper value vs reproduction, paired scalars");
  report.add_note("probe: MPI 4B ping-pong histogram + metrics per network");
  report.add_note("see DESIGN.md for OCR-reconstruction notes on the paper values and "
                  "EXPERIMENTS.md for the per-figure discussion");

  // User-level latency (4 B RDMA write / send-recv).
  row(report, "iWARP verbs", 9.78, userlevel_pingpong_latency_us(iw, 4), "us");
  row(report, "IB verbs (VAPI)", 4.53, userlevel_pingpong_latency_us(ib, 4), "us");
  row(report, "MXoE", 3.45, userlevel_pingpong_latency_us(moe, 4), "us");
  row(report, "MXoM", 3.05, userlevel_pingpong_latency_us(mom, 4), "us");

  // User-level one-way bandwidth (4 MB).
  row(report, "iWARP (83% of internal PCI-X)", 880, userlevel_bandwidth_mbps(iw, 4 << 20, 4),
      "MB/s");
  row(report, "IB (97% of 1 GB/s)", 970, userlevel_bandwidth_mbps(ib, 4 << 20, 4), "MB/s");
  row(report, "Myri-10G (<=75% of 10G)", 930, userlevel_bandwidth_mbps(mom, 4 << 20, 4), "MB/s");

  // MPI short-message latency (4 B).
  {
    const struct {
      const char* name;
      double paper;
      const NetworkProfile* p;
      Network n;
    } cases[] = {{"iWARP MPI", 10.7, &iw, Network::kIwarp},
                 {"IB ()", 4.8, &ib, Network::kIb},
                 {"MXoE (MPICH-MX)", 3.6, &moe, Network::kMxoe},
                 {"MXoM (MPICH-MX)", 3.3, &mom, Network::kMxom}};
    for (const auto& c : cases) {
      Probe probe;
      row(report, c.name, c.paper,
          mpi_pingpong_latency_us(*c.p, 4, 30, probe.hist(), probe.metrics()), "us");
      probe.record(report, network_name(c.n), "latency_us");
    }
  }

  // MPI peak bandwidths (1 MB).
  row(report, "iWARP bidirectional", 856, mpi_bidir_bw_mbps(iw, 1 << 20, 8), "MB/s");
  row(report, "IB bidirectional", 960, mpi_bidir_bw_mbps(ib, 1 << 20, 8), "MB/s");
  row(report, "iWARP both-way (89% of PCI-X)", 950, mpi_bothway_bw_mbps(iw, 1 << 20, 12, 3),
      "MB/s");
  row(report, "IB both-way (89% of 2 GB/s)", 1780, mpi_bothway_bw_mbps(ib, 1 << 20, 12, 3),
      "MB/s");
  row(report, "Myri both-way (~70% of 2 GB/s)", 1400, mpi_bothway_bw_mbps(mom, 1 << 20, 12, 3),
      "MB/s");

  // Buffer re-use latency ratio peaks (Fig 6).
  {
    auto ratio = [](const NetworkProfile& p, std::uint32_t m) {
      return bufreuse_latency_us(p, m, false) / bufreuse_latency_us(p, m, true);
    };
    row(report, "IB at 128 KB", 4.3, ratio(ib, 128 << 10), "x");
    row(report, "iWARP at 256 KB", 2.0, ratio(iw, 256 << 10), "x");
    row(report, "Myri-10G at 1 MB", 2.4, ratio(mom, 1 << 20), "x");
  }

  return bench.finish(report);
}
