// Figure 4: MPI unidirectional, bidirectional, and both-way bandwidth.
// The eager/rendezvous protocol-switch dips are the interesting feature:
// between 4 and 8 KB for iWARP's MPI, at 8 KB for MVAPICH/IB, and after
// 32 KB for MPICH-MX (inside the MX library).
#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  const Bench bench("fig4_mpi_bandwidth", argc, argv, {.quick = true});
  const bool quick = bench.quick();
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};
  constexpr std::uint32_t kProbeMsg = 65536;  // present in both sweep variants

  const auto sizes = pow2_sizes(quick ? 4096 : 256, quick ? 1 << 20 : 4 << 20);

  Report report(bench.report_name());
  report.add_note("MPI bandwidth: unidirectional, bidirectional, both-way");
  report.add_note("probe: per-window unidirectional latency histogram + metrics at msg=64KB");
  report.add_note("paper: bidirectional peaks 856 (iWARP) / ~960 (IB) / 734 (Myrinet) MB/s; "
                  "both-way 950 MB/s for iWARP (89% of its internal PCI-X), ~89% of 2 GB/s for "
                  "IB, ~70% of 2 GB/s for Myri-10G; InfiniBand is the clear winner");

  Table uni("MPI unidirectional bandwidth (MB/s)", "msg_bytes", {"iWARP", "IB", "MXoE", "MXoM"});
  Table bidi("MPI bidirectional bandwidth (MB/s)", "msg_bytes", {"iWARP", "IB", "MXoE", "MXoM"});
  Table both("MPI both-way bandwidth (MB/s)", "msg_bytes", {"iWARP", "IB", "MXoE", "MXoM"});
  for (std::uint32_t msg : sizes) {
    std::vector<double> u, b, w;
    const int windows = msg >= (1 << 20) ? 3 : 6;
    for (Network n : networks) {
      Probe probe(msg == kProbeMsg);
      u.push_back(
          mpi_unidir_bw_mbps(profile(n), msg, 16, windows, probe.hist(), probe.metrics()));
      probe.record(report, network_name(n), "window_us");
      b.push_back(mpi_bidir_bw_mbps(profile(n), msg, msg >= (1 << 20) ? 6 : 12));
      w.push_back(mpi_bothway_bw_mbps(profile(n), msg, 16, windows));
    }
    uni.add_row(msg, std::move(u));
    bidi.add_row(msg, std::move(b));
    both.add_row(msg, std::move(w));
  }

  report.add_table(uni);
  report.add_table(bidi);
  report.add_table(both);
  return bench.finish(report);
}
