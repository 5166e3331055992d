// Figure 4: MPI unidirectional, bidirectional, and both-way bandwidth.
// The eager/rendezvous protocol-switch dips are the interesting feature:
// between 4 and 8 KB for iWARP's MPI, at 8 KB for MVAPICH/IB, and after
// 32 KB for MPICH-MX (inside the MX library).
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
  constexpr std::uint32_t kProbeMsg = 65536;  // present in both sweep variants
  std::printf("=== Figure 4: MPI bandwidth, three modes (paper Sec. 6.2) ===\n");

  const auto sizes = pow2_sizes(quick ? 4096 : 256, quick ? 1 << 20 : 4 << 20);

  Report report(quick ? "fig4_mpi_bandwidth_quick" : "fig4_mpi_bandwidth");
  report.add_note("MPI bandwidth: unidirectional, bidirectional, both-way");
  report.add_note("probe: per-window unidirectional latency histogram + metrics at msg=64KB");

  Table uni("MPI unidirectional bandwidth (MB/s)", "msg_bytes", {"iWARP", "IB", "MXoE", "MXoM"});
  Table bidi("MPI bidirectional bandwidth (MB/s)", "msg_bytes", {"iWARP", "IB", "MXoE", "MXoM"});
  Table both("MPI both-way bandwidth (MB/s)", "msg_bytes", {"iWARP", "IB", "MXoE", "MXoM"});
  for (std::uint32_t msg : sizes) {
    std::vector<double> u, b, w;
    const int windows = msg >= (1 << 20) ? 3 : 6;
    for (Network n : networks) {
      if (msg == kProbeMsg) {
        Histogram hist;
        MetricRegistry metrics;
        u.push_back(mpi_unidir_bw_mbps(profile(n), msg, 16, windows, &hist, &metrics));
        report.add_histogram(std::string(network_name(n)) + ".window_us", hist);
        report.add_metrics(metrics, std::string(network_name(n)) + ".");
      } else {
        u.push_back(mpi_unidir_bw_mbps(profile(n), msg, 16, windows));
      }
      b.push_back(mpi_bidir_bw_mbps(profile(n), msg, msg >= (1 << 20) ? 6 : 12));
      w.push_back(mpi_bothway_bw_mbps(profile(n), msg, 16, windows));
    }
    uni.add_row(msg, std::move(u));
    bidi.add_row(msg, std::move(b));
    both.add_row(msg, std::move(w));
  }
  uni.print();
  bidi.print();
  both.print();

  report.add_table(uni);
  report.add_table(bidi);
  report.add_table(both);
  report.write();

  std::printf(
      "\nPaper reference points: bidirectional peaks 856 (iWARP) / ~960 (IB) /\n"
      "734 (Myrinet) MB/s; both-way 950 MB/s for iWARP (89%% of its internal\n"
      "PCI-X), ~89%% of 2 GB/s for IB, ~70%% of 2 GB/s for Myri-10G. InfiniBand\n"
      "is the clear winner in the bandwidth tests.\n");
  return 0;
}
