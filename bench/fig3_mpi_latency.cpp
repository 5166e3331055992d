// Figure 3: MPI inter-node ping-pong latency and the MPI layer's latency
// overhead over the respective user-level library.
#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  const Bench bench("fig3_mpi_latency", argc, argv);
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};
  constexpr std::uint32_t kProbeMsg = 1024;

  Report report(bench.report_name());
  report.add_note("MPI ping-pong latency and MPI-over-user-level overhead");
  report.add_note("probe: per-iteration half-RTT histogram + metrics at msg=1024B");
  report.add_note("paper: short-message MPI latency ~10.7 (iWARP), 4.8 (IB), 3.6 (MXoE), "
                  "3.3 (MXoM) us; MPICH-MX has the lowest overhead since MX semantics are "
                  "closest to MPI");

  Table latency("MPI inter-node latency (us, half RTT)", "msg_bytes",
                {"iWARP", "IB", "MXoE", "MXoM"});
  Table overhead("MPI latency overhead over user-level (%)", "msg_bytes",
                 {"iWARP", "IB", "MXoE", "MXoM"});
  for (std::uint32_t msg : pow2_sizes(4, 16 * 1024)) {
    std::vector<double> lat_row, ovh_row;
    for (Network n : networks) {
      const double user = userlevel_pingpong_latency_us(profile(n), msg);
      Probe probe(msg == kProbeMsg);
      const double mpi =
          mpi_pingpong_latency_us(profile(n), msg, 30, probe.hist(), probe.metrics());
      probe.record(report, network_name(n), "latency_us");
      lat_row.push_back(mpi);
      ovh_row.push_back((mpi - user) / user * 100.0);
    }
    latency.add_row(msg, std::move(lat_row));
    overhead.add_row(msg, std::move(ovh_row));
  }

  report.add_table(latency);
  report.add_table(overhead);
  return bench.finish(report);
}
