// Figure 1: user-level inter-node ping-pong latency and one-way bandwidth
// for the four user-level communication libraries (iWARP verbs RDMA
// Write, IB verbs RDMA Write, MXoE send/recv, MXoM send/recv).
#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  const Bench bench("fig1_userlevel", argc, argv);
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};
  // FabricScope probe: at this message size, collect the per-iteration
  // latency distribution and the full metric registry for each network.
  constexpr std::uint32_t kProbeMsg = 1024;

  Report report(bench.report_name());
  report.add_note("user-level ping-pong latency and bandwidth, four libraries");
  report.add_note("probe: per-iteration half-RTT histogram + metrics at msg=1024B");
  report.add_note(
      "paper: short-message latency 9.78 (iWARP), 4.53 (IB), 3.45 (MXoE), 3.05 (MXoM) us");
  report.add_note("paper: peak one-way bandwidth ~880 (iWARP, 83% of the internal PCI-X), "
                  "~970 (IB, 97% of 4X SDR), <=75% of 10G (Myri-10G) MB/s");

  Table latency("User-level inter-node latency (us, half RTT)", "msg_bytes",
                {"iWARP", "IB", "MXoE", "MXoM"});
  for (std::uint32_t msg : pow2_sizes(4, 16 * 1024)) {
    std::vector<double> row;
    for (Network n : networks) {
      Probe probe(msg == kProbeMsg);
      row.push_back(
          userlevel_pingpong_latency_us(profile(n), msg, 30, probe.hist(), probe.metrics()));
      probe.record(report, network_name(n), "latency_us");
    }
    latency.add_row(msg, std::move(row));
  }

  Table bandwidth("User-level inter-node bandwidth (MB/s)", "msg_bytes",
                  {"iWARP", "IB", "MXoE", "MXoM"});
  for (std::uint32_t msg : pow2_sizes(1024, 4 << 20)) {
    std::vector<double> row;
    const int iters = msg >= (1 << 20) ? 4 : 10;
    for (Network n : networks) row.push_back(userlevel_bandwidth_mbps(profile(n), msg, iters));
    bandwidth.add_row(msg, std::move(row));
  }

  report.add_table(latency);
  report.add_table(bandwidth);
  return bench.finish(report);
}
