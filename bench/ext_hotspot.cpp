// Extension X1 — hotspot test (the paper lists this among experiments
// omitted for space, Sec. 6). Three clients hammer rank 0 with
// fixed-size messages received via MPI_ANY_SOURCE; we report the
// aggregate message rate and per-message service latency at the hot rank
// as the client count grows.
#include <vector>

#include "core/bench.hpp"
#include "core/cluster.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

struct HotspotResult {
  double per_msg_us;
  double aggregate_mbps;
};

HotspotResult run(Network network, int clients, std::uint32_t msg, int msgs_per_client,
                  Histogram* hist = nullptr, MetricRegistry* metrics = nullptr) {
  Cluster cluster(clients + 1, network);
  if (metrics != nullptr) cluster.engine().set_metrics(metrics);
  std::vector<hw::Buffer*> bufs;
  for (int n = 0; n <= clients; ++n) {
    bufs.push_back(&cluster.node(n).mem().alloc(std::max(msg, 64u), false));
  }

  for (int c = 1; c <= clients; ++c) {
    cluster.engine().spawn([](Cluster& cl, int me, std::uint64_t addr, std::uint32_t m,
                              int count) -> Task<> {
      co_await cl.setup_mpi();
      auto& rank = cl.mpi_rank(me);
      for (int i = 0; i < count; ++i) {
        co_await rank.send(0, 7, addr, m);
      }
      // Final handshake so the server can stop cleanly.
      co_await rank.recv(0, 8, addr, 64);
    }(cluster, c, bufs[static_cast<std::size_t>(c)]->addr(), msg, msgs_per_client));
  }

  Time elapsed = 0;
  cluster.engine().spawn([](Cluster& cl, int nclients, std::uint64_t addr, std::uint64_t cap,
                            std::uint32_t m, int count, Time* out, Histogram* h) -> Task<> {
    co_await cl.setup_mpi();
    auto& rank = cl.mpi_rank(0);
    const Time start = cl.engine().now();
    for (int i = 0; i < nclients * count; ++i) {
      const Time recv_start = cl.engine().now();
      co_await rank.recv(mpi::kAnySource, 7, addr, cap);
      if (h != nullptr) h->add(to_us(cl.engine().now() - recv_start));
    }
    *out = cl.engine().now() - start;
    for (int c = 1; c <= nclients; ++c) {
      co_await rank.send(c, 8, addr, 1);
    }
    (void)m;
  }(cluster, clients, bufs[0]->addr(), bufs[0]->size(), msg, msgs_per_client, &elapsed, hist));
  cluster.engine().run();
  if (metrics != nullptr) cluster.collect_metrics(*metrics);

  const double total = static_cast<double>(clients) * msgs_per_client;
  return HotspotResult{to_us(elapsed) / total,
                       total * msg / to_us(elapsed)};
}

}  // namespace

int main(int argc, char** argv) {
  const Bench bench("ext_hotspot", argc, argv);
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};
  // FabricScope probe: distribution of the hot rank's per-recv service
  // time (not just the mean) at the heaviest contention point.
  constexpr std::uint32_t kProbeMsg = 4096;
  constexpr int kProbeClients = 3;

  Report report(bench.report_name());
  report.add_note("N clients -> 1 server over MPI_ANY_SOURCE, per-message service time");
  report.add_note("probe: per-recv service-time histogram + metrics at clients=3 msg=4KB");
  report.add_note("expected: service time per message drops with more clients while the "
                  "receiving host can keep up (arrival overlap), then flattens at the hot node's "
                  "ceiling: its link for large messages, its MPI receive path for small ones");

  for (std::uint32_t msg : {64u, 4096u, 65536u}) {
    std::vector<std::string> cols;
    for (Network n : networks) cols.push_back(network_name(n));
    Table lat("Per-message service time at the hot rank (us), msg=" + std::to_string(msg) + "B",
              "clients", cols);
    Table bw("Aggregate goodput at the hot rank (MB/s), msg=" + std::to_string(msg) + "B",
             "clients", cols);
    for (int clients : {1, 2, 3}) {
      std::vector<double> lrow, brow;
      for (Network n : networks) {
        Probe probe(msg == kProbeMsg && clients == kProbeClients);
        const HotspotResult r = run(n, clients, msg, 60, probe.hist(), probe.metrics());
        probe.record(report, network_name(n), "service_us");
        lrow.push_back(r.per_msg_us);
        brow.push_back(r.aggregate_mbps);
      }
      lat.add_row(clients, std::move(lrow));
      bw.add_row(clients, std::move(brow));
    }
    report.add_table(lat);
    if (msg >= 4096) report.add_table(bw);
  }

  return bench.finish(report);
}
