// Extension X8 — a larger testbed (the paper's closing future-work item:
// "We plan to put these networks to the test in a larger testbed").
// Scales the simulated cluster to 16 nodes and measures how the
// interconnects' collective performance diverges with rank count. The
// heaviest configuration (the largest rank count, bandwidth-bound
// allreduce) is the probe point: its rank-0 histogram and aggregate
// metrics go into the report.
//
// `quick` runs a smaller sweep (2..8 ranks, probe at 8) writing
// results/ext_scaling_quick.*.
#include <string>
#include <vector>

#include "core/bench.hpp"
#include "core/cluster.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

double allreduce_us(Network network, int ranks, std::uint32_t count_doubles, int iters = 8,
                    Histogram* hist = nullptr, MetricRegistry* metrics = nullptr) {
  NetworkProfile p = profile(network);
  p.mpi.eager_buffers = 64;  // keep the N^2 mesh memory bounded at 16 ranks
  Cluster cluster(ranks, p);
  if (metrics != nullptr) cluster.engine().set_metrics(metrics);
  const std::uint32_t bytes = count_doubles * sizeof(double);
  std::vector<hw::Buffer*> data, scratch;
  for (int r = 0; r < ranks; ++r) {
    data.push_back(&cluster.node(r).mem().alloc(bytes, false));
    scratch.push_back(&cluster.node(r).mem().alloc(bytes, false));
  }
  std::vector<double> elapsed(static_cast<std::size_t>(ranks), 0);
  for (int r = 0; r < ranks; ++r) {
    cluster.engine().spawn([](Cluster& c, int me, std::uint32_t n, int it,
                              std::vector<hw::Buffer*>& d, std::vector<hw::Buffer*>& s,
                              double* out, Histogram* h) -> Task<> {
      co_await c.setup_mpi();
      auto& rank = c.mpi_rank(me);
      co_await rank.barrier();
      const double t0 = rank.wtime();
      const auto idx = static_cast<std::size_t>(me);
      for (int i = 0; i < it; ++i) {
        const double iter0 = rank.wtime();
        co_await rank.allreduce_sum(d[idx]->addr(), s[idx]->addr(), n);
        if (h != nullptr && me == 0) h->add((rank.wtime() - iter0) * 1e6);
      }
      *out = (rank.wtime() - t0) / it * 1e6;
    }(cluster, r, count_doubles, iters, data, scratch,
      &elapsed[static_cast<std::size_t>(r)], hist));
  }
  cluster.engine().run();
  if (metrics != nullptr) cluster.collect_metrics(*metrics);
  double worst = 0;
  for (double e : elapsed) worst = std::max(worst, e);
  return worst;
}

double barrier_us(Network network, int ranks, int iters = 10) {
  NetworkProfile p = profile(network);
  p.mpi.eager_buffers = 64;
  Cluster cluster(ranks, p);
  std::vector<double> elapsed(static_cast<std::size_t>(ranks), 0);
  for (int r = 0; r < ranks; ++r) {
    cluster.engine().spawn([](Cluster& c, int me, int it, double* out) -> Task<> {
      co_await c.setup_mpi();
      auto& rank = c.mpi_rank(me);
      co_await rank.barrier();
      const double t0 = rank.wtime();
      for (int i = 0; i < it; ++i) co_await rank.barrier();
      *out = (rank.wtime() - t0) / it * 1e6;
    }(cluster, r, iters, &elapsed[static_cast<std::size_t>(r)]));
  }
  cluster.engine().run();
  double worst = 0;
  for (double e : elapsed) worst = std::max(worst, e);
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const Bench bench("ext_scaling", argc, argv, {.quick = true});
  const bool quick = bench.quick();
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};
  // Probe the heaviest configuration: bandwidth-bound allreduce at the
  // largest rank count in the sweep.
  const std::vector<int> rank_sweep = quick ? std::vector<int>{2, 8} : std::vector<int>{2, 4, 8, 16};
  const int probe_ranks = rank_sweep.back();
  constexpr std::uint32_t kProbeDoubles = 4096;
  const int probe_iters = quick ? 4 : 8;

  Report report(bench.report_name());
  report.add_note("barrier and allreduce scaling, " + std::to_string(rank_sweep.front()) + ".." +
                  std::to_string(rank_sweep.back()) + " ranks");
  report.add_note("probe: rank-0 allreduce histogram + aggregate metrics at " +
                  std::to_string(probe_ranks) + " ranks, 32KB");
  report.add_note("expected: log2(N) growth for the small collectives, with the gap between "
                  "interconnects set by their point-to-point latency; bandwidth-bound allreduce "
                  "narrows the gap as IB's higher link rate offsets its per-hop latency deficit "
                  "against Myrinet");

  std::vector<std::string> cols;
  for (Network n : networks) cols.push_back(network_name(n));

  {
    Table table("Barrier latency (us) vs ranks", "ranks", cols);
    for (int ranks : rank_sweep) {
      std::vector<double> row;
      for (Network n : networks) row.push_back(barrier_us(n, ranks));
      table.add_row(ranks, std::move(row));
    }
    report.add_table(table);
  }
  for (std::uint32_t doubles : {8u, 4096u}) {
    Table table("Allreduce " + std::to_string(doubles * 8) + "B latency (us) vs ranks", "ranks",
                cols);
    for (int ranks : rank_sweep) {
      std::vector<double> row;
      for (Network n : networks) {
        Probe probe(ranks == probe_ranks && doubles == kProbeDoubles);
        row.push_back(
            allreduce_us(n, ranks, doubles, probe_iters, probe.hist(), probe.metrics()));
        probe.record(report, network_name(n), "allreduce_us", Report::aggregate_key);
      }
      table.add_row(ranks, std::move(row));
    }
    report.add_table(table);
  }

  return bench.finish(report);
}
