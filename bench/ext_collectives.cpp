// Extension X5 — collective operations on the 4-node testbed (the paper
// defers application-level and larger-scale evaluation to future work;
// collectives are the first step above point-to-point).
#include <vector>

#include "core/bench.hpp"
#include "core/cluster.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

enum class Op { kBarrier, kBcast, kAllreduce, kAllgather };

double collective_us(Network network, Op op, std::uint32_t bytes, int iters = 12,
                     Histogram* hist = nullptr, MetricRegistry* metrics = nullptr) {
  constexpr int kRanks = 4;
  Cluster cluster(kRanks, network);
  if (metrics != nullptr) cluster.engine().set_metrics(metrics);
  std::vector<hw::Buffer*> data, scratch, gather;
  for (int r = 0; r < kRanks; ++r) {
    data.push_back(&cluster.node(r).mem().alloc(std::max(bytes, 64u), false));
    scratch.push_back(&cluster.node(r).mem().alloc(std::max(bytes, 64u), false));
    gather.push_back(&cluster.node(r).mem().alloc(std::max(bytes, 64u) * kRanks, false));
  }

  std::vector<double> elapsed(kRanks, 0);
  for (int r = 0; r < kRanks; ++r) {
    cluster.engine().spawn([](Cluster& c, int me, Op what, std::uint32_t n, int it,
                              std::vector<hw::Buffer*>& d, std::vector<hw::Buffer*>& s,
                              std::vector<hw::Buffer*>& g, double* out, Histogram* h) -> Task<> {
      co_await c.setup_mpi();
      auto& rank = c.mpi_rank(me);
      co_await rank.barrier();  // warmup + sync
      const double t0 = rank.wtime();
      const auto idx = static_cast<std::size_t>(me);
      for (int i = 0; i < it; ++i) {
        const double iter0 = rank.wtime();
        switch (what) {
          case Op::kBarrier:
            co_await rank.barrier();
            break;
          case Op::kBcast:
            co_await rank.bcast(0, d[idx]->addr(), n);
            break;
          case Op::kAllreduce:
            co_await rank.allreduce_sum(d[idx]->addr(), s[idx]->addr(),
                                        n / sizeof(double));
            break;
          case Op::kAllgather:
            co_await rank.allgather(d[idx]->addr(), n, g[idx]->addr());
            break;
        }
        if (h != nullptr && me == 0) h->add((rank.wtime() - iter0) * 1e6);
      }
      *out = (rank.wtime() - t0) / it * 1e6;
    }(cluster, r, op, bytes, iters, data, scratch, gather,
      &elapsed[static_cast<std::size_t>(r)], hist));
  }
  cluster.engine().run();
  if (metrics != nullptr) cluster.collect_metrics(*metrics);
  double worst = 0;
  for (double e : elapsed) worst = std::max(worst, e);
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const Bench bench("ext_collectives", argc, argv);
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};
  constexpr std::uint32_t kProbeBytes = 4096;

  Report report(bench.report_name());
  report.add_note("barrier/bcast/allreduce/allgather on 4 ranks");
  report.add_note("probe: rank-0 per-iteration allreduce histogram + metrics at 4KB");
  report.add_note("expected: short-message collectives track point-to-point latency "
                  "(Myrinet < IB < iWARP); large-message collectives track bandwidth, where IB "
                  "leads and iWARP's PCI-X ceiling shows");

  std::vector<std::string> cols;
  for (Network n : networks) cols.push_back(network_name(n));

  {
    Table table("Barrier latency (us)", "ranks", cols);
    std::vector<double> row;
    for (Network n : networks) row.push_back(collective_us(n, Op::kBarrier, 0));
    table.add_row(4, std::move(row));
    report.add_table(table);
  }
  for (auto [op, name] : {std::pair{Op::kBcast, "Broadcast"},
                          std::pair{Op::kAllreduce, "Allreduce (sum of doubles)"},
                          std::pair{Op::kAllgather, "Allgather (per-rank block)"}}) {
    Table table(std::string(name) + " latency (us)", "bytes", cols);
    for (std::uint32_t bytes : {64u, 4096u, 65536u, 524288u}) {
      std::vector<double> row;
      for (Network n : networks) {
        Probe probe(op == Op::kAllreduce && bytes == kProbeBytes);
        row.push_back(collective_us(n, op, bytes, 12, probe.hist(), probe.metrics()));
        probe.record(report, network_name(n), "allreduce_us");
      }
      table.add_row(bytes, std::move(row));
    }
    report.add_table(table);
  }

  return bench.finish(report);
}
