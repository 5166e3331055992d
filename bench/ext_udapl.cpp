// Extension X7 — uDAPL vs raw verbs on both RDMA-capable interconnects
// (the paper's future work: "We intend to extend our study to include
// udapl, sockets, and applications"). Measures what the DAT abstraction
// layer costs on top of each provider.
#include "core/bench.hpp"
#include "core/cluster.hpp"
#include "core/runners.hpp"
#include "udapl/udapl.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

double udapl_pingpong_us(Network network, std::uint32_t msg, int iters = 24,
                         Histogram* hist = nullptr, MetricRegistry* metrics = nullptr) {
  Cluster cluster(2, network);
  if (metrics != nullptr) cluster.engine().set_metrics(metrics);
  udapl::InterfaceAdapter ia0(cluster.device(0), cluster.node(0));
  udapl::InterfaceAdapter ia1(cluster.device(1), cluster.node(1));
  auto evd0 = ia0.create_evd();
  auto evd1 = ia1.create_evd();
  auto ep0 = ia0.create_endpoint(*evd0);
  auto ep1 = ia1.create_endpoint(*evd1);
  udapl::InterfaceAdapter::connect(ia0, *ep0, *ep1);
  auto& b0 = cluster.node(0).mem().alloc(msg, false);
  auto& b1 = cluster.node(1).mem().alloc(msg, false);

  Time elapsed = 0;
  cluster.engine().spawn([](Cluster& c, udapl::InterfaceAdapter& a0,
                            udapl::InterfaceAdapter& a1, udapl::Endpoint& e0,
                            udapl::Endpoint& e1, std::uint64_t addr0, std::uint64_t addr1,
                            std::uint32_t m, int n, Time* out, Histogram* h) -> Task<> {
    const udapl::Lmr lmr0 = co_await a0.create_lmr(addr0, m);
    const udapl::Lmr lmr1 = co_await a1.create_lmr(addr1, m);
    const udapl::Rmr rmr0 = a0.bind_rmr(lmr0);
    const udapl::Rmr rmr1 = a1.bind_rmr(lmr1);

    c.engine().spawn([](Cluster& cc, udapl::Endpoint& ep, udapl::Lmr mine, udapl::Rmr peer,
                        std::uint32_t mm, int count) -> Task<> {
      for (int i = 0; i < count; ++i) {
        auto incoming = cc.device(1).watch_placement(mine.addr(), mm);
        co_await incoming->wait();
        co_await ep.post_rdma_write(mine, mm, peer, 2);
      }
    }(c, e1, lmr1, rmr0, m, n));

    const Time start = c.engine().now();
    for (int i = 0; i < n; ++i) {
      const Time iter0 = c.engine().now();
      auto reply = c.device(0).watch_placement(lmr0.addr(), m);
      co_await e0.post_rdma_write(lmr0, m, rmr1, 1);
      co_await reply->wait();
      if (h != nullptr) h->add(to_us(c.engine().now() - iter0) / 2.0);
    }
    *out = c.engine().now() - start;
  }(cluster, ia0, ia1, *ep0, *ep1, b0.addr(), b1.addr(), msg, iters, &elapsed, hist));
  cluster.engine().run();
  if (metrics != nullptr) cluster.collect_metrics(*metrics);
  return to_us(elapsed) / iters / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Bench bench("ext_udapl", argc, argv);
  constexpr std::uint32_t kProbeMsg = 4096;

  Report report(bench.report_name());
  report.add_note("uDAPL RDMA-write ping-pong vs raw verbs, iWARP and IB");
  report.add_note("probe: uDAPL half-RTT histogram + metrics at msg=4KB");
  report.add_note("expected: a fixed few-hundred-nanosecond dispatch cost per operation, "
                  "vanishing in relative terms as messages grow: the DAT layer is thin by design");

  for (Network network : {Network::kIwarp, Network::kIb}) {
    Table table(std::string("RDMA-write ping-pong latency (us) — ") + network_name(network),
                "msg_bytes", {"verbs", "uDAPL", "overhead_us"});
    for (std::uint32_t msg : {8u, 256u, 4096u, 65536u, 262144u}) {
      const double raw = userlevel_pingpong_latency_us(profile(network), msg);
      Probe probe(msg == kProbeMsg);
      const double dapl = udapl_pingpong_us(network, msg, 24, probe.hist(), probe.metrics());
      probe.record(report, network_name(network), "udapl_latency_us");
      table.add_row(msg, {raw, dapl, dapl - raw});
    }
    report.add_table(table);
  }

  return bench.finish(report);
}
