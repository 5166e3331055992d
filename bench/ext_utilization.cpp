// Extension X11 — where does the time go? Resource utilization during a
// saturating one-way verbs transfer, per network. This is the
// quantitative backing for DESIGN.md's bottleneck table: the resource
// the paper names should be the one pinned near 100%.
#include <cstdio>

#include "core/bench.hpp"
#include "core/cluster.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

/// The transfer's duration and the resource the paper names as its bound.
void add_transfer_note(Report& report, const std::string& transfer, Time elapsed,
                       const char* paper_bound) {
  char line[160];
  std::snprintf(line, sizeof(line), "%s: %.0f us; paper bound: %s", transfer.c_str(),
                to_us(elapsed), paper_bound);
  report.add_note(line);
}

void run_verbs(Network network, Report& report) {
  Cluster cluster(2, network);
  MetricRegistry registry;
  cluster.engine().set_metrics(&registry);
  verbs::CompletionQueue cq(cluster.engine());
  auto qp0 = cluster.device(0).create_qp(cq, cq);
  auto qp1 = cluster.device(1).create_qp(cq, cq);
  cluster.device(0).establish(*qp0, *qp1);
  const std::uint32_t len = 8 << 20;
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);
  Time start = 0, end = 0;
  cluster.engine().spawn([](Cluster& c, verbs::QueuePair& qp, std::uint64_t s, std::uint64_t d,
                            std::uint32_t n, Time* t0, Time* t1) -> Task<> {
    auto lkey = co_await c.device(0).reg_mr(s, n);
    auto rkey = co_await c.device(1).reg_mr(d, n);
    auto watch = c.device(1).watch_placement(d, n);
    *t0 = c.engine().now();
    co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                        .opcode = verbs::Opcode::kRdmaWrite,
                                        .sge = {s, n, lkey},
                                        .remote_addr = d,
                                        .rkey = rkey});
    co_await watch->wait();
    *t1 = c.engine().now();
  }(cluster, *qp0, src.addr(), dst.addr(), len, &start, &end));
  cluster.engine().run();
  cluster.collect_metrics(registry);

  const double span = static_cast<double>(end - start);
  const std::string prefix = std::string(network_name(network)) + ".";
  auto emit = [&](const char* key, Time busy) {
    report.add_scalar(prefix + key, 100.0 * static_cast<double>(busy) / span, "%");
  };

  if (network == Network::kIwarp) {
    add_transfer_note(report, "iWARP one-way 8 MB RDMA write", end - start,
                      "sender_tx_engine_pct, engine-rate bound (~880 MB/s)");
    emit("sender_tx_engine_pct", cluster.rnic(0).tx_engine_busy_time());
    emit("sender_pcix_pct", cluster.rnic(0).pcix_busy_time());
    emit("sender_link_pct", cluster.rnic(0).tx_link_busy_time());
    emit("receiver_rx_engine_pct", cluster.rnic(1).rx_engine_busy_time());
    emit("receiver_pcix_pct", cluster.rnic(1).pcix_busy_time());
  } else {
    add_transfer_note(report, "IB one-way 8 MB RDMA write", end - start,
                      "sender_link_pct, link bound (97% of 1 GB/s)");
    emit("sender_link_pct", cluster.hca(0).tx_link_busy_time());
    emit("sender_proc_pct", cluster.hca(0).proc_busy_time());
    emit("sender_dma_pct", cluster.hca(0).dma_busy_time());
    emit("receiver_dma_pct", cluster.hca(1).dma_busy_time());
  }
  report.add_metrics(registry, prefix);
}

void run_mx(Network network, Report& report) {
  Cluster cluster(2, network);
  MetricRegistry registry;
  cluster.engine().set_metrics(&registry);
  const std::uint32_t len = 8 << 20;
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);
  Time start = 0, end = 0;
  cluster.engine().spawn([](Cluster& c, std::uint64_t s, std::uint64_t d, std::uint32_t n,
                            Time* t0, Time* t1) -> Task<> {
    auto& ep0 = c.endpoint(0);
    auto& ep1 = c.endpoint(1);
    // Warmup pass pays the one-time pinning; the measured pass hits the
    // registration cache on both sides.
    {
      auto rx = co_await ep1.irecv(d, n, 1, ~0ull);
      auto tx = co_await ep0.isend(s, n, ep1.port(), 1);
      co_await ep1.wait(rx);
      co_await ep0.wait(tx);
    }
    auto rx = co_await ep1.irecv(d, n, 1, ~0ull);
    *t0 = c.engine().now();
    auto tx = co_await ep0.isend(s, n, ep1.port(), 1);
    co_await ep1.wait(rx);
    *t1 = c.engine().now();
    co_await ep0.wait(tx);
  }(cluster, src.addr(), dst.addr(), len, &start, &end));
  cluster.engine().run();
  cluster.collect_metrics(registry);

  // Busy counters include the warmup pass; both passes move the same
  // bytes, so halving them approximates the measured pass's share.
  const double span = static_cast<double>(end - start);
  const std::string prefix = std::string(network_name(network)) + ".";
  auto emit = [&](const char* key, Time busy) {
    report.add_scalar(prefix + key, 100.0 * static_cast<double>(busy) / 2.0 / span, "%");
  };
  add_transfer_note(report, std::string(network_name(network)) + " one-way 8 MB rendezvous",
                    end - start, "sender_pcie_read_pct, forced-x4 bound (<=75% of 10G)");
  emit("sender_pcie_read_pct", cluster.node(0).pcie().read_busy_time());
  emit("sender_dma_pct", cluster.endpoint(0).dma_busy_time());
  emit("sender_link_pct", cluster.endpoint(0).tx_link_busy_time());
  emit("receiver_dma_pct", cluster.endpoint(1).dma_busy_time());
  report.add_metrics(registry, prefix);
}

}  // namespace

int main(int argc, char** argv) {
  const Bench bench("ext_utilization", argc, argv);

  Report report(bench.report_name());
  report.add_note("resource utilization during a saturating 8 MB one-way transfer");
  report.add_note("probe: 1KB user-level latency histograms for the same three networks");
  report.add_note("expected: the resource DESIGN.md names as each network's bottleneck sits "
                  "near 100% while everything else idles below it");

  run_verbs(Network::kIwarp, report);
  run_verbs(Network::kIb, report);
  run_mx(Network::kMxom, report);

  // Latency-distribution probe so the report carries p50/p99 alongside
  // the saturation utilization numbers.
  for (Network n : {Network::kIwarp, Network::kIb, Network::kMxom}) {
    Probe probe;
    userlevel_pingpong_latency_us(profile(n), 1024, 30, probe.hist());
    probe.record(report, network_name(n), "latency_us");
  }
  return bench.finish(report);
}
