// Extension X9 — incast congestion on a bounded-buffer Ethernet switch.
// iWARP is the only stack here whose wire can legally drop frames (IB
// and Myrinet are credit-flow-controlled and lossless); this study shows
// what its TCP underlay buys and costs under incast: goodput vs switch
// buffer size, with drop and retransmission counts read from the
// FabricScope metric registry.
#include <vector>

#include "core/bench.hpp"
#include "core/cluster.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

struct IncastResult {
  double goodput_mbps;
  std::uint64_t drops;
  std::uint64_t retransmits;
};

IncastResult run(std::uint64_t buffer_bytes, int clients, std::uint32_t chunk,
                 Histogram* hist = nullptr, MetricRegistry* out = nullptr) {
  NetworkProfile p = iwarp_profile();
  p.switch_cfg.max_queue_bytes = buffer_bytes;
  p.rnic.rto = us(300);
  Cluster cluster(clients + 1, p);
  MetricRegistry registry;
  cluster.engine().set_metrics(&registry);

  std::vector<std::unique_ptr<verbs::CompletionQueue>> cqs;
  std::vector<std::unique_ptr<verbs::QueuePair>> qps;
  Time last = 0;
  for (int c = 0; c < clients; ++c) {
    cqs.push_back(std::make_unique<verbs::CompletionQueue>(cluster.engine()));
    auto server_qp = cluster.device(0).create_qp(*cqs.back(), *cqs.back());
    auto client_qp = cluster.device(c + 1).create_qp(*cqs.back(), *cqs.back());
    cluster.device(0).establish(*server_qp, *client_qp);
    auto& src = cluster.node(c + 1).mem().alloc(chunk, false);
    auto& dst = cluster.node(0).mem().alloc(chunk, false);
    cluster.engine().spawn([](Cluster& cl, verbs::QueuePair& qp, std::uint64_t s,
                              std::uint64_t d, int client, std::uint32_t n,
                              Time* end, Histogram* h) -> Task<> {
      auto lkey = co_await cl.device(client + 1).reg_mr(s, n);
      auto rkey = co_await cl.device(0).reg_mr(d, n);
      for (int i = 0; i < 4; ++i) {
        const Time chunk0 = cl.engine().now();
        auto watch = cl.device(0).watch_placement(d, n);
        co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                            .opcode = verbs::Opcode::kRdmaWrite,
                                            .sge = {s, n, lkey},
                                            .remote_addr = d,
                                            .rkey = rkey});
        co_await watch->wait();
        if (h != nullptr) h->add(to_us(cl.engine().now() - chunk0));
        *end = std::max(*end, cl.engine().now());
      }
    }(cluster, *client_qp, src.addr(), dst.addr(), c, chunk, &last, hist));
    qps.push_back(std::move(server_qp));
    qps.push_back(std::move(client_qp));
  }
  cluster.engine().run();
  cluster.collect_metrics(registry);

  IncastResult result{};
  result.goodput_mbps = 4.0 * clients * chunk / to_us(last);
  // Drops at the server's switch port; retransmits summed over clients —
  // both read back from the registry taxonomy.
  result.drops = registry.counter_value(
      "switch.port" + std::to_string(cluster.rnic(0).fabric_port()) + ".tail_drops");
  for (int c = 1; c <= clients; ++c) {
    result.retransmits +=
        registry.counter_value("iwarp.node" + std::to_string(c) + ".retransmits");
  }
  if (out != nullptr) *out = std::move(registry);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Bench bench("ext_congestion", argc, argv);
  constexpr std::uint32_t kChunk = 192 * 1024;
  // Probe the interesting middle of the sweep: buffers too small for the
  // aggregate burst but large enough for useful pipelining.
  constexpr std::uint64_t kProbeBuffer = 48ull << 10;
  constexpr int kProbeClients = 3;

  Report report(bench.report_name());
  report.add_note("iWARP incast: goodput vs switch buffer, drops/retransmits from registry");
  report.add_note("probe: per-chunk completion histogram + metrics at 48KB buffer, 3 clients");
  report.add_note("expected: tiny buffers force repeated go-back-N rounds (goodput collapse, "
                  "classic TCP incast); once the buffer covers the aggregate burst, drops vanish "
                  "and goodput pins at the server's PCI-X ceiling");

  for (int clients : {2, 3}) {
    Table table(std::to_string(clients) + " clients x 4 x 192 KB into one port", "buffer_bytes",
                {"goodput MB/s", "drops", "retransmits"});
    for (std::uint64_t buffer : {16ull << 10, 48ull << 10, 128ull << 10, 512ull << 10,
                                 4ull << 20}) {
      Probe probe(buffer == kProbeBuffer && clients == kProbeClients);
      const IncastResult r = run(buffer, clients, kChunk, probe.hist(), probe.metrics());
      probe.record(report, "iwarp", "chunk_us");
      table.add_row(static_cast<double>(buffer),
                    {r.goodput_mbps, static_cast<double>(r.drops),
                     static_cast<double>(r.retransmits)});
    }
    report.add_table(table);
  }

  return bench.finish(report);
}
