// Extension X11 — incast and permutation traffic on multi-stage Clos
// fabrics (FabricTopo). The four-node testbed of the paper cannot show
// how the three interconnects behave at scale; here the same calibrated
// stacks drive 64-512 endpoints through 2- and 3-level folded Clos
// fabrics with bounded switch buffers, where their link layers diverge
// structurally: iWARP and MXoE ride lossy Ethernet (tail-drop, go-back-N
// recovery), IB rides credit flow control (lossless, but congestion
// spreads hop by hop as credit stalls). Incast shows the loss-recovery
// tail; permutation shows how much of the bisection each stack keeps.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bench.hpp"
#include "core/cluster.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

struct Pattern {
  std::vector<std::pair<int, int>> flows;  // (src, dst)
};

Pattern incast(int senders, int dst) {
  Pattern p;
  for (int s = 1; s <= senders; ++s) p.flows.emplace_back(s, dst);
  return p;
}

Pattern permutation(int endpoints) {
  Pattern p;
  for (int n = 0; n < endpoints; ++n) p.flows.emplace_back(n, (n + endpoints / 2) % endpoints);
  return p;
}

struct RunStats {
  double completion_ms = 0.0;  // pattern makespan
  double p50_us = 0.0;         // per-chunk completion latency
  double p99_us = 0.0;
  double goodput_mbps = 0.0;  // aggregate delivered bytes / makespan
  std::uint64_t tail_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t credit_stalls = 0;
};

/// Drive `pattern` over a Clos fabric: every flow pushes
/// `chunks` x `chunk` bytes with stack-native primitives (RDMA write for
/// the verbs stacks, matched rendezvous sends for MX) and the per-chunk
/// completion time lands in one shared histogram.
RunStats run(Network network, const topo::FabricSpec& spec, int endpoints,
             const Pattern& pattern, std::uint32_t chunk, int chunks,
             std::uint64_t buffer_bytes, Histogram* hist_out = nullptr,
             MetricRegistry* metrics_out = nullptr) {
  NetworkProfile p = profile(network);
  const hw::FlowControl link_layer = p.fabric.flow;  // the network's, not the sweep's
  p.fabric = spec;
  p.fabric.flow = link_layer;
  p.switch_cfg.max_queue_bytes = buffer_bytes;
  p.rnic.rto = us(300);  // keep go-back-N rounds short at this scale
  Cluster cluster(endpoints, p);
  MetricRegistry registry;
  cluster.engine().set_metrics(&registry);

  Histogram hist;
  Time makespan = 0;
  std::vector<std::unique_ptr<verbs::CompletionQueue>> cqs;
  std::vector<std::unique_ptr<verbs::QueuePair>> qps;

  for (std::size_t f = 0; f < pattern.flows.size(); ++f) {
    const auto [src, dst] = pattern.flows[f];
    auto& src_buf = cluster.node(src).mem().alloc(chunk, false);
    auto& dst_buf = cluster.node(dst).mem().alloc(chunk, false);
    if (cluster.is_verbs()) {
      cqs.push_back(std::make_unique<verbs::CompletionQueue>(cluster.engine()));
      auto dst_qp = cluster.device(dst).create_qp(*cqs.back(), *cqs.back());
      auto src_qp = cluster.device(src).create_qp(*cqs.back(), *cqs.back());
      cluster.device(dst).establish(*dst_qp, *src_qp);
      cluster.engine().spawn([](Cluster& cl, verbs::QueuePair& qp, int s, int d,
                                std::uint64_t saddr, std::uint64_t daddr, std::uint32_t n,
                                int count, Histogram* h, Time* end) -> Task<> {
        auto lkey = co_await cl.device(s).reg_mr(saddr, n);
        auto rkey = co_await cl.device(d).reg_mr(daddr, n);
        for (int i = 0; i < count; ++i) {
          const Time chunk0 = cl.engine().now();
          auto watch = cl.device(d).watch_placement(daddr, n);
          co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                              .opcode = verbs::Opcode::kRdmaWrite,
                                              .sge = {saddr, n, lkey},
                                              .remote_addr = daddr,
                                              .rkey = rkey});
          co_await watch->wait();
          h->add(to_us(cl.engine().now() - chunk0));
          *end = std::max(*end, cl.engine().now());
        }
      }(cluster, *src_qp, src, dst, src_buf.addr(), dst_buf.addr(), chunk, chunks, &hist,
        &makespan));
      qps.push_back(std::move(dst_qp));
      qps.push_back(std::move(src_qp));
    } else {
      // MX: matched rendezvous pairs; the sender's wait completes once the
      // receiver pulled the data, so sender-side timing sees the fabric.
      const std::uint64_t match = 0x1000 + f;
      cluster.engine().spawn([](Cluster& cl, int s, int d, std::uint64_t saddr, std::uint32_t n,
                                int count, std::uint64_t bits, Histogram* h,
                                Time* end) -> Task<> {
        for (int i = 0; i < count; ++i) {
          const Time chunk0 = cl.engine().now();
          auto req = co_await cl.endpoint(s).isend(saddr, n, cl.endpoint(d).port(), bits);
          co_await cl.endpoint(s).wait(req);
          h->add(to_us(cl.engine().now() - chunk0));
          *end = std::max(*end, cl.engine().now());
        }
      }(cluster, src, dst, src_buf.addr(), chunk, chunks, match, &hist, &makespan));
      cluster.engine().spawn([](Cluster& cl, int d, std::uint64_t daddr, std::uint32_t n,
                                int count, std::uint64_t bits) -> Task<> {
        for (int i = 0; i < count; ++i) {
          auto req = co_await cl.endpoint(d).irecv(daddr, n, bits, ~0ull);
          co_await cl.endpoint(d).wait(req);
        }
      }(cluster, dst, dst_buf.addr(), chunk, chunks, match));
    }
  }
  cluster.engine().run();
  cluster.collect_metrics(registry);

  RunStats stats;
  stats.completion_ms = to_us(makespan) / 1000.0;
  stats.p50_us = hist.p50();
  stats.p99_us = hist.p99();
  const double total_bytes =
      static_cast<double>(pattern.flows.size()) * chunks * static_cast<double>(chunk);
  stats.goodput_mbps = total_bytes / to_us(makespan);
  stats.tail_drops = registry.counter_value("switch.tail_drops");
  stats.credit_stalls = registry.counter_value("switch.credit_stalls");
  for (int n = 0; n < endpoints; ++n) {
    const std::string node = "node" + std::to_string(n);
    stats.retransmits += registry.counter_value("iwarp." + node + ".retransmits");
    stats.retransmits += registry.counter_value("ib." + node + ".retransmits");
    stats.retransmits += registry.counter_value("mx." + node + ".resends");
  }
  if (hist_out != nullptr) *hist_out = hist;
  if (metrics_out != nullptr) *metrics_out = std::move(registry);
  return stats;
}

struct Fabric {
  const char* label;
  topo::FabricSpec spec;
  int endpoints;
};

}  // namespace

int main(int argc, char** argv) {
  const Bench bench("ext_incast", argc, argv, {.quick = true});
  const bool quick = bench.quick();
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe};
  constexpr std::uint32_t kChunk = 64 * 1024;  // above every eager threshold
  constexpr std::uint64_t kBuffer = 32ull << 10;

  Report report(bench.report_name());
  report.add_note("Clos fabrics via topo::Topology; LFT routing; 32KB port buffers");
  report.add_note("link layer per stack: iWARP/MXoE lossy tail-drop, IB credit/PAUSE lossless");
  report.add_note("probe: per-chunk completion histogram + aggregate metrics at the incast peak");
  report.add_note("expected: under incast the lossy stacks (iWARP, MXoE) overrun the server "
                  "port's buffer: tail drops force go-back-N rounds and the p99 chunk latency "
                  "stretches by whole retransmission timeouts, while IB's credit fabric never "
                  "drops: backpressure shows up as credit stalls and a much tighter tail");
  report.add_note("expected: under permutation traffic the non-blocking Clos keeps per-flow "
                  "goodput roughly flat as the fabric grows; deeper fabrics only add per-hop "
                  "latency");

  // --- Incast: M senders -> node 0 on one fabric --------------------------
  const topo::FabricSpec incast_spec =
      quick ? topo::FabricSpec{2, 16, 1.0} : topo::FabricSpec{3, 8, 1.0};
  const int incast_endpoints = quick ? 64 : 128;
  const std::vector<int> sender_counts = quick ? std::vector<int>{8} : std::vector<int>{8, 16, 32};
  const int incast_chunks = quick ? 2 : 4;
  const int probe_senders = sender_counts.back();

  std::vector<std::string> cols;
  for (Network n : networks) cols.push_back(network_name(n));
  Table p99_table("Incast per-chunk p99 latency (us), " + std::to_string(incast_endpoints) +
                      " endpoints, " + std::to_string(incast_spec.levels) + "-level Clos",
                  "senders", cols);
  Table done_table("Incast completion (ms)", "senders", cols);
  Table loss_table("Incast loss/backpressure: drops | retransmits | credit_stalls", "senders",
                   {"iWARP drops", "iWARP retx", "IB stalls", "MXoE drops", "MXoE resends"});
  for (int senders : sender_counts) {
    std::vector<double> p99_row, done_row;
    std::vector<double> loss_row(5, 0.0);
    for (Network n : networks) {
      Probe probe(senders == probe_senders);
      const RunStats s = run(n, incast_spec, incast_endpoints, incast(senders, 0), kChunk,
                             incast_chunks, kBuffer, probe.hist(), probe.metrics());
      probe.record(report, network_name(n), "chunk_us", Report::aggregate_key);
      p99_row.push_back(s.p99_us);
      done_row.push_back(s.completion_ms);
      switch (n) {
        case Network::kIwarp:
          loss_row[0] = static_cast<double>(s.tail_drops);
          loss_row[1] = static_cast<double>(s.retransmits);
          break;
        case Network::kIb: loss_row[2] = static_cast<double>(s.credit_stalls); break;
        default:
          loss_row[3] = static_cast<double>(s.tail_drops);
          loss_row[4] = static_cast<double>(s.retransmits);
          break;
      }
    }
    p99_table.add_row(senders, std::move(p99_row));
    done_table.add_row(senders, std::move(done_row));
    loss_table.add_row(senders, std::move(loss_row));
  }
  report.add_table(p99_table);
  report.add_table(done_table);
  report.add_table(loss_table);

  // --- Permutation: node i -> node (i + N/2) % N, fabric-size sweep ------
  std::vector<Fabric> fabrics;
  fabrics.push_back({"64 (2-level r16)", topo::FabricSpec{2, 16, 1.0}, 64});
  if (!quick) {
    fabrics.push_back({"128 (3-level r8)", topo::FabricSpec{3, 8, 1.0}, 128});
    fabrics.push_back({"256 (3-level r12)", topo::FabricSpec{3, 12, 1.0}, 256});
  }
  const int perm_chunks = quick ? 1 : 2;

  Table perm_bw("Permutation aggregate goodput (MB/s)", "endpoints", cols);
  Table perm_p99("Permutation per-chunk p99 latency (us)", "endpoints", cols);
  for (const Fabric& fabric : fabrics) {
    std::vector<double> bw_row, p99_row;
    for (Network n : networks) {
      const RunStats s = run(n, fabric.spec, fabric.endpoints, permutation(fabric.endpoints),
                             kChunk, perm_chunks, kBuffer);
      bw_row.push_back(s.goodput_mbps);
      p99_row.push_back(s.p99_us);
    }
    perm_bw.add_row(fabric.endpoints, std::move(bw_row));
    perm_p99.add_row(fabric.endpoints, std::move(p99_row));
  }
  report.add_table(perm_bw);
  report.add_table(perm_p99);
  return bench.finish(report);
}
