// Extension X11 — bandwidth degradation under injected frame loss.
//
// A seeded FaultPlan on the engine drops a fraction of all frames at the
// switch, and each stack's recovery machinery pays for the repair: iWARP
// re-runs its TCP go-back-N, the IB HCA its RC end-to-end retransmission
// (PSN/ack/timeout), and the MX firmware its resend queue. The sweep
// (loss rate x message size, per stack) charts how gracefully each
// recovery scheme degrades: sliding-window protocols with NAK-driven
// repair keep the pipe fuller than the MX RTO-only scheme, and large
// messages amortize a retransmission round far better than small ones.
//
// Recovery counters (retransmits, NAKs, RTO fires) are read from the
// FabricScope metric registry populated by Cluster::collect_metrics(),
// not from ad-hoc component accessors, so the numbers printed here are
// exactly the ones every other bench dumps in its JSON report. Results
// land in results/ext_faults{,_quick}.{txt,json} via the shared bench
// harness.
#include <memory>
#include <string>
#include <vector>

#include "core/bench.hpp"
#include "core/cluster.hpp"
#include "fault/plan.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

struct Sample {
  std::string stack;
  double loss = 0.0;
  std::uint32_t bytes = 0;
  double mbps = 0.0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t retransmits = 0;  ///< resends for MX
  std::uint64_t naks = 0;         ///< IB only: RC NAK packets
  std::uint64_t rto_fires = 0;
};

constexpr std::uint64_t kSeed = 42;

/// Sum a per-node counter over both endpoints.
std::uint64_t both_nodes(const MetricRegistry& registry, const std::string& stack,
                         const std::string& name) {
  return registry.counter_value(stack + ".node0." + name) +
         registry.counter_value(stack + ".node1." + name);
}

/// `iters` back-to-back RDMA Writes of `len` bytes, node 0 -> node 1,
/// completion observed by polling the target buffer (watch_placement).
/// When `out` is non-null it receives the run's full metric registry;
/// `hist` collects per-transfer completion times (loss makes a tail).
Sample run_verbs(NetworkProfile profile, double loss, std::uint32_t len, int iters,
                 MetricRegistry* out = nullptr, Histogram* hist = nullptr) {
  Cluster cluster(2, profile);
  fault::FaultPlan plan(kSeed);
  if (loss > 0.0) plan.drop_probability(loss);
  cluster.engine().set_fault_injector(&plan);
  MetricRegistry registry;
  cluster.engine().set_metrics(&registry);
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);

  verbs::CompletionQueue cq(cluster.engine());
  std::vector<std::unique_ptr<verbs::QueuePair>> qps;
  Time start = 0, end = 0;
  cluster.engine().spawn([](Cluster& c, verbs::CompletionQueue& wcq,
                            std::vector<std::unique_ptr<verbs::QueuePair>>& pairs,
                            std::uint64_t s, std::uint64_t d, std::uint32_t n, int reps,
                            Time* t0, Time* t1, Histogram* h) -> Task<> {
    pairs.push_back(c.device(0).create_qp(wcq, wcq));
    pairs.push_back(c.device(1).create_qp(wcq, wcq));
    c.device(0).establish(*pairs[0], *pairs[1]);
    auto lkey = co_await c.device(0).reg_mr(s, n);
    auto rkey = co_await c.device(1).reg_mr(d, n);
    *t0 = c.engine().now();
    for (int i = 0; i < reps; ++i) {
      const Time iter0 = c.engine().now();
      auto watch = c.device(1).watch_placement(d, n);
      co_await pairs[0]->post_send(verbs::SendWr{.wr_id = 1,
                                                 .opcode = verbs::Opcode::kRdmaWrite,
                                                 .sge = {s, n, lkey},
                                                 .remote_addr = d,
                                                 .rkey = rkey});
      co_await watch->wait();
      if (h != nullptr) h->add(to_us(c.engine().now() - iter0));
    }
    *t1 = c.engine().now();
  }(cluster, cq, qps, src.addr(), dst.addr(), len, iters, &start, &end, hist));
  cluster.engine().run();
  cluster.collect_metrics(registry);

  Sample sample;
  sample.stack = network_name(profile.network);
  sample.loss = loss;
  sample.bytes = len;
  sample.mbps = static_cast<double>(iters) * len / to_us(end - start);
  sample.frames_dropped = plan.frames_dropped();
  const bool is_ib = profile.network == Network::kIb;
  const std::string stack = is_ib ? "ib" : "iwarp";
  sample.retransmits = both_nodes(registry, stack, "retransmits");
  sample.naks = is_ib ? both_nodes(registry, stack, "naks_sent") : 0;
  sample.rto_fires = both_nodes(registry, stack, "rto_fires");
  if (out != nullptr) *out = std::move(registry);
  return sample;
}

/// `iters` back-to-back MX messages of `len` bytes, node 0 -> node 1.
Sample run_mx(double loss, std::uint32_t len, int iters, MetricRegistry* out = nullptr,
              Histogram* hist = nullptr) {
  NetworkProfile profile = mxoe_profile();
  Cluster cluster(2, profile);
  fault::FaultPlan plan(kSeed);
  if (loss > 0.0) plan.drop_probability(loss);
  cluster.engine().set_fault_injector(&plan);
  MetricRegistry registry;
  cluster.engine().set_metrics(&registry);
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);

  Time start = 0, end = 0;
  cluster.engine().spawn([](Cluster& c, std::uint64_t s, std::uint32_t n, int reps,
                            Time* t0, Histogram* h) -> Task<> {
    *t0 = c.engine().now();
    for (int i = 0; i < reps; ++i) {
      const Time iter0 = c.engine().now();
      auto request = co_await c.endpoint(0).isend(s, n, c.endpoint(1).port(), 7);
      co_await c.endpoint(0).wait(request);
      if (h != nullptr) h->add(to_us(c.engine().now() - iter0));
    }
  }(cluster, src.addr(), len, iters, &start, hist));
  cluster.engine().spawn([](Cluster& c, std::uint64_t d, std::uint32_t n, int reps,
                            Time* t1) -> Task<> {
    for (int i = 0; i < reps; ++i) {
      auto request = co_await c.endpoint(1).irecv(d, n, 7, ~0ull);
      co_await c.endpoint(1).wait(request);
    }
    *t1 = c.engine().now();
  }(cluster, dst.addr(), len, iters, &end));
  cluster.engine().run();
  cluster.collect_metrics(registry);

  Sample sample;
  sample.stack = network_name(Network::kMxoe);
  sample.loss = loss;
  sample.bytes = len;
  sample.mbps = static_cast<double>(iters) * len / to_us(end - start);
  sample.frames_dropped = plan.frames_dropped();
  sample.retransmits = both_nodes(registry, "mx", "resends");
  sample.rto_fires = both_nodes(registry, "mx", "rto_fires");
  if (out != nullptr) *out = std::move(registry);
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  const Bench bench("ext_faults", argc, argv, {.quick = true});
  const bool quick = bench.quick();

  const std::vector<double> losses =
      quick ? std::vector<double>{0.0, 0.01}
            : std::vector<double>{0.0, 0.0005, 0.002, 0.01, 0.05};
  const std::vector<std::uint32_t> sizes =
      quick ? std::vector<std::uint32_t>{64 * 1024}
            : std::vector<std::uint32_t>{4 * 1024, 64 * 1024, 1024 * 1024};
  const int iters = quick ? 4 : 8;
  // Recovery-counter tables and the full metric dump use this size
  // (present in both sweep variants) at each loss rate.
  constexpr std::uint32_t kProbeBytes = 64 * 1024;
  const double worst_loss = losses.back();

  Report report(bench.report_name());
  report.add_note("seeded frame loss (seed=42): bandwidth + recovery counters per stack");
  report.add_note("recovery counters read from the FabricScope metric registry");
  report.add_note("expected: at zero loss every stack matches its lossless bandwidth exactly "
                  "(the fault plan is inert and the recovery machinery stays cold)");
  report.add_note("expected: under loss, go-back-N punishes large in-flight windows: IB RC "
                  "keeps a whole message outstanding and retransmits all of it per gap, so its "
                  "1M curve collapses fastest; iWARP's 256K TCP window bounds each repair round; "
                  "MX pays an RTO per first-in-window loss but resends only what is unacked");
  report.add_note("expected: small messages ride below the loss rate's per-message frame budget "
                  "and barely notice");
  report.add_scalar("seed", static_cast<double>(kSeed));

  std::vector<Sample> samples;
  for (const char* stack : {"iWARP", "IB", "MXoE"}) {
    std::vector<std::string> columns;
    for (double loss : losses) columns.push_back("loss " + std::to_string(loss));
    Table table(std::string(stack) + " bandwidth MB/s vs loss rate", "msg_bytes", columns);
    for (std::uint32_t size : sizes) {
      std::vector<double> row;
      for (double loss : losses) {
        Probe probe(size == kProbeBytes && loss == worst_loss);
        MetricRegistry* out = probe.metrics();
        Histogram* h = probe.hist();
        Sample s = std::string(stack) == "iWARP"
                       ? run_verbs(iwarp_profile(), loss, size, iters, out, h)
                   : std::string(stack) == "IB"
                       ? run_verbs(ib_profile(), loss, size, iters, out, h)
                       : run_mx(loss, size, iters, out, h);
        probe.record(report, stack, "transfer_us");
        row.push_back(s.mbps);
        samples.push_back(std::move(s));
      }
      table.add_row(size, std::move(row));
    }
    report.add_table(table);
  }

  // Recovery counters per stack at the probe message size: how each
  // protocol actually repaired the injected gaps.
  for (const char* stack : {"iWARP", "IB", "MXoE"}) {
    Table recovery(std::string(stack) + " recovery counters, msg=" +
                       std::to_string(kProbeBytes) + "B",
                   "loss_rate", {"frames_dropped", "retransmits", "naks_sent", "rto_fires"});
    for (const Sample& s : samples) {
      if (s.stack != stack || s.bytes != kProbeBytes) continue;
      recovery.add_row(s.loss, {static_cast<double>(s.frames_dropped),
                                static_cast<double>(s.retransmits),
                                static_cast<double>(s.naks),
                                static_cast<double>(s.rto_fires)});
    }
    report.add_table(recovery);
  }

  return bench.finish(report);
}
