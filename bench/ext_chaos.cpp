// Extension X12 — FabricFail chaos soak: seeded failure schedules on
// multi-stage Clos fabrics, with every robustness gate armed at once.
//
// Each stack drives permutation + incast traffic over a routed Clos
// fabric while two kinds of failures land on it concurrently:
//
//   * detected failures — topo::Topology::schedule_link_down /
//     schedule_switch_down windows. The routing layer sees these: LFTs
//     recompute around the failed element (lft_epoch ticks), stranded
//     queues drain per flow-control mode (credit requeues, returning
//     every commitment; lossy drops and counts), and traffic reroutes.
//   * undetected failures — FaultPlan::seeded_link_flaps windows. The
//     routing layer does NOT see these; frames silently die on one
//     directed link and only the per-stack recovery machinery (iWARP
//     go-back-N, IB RC retransmission, MX resend queue) repairs the
//     damage — or gives up through its retry limit.
//
// The gate, all of which must hold for exit code 0:
//   1. FabricCheck clean: zero invariant violations with the auditor
//      armed (per-hop conservation, credit conservation across down/up
//      cycles, queue drainage at quiescence).
//   2. Determinism: each scenario runs twice from the same seed and the
//      two sim.digest values must be identical (the iWARP scenario runs
//      a third repeat, so one bench invocation checks three digests).
//   3. No silent hangs: at quiescence every flow either recovered
//      (all chunks delivered) or failed *visibly* — kRetryExceeded /
//      connection error for the verbs stacks, Request::failed() or an
//      mx_cancel for MX. A flow still pending once the event queue
//      drains is a stack bug.
//
// Results land in results/ext_chaos{,_quick}.{txt,json}; a run with
// `--seed N` other than the default writes ext_chaos{,_quick}_seed<N>.*
// instead. The chaos-smoke CI job runs `ext_chaos quick` under
// FABSIM_CHECK and scripts/chaos_soak.sh sweeps seeds for the long-form
// soak.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/bench.hpp"
#include "core/cluster.hpp"
#include "fault/plan.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

struct Outcome {
  bool done = false;    ///< flow resolved (success or surfaced failure)
  bool failed = false;  ///< resolved by a surfaced error, not delivery
  bool cancelled = false;
};

struct ChaosStats {
  std::uint64_t digest = 0;
  int recovered = 0;
  int surfaced = 0;   ///< failed visibly (error completion / failed request)
  int cancelled = 0;  ///< MX receives unblocked via mx_cancel
  int hung = 0;       ///< neither — the gate breaker
  std::uint64_t violations = 0;
  int lft_epochs = 0;
  std::uint64_t down_drops = 0;
  std::uint64_t unroutable_drops = 0;
  std::uint64_t tail_drops = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t give_ups = 0;  ///< retry_exceeded / conn_errors / flow_failures
};

struct Pattern {
  std::vector<std::pair<int, int>> flows;
};

Pattern chaos_pattern(int endpoints, int incast_senders) {
  Pattern p;
  for (int n = 0; n < endpoints; ++n) p.flows.emplace_back(n, (n + endpoints / 2) % endpoints);
  for (int s = 1; s <= incast_senders; ++s) p.flows.emplace_back(s, 0);
  return p;
}

constexpr Time kPollCpu = ns(250);

/// One chaos scenario: `pattern` over a Clos fabric with a seeded
/// failure schedule (detected windows through the topology, undetected
/// flaps through the fault plan), FabricCheck armed throughout.
/// With `partition` set the schedule is instead one permanent silent
/// outage of node 0's edge switch — longer than every stack's retry
/// budget, so the flows touching node 0 MUST exhaust retries and fail
/// visibly (kRetryExceeded / MX flow failure) while the rest recover.
ChaosStats run(Network network, const topo::FabricSpec& spec, int endpoints,
               const Pattern& pattern, std::uint32_t chunk, int chunks, std::uint64_t seed,
               bool quick, bool partition = false, MetricRegistry* metrics_out = nullptr) {
  NetworkProfile p = profile(network);
  const hw::FlowControl link_layer = p.fabric.flow;
  p.fabric = spec;
  p.fabric.flow = link_layer;
  p.switch_cfg.max_queue_bytes = 32ull << 10;
  p.rnic.rto = us(300);  // keep go-back-N rounds short at this scale
  p.mx.rto = us(150);
  Cluster cluster(endpoints, p);
  check::InvariantMonitor& monitor = cluster.enable_checks(/*fatal=*/false);
  MetricRegistry registry;
  cluster.engine().set_metrics(&registry);

  // --- Seeded failure schedule -----------------------------------------
  // A private xorshift64 stream makes the schedule a pure function of the
  // seed; the FaultPlan's own PRNG handles the undetected flaps.
  std::uint64_t x = seed ? seed : 1;
  auto rnd = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };

  topo::Topology& topo = cluster.topology();
  const auto& links = topo.links();
  fault::FaultPlan plan(seed);
  if (partition) {
    // Node 0's edge switch dies silently at t=0 and stays dead longer
    // than any stack's retry budget (MX's backoff sums to ~75ms, the
    // longest). Nothing in or out of node 0 can ever be delivered, so
    // every flow touching it must surface a failure; everything else
    // runs on an otherwise healthy fabric and must complete untouched.
    plan.switch_down(topo.edge_index_of(0), us(0), ms(500));
  } else if (!links.empty()) {
    // Detected: link-down/up windows the routing layer reroutes around.
    const int detected = quick ? 2 : 4;
    for (int i = 0; i < detected; ++i) {
      const int link = static_cast<int>(rnd() % links.size());
      const Time start = us(200 + static_cast<double>(rnd() % 1200));
      const Time down_for = us(150 + static_cast<double>(rnd() % 400));
      topo.schedule_link_down(link, start, start + down_for);
    }
    // Detected: one whole-switch outage, never an edge switch (killing a
    // host's only attachment point is a different experiment).
    std::vector<int> core;
    for (int s = 0; s < static_cast<int>(topo.num_switches()); ++s) {
      bool is_edge = false;
      for (int n = 0; n < endpoints; ++n) is_edge |= topo.edge_index_of(n) == s;
      if (!is_edge) core.push_back(s);
    }
    if (!core.empty()) {
      const int victim = core[rnd() % core.size()];
      const Time start = us(1500 + static_cast<double>(rnd() % 500));
      topo.schedule_switch_down(victim, start, start + us(600));
    }
    // Undetected: silent one-directional flaps only the stacks repair.
    std::vector<fault::FaultPlan::Link> directed;
    for (const topo::Topology::LinkRec& l : links) {
      directed.push_back({l.a, l.port_a});
      directed.push_back({l.b, l.port_b});
    }
    plan.seeded_link_flaps(seed ^ 0x9e3779b97f4a7c15ull, directed, quick ? 2 : 5, us(100),
                           ms(2), us(50), us(250));
  } else {
    plan.drop_probability(0.001);  // single crossbar fallback: keep the plan armed
  }
  cluster.engine().set_fault_injector(&plan);

  // --- Load -------------------------------------------------------------
  std::vector<std::unique_ptr<Outcome>> outcomes;
  std::vector<std::unique_ptr<verbs::CompletionQueue>> cqs;
  std::vector<std::unique_ptr<verbs::QueuePair>> qps;
  struct MxFlow {
    Outcome* send = nullptr;
    Outcome* recv = nullptr;
    int dst = -1;
    mx::RequestPtr current_recv;
  };
  std::vector<std::unique_ptr<MxFlow>> mx_flows;

  for (std::size_t f = 0; f < pattern.flows.size(); ++f) {
    const auto [src, dst] = pattern.flows[f];
    auto& src_buf = cluster.node(src).mem().alloc(chunk, false);
    auto& dst_buf = cluster.node(dst).mem().alloc(chunk, false);
    if (cluster.is_verbs()) {
      outcomes.push_back(std::make_unique<Outcome>());
      Outcome* out = outcomes.back().get();
      cqs.push_back(std::make_unique<verbs::CompletionQueue>(cluster.engine()));
      verbs::CompletionQueue& cq = *cqs.back();
      auto dst_qp = cluster.device(dst).create_qp(cq, cq);
      auto src_qp = cluster.device(src).create_qp(cq, cq);
      cluster.device(dst).establish(*dst_qp, *src_qp);
      cluster.engine().spawn([](Cluster& cl, verbs::QueuePair& qp, verbs::CompletionQueue& wcq,
                                int s, int d, std::uint64_t saddr, std::uint64_t daddr,
                                std::uint32_t n, int count, Outcome* res) -> Task<> {
        auto lkey = co_await cl.device(s).reg_mr(saddr, n);
        auto rkey = co_await cl.device(d).reg_mr(daddr, n);
        for (int i = 0; i < count; ++i) {
          if (qp.in_error()) {
            res->failed = true;
            break;
          }
          bool posted = true;
          try {
            co_await qp.post_send(verbs::SendWr{.wr_id = static_cast<std::uint64_t>(i + 1),
                                                .opcode = verbs::Opcode::kRdmaWrite,
                                                .sge = {saddr, n, lkey},
                                                .remote_addr = daddr,
                                                .rkey = rkey});
          } catch (const std::runtime_error&) {
            posted = false;  // QP entered error between the check and the post
          }
          if (!posted) {
            res->failed = true;
            break;
          }
          const verbs::Completion completion =
              co_await verbs::next_completion(wcq, cl.node(s).cpu(), kPollCpu);
          if (completion.status != verbs::Completion::Status::kSuccess) {
            res->failed = true;
            break;
          }
        }
        res->done = true;
      }(cluster, *src_qp, cq, src, dst, src_buf.addr(), dst_buf.addr(), chunk, chunks, out));
      qps.push_back(std::move(dst_qp));
      qps.push_back(std::move(src_qp));
    } else {
      mx_flows.push_back(std::make_unique<MxFlow>());
      MxFlow* flow = mx_flows.back().get();
      outcomes.push_back(std::make_unique<Outcome>());
      flow->send = outcomes.back().get();
      outcomes.push_back(std::make_unique<Outcome>());
      flow->recv = outcomes.back().get();
      flow->dst = dst;
      const std::uint64_t match = 0x2000 + f;
      cluster.engine().spawn([](Cluster& cl, int s, int d, std::uint64_t saddr, std::uint32_t n,
                                int count, std::uint64_t bits, Outcome* res) -> Task<> {
        for (int i = 0; i < count; ++i) {
          auto req = co_await cl.endpoint(s).isend(saddr, n, cl.endpoint(d).port(), bits);
          co_await cl.endpoint(s).wait(req);
          if (req->failed()) {
            res->failed = true;
            break;
          }
        }
        res->done = true;
      }(cluster, src, dst, src_buf.addr(), chunk, chunks, match, flow->send));
      cluster.engine().spawn([](Cluster& cl, MxFlow* fl, std::uint64_t daddr, std::uint32_t n,
                                int count, std::uint64_t bits) -> Task<> {
        for (int i = 0; i < count; ++i) {
          auto req = co_await cl.endpoint(fl->dst).irecv(daddr, n, bits, ~0ull);
          fl->current_recv = req;
          co_await cl.endpoint(fl->dst).wait(req);
          if (req->failed()) {
            fl->recv->failed = true;
            break;
          }
        }
        fl->recv->done = true;
      }(cluster, flow, dst_buf.addr(), chunk, chunks, match));
    }
  }

  // MX receives stranded by a silently-dead sender never match, and a
  // coroutine suspended forever is exactly what the lost-wakeup audit
  // flags at quiescence. The application-level remedy is a bounded wait:
  // a watchdog past every stack's retry budget (MX's backoff sums to
  // ~75ms, the longest) that mx_cancels whatever is still pending.
  if (!mx_flows.empty()) {
    std::vector<MxFlow*> watch;
    watch.reserve(mx_flows.size());
    for (const auto& flow : mx_flows) watch.push_back(flow.get());
    Cluster* cl = &cluster;
    cluster.engine().post(ms(100), [cl, watch] {
      for (MxFlow* fl : watch) {
        if (!fl->recv->done && fl->current_recv != nullptr && !fl->current_recv->done()) {
          fl->recv->cancelled = true;
          cl->engine().spawn([](Cluster& c, MxFlow* f) -> Task<> {
            co_await c.endpoint(f->dst).cancel(f->current_recv);
          }(*cl, fl));
        }
      }
    });
  }

  cluster.engine().run();

  // iWARP tagged writes complete optimistically at the wire handoff
  // (TCP send-buffer semantics), so a sender whose connection later
  // died can have seen nothing but successful completions. At
  // quiescence the application observes connection state: a flow whose
  // QP sits in error did NOT recover, whatever its completions said.
  for (std::size_t f = 0; f < qps.size() / 2; ++f) {
    verbs::QueuePair& src_qp = *qps[2 * f + 1];
    if (src_qp.in_error() && !outcomes[f]->failed) outcomes[f]->failed = true;
  }

  cluster.collect_metrics(registry);
  for (const auto& v : monitor.violations())
    std::fprintf(stderr, "violation: %s\n", v.to_string().c_str());

  ChaosStats stats;
  stats.digest = cluster.engine().run_digest();
  for (const auto& out : outcomes) {
    if (!out->done) {
      ++stats.hung;
    } else if (out->failed) {
      ++stats.surfaced;
      if (out->cancelled) ++stats.cancelled;
    } else {
      ++stats.recovered;
    }
  }
  stats.violations = registry.counter_value("check.violations");
  stats.lft_epochs = topo.lft_epoch();
  stats.down_drops = topo.down_drops_total();
  stats.unroutable_drops = topo.unroutable_drops_total();
  stats.tail_drops = topo.tail_drops_total();
  stats.fault_drops = topo.fault_drops_total();
  for (int n = 0; n < endpoints; ++n) {
    const std::string node = "node" + std::to_string(n);
    stats.retransmits += registry.counter_value("iwarp." + node + ".retransmits");
    stats.retransmits += registry.counter_value("ib." + node + ".retransmits");
    stats.retransmits += registry.counter_value("mx." + node + ".resends");
    stats.give_ups += registry.counter_value("iwarp." + node + ".conn_errors");
    stats.give_ups += registry.counter_value("ib." + node + ".retry_exceeded");
    stats.give_ups += registry.counter_value("mx." + node + ".flow_failures");
  }
  if (metrics_out != nullptr) *metrics_out = std::move(registry);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint64_t kDefaultSeed = 7;
  std::uint64_t seed = kDefaultSeed;
  const Bench bench("ext_chaos", argc, argv,
                    {.quick = true, .options = {number_option("--seed", seed)}});
  const bool quick = bench.quick();

  const topo::FabricSpec spec = quick ? topo::FabricSpec{2, 8, 1.0} : topo::FabricSpec{3, 8, 1.0};
  const int endpoints = quick ? 16 : 128;
  const int incast_senders = quick ? 4 : 8;
  const std::uint32_t chunk = 64 * 1024;
  const int chunks = quick ? 2 : 4;
  const Pattern pattern = chaos_pattern(endpoints, incast_senders);
  const auto networks = {Network::kIwarp, Network::kIb, Network::kMxoe};

  Report report(bench.report_name(seed == kDefaultSeed ? "" : "seed" + std::to_string(seed)));
  report.add_note("seeded chaos: detected link/switch-down windows (LFT reroute) + silent flaps");
  report.add_note("gate: zero FabricCheck violations, identical digests (iWARP over 3 runs, "
                  "IB and MXoE over 2), no silent hangs");
  report.add_note("phase 2: node-0 edge switch silently partitioned; surfaced > 0 required");
  report.add_note("flows table x: 0=iWARP 1=IB 2=MXoE");
  report.add_scalar("seed", static_cast<double>(seed));
  report.add_scalar("endpoints", endpoints);
  report.add_scalar("flows", static_cast<double>(pattern.flows.size()));

  Table flows_table("Flow outcomes per stack (gate: hung == 0)", "stack",
                    {"recovered", "surfaced", "cancelled", "hung"});
  Table fabric_table("Fabric failure accounting", "stack",
                     {"lft_epochs", "down_drops", "unroutable", "tail_drops", "fault_drops",
                      "retransmits", "give_ups"});

  int failures = 0;
  int stack_index = 0;
  for (Network n : networks) {
    MetricRegistry metrics;
    const ChaosStats s1 = run(n, spec, endpoints, pattern, chunk, chunks, seed, quick,
                              /*partition=*/false, &metrics);
    const ChaosStats s2 = run(n, spec, endpoints, pattern, chunk, chunks, seed, quick);
    bool digests_match = s1.digest == s2.digest;
    if (n == Network::kIwarp) {
      // Third repeat: one invocation of this bench certifies three
      // identical digests for the same seed on the probe stack.
      const ChaosStats s3 = run(n, spec, endpoints, pattern, chunk, chunks, seed, quick);
      digests_match = digests_match && s1.digest == s3.digest;
    }
    if (s1.violations != 0) {
      std::fprintf(stderr, "GATE: %s recorded %llu FabricCheck violations\n", network_name(n),
                   static_cast<unsigned long long>(s1.violations));
      ++failures;
    }
    if (s1.hung != 0) {
      std::fprintf(stderr, "GATE: %s left %d flows silently hung\n", network_name(n), s1.hung);
      ++failures;
    }
    if (!digests_match) {
      std::fprintf(stderr, "GATE: %s digests diverged across identical seeded runs\n",
                   network_name(n));
      ++failures;
    }
    flows_table.add_row(stack_index, {static_cast<double>(s1.recovered),
                                      static_cast<double>(s1.surfaced),
                                      static_cast<double>(s1.cancelled),
                                      static_cast<double>(s1.hung)});
    fabric_table.add_row(stack_index, {static_cast<double>(s1.lft_epochs),
                                       static_cast<double>(s1.down_drops),
                                       static_cast<double>(s1.unroutable_drops),
                                       static_cast<double>(s1.tail_drops),
                                       static_cast<double>(s1.fault_drops),
                                       static_cast<double>(s1.retransmits),
                                       static_cast<double>(s1.give_ups)});
    report.add_metrics_if(metrics, std::string(network_name(n)) + ".", Report::aggregate_key);
    ++stack_index;
  }
  // --- Phase 2: permanent partition ------------------------------------
  // The chaos windows above are short enough that every stack recovers,
  // so the retry-exhaustion machinery never fires. This phase proves the
  // "no silent hangs" gate has teeth on the failure side too: node 0's
  // edge switch is silently dead for the whole run, every flow touching
  // it must fail *visibly* (kRetryExceeded completion, MX flow failure,
  // or an mx_cancel of a stranded receive), and nothing may hang.
  Table partition_table("Partition outcomes per stack (gate: hung == 0, surfaced > 0)", "stack",
                        {"recovered", "surfaced", "cancelled", "hung", "give_ups"});
  stack_index = 0;
  for (Network n : networks) {
    const ChaosStats s = run(n, spec, endpoints, pattern, chunk, chunks, seed, quick,
                             /*partition=*/true);
    if (s.violations != 0) {
      std::fprintf(stderr, "GATE: %s partition recorded %llu FabricCheck violations\n",
                   network_name(n), static_cast<unsigned long long>(s.violations));
      ++failures;
    }
    if (s.hung != 0) {
      std::fprintf(stderr, "GATE: %s partition left %d flows silently hung\n", network_name(n),
                   s.hung);
      ++failures;
    }
    if (s.surfaced == 0) {
      std::fprintf(stderr,
                   "GATE: %s partition surfaced no failures — retry exhaustion never fired\n",
                   network_name(n));
      ++failures;
    }
    partition_table.add_row(stack_index,
                            {static_cast<double>(s.recovered), static_cast<double>(s.surfaced),
                             static_cast<double>(s.cancelled), static_cast<double>(s.hung),
                             static_cast<double>(s.give_ups)});
    ++stack_index;
  }

  report.add_table(flows_table);
  report.add_table(fabric_table);
  report.add_table(partition_table);
  if (failures != 0) {
    report.add_note("chaos gate: " + std::to_string(failures) + " failure(s), listed on stderr");
    return bench.finish(report, 1);
  }
  report.add_note("chaos gate: clean; detected failures rerouted (lft_epochs), undetected flaps "
                  "were repaired by per-stack recovery, and every flow that could not recover "
                  "failed visibly instead of hanging");
  return bench.finish(report);
}
