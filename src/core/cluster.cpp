#include "core/cluster.hpp"

#include <map>
#include <stdexcept>

#include "check/audits.hpp"
#include "fault/plan.hpp"

namespace fabsim::core {

Cluster::Cluster(int nodes, NetworkProfile profile)
    : profile_(profile),
      topo_(topo::Topology::build(engine_, profile.fabric, profile.switch_cfg, nodes)) {
  // NICs must be constructed in increasing node order: in routed fabrics
  // each edge switch hands out its pre-reserved global addresses FIFO.
  for (int i = 0; i < nodes; ++i) {
    hw::Switch& edge = topo_.edge_for(i);
    nodes_.push_back(std::make_unique<hw::Node>(engine_, i, profile_.pcie, profile_.cpu));
    switch (profile_.network) {
      case Network::kIwarp:
        rnics_.push_back(std::make_unique<iwarp::Rnic>(*nodes_.back(), edge, profile_.rnic));
        break;
      case Network::kIb:
        hcas_.push_back(std::make_unique<ib::Hca>(*nodes_.back(), edge, profile_.hca));
        break;
      case Network::kMxoe:
      case Network::kMxom:
        endpoints_.push_back(std::make_unique<mx::Endpoint>(*nodes_.back(), edge, profile_.mx));
        break;
    }
  }
#ifdef FABSIM_CHECK
  enable_checks(/*fatal=*/false);
#endif
}

check::InvariantMonitor& Cluster::enable_checks(bool fatal) {
  if (owned_monitor_ == nullptr) {
    owned_monitor_ = std::make_unique<check::InvariantMonitor>(fatal);
    attach_monitor(*owned_monitor_);
  }
  return *owned_monitor_;
}

void Cluster::attach_monitor(check::InvariantMonitor& monitor) {
  engine_.set_monitor(&monitor);
  // Quiescent-state audits, run when the event queue drains. Channels may
  // not exist yet at attach time (setup_mpi runs inside the simulation),
  // so the lambda walks the live vectors at fire time.
  monitor.add_final_check([this](check::InvariantMonitor& m) {
    const Time now = engine_.now();
    // Per-hop frame conservation on every switch of the fabric, plus the
    // routed-mode queue-drained / credit-conservation audits.
    topo_.audit_final(m, now);
    // Cross-check against the fault plan: the injector is consulted at
    // every hop, but each kDrop decision lands on exactly one switch's
    // counter, so the plan's drop decision count must equal the
    // fabric-wide fault-drop total exactly.
    if (const auto* plan = dynamic_cast<const fault::FaultPlan*>(engine_.fault_injector())) {
      m.expect(plan->frames_dropped() == topo_.fault_drops_total(), now, check::Layer::kHw, -1,
               "fault_drop_mismatch", [&] {
                 return "FaultPlan decided " + std::to_string(plan->frames_dropped()) +
                        " drops but the fabric recorded " +
                        std::to_string(topo_.fault_drops_total());
               });
    }
    for (auto& endpoint : endpoints_) endpoint->audit_consistency(m);
    for (auto& channel : channels_) {
      if (auto* ch = dynamic_cast<mpi::ChVerbs*>(channel.get())) ch->audit_queues(m);
    }
  });
}

verbs::Device& Cluster::device(int i) {
  switch (profile_.network) {
    case Network::kIwarp: return *rnics_.at(static_cast<std::size_t>(i));
    case Network::kIb: return *hcas_.at(static_cast<std::size_t>(i));
    default: throw std::logic_error("device(): not a verbs network");
  }
}

iwarp::Rnic& Cluster::rnic(int i) { return *rnics_.at(static_cast<std::size_t>(i)); }
ib::Hca& Cluster::hca(int i) { return *hcas_.at(static_cast<std::size_t>(i)); }

mx::Endpoint& Cluster::endpoint(int i) {
  if (endpoints_.empty()) throw std::logic_error("endpoint(): not an MX network");
  return *endpoints_.at(static_cast<std::size_t>(i));
}

Task<> Cluster::setup_mpi() {
  if (!mpi_ready_event_) mpi_ready_event_ = std::make_unique<Event>(engine_);
  if (mpi_ready_) {
    // Another process is (or was) doing the setup; wait until it finishes.
    co_await mpi_ready_event_->wait();
    co_return;
  }
  mpi_ready_ = true;
  const int n = num_nodes();
  if (is_verbs()) {
    std::vector<mpi::ChVerbs*> verbs_channels;
    for (int i = 0; i < n; ++i) {
      auto channel = std::make_unique<mpi::ChVerbs>(i, n, device(i), node(i), engine_,
                                                    profile_.mpi);
      verbs_channels.push_back(channel.get());
      channels_.push_back(std::move(channel));
    }
    co_await mpi::ChVerbs::connect_mesh(verbs_channels);
    if (profile_.mpi.async_progress) {
      for (mpi::ChVerbs* channel : verbs_channels) channel->start_async_progress();
    }
  } else {
    std::vector<int> ports;
    for (int i = 0; i < n; ++i) ports.push_back(endpoint(i).port());
    for (int i = 0; i < n; ++i) {
      channels_.push_back(
          std::make_unique<mpi::ChMx>(i, n, endpoint(i), profile_.mpi, ports));
    }
  }
  for (int i = 0; i < n; ++i) {
    mpi_ranks_.push_back(std::make_unique<mpi::Rank>(*channels_[static_cast<std::size_t>(i)]));
  }
  mpi_ready_event_->trigger();
}

void Cluster::collect_metrics(MetricRegistry& registry) {
  const Time elapsed = engine_.now();
  auto nname = [](int i) { return "node" + std::to_string(i); };

  // Determinism fingerprint: two runs of the same configuration must
  // produce identical digests (scripts/check_determinism.sh diffs these).
  registry.counter("sim.events").set(engine_.events_processed());
  registry.counter("sim.digest").set(engine_.run_digest());

  // FabricProf: host-side dispatch/queue/alloc profile, when attached.
  if (const Profiler* profiler = engine_.profiler()) profiler->publish(registry);

  // FabricCheck: violation totals, plus one counter per (layer, rule).
  // Tallied into a local map first so repeated collect_metrics calls
  // overwrite rather than accumulate. Then the coverage of the scope
  // audit and the allocation budget: zero checks with a monitor attached
  // means the traps or the dispatch bracket never ran — as suspicious as
  // a violation.
  if (const check::InvariantMonitor* m = engine_.monitor()) {
    registry.counter("check.violations").set(m->violation_count());
    std::map<std::string, std::uint64_t> by_rule;
    for (const check::InvariantViolation& v : m->violations()) {
      ++by_rule[std::string("check.") + check::layer_name(v.layer) + "." + v.rule];
    }
    for (const auto& [name, count] : by_rule) registry.counter(name).set(count);
    registry.counter("scope.checks").set(m->scope_checks());
    registry.counter("scope.violations").set(m->scope_violations());
    registry.counter("hot.checks").set(m->hot_checks());
    registry.counter("hot.violations").set(m->hot_violations());
  }

  // Fabric: per-switch, per-port serialization busy time -> utilization,
  // tail drops, queue high-water marks, and (routed fabrics) the
  // credit-stall / PAUSE counters. Single crossbars keep the seed's flat
  // switch.portN.* names.
  topo_.collect_metrics(registry, elapsed);

  // Host side: CPU busy time and PCIe DMA byte counts per node.
  for (int i = 0; i < num_nodes(); ++i) {
    const std::string prefix = "hw." + nname(i) + ".";
    registry.counter(prefix + "cpu_busy_us")
        .set(static_cast<std::uint64_t>(to_us(node(i).cpu().busy_time())));
    registry.counter(prefix + "pcie_bytes_read").set(node(i).pcie().bytes_read());
    registry.counter(prefix + "pcie_bytes_written").set(node(i).pcie().bytes_written());
  }

  // Stack counters, per node.
  for (std::size_t i = 0; i < rnics_.size(); ++i) {
    const iwarp::Rnic& r = *rnics_[i];
    const std::string prefix = "iwarp." + nname(static_cast<int>(i)) + ".";
    registry.counter(prefix + "segments_sent").set(r.segments_sent());
    registry.counter(prefix + "acks_sent").set(r.acks_sent());
    registry.counter(prefix + "retransmits").set(r.retransmits());
    registry.counter(prefix + "retransmitted_bytes").set(r.retransmitted_bytes());
    registry.counter(prefix + "rto_fires").set(r.rto_fires());
    registry.counter(prefix + "crc_discards").set(r.corrupt_discards());
    registry.counter(prefix + "pcix_bytes").set(r.pcix_bytes());
    registry.counter(prefix + "retry_exceeded").set(r.retry_exceeded_completions());
    registry.counter(prefix + "conn_errors").set(r.conn_errors());
  }
  for (std::size_t i = 0; i < hcas_.size(); ++i) {
    const ib::Hca& h = *hcas_[i];
    const std::string prefix = "ib." + nname(static_cast<int>(i)) + ".";
    registry.counter(prefix + "packets_sent").set(h.packets_sent());
    registry.counter(prefix + "acks_sent").set(h.acks_sent());
    registry.counter(prefix + "naks_sent").set(h.naks_sent());
    registry.counter(prefix + "retransmits").set(h.retransmits());
    registry.counter(prefix + "retransmitted_bytes").set(h.retransmitted_bytes());
    registry.counter(prefix + "rto_fires").set(h.rto_fires());
    registry.counter(prefix + "crc_discards").set(h.corrupt_discards());
    registry.counter(prefix + "context_hits").set(h.context_hits());
    registry.counter(prefix + "context_misses").set(h.context_misses());
    registry.counter(prefix + "retry_exceeded").set(h.retry_exceeded_completions());
  }
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const mx::Endpoint& e = *endpoints_[i];
    const std::string prefix = "mx." + nname(static_cast<int>(i)) + ".";
    registry.counter(prefix + "frames_sent").set(e.frames_sent());
    registry.counter(prefix + "acks_sent").set(e.acks_sent());
    registry.counter(prefix + "resends").set(e.resends());
    registry.counter(prefix + "resent_bytes").set(e.resent_bytes());
    registry.counter(prefix + "rto_fires").set(e.rto_fires());
    registry.counter(prefix + "crc_discards").set(e.corrupt_discards());
    registry.counter(prefix + "eager_sends").set(e.eager_sends());
    registry.counter(prefix + "rndv_sends").set(e.rndv_sends());
    registry.counter(prefix + "flow_failures").set(e.flow_failures());
    registry.counter(prefix + "reg_cache_hits").set(e.reg_cache().hits());
    registry.counter(prefix + "reg_cache_misses").set(e.reg_cache().misses());
    registry.counter(prefix + "reg_cache_evictions").set(e.reg_cache().evictions());
    registry.gauge(prefix + "unexpected_depth").set(static_cast<double>(e.unexpected_max_depth()));
    registry.gauge(prefix + "posted_depth").set(static_cast<double>(e.posted_max_depth()));
  }

  // MPI layer (when setup_mpi ran): protocol split, queue depth
  // high-water marks, and the pin-down cache for ch_verbs.
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const std::string prefix = "mpi.rank" + std::to_string(i) + ".";
    if (const auto* ch = dynamic_cast<const mpi::ChVerbs*>(channels_[i].get())) {
      registry.counter(prefix + "eager_sends").set(ch->eager_send_count());
      registry.counter(prefix + "rndv_sends").set(ch->rndv_send_count());
      registry.gauge(prefix + "unexpected_max_depth")
          .set(static_cast<double>(ch->unexpected_max_depth()));
      registry.gauge(prefix + "posted_max_depth").set(static_cast<double>(ch->posted_max_depth()));
      registry.counter(prefix + "pin_hits").set(ch->pin_hits());
      registry.counter(prefix + "pin_misses").set(ch->pin_misses());
      registry.counter(prefix + "pin_cache_evictions").set(ch->pin_cache().evictions());
    } else if (!endpoints_.empty()) {
      // ChMx delegates matching to the NIC: surface the endpoint's
      // NIC-resident queue high-water marks under the MPI taxonomy too.
      const mx::Endpoint& e = *endpoints_[i];
      registry.gauge(prefix + "unexpected_max_depth")
          .set(static_cast<double>(e.unexpected_max_depth()));
      registry.gauge(prefix + "posted_max_depth")
          .set(static_cast<double>(e.posted_max_depth()));
    }
  }
}

}  // namespace fabsim::core
