// Testbed builder: N nodes + switch + NICs + (optionally) a MiniMPI world
// for a chosen network, mirroring the paper's four-node Dell PowerEdge
// 2850 cluster.
#pragma once

#include <memory>
#include <vector>

#include "check/invariant.hpp"
#include "core/calibration.hpp"
#include "hw/fabric.hpp"
#include "hw/node.hpp"
#include "ib/hca.hpp"
#include "iwarp/rnic.hpp"
#include "mpi/ch_mx.hpp"
#include "mpi/ch_verbs.hpp"
#include "mpi/rank.hpp"
#include "mx/endpoint.hpp"
#include "sim/engine.hpp"
#include "topo/topology.hpp"
#include "verbs/verbs.hpp"

namespace fabsim::core {

class Cluster {
 public:
  /// Build `nodes` nodes on the given network using its calibrated
  /// profile (optionally customized by the caller).
  Cluster(int nodes, NetworkProfile profile);
  Cluster(int nodes, Network network) : Cluster(nodes, core::profile(network)) {}

  Engine& engine() { return engine_; }
  const NetworkProfile& profile() const { return profile_; }
  Network network() const { return profile_.network; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  hw::Node& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  /// The fabric graph (switches, placement, LFTs). profile.fabric picks
  /// the shape; the default (levels == 1) is the seed's single crossbar.
  topo::Topology& topology() { return topo_; }
  const topo::Topology& topology() const { return topo_; }
  /// Seed-compat accessor: the single crossbar (or first switch of a
  /// multi-stage fabric — prefer topology() there).
  hw::Switch& fabric() { return topo_.sw(0); }

  /// Verbs device of node i (iWARP / IB networks only).
  verbs::Device& device(int i);
  iwarp::Rnic& rnic(int i);
  ib::Hca& hca(int i);
  /// MX endpoint of node i (MXoE / MXoM only).
  mx::Endpoint& endpoint(int i);

  bool is_verbs() const {
    return profile_.network == Network::kIwarp || profile_.network == Network::kIb;
  }

  /// Build the MiniMPI world (idempotent); must be awaited inside the
  /// simulation before using mpi_rank().
  Task<> setup_mpi();
  mpi::Rank& mpi_rank(int i) { return *mpi_ranks_.at(static_cast<std::size_t>(i)); }

  /// FabricScope pull-side: snapshot every component's internal counters
  /// into `registry` under hierarchical names (ib.node0.retransmits,
  /// switch.port2.tail_drops, mpi.rank1.unexpected_max_depth, ...).
  /// Call at end of run; safe to call repeatedly (values are overwritten).
  /// Also publishes the determinism digest (sim.digest / sim.events) and,
  /// when a monitor is attached, the check.* violation counters.
  void collect_metrics(MetricRegistry& registry);

  /// FabricProf: attach a caller-owned host-time profiler to the engine.
  /// collect_metrics() then publishes its prof.* taxonomy alongside the
  /// simulated counters. Detached automatically when the engine dies.
  void attach_profiler(Profiler& profiler) { engine_.set_profiler(&profiler); }

  /// FabricCheck: attach a caller-owned protocol-invariant monitor. Wires
  /// it into the engine (hot-path audits in every stack pick it up from
  /// there) and registers the cluster-wide quiescent-state audits — frame
  /// conservation at the switch (cross-checked against the FaultPlan),
  /// MX matching consistency, and MPI posted/unexpected disjointness —
  /// to run when the event queue drains.
  void attach_monitor(check::InvariantMonitor& monitor);

  /// Convenience: build and attach an owned monitor (counting mode by
  /// default so production runs survive a violation; the records and
  /// check.* counters still surface it). Like any attached monitor it
  /// also runs the scope audit and the allocation budget, so every
  /// FABSIM_CHECK bench cross-checks the static scope_check.py and
  /// hotpath_check.py verdicts on live traffic. Builds configured with
  /// -DFABSIM_CHECK=ON call this from the constructor.
  check::InvariantMonitor& enable_checks(bool fatal = false);

  check::InvariantMonitor* monitor() { return engine_.monitor(); }

 private:
  NetworkProfile profile_;
  Engine engine_;
  topo::Topology topo_;
  std::vector<std::unique_ptr<hw::Node>> nodes_;
  std::vector<std::unique_ptr<iwarp::Rnic>> rnics_;
  std::vector<std::unique_ptr<ib::Hca>> hcas_;
  std::vector<std::unique_ptr<mx::Endpoint>> endpoints_;
  std::vector<std::unique_ptr<mpi::Channel>> channels_;
  std::vector<std::unique_ptr<mpi::Rank>> mpi_ranks_;
  bool mpi_ready_ = false;
  std::unique_ptr<Event> mpi_ready_event_;
  std::unique_ptr<check::InvariantMonitor> owned_monitor_;
};

}  // namespace fabsim::core
