// FaultPlan: the deterministic, seedable FaultInjector implementation.
//
// A plan composes five kinds of faults, all reproducible from the seed:
//   * probabilistic drop / corrupt (one Bernoulli draw per armed
//     probability per frame, consumed in simulation-event order),
//   * an explicit one-shot schedule: "the first frame at/after time T
//     touching node N", or "the Nth frame observed overall",
//   * link flap windows: every frame touching a node inside [start, end)
//     is dropped (both directions — the cable is out),
//   * NIC stall windows: frames touching a node inside [start, end) are
//     held until the window closes (the adapter stopped responding, then
//     resumed),
//   * fabric-addressed faults (routed topologies, where hw::Switch
//     consults the injector at every hop with a (switch, out port)
//     address): link_down / switch_down windows that kill every frame
//     crossing one directed link or one switch. seeded_link_flaps()
//     turns a seed plus a link list into a reproducible randomized flap
//     schedule — the chaos-soak harness's noise source.
//
// Determinism guarantee: the same seed and the same plan produce the same
// decision for the Kth frame presented to the plan, for every K. Because
// the Engine's event queue is itself deterministic, a whole run (drop
// schedule, retry counts, final timings) replays exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/injector.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace fabsim::fault {

class FaultPlan final : public FaultInjector {
 public:
  explicit FaultPlan(std::uint64_t seed = 1) : rng_(seed) {}

  // --- Probabilistic faults (per frame) ---
  FaultPlan& drop_probability(double p) {
    drop_prob_ = p;
    return *this;
  }
  FaultPlan& corrupt_probability(double p) {
    corrupt_prob_ = p;
    return *this;
  }

  // --- Explicit schedule (one-shot entries) ---
  /// Apply `action` to the first frame at or after `at` whose source or
  /// destination is `node` (node < 0 matches any frame).
  FaultPlan& at(Time when, int node, FaultAction action, Time delay = 0) {
    scheduled_.push_back(Scheduled{when, node, action, delay, false});
    return *this;
  }
  /// Apply `action` to the Nth frame observed by this plan (1-based).
  FaultPlan& nth_frame(std::uint64_t n, FaultAction action, Time delay = 0) {
    nth_.push_back(Nth{n, action, delay, false});
    return *this;
  }

  // --- Windows ---
  /// Link flap: every frame touching `node` inside [start, end) is lost.
  FaultPlan& link_flap(int node, Time start, Time end) {
    flaps_.push_back(Window{node, start, end});
    return *this;
  }
  /// NIC stall: frames touching `node` inside [start, end) are delayed
  /// until the window closes.
  FaultPlan& nic_stall(int node, Time start, Time end) {
    stalls_.push_back(Window{node, start, end});
    return *this;
  }

  // --- Fabric-addressed faults (routed topologies) ---

  /// One directed link on a routed fabric: the output `port` of switch
  /// `sw` (as reported in FaultSite::switch_id / out_port).
  struct Link {
    int sw = -1;
    int port = -1;
  };

  /// Link down: every frame routed out (sw, port) inside [start, end)
  /// is lost — a silent cable failure the routing layer does not see
  /// (pair with topo::Topology::schedule_link_down for a detected
  /// failure that reroutes).
  FaultPlan& link_down(int sw, int port, Time start, Time end) {
    link_windows_.push_back(LinkWindow{sw, port, start, end});
    return *this;
  }
  /// Switch down: every frame consulting switch `sw` inside [start, end)
  /// is lost, whatever port it was routed to.
  FaultPlan& switch_down(int sw, Time start, Time end) {
    link_windows_.push_back(LinkWindow{sw, -1, start, end});
    return *this;
  }

  /// Seeded randomized flap schedule: `count` link-down windows drawn
  /// from `links` with start times in [start, start + horizon) and
  /// durations in [min_down, max_down). Uses a private PRNG seeded from
  /// `seed`, so the schedule is independent of (and does not perturb)
  /// the per-frame probabilistic draw stream.
  FaultPlan& seeded_link_flaps(std::uint64_t seed, const std::vector<Link>& links, int count,
                               Time start, Time horizon, Time min_down, Time max_down);

  // --- FaultInjector ---
  FaultDecision on_frame(const FaultSite& site) override;
  bool active() const override {
    return drop_prob_ > 0.0 || corrupt_prob_ > 0.0 || !scheduled_.empty() || !nth_.empty() ||
           !flaps_.empty() || !stalls_.empty() || !link_windows_.empty();
  }

  // --- Statistics ---
  std::uint64_t frames_seen() const { return frames_seen_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t frames_corrupted() const { return frames_corrupted_; }

 private:
  struct Scheduled {
    Time at;
    int node;  ///< matches src or dst; < 0 matches any
    FaultAction action;
    Time delay;
    bool applied;
  };
  struct Nth {
    std::uint64_t n;  ///< 1-based frame ordinal
    FaultAction action;
    Time delay;
    bool applied;
  };
  struct Window {
    int node;
    Time start;
    Time end;  ///< exclusive
  };
  struct LinkWindow {
    int sw;
    int port;  ///< -1 matches every port of `sw` (whole-switch failure)
    Time start;
    Time end;  ///< exclusive
  };

  static bool touches(int node, const FaultSite& site) {
    return node < 0 || site.src_node == node || site.dst_node == node;
  }
  static bool crosses(int sw, int port, const FaultSite& site) {
    return site.switch_id == sw && (port < 0 || site.out_port == port);
  }

  FaultDecision count(FaultDecision decision);

  Xoshiro256 rng_;
  double drop_prob_ = 0.0;
  double corrupt_prob_ = 0.0;
  std::vector<Scheduled> scheduled_;
  std::vector<Nth> nth_;
  std::vector<Window> flaps_;
  std::vector<Window> stalls_;
  std::vector<LinkWindow> link_windows_;

  std::uint64_t frames_seen_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_corrupted_ = 0;
};

}  // namespace fabsim::fault
