#include "fault/plan.hpp"

namespace fabsim::fault {

FaultDecision FaultPlan::count(FaultDecision decision) {
  switch (decision.action) {
    case FaultAction::kDrop: ++frames_dropped_; break;
    case FaultAction::kCorrupt: ++frames_corrupted_; break;
    case FaultAction::kDelay:
    case FaultAction::kDeliver: break;
  }
  return decision;
}

FaultPlan& FaultPlan::seeded_link_flaps(std::uint64_t seed, const std::vector<Link>& links,
                                        int count, Time start, Time horizon, Time min_down,
                                        Time max_down) {
  // Private PRNG: the schedule depends only on (seed, links, params),
  // never on how many per-frame draws the plan has already consumed.
  Xoshiro256 rng(seed);
  for (int i = 0; i < count && !links.empty(); ++i) {
    const Link& link = links[rng.uniform_below(links.size())];
    const Time begin = start + rng.uniform_below(horizon > 0 ? horizon : 1);
    const Time span = max_down > min_down
                          ? min_down + rng.uniform_below(max_down - min_down)
                          : min_down;
    link_down(link.sw, link.port, begin, begin + span);
  }
  return *this;
}

FaultDecision FaultPlan::on_frame(const FaultSite& site) {
  ++frames_seen_;

  // Explicit schedule first: one-shot entries are the precision tools
  // tests use to kill exactly one frame, so they must not be preempted
  // by a probabilistic draw.
  for (Nth& entry : nth_) {
    if (!entry.applied && frames_seen_ == entry.n) {
      entry.applied = true;
      return count(FaultDecision{entry.action, entry.delay});
    }
  }
  for (Scheduled& entry : scheduled_) {
    if (!entry.applied && site.now >= entry.at && touches(entry.node, site)) {
      entry.applied = true;
      return count(FaultDecision{entry.action, entry.delay});
    }
  }

  // Windows. Fabric-addressed ones first: they are the more specific
  // match (one directed link or one switch vs. "anything touching a
  // node").
  for (const LinkWindow& window : link_windows_) {
    if (crosses(window.sw, window.port, site) && site.now >= window.start &&
        site.now < window.end) {
      return count(FaultDecision{FaultAction::kDrop, 0});
    }
  }
  for (const Window& flap : flaps_) {
    if (touches(flap.node, site) && site.now >= flap.start && site.now < flap.end) {
      return count(FaultDecision{FaultAction::kDrop, 0});
    }
  }
  for (const Window& stall : stalls_) {
    if (touches(stall.node, site) && site.now >= stall.start && site.now < stall.end) {
      return count(FaultDecision{FaultAction::kDelay, stall.end - site.now});
    }
  }

  // Probabilistic faults. Each armed probability consumes exactly one
  // draw per frame, so the decision stream for a seed is independent of
  // which *other* probabilities are armed on a different plan.
  if (drop_prob_ > 0.0 && rng_.bernoulli(drop_prob_)) {
    return count(FaultDecision{FaultAction::kDrop, 0});
  }
  if (corrupt_prob_ > 0.0 && rng_.bernoulli(corrupt_prob_)) {
    return count(FaultDecision{FaultAction::kCorrupt, 0});
  }
  return FaultDecision{};
}

}  // namespace fabsim::fault
