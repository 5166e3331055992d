#include "sim/prof.hpp"

#include <chrono>

#include "sim/metrics.hpp"

namespace fabsim {

namespace {

// The single sanctioned host-clock read in this tree (conventions_lint
// rule 10): host-side profiling is meaningless in simulated time.
std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             // HOT-OK(the one sanctioned host-clock read (conventions_lint rule 10); profiler-only)
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

namespace {

prof::AllocStats stats_since(const prof::AllocStats& baseline) {
  const prof::AllocStats& now = prof::alloc_stats();
  prof::AllocStats delta;
  delta.allocs = now.allocs - baseline.allocs;
  delta.frees = now.frees - baseline.frees;
  delta.bytes_allocated = now.bytes_allocated - baseline.bytes_allocated;
  delta.bytes_freed = now.bytes_freed - baseline.bytes_freed;
  return delta;
}

void fold(prof::AllocStats& into, const prof::AllocStats& delta) {
  into.allocs += delta.allocs;
  into.frees += delta.frees;
  into.bytes_allocated += delta.bytes_allocated;
  into.bytes_freed += delta.bytes_freed;
}

}  // namespace

void Profiler::on_attach() {
  if (attached_) return;
  attached_ = true;
  if (epoch_ns_ == 0) epoch_ns_ = host_now_ns();  // slices stay on one axis across re-attaches
  alloc_baseline_ = prof::alloc_stats();
}

void Profiler::on_detach() {
  if (!attached_) return;
  fold(alloc_accum_, stats_since(alloc_baseline_));
  attached_ = false;
  in_sample_ = false;
  in_run_ = false;
}

void Profiler::begin_sampled(Time sim_now, int scope) {
  // A callback that threw mid-sample leaves in_sample_ set; starting the
  // next sample simply abandons the torn one.
  in_sample_ = true;
  sample_sim_at_ = sim_now;
  sample_scope_ = scope;
  sample_begin_ns_ = host_now_ns();
}

void Profiler::end_dispatch() {
  if (!in_sample_) return;
  in_sample_ = false;
  const std::int64_t end_ns = host_now_ns();
  const std::uint64_t dur =
      end_ns > sample_begin_ns_ ? static_cast<std::uint64_t>(end_ns - sample_begin_ns_) : 0;
  ++sampled_;
  sampled_ns_ += dur;
  auto& [samples, ns_total] = by_scope_[sample_scope_];
  ++samples;
  ns_total += dur;
  if (slices_.size() < config_.max_slices) {
    // HOT-OK(sampled slice retention, capped at Config::max_slices; profiler-only observability)
    slices_.push_back(Slice{static_cast<double>(sample_begin_ns_ - epoch_ns_) / 1e3,
                            static_cast<double>(dur) / 1e3, sample_sim_at_, sample_scope_});
  } else {
    ++slices_dropped_;
  }
}

void Profiler::on_run_begin(std::uint64_t events_processed) {
  if (in_run_) return;  // defensive: nested run() is not a thing today
  in_run_ = true;
  run_begin_events_ = events_processed;
  run_begin_ns_ = host_now_ns();
}

void Profiler::on_run_end(std::uint64_t events_processed) {
  if (!in_run_) return;
  in_run_ = false;
  const std::int64_t end_ns = host_now_ns();
  if (end_ns > run_begin_ns_) run_ns_ += static_cast<std::uint64_t>(end_ns - run_begin_ns_);
  dispatched_ += events_processed - run_begin_events_;
}

prof::AllocStats Profiler::alloc_delta() const {
  prof::AllocStats total = alloc_accum_;
  if (attached_) fold(total, stats_since(alloc_baseline_));
  return total;
}

void Profiler::publish(MetricRegistry& registry, const std::string& prefix) const {
  registry.counter(prefix + "queue.posts").set(posts_);
  registry.counter(prefix + "queue.pops").set(pops_);
  registry.counter(prefix + "queue.requeues").set(requeues_);
  registry.counter(prefix + "queue.peak_depth").set(peak_depth_);
  registry.counter(prefix + "queue.heapify_cost").set(heapify_cost_);

  registry.counter(prefix + "dispatch.stride").set(config_.sample_stride);
  registry.counter(prefix + "dispatch.sampled").set(sampled_);
  registry.counter(prefix + "dispatch.sampled_ns").set(sampled_ns_);
  if (sampled_ > 0) {
    registry.gauge(prefix + "dispatch.est_ns_per_event")
        .set(static_cast<double>(sampled_ns_) / static_cast<double>(sampled_));
  }
  for (const auto& [scope, tally] : by_scope_) {
    const std::string where = scope < 0 ? "shared" : "node" + std::to_string(scope);
    registry.counter(prefix + "dispatch." + where + ".samples").set(tally.first);
    registry.counter(prefix + "dispatch." + where + ".ns").set(tally.second);
  }

  const prof::AllocStats delta = alloc_delta();
  registry.counter(prefix + "alloc.allocs").set(delta.allocs);
  registry.counter(prefix + "alloc.frees").set(delta.frees);
  registry.counter(prefix + "alloc.bytes_allocated").set(delta.bytes_allocated);
  registry.counter(prefix + "alloc.bytes_freed").set(delta.bytes_freed);
  registry.counter(prefix + "alloc.queue_growths").set(queue_growths_);
  registry.counter(prefix + "alloc.dispatch_allocs").set(dispatch_allocs_);
  registry.counter(prefix + "alloc.dispatch_growth_allocs").set(dispatch_growth_allocs_);
  registry.gauge(prefix + "alloc.allocs_per_event").set(allocs_per_event());

  registry.counter(prefix + "host.run_ns").set(run_ns_);
  registry.counter(prefix + "host.events").set(dispatched_);
  registry.gauge(prefix + "host.events_per_sec").set(events_per_sec());

  registry.counter(prefix + "trace.slices").set(slices_.size());
  registry.counter(prefix + "trace.slices_dropped").set(slices_dropped_);
}

void Profiler::reset() {
  const bool was_attached = attached_;
  posts_ = pops_ = requeues_ = 0;
  peak_depth_ = 0;
  heapify_cost_ = 0;
  dispatch_tick_ = sampled_ = sampled_ns_ = 0;
  by_scope_.clear();
  run_ns_ = dispatched_ = run_begin_events_ = 0;
  in_run_ = in_sample_ = false;
  slices_.clear();
  slices_dropped_ = 0;
  queue_growths_ = dispatch_allocs_ = dispatch_growth_allocs_ = alloc_events_ = 0;
  event_allocs_at_begin_ = 0;
  in_event_ = false;
  alloc_accum_ = prof::AllocStats{};
  epoch_ns_ = host_now_ns();
  if (was_attached) alloc_baseline_ = prof::alloc_stats();
}

}  // namespace fabsim
