#include "sim/engine.hpp"

#include <stdexcept>
#include <string>

#include "check/audits.hpp"
#include "check/invariant.hpp"

namespace fabsim {

namespace detail {

void Driver::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) const noexcept {
  Engine* engine = h.promise().engine;
  engine->drivers_.erase(h.address());
  engine->daemons_.erase(h.address());
  h.destroy();
}

}  // namespace detail

FABSIM_COLD void sim::EventKey::overflow(std::uint64_t seq, std::uint32_t slot) {
  throw std::length_error("event queue key overflow: seq " + std::to_string(seq) + " (limit " +
                          std::to_string(kSeqLimit) + "), slot " + std::to_string(slot) +
                          " (limit " + std::to_string(kSlotLimit) + ")");
}

Engine::~Engine() {
  // Destroy any still-suspended processes. Driver frames own their Task
  // parameter, whose destructor recursively destroys child frames.
  // Hash order is fine here: this runs after the event loop, so nothing
  // it does can reach the run digest or any simulated state.
  for (void* address : drivers_) {  // NOLINT(unordered-iteration)
    std::coroutine_handle<>::from_address(address).destroy();
  }
  // Dying with a profiler attached closes its allocation window, so the
  // profiler keeps this engine's tally and counts no later engine's.
  if (profiler_ != nullptr) profiler_->on_detach();
}

void Engine::set_profiler(Profiler* profiler) {
  if (profiler_ != nullptr) profiler_->on_detach();
  profiler_ = profiler;
  if (profiler_ != nullptr) profiler_->on_attach();
}

FABSIM_COLD void Engine::report_past_post(Time at) {
  std::string detail = "event posted into the past: at " + std::to_string(to_us(at)) +
                       "us < now " + std::to_string(to_us(now_)) + "us";
  if (monitor_ == nullptr) throw std::logic_error(detail);
  monitor_->report(now_, check::Layer::kSim, -1, "time_monotone", std::move(detail));
}

void Engine::post_resume(Time at, std::coroutine_handle<> h) {
  post(at, [h] { h.resume(); });
}

detail::Driver Engine::drive(Engine* engine, Task<> task,
                             std::shared_ptr<detail::ProcessState> state) {
  try {
    co_await std::move(task);
  } catch (...) {
    engine->note_exception(std::current_exception());
  }
  state->done = true;
  for (std::coroutine_handle<> joiner : state->joiners) {
    engine->post_resume(engine->now(), joiner);
  }
  state->joiners.clear();
}

Process Engine::spawn_impl(Task<> task, bool daemon) {
  auto state = std::make_shared<detail::ProcessState>();
  detail::Driver driver = drive(this, std::move(task), state);
  driver.handle.promise().engine = this;
  drivers_.insert(driver.handle.address());
  if (daemon) daemons_.insert(driver.handle.address());
  driver.handle.resume();  // run to first suspension point
  check_exception();
  return Process{std::move(state)};
}

Process Engine::spawn(Task<> task) { return spawn_impl(std::move(task), /*daemon=*/false); }

Process Engine::spawn_daemon(Task<> task) { return spawn_impl(std::move(task), /*daemon=*/true); }

void Engine::check_exception() {
  if (pending_exception_) {
    std::exception_ptr e = std::exchange(pending_exception_, nullptr);
    std::rethrow_exception(e);
  }
}

void Engine::account_event(Time at, std::uint64_t seq) {
  now_ = at;
  ++events_processed_;
  // FNV-1a over (at, seq): a cheap, order-sensitive fingerprint of the
  // full event schedule. Any nondeterminism — iteration over pointer-
  // keyed containers, uninitialized padding, wall-clock leakage — shows
  // up as a digest mismatch between repeated runs.
  digest_mix(static_cast<std::uint64_t>(at));
  digest_mix(seq);
}

void Engine::on_drain() {
  if (monitor_ == nullptr) return;
  check::audit_quiescence(drivers_.size(), daemons_.size())
      .report(monitor_, now_, check::Layer::kSim, -1);
  monitor_->run_final_checks();
}

FABSIM_HOT Engine::EventQueue::Key Engine::pop_next() {
  if (policy_ == nullptr) {
    if (profiler_ != nullptr) profiler_->on_dequeue(queue_.size());
    return queue_.pop_key();
  }
  // Materialize the co-enabled set: the key of every queued event
  // sharing the head timestamp. The heap yields them in ascending seq
  // order, so index 0 is the default insertion-order pick. ready_/view_
  // are members whose capacity persists across calls.
  const Time head = queue_.top().at;
  ready_.clear();
  while (!queue_.empty() && queue_.top().at == head) {
    if (profiler_ != nullptr) profiler_->on_dequeue(queue_.size());
    // HOT-OK(policy materialization scratch; member capacity reused across calls)
    ready_.push_back(queue_.pop_key());
  }
  std::size_t pick = 0;
  if (ready_.size() > 1) {
    view_.clear();
    for (const EventQueue::Key& key : ready_) {
      // HOT-OK(policy materialization scratch; member capacity reused across calls)
      view_.push_back(ReadyEvent{key.at, key.seq(), queue_.slot(key.slot()).scope});
    }
    pick = policy_->choose(view_);
    if (pick >= ready_.size()) pick = 0;  // defensive: contract says < size
  }
  // The heap just held every one of these keys, so pushing the others
  // back cannot grow it.
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    if (i == pick) continue;
    queue_.push_key(ready_[i]);
    if (profiler_ != nullptr) profiler_->on_requeue(queue_.size());
  }
  return ready_[pick];
}

// One loop iteration. The callback runs in place from its slab slot,
// with or without a SchedulePolicy: the slot is address-stable across
// any posts the callback makes and is only destroyed + recycled
// afterwards, so the pop side of dispatch moves zero payload bytes.
void Engine::step() {
  const EventQueue::Key key = pop_next();
  account_event(key.at, key.seq());
  EventQueue::Slot& slot = queue_.slot(key.slot());
  dispatch(slot.scope, slot.fn);
  queue_.release(key.slot());
  check_exception();
}

void Engine::run() {
  if (profiler_ != nullptr) profiler_->on_run_begin(events_processed_);
  while (!queue_.empty()) step();
  if (profiler_ != nullptr) profiler_->on_run_end(events_processed_);
  on_drain();
}

void Engine::run_until(Time t) {
  if (profiler_ != nullptr) profiler_->on_run_begin(events_processed_);
  while (!queue_.empty() && queue_.top().at <= t) step();
  if (profiler_ != nullptr) profiler_->on_run_end(events_processed_);
  if (t > now_) now_ = t;
}

}  // namespace fabsim
