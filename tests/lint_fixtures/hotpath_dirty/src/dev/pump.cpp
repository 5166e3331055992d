#include "dev/pump.hpp"

namespace fixdev {

void Engine::dispatch(int ev) {
  buf_ = new char[64];                          // -> hot_alloc
  log_.push_back(ev);                           // -> hot_growth
  std::function<void(int)> cb;                  // -> hot_stdfunction
  auto t0 = std::chrono::steady_clock::now();   // -> hot_wallclock
  std::cout << ev;                              // -> hot_io
  FABSIM_MUTATION_HOTALLOC(armed_);             // dormant; -> mutation_hotalloc under --mutation
  queue_.post(1.0, [this] { buf_ = new char[8]; });  // -> hot_alloc in the lambda
  if (ev < 0) throw ev;                         // -> hot_throw
  ctr_ += 1;  // HOT-OK()                          -> empty_waiver (no rationale)
}

void Device::place(int chunk) {
  staging_ = new char[chunk];                   // -> hot_alloc, reached only via Nic's lambda
}

void Nic::deliver(int chunk) {
  engine_->post(1.0, [this, chunk] {
    place(chunk);         // inherited call: Device::place
    window_.hold(chunk);  // class-template member: Window::hold
  });
}

}  // namespace fixdev
