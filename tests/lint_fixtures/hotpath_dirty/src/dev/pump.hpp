#pragma once
// hotpath_check self-test fixture: the dirty tree. Engine::dispatch
// commits one violation per rule (plus one inside a post() lambda and a
// dormant mutation seam for the --mutation polarity case); the
// self-test asserts every tag fires. Nic's continuation reaches one
// violation through a method it inherits from Device, so the finding
// disappears if the walk stops following base classes, and another
// through its member of a class template, Window<int>, so it disappears
// if the walk resolves the template argument instead of the template.

namespace fixdev {

class Engine {
 public:
  void dispatch(int ev);

 private:
  char* buf_ = nullptr;
  int ctr_ = 0;
  bool armed_ = true;
};

class Device {
 protected:
  void place(int chunk);

 private:
  char* staging_ = nullptr;
};

template <typename Unit>
class Window {
 public:
  void hold(Unit unit) { held_.push_back(unit); }  // -> hot_growth, reached only via Nic

 private:
  std::deque<Unit> held_;
};

class Nic final : public Device {
 public:
  void deliver(int chunk);

 private:
  Engine* engine_ = nullptr;
  Window<int> window_;
};

}  // namespace fixdev
