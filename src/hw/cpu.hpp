// Host CPU cost model.
//
// Each MPI rank / benchmark process is bound to one CPU (the paper binds
// process affinity, §6). API calls charge their software overheads here;
// the elapsed simulated time inside a call is exactly what the paper's
// `MPI_Wtime`-based measurements see.
//
// Copies carry a cache-warmth model: a small LRU over touched pages
// decides whether a memcpy runs at cache speed or memory speed. This is
// what produces the eager-size buffer-re-use effect in Fig 6 — cycling
// through 16 distinct buffers evicts them from cache, re-using one buffer
// keeps it warm.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"

namespace fabsim::hw {

struct CpuConfig {
  /// Fixed cost of a memcpy call (call + setup).
  Time memcpy_base = ns(60);
  /// Copy bandwidth when source/target are cache-resident.
  Rate memcpy_warm_rate = Rate::mb_per_sec(4000.0);
  /// Copy bandwidth from/to DRAM (DDR2-era Xeon).
  Rate memcpy_cold_rate = Rate::mb_per_sec(1400.0);
  /// Effective cache capacity for the warmth model.
  std::uint64_t cache_bytes = 512 * 1024;
  std::uint64_t cache_page = 4096;
};

/// LRU page-residency model deciding whether a buffer is cache-warm.
class CacheModel {
 public:
  CacheModel(std::uint64_t capacity_bytes, std::uint64_t page)
      : capacity_pages_(capacity_bytes / page), page_(page) {}

  /// Touch [addr, addr+len); returns true if it was fully resident.
  bool touch(std::uint64_t addr, std::uint64_t len) {
    const std::uint64_t first = addr / page_;
    const std::uint64_t last = (addr + (len == 0 ? 0 : len - 1)) / page_;
    bool warm = true;
    for (std::uint64_t p = first; p <= last; ++p) {
      auto it = index_.find(p);
      if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
      } else {
        warm = false;
        lru_.push_front(p);
        index_[p] = lru_.begin();
        if (lru_.size() > capacity_pages_) {
          index_.erase(lru_.back());
          lru_.pop_back();
        }
      }
    }
    return warm;
  }

 private:
  std::uint64_t capacity_pages_;
  std::uint64_t page_;
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> index_;
};

class HostCpu {
 public:
  HostCpu(Engine& engine, CpuConfig config = {})
      : engine_(&engine), config_(config), cache_(config.cache_bytes, config.cache_page) {}

  /// Awaitable: consume `duration` of CPU time (serialized with other work
  /// charged to this CPU).
  Engine::SleepAwaiter compute(Time duration) {
    engine_->charge_phase(Phase::kHost, duration);
    return serve(*engine_, core_, duration);
  }

  /// Awaitable: charge a memcpy touching user buffer `addr`.
  Engine::SleepAwaiter copy(std::uint64_t addr, std::uint64_t bytes) {
    return compute(copy_cost(addr, bytes));
  }

  /// Copy cost with cache-warmth lookup (updates the cache model).
  Time copy_cost(std::uint64_t addr, std::uint64_t bytes) {
    const bool warm = cache_.touch(addr, bytes);
    const Rate rate = warm ? config_.memcpy_warm_rate : config_.memcpy_cold_rate;
    return config_.memcpy_base + rate.bytes_time(bytes);
  }

  /// Non-coroutine booking, for NIC-driven work that consumes host CPU
  /// (e.g. page pinning in the kernel). Returns the completion time.
  Time charge(Time now, Time duration) {
    engine_->charge_phase(Phase::kHost, duration);
    return core_.book(now, duration);
  }
  Time charge_copy(Time now, std::uint64_t addr, std::uint64_t bytes) {
    const Time cost = copy_cost(addr, bytes);
    engine_->charge_phase(Phase::kHost, cost);
    return core_.book(now, cost);
  }

  Time busy_time() const { return core_.busy_time(); }
  const CpuConfig& config() const { return config_; }

 private:
  Engine* engine_;
  CpuConfig config_;
  SerialServer core_;
  CacheModel cache_;
};

}  // namespace fabsim::hw
