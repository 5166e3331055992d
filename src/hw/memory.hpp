// Host memory: fake address space with optional real backing bytes, and a
// page-granular registration (pinning) model.
//
// Buffers may carry real bytes (tests verify zero-copy placement end to
// end) or be size-only (benchmarks avoid megabytes of memcpy per
// simulated message). Registration cost — the dominant term of the
// paper's buffer-re-use experiment (Fig 6) — is exposed so callers charge
// it to the host CPU at registration time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/time.hpp"

namespace fabsim::hw {

/// A buffer's bytes read as zero until written, but host work on them is
/// paid only for the pages the simulation touches: the bytes come from
/// malloc, and each 4 KB page (counted from the buffer's start) is zeroed
/// the first time any accessor covers it. A large buffer the simulation
/// barely touches, such as an MPI eager ring of which each message uses
/// one slot, then costs only the pages it uses. Ask for a range rather
/// than bytes(), which zeroes the whole buffer. The const accessors zero
/// too, through mutable state: a Buffer is confined to one engine's
/// thread like the rest of its node.
class Buffer {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  Buffer(std::uint64_t addr, std::uint64_t size, bool with_data);

  std::uint64_t addr() const { return addr_; }
  std::uint64_t size() const { return size_; }
  bool has_data() const { return data_ != nullptr; }
  /// Every byte; empty for a size-only buffer.
  std::span<std::byte> bytes() { return has_data() ? range(0, size_) : std::span<std::byte>{}; }
  std::span<const std::byte> bytes() const {
    return has_data() ? range(0, size_) : std::span<const std::byte>{};
  }
  /// Bytes [offset, offset+len) of a data-carrying buffer. Throws
  /// std::out_of_range past the end, std::logic_error on a size-only one.
  std::span<std::byte> range(std::uint64_t offset, std::uint64_t len);
  std::span<const std::byte> range(std::uint64_t offset, std::uint64_t len) const;

 private:
  struct FreeBytes {
    void operator()(std::byte* bytes) const { std::free(bytes); }
  };

  /// Zero the pages of [offset, offset+len) no accessor has covered yet.
  void touch(std::uint64_t offset, std::uint64_t len) const;

  std::uint64_t addr_;
  std::uint64_t size_;
  std::unique_ptr<std::byte[], FreeBytes> data_;
  mutable std::vector<std::uint64_t> touched_;  ///< one bit per page, set once zeroed
};

/// Per-node virtual address space: a bump allocator over fake addresses,
/// so its buffers stay sorted by address for placement lookups.
class AddressSpace {
 public:
  /// Allocate a buffer. `with_data` buffers carry real bytes.
  Buffer& alloc(std::uint64_t size, bool with_data = true);
  void free(const Buffer& buffer);

  /// Buffer containing `addr`, or nullptr.
  Buffer* find(std::uint64_t addr);

  /// Copy `data` into the buffer covering [addr, addr+size). Size-only
  /// target buffers accept the write without storing bytes.
  void write(std::uint64_t addr, std::span<const std::byte> data);

  /// View of [addr, addr+len) — requires a data-carrying buffer.
  std::span<std::byte> window(std::uint64_t addr, std::uint64_t len);

  /// Copy of [addr, addr+len) to carry as a wire payload: null when the
  /// covering buffer is size-only. Throws std::out_of_range when the
  /// range lies outside any buffer.
  std::shared_ptr<const std::vector<std::byte>> snapshot(std::uint64_t addr, std::uint64_t len);

 private:
  /// The buffer covering all of [addr, addr+len); throws std::out_of_range
  /// naming `what` otherwise.
  Buffer& covering(std::uint64_t addr, std::uint64_t len, const char* what);

  std::uint64_t next_addr_ = 0x1000;
  std::vector<std::unique_ptr<Buffer>> buffers_;  ///< ascending start address
};

struct RegistrationConfig {
  Time register_base = us(1.0);     ///< syscall + setup
  Time register_per_page = us(1.0); ///< pin + translation entry, per 4 KB page
  Time deregister_base = us(0.5);
  Time deregister_per_page = us(0.2);
  std::uint64_t page_size = 4096;
};

/// Memory region registry of one NIC. Registration is bookkeeping only;
/// the caller charges `register_cost()` to the host CPU.
class MemoryRegistry {
 public:
  using Key = std::uint32_t;

  explicit MemoryRegistry(RegistrationConfig config = {}) : config_(config) {}

  struct Region {
    Key key;  ///< 0 once deregistered
    std::uint64_t addr;
    std::uint64_t len;
  };

  Key register_region(std::uint64_t addr, std::uint64_t len);
  void deregister(Key key);

  const Region* lookup(Key key) const;
  /// True iff [addr, addr+len) lies inside the registered region `key`.
  bool covers(Key key, std::uint64_t addr, std::uint64_t len) const;

  std::uint64_t pages(std::uint64_t len) const {
    return (len + config_.page_size - 1) / config_.page_size;
  }
  Time register_cost(std::uint64_t len) const {
    return config_.register_base + config_.register_per_page * pages(len);
  }
  Time deregister_cost(std::uint64_t len) const {
    return config_.deregister_base + config_.deregister_per_page * pages(len);
  }

  const RegistrationConfig& config() const { return config_; }

 private:
  RegistrationConfig config_;
  /// Keys are handed out in sequence, so key k lives at regions_[k - 1].
  std::vector<Region> regions_;
};

}  // namespace fabsim::hw
