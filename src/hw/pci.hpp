// Host I/O bus models.
//
// PcieBus: full duplex — independent serializers per direction, with a
// per-transaction setup latency and a payload efficiency factor (TLP
// headers). PcixBus: a single half-duplex serializer shared by both
// directions — this is the NetEffect NE010e's internal 64-bit/133 MHz
// PCI-X bus, the bandwidth bottleneck the paper calls out (1064 MB/s raw,
// shared between send and receive DMA).
#pragma once

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"

namespace fabsim::hw {

struct PciConfig {
  Rate rate;                ///< effective payload bandwidth per direction
  Time transaction = 0;     ///< fixed latency per DMA transaction
};

/// Full-duplex host bus (PCI Express).
class PcieBus {
 public:
  explicit PcieBus(PciConfig config) : config_(config) {}

  /// Attribute future DMA time to the engine's NIC phase (FabricScope).
  void set_owner(Engine* engine) { engine_ = engine; }

  /// DMA read by the device from host memory (descriptor/data fetch).
  /// Returns completion time of the full transfer.
  Time dma_read(Time now, std::uint64_t bytes) {
    bytes_read_ += bytes;
    return dma(to_device_, now, bytes);
  }

  /// DMA write by the device into host memory (data delivery, completions).
  Time dma_write(Time now, std::uint64_t bytes) {
    bytes_written_ += bytes;
    return dma(from_device_, now, bytes);
  }

  /// CPU-initiated posted write to the device (doorbell). Cheap and does
  /// not occupy the DMA serializers.
  Time doorbell(Time now) const { return now + config_.transaction; }

  const PciConfig& config() const { return config_; }
  Time read_busy_time() const { return to_device_.busy_time(); }
  Time write_busy_time() const { return from_device_.busy_time(); }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  Time dma(SerialServer& dir, Time now, std::uint64_t bytes) {
    const Time cost = config_.transaction + config_.rate.bytes_time(bytes);
    if (engine_ != nullptr) engine_->charge_phase(Phase::kNic, cost);
    return dir.book(now, cost);
  }

  PciConfig config_;
  SerialServer to_device_;
  SerialServer from_device_;
  Engine* engine_ = nullptr;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
};

/// Half-duplex shared bus (PCI-X): both directions contend for one
/// serializer.
class PcixBus {
 public:
  explicit PcixBus(PciConfig config) : config_(config) {}

  /// Attribute future transfer time to the engine's NIC phase.
  void set_owner(Engine* engine) { engine_ = engine; }

  Time transfer(Time now, std::uint64_t bytes) {
    bytes_transferred_ += bytes;
    const Time cost = config_.transaction + config_.rate.bytes_time(bytes);
    if (engine_ != nullptr) engine_->charge_phase(Phase::kNic, cost);
    return bus_.book(now, cost);
  }

  const PciConfig& config() const { return config_; }
  Time busy_time() const { return bus_.busy_time(); }
  std::uint64_t bytes_transferred() const { return bytes_transferred_; }

 private:
  PciConfig config_;
  SerialServer bus_;
  Engine* engine_ = nullptr;
  std::uint64_t bytes_transferred_ = 0;
};

}  // namespace fabsim::hw
