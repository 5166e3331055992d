#include "hw/memory.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

namespace fabsim::hw {

Buffer::Buffer(std::uint64_t addr, std::uint64_t size, bool with_data)
    : addr_(addr), size_(size) {
  if (!with_data || size == 0) return;  // size-only: has_data() stays false
  data_.reset(static_cast<std::byte*>(std::calloc(size, 1)));
  if (data_ == nullptr) throw std::bad_alloc();
}

Buffer& AddressSpace::alloc(std::uint64_t size, bool with_data) {
  const std::uint64_t addr = next_addr_;
  // Page-align the next allocation so distinct buffers never share a page
  // (matters for the registration-cache experiments).
  next_addr_ += ((size + 4095) / 4096 + 1) * 4096;
  auto buffer = std::make_unique<Buffer>(addr, size, with_data);
  Buffer& ref = *buffer;
  buffers_.emplace(addr, std::move(buffer));
  return ref;
}

void AddressSpace::free(const Buffer& buffer) { buffers_.erase(buffer.addr()); }

Buffer* AddressSpace::find(std::uint64_t addr) {
  auto it = buffers_.upper_bound(addr);
  if (it == buffers_.begin()) return nullptr;
  --it;
  Buffer* buffer = it->second.get();
  if (addr >= buffer->addr() + buffer->size()) return nullptr;
  return buffer;
}

void AddressSpace::write(std::uint64_t addr, std::span<const std::byte> data) {
  Buffer* buffer = find(addr);
  if (buffer == nullptr || addr + data.size() > buffer->addr() + buffer->size()) {
    // HOT-OK(misuse guard; unreachable in a conforming run)
    throw std::out_of_range("AddressSpace::write outside any buffer");
  }
  if (buffer->has_data() && !data.empty()) {
    std::memcpy(buffer->bytes().data() + (addr - buffer->addr()), data.data(), data.size());
  }
}

std::span<std::byte> AddressSpace::window(std::uint64_t addr, std::uint64_t len) {
  Buffer* buffer = find(addr);
  if (buffer == nullptr || addr + len > buffer->addr() + buffer->size()) {
    // HOT-OK(misuse guard; unreachable in a conforming run)
    throw std::out_of_range("AddressSpace::window outside any buffer");
  }
  if (!buffer->has_data()) {
    // HOT-OK(misuse guard; unreachable in a conforming run)
    throw std::logic_error("AddressSpace::window on a size-only buffer");
  }
  return buffer->bytes().subspan(addr - buffer->addr(), len);
}

std::shared_ptr<std::vector<std::byte>> AddressSpace::snapshot(std::uint64_t addr,
                                                              std::uint64_t len) {
  Buffer* buffer = find(addr);
  if (buffer == nullptr || addr + len > buffer->addr() + buffer->size()) {
    // HOT-OK(protocol-violation guard; unreachable in a conforming run)
    throw std::out_of_range("AddressSpace::snapshot outside any buffer");
  }
  if (!buffer->has_data()) return nullptr;
  const auto first = buffer->bytes().begin() + static_cast<std::ptrdiff_t>(addr - buffer->addr());
  // HOT-OK(per-message wire payload snapshot; stack-level state outside the engine's tracked zero-alloc contract)
  return std::make_shared<std::vector<std::byte>>(first, first + static_cast<std::ptrdiff_t>(len));
}

MemoryRegistry::Key MemoryRegistry::register_region(std::uint64_t addr, std::uint64_t len) {
  const Key key = next_key_++;
  regions_.emplace(key, Region{key, addr, len});
  return key;
}

void MemoryRegistry::deregister(Key key) {
  if (regions_.erase(key) == 0) {
    throw std::invalid_argument("MemoryRegistry::deregister: unknown key");
  }
}

const MemoryRegistry::Region* MemoryRegistry::lookup(Key key) const {
  auto it = regions_.find(key);
  return it == regions_.end() ? nullptr : &it->second;
}

bool MemoryRegistry::covers(Key key, std::uint64_t addr, std::uint64_t len) const {
  const Region* region = lookup(key);
  return region != nullptr && addr >= region->addr && addr + len <= region->addr + region->len;
}

}  // namespace fabsim::hw
