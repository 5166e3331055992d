#include "hw/memory.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

namespace fabsim::hw {

Buffer::Buffer(std::uint64_t addr, std::uint64_t size, bool with_data)
    : addr_(addr), size_(size) {
  if (!with_data || size == 0) return;  // size-only: has_data() stays false
  data_.reset(static_cast<std::byte*>(std::malloc(size)));
  if (data_ == nullptr) throw std::bad_alloc();
  const std::uint64_t pages = (size + kPageSize - 1) / kPageSize;
  touched_.assign((pages + 63) / 64, 0);
}

std::span<std::byte> Buffer::range(std::uint64_t offset, std::uint64_t len) {
  touch(offset, len);
  return {data_.get() + offset, len};
}

std::span<const std::byte> Buffer::range(std::uint64_t offset, std::uint64_t len) const {
  touch(offset, len);
  return {data_.get() + offset, len};
}

void Buffer::touch(std::uint64_t offset, std::uint64_t len) const {
  if (!has_data()) {
    // HOT-OK(misuse guard; unreachable in a conforming run)
    throw std::logic_error("Buffer::range on a size-only buffer");
  }
  if (offset > size_ || len > size_ - offset) {
    // HOT-OK(misuse guard; unreachable in a conforming run)
    throw std::out_of_range("Buffer::range past the end of the buffer");
  }
  if (len == 0) return;
  for (std::uint64_t page = offset / kPageSize; page <= (offset + len - 1) / kPageSize; ++page) {
    std::uint64_t& word = touched_[page / 64];
    const std::uint64_t bit = std::uint64_t{1} << (page % 64);
    if ((word & bit) != 0) continue;
    word |= bit;
    const std::uint64_t start = page * kPageSize;
    std::memset(data_.get() + start, 0, std::min(kPageSize, size_ - start));
  }
}

Buffer& AddressSpace::alloc(std::uint64_t size, bool with_data) {
  const std::uint64_t addr = next_addr_;
  // Page-align the next allocation so distinct buffers never share a page
  // (matters for the registration-cache experiments).
  next_addr_ += ((size + 4095) / 4096 + 1) * 4096;
  buffers_.push_back(std::make_unique<Buffer>(addr, size, with_data));
  return *buffers_.back();
}

void AddressSpace::free(const Buffer& buffer) {
  auto it = std::find_if(buffers_.begin(), buffers_.end(),
                         [&](const std::unique_ptr<Buffer>& b) { return b.get() == &buffer; });
  if (it != buffers_.end()) buffers_.erase(it);
}

Buffer* AddressSpace::find(std::uint64_t addr) {
  auto it = std::upper_bound(
      buffers_.begin(), buffers_.end(), addr,
      [](std::uint64_t a, const std::unique_ptr<Buffer>& b) { return a < b->addr(); });
  if (it == buffers_.begin()) return nullptr;
  Buffer* buffer = std::prev(it)->get();
  if (addr >= buffer->addr() + buffer->size()) return nullptr;
  return buffer;
}

Buffer& AddressSpace::covering(std::uint64_t addr, std::uint64_t len, const char* what) {
  Buffer* buffer = find(addr);
  if (buffer == nullptr || addr + len > buffer->addr() + buffer->size()) {
    // HOT-OK(misuse guard; unreachable in a conforming run)
    throw std::out_of_range(std::string(what) + " outside any buffer");
  }
  return *buffer;
}

void AddressSpace::write(std::uint64_t addr, std::span<const std::byte> data) {
  Buffer& buffer = covering(addr, data.size(), "AddressSpace::write");
  if (buffer.has_data() && !data.empty()) {
    std::memcpy(buffer.range(addr - buffer.addr(), data.size()).data(), data.data(), data.size());
  }
}

std::span<std::byte> AddressSpace::window(std::uint64_t addr, std::uint64_t len) {
  Buffer& buffer = covering(addr, len, "AddressSpace::window");
  return buffer.range(addr - buffer.addr(), len);
}

std::shared_ptr<const std::vector<std::byte>> AddressSpace::snapshot(std::uint64_t addr,
                                                                    std::uint64_t len) {
  Buffer& buffer = covering(addr, len, "AddressSpace::snapshot");
  if (!buffer.has_data()) return nullptr;
  const auto bytes = buffer.range(addr - buffer.addr(), len);
  // HOT-OK(per-message wire payload snapshot; stack-level state outside the engine's tracked zero-alloc contract)
  return std::make_shared<const std::vector<std::byte>>(bytes.begin(), bytes.end());
}

MemoryRegistry::Key MemoryRegistry::register_region(std::uint64_t addr, std::uint64_t len) {
  const Key key = static_cast<Key>(regions_.size() + 1);
  regions_.push_back(Region{key, addr, len});
  return key;
}

void MemoryRegistry::deregister(Key key) {
  if (lookup(key) == nullptr) {
    throw std::invalid_argument("MemoryRegistry::deregister: unknown key");
  }
  regions_[key - 1].key = 0;  // tombstone: keys are never reused
}

const MemoryRegistry::Region* MemoryRegistry::lookup(Key key) const {
  if (key == 0 || key > regions_.size()) return nullptr;
  const Region& region = regions_[key - 1];
  return region.key == key ? &region : nullptr;
}

bool MemoryRegistry::covers(Key key, std::uint64_t addr, std::uint64_t len) const {
  const Region* region = lookup(key);
  return region != nullptr && addr >= region->addr && addr + len <= region->addr + region->len;
}

}  // namespace fabsim::hw
