// Unit tests for the hardware models: fabric, PCI buses, CPU cost model,
// address space, and memory registration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/fabric.hpp"
#include "hw/memory.hpp"
#include "hw/node.hpp"
#include "hw/pci.hpp"
#include "sim/engine.hpp"

namespace fabsim::hw {
namespace {

class RecordingSink : public FrameSink {
 public:
  explicit RecordingSink(Engine& engine) : engine_(&engine) {}
  void deliver(Frame frame) override {
    deliveries.emplace_back(engine_->now(), std::move(frame));
  }
  std::vector<std::pair<Time, Frame>> deliveries;

 private:
  Engine* engine_;
};

SwitchConfig test_switch_config() {
  return SwitchConfig{
      .link_rate = Rate::gbit_per_sec(10.0),  // 0.8 ns/byte
      .cut_through = ns(400),
      .propagation = ns(100),
  };
}

TEST(Switch, DeliversWithCutThroughAndSerialization) {
  Engine engine;
  Switch fabric(engine, test_switch_config());
  RecordingSink a(engine), b(engine);
  const int pa = fabric.attach(a);
  const int pb = fabric.attach(b);
  ASSERT_EQ(pa, 0);
  ASSERT_EQ(pb, 1);

  engine.post(0, [&] { fabric.ingress(Frame{pa, pb, 1000, {}}); });
  engine.run();

  ASSERT_EQ(b.deliveries.size(), 1u);
  // prop(100) + cut-through(400) + serialization(800) + prop(100)
  EXPECT_EQ(b.deliveries[0].first, ns(1400));
  EXPECT_TRUE(a.deliveries.empty());
}

TEST(Switch, OutputPortIsTheContentionPoint) {
  Engine engine;
  Switch fabric(engine, test_switch_config());
  RecordingSink a(engine), b(engine), c(engine);
  const int pa = fabric.attach(a);
  const int pb = fabric.attach(b);
  const int pc = fabric.attach(c);

  // Two sources send to the same destination at t=0: second frame queues
  // behind the first on the output port.
  engine.post(0, [&] {
    fabric.ingress(Frame{pa, pc, 1000, {}});
    fabric.ingress(Frame{pb, pc, 1000, {}});
  });
  engine.run();

  ASSERT_EQ(c.deliveries.size(), 2u);
  EXPECT_EQ(c.deliveries[0].first, ns(1400));
  EXPECT_EQ(c.deliveries[1].first, ns(2200));  // +800ns serialization
}

TEST(Switch, DistinctDestinationsDoNotContend) {
  Engine engine;
  Switch fabric(engine, test_switch_config());
  RecordingSink a(engine), b(engine), c(engine);
  const int pa = fabric.attach(a);
  const int pb = fabric.attach(b);
  const int pc = fabric.attach(c);

  engine.post(0, [&] {
    fabric.ingress(Frame{pa, pb, 1000, {}});
    fabric.ingress(Frame{pc, pa, 1000, {}});
  });
  engine.run();

  ASSERT_EQ(b.deliveries.size(), 1u);
  ASSERT_EQ(a.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries[0].first, ns(1400));
  EXPECT_EQ(a.deliveries[0].first, ns(1400));
}

TEST(Switch, TailDropsExactlyWhenBufferExceeded) {
  // Three 1000 B frames hit one output port at t=0. With a 2000 B buffer
  // the first serializes immediately, the second fills the buffer to the
  // byte (2000 == 2000 is NOT over), and the third overflows it.
  SwitchConfig config = test_switch_config();
  config.max_queue_bytes = 2000;
  Engine engine;
  Switch fabric(engine, config);
  RecordingSink a(engine), b(engine), c(engine), d(engine);
  const int pa = fabric.attach(a);
  const int pb = fabric.attach(b);
  const int pc = fabric.attach(c);
  const int pd = fabric.attach(d);

  engine.post(0, [&] {
    fabric.ingress(Frame{pa, pd, 1000, {}});
    fabric.ingress(Frame{pb, pd, 1000, {}});
    fabric.ingress(Frame{pc, pd, 1000, {}});
  });
  engine.run();

  ASSERT_EQ(d.deliveries.size(), 2u) << "frame at the exact boundary must be delivered";
  EXPECT_EQ(d.deliveries[0].first, ns(1400));
  EXPECT_EQ(d.deliveries[1].first, ns(2200));
  EXPECT_EQ(fabric.output_drops(pd), 1u);
}

TEST(Switch, TailDropsOneByteOverTheBoundary) {
  // Same arrival pattern, buffer one byte smaller: the second frame's
  // 2000 B of (backlog + frame) now exceeds 1999 and it is dropped too.
  SwitchConfig config = test_switch_config();
  config.max_queue_bytes = 1999;
  Engine engine;
  Switch fabric(engine, config);
  RecordingSink a(engine), b(engine), c(engine);
  const int pa = fabric.attach(a);
  const int pb = fabric.attach(b);
  const int pc = fabric.attach(c);

  engine.post(0, [&] {
    fabric.ingress(Frame{pa, pc, 1000, {}});
    fabric.ingress(Frame{pb, pc, 1000, {}});
  });
  engine.run();

  ASSERT_EQ(c.deliveries.size(), 1u);
  EXPECT_EQ(c.deliveries[0].first, ns(1400));
  EXPECT_EQ(fabric.output_drops(pc), 1u);
}

TEST(PcieBus, DirectionsAreIndependent) {
  PcieBus bus(PciConfig{Rate::mb_per_sec(2000.0), ns(250)});
  // 2000 MB/s => 0.5 ns/byte; 1 MB => 500 us.
  const Time r = bus.dma_read(0, 1'000'000);
  const Time w = bus.dma_write(0, 1'000'000);
  EXPECT_EQ(r, ns(250) + us(500));
  EXPECT_EQ(w, ns(250) + us(500));  // not queued behind the read
  const Time r2 = bus.dma_read(0, 1'000'000);
  EXPECT_EQ(r2, 2 * (ns(250) + us(500)));  // queued behind first read
}

TEST(PcixBus, HalfDuplexSharesOneServer) {
  PcixBus bus(PciConfig{Rate::mb_per_sec(1000.0), 0});
  const Time a = bus.transfer(0, 1'000'000);  // 1 ms
  const Time b = bus.transfer(0, 1'000'000);
  EXPECT_EQ(a, ms(1));
  EXPECT_EQ(b, ms(2));  // both directions contend
}

TEST(HostCpu, ComputeSerializes) {
  Engine engine;
  HostCpu cpu(engine);
  std::vector<Time> done;
  for (int i = 0; i < 2; ++i) {
    engine.spawn([](HostCpu& c, std::vector<Time>& d, Engine& e) -> Task<> {
      co_await c.compute(us(4));
      d.push_back(e.now());
    }(cpu, done, engine));
  }
  engine.run();
  EXPECT_EQ(done, (std::vector<Time>{us(4), us(8)}));
}

TEST(HostCpu, CopyCostScalesWithSizeAndWarmth) {
  Engine engine;
  CpuConfig config;
  config.memcpy_base = ns(60);
  config.memcpy_warm_rate = Rate::mb_per_sec(4000.0);
  config.memcpy_cold_rate = Rate::mb_per_sec(1000.0);
  config.cache_bytes = 64 * 1024;
  HostCpu cpu(engine, config);
  // First touch is cold: 1000 MB/s => 1 ns/byte.
  EXPECT_EQ(cpu.copy_cost(0x10000, 4000), ns(60) + ns(4000));
  // Second touch of the same buffer is warm: 4000 MB/s => 0.25 ns/byte.
  EXPECT_EQ(cpu.copy_cost(0x10000, 4000), ns(60) + ns(1000));
}

TEST(HostCpu, CacheEvictionMakesBuffersColdAgain) {
  Engine engine;
  CpuConfig config;
  config.cache_bytes = 16 * 4096;  // 16 pages
  HostCpu cpu(engine, config);
  const Time cold = cpu.copy_cost(0x100000, 4096);
  const Time warm = cpu.copy_cost(0x100000, 4096);
  EXPECT_LT(warm, cold);
  // Sweep 32 other pages to evict it.
  for (int i = 0; i < 32; ++i) cpu.copy_cost(0x200000 + 4096ull * i, 4096);
  EXPECT_EQ(cpu.copy_cost(0x100000, 4096), cold);
}

TEST(HostCpu, ChargeBooksSerially) {
  Engine engine;
  HostCpu cpu(engine);
  EXPECT_EQ(cpu.charge(us(1), us(2)), us(3));
  EXPECT_EQ(cpu.charge(us(1), us(2)), us(5));
}

TEST(AddressSpace, AllocWriteWindowRoundTrip) {
  AddressSpace mem;
  Buffer& buffer = mem.alloc(256);
  const std::uint64_t addr = buffer.addr();

  std::vector<std::byte> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::byte>(i * 3);
  mem.write(addr + 16, payload);

  auto view = mem.window(addr + 16, 64);
  EXPECT_EQ(std::memcmp(view.data(), payload.data(), payload.size()), 0);
}

TEST(AddressSpace, BuffersDoNotSharePages) {
  AddressSpace mem;
  Buffer& a = mem.alloc(100);
  Buffer& b = mem.alloc(100);
  EXPECT_NE(a.addr() / 4096, b.addr() / 4096);
}

TEST(AddressSpace, OutOfBoundsWriteThrows) {
  AddressSpace mem;
  Buffer& buffer = mem.alloc(32);
  std::vector<std::byte> payload(64);
  EXPECT_THROW(mem.write(buffer.addr(), payload), std::out_of_range);
  EXPECT_THROW(mem.write(0xdeadbeef, payload), std::out_of_range);
}

TEST(AddressSpace, SizeOnlyBufferAcceptsWrites) {
  AddressSpace mem;
  Buffer& buffer = mem.alloc(1 << 20, /*with_data=*/false);
  std::vector<std::byte> payload(4096);
  mem.write(buffer.addr(), payload);  // no throw, no storage
  EXPECT_FALSE(buffer.has_data());
  EXPECT_TRUE(buffer.bytes().empty());
  EXPECT_TRUE(std::as_const(buffer).bytes().empty());
  EXPECT_THROW(buffer.range(0, 16), std::logic_error);
  EXPECT_THROW(mem.window(buffer.addr(), 16), std::logic_error);
  EXPECT_EQ(mem.snapshot(buffer.addr(), 16), nullptr);
}

TEST(AddressSpace, FindByInteriorAddress) {
  AddressSpace mem;
  Buffer& buffer = mem.alloc(4096);
  EXPECT_EQ(mem.find(buffer.addr() + 4095), &buffer);
  EXPECT_EQ(mem.find(buffer.addr() + 4096), nullptr);
}

TEST(AddressSpace, FindReturnsNullForFreedBuffer) {
  AddressSpace mem;
  Buffer& a = mem.alloc(100);
  Buffer& b = mem.alloc(5000);
  Buffer& c = mem.alloc(100);
  const std::uint64_t b_addr = b.addr();
  mem.free(b);
  EXPECT_EQ(mem.find(b_addr), nullptr);
  EXPECT_EQ(mem.find(b_addr + 4999), nullptr);
  EXPECT_THROW(mem.window(b_addr, 16), std::out_of_range);
  EXPECT_EQ(mem.find(a.addr() + 99), &a);
  EXPECT_EQ(mem.find(c.addr()), &c);
  Buffer& d = mem.alloc(100);
  EXPECT_GT(d.addr(), c.addr()) << "addresses are never reused";
  EXPECT_EQ(mem.find(d.addr()), &d);
}

/// A data buffer of `size` bytes whose heap block most likely held 0xA5
/// bytes a moment ago: lazily zeroed pages must not show them.
Buffer& recycled(AddressSpace& mem, std::uint64_t size) {
  Buffer& dirty = mem.alloc(size);
  std::memset(dirty.bytes().data(), 0xA5, size);
  mem.free(dirty);
  return mem.alloc(size);
}

bool all_zero(std::span<const std::byte> bytes) {
  return std::all_of(bytes.begin(), bytes.end(), [](std::byte b) { return b == std::byte{0}; });
}

TEST(Buffer, UntouchedBytesReadZeroThroughEveryAccessor) {
  // Three whole pages and a partial fourth.
  constexpr std::uint64_t kSize = 3 * Buffer::kPageSize + 100;
  AddressSpace mem;
  {
    Buffer& buf = recycled(mem, kSize);  // straddles the page 0/1 boundary
    EXPECT_TRUE(all_zero(mem.window(buf.addr() + Buffer::kPageSize - 8, 16)));
  }
  {
    Buffer& buf = recycled(mem, kSize);  // the last, partial page
    EXPECT_TRUE(all_zero(std::as_const(buf).range(3 * Buffer::kPageSize, 100)));
    EXPECT_THROW(buf.range(3 * Buffer::kPageSize, 101), std::out_of_range);
  }
  {
    Buffer& buf = recycled(mem, kSize);
    const auto copy = mem.snapshot(buf.addr() + 2 * Buffer::kPageSize - 30, 60);
    ASSERT_NE(copy, nullptr);
    EXPECT_TRUE(all_zero(*copy));
  }
  {
    Buffer& buf = recycled(mem, kSize);
    // A partial write into an untouched page leaves the rest of it zero.
    const std::vector<std::byte> ones(16, std::byte{0xFF});
    mem.write(buf.addr() + Buffer::kPageSize + 100, ones);
    const auto page = buf.range(Buffer::kPageSize, Buffer::kPageSize);
    EXPECT_TRUE(all_zero(page.first(100)));
    EXPECT_TRUE(std::equal(ones.begin(), ones.end(), page.begin() + 100));
    EXPECT_TRUE(all_zero(page.subspan(116)));
    // The whole buffer, through the const accessor, is zero apart from it.
    const auto whole = std::as_const(buf).bytes();
    ASSERT_EQ(whole.size(), kSize);
    EXPECT_TRUE(all_zero(whole.first(Buffer::kPageSize + 100)));
    EXPECT_TRUE(all_zero(whole.subspan(Buffer::kPageSize + 116)));
  }
  {
    Buffer& buf = recycled(mem, kSize);
    EXPECT_TRUE(all_zero(buf.bytes()));
  }
}

TEST(AddressSpace, DataBuffersStartZeroed) {
  // A small buffer is recycled from the allocator's free lists and a
  // large one comes straight from the kernel; both must read as zeros
  // even when the previous buffer of that size was filled.
  for (const std::uint64_t size : {std::uint64_t{4096}, std::uint64_t{8} << 20}) {
    AddressSpace mem;
    Buffer& dirty = mem.alloc(size);
    std::memset(dirty.bytes().data(), 0xA5, dirty.bytes().size());
    mem.free(dirty);
    Buffer& fresh = mem.alloc(size);
    ASSERT_TRUE(fresh.has_data());
    ASSERT_EQ(fresh.bytes().size(), size);
    const auto nonzero = std::find_if(fresh.bytes().begin(), fresh.bytes().end(),
                                      [](std::byte b) { return b != std::byte{0}; });
    EXPECT_EQ(nonzero, fresh.bytes().end()) << "size " << size;
  }
}

TEST(AddressSpace, SnapshotCopiesDataAndChecksBounds) {
  AddressSpace mem;
  Buffer& buffer = mem.alloc(64);
  std::vector<std::byte> payload(16);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::byte>(i + 1);
  mem.write(buffer.addr() + 8, payload);

  auto copy = mem.snapshot(buffer.addr() + 8, 16);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(*copy, payload);
  mem.write(buffer.addr() + 8, std::vector<std::byte>(16));
  EXPECT_EQ(*copy, payload) << "a snapshot must not alias the buffer";

  EXPECT_THROW(mem.snapshot(buffer.addr() + 60, 16), std::out_of_range);
  EXPECT_THROW(mem.snapshot(0xdeadbeef, 1), std::out_of_range);
  Buffer& size_only = mem.alloc(4096, /*with_data=*/false);
  EXPECT_EQ(mem.snapshot(size_only.addr(), 4096), nullptr);
}

TEST(MemoryRegistry, RegisterLookupDeregister) {
  MemoryRegistry registry;
  const auto key = registry.register_region(0x1000, 8192);
  const auto* region = registry.lookup(key);
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->addr, 0x1000u);
  EXPECT_TRUE(registry.covers(key, 0x1000, 8192));
  EXPECT_TRUE(registry.covers(key, 0x1800, 1024));
  EXPECT_FALSE(registry.covers(key, 0x1800, 8192));
  registry.deregister(key);
  EXPECT_EQ(registry.lookup(key), nullptr);
  EXPECT_THROW(registry.deregister(key), std::invalid_argument);
}

TEST(MemoryRegistry, RejectsADeregisteredKey) {
  MemoryRegistry registry;
  const auto a = registry.register_region(0x1000, 4096);
  const auto b = registry.register_region(0x3000, 4096);
  const auto c = registry.register_region(0x5000, 4096);
  registry.deregister(b);
  EXPECT_EQ(registry.lookup(b), nullptr);
  EXPECT_FALSE(registry.covers(b, 0x3000, 16));
  EXPECT_THROW(registry.deregister(b), std::invalid_argument);
  // Its neighbours, and keys never handed out, are unaffected.
  EXPECT_TRUE(registry.covers(a, 0x1000, 4096));
  EXPECT_TRUE(registry.covers(c, 0x5000, 4096));
  EXPECT_EQ(registry.lookup(0), nullptr);
  EXPECT_EQ(registry.lookup(c + 1), nullptr);
  EXPECT_THROW(registry.deregister(c + 1), std::invalid_argument);
  // A key is never reused.
  const auto d = registry.register_region(0x3000, 4096);
  EXPECT_NE(d, b);
  EXPECT_EQ(registry.lookup(b), nullptr);
  EXPECT_TRUE(registry.covers(d, 0x3000, 16));
}

TEST(MemoryRegistry, CostModelIsPageGranular) {
  RegistrationConfig config;
  config.register_base = us(1);
  config.register_per_page = us(2);
  MemoryRegistry registry(config);
  EXPECT_EQ(registry.pages(1), 1u);
  EXPECT_EQ(registry.pages(4096), 1u);
  EXPECT_EQ(registry.pages(4097), 2u);
  EXPECT_EQ(registry.register_cost(4096), us(3));
  EXPECT_EQ(registry.register_cost(128 * 1024), us(1) + 32 * us(2));
}

TEST(Node, Assembles) {
  Engine engine;
  Node node(engine, 3, PciConfig{Rate::mb_per_sec(2000.0), ns(250)});
  EXPECT_EQ(node.id(), 3);
  Buffer& buffer = node.mem().alloc(64);
  EXPECT_EQ(node.mem().find(buffer.addr()), &buffer);
}

}  // namespace
}  // namespace fabsim::hw
