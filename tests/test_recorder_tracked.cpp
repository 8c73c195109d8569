// Tests for the memory recorder, tracked containers and region allocator.
#include <gtest/gtest.h>

#include "sim/recorder.hpp"
#include "sim/regions.hpp"
#include "sim/tracked.hpp"

namespace cms::sim {
namespace {

TEST(Recorder, GapAttachesToNextAccess) {
  MemoryRecorder rec;
  rec.compute(10);
  rec.read(0x100, 4);
  rec.compute(5);
  rec.write(0x200, 8);
  const auto trace = rec.take();
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].gap, 10u);
  EXPECT_EQ(trace.events[0].addr, 0x100u);
  EXPECT_EQ(trace.events[0].type, AccessType::kRead);
  EXPECT_EQ(trace.events[1].gap, 5u);
  EXPECT_EQ(trace.events[1].type, AccessType::kWrite);
  EXPECT_EQ(trace.compute_cycles, 15u);
  EXPECT_EQ(trace.accesses, 2u);
}

TEST(Recorder, TrailingComputeCarried) {
  MemoryRecorder rec;
  rec.read(0x100, 4);
  rec.compute(42);
  const auto trace = rec.take();
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[1].size, 0u);  // gap carrier
  EXPECT_EQ(trace.events[1].gap, 42u);
  EXPECT_EQ(trace.compute_cycles, 42u);
  EXPECT_EQ(trace.accesses, 1u);  // carrier not counted as a real access
}

TEST(Recorder, RecycledBufferIsReusedNotReplayed) {
  MemoryRecorder rec;
  std::vector<MemAccess> drained(1000);
  const MemAccess* storage = drained.data();
  rec.recycle(std::move(drained));
  rec.read(0x40, 4);
  const auto trace = rec.take();
  ASSERT_EQ(trace.events.size(), 1u);  // stale contents discarded
  EXPECT_EQ(trace.events[0].addr, 0x40u);
  EXPECT_EQ(trace.events.data(), storage);  // same allocation, no regrowth

  // Events recorded before the hand-back are never dropped.
  rec.read(0x80, 4);
  rec.recycle(std::vector<MemAccess>(8));
  rec.read(0xc0, 4);
  const auto kept = rec.take();
  ASSERT_EQ(kept.events.size(), 2u);
  EXPECT_EQ(kept.events[0].addr, 0x80u);
}

TEST(Recorder, TakeResetsState) {
  MemoryRecorder rec;
  rec.compute(3);
  rec.read(0x0, 4);
  (void)rec.take();
  EXPECT_TRUE(rec.empty());
  rec.read(0x40, 4);
  const auto trace = rec.take();
  EXPECT_EQ(trace.compute_cycles, 0u);
  EXPECT_EQ(trace.events.size(), 1u);
}

TEST(Recorder, CodeTouchStaysInHotWindow) {
  MemoryRecorder rec;
  const Region code{0x10000, 8192, "code"};
  for (int f = 0; f < 100; ++f) rec.touch_code(code, 256);
  const auto trace = rec.take();
  for (const auto& e : trace.events) {
    EXPECT_GE(e.addr, code.base);
    EXPECT_LT(e.addr, code.base + 2048);  // hot window
  }
  EXPECT_GT(trace.compute_cycles, 0u);
}

TEST(TrackedArray, RecordsAddressesAndKeepsData) {
  MemoryRecorder rec;
  const Region r{0x2000, 1024, "heap"};
  TrackedArray<std::uint32_t> arr(&rec, r, 16);
  arr.set(3, 77);
  EXPECT_EQ(arr.get(3), 77u);
  const auto trace = rec.take();
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].addr, 0x2000u + 3 * 4);
  EXPECT_EQ(trace.events[0].type, AccessType::kWrite);
  EXPECT_EQ(trace.events[0].size, 4u);
  EXPECT_EQ(trace.events[1].type, AccessType::kRead);
}

TEST(TrackedArray, UpdateIsReadModifyWrite) {
  MemoryRecorder rec;
  const Region r{0x0, 256, "heap"};
  TrackedArray<std::uint8_t> arr(&rec, r, 8);
  arr.set(0, 5);
  (void)rec.take();
  arr.update(0, [](std::uint8_t v) { return static_cast<std::uint8_t>(v + 1); });
  const auto trace = rec.take();
  EXPECT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(arr.host_data()[0], 6);
}

TEST(SharedArray, AttributesToCallerRecorder) {
  MemoryRecorder rec_a, rec_b;
  const Region r{0x8000, 256, "seg"};
  SharedArray<std::uint16_t> shared(r, std::vector<std::uint16_t>(8, 1));
  shared.get(rec_a, 2);
  shared.set(rec_b, 3, 9);
  EXPECT_EQ(rec_a.take().events.size(), 1u);
  EXPECT_EQ(rec_b.take().events.size(), 1u);
  EXPECT_EQ(shared.host_data()[3], 9);
}

TEST(TrackedScalar, ReadWrite) {
  MemoryRecorder rec;
  TrackedScalar<int> s(&rec, 0x4000, 5);
  EXPECT_EQ(s.get(), 5);
  s.set(6);
  EXPECT_EQ(s.get(), 6);
  EXPECT_EQ(rec.take().events.size(), 3u);
}

TEST(AddressSpace, AlignedNonOverlappingRegions) {
  AddressSpace space(0x1000, 4096);
  const Region a = space.allocate(100, "a");
  const Region b = space.allocate(5000, "b");
  const Region c = space.allocate(1, "c");
  EXPECT_EQ(a.base % 4096, 0u);
  EXPECT_GE(b.base, a.end());
  EXPECT_GE(c.base, b.end());
  EXPECT_GE(a.size, 100u);
  EXPECT_GE(b.size, 5000u);
  EXPECT_EQ(space.regions().size(), 3u);
}

TEST(AddressSpace, ZeroSizeStillGetsRegion) {
  AddressSpace space;
  const Region r = space.allocate(0, "z");
  EXPECT_GT(r.size, 0u);
}

TEST(Region, Contains) {
  const Region r{100, 50, "r"};
  EXPECT_TRUE(r.contains(100));
  EXPECT_TRUE(r.contains(149));
  EXPECT_FALSE(r.contains(150));
  EXPECT_FALSE(r.contains(99));
}

}  // namespace
}  // namespace cms::sim
