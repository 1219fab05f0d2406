#include "ibp/mem/address_space.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <set>
#include <utility>
#include <vector>

#include "ibp/mem/physical.hpp"

namespace ibp::mem {
namespace {

TEST(PhysicalMemory, SmallFramesAreUniqueAndAligned) {
  PhysicalMemory pm(16 * kMiB, 4, 1);
  std::set<PhysAddr> seen;
  for (int i = 0; i < 4096; ++i) {
    const PhysAddr pa = pm.alloc_small_frame();
    EXPECT_EQ(pa % kSmallPageSize, 0u);
    EXPECT_TRUE(seen.insert(pa).second) << "duplicate frame";
  }
  EXPECT_EQ(pm.small_frames_free(), 0u);
  EXPECT_THROW(pm.alloc_small_frame(), SimError);
}

TEST(PhysicalMemory, SmallFramesAreScattered) {
  // The fragmentation shuffle must make successive frames non-adjacent
  // nearly always (this is what breaks the prefetcher on small pages).
  PhysicalMemory pm(64 * kMiB, 4, 99);
  PhysAddr prev = pm.alloc_small_frame();
  int adjacent = 0;
  for (int i = 0; i < 1000; ++i) {
    const PhysAddr pa = pm.alloc_small_frame();
    if (pa == prev + kSmallPageSize) ++adjacent;
    prev = pa;
  }
  EXPECT_LT(adjacent, 10);
}

TEST(PhysicalMemory, HugeFramesAreContiguousAscending) {
  PhysicalMemory pm(16 * kMiB, 8, 1);
  PhysAddr prev = pm.alloc_huge_frame();
  EXPECT_EQ(prev, pm.huge_region_base());
  for (int i = 1; i < 8; ++i) {
    const PhysAddr pa = pm.alloc_huge_frame();
    EXPECT_EQ(pa, prev + kHugePageSize) << "huge region must be contiguous";
    prev = pa;
  }
  EXPECT_THROW(pm.alloc_huge_frame(), SimError);
}

TEST(PhysicalMemory, FreeReturnsFrames) {
  PhysicalMemory pm(1 * kMiB, 2, 1);
  const PhysAddr a = pm.alloc_small_frame();
  const std::uint64_t before = pm.small_frames_free();
  pm.free_small_frame(a);
  EXPECT_EQ(pm.small_frames_free(), before + 1);
  const PhysAddr h = pm.alloc_huge_frame();
  pm.free_huge_frame(h);
  EXPECT_EQ(pm.huge_frames_free(), 2u);
}

// The frame sequence PhysicalMemory must reproduce: every small frame
// listed, Fisher–Yates shuffled up front, popped from the back; freed
// frames pushed onto the back.
class EagerFrames {
 public:
  EagerFrames(std::uint64_t total_bytes, std::uint64_t seed) {
    const std::uint64_t n = total_bytes / kSmallPageSize;
    for (std::uint64_t i = 0; i < n; ++i) free_.push_back(i * kSmallPageSize);
    Rng rng(seed ^ 0x5eedf00dull);
    for (std::uint64_t i = n; i > 1; --i)
      std::swap(free_[i - 1], free_[rng.next_below(i)]);
  }
  PhysAddr alloc() {
    const PhysAddr pa = free_.back();
    free_.pop_back();
    return pa;
  }
  void free(PhysAddr pa) { free_.push_back(pa); }
  std::uint64_t free_count() const { return free_.size(); }

 private:
  std::vector<PhysAddr> free_;
};

TEST(PhysicalMemory, LazyPermutationMatchesEagerReference) {
  for (std::uint64_t seed : {1u, 7u, 42u, 99u}) {
    for (std::uint64_t bytes : {1 * kMiB, 16 * kMiB, 64 * kMiB}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", "
                                      << bytes / kMiB << " MiB");
      PhysicalMemory pm(bytes, 0, seed);
      EagerFrames ref(bytes, seed);
      Rng ops(seed * 31 + bytes);
      std::vector<PhysAddr> held;
      // Seeded interleaving of allocations and frees, then a full drain.
      for (int step = 0; step < 20000; ++step) {
        if (!held.empty() && ops.next_below(5) < 2) {
          const std::size_t k = ops.next_below(held.size());
          pm.free_small_frame(held[k]);
          ref.free(held[k]);
          held[k] = held.back();
          held.pop_back();
        } else if (ref.free_count() > 0) {
          const PhysAddr pa = pm.alloc_small_frame();
          ASSERT_EQ(pa, ref.alloc()) << "step " << step;
          held.push_back(pa);
        }
        ASSERT_EQ(pm.small_frames_free(), ref.free_count())
            << "step " << step;
      }
      while (ref.free_count() > 0) {
        ASSERT_EQ(pm.alloc_small_frame(), ref.alloc());
        ASSERT_EQ(pm.small_frames_free(), ref.free_count());
      }
      EXPECT_THROW(pm.alloc_small_frame(), SimError);
    }
  }
}

TEST(PhysicalMemory, FrameSequencePinned) {
  // The first frames of a default-sized (2 GiB) node and the full order of
  // tiny memories, as the up-front shuffle produced them. Bench outputs
  // depend on the scatter rather than this exact order, so this pins it.
  PhysicalMemory pm(2 * kGiB, 0, 42);
  const PhysAddr first[32] = {
      0x9bf2000,  0x7ace5000, 0x13261000, 0x5d4c0000, 0x238dd000, 0x66a44000,
      0x7f9f3000, 0x63cf5000, 0x1e56a000, 0x6d1ee000, 0x3d145000, 0x625c2000,
      0x858d000,  0x451f6000, 0x5aecd000, 0x75392000, 0x7a42d000, 0x46647000,
      0x5830d000, 0x71265000, 0x5fc42000, 0x7c431000, 0x7dc2d000, 0x5cd74000,
      0x1b2ae000, 0x68ff8000, 0x3628000,  0x43628000, 0x29728000, 0x1be2000,
      0xf8c7000,  0x22da7000};
  for (PhysAddr want : first) EXPECT_EQ(pm.alloc_small_frame(), want);

  const std::uint64_t drains[4][16] = {
      {8, 3, 0, 2, 12, 7, 4, 11, 14, 6, 13, 10, 1, 5, 15, 9},
      {11, 5, 3, 13, 9, 2, 0, 4, 14, 15, 12, 7, 8, 6, 1, 10},
      {5, 4, 7, 2, 12, 3, 14, 10, 8, 6, 13, 0, 1, 9, 11, 15},
      {0, 11, 9, 14, 13, 6, 1, 4, 2, 8, 10, 3, 12, 5, 15, 7}};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    PhysicalMemory tiny(16 * kSmallPageSize, 0, seed);
    for (std::uint64_t frame : drains[seed - 1])
      EXPECT_EQ(tiny.alloc_small_frame(), frame * kSmallPageSize)
          << "seed " << seed;
  }
}

TEST(PhysicalMemory, HugeRamConstructsLazily) {
  // 1 TiB of small pages: a frame list built up front would take 2 GiB.
  const std::uint64_t bytes = 1024 * kGiB;
  PhysicalMemory pm(bytes, 0, 5);
  const std::uint64_t total = bytes / kSmallPageSize;
  EXPECT_EQ(pm.small_frames_total(), total);
  std::set<PhysAddr> seen;
  for (int i = 0; i < 1000; ++i) {
    const PhysAddr pa = pm.alloc_small_frame();
    EXPECT_EQ(pa % kSmallPageSize, 0u);
    EXPECT_LT(pa, bytes);
    EXPECT_TRUE(seen.insert(pa).second) << "duplicate frame";
  }
  EXPECT_EQ(pm.small_frames_free(), total - 1000);
}

class AddressSpaceTest : public ::testing::Test {
 protected:
  PhysicalMemory pm{64 * kMiB, 16, 42};
  HugeTlbFs fs{&pm, 16, 2};
  AddressSpace as{&pm, &fs};
};

TEST_F(AddressSpaceTest, MapRoundsToPageSize) {
  Mapping& m = as.map(100, PageKind::Small);
  EXPECT_EQ(m.length, kSmallPageSize);
  EXPECT_EQ(m.npages(), 1u);
  Mapping& h = as.map(kHugePageSize + 1, PageKind::Huge);
  EXPECT_EQ(h.length, 2 * kHugePageSize);
}

TEST_F(AddressSpaceTest, RegionsAreDisjointByKind) {
  Mapping& s = as.map(4096, PageKind::Small);
  Mapping& h = as.map(kHugePageSize, PageKind::Huge);
  EXPECT_LT(s.va_base, kHugeRegionBase);
  EXPECT_GE(h.va_base, kHugeRegionBase);
}

TEST_F(AddressSpaceTest, TranslateWalksToTheRightFrame) {
  Mapping& m = as.map(4 * kSmallPageSize, PageKind::Small);
  for (std::uint64_t p = 0; p < 4; ++p) {
    const VirtAddr va = m.va_base + p * kSmallPageSize + 123;
    const Translation t = as.translate(va);
    EXPECT_EQ(t.page_pa, m.frames[p]);
    EXPECT_EQ(t.pa, m.frames[p] + 123);
    EXPECT_EQ(t.page_size, kSmallPageSize);
    EXPECT_EQ(t.page_va, m.va_base + p * kSmallPageSize);
  }
}

TEST_F(AddressSpaceTest, TranslateUnmappedThrows) {
  EXPECT_THROW(as.translate(0xdead0000), SimError);
  Mapping& m = as.map(4096, PageKind::Small);
  EXPECT_THROW(as.translate(m.va_base + m.length + 4096), SimError);
}

TEST_F(AddressSpaceTest, FindRespectsRangeBounds) {
  Mapping& m = as.map(2 * kSmallPageSize, PageKind::Small);
  EXPECT_EQ(as.find(m.va_base, m.length), &m);
  EXPECT_EQ(as.find(m.va_base + 1, m.length), nullptr);  // crosses the end
  EXPECT_EQ(as.find(m.va_base - 1, 1), nullptr);
}

TEST_F(AddressSpaceTest, PinUnpinCountsPages) {
  Mapping& m = as.map(8 * kSmallPageSize, PageKind::Small);
  // [page1+10, page4+5) spans pages 1..4.
  const std::uint64_t n =
      as.pin(m.va_base + kSmallPageSize + 10, 3 * kSmallPageSize);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(as.pinned_pages(), 4u);
  // Overlapping pin refcounts without double-counting.
  as.pin(m.va_base + kSmallPageSize, kSmallPageSize);
  EXPECT_EQ(as.pinned_pages(), 4u);
  as.unpin(m.va_base + kSmallPageSize, kSmallPageSize);
  EXPECT_EQ(as.pinned_pages(), 4u);
  as.unpin(m.va_base + kSmallPageSize + 10, 3 * kSmallPageSize);
  EXPECT_EQ(as.pinned_pages(), 0u);
}

TEST_F(AddressSpaceTest, UnpinWithoutPinThrows) {
  Mapping& m = as.map(kSmallPageSize, PageKind::Small);
  EXPECT_THROW(as.unpin(m.va_base, 64), SimError);
}

TEST_F(AddressSpaceTest, UnmapPinnedThrows) {
  Mapping& m = as.map(kSmallPageSize, PageKind::Small);
  as.pin(m.va_base, 64);
  EXPECT_THROW(as.unmap(m.va_base), SimError);
  as.unpin(m.va_base, 64);
  as.unmap(m.va_base);  // now fine
}

TEST_F(AddressSpaceTest, HostSpanReadsBackWrites) {
  Mapping& m = as.map(2 * kSmallPageSize, PageKind::Small);
  auto w = as.host_span(m.va_base + 100, 1000);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<std::uint8_t>(i);
  auto r = as.host_span(m.va_base + 100, 1000);
  for (std::size_t i = 0; i < r.size(); ++i)
    ASSERT_EQ(r[i], static_cast<std::uint8_t>(i));
}

TEST_F(AddressSpaceTest, UnmapReleasesFrames) {
  const std::uint64_t before = pm.small_frames_free();
  Mapping& m = as.map(16 * kSmallPageSize, PageKind::Small);
  EXPECT_EQ(pm.small_frames_free(), before - 16);
  as.unmap(m.va_base);
  EXPECT_EQ(pm.small_frames_free(), before);
}

TEST_F(AddressSpaceTest, MappedBytesByKind) {
  as.map(3 * kSmallPageSize, PageKind::Small);
  as.map(2 * kHugePageSize, PageKind::Huge);
  EXPECT_EQ(as.mapped_bytes(PageKind::Small), 3 * kSmallPageSize);
  EXPECT_EQ(as.mapped_bytes(PageKind::Huge), 2 * kHugePageSize);
}

TEST_F(AddressSpaceTest, HugeMappingFramesAreContiguous) {
  Mapping& m = as.map(4 * kHugePageSize, PageKind::Huge);
  for (std::size_t i = 1; i < m.frames.size(); ++i)
    EXPECT_EQ(m.frames[i], m.frames[i - 1] + kHugePageSize);
}

/// Resident set size of this process, from /proc/self/statm.
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(AddressSpace, LargeMappingIsZeroAndLazy) {
  // Host backing is lazily zeroed: mapping 512 MiB costs host memory only
  // for the pages actually read or written.
  constexpr std::uint64_t kLen = 512 * kMiB;
  PhysicalMemory pm(kLen + 16 * kMiB, 1, 3);
  AddressSpace as(&pm, nullptr);
  [[maybe_unused]] const std::uint64_t rss0 = resident_bytes();
  const VirtAddr base = as.map(kLen, PageKind::Small).va_base;
  const std::uint64_t probes[] = {0, kLen / 2, kLen - 1};
  for (std::uint64_t off : probes) {
    EXPECT_EQ(as.host_span(base + off, 1)[0], 0) << "offset " << off;
    as.host_span(base + off, 1)[0] = 0xa5;
  }
  for (std::uint64_t off : probes)
    EXPECT_EQ(as.host_span(base + off, 1)[0], 0xa5) << "offset " << off;
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // Sanitizer allocators keep their own shadow and quarantine; the
  // residency bound holds for the plain C library allocator only.
  EXPECT_LT(resident_bytes(), rss0 + 64 * kMiB)
      << "mapping must not touch every page";
#endif

  as.unmap(base);
  const VirtAddr again = as.map(kLen, PageKind::Small).va_base;
  for (std::uint64_t off : probes)
    EXPECT_EQ(as.host_span(again + off, 1)[0], 0) << "offset " << off;
}

TEST(HugeTlbFs, ReserveIsUntouchable) {
  PhysicalMemory pm(1 * kMiB, 10, 1);
  HugeTlbFs fs(&pm, 10, 3);
  EXPECT_EQ(fs.available(), 7u);
  auto frames = fs.acquire(7);
  EXPECT_EQ(fs.available(), 0u);
  EXPECT_THROW(fs.acquire(1), SimError);
  fs.release(frames);
  EXPECT_EQ(fs.available(), 7u);
  EXPECT_EQ(fs.used(), 0u);
}

TEST(HugeTlbFs, PoolCannotExceedPhysicalRegion) {
  PhysicalMemory pm(1 * kMiB, 4, 1);
  EXPECT_THROW(HugeTlbFs(&pm, 8, 0), SimError);
}

// Property: across any interleaving of maps/unmaps, every live mapping's
// frames stay disjoint.
TEST(AddressSpaceProperty, FramesNeverAlias) {
  PhysicalMemory pm(32 * kMiB, 8, 7);
  HugeTlbFs fs(&pm, 8, 0);
  AddressSpace as(&pm, &fs);
  Rng rng(2024);
  std::vector<VirtAddr> live;
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.next_double() < 0.6) {
      PageKind kind =
          rng.next_double() < 0.8 ? PageKind::Small : PageKind::Huge;
      std::uint64_t len =
          (rng.next_below(8) + 1) *
          (kind == PageKind::Small ? kSmallPageSize : kHugePageSize) / 2 + 1;
      if (kind == PageKind::Huge &&
          fs.available() < div_ceil(len, kHugePageSize)) {
        kind = PageKind::Small;
        len = kSmallPageSize;
      }
      live.push_back(as.map(len, kind).va_base);
    } else {
      const std::size_t i = rng.next_below(live.size());
      as.unmap(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    // Check frame disjointness over all live mappings.
    std::set<PhysAddr> frames;
    for (VirtAddr va : live) {
      const Mapping* m = as.find(va);
      ASSERT_NE(m, nullptr);
      for (PhysAddr pa : m->frames)
        ASSERT_TRUE(frames.insert(pa).second) << "frame aliased";
    }
  }
}

}  // namespace
}  // namespace ibp::mem
