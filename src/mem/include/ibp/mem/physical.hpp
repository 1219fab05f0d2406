#pragma once

// Simulated physical memory.
//
// The simulator distinguishes *simulated physical addresses* (what page
// tables, the NIC's translation table, and the DMA engine see) from *host
// backing memory* (real bytes the workloads compute on). Simulated PAs
// drive the timing/translation model; host backing carries data.
//
// Small (4 KB) frames are handed out in a pseudo-randomly permuted order to
// emulate the frame fragmentation of a long-running OS: virtually
// contiguous small pages are physically scattered. The permutation is
// drawn lazily, one Fisher–Yates step per fresh frame, so construction is
// O(1) and the order is exactly that of shuffling every frame up front.
// Huge (2 MB) frames come from a physically contiguous reserved region,
// exactly like Linux hugeTLBfs boot-time reservation. This difference is
// what the CPU prefetcher and NIC ATT models key on.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ibp/common/check.hpp"
#include "ibp/common/rng.hpp"
#include "ibp/common/types.hpp"

namespace ibp::mem {

class PhysicalMemory {
 public:
  /// `total_bytes` of small-page RAM plus a dedicated hugepage region of
  /// `huge_pages` 2 MB frames. `seed` drives the fragmentation permutation.
  PhysicalMemory(std::uint64_t total_bytes, std::uint64_t huge_pages,
                 std::uint64_t seed);

  /// Allocate one 4 KB frame; returns its simulated physical address.
  PhysAddr alloc_small_frame();
  void free_small_frame(PhysAddr pa);

  /// Allocate one 2 MB frame (physically contiguous, 2 MB aligned).
  PhysAddr alloc_huge_frame();
  void free_huge_frame(PhysAddr pa);

  std::uint64_t small_frames_total() const { return small_total_; }
  std::uint64_t small_frames_free() const {
    return fresh_ + small_freed_.size();
  }
  std::uint64_t huge_frames_total() const { return huge_total_; }
  std::uint64_t huge_frames_free() const { return huge_free_.size(); }

  /// Base of the hugepage region (useful for tests asserting contiguity).
  PhysAddr huge_region_base() const { return huge_base_; }

 private:
  /// Frame in permutation slot `i` of the not-yet-drawn prefix.
  PhysAddr slot(std::uint64_t i) const;

  std::uint64_t small_total_;
  std::uint64_t huge_total_;
  PhysAddr huge_base_;
  Rng rng_;              // drives the fragmentation permutation
  std::uint64_t fresh_;  // slots [0, fresh_) have never been handed out
  // Slots whose frame differs from the identity i * kSmallPageSize.
  std::unordered_map<std::uint64_t, PhysAddr> moved_;
  std::vector<PhysAddr> small_freed_;  // freed frames; popped from the back
  std::vector<PhysAddr> huge_free_;    // ascending; popped from the back
};

}  // namespace ibp::mem
