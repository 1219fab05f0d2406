#include "ibp/mem/physical.hpp"

namespace ibp::mem {

PhysicalMemory::PhysicalMemory(std::uint64_t total_bytes,
                               std::uint64_t huge_pages, std::uint64_t seed)
    : rng_(seed ^ 0x5eedf00dull) {
  IBP_CHECK(total_bytes % kSmallPageSize == 0,
            "small-page RAM must be 4 KB aligned");
  small_total_ = total_bytes / kSmallPageSize;
  fresh_ = small_total_;
  huge_total_ = huge_pages;

  // Small frames occupy [0, total_bytes); the hugepage region sits above.
  huge_base_ = align_up(total_bytes, kHugePageSize);
  huge_free_.reserve(huge_total_);
  // Push descending so that pop_back() hands out ascending, contiguous PAs.
  for (std::uint64_t i = huge_total_; i > 0; --i)
    huge_free_.push_back(huge_base_ + (i - 1) * kHugePageSize);
}

PhysAddr PhysicalMemory::slot(std::uint64_t i) const {
  const auto it = moved_.find(i);
  return it == moved_.end() ? i * kSmallPageSize : it->second;
}

PhysAddr PhysicalMemory::alloc_small_frame() {
  if (!small_freed_.empty()) {
    const PhysAddr pa = small_freed_.back();
    small_freed_.pop_back();
    return pa;
  }
  IBP_CHECK(fresh_ > 0, "out of simulated small-page memory");
  // One top-down Fisher–Yates step over slots [0, fresh_): the same draws,
  // in the same order, as shuffling every frame up front and popping from
  // the back, so successive allocations land on scattered frames.
  const std::uint64_t top = --fresh_;
  const std::uint64_t j = top > 0 ? rng_.next_below(top + 1) : 0;
  const PhysAddr pa = slot(j);
  if (j != top) moved_[j] = slot(top);
  moved_.erase(top);
  return pa;
}

void PhysicalMemory::free_small_frame(PhysAddr pa) {
  IBP_CHECK(pa % kSmallPageSize == 0 && pa < small_total_ * kSmallPageSize,
            "bad small frame " << pa);
  small_freed_.push_back(pa);
}

PhysAddr PhysicalMemory::alloc_huge_frame() {
  IBP_CHECK(!huge_free_.empty(), "out of simulated hugepage memory");
  const PhysAddr pa = huge_free_.back();
  huge_free_.pop_back();
  return pa;
}

void PhysicalMemory::free_huge_frame(PhysAddr pa) {
  IBP_CHECK(pa >= huge_base_ && (pa - huge_base_) % kHugePageSize == 0 &&
                (pa - huge_base_) / kHugePageSize < huge_total_,
            "bad huge frame " << pa);
  huge_free_.push_back(pa);
}

}  // namespace ibp::mem
