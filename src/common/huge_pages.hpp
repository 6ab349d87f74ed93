// Transparent huge pages for the simulator's n-word arrays.
//
// At 10^6 states and beyond, the count vector and the sum trees' internal
// levels span megabytes, and every sampled state or tree update touches an
// effectively random 4 KiB page of them: a TLB miss per access.  Backing
// them with 2 MiB pages cuts the number of pages 512-fold.  The kernel
// honours the advice only for memory not yet touched (a page fault then
// maps a whole huge page), so arrays are sized by zeroed_resize(): reserve,
// advise, then the first touch.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace pp {

/// Advises the kernel to back the 2 MiB-aligned interior of
/// [p, p + bytes) with transparent huge pages.  Only the interior, so the
/// advice never reaches memory outside the array; a no-op below 2 MiB, and
/// any failure (no THP support, THP disabled, a non-Linux host) is ignored:
/// the advice changes speed, never contents.
inline void advise_huge_pages(const void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kHuge = std::uintptr_t{1} << 21;
  if (bytes < kHuge) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (begin + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t hi = (begin + bytes) & ~(kHuge - 1);
  if (lo < hi) {
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

/// Makes `v` hold `n` zero elements, advising huge pages for its storage
/// between the allocation and the first touch.
template <typename Vector>
void zeroed_resize(Vector& v, std::size_t n) {
  v.clear();
  v.reserve(n);
  advise_huge_pages(v.data(), n * sizeof(*v.data()));
  v.resize(n);
}

}  // namespace pp
