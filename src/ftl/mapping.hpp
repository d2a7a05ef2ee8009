// Logical-to-physical page mapping for the flash translation layer.
//
// The FTL exposes a flat logical page address (LPA) space smaller
// than the physical space (the difference is over-provisioning for
// garbage collection) and writes out of place: every host write lands
// on a fresh physical page and merely invalidates the LPA's previous
// location. PageMap is the bookkeeping core of that scheme — the L2P
// table and its P2L inverse (needed by GC to find the owner of a valid
// page); the per-block valid counts live in the DieAllocator.
//
// Pure data structure: no device access, no timing, no policy. The
// Ftl drives it and keeps it consistent with the NAND state.
#pragma once

#include <cstdint>
#include <vector>

namespace xlf::ftl {

// Logical page address (host view, SSD-wide).
using Lpa = std::uint32_t;
inline constexpr std::uint32_t kUnmapped = 0xFFFFFFFFu;

// Physical page address (die-qualified).
struct Ppa {
  std::uint32_t die = kUnmapped;
  std::uint32_t block = 0;
  std::uint32_t page = 0;

  bool valid() const { return die != kUnmapped; }
  friend bool operator==(const Ppa&, const Ppa&) = default;
};

class PageMap {
 public:
  PageMap(std::uint32_t dies, std::uint32_t blocks_per_die,
          std::uint32_t pages_per_block, std::uint32_t logical_pages);

  std::uint32_t logical_pages() const { return logical_pages_; }
  std::uint32_t dies() const { return dies_; }

  bool mapped(Lpa lpa) const;
  // Current location of `lpa`; Ppa::valid() is false when unmapped.
  Ppa lookup(Lpa lpa) const;
  // Point `lpa` at a fresh physical page, invalidating its previous
  // location (the out-of-place write step). The target page must not
  // already hold a valid mapping. Returns the displaced location
  // (Ppa::valid() false when the LPA was unmapped) so the caller can
  // feed the per-block valid counts.
  Ppa map(Lpa lpa, Ppa ppa);
  // Drop `lpa`'s mapping entirely (host trim/deallocate): its
  // physical page goes invalid and subsequent lookups see the LPA as
  // never written. The LPA must be
  // mapped. Returns the dropped location.
  Ppa unmap(Lpa lpa);

  // True when the physical page holds the current copy of some LPA.
  bool valid(Ppa ppa) const;
  // Owner of a valid physical page; kUnmapped when invalid.
  Lpa lpa_at(Ppa ppa) const;

 private:
  std::size_t page_index(const Ppa& ppa) const;
  void check(const Ppa& ppa) const;

  std::uint32_t dies_;
  std::uint32_t blocks_per_die_;
  std::uint32_t pages_per_block_;
  std::uint32_t logical_pages_;
  std::vector<Ppa> l2p_;
  // P2L inverse, flat [die][block][page]; kUnmapped marks invalid.
  std::vector<Lpa> p2l_;
};

}  // namespace xlf::ftl
