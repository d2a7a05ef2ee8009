#include "src/ftl/mapping.hpp"

#include "src/util/expect.hpp"

namespace xlf::ftl {

PageMap::PageMap(std::uint32_t dies, std::uint32_t blocks_per_die,
                 std::uint32_t pages_per_block, std::uint32_t logical_pages)
    : dies_(dies),
      blocks_per_die_(blocks_per_die),
      pages_per_block_(pages_per_block),
      logical_pages_(logical_pages) {
  XLF_EXPECT(dies >= 1);
  XLF_EXPECT(blocks_per_die >= 1);
  XLF_EXPECT(pages_per_block >= 1);
  const std::size_t physical =
      static_cast<std::size_t>(dies) * blocks_per_die * pages_per_block;
  XLF_EXPECT(logical_pages >= 1);
  // Strictly fewer logical than physical pages: the slack is the
  // over-provisioning GC lives off.
  XLF_EXPECT(logical_pages < physical);
  l2p_.assign(logical_pages, Ppa{});
  p2l_.assign(physical, kUnmapped);
}

std::size_t PageMap::page_index(const Ppa& ppa) const {
  return (static_cast<std::size_t>(ppa.die) * blocks_per_die_ + ppa.block) *
             pages_per_block_ +
         ppa.page;
}

void PageMap::check(const Ppa& ppa) const {
  XLF_EXPECT(ppa.die < dies_);
  XLF_EXPECT(ppa.block < blocks_per_die_);
  XLF_EXPECT(ppa.page < pages_per_block_);
}

bool PageMap::mapped(Lpa lpa) const {
  XLF_EXPECT(lpa < logical_pages_);
  return l2p_[lpa].valid();
}

Ppa PageMap::lookup(Lpa lpa) const {
  XLF_EXPECT(lpa < logical_pages_);
  return l2p_[lpa];
}

Ppa PageMap::map(Lpa lpa, Ppa ppa) {
  XLF_EXPECT(lpa < logical_pages_);
  check(ppa);
  const std::size_t target = page_index(ppa);
  XLF_EXPECT(p2l_[target] == kUnmapped && "mapping onto a live page");
  const Ppa old = l2p_[lpa];
  if (old.valid()) {
    const std::size_t previous = page_index(old);
    XLF_ENSURE(p2l_[previous] == lpa);
    p2l_[previous] = kUnmapped;
  }
  l2p_[lpa] = ppa;
  p2l_[target] = lpa;
  return old;
}

Ppa PageMap::unmap(Lpa lpa) {
  XLF_EXPECT(lpa < logical_pages_);
  const Ppa old = l2p_[lpa];
  XLF_EXPECT(old.valid() && "trimming an unmapped LPA");
  const std::size_t previous = page_index(old);
  XLF_ENSURE(p2l_[previous] == lpa);
  p2l_[previous] = kUnmapped;
  l2p_[lpa] = Ppa{};
  return old;
}

bool PageMap::valid(Ppa ppa) const {
  check(ppa);
  return p2l_[page_index(ppa)] != kUnmapped;
}

Lpa PageMap::lpa_at(Ppa ppa) const {
  check(ppa);
  return p2l_[page_index(ppa)];
}

}  // namespace xlf::ftl
