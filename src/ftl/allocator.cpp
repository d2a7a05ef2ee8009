#include "src/ftl/allocator.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "src/util/expect.hpp"

namespace xlf::ftl {

DieAllocator::DieAllocator(const AllocatorConfig& config) : config_(config) {
  XLF_EXPECT_MSG(config.blocks >= 3,
                 "blocks=" + std::to_string(config.blocks) +
                     " is too small: a die needs >= 3 blocks (host + GC "
                     "frontiers plus free slack)");
  XLF_EXPECT_MSG(config.pages_per_block >= 1,
                 "pages_per_block=" + std::to_string(config.pages_per_block) +
                     " must be >= 1");
  states_.assign(config.blocks, BlockState::kFree);
  erase_counts_.assign(config.blocks, 0);
  last_write_.assign(config.blocks, 0);
  valid_.assign(config.blocks, 0);
  free_count_ = config.blocks;
  victims_.reset(config_.gc, config_.blocks, config_.pages_per_block);
  free_index_.reset(config_.blocks);
  for (std::uint32_t b = 0; b < config_.blocks; ++b) {
    free_index_.push(b, policy::free_block_score(config_.wear, 0));
  }
}

DieAllocator::Frontier& DieAllocator::frontier(Stream stream) {
  return stream == Stream::kHost ? host_ : gc_;
}

const DieAllocator::Frontier& DieAllocator::frontier(Stream stream) const {
  return stream == Stream::kHost ? host_ : gc_;
}

bool DieAllocator::needs_block(Stream stream) const {
  const Frontier& f = frontier(stream);
  return !f.open || f.next_page >= config_.pages_per_block;
}

std::uint32_t DieAllocator::pick_free_block() const {
  XLF_EXPECT(free_count_ > 0 && "allocating with an empty free list");
  // Heap-backed wear-policy preference: the snapshot scores in the
  // index are exact (free_block_score depends only on the erase count,
  // frozen while a block stays free), and the heap's (score, lowest
  // id) order matches the linear scan's strict-> tie-break ("none"
  // scores everything 0 and so picks by id, "dynamic" scores
  // -erase_count and so picks the least-erased block).
  const std::uint32_t best = free_index_.best();
  XLF_ENSURE(best != FreeBlockIndex::kNone);
  return best;
}

std::pair<std::uint32_t, std::uint32_t> DieAllocator::take_page(Stream stream) {
  Frontier& f = frontier(stream);
  if (!f.open || f.next_page >= config_.pages_per_block) {
    const std::uint32_t block = pick_free_block();
    states_[block] = BlockState::kOpen;
    free_index_.remove(block);
    --free_count_;
    f.block = block;
    f.next_page = 0;
    f.open = true;
  }
  const std::pair<std::uint32_t, std::uint32_t> slot{f.block, f.next_page};
  ++f.next_page;
  if (f.next_page >= config_.pages_per_block) {
    // Fully written: the block becomes a GC candidate. The valid
    // count is still settling (the caller maps the final page after
    // take_page returns), so the index entry pushed here is refreshed
    // by the trailing on_page_mapped/stamp_write notifications.
    states_[f.block] = BlockState::kClosed;
    f.open = false;
    index_update(f.block);
  }
  return slot;
}

void DieAllocator::stamp_write(std::uint32_t block, std::uint64_t stamp) {
  XLF_EXPECT(block < config_.blocks);
  last_write_[block] = stamp;
  // A closed block's stamp feeds the cost-benefit bucket key.
  index_update(block);
}

void DieAllocator::on_page_mapped(std::uint32_t block) {
  XLF_EXPECT(block < config_.blocks);
  XLF_EXPECT(valid_[block] < config_.pages_per_block);
  ++valid_[block];
  index_update(block);
}

void DieAllocator::on_page_invalidated(std::uint32_t block) {
  XLF_EXPECT(block < config_.blocks);
  XLF_EXPECT(valid_[block] > 0);
  --valid_[block];
  index_update(block);
}

void DieAllocator::index_update(std::uint32_t block) {
  if (states_[block] != BlockState::kClosed) return;
  victims_.update(block, valid_[block], last_write_[block]);
}

void DieAllocator::on_erase(std::uint32_t block) {
  XLF_EXPECT(block < config_.blocks);
  XLF_EXPECT(states_[block] == BlockState::kClosed &&
             "only closed blocks are erased");
  XLF_EXPECT(valid_[block] == 0 &&
             "erasing a block with live data (relocate first)");
  states_[block] = BlockState::kFree;
  ++erase_counts_[block];
  // A free block carries no age: clearing the stamp keeps the live
  // state field-identical to what rebuild_from_oob reconstructs (an
  // erased block has no OOB records to derive a stamp from).
  last_write_[block] = 0;
  ++free_count_;
  victims_.remove(block);
  free_index_.push(block,
                   policy::free_block_score(config_.wear, erase_counts_[block]));
}

void DieAllocator::retire(std::uint32_t block) {
  XLF_EXPECT(block < config_.blocks);
  XLF_EXPECT(states_[block] == BlockState::kClosed &&
             "only closed blocks reach the erase that can fail");
  XLF_EXPECT(valid_[block] == 0 &&
             "retiring a block with live data (relocate first)");
  states_[block] = BlockState::kBad;
  last_write_[block] = 0;
  victims_.remove(block);
}

void DieAllocator::restore(std::uint32_t block, BlockState state,
                           std::uint32_t erase_count,
                           std::uint64_t last_write) {
  XLF_EXPECT(block < config_.blocks);
  XLF_EXPECT(state != BlockState::kOpen &&
             "open blocks are restored through restore_frontier");
  XLF_EXPECT(states_[block] == BlockState::kFree &&
             "restore targets a freshly constructed allocator");
  erase_counts_[block] = erase_count;
  last_write_[block] = last_write;
  if (state != BlockState::kFree) {
    states_[block] = state;
    --free_count_;
    free_index_.remove(block);
    // A restored closed block enters the index with zero valid pages;
    // the mount replay feeds the real count back through
    // on_page_mapped as it reconstructs the L2P map.
    index_update(block);
  } else {
    // Erase count changed under the ctor's snapshot score: re-push.
    free_index_.push(
        block, policy::free_block_score(config_.wear, erase_counts_[block]));
  }
}

void DieAllocator::restore_frontier(Stream stream, std::uint32_t block,
                                    std::uint32_t next_page,
                                    std::uint32_t erase_count,
                                    std::uint64_t last_write) {
  XLF_EXPECT(block < config_.blocks);
  XLF_EXPECT(next_page >= 1 && next_page < config_.pages_per_block &&
             "an open frontier sits strictly inside its block");
  XLF_EXPECT(states_[block] == BlockState::kFree &&
             "restore targets a freshly constructed allocator");
  Frontier& f = frontier(stream);
  XLF_EXPECT(!f.open && "one open block per stream");
  states_[block] = BlockState::kOpen;
  free_index_.remove(block);
  --free_count_;
  erase_counts_[block] = erase_count;
  last_write_[block] = last_write;
  f.block = block;
  f.next_page = next_page;
  f.open = true;
}

DieAllocator::FrontierView DieAllocator::frontier_view(Stream stream) const {
  const Frontier& f = frontier(stream);
  if (!f.open) return FrontierView{};
  return FrontierView{true, f.block, f.next_page};
}

std::uint32_t DieAllocator::erase_count(std::uint32_t block) const {
  XLF_EXPECT(block < config_.blocks);
  return erase_counts_[block];
}

std::uint32_t DieAllocator::min_erase_count() const {
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  bool any = false;
  for (std::uint32_t b = 0; b < config_.blocks; ++b) {
    if (states_[b] == BlockState::kBad) continue;
    best = std::min(best, erase_counts_[b]);
    any = true;
  }
  return any ? best : 0;
}

std::uint32_t DieAllocator::max_erase_count() const {
  std::uint32_t best = 0;
  for (std::uint32_t b = 0; b < config_.blocks; ++b) {
    if (states_[b] == BlockState::kBad) continue;
    best = std::max(best, erase_counts_[b]);
  }
  return best;
}

// xlf: hot — on the GC trigger path of every write burst; the
// bucket-head walk must stay allocation-free.
std::optional<std::uint32_t> DieAllocator::pick_victim(
    std::uint64_t now) const {
  // Each bucket head is the best candidate at its valid count (the
  // bucket key is the policy's within-bucket tie-break; see
  // victim_index.hpp). Scoring the heads with the oracle scan's
  // policy::gc_score and keeping the argmax under the oracle's
  // strict-> / lowest-id rule reproduces pick_victim_scored byte for
  // byte at O(pages_per_block) instead of O(blocks).
  std::optional<std::uint32_t> best;
  double best_score = 0.0;
  victims_.for_each_head([&](std::uint32_t block, std::uint32_t valid) {
    const double candidate = policy::gc_score(
        config_.gc, valid, config_.pages_per_block, last_write_[block], now);
    if (!best.has_value() || candidate > best_score ||
        (candidate == best_score && block < *best)) {
      best = block;
      best_score = candidate;
    }
  });
  return best;
}

std::optional<std::uint32_t> DieAllocator::pick_coldest() const {
  std::optional<std::uint32_t> best;
  for (std::uint32_t b = 0; b < config_.blocks; ++b) {
    if (states_[b] != BlockState::kClosed) continue;
    if (!best.has_value() || erase_counts_[b] < erase_counts_[*best] ||
        (erase_counts_[b] == erase_counts_[*best] &&
         last_write_[b] < last_write_[*best])) {
      best = b;
    }
  }
  return best;
}

}  // namespace xlf::ftl
