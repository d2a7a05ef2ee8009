// Per-die block allocation and garbage-collection victim selection.
//
// Each die runs two append-only write frontiers — the host stream
// (hot, freshly written data) and the GC stream (cold, relocated
// data) — the classic hot/cold separation that keeps write
// amplification down under skewed workloads. Blocks cycle through
// free -> open -> closed -> (GC victim) -> free, with a terminal
// `bad` state for blocks retired after an erase failure (never
// allocated, never collected, excluded from the wear spread); the
// allocator owns that state machine, each block's valid-page count
// (the GC victim signal) and the FTL-visible erase counters the wear
// leveler reads.
//
// All of this is DRAM state: after a simulated power cycle the Ftl
// reconstructs it through the restore()/restore_frontier() mount API
// from the durable per-block table and the OOB scan (see
// Ftl::rebuild_from_oob).
//
// Policy decisions come from the xlf::policy plane:
//  * GC victim selection scores closed blocks with policy::gc_score
//    under the allocator's policy::Gc ("greedy", "cost-benefit");
//    pick_victim reads the incremental victim index, and
//    pick_victim_scored is the linear scan the index is pinned
//    against;
//  * free-block preference comes from policy::free_block_score under
//    the allocator's policy::Wear ("none" = by id, "dynamic"/"static"
//    = lowest erase count).
//
// Deterministic throughout: all ties break toward the lowest block
// id, so simulation runs are bit-reproducible whatever the policy.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/ftl/victim_index.hpp"
#include "src/policy/policy.hpp"

namespace xlf::ftl {

struct AllocatorConfig {
  std::uint32_t blocks = 0;
  std::uint32_t pages_per_block = 0;
  // Free-block preference.
  policy::Wear wear = policy::Wear::kDynamic;
  // GC victim scoring; keys the victim index, so callers must report
  // every page that turns valid or invalid through on_page_mapped /
  // on_page_invalidated (the Ftl does).
  policy::Gc gc = policy::Gc::kGreedy;
};

class DieAllocator {
 public:
  // The two write frontiers (hot/cold separation).
  enum class Stream { kHost, kGc };

  // Block life cycle; kBad is terminal (grown-bad retirement).
  enum class BlockState { kFree, kOpen, kClosed, kBad };

  struct FrontierView {
    bool open = false;
    // Zero when closed, so views compare cleanly across a remount
    // (a closed frontier's stale block/page fields never leak).
    std::uint32_t block = 0;
    std::uint32_t next_page = 0;

    friend bool operator==(const FrontierView&, const FrontierView&) = default;
  };

  explicit DieAllocator(const AllocatorConfig& config);

  std::size_t free_count() const { return free_count_; }
  // True when the next take_page(stream) must open a fresh block.
  bool needs_block(Stream stream) const;

  // Next append position of the stream's open block; opens a block
  // from the free list when needed (requires free_count() > 0 then).
  // Returns {block, page}.
  std::pair<std::uint32_t, std::uint32_t> take_page(Stream stream);

  // Record the logical write time of a block (cost-benefit age).
  void stamp_write(std::uint32_t block, std::uint64_t stamp);

  // --- valid-page counts ----------------------------------------------
  // The Ftl calls these on every map/unmap transition; each also
  // refreshes the block's victim-index entry.
  void on_page_mapped(std::uint32_t block);
  void on_page_invalidated(std::uint32_t block);
  // Valid pages in the block: the GC victim-selection signal.
  std::uint32_t valid_count(std::uint32_t block) const {
    return valid_.at(block);
  }
  // Erase bookkeeping: the block rejoins the free list, its erase
  // counter advances and its write stamp resets (a free block has no
  // age). Must be a closed block (victims always are; open frontiers
  // are never collected) with no valid page left (relocate first).
  void on_erase(std::uint32_t block);
  // Grown-bad retirement: a closed block whose erase failed leaves
  // the allocation cycle for good. Its erase counter does not advance
  // (the erase did not happen); it too needs every page invalid.
  void retire(std::uint32_t block);

  std::uint32_t erase_count(std::uint32_t block) const;
  // Wear spread over blocks still in the allocation cycle (retired
  // blocks' frozen counters must not drive wear-leveling decisions).
  std::uint32_t min_erase_count() const;
  std::uint32_t max_erase_count() const;

  // --- mount-time restore (rebuild_from_oob) ------------------------
  // Reconstruct a block's state on a freshly constructed allocator.
  // kOpen goes through restore_frontier instead, which also reopens
  // the stream's append position.
  void restore(std::uint32_t block, BlockState state,
               std::uint32_t erase_count, std::uint64_t last_write);
  void restore_frontier(Stream stream, std::uint32_t block,
                        std::uint32_t next_page, std::uint32_t erase_count,
                        std::uint64_t last_write);

  BlockState state(std::uint32_t block) const { return states_.at(block); }
  std::uint64_t last_write(std::uint32_t block) const {
    return last_write_.at(block);
  }
  FrontierView frontier_view(Stream stream) const;

  // GC victim among closed blocks with at least one invalid page:
  // the highest-scoring candidate under `gc`, lowest block id on
  // ties. `valid_count(block)` supplies the live-page signal, `now`
  // the logical clock. nullopt when nothing is reclaimable. This
  // O(blocks) scan is the oracle the victim index reproduces.
  template <class ValidCountFn>
  std::optional<std::uint32_t> pick_victim_scored(
      policy::Gc gc, const ValidCountFn& valid_count,
      std::uint64_t now) const;

  // The same pick under the allocator's own GC policy, from the
  // victim index and the valid counts: O(pages_per_block)
  // bucket-head probes instead of an O(blocks) scan, byte-identical
  // to pick_victim_scored(config.gc, ...) (the same policy::gc_score;
  // ties break toward the lowest id in both).
  std::optional<std::uint32_t> pick_victim(std::uint64_t now) const;

  // Coldest closed block (lowest erase count, oldest stamp as the
  // tiebreak) — the static wear leveler's swap source. nullopt when
  // no block is closed.
  std::optional<std::uint32_t> pick_coldest() const;

  bool is_closed(std::uint32_t block) const {
    return states_.at(block) == BlockState::kClosed;
  }

 private:
  struct Frontier {
    std::uint32_t block = 0;
    std::uint32_t next_page = 0;
    bool open = false;
  };

  std::uint32_t pick_free_block() const;
  Frontier& frontier(Stream stream);
  const Frontier& frontier(Stream stream) const;
  // Refresh the block's victim-index entry from its valid count and
  // stamp (no-op while the block is not closed).
  void index_update(std::uint32_t block);

  AllocatorConfig config_;
  std::vector<BlockState> states_;
  std::vector<std::uint32_t> erase_counts_;
  std::vector<std::uint64_t> last_write_;
  // Per-block valid pages, fed through on_page_mapped /
  // on_page_invalidated; drives the victim index.
  std::vector<std::uint32_t> valid_;
  VictimIndex victims_;
  FreeBlockIndex free_index_;
  Frontier host_;
  Frontier gc_;
  std::size_t free_count_ = 0;
};

template <class ValidCountFn>
std::optional<std::uint32_t> DieAllocator::pick_victim_scored(
    policy::Gc gc, const ValidCountFn& valid_count,
    std::uint64_t now) const {
  std::optional<std::uint32_t> best;
  double best_score = 0.0;
  for (std::uint32_t b = 0; b < config_.blocks; ++b) {
    if (states_[b] != BlockState::kClosed) continue;
    const std::uint32_t valid = valid_count(b);
    if (valid >= config_.pages_per_block) continue;  // nothing to reclaim
    const double candidate = policy::gc_score(
        gc, valid, config_.pages_per_block, last_write_[b], now);
    // Strict > keeps the lowest-id winner on ties (deterministic).
    if (!best.has_value() || candidate > best_score) {
      best = b;
      best_score = candidate;
    }
  }
  return best;
}

}  // namespace xlf::ftl
