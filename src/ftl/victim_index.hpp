// Incrementally maintained indexes over the per-die block population,
// replacing the O(blocks) scans on the two allocation hot paths:
//
//  * VictimIndex — GC victim selection. Closed blocks are bucketed by
//    valid-page count; each bucket is a lazy binary min-heap ordered by
//    the policy's within-bucket tie-break key. For "greedy" the key is
//    the block id alone (every block in a bucket scores the same, and
//    the oracle breaks ties toward the lowest id). For "cost-benefit"
//    the key is (last_write, id): for a fixed valid count the score is
//    non-increasing in last_write, so the minimal key is the maximal
//    score with the lowest id among score ties. A pick scans the
//    pages_per_block bucket heads, scores each through the oracle's
//    own policy::gc_score (bit-identical floating point), and keeps
//    the argmax with the oracle's strict-> / lowest-id rule — so the
//    result matches DieAllocator::pick_victim_scored byte for byte.
//
//  * FreeBlockIndex — free-block preference. The wear policy's
//    free_block_score is a pure function of the erase count, so a
//    score snapshot taken when the block turns free stays valid until
//    the block leaves the free state. A lazy max-heap over
//    (score, lowest id) replicates the linear scan for every wear
//    policy.
//
// Both indexes use lazy deletion: an update pushes a fresh entry and
// bumps the block's version; stale entries are discarded when they
// surface at a heap top. A size-triggered compaction bounds memory at
// O(blocks) amortized. Determinism: entries order by (key, id) only —
// no pointers, no hashing — so picks are bit-reproducible.
//
// Key invariant (cost-benefit): pick-time `now` must be >= every
// stored last_write stamp. Ftl's logical clock is monotonic and
// stamps copy it, so the within-bucket score ordering "older stamp =
// higher score" never inverts under the age clamp in the policy.
#pragma once

#include <cstdint>
#include <vector>

#include "src/policy/policy.hpp"

namespace xlf::ftl {

class VictimIndex {
 public:
  // Index for GC policy `gc` (the bucket key is its tie-break).
  void reset(policy::Gc gc, std::uint32_t blocks,
             std::uint32_t pages_per_block);

  // Record the current (valid count, last_write stamp) of a closed
  // block. Any earlier entry for the block becomes stale. Blocks with
  // valid == pages_per_block are tracked but not stored (nothing to
  // reclaim — the oracle skips them too).
  void update(std::uint32_t block, std::uint32_t valid,
              std::uint64_t last_write);

  // Drop the block from the index (erase, retire, or reopen).
  void remove(std::uint32_t block);

  // Call visit(block, valid) on the minimal-key live entry of every
  // non-empty bucket, in ascending valid-count order. Purges stale
  // entries as they surface (hence the mutable heaps).
  // xlf: hot — the whole point of the index is an allocation-free pick.
  template <class Visit>
  void for_each_head(Visit&& visit) const {
    for (std::uint32_t v = 0; v < buckets_.size(); ++v) {
      purge(v);
      if (!buckets_[v].empty()) visit(buckets_[v].front().block, v);
    }
  }

 private:
  struct Entry {
    std::uint64_t key = 0;  // last_write for cost-benefit, 0 for greedy
    std::uint32_t block = 0;
    std::uint32_t version = 0;
  };
  static constexpr std::uint32_t kNoBucket = 0xFFFFFFFFu;

  bool live(const Entry& entry, std::uint32_t bucket) const {
    return entry.version == version_[entry.block] &&
           bucket_of_[entry.block] == bucket;
  }
  void purge(std::uint32_t bucket) const;
  void compact();

  policy::Gc gc_ = policy::Gc::kGreedy;
  std::uint32_t blocks_ = 0;
  std::uint32_t pages_per_block_ = 0;
  // buckets_[v] holds candidates whose latest valid count is v
  // (v < pages_per_block); min-heap on (key, block id).
  mutable std::vector<std::vector<Entry>> buckets_;
  std::vector<std::uint32_t> version_;    // latest pushed version per block
  std::vector<std::uint32_t> bucket_of_;  // bucket of the latest update
  mutable std::size_t entries_ = 0;       // live + stale, across buckets
};

class FreeBlockIndex {
 public:
  void reset(std::uint32_t blocks);

  // Record the block as free with the given preference score (the
  // wear policy's free_block_score at its current erase count).
  void push(std::uint32_t block, double score);

  // The block left the free state (opened, or restored non-free).
  void remove(std::uint32_t block);

  // Best live entry: highest score, lowest block id on ties — the
  // same rule as the linear scan it replaces. Returns kNone (no live
  // entry) only when no block is free.
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::uint32_t best() const;

 private:
  struct Entry {
    double score = 0.0;
    std::uint32_t block = 0;
    std::uint32_t version = 0;
  };

  bool live(const Entry& entry) const {
    return entry.version == version_[entry.block] && is_free_[entry.block] != 0;
  }
  void compact();

  mutable std::vector<Entry> heap_;  // max-heap on (score, -block id)
  std::vector<std::uint32_t> version_;
  std::vector<std::uint8_t> is_free_;  // latest push still stands
};

}  // namespace xlf::ftl
