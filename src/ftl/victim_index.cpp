#include "src/ftl/victim_index.hpp"

#include <algorithm>

#include "src/util/expect.hpp"

namespace xlf::ftl {

namespace {

// a sinks below b (max-heap `less`) when a's (key, id) is larger:
// the heap front is then the minimal (key, id) — the bucket head.
inline bool victim_less(const std::uint64_t a_key, const std::uint32_t a_block,
                        const std::uint64_t b_key, const std::uint32_t b_block) {
  if (a_key != b_key) return a_key > b_key;
  return a_block > b_block;
}

}  // namespace

// xlf: cold — reconfiguration: rebuilds the bucket arena before a
// run starts, never while commands are in flight.
void VictimIndex::reset(policy::Gc gc, std::uint32_t blocks,
                        std::uint32_t pages_per_block) {
  gc_ = gc;
  blocks_ = blocks;
  pages_per_block_ = pages_per_block;
  buckets_.clear();
  entries_ = 0;
  buckets_.resize(pages_per_block_);
  version_.assign(blocks_, 0);
  bucket_of_.assign(blocks_, kNoBucket);
}

void VictimIndex::update(std::uint32_t block, std::uint32_t valid,
                         std::uint64_t last_write) {
  XLF_EXPECT(block < blocks_ && valid <= pages_per_block_);
  ++version_[block];
  bucket_of_[block] = valid;
  // Fully valid blocks have nothing to reclaim; the version bump above
  // already retired any earlier entry, so they carry no storage.
  if (valid >= pages_per_block_) return;
  const std::uint64_t key = gc_ == policy::Gc::kCostBenefit ? last_write : 0;
  auto& bucket = buckets_[valid];
  // Lazy-deletion insert: capacity recycles once purge() has run.
  bucket.push_back(Entry{key, block, version_[block]});  // xlf-lint: allow(hot-alloc)
  std::push_heap(bucket.begin(), bucket.end(),
                 [](const Entry& a, const Entry& b) {
                   return victim_less(a.key, a.block, b.key, b.block);
                 });
  ++entries_;
  if (entries_ > 4 * static_cast<std::size_t>(blocks_) + 64) compact();
}

void VictimIndex::remove(std::uint32_t block) {
  XLF_EXPECT(block < blocks_);
  ++version_[block];
  bucket_of_[block] = kNoBucket;
}

// xlf: hot — lazy-deletion pops on the pick path; shrink-only.
void VictimIndex::purge(std::uint32_t bucket) const {
  auto& heap = buckets_[bucket];
  while (!heap.empty() && !live(heap.front(), bucket)) {
    std::pop_heap(heap.begin(), heap.end(),
                  [](const Entry& a, const Entry& b) {
                    return victim_less(a.key, a.block, b.key, b.block);
                  });
    heap.pop_back();
    --entries_;
  }
}

void VictimIndex::compact() {
  // Keep only the live entry per block; rebuilt heaps stay heaps
  // because make_heap runs per bucket. O(blocks) amortized: the
  // trigger requires entries_ to have grown past 4x blocks.
  entries_ = 0;
  for (std::uint32_t v = 0; v < buckets_.size(); ++v) {
    auto& bucket = buckets_[v];
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                [&](const Entry& e) { return !live(e, v); }),
                 bucket.end());
    std::make_heap(bucket.begin(), bucket.end(),
                   [](const Entry& a, const Entry& b) {
                     return victim_less(a.key, a.block, b.key, b.block);
                   });
    entries_ += bucket.size();
  }
}

void FreeBlockIndex::reset(std::uint32_t blocks) {
  heap_.clear();
  version_.assign(blocks, 0);
  is_free_.assign(blocks, 0);
}

namespace {

// Max-heap on (score, lowest id): a sinks below b when a's score is
// smaller, or equal-scored with a higher id.
inline bool free_entry_less(double a_score, std::uint32_t a_block,
                            double b_score, std::uint32_t b_block) {
  if (a_score != b_score) return a_score < b_score;
  return a_block > b_block;
}

}  // namespace

void FreeBlockIndex::push(std::uint32_t block, double score) {
  XLF_EXPECT(block < version_.size());
  ++version_[block];
  is_free_[block] = 1;
  // Free-heap insert: capacity recycles after the first GC cycle.
  heap_.push_back(Entry{score, block, version_[block]});  // xlf-lint: allow(hot-alloc)
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const Entry& a, const Entry& b) {
                   return free_entry_less(a.score, a.block, b.score, b.block);
                 });
  if (heap_.size() > 4 * version_.size() + 64) compact();
}

void FreeBlockIndex::remove(std::uint32_t block) {
  XLF_EXPECT(block < version_.size());
  ++version_[block];
  is_free_[block] = 0;
}

// xlf: hot — every open-block choice lands here; shrink-only pops.
std::uint32_t FreeBlockIndex::best() const {
  while (!heap_.empty() && !live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(),
                  [](const Entry& a, const Entry& b) {
                    return free_entry_less(a.score, a.block, b.score, b.block);
                  });
    heap_.pop_back();
  }
  return heap_.empty() ? kNone : heap_.front().block;
}

void FreeBlockIndex::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [&](const Entry& e) { return !live(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const Entry& a, const Entry& b) {
                   return free_entry_less(a.score, a.block, b.score, b.block);
                 });
}

}  // namespace xlf::ftl
