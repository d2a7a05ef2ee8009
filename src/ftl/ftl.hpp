// The flash translation layer: logical-block addressing over N dies
// of (NAND device + memory controller) pairs.
//
// What it adds over the raw controller stack:
//  * out-of-place writes through the L2P map (no host-visible
//    erase-before-write);
//  * garbage collection with hot/cold frontier separation, charged to
//    the die as foreground time — victim selection under a policy::Gc
//    ("greedy", "cost-benefit");
//  * wear leveling over FTL-visible erase counters under a
//    policy::Wear ("none", "dynamic", "static");
//  * a background scrub pass (`scrub()`) under a policy::Refresh
//    ("none", "retention_aware"): blocks whose predicted
//    post-retention RBER would outgrow the t their pages were written
//    with are preventively re-programmed;
//  * accelerated aging (`pe_cycles_per_erase`) so a short simulated
//    run can traverse the device lifetime the paper's schedule spans;
//  * wear-aware per-block operating points: before every program the
//    target block's own P/E count is fed to the controller's
//    reliability manager, which re-selects the BCH correction
//    capability t — the paper's (algo, t) schedule applied at block
//    granularity. Hot blocks (high wear from GC churn) get a larger t
//    than cold blocks in the same run, and every page remembers the t
//    it was written with, so reads decode correctly either way;
//  * crash consistency: every program writes an OOB record (LBA,
//    monotonic seq, stream, clock stamp) beside the page's t byte in
//    its spare area, trims journal tombstones that flush() persists, and
//    rebuild_from_oob() reconstructs the whole DRAM state — L2P map,
//    valid counts, frontiers, erase counters — from the surviving
//    NAND after a power loss (see fault.hpp for the
//    injection hooks and ARCHITECTURE.md for the crash model);
//  * grown-bad blocks: an erase failure (FaultInjector-injected)
//    retires the block into the device's durable bad-block table;
//    retired blocks are never allocated, never collected, excluded
//    from the wear spread, and stay retired across remounts.
//
// FtlConfig holds the three strategies as policy enums; specs and
// flags name them by string and parse once at the configuration edge.
//
// LPA -> die affinity is `lpa % dies` (page-level striping):
// sequential host streams fan out across channels, and each die's GC
// is self-contained.
//
// Single-threaded and deterministic: the FTL mutates controller and
// map state at issue time; the caller (SsdSimulator) turns the
// returned io/cell durations into timeline events.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/controller/controller.hpp"
#include "src/ftl/allocator.hpp"
#include "src/ftl/durable.hpp"
#include "src/ftl/fault.hpp"
#include "src/ftl/mapping.hpp"
#include "src/policy/policy.hpp"

namespace xlf::ftl {

struct FtlConfig {
  // Policy-plane strategies (see src/policy/policy.hpp).
  policy::Gc gc_policy = policy::Gc::kGreedy;
  policy::Wear wear_policy = policy::Wear::kDynamic;
  policy::Refresh refresh_policy = policy::Refresh::kNone;
  // GC reclaims until a die's free-block count exceeds this floor
  // (>= 1 guarantees relocation frontiers can always open a block).
  std::uint32_t gc_free_blocks = 1;
  // Share of physical pages exposed as logical capacity; the rest is
  // over-provisioning. Each die must keep room for its two write
  // frontiers plus the free floor beside its logical share, which at
  // the simulated block counts (a handful per die — the bit-true
  // array is expensive) caps the usable fraction well below a real
  // drive's ~0.93.
  double logical_fraction = 0.6;
  // Static wear leveling swaps a cold block out when the die's erase
  // spread (max - min) exceeds this.
  std::uint32_t static_wl_spread = 8;
  // Lifetime compression: device wear advances this many P/E cycles
  // per FTL erase, so block ages diverge across the paper's schedule
  // within an affordable number of simulated operations.
  double pe_cycles_per_erase = 1.0;
  // Retention horizon (hours) a scrub pass guards against — the
  // storage interval the refresh policy must keep decodable.
  double scrub_retention_hours = 1000.0;
};

// One host operation's outcome, with the service-time split the
// multi-die dispatcher needs (io = channel share, cell = die share;
// GC and wear-leveling overhead is folded into the cell share of the
// write that triggered it — foreground GC).
struct FtlOpResult {
  bool ok = true;
  bool unmapped = false;  // read of a never-written LPA (serviced as zeros)
  std::uint32_t die = 0;
  Seconds io_time{0.0};
  Seconds cell_time{0.0};
  Seconds gc_time{0.0};  // portion of cell_time spent on GC + WL
  unsigned t_used = 0;   // writes: correction capability selected
  BitVec data;           // reads: decoded payload
  unsigned corrected_bits = 0;
  bool uncorrectable = false;
  std::size_t relocations = 0;  // GC copies triggered by this op
  Joules ecc_energy{0.0};
  Joules nand_energy{0.0};
};

// One background scrub pass's outcome (see Ftl::scrub).
struct ScrubResult {
  std::uint64_t blocks_checked = 0;
  std::uint64_t blocks_refreshed = 0;
  std::uint64_t pages_relocated = 0;
  Seconds busy{0.0};
  Joules ecc_energy{0.0};
  Joules nand_energy{0.0};
};

struct FtlStats {
  std::uint64_t host_writes = 0;
  std::uint64_t host_reads = 0;
  std::uint64_t unmapped_reads = 0;
  // Host trim commands serviced / mapped pages they actually dropped
  // (a trim of a never-written LPA counts in the first, not the
  // second), and flush barriers acknowledged.
  std::uint64_t host_trims = 0;
  std::uint64_t trimmed_pages = 0;
  std::uint64_t host_flushes = 0;
  std::uint64_t gc_relocations = 0;
  std::uint64_t erases = 0;
  std::uint64_t wl_swaps = 0;
  // Background scrub activity: blocks preventively re-programmed by
  // the refresh policy, and the page copies that took.
  std::uint64_t refresh_blocks = 0;
  std::uint64_t refresh_relocations = 0;
  // Relocation reads that came back uncorrectable (data propagated
  // as decoded; the mismatch surfaces in the simulator's verify).
  std::uint64_t gc_uncorrectable = 0;
  // Trim tombstones journaled by flush barriers (one per LPA still
  // trimmed at the flush), and blocks retired to the bad-block table,
  // this mount.
  std::uint64_t flushed_tombstones = 0;
  std::uint64_t bad_blocks = 0;
  // Spread of the per-block correction capability the reliability
  // manager assigned across all programs of the run.
  unsigned min_t_used = std::numeric_limits<unsigned>::max();
  unsigned max_t_used = 0;

  // (host + GC) writes per host write; the FTL's defining overhead.
  double write_amplification() const {
    if (host_writes == 0) return 0.0;
    return static_cast<double>(host_writes + gc_relocations) /
           static_cast<double>(host_writes);
  }
};

class Ftl {
 public:
  // One controller per die; non-owning, all dies must share a
  // geometry. The FTL drives each controller's reliability manager
  // and ECC configuration per block. `durable` is the device's
  // durable metadata region (trim journal + counter checkpoint); it
  // must outlive the Ftl and survive remounts — nullptr falls back to
  // an internal instance for single-mount use.
  Ftl(const FtlConfig& config,
      std::vector<controller::MemoryController*> dies,
      DurableMeta* durable = nullptr);

  const FtlConfig& config() const { return config_; }
  std::uint32_t dies() const {
    return static_cast<std::uint32_t>(controllers_.size());
  }
  std::uint32_t logical_pages() const { return map_.logical_pages(); }
  std::uint32_t die_of(Lpa lpa) const { return lpa % dies(); }
  const PageMap& map() const { return map_; }
  const FtlStats& stats() const { return stats_; }

  bool mapped(Lpa lpa) const { return map_.mapped(lpa); }

  // Out-of-place host write; may trigger GC / wear leveling on the
  // target die first (charged to the result's cell share).
  FtlOpResult write(Lpa lpa, const BitVec& data);
  // Host read through the map. Unmapped LPAs are serviced as zero
  // pages without touching flash (`unmapped` flag set).
  FtlOpResult read(Lpa lpa);
  // Host trim/deallocate: drop the LPA's mapping and invalidate its
  // physical page. Metadata-only (no flash op, zero service time) —
  // but the invalidated page lowers its block's valid count, which is
  // exactly the GC victim signal, so trimmed workloads reclaim blocks
  // with fewer relocations. The trim also buffers a tombstone in DRAM;
  // only the next flush() makes the deallocation durable (until then
  // a crash may resurrect the LPA — advisory-deallocate semantics).
  // Trimming a never-written LPA is a no-op with `unmapped` set,
  // mirroring the read path.
  FtlOpResult trim(Lpa lpa);
  // Host flush/durability barrier. Writes are durable at acknowledge
  // (data + OOB record land in one program), so the barrier's real
  // work is the metadata that is NOT write-through: every pending
  // trim tombstone is persisted into the durable journal, and the
  // (seq, clock) checkpoint is refreshed. After a completed flush,
  // rebuild_from_oob() is exact for everything acknowledged before
  // it. Zero modeled service time (journal appends ride the system
  // block; ordering against in-flight commands is the driver's job —
  // the simulator holds a flush until every previously issued command
  // of its queue completes).
  FtlOpResult flush();

  // Background scrub: every closed block is offered to the refresh
  // policy with its wear, its pages' t budget and the configured
  // retention horizon; accepted blocks have their live data relocated
  // (re-programmed fresh, with re-adapted t) and are erased. Runs
  // outside any host request's accounting — the returned busy time is
  // the maintenance cost a deployment would schedule into idle
  // windows.
  ScrubResult scrub();

  // --- crash consistency ----------------------------------------------
  // Attach the fault plane (non-owning; nullptr detaches). The FTL
  // consults it at every program/erase/flush step.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }
  // Mount path: reset the DRAM state and reconstruct it from the
  // surviving NAND — scan every non-retired block's OOB records,
  // merge them with the durable trim journal, and replay in sequence
  // order (highest seq wins per LPA). Torn pages (programmed cells,
  // no OOB record) are treated as never written; a partially written
  // block reopens as the write frontier of the stream that was
  // filling it. Call on a freshly constructed Ftl over the same
  // controllers and DurableMeta as the pre-crash instance.
  void rebuild_from_oob();
  // Full cross-structure invariant audit (L2P/P2L inverse, valid
  // counters, allocator states, frontiers, bad-block table). Throws
  // std::logic_error on the first violation; O(physical pages).
  void check_consistency() const;

  std::uint64_t sequence() const { return seq_; }
  std::uint64_t logical_clock() const { return clock_; }
  // LPAs with a trim no flush has journaled yet; at most
  // logical_pages().
  std::size_t pending_trims() const { return pending_trims_.size(); }
  const DurableMeta& durable() const { return *durable_; }
  const DieAllocator& allocator(std::uint32_t die) const {
    return allocators_.at(die);
  }
  bool is_bad(std::uint32_t die, std::uint32_t block) const;

  // --- wear / configuration visibility --------------------------------
  double wear(std::uint32_t die, std::uint32_t block) const;
  std::uint32_t erase_count(std::uint32_t die, std::uint32_t block) const;
  // The correction capability of the block's newest recorded page,
  // read from its spare-area t byte: 0 for a retired block or one with
  // no OOB record.
  unsigned block_t(std::uint32_t die, std::uint32_t block) const;
  double min_wear() const;
  double max_wear() const;

 private:
  controller::MemoryController& ctrl(std::uint32_t die) {
    return *controllers_[die];
  }
  nand::NandDevice& device(std::uint32_t die) {
    return controllers_[die]->device();
  }
  const nand::NandDevice& device(std::uint32_t die) const {
    return static_cast<const controller::MemoryController*>(controllers_[die])
        ->device();
  }
  // Fault-plane hook: no-op without an injector.
  void fault(FaultPoint point) {
    if (fault_ != nullptr) fault_->hit(point);
  }
  // PageMap transitions routed through the allocators' valid counts
  // (the victim-index feed). All Ftl code paths —
  // host writes, GC relocation, trim, mount replay — use these
  // instead of touching map_.map/unmap directly.
  void map_page(Lpa lpa, Ppa ppa);
  void unmap_page(Lpa lpa);
  // Reliability manager pass for the target block's own wear; records
  // the chosen t in the run's t spread.
  unsigned adapt_block_t(std::uint32_t die, std::uint32_t block);
  // Reclaim until the die's free count clears the floor; returns die
  // busy time spent.
  Seconds ensure_capacity(std::uint32_t die, FtlOpResult& result);
  // Move every valid page of `block` to the GC frontier.
  Seconds relocate_valid_pages(std::uint32_t die, std::uint32_t block,
                               FtlOpResult& result);
  // Erase + wear acceleration + allocator/map bookkeeping.
  Seconds erase_block(std::uint32_t die, std::uint32_t block);
  // One static wear-leveling swap when the spread warrants it.
  Seconds maybe_static_swap(std::uint32_t die, FtlOpResult& result);

  FtlConfig config_;
  std::vector<controller::MemoryController*> controllers_;
  PageMap map_;
  std::vector<DieAllocator> allocators_;
  std::uint64_t clock_ = 0;  // logical write stamp (cost-benefit age)
  std::uint64_t seq_ = 0;    // OOB/tombstone sequence counter
  // Trims accepted but not yet flushed (lost on power loss): one entry
  // per LPA, flagged in trim_pending_, so the buffer is bounded by the
  // logical pages however many trims a flush-free stream issues. Both
  // are sized at the first effective trim.
  std::vector<Lpa> pending_trims_;
  std::vector<bool> trim_pending_;
  DurableMeta* durable_ = nullptr;  // external or &owned_durable_
  DurableMeta owned_durable_;
  FaultInjector* fault_ = nullptr;  // non-owning fault plane
  FtlStats stats_;
};

}  // namespace xlf::ftl
