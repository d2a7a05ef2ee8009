#include "src/ftl/ftl.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/util/expect.hpp"
#include "src/util/log.hpp"

namespace xlf::ftl {

Ftl::Ftl(const FtlConfig& config,
         std::vector<controller::MemoryController*> dies,
         DurableMeta* durable)
    : config_(config),
      controllers_(std::move(dies)),
      map_(1, 1, 2, 1),  // placeholder; rebuilt below once validated
      clock_(0),
      durable_(durable != nullptr ? durable : &owned_durable_) {
  XLF_EXPECT(!controllers_.empty());
  XLF_EXPECT_MSG(config_.gc_free_blocks >= 1,
                 "gc_free_blocks=" + std::to_string(config_.gc_free_blocks) +
                     " must be >= 1 so relocation frontiers can always open "
                     "a block");
  XLF_EXPECT_MSG(
      config_.logical_fraction > 0.0 && config_.logical_fraction < 1.0,
      [&] {
        std::ostringstream msg;
        msg << "logical_fraction=" << config_.logical_fraction
            << " must lie in (0, 1): the share above the logical space is "
               "the over-provisioning GC lives on";
        return msg.str();
      }());
  XLF_EXPECT_MSG(config_.pe_cycles_per_erase >= 1.0, [&] {
    std::ostringstream msg;
    msg << "pe_cycles_per_erase=" << config_.pe_cycles_per_erase
        << " must be >= 1 (every FTL erase is at least one physical cycle)";
    return msg.str();
  }());

  const nand::Geometry& geometry = controllers_.front()->device().geometry();
  for (const auto* c : controllers_) {
    XLF_EXPECT(c != nullptr);
    XLF_EXPECT(c->device().geometry().blocks == geometry.blocks);
    XLF_EXPECT(c->device().geometry().pages_per_block ==
               geometry.pages_per_block);
  }
  // Counted in 64 bits: the pages must fit the 32-bit page space (Lpa;
  // kUnmapped stays free as the sentinel).
  const std::uint64_t physical = std::uint64_t{geometry.blocks} *
                                 geometry.pages_per_block *
                                 controllers_.size();
  XLF_EXPECT(physical <= kUnmapped && "past the FTL's 32-bit page space");
  const std::uint32_t die_count = this->dies();
  const auto logical = static_cast<std::uint32_t>(
      static_cast<double>(physical) * config_.logical_fraction);
  XLF_EXPECT_MSG(logical >= 1, [&] {
    std::ostringstream msg;
    msg << "logical_fraction=" << config_.logical_fraction
        << " leaves no logical space: " << physical << " physical pages x "
        << config_.logical_fraction << " rounds down to 0 logical pages";
    return msg.str();
  }());

  // GC progress needs slack on every die: the host and GC frontiers
  // plus the free-block floor must fit beside the die's share of the
  // logical space (lpa % dies affinity).
  const std::uint32_t per_die_logical_max =
      logical / die_count + (logical % die_count != 0 ? 1 : 0);
  const std::uint64_t slack_blocks =
      std::uint64_t{config_.gc_free_blocks} + 2;
  XLF_EXPECT_MSG(geometry.blocks > slack_blocks, [&] {
    std::ostringstream msg;
    msg << "blocks=" << geometry.blocks << " per die cannot host the "
        << slack_blocks << " slack blocks GC needs (gc_free_blocks="
        << config_.gc_free_blocks << " + 2 write frontiers)";
    return msg.str();
  }());
  XLF_EXPECT_MSG(
      per_die_logical_max <=
          (geometry.blocks - slack_blocks) * geometry.pages_per_block,
      [&] {
        std::ostringstream msg;
        msg << "logical_fraction=" << config_.logical_fraction
            << " leaves less than gc_free_blocks+2=" << slack_blocks
            << " blocks of slack per die: up to " << per_die_logical_max
            << " logical pages land on one die but only "
            << (geometry.blocks - slack_blocks) * geometry.pages_per_block
            << " fit beside the slack (" << die_count << " dies, blocks="
            << geometry.blocks << ", pages_per_block="
            << geometry.pages_per_block
            << "); lower logical_fraction or gc_free_blocks, or grow the die";
        return msg.str();
      }());

  map_ = PageMap(die_count, geometry.blocks, geometry.pages_per_block, logical);
  AllocatorConfig alloc_config;
  alloc_config.blocks = geometry.blocks;
  alloc_config.pages_per_block = geometry.pages_per_block;
  alloc_config.wear = config_.wear_policy;
  alloc_config.gc = config_.gc_policy;
  allocators_.assign(die_count, DieAllocator(alloc_config));
}

void Ftl::map_page(Lpa lpa, Ppa ppa) {
  // Every map transition feeds the allocators' valid counts (and
  // through them the victim index): +1 on the new block, -1 on the
  // displaced copy's block when the LPA was mapped.
  const Ppa old = map_.map(lpa, ppa);
  allocators_[ppa.die].on_page_mapped(ppa.block);
  if (old.valid()) allocators_[old.die].on_page_invalidated(old.block);
}

void Ftl::unmap_page(Lpa lpa) {
  const Ppa old = map_.unmap(lpa);
  allocators_[old.die].on_page_invalidated(old.block);
}

unsigned Ftl::adapt_block_t(std::uint32_t die, std::uint32_t block) {
  // The paper's schedule at block granularity: the reliability
  // manager re-selects t for the target block's own P/E count, and
  // each page's spare-area t byte lets older pages still decode at
  // the t they were written with.
  const unsigned t = ctrl(die).adapt_ecc(device(die).wear(block));
  stats_.min_t_used = std::min(stats_.min_t_used, t);
  stats_.max_t_used = std::max(stats_.max_t_used, t);
  return t;
}

// xlf: durable — erase pairs with the bad-block table and counter
// records; the kill-window tests own this interior (ack-order stops
// here).
Seconds Ftl::erase_block(std::uint32_t die, std::uint32_t block) {
  fault(FaultPoint::kBeforeErase);
  nand::NandDevice& dev = device(die);
  if (fault_ != nullptr && fault_->should_fail(die, block)) {
    // Grown-bad: the erase fails and the block retires into the
    // durable bad-block table. Its data is already fully invalid
    // (victims are erased only after relocation), so only the
    // bookkeeping moves: no wear bump, no erase count, no free slot.
    // The die still spent the attempt's time going busy.
    dev.mark_bad(block);
    allocators_[die].retire(block);
    ++stats_.bad_blocks;
    log_info() << "erase failure: die " << die << " block " << block
               << " retired to the bad-block table";
    return dev.timing().erase_time();
  }
  // Accelerated aging: bump the wear before the physical erase adds
  // its own cycle, so one FTL erase stands for pe_cycles_per_erase
  // cycles of the compressed deployment.
  if (config_.pe_cycles_per_erase > 1.0) {
    dev.set_wear(block, dev.wear(block) + config_.pe_cycles_per_erase - 1.0);
  }
  const Seconds busy = ctrl(die).erase_block(block);
  allocators_[die].on_erase(block);
  ++stats_.erases;
  fault(FaultPoint::kAfterErase);
  return busy;
}

// xlf: durable — every page moved here writes its OOB record before
// the mapping flips (see the mid-GC kill windows).
Seconds Ftl::relocate_valid_pages(std::uint32_t die, std::uint32_t block,
                                  FtlOpResult& result) {
  Seconds busy{0.0};
  DieAllocator& alloc = allocators_[die];
  const std::uint32_t ppb =
      controllers_.front()->device().geometry().pages_per_block;
  for (std::uint32_t p = 0; p < ppb; ++p) {
    const Ppa src{die, block, p};
    if (!map_.valid(src)) continue;
    const Lpa owner = map_.lpa_at(src);

    fault(FaultPoint::kBeforeGcProgram);
    const controller::ReadResult rd = ctrl(die).read_page({block, p});
    if (rd.uncorrectable) ++stats_.gc_uncorrectable;

    const auto [dst_block, dst_page] = alloc.take_page(DieAllocator::Stream::kGc);
    adapt_block_t(die, dst_block);
    const controller::WriteResult wr =
        ctrl(die).write_page({dst_block, dst_page}, rd.data);
    // The torn-program window: data committed, record not yet. A kill
    // here leaves the source copy (lower seq, still on flash until
    // the erase below) as the LPA's surviving version.
    fault(FaultPoint::kMidGcProgram);
    device(die).write_oob({dst_block, dst_page}, {owner, ++seq_, 1, clock_});

    map_page(owner, Ppa{die, dst_block, dst_page});
    // Relocated data keeps the current logical time without advancing
    // it: GC traffic must not make victims look freshly written.
    alloc.stamp_write(dst_block, clock_);

    busy += rd.latency + wr.latency;
    result.ecc_energy += rd.ecc_energy + wr.ecc_energy;
    result.nand_energy += rd.nand_energy + wr.nand_energy;
    ++result.relocations;
    ++stats_.gc_relocations;
  }
  return busy;
}

Seconds Ftl::maybe_static_swap(std::uint32_t die, FtlOpResult& result) {
  // Only `static` swaps; testing it first keeps the other wear
  // policies off the two erase-counter scans below — this runs on
  // every host write.
  if (config_.wear_policy != policy::Wear::kStatic) return Seconds{0.0};
  DieAllocator& alloc = allocators_[die];
  // Swap only once the erase spread outgrows the tolerance: pinned-
  // cold data is what dynamic leveling alone cannot reach.
  if (alloc.max_erase_count() - alloc.min_erase_count() <=
      config_.static_wl_spread) {
    return Seconds{0.0};
  }
  if (alloc.free_count() == 0) return Seconds{0.0};
  const std::optional<std::uint32_t> cold = alloc.pick_coldest();
  if (!cold.has_value()) return Seconds{0.0};
  // Evict the cold block's pinned data so the low-wear block rejoins
  // the free pool, where dynamic allocation hands it to hot traffic.
  Seconds busy = relocate_valid_pages(die, *cold, result);
  busy += erase_block(die, *cold);
  ++stats_.wl_swaps;
  return busy;
}

Seconds Ftl::ensure_capacity(std::uint32_t die, FtlOpResult& result) {
  Seconds busy{0.0};
  DieAllocator& alloc = allocators_[die];
  const nand::Geometry& geometry = controllers_.front()->device().geometry();
  // Hard bound on GC iterations: every round reclaims at least one
  // invalid page, so a pass over every physical page is a safe guard
  // against a policy bug spinning forever.
  std::size_t rounds = 0;
  const std::size_t max_rounds =
      static_cast<std::size_t>(geometry.blocks) * geometry.pages_per_block + 1;
  while (alloc.free_count() <= config_.gc_free_blocks) {
    const std::optional<std::uint32_t> victim = alloc.pick_victim(clock_);
    if (!victim.has_value()) break;  // nothing reclaimable yet
    busy += relocate_valid_pages(die, *victim, result);
    busy += erase_block(die, *victim);
    XLF_ENSURE(++rounds <= max_rounds);
  }
  busy += maybe_static_swap(die, result);
  return busy;
}

// xlf: durable — the program is paired with its OOB record inside;
// a write acknowledged above this boundary is rebuildable on mount.
FtlOpResult Ftl::write(Lpa lpa, const BitVec& data) {
  XLF_EXPECT(lpa < logical_pages());
  FtlOpResult result;
  const std::uint32_t die = die_of(lpa);
  result.die = die;

  const Seconds overhead = ensure_capacity(die, result);

  fault(FaultPoint::kBeforeHostProgram);
  const auto [block, page] =
      allocators_[die].take_page(DieAllocator::Stream::kHost);
  result.t_used = adapt_block_t(die, block);
  const controller::WriteResult wr = ctrl(die).write_page({block, page}, data);
  // Torn-program window (data on the cells, no OOB record): a kill
  // here must leave the LPA reading its previous version at rebuild.
  fault(FaultPoint::kMidHostProgram);
  ++clock_;
  device(die).write_oob({block, page}, {lpa, ++seq_, 0, clock_});
  result.ok = wr.ok;
  map_page(lpa, Ppa{die, block, page});
  allocators_[die].stamp_write(block, clock_);

  result.io_time = wr.io_latency;
  result.cell_time = (wr.latency - wr.io_latency) + overhead;
  result.gc_time = overhead;
  result.ecc_energy += wr.ecc_energy;
  result.nand_energy += wr.nand_energy;
  ++stats_.host_writes;
  return result;
}

FtlOpResult Ftl::read(Lpa lpa) {
  XLF_EXPECT(lpa < logical_pages());
  FtlOpResult result;
  result.die = die_of(lpa);
  if (!map_.mapped(lpa)) {
    // Never-written LPA: serviced from the map alone as a zero page,
    // no flash touched (a real FTL returns a deallocated pattern).
    // Metadata-only devices carry no payloads, so it stays empty.
    result.unmapped = true;
    const nand::NandDevice& device = controllers_.front()->device();
    if (device.config().data_plane) {
      result.data = BitVec(device.geometry().data_bits_per_page());
    }
    ++stats_.unmapped_reads;
    return result;
  }
  const Ppa ppa = map_.lookup(lpa);
  controller::ReadResult rd = ctrl(ppa.die).read_page({ppa.block, ppa.page});
  result.ok = rd.ok;
  result.data = std::move(rd.data);
  result.corrected_bits = rd.corrected_bits;
  result.uncorrectable = rd.uncorrectable;
  result.io_time = rd.io_latency;
  result.cell_time = rd.latency - rd.io_latency;
  result.ecc_energy += rd.ecc_energy;
  result.nand_energy += rd.nand_energy;
  ++stats_.host_reads;
  return result;
}

FtlOpResult Ftl::trim(Lpa lpa) {
  XLF_EXPECT(lpa < logical_pages());
  FtlOpResult result;
  result.die = die_of(lpa);
  ++stats_.host_trims;
  if (!map_.mapped(lpa)) {
    result.unmapped = true;
    return result;
  }
  unmap_page(lpa);
  // The deallocation is DRAM-only until a flush journals it. The seq
  // step ranks the trim above the LPA's writes so far, which the
  // flush's tombstone (at the then-current seq) relies on.
  ++seq_;
  if (trim_pending_.empty()) {
    trim_pending_.resize(logical_pages());  // xlf-lint: allow(hot-alloc)
    pending_trims_.reserve(logical_pages());  // xlf-lint: allow(hot-alloc)
  }
  if (!trim_pending_[lpa]) {
    trim_pending_[lpa] = true;
    pending_trims_.push_back(lpa);  // xlf-lint: allow(hot-alloc)
  }
  ++stats_.trimmed_pages;
  return result;
}

// xlf: durable — the flush barrier itself.
FtlOpResult Ftl::flush() {
  // The durability barrier: page data is write-through (durable at
  // acknowledge), so what flush persists is the trim journal and the
  // counter checkpoint. Tombstones land one at a time — the kMidFlush
  // window models a power cut after a prefix of the journal append.
  FtlOpResult result;
  for (const Lpa lpa : pending_trims_) {
    trim_pending_[lpa] = false;
    // Rewritten since its trim: a tombstone would lose replay anyway.
    if (map_.mapped(lpa)) continue;
    fault(FaultPoint::kMidFlush);
    // Journal append: the durable record IS the operation here. At the
    // current seq the tombstone outranks every earlier write of the
    // LPA (its trim stepped the seq past them) and loses to every
    // later one.
    durable_->tombstones.push_back({lpa, seq_});  // xlf-lint: allow(hot-alloc)
    ++stats_.flushed_tombstones;
  }
  pending_trims_.clear();
  durable_->checkpoint_seq = seq_;
  durable_->checkpoint_clock = clock_;
  ++durable_->flush_epochs;
  ++stats_.host_flushes;
  return result;
}

ScrubResult Ftl::scrub() {
  ScrubResult scrub_result;
  const nand::Geometry& geometry = controllers_.front()->device().geometry();
  for (std::uint32_t d = 0; d < dies(); ++d) {
    const DieAllocator& alloc = allocators_[d];
    const nand::AgingLaw& law = device(d).config().array.aging;
    const controller::ReliabilityManager& rel = ctrl(d).reliability();
    // Snapshot the candidates before relocating anything: a refresh
    // fills the GC frontier, which can close a *new* block mid-pass,
    // and freshly re-programmed data must not be offered again in the
    // same pass (it would double-copy and double-count).
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t b = 0; b < geometry.blocks; ++b) {
      // Only closed blocks with live data are scrub candidates: open
      // frontiers are in active use and free blocks hold nothing.
      if (alloc.is_closed(b) && alloc.valid_count(b) > 0) {
        candidates.push_back(b);
      }
    }
    for (const std::uint32_t b : candidates) {
      // Re-check at visit time: an earlier refresh in this pass may
      // have recycled the block through the free list.
      if (!alloc.is_closed(b) || alloc.valid_count(b) == 0) continue;
      ++scrub_result.blocks_checked;

      policy::RefreshContext ctx;
      ctx.algo = ctrl(d).program_algorithm();
      ctx.pe_cycles = device(d).wear(b);
      ctx.page_t = block_t(d, b);
      ctx.retention_hours = config_.scrub_retention_hours;
      ctx.code = rel.code();
      ctx.uber_target = rel.config().uber_target;
      ctx.law = &law;
      if (!policy::should_refresh(config_.refresh_policy, ctx)) continue;

      // Refresh = relocate live data to fresh pages (re-encoded at a
      // re-adapted t) and reclaim the block. The copies ride the GC
      // frontier and counters, and are additionally accounted as
      // refresh traffic.
      FtlOpResult relocation;
      const std::uint64_t relocations_before = stats_.gc_relocations;
      scrub_result.busy += relocate_valid_pages(d, b, relocation);
      scrub_result.busy += erase_block(d, b);
      scrub_result.ecc_energy += relocation.ecc_energy;
      scrub_result.nand_energy += relocation.nand_energy;
      const std::uint64_t moved = stats_.gc_relocations - relocations_before;
      scrub_result.pages_relocated += moved;
      stats_.refresh_relocations += moved;
      ++scrub_result.blocks_refreshed;
      ++stats_.refresh_blocks;
    }
  }
  if (scrub_result.blocks_refreshed > 0) {
    log_info() << "scrub: refreshed " << scrub_result.blocks_refreshed
               << " of " << scrub_result.blocks_checked << " candidate blocks ("
               << scrub_result.pages_relocated << " pages)";
  }
  return scrub_result;
}

void Ftl::rebuild_from_oob() {
  const nand::Geometry& geometry = controllers_.front()->device().geometry();
  const std::uint32_t die_count = dies();
  const std::uint32_t ppb = geometry.pages_per_block;

  // Reset the DRAM state to the fresh-mount layout; the scan below
  // repopulates it. Counters start from the last flush's checkpoint
  // and advance to whatever the scan proves happened after it.
  map_ = PageMap(die_count, geometry.blocks, ppb, map_.logical_pages());
  AllocatorConfig alloc_config;
  alloc_config.blocks = geometry.blocks;
  alloc_config.pages_per_block = ppb;
  alloc_config.wear = config_.wear_policy;
  alloc_config.gc = config_.gc_policy;
  allocators_.assign(die_count, DieAllocator(alloc_config));
  for (const Lpa lpa : pending_trims_) trim_pending_[lpa] = false;
  pending_trims_.clear();
  stats_ = FtlStats{};
  clock_ = durable_->checkpoint_clock;
  seq_ = durable_->checkpoint_seq;

  struct Replay {
    std::uint64_t seq = 0;
    Lpa lpa = 0;
    Ppa ppa;  // invalid for tombstones
    bool tombstone = false;
  };
  std::vector<Replay> replay;

  for (std::uint32_t d = 0; d < die_count; ++d) {
    nand::NandDevice& dev = device(d);
    DieAllocator& alloc = allocators_[d];
    for (std::uint32_t b = 0; b < geometry.blocks; ++b) {
      const std::uint32_t erases = dev.erase_count(b);
      if (dev.is_bad(b)) {
        // Retired for good; stale records inside are never replayed.
        alloc.restore(b, DieAllocator::BlockState::kBad, erases, 0);
        continue;
      }
      std::uint64_t block_stamp = 0;  // newest program's clock stamp
      std::uint64_t best_seq = 0;
      std::uint8_t last_stream = 0;
      bool any = false;
      for (std::uint32_t p = 0; p < ppb; ++p) {
        const std::optional<nand::OobRecord>& rec = dev.oob({b, p});
        if (!rec.has_value()) continue;
        // The page's t byte, programmed with the data the record names.
        const unsigned t = dev.ecc_t({b, p});
        replay.push_back({rec->seq, rec->lba, Ppa{d, b, p}, false});
        if (rec->seq >= best_seq) {
          best_seq = rec->seq;
          last_stream = rec->stream;
        }
        block_stamp = std::max(block_stamp, rec->stamp);
        clock_ = std::max(clock_, rec->stamp);
        seq_ = std::max(seq_, rec->seq);
        stats_.min_t_used = std::min(stats_.min_t_used, t);
        stats_.max_t_used = std::max(stats_.max_t_used, t);
        any = true;
      }
      // Frontier rule: the erased-and-unrecorded suffix is where the
      // block's append position stood. A torn page (programmed cells,
      // no record) stops the suffix scan — it sits below the frontier
      // as an invalid page until the block's next erase.
      std::uint32_t next = ppb;
      while (next > 0 && !dev.oob({b, next - 1}).has_value() &&
             !dev.page_programmed({b, next - 1})) {
        --next;
      }
      if (next == 0) {
        alloc.restore(b, DieAllocator::BlockState::kFree, erases, 0);
      } else if (next == ppb || !any) {
        // Full, or holding nothing but torn pages (a kill on the very
        // first program of a fresh block): closed either way, so GC
        // reclaims it through the normal victim path.
        alloc.restore(b, DieAllocator::BlockState::kClosed, erases,
                      block_stamp);
      } else {
        // Partially written: reopen as the write frontier of the
        // stream that was filling it (at most one such block per
        // stream — append-only discipline). The defensive fallback
        // closes a second claimant rather than corrupt the frontier.
        const DieAllocator::Stream stream =
            last_stream == 0 ? DieAllocator::Stream::kHost
                             : DieAllocator::Stream::kGc;
        if (alloc.frontier_view(stream).open) {
          alloc.restore(b, DieAllocator::BlockState::kClosed, erases,
                        block_stamp);
        } else {
          alloc.restore_frontier(stream, b, next, erases, block_stamp);
        }
      }
    }
  }

  for (const TrimTombstone& tombstone : durable_->tombstones) {
    replay.push_back({tombstone.seq, tombstone.lpa, Ppa{}, true});
    seq_ = std::max(seq_, tombstone.seq);
  }

  // Replay in sequence order: for every LPA the highest surviving seq
  // wins — later writes supersede earlier ones, a journaled trim
  // invalidates everything before it and loses to any rewrite after.
  std::sort(replay.begin(), replay.end(),
            [](const Replay& a, const Replay& b) { return a.seq < b.seq; });
  for (const Replay& r : replay) {
    if (r.tombstone) {
      // No-op when already superseded (double trim, GC'd copy, or a
      // journal entry whose write never survived).
      if (r.lpa < map_.logical_pages() && map_.mapped(r.lpa)) {
        unmap_page(r.lpa);
      }
      continue;
    }
    XLF_ENSURE(r.lpa < map_.logical_pages());
    // map_page keeps the allocators' valid counts — and with them the
    // victim index — in lockstep with the replay, so the index is
    // fully reconstructed by the time the mount returns.
    map_page(r.lpa, r.ppa);
  }
}

void Ftl::check_consistency() const {
  const nand::Geometry& geometry = controllers_.front()->device().geometry();
  // Every mapping round-trips through the P2L inverse and respects
  // the die affinity.
  for (Lpa lpa = 0; lpa < map_.logical_pages(); ++lpa) {
    if (!map_.mapped(lpa)) continue;
    const Ppa ppa = map_.lookup(lpa);
    XLF_ENSURE(ppa.die == die_of(lpa));
    XLF_ENSURE(ppa.block < geometry.blocks &&
               ppa.page < geometry.pages_per_block);
    XLF_ENSURE(map_.valid(ppa));
    XLF_ENSURE(map_.lpa_at(ppa) == lpa);
  }
  for (std::uint32_t d = 0; d < dies(); ++d) {
    const DieAllocator& alloc = allocators_[d];
    const nand::NandDevice& dev = device(d);
    std::size_t free_blocks = 0;
    std::size_t open_blocks = 0;
    for (std::uint32_t b = 0; b < geometry.blocks; ++b) {
      // Valid counter == recount of P2L-valid pages, each owned by a
      // live mapping.
      std::uint32_t valid = 0;
      for (std::uint32_t p = 0; p < geometry.pages_per_block; ++p) {
        const Ppa ppa{d, b, p};
        if (!map_.valid(ppa)) continue;
        const Lpa owner = map_.lpa_at(ppa);
        XLF_ENSURE(owner < map_.logical_pages());
        XLF_ENSURE(map_.mapped(owner) && map_.lookup(owner) == ppa);
        ++valid;
      }
      XLF_ENSURE(valid == alloc.valid_count(b));
      const DieAllocator::BlockState state = alloc.state(b);
      XLF_ENSURE(dev.is_bad(b) == (state == DieAllocator::BlockState::kBad));
      if (state == DieAllocator::BlockState::kFree ||
          state == DieAllocator::BlockState::kBad) {
        XLF_ENSURE(valid == 0);
      }
      if (state == DieAllocator::BlockState::kFree) ++free_blocks;
      if (state == DieAllocator::BlockState::kOpen) ++open_blocks;
    }
    XLF_ENSURE(free_blocks == alloc.free_count());
    // Open blocks and open frontiers are one and the same set.
    std::size_t open_frontiers = 0;
    for (const DieAllocator::Stream stream :
         {DieAllocator::Stream::kHost, DieAllocator::Stream::kGc}) {
      const DieAllocator::FrontierView f = alloc.frontier_view(stream);
      if (!f.open) continue;
      ++open_frontiers;
      XLF_ENSURE(alloc.state(f.block) == DieAllocator::BlockState::kOpen);
      XLF_ENSURE(f.next_page >= 1 && f.next_page < geometry.pages_per_block);
    }
    XLF_ENSURE(open_frontiers == open_blocks);
    // Victim-index audit: the incremental index must reproduce the
    // from-scratch oracle scan — same victim (or both empty) under
    // the live policy and clock.
    const std::optional<std::uint32_t> oracle = alloc.pick_victim_scored(
        config_.gc_policy,
        [&](std::uint32_t b) { return alloc.valid_count(b); }, clock_);
    XLF_ENSURE(alloc.pick_victim(clock_) == oracle);
  }
}

bool Ftl::is_bad(std::uint32_t die, std::uint32_t block) const {
  XLF_EXPECT(die < dies());
  return device(die).is_bad(block);
}

double Ftl::wear(std::uint32_t die, std::uint32_t block) const {
  XLF_EXPECT(die < dies());
  return controllers_[die]->device().wear(block);
}

std::uint32_t Ftl::erase_count(std::uint32_t die, std::uint32_t block) const {
  XLF_EXPECT(die < dies());
  return allocators_[die].erase_count(block);
}

unsigned Ftl::block_t(std::uint32_t die, std::uint32_t block) const {
  XLF_EXPECT(die < dies());
  const nand::NandDevice& dev = device(die);
  if (dev.is_bad(block)) return 0;
  // Pages are appended in order, so the newest program is the last
  // page with an OOB record (a torn page has a t byte but no record).
  for (std::uint32_t p = dev.geometry().pages_per_block; p-- > 0;) {
    if (dev.oob({block, p}).has_value()) return dev.ecc_t({block, p});
  }
  return 0;
}

double Ftl::min_wear() const {
  double w = std::numeric_limits<double>::infinity();
  for (std::uint32_t d = 0; d < dies(); ++d) {
    const nand::Geometry& geometry = controllers_[d]->device().geometry();
    for (std::uint32_t b = 0; b < geometry.blocks; ++b) {
      w = std::min(w, wear(d, b));
    }
  }
  return w;
}

double Ftl::max_wear() const {
  double w = 0.0;
  for (std::uint32_t d = 0; d < dies(); ++d) {
    const nand::Geometry& geometry = controllers_[d]->device().geometry();
    for (std::uint32_t b = 0; b < geometry.blocks; ++b) {
      w = std::max(w, wear(d, b));
    }
  }
  return w;
}

}  // namespace xlf::ftl
