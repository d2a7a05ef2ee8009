// Crash consistency, focused and deterministic: flush as the trim
// durability barrier, trim-crash-remount semantics (flushed
// tombstones never resurrect; unflushed ones follow the documented
// advisory-deallocate model), torn programs, grown-bad block
// management, and the property that a crash-free shutdown's rebuild
// reproduces the live DRAM state field by field. The randomized
// seed x kill-point matrix lives in test_powerloss_torture.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/ftl/fault.hpp"
#include "src/ftl/ssd.hpp"
#include "src/policy/policy.hpp"

namespace xlf::ftl {
namespace {

SsdConfig small_ssd(std::uint32_t blocks = 8) {
  SsdConfig config;
  config.topology = {2, 1};  // 2 channels x 1 die
  config.die.device.array.geometry.blocks = blocks;
  config.die.device.array.geometry.pages_per_block = 4;
  config.initial_pe_cycles = 1e4;
  config.ftl.pe_cycles_per_erase = 3e4;
  return config;
}

BitVec pattern(std::uint32_t bits, std::uint64_t key) {
  BitVec data(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (((key >> (i % 64)) ^ (i / 64)) & 1u) data.set(i, true);
  }
  return data;
}

// Everything Ftl rebuilds; captured live and compared after a
// clean-shutdown remount. FtlStats is deliberately absent — counters
// are per-mount telemetry, not device state.
struct FtlSnapshot {
  std::vector<Ppa> l2p;
  std::vector<std::uint32_t> valid_counts;          // [die * blocks + block]
  std::vector<DieAllocator::BlockState> states;     // [die * blocks + block]
  std::vector<std::uint32_t> erase_counts;          // [die * blocks + block]
  std::vector<std::uint64_t> last_writes;           // [die * blocks + block]
  std::vector<unsigned> block_ts;                   // [die * blocks + block]
  std::vector<DieAllocator::FrontierView> frontiers;  // [die * 2 + stream]
  std::vector<std::size_t> free_counts;             // [die]
  std::uint64_t seq = 0;
  std::uint64_t clock = 0;

  friend bool operator==(const FtlSnapshot&, const FtlSnapshot&) = default;
};

FtlSnapshot snapshot(const Ssd& ssd) {
  const Ftl& ftl = ssd.ftl();
  const std::uint32_t blocks = ssd.die_geometry().blocks;
  FtlSnapshot snap;
  for (Lpa lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
    snap.l2p.push_back(ftl.map().lookup(lpa));
  }
  for (std::uint32_t d = 0; d < ftl.dies(); ++d) {
    const DieAllocator& alloc = ftl.allocator(d);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      snap.valid_counts.push_back(alloc.valid_count(b));
      snap.states.push_back(alloc.state(b));
      snap.erase_counts.push_back(alloc.erase_count(b));
      snap.last_writes.push_back(alloc.last_write(b));
      snap.block_ts.push_back(ftl.block_t(d, b));
    }
    snap.frontiers.push_back(alloc.frontier_view(DieAllocator::Stream::kHost));
    snap.frontiers.push_back(alloc.frontier_view(DieAllocator::Stream::kGc));
    snap.free_counts.push_back(alloc.free_count());
  }
  snap.seq = ftl.sequence();
  snap.clock = ftl.logical_clock();
  return snap;
}

TEST(CrashRecovery, RemountRebuildsMappingsAndPayloadsBitTrue) {
  Ssd ssd(small_ssd());
  Ftl& ftl = ssd.ftl();
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();

  std::map<Lpa, BitVec> acked;
  for (Lpa lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
    BitVec payload = pattern(bits, 0x1000u + lpa);
    ASSERT_TRUE(ftl.write(lpa, payload).ok);
    acked[lpa] = std::move(payload);
  }
  // Overwrite a hot slice so the map points into relocated blocks too.
  for (int pass = 0; pass < 6; ++pass) {
    for (Lpa lpa = 0; lpa < 4; ++lpa) {
      BitVec payload = pattern(bits, 0x2000u + pass * 16u + lpa);
      ASSERT_TRUE(ftl.write(lpa, payload).ok);
      acked[lpa] = std::move(payload);
    }
  }
  ASSERT_GT(ftl.stats().gc_relocations, 0u) << "workload must exercise GC";

  // Power cut with NO flush: acknowledged writes are write-through
  // durable, so every one of them must still read bit-true.
  ssd.remount();
  ssd.ftl().check_consistency();
  for (const auto& [lpa, payload] : acked) {
    const FtlOpResult r = ssd.ftl().read(lpa);
    EXPECT_FALSE(r.unmapped) << "lpa " << lpa;
    EXPECT_TRUE(r.data == payload) << "lpa " << lpa;
  }
}

TEST(CrashRecovery, FlushedTrimStaysUnmappedAcrossCrashRemount) {
  // The trim-crash-remount regression: once a flush persisted the
  // tombstone, no crash may resurrect the LPA.
  Ssd ssd(small_ssd());
  Ftl& ftl = ssd.ftl();
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();

  ASSERT_TRUE(ftl.write(7, pattern(bits, 7)).ok);
  ASSERT_FALSE(ftl.trim(7).unmapped);
  ftl.flush();
  ASSERT_EQ(ssd.durable().tombstones.size(), 1u);

  // Crash (no further flush): the data page's OOB record is still on
  // flash, but the tombstone's higher sequence number wins replay.
  ssd.remount();
  ssd.ftl().check_consistency();
  EXPECT_FALSE(ssd.ftl().mapped(7));
  EXPECT_TRUE(ssd.ftl().read(7).unmapped);

  // A write after the trim re-maps the LPA and outlives another crash
  // (its sequence number outranks the journaled tombstone).
  const BitVec rewritten = pattern(bits, 0xBEEF);
  ASSERT_TRUE(ssd.ftl().write(7, rewritten).ok);
  ssd.remount();
  ssd.ftl().check_consistency();
  ASSERT_TRUE(ssd.ftl().mapped(7));
  EXPECT_TRUE(ssd.ftl().read(7).data == rewritten);
}

TEST(CrashRecovery, UnflushedTrimFollowsAdvisoryDeallocateSemantics) {
  // Without a flush the tombstone only exists in DRAM: after a crash
  // the LPA's surviving OOB record wins and the pre-trim value comes
  // back. That resurrection is the documented advisory-deallocate
  // model (and exactly why flush() exists).
  Ssd ssd(small_ssd());
  Ftl& ftl = ssd.ftl();
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();

  const BitVec payload = pattern(bits, 0xA5);
  ASSERT_TRUE(ftl.write(3, payload).ok);
  ASSERT_FALSE(ftl.trim(3).unmapped);
  ASSERT_FALSE(ftl.mapped(3));
  ASSERT_EQ(ftl.pending_trims(), 1u);

  ssd.remount();  // crash: the pending tombstone is gone
  ssd.ftl().check_consistency();
  ASSERT_TRUE(ssd.ftl().mapped(3));
  EXPECT_TRUE(ssd.ftl().read(3).data == payload);
}

TEST(CrashRecovery, DoubleTrimThenCrashRemountStaysUnmapped) {
  Ssd ssd(small_ssd());
  Ftl& ftl = ssd.ftl();
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();

  ASSERT_TRUE(ftl.write(5, pattern(bits, 5)).ok);
  ASSERT_FALSE(ftl.trim(5).unmapped);
  EXPECT_TRUE(ftl.trim(5).unmapped);  // second trim: accepted no-op
  ftl.flush();
  // Only the effective trim journaled a tombstone.
  EXPECT_EQ(ssd.durable().tombstones.size(), 1u);
  // Trim of a never-written LPA journals nothing either.
  EXPECT_TRUE(ftl.trim(6).unmapped);
  ftl.flush();
  EXPECT_EQ(ssd.durable().tombstones.size(), 1u);

  ssd.remount();
  ssd.ftl().check_consistency();
  EXPECT_FALSE(ssd.ftl().mapped(5));
  EXPECT_FALSE(ssd.ftl().mapped(6));
}

TEST(CrashRecovery, TornHostProgramIsInvisibleAfterRemount) {
  // Kill between a host write's data program and its OOB record: the
  // cells are charged but no record says so. Rebuild must treat the
  // page as never written — and a previously acked copy of the same
  // LPA must survive untouched.
  Ssd ssd(small_ssd());
  FaultInjector injector;
  ssd.set_fault_injector(&injector);
  Ftl& ftl = ssd.ftl();
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();

  const BitVec old_value = pattern(bits, 0x01D);
  ASSERT_TRUE(ftl.write(2, old_value).ok);

  injector.arm_at_point(FaultPoint::kMidHostProgram);
  EXPECT_THROW(ftl.write(2, pattern(bits, 0x7E4)), PowerLoss);

  ssd.remount();
  ssd.ftl().check_consistency();
  ASSERT_TRUE(ssd.ftl().mapped(2));
  EXPECT_TRUE(ssd.ftl().read(2).data == old_value);

  // Same window on a never-written LPA: it stays unmapped.
  injector.arm_at_point(FaultPoint::kMidHostProgram);
  EXPECT_THROW(ssd.ftl().write(9, pattern(bits, 9)), PowerLoss);
  ssd.remount();
  ssd.ftl().check_consistency();
  EXPECT_FALSE(ssd.ftl().mapped(9));
}

TEST(CrashRecovery, MidGcRelocationCrashLosesNoAckedData) {
  // Kill inside a GC relocation's torn-program window. The victim
  // block is only erased after every live page relocated, so each
  // LPA's source record still wins replay and nothing acked is lost.
  Ssd ssd(small_ssd());
  FaultInjector injector;
  ssd.set_fault_injector(&injector);
  Ftl& ftl = ssd.ftl();
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();

  std::map<Lpa, BitVec> acked;
  for (Lpa lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
    BitVec payload = pattern(bits, 0x3000u + lpa);
    ASSERT_TRUE(ftl.write(lpa, payload).ok);
    acked[lpa] = std::move(payload);
  }

  injector.arm_at_point(FaultPoint::kMidGcProgram);
  bool crashed = false;
  for (int pass = 0; pass < 12 && !crashed; ++pass) {
    for (Lpa lpa = 0; lpa < 4 && !crashed; ++lpa) {
      BitVec payload = pattern(bits, 0x4000u + pass * 16u + lpa);
      try {
        ftl.write(lpa, payload);
        acked[lpa] = std::move(payload);
      } catch (const PowerLoss& loss) {
        EXPECT_EQ(loss.point, FaultPoint::kMidGcProgram);
        crashed = true;
        // The write that triggered GC never acked: lpa keeps its old
        // oracle entry, which must still be readable.
      }
    }
  }
  ASSERT_TRUE(crashed) << "overwrites must trigger GC on this geometry";

  ssd.remount();
  ssd.ftl().check_consistency();
  for (const auto& [lpa, payload] : acked) {
    const FtlOpResult r = ssd.ftl().read(lpa);
    ASSERT_FALSE(r.unmapped) << "lpa " << lpa;
    EXPECT_TRUE(r.data == payload) << "lpa " << lpa;
  }
}

TEST(CrashRecovery, CrashFreeShutdownRebuildReproducesLiveStateExactly) {
  // The field-identity property: flush (checkpointing seq/clock),
  // snapshot every piece of DRAM state the mount path reconstructs,
  // remount, snapshot again — the two must be equal member by member.
  Ssd ssd(small_ssd());
  Ftl& ftl = ssd.ftl();
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();

  for (Lpa lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
    ASSERT_TRUE(ftl.write(lpa, pattern(bits, 0x5000u + lpa)).ok);
  }
  for (int pass = 0; pass < 8; ++pass) {
    for (Lpa lpa = 0; lpa < 6; ++lpa) {
      ASSERT_TRUE(ftl.write(lpa, pattern(bits, 0x6000u + pass * 16u + lpa)).ok);
    }
    ftl.trim(10 + static_cast<Lpa>(pass) % 4);
    ftl.flush();
  }
  ASSERT_GT(ftl.stats().gc_relocations, 0u);

  const FtlSnapshot live = snapshot(ssd);
  ssd.remount();
  ssd.ftl().check_consistency();
  const FtlSnapshot rebuilt = snapshot(ssd);

  EXPECT_EQ(live.l2p, rebuilt.l2p);
  EXPECT_EQ(live.valid_counts, rebuilt.valid_counts);
  EXPECT_EQ(live.states, rebuilt.states);
  EXPECT_EQ(live.erase_counts, rebuilt.erase_counts);
  EXPECT_EQ(live.last_writes, rebuilt.last_writes);
  EXPECT_EQ(live.block_ts, rebuilt.block_ts);
  EXPECT_EQ(live.frontiers, rebuilt.frontiers);
  EXPECT_EQ(live.free_counts, rebuilt.free_counts);
  EXPECT_EQ(live.seq, rebuilt.seq);
  EXPECT_EQ(live.clock, rebuilt.clock);
  EXPECT_EQ(live, rebuilt);

  // The t range the rebuild derives from the spare-area t bytes,
  // recomputed over every recorded page of every usable block.
  unsigned min_t = std::numeric_limits<unsigned>::max();
  unsigned max_t = 0;
  for (std::size_t d = 0; d < ssd.dies(); ++d) {
    const nand::NandDevice& dev = ssd.die(d).device();
    for (std::uint32_t b = 0; b < ssd.die_geometry().blocks; ++b) {
      if (dev.is_bad(b)) continue;
      for (std::uint32_t p = 0; p < ssd.die_geometry().pages_per_block; ++p) {
        if (!dev.oob({b, p}).has_value()) continue;
        min_t = std::min(min_t, dev.ecc_t({b, p}));
        max_t = std::max(max_t, dev.ecc_t({b, p}));
      }
    }
  }
  EXPECT_LT(min_t, max_t) << "pe_cycles_per_erase must spread the t range";
  EXPECT_EQ(ssd.ftl().stats().min_t_used, min_t);
  EXPECT_EQ(ssd.ftl().stats().max_t_used, max_t);

  // The rebuilt instance keeps working: writes land, reads verify.
  const BitVec more = pattern(bits, 0xF00D);
  ASSERT_TRUE(ssd.ftl().write(0, more).ok);
  EXPECT_TRUE(ssd.ftl().read(0).data == more);
}

TEST(CrashRecovery, GrownBadBlocksRetireRouteAroundAndSurviveRemount) {
  // Grown-bad management end to end: the injected block's first erase
  // fails, it retires into the durable bad-block table, every policy
  // routes around it (no allocation, no GC victim, excluded from the
  // wear spread), and the retirement survives a remount.
  SsdConfig config = small_ssd(/*blocks=*/12);
  Ssd ssd(config);
  FaultInjector injector;
  const std::uint32_t blocks = ssd.die_geometry().blocks;
  // Fail block 0 on every die: the block every wear policy allocates
  // first, so its erase (and the injected failure) is guaranteed to
  // happen under churn.
  constexpr std::uint32_t kDoomed = 0;
  for (std::uint32_t d = 0; d < ssd.ftl().dies(); ++d) {
    injector.fail_block(d, kDoomed);
  }
  ssd.set_fault_injector(&injector);
  Ftl& ftl = ssd.ftl();
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();

  for (Lpa lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
    ASSERT_TRUE(ftl.write(lpa, pattern(bits, lpa)).ok);
  }
  // Overwrite everything repeatedly: every allocated block cycles
  // through GC, so the doomed ones meet their failing erase.
  for (int pass = 0; pass < 10; ++pass) {
    for (Lpa lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
      ASSERT_TRUE(ftl.write(lpa, pattern(bits, 0x9000u + pass * 64u + lpa)).ok);
    }
  }
  ASSERT_EQ(ftl.stats().bad_blocks, 2u)
      << "both injected blocks must hit their failing erase";

  for (std::uint32_t d = 0; d < ftl.dies(); ++d) {
    EXPECT_TRUE(ftl.is_bad(d, kDoomed));
    EXPECT_EQ(ftl.allocator(d).state(kDoomed), DieAllocator::BlockState::kBad);
    // Retirement is not an erase: the failed attempt never advanced
    // the block's FTL-visible wear counter.
    EXPECT_EQ(ftl.allocator(d).erase_count(kDoomed), 0u);
    // Nothing lives there and no frontier points there.
    EXPECT_EQ(ftl.allocator(d).valid_count(kDoomed), 0u);
    for (const auto stream :
         {DieAllocator::Stream::kHost, DieAllocator::Stream::kGc}) {
      const auto view = ftl.allocator(d).frontier_view(stream);
      EXPECT_TRUE(!view.open || view.block != kDoomed);
    }
    // The wear spread excludes the retired block's frozen counter:
    // recompute min/max over the healthy blocks independently.
    std::uint32_t min_healthy = ~0u, max_healthy = 0;
    for (std::uint32_t b = 0; b < blocks; ++b) {
      if (ftl.allocator(d).state(b) == DieAllocator::BlockState::kBad) continue;
      min_healthy = std::min(min_healthy, ftl.allocator(d).erase_count(b));
      max_healthy = std::max(max_healthy, ftl.allocator(d).erase_count(b));
    }
    EXPECT_EQ(ftl.allocator(d).min_erase_count(), min_healthy);
    EXPECT_EQ(ftl.allocator(d).max_erase_count(), max_healthy);
  }
  // No mapped LPA resolves into a retired block.
  for (Lpa lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
    const Ppa ppa = ftl.map().lookup(lpa);
    ASSERT_TRUE(ppa.valid());
    EXPECT_NE(ppa.block, kDoomed);
  }

  // Retirement is durable: still bad after a crash + remount, and the
  // device keeps serving traffic around it.
  ssd.remount();
  ssd.ftl().check_consistency();
  for (std::uint32_t d = 0; d < ssd.ftl().dies(); ++d) {
    EXPECT_TRUE(ssd.ftl().is_bad(d, kDoomed));
    EXPECT_EQ(ssd.ftl().allocator(d).state(kDoomed),
              DieAllocator::BlockState::kBad);
  }
  for (int pass = 0; pass < 4; ++pass) {
    for (Lpa lpa = 0; lpa < ssd.ftl().logical_pages(); ++lpa) {
      ASSERT_TRUE(
          ssd.ftl().write(lpa, pattern(bits, 0xA000u + pass * 64u + lpa)).ok);
    }
  }
  for (Lpa lpa = 0; lpa < ssd.ftl().logical_pages(); ++lpa) {
    EXPECT_NE(ssd.ftl().map().lookup(lpa).block, kDoomed);
  }
  ssd.ftl().check_consistency();
}

// The victim index after a crash + remount: rebuild_from_oob feeds
// the rebuilt allocators through the same map/close notifications as
// live traffic, so the indexed pick must equal a from-scratch linear
// scan of the rebuilt state — killed mid-GC, the worst case, because
// the victim's partially relocated valid counts and the GC frontier
// both land in the index via replay rather than live churn.
TEST(CrashRecovery, VictimIndexRebuildMatchesScratchScanAfterMidGcCrash) {
  for (const std::string name : {"greedy", "cost-benefit"}) {
    SsdConfig config = small_ssd();
    config.ftl.gc_policy = policy::parse<policy::Gc>(name);
    Ssd ssd(config);
    FaultInjector injector;
    ssd.set_fault_injector(&injector);
    Ftl& ftl = ssd.ftl();
    const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();

    for (Lpa lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
      ASSERT_TRUE(ftl.write(lpa, pattern(bits, 0x7000u + lpa)).ok);
    }
    injector.arm_at_point(FaultPoint::kMidGcProgram);
    bool crashed = false;
    for (int pass = 0; pass < 12 && !crashed; ++pass) {
      for (Lpa lpa = 0; lpa < 4 && !crashed; ++lpa) {
        try {
          ftl.write(lpa, pattern(bits, 0x8000u + pass * 16u + lpa));
        } catch (const PowerLoss&) {
          crashed = true;
        }
      }
    }
    ASSERT_TRUE(crashed) << name << ": overwrites must trigger GC here";

    ssd.remount();
    ssd.ftl().check_consistency();
    const std::uint64_t now = ssd.ftl().logical_clock();
    for (std::uint32_t d = 0; d < ssd.dies(); ++d) {
      const DieAllocator& alloc = ssd.ftl().allocator(d);
      const auto scratch = alloc.pick_victim_scored(
          config.ftl.gc_policy,
          [&](std::uint32_t b) { return alloc.valid_count(b); }, now);
      EXPECT_EQ(alloc.pick_victim(now), scratch) << name << " die " << d;
    }
  }
}

TEST(CrashRecovery, SpentInjectorDoesNotRefireOnRemountTraffic) {
  Ssd ssd(small_ssd());
  FaultInjector injector;
  ssd.set_fault_injector(&injector);
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();

  injector.arm_at_event(1);
  EXPECT_THROW(ssd.ftl().write(0, pattern(bits, 0)), PowerLoss);
  EXPECT_TRUE(injector.fired());

  ssd.remount();
  // Post-crash traffic passes the same fault points; a spent injector
  // must stay quiet until re-armed.
  EXPECT_NO_THROW(ssd.ftl().write(0, pattern(bits, 1)));
  EXPECT_TRUE(ssd.ftl().read(0).data == pattern(bits, 1));
}

}  // namespace
}  // namespace xlf::ftl
