// The retention-aware refresh policy, unit and end-to-end: decision
// boundaries against the prediction model, and the acceptance
// property — on an aged SSD whose pages have absorbed real retention
// stress in the bit-true array, a scrub pass re-programs blocks and
// the observed corrected-bit density of subsequent reads drops.
#include <gtest/gtest.h>

#include "src/ftl/ssd.hpp"
#include "src/policy/policy.hpp"
#include "src/sim/ssd_sim.hpp"

namespace xlf {
namespace {

using policy::Refresh;

bool retention_aware(const policy::RefreshContext& ctx) {
  return policy::should_refresh(Refresh::kRetentionAware, ctx);
}

policy::RefreshContext context_at(double pe_cycles, unsigned page_t,
                                  double hours, const nand::AgingLaw& law) {
  policy::RefreshContext ctx;
  ctx.algo = nand::ProgramAlgorithm::kIsppSv;
  ctx.pe_cycles = pe_cycles;
  ctx.page_t = page_t;
  ctx.retention_hours = hours;
  ctx.uber_target = 1e-11;  // Section 6.2, with the paper's code family
  ctx.law = &law;
  return ctx;
}

TEST(RetentionAwareRefresh, DecisionBoundaries) {
  const nand::AgingLaw law;

  // Never-programmed blocks and a zero retention horizon never refresh.
  EXPECT_FALSE(retention_aware(context_at(3e5, 0, 2000.0, law)));
  EXPECT_FALSE(retention_aware(context_at(3e5, 30, 0.0, law)));

  // Young block written at the model-based t for its wear (t = 4 at
  // 1e3 cycles): retention barely moves the tiny RBER, the stressed
  // requirement stays within the budget.
  EXPECT_FALSE(retention_aware(context_at(1e3, 4, 1000.0, law)));

  // End-of-life block: retention growth on an already-high RBER blows
  // through the t its pages carry.
  EXPECT_TRUE(retention_aware(context_at(3e5, 30, 2000.0, law)));

  // A generous static budget (t_max) absorbs the same stress.
  EXPECT_FALSE(retention_aware(context_at(1e4, 65, 1000.0, law)));
}

ftl::SsdConfig aged_ssd(Refresh refresh_policy) {
  ftl::SsdConfig config;
  config.topology = {1, 1};
  config.die.device.array.geometry.blocks = 8;
  config.die.device.array.geometry.pages_per_block = 4;
  // Old drive: every block deep into its life, so per-block t is high
  // and retention margins are thin. 300 h of stress at 1.5e5 cycles
  // is calibrated to be clearly visible in corrected-bit counts while
  // every page stays correctable (the bit-true array's retention
  // shift at 1000+ h would push pages past t entirely).
  config.initial_pe_cycles = 1.5e5;
  config.ftl.pe_cycles_per_erase = 1.0;
  config.ftl.refresh_policy = refresh_policy;
  config.ftl.scrub_retention_hours = 300.0;
  return config;
}

// Writes every logical page, bakes `hours` of retention stress into
// every valid physical page, and returns the total corrected bits
// over one read of the full logical space.
struct BakedSsd {
  explicit BakedSsd(Refresh refresh_policy)
      : ssd(aged_ssd(refresh_policy)) {
    ftl::Ftl& ftl = ssd.ftl();
    const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();
    Rng rng(20260727);
    for (ftl::Lpa lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
      BitVec data(bits);
      for (std::uint32_t i = 0; i < bits; ++i) {
        if (rng.chance(0.5)) data.set(i, true);
      }
      ftl.write(lpa, data);
    }
  }

  void bake_retention(double hours) {
    const nand::Geometry& geometry = ssd.die_geometry();
    for (std::uint32_t b = 0; b < geometry.blocks; ++b) {
      for (std::uint32_t p = 0; p < geometry.pages_per_block; ++p) {
        if (!ssd.ftl().map().valid(ftl::Ppa{0, b, p})) continue;
        nand::NandDevice& device = ssd.die(0).device();
        device.array().apply_retention({b, p}, hours, device.wear(b));
      }
    }
  }

  std::size_t corrected_bits_per_full_read() {
    std::size_t corrected = 0;
    for (ftl::Lpa lpa = 0; lpa < ssd.ftl().logical_pages(); ++lpa) {
      const ftl::FtlOpResult r = ssd.ftl().read(lpa);
      EXPECT_FALSE(r.uncorrectable);
      corrected += r.corrected_bits;
    }
    return corrected;
  }

  ftl::Ssd ssd;
};

TEST(RetentionAwareRefresh, ScrubLowersCorrectedBitDensityOnAgedBlocks) {
  BakedSsd baked(Refresh::kRetentionAware);
  baked.bake_retention(300.0);
  const std::size_t before = baked.corrected_bits_per_full_read();
  ASSERT_GT(before, 0u) << "retention stress must be visible before scrub";

  const ftl::ScrubResult scrubbed = baked.ssd.ftl().scrub();
  EXPECT_GT(scrubbed.blocks_refreshed, 0u);
  EXPECT_GT(scrubbed.pages_relocated, 0u);
  EXPECT_GT(scrubbed.busy.value(), 0.0);
  EXPECT_EQ(baked.ssd.ftl().stats().refresh_blocks,
            scrubbed.blocks_refreshed);
  EXPECT_EQ(baked.ssd.ftl().stats().refresh_relocations,
            scrubbed.pages_relocated);

  // Refreshed pages were re-programmed fresh: the retention shift is
  // gone and reads correct observably fewer bits.
  const std::size_t after = baked.corrected_bits_per_full_read();
  EXPECT_LT(after, before);
}

TEST(RetentionAwareRefresh, NonePolicyNeverRefreshes) {
  BakedSsd baked(Refresh::kNone);
  baked.bake_retention(300.0);
  const ftl::ScrubResult scrubbed = baked.ssd.ftl().scrub();
  EXPECT_GT(scrubbed.blocks_checked, 0u);
  EXPECT_EQ(scrubbed.blocks_refreshed, 0u);
  EXPECT_EQ(scrubbed.pages_relocated, 0u);
  EXPECT_EQ(baked.ssd.ftl().stats().refresh_blocks, 0u);
}

}  // namespace
}  // namespace xlf
