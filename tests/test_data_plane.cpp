// Metadata-only device mode (DeviceConfig::data_plane = false) must
// reproduce the bit-true run's FTL decisions — write amplification,
// GC relocations, erases, tuning spread, wear — exactly, differing
// only in the latency/timing columns its worst-case decode model
// changes.
#include <gtest/gtest.h>

#include "src/explore/ftl_sweep.hpp"
#include "src/util/thread_pool.hpp"

namespace xlf {
namespace {

explore::FtlSweepSpec small_spec() {
  explore::FtlSweepSpec spec;
  spec.base.die.device.array.geometry.blocks = 8;
  spec.base.die.device.array.geometry.pages_per_block = 4;
  spec.base.initial_pe_cycles = 1e4;
  spec.base.ftl.pe_cycles_per_erase = 3e4;
  spec.topologies = {{1, 1}, {2, 2}};
  spec.queue_depths = {2};
  spec.gc_policies = {"greedy", "cost-benefit"};
  spec.trim_fraction = 0.1;
  spec.requests = 48;
  spec.seed = 0xD1E5;
  return spec;
}

TEST(DataPlane, MetadataModeReproducesBitTrueDecisions) {
  const explore::FtlSweepSpec bit_true = small_spec();
  explore::FtlSweepSpec meta = bit_true;
  meta.data_plane = false;

  ThreadPool pool(2);
  const explore::FtlSweepResult a = explore::ftl_sweep(bit_true, pool);
  const explore::FtlSweepResult b = explore::ftl_sweep(meta, pool);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const explore::FtlSweepRow& x = a.rows[i];
    const explore::FtlSweepRow& y = b.rows[i];
    // Decision plane: identical — GC, wear leveling and tuning read
    // models and metadata, never cell noise.
    EXPECT_EQ(x.stats.writes, y.stats.writes) << "row " << i;
    EXPECT_EQ(x.stats.reads, y.stats.reads) << "row " << i;
    EXPECT_EQ(x.stats.trims, y.stats.trims) << "row " << i;
    EXPECT_EQ(x.stats.trimmed_pages, y.stats.trimmed_pages) << "row " << i;
    EXPECT_EQ(x.stats.gc_relocations, y.stats.gc_relocations) << "row " << i;
    EXPECT_EQ(x.stats.erases, y.stats.erases) << "row " << i;
    EXPECT_EQ(x.stats.wl_swaps, y.stats.wl_swaps) << "row " << i;
    EXPECT_EQ(x.stats.write_amplification, y.stats.write_amplification)
        << "row " << i;
    EXPECT_EQ(x.stats.min_t_used, y.stats.min_t_used) << "row " << i;
    EXPECT_EQ(x.stats.max_t_used, y.stats.max_t_used) << "row " << i;
    EXPECT_EQ(x.stats.wear_min, y.stats.wear_min) << "row " << i;
    EXPECT_EQ(x.stats.wear_max, y.stats.wear_max) << "row " << i;
    EXPECT_EQ(x.bad_blocks, y.bad_blocks) << "row " << i;
    // Metadata reads decode nothing, so the audit cannot mismatch and
    // nothing is uncorrectable; the remount rebuild must still hold.
    EXPECT_EQ(y.stats.uncorrectable, 0u) << "row " << i;
    EXPECT_EQ(y.stats.data_mismatches, 0u) << "row " << i;
    EXPECT_EQ(y.rebuild_mismatches, 0u) << "row " << i;
  }
}

}  // namespace
}  // namespace xlf
