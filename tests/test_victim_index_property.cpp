// Victim-index equivalence property: under randomized block churn —
// host programs, overwrites/trims (page invalidation), GC relocation
// + erase, and grown-bad retirement — the incremental index's pick is
// equal to the linear oracle scan after every single step, for both
// built-in GC policies. A full-stack variant drives the same churn
// through Ssd + SsdSimulator (trims, grown-bad injection, GC under
// real workload skew) and audits the index with Ftl::check_consistency
// plus an explicit indexed-vs-oracle pick per die between chunks.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/ftl/allocator.hpp"
#include "src/ftl/fault.hpp"
#include "src/ftl/ssd.hpp"
#include "src/policy/policy.hpp"
#include "src/sim/host_workload.hpp"
#include "src/sim/ssd_sim.hpp"
#include "src/util/rng.hpp"

namespace xlf::ftl {
namespace {

std::optional<std::uint32_t> oracle_pick(const DieAllocator& alloc,
                                         policy::Gc gc, std::uint64_t now) {
  return alloc.pick_victim_scored(
      gc, [&alloc](std::uint32_t b) { return alloc.valid_count(b); }, now);
}

// Allocator-level churn: every transition the Ftl can feed the index
// (map, invalidate, close, erase, retire), in random order, with the
// indexed pick checked against the oracle after each step.
void churn_property(const std::string& name, std::uint64_t seed) {
  const policy::Gc gc = policy::parse<policy::Gc>(name);
  constexpr std::uint32_t kBlocks = 48;
  constexpr std::uint32_t kPages = 8;
  DieAllocator alloc(
      AllocatorConfig{kBlocks, kPages, policy::Wear::kDynamic, gc});

  Rng rng(seed);
  std::uint64_t clock = 0;
  int retired = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint32_t op = static_cast<std::uint32_t>(rng.below(100));
    if (op < 55) {
      // Host program (skipped when the die is out of free blocks and
      // the frontier is full — the GC branch unblocks it).
      if (!alloc.needs_block(DieAllocator::Stream::kHost) ||
          alloc.free_count() > 0) {
        const auto [block, page] =
            alloc.take_page(DieAllocator::Stream::kHost);
        (void)page;
        alloc.on_page_mapped(block);
        alloc.stamp_write(block, ++clock);
      }
    } else if (op < 75) {
      // Overwrite / trim: one page of some block goes invalid.
      const auto start = static_cast<std::uint32_t>(rng.below(kBlocks));
      for (std::uint32_t k = 0; k < kBlocks; ++k) {
        const std::uint32_t b = (start + k) % kBlocks;
        if (alloc.valid_count(b) > 0) {
          alloc.on_page_invalidated(b);
          break;
        }
      }
    } else if (op < 97) {
      // GC step: pick through the production entry point, relocate
      // the live pages onto the GC frontier, erase the victim.
      const auto victim = alloc.pick_victim(clock);
      if (victim.has_value()) {
        bool relocated = true;
        while (alloc.valid_count(*victim) > 0) {
          if (alloc.needs_block(DieAllocator::Stream::kGc) &&
              alloc.free_count() == 0) {
            relocated = false;
            break;
          }
          const auto [block, page] =
              alloc.take_page(DieAllocator::Stream::kGc);
          (void)page;
          alloc.on_page_mapped(block);
          alloc.stamp_write(block, ++clock);
          alloc.on_page_invalidated(*victim);
        }
        if (relocated) alloc.on_erase(*victim);
      }
    } else if (retired < 3) {
      // Grown-bad retirement of some closed block (bounded: retired
      // blocks leave the cycle for good). As in the Ftl, its live
      // pages are invalidated first (relocated, there).
      const auto start = static_cast<std::uint32_t>(rng.below(kBlocks));
      for (std::uint32_t k = 0; k < kBlocks; ++k) {
        const std::uint32_t b = (start + k) % kBlocks;
        if (alloc.is_closed(b)) {
          while (alloc.valid_count(b) > 0) alloc.on_page_invalidated(b);
          alloc.retire(b);
          ++retired;
          break;
        }
      }
    }
    const auto indexed = alloc.pick_victim(clock);
    const auto oracle = oracle_pick(alloc, gc, clock);
    ASSERT_EQ(indexed, oracle) << name << " diverged at step " << step;
  }
}

TEST(VictimIndexProperty, GreedyChurnMatchesOracleEveryStep) {
  churn_property("greedy", 0xA11CE);
}

TEST(VictimIndexProperty, CostBenefitChurnMatchesOracleEveryStep) {
  churn_property("cost-benefit", 0xB0B5);
}

// Full-stack churn: a trim-heavy skewed workload with grown-bad
// injection, run in chunks with the Ftl-level invariant audit (which
// includes the index-vs-oracle sweep) plus an explicit per-die pick
// comparison between chunks.
void full_stack_property(const std::string& name) {
  SsdConfig config;
  config.topology = {2, 1};
  config.die.device.array.geometry.blocks = 10;
  config.die.device.array.geometry.pages_per_block = 4;
  config.initial_pe_cycles = 1e4;
  config.ftl.pe_cycles_per_erase = 3e4;
  config.ftl.gc_policy = policy::parse<policy::Gc>(name);
  Ssd ssd(config);

  FaultInjector injector;
  for (std::size_t d = 0; d < ssd.dies(); ++d) {
    injector.fail_block(static_cast<std::uint32_t>(d), 0);
  }
  ssd.set_fault_injector(&injector);

  sim::SsdSimulator simulator(ssd);
  simulator.prepopulate();

  sim::TenantSpec tenant;
  tenant.read_fraction = 0.2;
  tenant.trim_fraction = 0.15;
  const sim::MultiTenantWorkload workload({tenant});

  Rng stream(0x5EED ^ name.size());
  for (int chunk = 0; chunk < 6; ++chunk) {
    const std::vector<host::Command> commands =
        workload.generate(ssd.logical_pages(), 64, stream);
    const sim::SsdSimStats stats = simulator.run(commands);
    ASSERT_FALSE(stats.power_loss);
    ssd.ftl().check_consistency();
    const std::uint64_t now = ssd.ftl().logical_clock();
    for (std::uint32_t d = 0; d < ssd.dies(); ++d) {
      const DieAllocator& alloc = ssd.ftl().allocator(d);
      EXPECT_EQ(alloc.pick_victim(now),
                oracle_pick(alloc, config.ftl.gc_policy, now))
          << name << " die " << d << " chunk " << chunk;
    }
  }
}

TEST(VictimIndexProperty, FullStackGreedyStaysConsistent) {
  full_stack_property("greedy");
}

TEST(VictimIndexProperty, FullStackCostBenefitStaysConsistent) {
  full_stack_property("cost-benefit");
}

}  // namespace
}  // namespace xlf::ftl
