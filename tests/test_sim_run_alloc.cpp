// Heap guard for SsdSimulator::run: the bytes a run allocates must not
// grow with its command count. The caller's command vector is the
// stream's one per-command copy; the host queues hold only each
// queue's head, so a run's heap is its per-run tables (host queues,
// completion arena, statistics), whatever the stream's length. The
// binary counts through a replaced global operator new, which is why it
// stands alone (tests/test_meta_path_alloc.cpp does the same for the
// controller's command path).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "src/sim/host_workload.hpp"
#include "src/sim/ssd_sim.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_bytes{0};

}  // namespace

// Every other form (nothrow, array) forwards to these in libstdc++.
// Both stay out of line (see test_meta_path_alloc.cpp: GCC 12 flags a
// malloc/free pair it inlines on one side only).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  // NOLINTNEXTLINE(cppcoreguidelines-no-malloc)
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// NOLINTNEXTLINE(cppcoreguidelines-no-malloc)
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace xlf::sim {
namespace {

// Bytes allocated inside one run of `count` back-to-back commands over
// `queues` weighted tenants, each trimming `trim_fraction` of its
// non-read requests, on a fresh prepopulated meta 1x1 die of 256 x 16
// pages. The wear starts at 31,622 P/E and one erase adds one cycle,
// so every program stays on one characterisation key and the timing
// cache is warm from the prepopulation.
std::size_t run_bytes(std::size_t queues, std::size_t count,
                      double trim_fraction = 0.0) {
  ftl::SsdConfig config;
  config.topology = {1, 1};
  config.die.device.data_plane = false;
  config.die.device.array.geometry.blocks = 256;
  config.die.device.array.geometry.pages_per_block = 16;
  config.initial_pe_cycles = 31622;
  config.ftl.pe_cycles_per_erase = 1;
  ftl::Ssd ssd(config);

  SsdSimConfig sim_config;
  sim_config.queue_depth = 8;
  sim_config.host.queues = queues;
  sim_config.host.arbitration = policy::Arbitration::kWeighted;
  sim_config.host.queue_weights = {8.0, 4.0, 2.0, 1.0};
  sim_config.host.queue_weights.resize(queues);
  SsdSimulator simulator(ssd, sim_config);
  simulator.prepopulate();

  TenantSpec tenant;
  tenant.trim_fraction = trim_fraction;
  const MultiTenantWorkload workload(std::vector<TenantSpec>(queues, tenant));
  Rng rng(0xA110C);
  const std::vector<host::Command> commands =
      workload.generate(ssd.logical_pages(), count, rng);

  g_bytes.store(0);
  g_counting.store(true);
  const SsdSimStats stats = simulator.run(commands);
  g_counting.store(false);
  EXPECT_EQ(stats.reads + stats.unmapped_reads + stats.writes + stats.trims,
            count);
  return g_bytes.load();
}

TEST(SimRunAlloc, RunHeapDoesNotGrowWithTheCommandCount) {
  for (const std::size_t queues : {1u, 4u}) {
    const std::size_t small = run_bytes(queues, 20000);
    const std::size_t large = run_bytes(queues, 200000);
    // The counter sees the run's per-run tables.
    EXPECT_GT(small, 0u) << queues << " queues";
    EXPECT_EQ(large, small) << queues << " queues";
  }
}

// The stream issues no flush, so every trim stays pending in the FTL:
// one entry per LPA, sized at the first trim, keeps that buffer from
// growing with the trim count. (20,000 commands is too few to compare:
// another FTL table reaches its high-water mark later than that.)
TEST(SimRunAlloc, PendingTrimsDoNotGrowWithTheCommandCount) {
  for (const std::size_t queues : {1u, 4u}) {
    const std::size_t small = run_bytes(queues, 50000, 0.1);
    const std::size_t large = run_bytes(queues, 400000, 0.1);
    EXPECT_EQ(large, small) << queues << " queues";
  }
}

}  // namespace
}  // namespace xlf::sim
