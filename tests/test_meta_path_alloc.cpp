// Allocation guard for the metadata-only command path. Once warm, a
// controller's meta write_page / read_page / erase_block cycle must
// not touch the heap: page metadata is a dense per-page array and a
// meta read carries no payload. The hot-alloc lint rule cannot see
// allocations hidden inside library calls (a std::map insert, a
// BitVec(n) temporary), so this binary counts them directly through a
// replaced global operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "src/controller/controller.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// The replaceable allocation functions every other form (nothrow,
// array) forwards to in libstdc++. malloc/free are the point here: the
// counter must sit below every C++ allocation. Both stay out of line:
// GCC 12 otherwise inlines one but not the other at some call sites
// (which ones depends on the flags, e.g. -fsanitize=thread) and flags
// the malloc/free pair with -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

namespace xlf::controller {
namespace {

constexpr std::uint32_t kBlocks = 64;
constexpr std::uint32_t kPages = 4;

nand::DeviceConfig meta_device() {
  nand::DeviceConfig config;
  config.data_plane = false;
  config.array.geometry.blocks = kBlocks;
  config.array.geometry.pages_per_block = kPages;
  return config;
}

// One command-path cycle on one block: program every page, read every
// page back, erase the block.
void cycle(MemoryController& controller, std::uint32_t block) {
  for (std::uint32_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(controller.write_page({block, p}, BitVec(0)).ok);
  }
  for (std::uint32_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(controller.read_page({block, p}).ok);
  }
  controller.erase_block(block);
}

TEST(MetaPathAlloc, CounterSeesLibraryAllocations) {
  nand::NandDevice device(meta_device());
  const std::size_t before = g_allocations.load();
  const MemoryController controller(ControllerConfig{}, device,
                                    hv::HvConfig{});
  EXPECT_GT(g_allocations.load(), before);
  EXPECT_EQ(controller.correction_capability(), 3u);
}

TEST(MetaPathAlloc, SteadyStateCyclesAllocateNothing) {
  nand::NandDevice device(meta_device());
  // Mid-decade wear: the ~160 erases each block gets below stay on one
  // characterisation key, so the timing cache is warm after one pass.
  device.set_uniform_wear(3e4);
  MemoryController controller(ControllerConfig{}, device, hv::HvConfig{});
  controller.set_correction_capability(20);
  for (std::uint32_t b = 0; b < kBlocks; ++b) cycle(controller, b);

  const std::size_t before = g_allocations.load();
  for (std::uint32_t i = 0; i < 10000; ++i) cycle(controller, i % kBlocks);
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

}  // namespace
}  // namespace xlf::controller
