// The certified ISPP kernel against the exact engine over the whole
// model domain: every age key 0..96 (1 to 1e8 P/E), both algorithms and
// every data pattern (random, all-L1, all-L2, all-L3), each of a
// characterisation's three runs compared field for field, doubles by
// their bits. CTest label `ispp-grid`. Optimised builds check every
// key; unoptimised and sanitizer builds, where a run costs ten times
// more, check every twelfth (one per decade).
#include <gtest/gtest.h>

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/nand/device.hpp"
#include "src/nand/ispp_certified.hpp"
#include "src/nand/timing.hpp"
#include "src/util/thread_pool.hpp"
#include "tests/ispp_trace_diff.hpp"

namespace xlf::nand {
namespace {

#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr long kKeyStride = 1;
#else
constexpr long kKeyStride = 12;
#endif
constexpr long kLastKey = 96;
constexpr unsigned kRuns = 3;

TEST(IsppGrid, CertifiedRunsEqualTheExactEngineOverTheModelDomain) {
  if (host_ispp_kernel() != IsppKernel::kAvx2) {
    GTEST_SKIP() << "host has no AVX2+FMA: characterisations run the exact "
                    "engine only";
  }
  const ArrayConfig array;
  const NandTiming timing(TimingConfig{}, array.ispp, array.plan,
                          array.variability, array.aging);
  struct Cell {
    long key;
    ProgramAlgorithm algo;
    std::optional<Level> pattern;
  };
  std::vector<Cell> grid;
  for (long key = 0; key <= kLastKey; key += kKeyStride) {
    for (ProgramAlgorithm algo :
         {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
      for (std::optional<Level> pattern :
           {std::optional<Level>{}, std::optional<Level>{Level::kL1},
            std::optional<Level>{Level::kL2},
            std::optional<Level>{Level::kL3}}) {
        grid.push_back({key, algo, pattern});
      }
    }
  }
  std::vector<std::string> mismatches(grid.size() * kRuns);
  ThreadPool pool(4);
  pool.parallel_for(mismatches.size(), [&](std::size_t i) {
    const Cell& cell = grid[i / kRuns];
    const auto run = static_cast<unsigned>(i % kRuns);
    const double age = NandTiming::canonical_age(cell.key);
    mismatches[i] = test::trace_difference(
        timing.run_trace(cell.algo, age, cell.pattern, run),
        timing.exact_run_trace(cell.algo, age, cell.pattern, run));
  });
  std::size_t differing = 0;
  for (std::size_t i = 0; i < mismatches.size(); ++i) {
    if (mismatches[i].empty()) continue;
    ++differing;
    const Cell& cell = grid[i / kRuns];
    ADD_FAILURE() << to_string(cell.algo) << " key " << cell.key
                  << " pattern "
                  << (cell.pattern ? static_cast<int>(*cell.pattern) : -1)
                  << " run " << i % kRuns << " differs in:" << mismatches[i];
  }
  // The bounds are loose by orders of magnitude next to the sampled
  // thresholds' spacing, so no run of the grid falls back; a fallback
  // here means a bound grew or a decision moved.
  EXPECT_EQ(timing.fallback_runs(), 0u);
  std::cout << "[ispp-grid] " << mismatches.size() << " runs ("
            << grid.size() << " keys x algorithms x patterns, key stride "
            << kKeyStride << "): " << differing << " differ, "
            << timing.fallback_runs() << " fell back\n";
}

}  // namespace
}  // namespace xlf::nand
