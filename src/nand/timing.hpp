// NAND operation timing.
//
// Read and erase are datasheet constants (page read 75 us per the
// Micron part the paper cites [27]); program time *emerges* from the
// ISPP engine — a sampled cell population is programmed pulse by
// pulse and the trace duration is cached per (algorithm, age,
// pattern). This is where the paper's ~1.5 ms ISPP-SV program time
// and the growing ISPP-DV penalty (Fig. 9) come from.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

#include "src/nand/aging.hpp"
#include "src/nand/ispp.hpp"
#include "src/nand/threshold.hpp"
#include "src/nand/variability.hpp"
#include "src/util/units.hpp"

namespace xlf::nand {

// Page-buffer data-load strategy (paper footnote 1 / Section 6.3.3):
// full-sequence loads both logical pages before programming starts;
// the two-round strategy overlaps half the load with programming,
// mitigating the write-throughput penalty.
enum class LoadStrategy { kFullSequence, kTwoRound };

struct TimingConfig {
  Seconds read_time = Seconds::micros(75.0);   // [27]
  Seconds erase_time = Seconds::millis(2.5);
  // Host-side I/O bandwidth for page transfers (legacy async NAND bus).
  BytesPerSecond io_bandwidth = BytesPerSecond::mib(40.0);
  // Cell population sampled when characterising program time.
  unsigned sample_cells = 8192;
  std::uint64_t sample_seed = 0xB10C5EED;
};

class NandTiming {
 public:
  NandTiming(const TimingConfig& config, const IsppConfig& ispp,
             const VoltagePlan& plan, const VariabilityConfig& variability,
             const AgingLaw& aging);

  Seconds read_time() const { return config_.read_time; }
  Seconds erase_time() const { return config_.erase_time; }
  Seconds io_transfer_time(std::size_t bytes) const;

  // Characteristic ISPP trace for one page program at the given age.
  // `pattern` restricts every programmed cell to one target level
  // (the Fig. 6 L1/L2/L3 patterns); nullopt = uniform random data.
  // Results are cached per age_key() and characterised at the key's
  // canonical age, so an entry is a pure function of (algo, pattern,
  // age key) and no value depends on which caller filled it.
  // Thread-safe, and each key is characterised exactly once: the
  // characterisation runs outside the map lock, so distinct cold keys
  // fill in parallel, while a caller that hits a key another thread is
  // still filling blocks until that fill ends. Parallel callers avoid
  // those waits by touching distinct keys first (as
  // explore::key_first_order does). The returned reference stays valid
  // for the lifetime of this object (std::map nodes are stable and
  // never erased).
  const IsppTrace& sample_trace(ProgramAlgorithm algo, double pe_cycles,
                                std::optional<Level> pattern = std::nullopt) const;

  // The cache's age quantisation: round(12 * log10(max(pe_cycles, 1))),
  // i.e. 12 keys per decade — program time varies slowly with wear and
  // the ISPP sample run is expensive.
  static long age_key(double pe_cycles);

  // The age a key is characterised at: 10^(key / 12).
  static double canonical_age(long key);

  // How many ISPP characterisations this object has run: one per
  // distinct cache key touched so far.
  std::uint64_t characterisations() const {
    return characterisations_.load(std::memory_order_relaxed);
  }
  // How many of their runs (three per characterisation) the certified
  // kernel handed to the exact engine because a decision fell within
  // its error bound. Stays 0 on hosts without the kernel.
  std::uint64_t fallback_runs() const {
    return fallback_runs_.load(std::memory_order_relaxed);
  }

  // Run `run` (0..2) of the characterisation at `pe_cycles`, as
  // sample_trace runs it: the certified kernel where the host has it
  // (host_ispp_kernel()), the exact engine where it does not or where
  // the kernel falls back; the trace is the exact engine's either way.
  // `margin_scale` (>= 1) multiplies the kernel's error bounds; only
  // tests raise it, to force fallbacks.
  IsppTrace run_trace(ProgramAlgorithm algo, double pe_cycles,
                      std::optional<Level> pattern, unsigned run,
                      double margin_scale = 1.0) const;
  // The same run on the exact engine, IsppEngine::program: the
  // reference the certified kernel is checked against.
  IsppTrace exact_run_trace(ProgramAlgorithm algo, double pe_cycles,
                            std::optional<Level> pattern, unsigned run) const;
  // The seed of that run's population and noise stream, from
  // (sample_seed, algo, run, age).
  std::uint64_t run_seed(ProgramAlgorithm algo, double pe_cycles,
                         unsigned run) const;

  Seconds program_time(ProgramAlgorithm algo, double pe_cycles) const;

  // Full page-write busy time including the data load under the given
  // strategy (the ECC encode latency is the controller's concern).
  Seconds page_write_time(ProgramAlgorithm algo, double pe_cycles,
                          std::size_t page_bytes, LoadStrategy strategy) const;

  const TimingConfig& config() const { return config_; }

 private:
  IsppTrace characterize(ProgramAlgorithm algo, double pe_cycles,
                         std::optional<Level> pattern) const;
  // The run's population, drawn from its seeded stream by the exact
  // sampler: emit(erased V_TH, CellParams, target) per cell.
  template <typename Emit>
  void sample_population(Rng& rng, double pe_cycles,
                         std::optional<Level> pattern, Emit&& emit) const;
  std::optional<IsppTrace> certified_run_trace(ProgramAlgorithm algo,
                                               double pe_cycles,
                                               std::optional<Level> pattern,
                                               unsigned run,
                                               double margin_scale) const;

  TimingConfig config_;
  IsppConfig ispp_config_;
  VoltagePlan plan_;
  AgingLaw aging_;
  VariabilitySampler variability_;
  IsppEngine engine_;
  // One cache slot: filled exactly once, by its first caller.
  struct CacheEntry {
    std::once_flag filled;
    IsppTrace trace;
  };
  // Cache key: (algo, pattern index or -1, age_key). The map is
  // guarded by cache_mutex_, held only to find or insert a slot, never
  // across a characterisation. The mutex makes NandTiming
  // non-copyable — callers that used to clone private instances as a
  // thread-safety workaround (the explore sweep) share one instead.
  mutable std::mutex cache_mutex_;
  mutable std::map<std::tuple<int, int, long>, CacheEntry> cache_;
  mutable std::atomic<std::uint64_t> characterisations_{0};
  mutable std::atomic<std::uint64_t> fallback_runs_{0};
};

}  // namespace xlf::nand
