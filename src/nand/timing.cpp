#include "src/nand/timing.hpp"

#include <cmath>

#include "src/util/expect.hpp"

namespace xlf::nand {

NandTiming::NandTiming(const TimingConfig& config, const IsppConfig& ispp,
                       const VoltagePlan& plan,
                       const VariabilityConfig& variability,
                       const AgingLaw& aging)
    : config_(config),
      ispp_config_(ispp),
      plan_(plan),
      aging_(aging),
      variability_(variability, aging),
      engine_(ispp, plan) {
  XLF_EXPECT(config_.sample_cells >= 64);
}

Seconds NandTiming::io_transfer_time(std::size_t bytes) const {
  return Seconds{static_cast<double>(bytes) / config_.io_bandwidth.value()};
}

// xlf: cold — characterization-cache fill: runs on a cache miss
// during warm-up, never in the steady-state event loop.
IsppTrace NandTiming::characterize(ProgramAlgorithm algo, double pe_cycles,
                                   std::optional<Level> pattern) const {
  // Average a few independent sample populations: the page program
  // time is set by the slowest-cell tail, which is noisy on a single
  // draw but very stable in expectation.
  constexpr unsigned kRuns = 3;
  characterisations_.fetch_add(1, std::memory_order_relaxed);
  const double zone = aging_.dv_zone_multiplier(pe_cycles);
  IsppTrace averaged;
  double pulses = 0.0, verify_ops = 0.0, failed = 0.0;
  for (unsigned run = 0; run < kRuns; ++run) {
    Rng rng(config_.sample_seed ^ (static_cast<std::uint64_t>(algo) << 32) ^
            (static_cast<std::uint64_t>(run) << 40) ^
            static_cast<std::uint64_t>(pe_cycles));
    std::vector<FloatingGateCell> cells;
    std::vector<Level> targets;
    cells.reserve(config_.sample_cells);
    targets.reserve(config_.sample_cells);
    for (unsigned i = 0; i < config_.sample_cells; ++i) {
      const Volts erased = variability_.sample_erased(rng, plan_.erased_mean,
                                                      plan_.erased_sigma);
      cells.emplace_back(erased, variability_.sample(rng, pe_cycles));
      if (pattern.has_value()) {
        targets.push_back(*pattern);
      } else {
        targets.push_back(static_cast<Level>(rng.below(4)));
      }
    }
    const IsppTrace trace = engine_.program(cells, targets, algo, rng, zone);
    averaged.algorithm = trace.algorithm;
    averaged.converged = averaged.converged && trace.converged;
    averaged.setup_time = trace.setup_time;
    averaged.program_pump_time += trace.program_pump_time / kRuns;
    averaged.verify_pump_time += trace.verify_pump_time / kRuns;
    averaged.inhibit_pump_time += trace.inhibit_pump_time / kRuns;
    averaged.vcg_time_integral += trace.vcg_time_integral / kRuns;
    pulses += trace.pulses;
    verify_ops += trace.verify_ops;
    failed += trace.failed_cells;
  }
  averaged.pulses = static_cast<unsigned>(pulses / kRuns + 0.5);
  averaged.verify_ops = static_cast<unsigned>(verify_ops / kRuns + 0.5);
  averaged.failed_cells = static_cast<unsigned>(failed / kRuns + 0.5);
  return averaged;
}

long NandTiming::age_key(double pe_cycles) {
  return std::lround(std::log10(std::max(pe_cycles, 1.0)) * 12.0);
}

const IsppTrace& NandTiming::sample_trace(ProgramAlgorithm algo,
                                          double pe_cycles,
                                          std::optional<Level> pattern) const {
  XLF_EXPECT(pe_cycles >= 0.0);
  const int pattern_key =
      pattern.has_value() ? static_cast<int>(*pattern) : -1;
  const long quantised = age_key(pe_cycles);
  const auto key = std::make_tuple(static_cast<int>(algo), pattern_key, quantised);
  CacheEntry* entry = nullptr;
  {
    // The entry pointer outlives the lock safely — map nodes are
    // stable and entries are never erased.
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    entry = &cache_.try_emplace(key).first->second;
  }
  // Characterise at the key's canonical age, not the exact request, so
  // the entry is a pure function of the key. The fill runs outside the
  // map lock, so distinct cold keys characterise in parallel; a second
  // caller of a key being filled waits for that fill instead of
  // repeating it.
  std::call_once(entry->filled, [&] {
    const double canonical_age =
        std::pow(10.0, static_cast<double>(quantised) / 12.0);
    entry->trace = characterize(algo, canonical_age, pattern);
  });
  return entry->trace;
}

Seconds NandTiming::program_time(ProgramAlgorithm algo,
                                 double pe_cycles) const {
  return sample_trace(algo, pe_cycles).duration();
}

Seconds NandTiming::page_write_time(ProgramAlgorithm algo, double pe_cycles,
                                    std::size_t page_bytes,
                                    LoadStrategy strategy) const {
  const Seconds load = io_transfer_time(page_bytes);
  const Seconds program = program_time(algo, pe_cycles);
  switch (strategy) {
    case LoadStrategy::kFullSequence:
      return load + program;
    case LoadStrategy::kTwoRound:
      // Second-round load overlaps the first programming round.
      return load / 2.0 + program;
  }
  XLF_EXPECT(false && "invalid strategy");
  return program;
}

}  // namespace xlf::nand
