#include "src/nand/timing.hpp"

#include <cmath>

#include "src/nand/ispp_certified.hpp"
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
  IsppTrace averaged;
  double pulses = 0.0, verify_ops = 0.0, failed = 0.0;
  for (unsigned run = 0; run < kRuns; ++run) {
    const IsppTrace trace = run_trace(algo, pe_cycles, pattern, run);
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

std::uint64_t NandTiming::run_seed(ProgramAlgorithm algo, double pe_cycles,
                                   unsigned run) const {
  return config_.sample_seed ^ (static_cast<std::uint64_t>(algo) << 32) ^
         (static_cast<std::uint64_t>(run) << 40) ^
         static_cast<std::uint64_t>(pe_cycles);
}

template <typename Emit>
void NandTiming::sample_population(Rng& rng, double pe_cycles,
                                   std::optional<Level> pattern,
                                   Emit&& emit) const {
  const VariabilitySampler::AtWear at_age = variability_.at_wear(pe_cycles);
  for (unsigned i = 0; i < config_.sample_cells; ++i) {
    const Volts erased = variability_.sample_erased(rng, plan_.erased_mean,
                                                    plan_.erased_sigma);
    const CellParams params = at_age.sample(rng);
    emit(erased, params,
         pattern.has_value() ? *pattern : static_cast<Level>(rng.below(4)));
  }
}

IsppTrace NandTiming::run_trace(ProgramAlgorithm algo, double pe_cycles,
                                std::optional<Level> pattern, unsigned run,
                                double margin_scale) const {
  if (host_ispp_kernel() == IsppKernel::kAvx2) {
    // The certified population is released before a fallback samples
    // the run again from its seed, so one run holds one population.
    if (const std::optional<IsppTrace> trace = certified_run_trace(
            algo, pe_cycles, pattern, run, margin_scale)) {
      return *trace;
    }
    fallback_runs_.fetch_add(1, std::memory_order_relaxed);
  }
  return exact_run_trace(algo, pe_cycles, pattern, run);
}

std::optional<IsppTrace> NandTiming::certified_run_trace(
    ProgramAlgorithm algo, double pe_cycles, std::optional<Level> pattern,
    unsigned run, double margin_scale) const {
  Rng rng(run_seed(algo, pe_cycles, run));
  CellColumns cells = sample_certified(
      {plan_.erased_mean.value(), plan_.erased_sigma.value()},
      variability_.at_wear(pe_cycles), config_.sample_cells, pattern, rng);
  return program_certified(engine_, cells, algo, rng,
                           aging_.dv_zone_multiplier(pe_cycles), margin_scale);
}

IsppTrace NandTiming::exact_run_trace(ProgramAlgorithm algo, double pe_cycles,
                                      std::optional<Level> pattern,
                                      unsigned run) const {
  Rng rng(run_seed(algo, pe_cycles, run));
  std::vector<FloatingGateCell> cells;
  std::vector<Level> targets;
  cells.reserve(config_.sample_cells);
  targets.reserve(config_.sample_cells);
  sample_population(rng, pe_cycles, pattern,
                    [&](Volts erased, const CellParams& params, Level target) {
                      cells.emplace_back(erased, params);
                      targets.push_back(target);
                    });
  return engine_.program(cells, targets, algo, rng,
                         aging_.dv_zone_multiplier(pe_cycles));
}

long NandTiming::age_key(double pe_cycles) {
  return std::lround(std::log10(std::max(pe_cycles, 1.0)) * 12.0);
}

double NandTiming::canonical_age(long key) {
  return std::pow(10.0, static_cast<double>(key) / 12.0);
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
    entry->trace = characterize(algo, canonical_age(quantised), pattern);
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
