#include "src/nand/rber_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/expect.hpp"
#include "src/util/stats.hpp"

namespace xlf::nand {
namespace {

// Probability mass of N(mean, sigma) inside [lo, hi); +-infinity is
// encoded with the huge sentinels below.
constexpr double kMinusInf = -1e9;
constexpr double kPlusInf = 1e9;

double band_mass(double mean, double sigma, double lo, double hi) {
  const auto cdf = [&](double x) {
    if (x <= kMinusInf) return 0.0;
    if (x >= kPlusInf) return 1.0;
    return 1.0 - q_function((x - mean) / sigma);
  };
  return cdf(hi) - cdf(lo);
}

}  // namespace

RberModel::RberModel(const VoltagePlan& plan, const AgingLaw& aging,
                     const IsppConfig& ispp,
                     const VariabilityConfig& variability,
                     const InterferenceConfig& interference)
    : plan_(plan),
      aging_(aging),
      ispp_(ispp),
      variability_(variability),
      interference_(interference) {
  XLF_EXPECT(plan_.consistent());
}

double RberModel::rber(ProgramAlgorithm algo, double cycles) const {
  return aging_.rber(algo, cycles);
}

Volts RberModel::effective_final_step(ProgramAlgorithm algo) const {
  const double step = ispp_.v_step.value();
  if (algo == ProgramAlgorithm::kIsppSv) return Volts{step};
  // DV slow zone: the staircase steady-state overdrive OD* satisfies
  // softplus(OD*) = step; the bitline bias shifts it down, so the
  // crawl step is softplus(OD* - bias).
  const double s = variability_.onset_sharpness.value();
  const double od_star = s * std::log(std::expm1(step / s));
  const double crawl =
      s * std::log1p(std::exp((od_star - ispp_.dv_bitline_bias.value()) / s));
  return Volts{std::max(crawl, step / 8.0)};
}

Volts RberModel::placement_offset(ProgramAlgorithm algo) const {
  // Mean overshoot above the verify level: half the effective final
  // step.
  return Volts{effective_final_step(algo).value() / 2.0};
}

// xlf: cold — placement-cache fill on miss (warm-up), outside the
// hot allocation budget.
double RberModel::measure_placement_sigma(ProgramAlgorithm algo) const {
  // Program a beginning-of-life sample population through the real
  // ISPP engine, interference included, and pool the deviations of the
  // programmed levels from their per-level means.
  constexpr unsigned kCells = 6144;
  VariabilitySampler sampler(variability_, aging_);
  IsppEngine engine(ispp_, plan_);
  InterferenceModel interference(interference_);
  Rng rng(0xCA11B8A7Eull ^ static_cast<std::uint64_t>(algo));

  std::vector<FloatingGateCell> cells;
  std::vector<Level> targets;
  cells.reserve(kCells);
  targets.reserve(kCells);
  const VariabilitySampler::AtWear fresh = sampler.at_wear(0.0);
  for (unsigned i = 0; i < kCells; ++i) {
    cells.emplace_back(
        sampler.sample_erased(rng, plan_.erased_mean, plan_.erased_sigma),
        fresh.sample(rng));
    targets.push_back(static_cast<Level>(rng.below(4)));
  }
  std::vector<Volts> before(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) before[i] = cells[i].vth();
  engine.program(cells, targets, algo, rng);
  std::vector<Volts> deltas(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    deltas[i] = cells[i].vth() - before[i];
  }
  interference.apply_within_page(cells, deltas);

  // Pooled robust spread across L1..L3: the DV placement distribution
  // is bimodal (cells that hop the whole slow zone in one pulse carry
  // the full overshoot), so a raw standard deviation overstates the
  // core width; the interquartile range tracks the bulk that the
  // Gaussian wear model composes with.
  double total_var = 0.0;
  std::size_t groups = 0;
  for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
    std::vector<double> values;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (targets[i] == level) values.push_back(cells[i].vth().value());
    }
    if (values.size() >= 16) {
      const double iqr =
          percentile(values, 0.75) - percentile(values, 0.25);
      const double robust_sigma = iqr / 1.349;
      total_var += robust_sigma * robust_sigma;
      ++groups;
    }
  }
  XLF_ENSURE(groups > 0);
  return std::sqrt(total_var / static_cast<double>(groups));
}

Volts RberModel::placement_sigma(ProgramAlgorithm algo) const {
  const int key = static_cast<int>(algo);
  auto it = placement_cache_.find(key);
  if (it == placement_cache_.end()) {
    it = placement_cache_.emplace(key, measure_placement_sigma(algo)).first;
  }
  return Volts{it->second};
}

double RberModel::rber_from_overlap(ProgramAlgorithm algo,
                                    Volts prog_sigma) const {
  // Read bands: (-inf, R1), [R1, R2), [R2, R3), [R3, +inf).
  const double r1 = plan_.read[0].value();
  const double r2 = plan_.read[1].value();
  const double r3 = plan_.read[2].value();
  const double band_lo[4] = {kMinusInf, r1, r2, r3};
  const double band_hi[4] = {r1, r2, r3, kPlusInf};

  double bit_errors = 0.0;
  for (Level level : kAllLevels) {
    double mean;
    double sigma;
    if (level == Level::kL0) {
      mean = plan_.erased_mean.value();
      sigma = plan_.erased_sigma.value();
    } else {
      mean = plan_.verify_for(level).value() + placement_offset(algo).value();
      sigma = prog_sigma.value();
    }
    for (Level read : kAllLevels) {
      if (read == level) continue;
      const auto band = static_cast<std::size_t>(read);
      const double mass = band_mass(mean, sigma, band_lo[band], band_hi[band]);
      bit_errors += 0.25 * mass * bit_distance(level, read);
    }
  }
  // Two bits per cell.
  return bit_errors / 2.0;
}

Volts RberModel::effective_sigma(ProgramAlgorithm algo, double cycles) const {
  XLF_EXPECT(cycles >= 0.0);
  const auto key = std::make_pair(
      static_cast<int>(algo),
      std::lround(std::log10(std::max(cycles, 1.0)) * 1e6));
  const auto it = sigma_cache_.find(key);
  if (it != sigma_cache_.end()) return Volts{it->second};

  const double target = rber(algo, cycles);
  // Overlap RBER grows monotonically with sigma: bisection.
  double lo = 0.01, hi = kMaxSigmaVolts;
  XLF_ENSURE(rber_from_overlap(algo, Volts{hi}) > target);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (rber_from_overlap(algo, Volts{mid}) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double solved = 0.5 * (lo + hi);
  sigma_cache_.emplace(key, solved);
  return Volts{solved};
}

double RberModel::max_cycles() const {
  double limit = std::numeric_limits<double>::infinity();
  for (ProgramAlgorithm algo :
       {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    limit = std::min(limit, aging_.cycles_at_rber(
                                algo, rber_from_overlap(
                                          algo, Volts{kMaxSigmaVolts})));
  }
  return limit;
}

Volts RberModel::wear_sigma(ProgramAlgorithm algo, double cycles) const {
  const double eff = effective_sigma(algo, cycles).value();
  const double place = placement_sigma(algo).value();
  return Volts{std::sqrt(std::max(eff * eff - place * place, 1e-8))};
}

LevelDistribution RberModel::distribution(Level level, ProgramAlgorithm algo,
                                          double cycles) const {
  LevelDistribution dist;
  if (level == Level::kL0) {
    dist.mean = plan_.erased_mean;
    dist.sigma = plan_.erased_sigma;
  } else {
    dist.mean = plan_.verify_for(level) + placement_offset(algo);
    dist.sigma = effective_sigma(algo, cycles);
  }
  return dist;
}

}  // namespace xlf::nand
