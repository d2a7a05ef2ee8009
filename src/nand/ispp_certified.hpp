// Certified ISPP characterisation: a run's sampled population and
// IsppEngine::program's trace on it, computed four cells at a time with
// AVX2+FMA and polynomial transcendentals.
//
// A trace (pulse and verify counts, pump times, convergence) depends on
// a run's population only through discrete decisions: whether a cell's
// softplus step exceeds 1e-9 V (and so takes an injection-noise draw),
// which branch of the softplus it takes (x > 30), each level's
// lookahead test on its fastest cell, DV slow-zone entry, and inhibit
// at the verify level. The kernel samples the population from the
// run's Rng with the exact sampler's draws, in its order, and carries
// bounds on each sampled parameter's distance from the exact sampler's
// value and, beside each cell's threshold, a bound on its distance from
// the threshold the exact engine computes for the same run. It takes
// the same noise draws from the same Rng in the same order
// (Rng::draw_normal) and accepts a decision only when the bounds cannot
// flip it. Then the run took the exact engine's decisions,
// drew the exact engine's uniforms, and its trace is the exact engine's
// field for field. When a bound could flip a decision the kernel
// abandons the run and the caller re-runs it on IsppEngine::program,
// which stays the reference (docs/ARCHITECTURE.md §1a).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "src/nand/aging.hpp"
#include "src/nand/cell.hpp"
#include "src/nand/ispp.hpp"
#include "src/nand/threshold.hpp"
#include "src/nand/variability.hpp"
#include "src/util/rng.hpp"
#include "src/util/units.hpp"

namespace xlf::nand {

// The pulse loop characterisations run on this host, chosen once from
// CPUID: the certified AVX2+FMA kernel with the exact engine as its
// fallback, or the exact engine alone.
enum class IsppKernel { kScalar, kAvx2 };
IsppKernel host_ispp_kernel();
const char* to_string(IsppKernel kernel);

// A sampled population's pulsed cells in the kernel's layout: one array
// per field, cells in ascending order, every cell with one injection
// sigma (as VariabilitySampler draws them). L0 cells, which are never
// pulsed, are not held; add_cell drops them. Each *_bound bounds, for
// every cell, that field's distance from the value the exact sampler
// draws for it: 0 for cells added by add_cell, which are the exact
// values.
struct CellColumns {
  std::vector<double> vth;
  std::vector<double> k_onset;
  std::vector<double> sharpness;
  std::vector<Level> targets;
  double injection_sigma = 0.0;
  double vth_bound = 0.0;
  double k_onset_bound = 0.0;
  double sharpness_bound = 0.0;

  void add_cell(Volts erased, const CellParams& params, Level target);
};

// `cells` cells drawn from `rng` as NandTiming's exact sampler draws
// them: per cell the erased threshold from `erased`
// (VariabilitySampler::sample_erased), the onset and sharpness from
// `at_wear`, then the target (`pattern`, or rng.below(4)). It takes
// exactly the exact sampler's draws, so `rng` ends in the state that
// sampler leaves it in; it evaluates each normal with the kernel's
// polynomials, so each value lies within its field's bound of the
// exact one. L0 cells, which are never pulsed, are drawn but not kept.
// Requires host_ispp_kernel() == IsppKernel::kAvx2.
CellColumns sample_certified(NormalLaw erased,
                             const VariabilitySampler::AtWear& at_wear,
                             unsigned cells, std::optional<Level> pattern,
                             Rng& rng);

// IsppEngine::program(cells, targets, algo, rng, dv_zone_multiplier)'s
// trace on the exact population `cells` stands for (each field within
// its bound of the columns' values), or nullopt when a decision fell
// within its bound. Either way `cells` is consumed and `rng` advanced
// by an unspecified amount. `margin_scale` (>= 1) multiplies every
// bound at the decisions; only tests raise it, to force the fallback.
// Requires host_ispp_kernel() == IsppKernel::kAvx2.
std::optional<IsppTrace> program_certified(const IsppEngine& engine,
                                           CellColumns& cells,
                                           ProgramAlgorithm algo, Rng& rng,
                                           double dv_zone_multiplier,
                                           double margin_scale = 1.0);

// The kernel's elementary functions on one lane, for tests, and the
// error bounds the certification assumes for them against the std::
// functions the exact engine calls. Tests check each bound against a
// dense grid. Each function requires host_ispp_kernel() == kAvx2.
namespace certified_math {

// Relative, exp(x) for x in [-700, 0].
inline constexpr double kExpRelBound = 0x1p-41;
// Relative, log1p(y) for y in [0, 1].
inline constexpr double kLog1pRelBound = 0x1p-41;
// Relative, log(u) for u in (0, 1).
inline constexpr double kLogRelBound = 0x1p-41;
// Absolute, sin(2 pi u) and cos(2 pi u) for u in [0, 1), against
// std::sin(2.0 * M_PI * u) and std::cos(2.0 * M_PI * u).
inline constexpr double kSinCosAbsBound = 0x1p-41;
// Relative, softplus(x) = log1p(exp(x)) for x <= 30 against
// std::log1p(std::exp(x)): the composition of the exp and log1p bounds
// plus a few roundings, doubled.
inline constexpr double kSoftplusRelBound =
    4.0 * (kExpRelBound + kLog1pRelBound);
// Above the Box-Muller radius sqrt(-2 ln u1) of every pair the Rng
// draws: u1 >= 2^-53 gives at most sqrt(106 ln 2) = 8.5717.
inline constexpr double kRadiusBound = 8.58;

// Bound on |mean + sigma * z' - (mean + sigma * z)|, z' the polynomial
// value of a pair half and z gaussian()'s: sigma times the normal's
// error at the largest radius, plus the roundings of both sides.
double sampled_bound(NormalLaw law);
// mean + sigma * (the polynomial value of `draw`), as sample_certified
// computes it before the sharpness clamp. `draw` must be a pair half.
double sampled_value(NormalLaw law, const Rng::NormalDraw& draw);

double exp(double x);
double log1p(double y);
double log(double u);
double sin_2pi(double u);
double cos_2pi(double u);
double softplus(double x);

}  // namespace certified_math

}  // namespace xlf::nand
