#include "src/nand/ispp_certified.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/util/expect.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace xlf::nand {

IsppKernel host_ispp_kernel() {
#if defined(__x86_64__)
  static const IsppKernel kernel = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
               ? IsppKernel::kAvx2
               : IsppKernel::kScalar;
  }();
  return kernel;
#else
  return IsppKernel::kScalar;
#endif
}

const char* to_string(IsppKernel kernel) {
  return kernel == IsppKernel::kAvx2 ? "avx2" : "scalar";
}

void CellColumns::add_cell(Volts erased, const CellParams& params,
                           Level target) {
  if (target == Level::kL0) return;
  XLF_EXPECT(targets.empty() ||
             params.injection_sigma.value() == injection_sigma);
  injection_sigma = params.injection_sigma.value();
  vth.push_back(erased.value());
  k_onset.push_back(params.k_onset.value());
  sharpness.push_back(params.onset_sharpness.value());
  targets.push_back(target);
}

namespace {

// --- the error budget ---------------------------------------------------
//
// The population. A draw's polynomial value z' = R' * (cos or sin)' lies
// within dz = R kEpsNormal of gaussian()'s z, R = sqrt(-2 ln u1) its
// Box-Muller radius. Every draw of a fresh run is a pair half with
// u1 >= 2^-53, so R < kRadiusBound. A parameter drawn as mean + sigma z
// therefore deviates by at most one constant per population,
//   sampled_bound = sigma kRadiusBound kEpsNormal
//                   + 2^-50 (|mean| + sigma kRadiusBound),
// the second term the roundings of both sides. The sharpness clamp
// max(0.05, .) is 1-Lipschitz and keeps the bound. So every cell starts
// with e = e0, the erased threshold's bound, and its onset k and
// sharpness s carry dk and ds.
//
// The pulses. e bounds |V_TH - exact V_TH| for one cell. One pulse at
// gate voltage c on a cell with threshold v, onset k and sharpness s
// computes
//   od = (c - v) - k,  x = od / s,
//   step = od if x > 30, else s * log1p(exp(x)),
//   v' = v + (step + sigma * z),  sigma = inj * sqrt(step),
// where z is the cell's standard normal. With M = |c| + |v| + |k| + e
// + dk:
//  * |od - exact od| <= e + dk + 2^-49 M (roundings of od), and
//    |x - exact x| <= dx = e_x / s, e_x = e + dk + |x| ds + 2^-49 M
//    (roundings of x; dividing by the kernel's s rather than the exact
//    one costs a relative 2 ds / s < 2^-30, which K1 and the rounding
//    terms of the tests absorb);
//  * step has slope sigmoid(x) <= g = min(1, softplus(x)) in od and
//    softplus(x) - x sigmoid(x) in s, at most softplus(x) + |x| g, so
//    its deviation is dstep = K1 (kEpsStep step + g e_x + softplus(x) ds)
//    (dx <= kDxLimit keeps e^dx under K1; in the linear branch dstep is
//    the overdrive's, under g e_x with g = 1);
//  * v + step has slope 1 - sigmoid(x) in v, -sigmoid(x) in k and
//    step's in s, so the deterministic part moves e to
//    e + K1 (kEpsStep step + 2^-49 M + g (dk + |x| ds) + softplus(x) ds):
//    it never amplifies e;
//  * sigma deviates relatively by rho = dstep / step (+ roundings), at
//    most K1 (kEpsStep + (e_x + ds) / s) since g / step <= 1 / s and
//    softplus(x) / step = 1 / s, and z by dz = R kEpsNormal (0 for a
//    value the stream held), adding K1 sigma (|z| rho + dz (1 + rho));
//  * the three roundings of the update add 2^-50 (|v'| + step + |noise|).
// kEpsStep and kEpsNormal are twice the certified_math bounds: one for
// the polynomials against libm, one for libm against exact arithmetic.
// FMA contraction in this file only ever removes a rounding, which the
// 2^-49 and 2^-50 terms already count. margin_scale multiplies every
// bound at the decisions; kDxLimit, a condition of the derivation, is
// never scaled.
constexpr double kK1 = 1.02;
constexpr double kRound49 = 0x1p-49;
constexpr double kRound50 = 0x1p-50;
constexpr double kEpsStep = 2.0 * certified_math::kSoftplusRelBound;
constexpr double kEpsNormal =
    2.0 * (certified_math::kLogRelBound + certified_math::kSinCosAbsBound);
constexpr double kDxLimit = 0x1p-20;

}  // namespace

#if defined(__x86_64__)
namespace {

// Domain of the exp polynomial; below it softplus < 1e-304, far under
// the draw threshold, and clamping only raises the computed step.
constexpr double kMinExpArg = -700.0;

// Tag bits: the target level, and DV slow-zone membership.
constexpr std::int64_t kLevelBits = 3;
constexpr std::int64_t kSlowZone = 4;

constexpr std::size_t kLanes = 4;

constexpr double kLn2 = 0x1.62e42fefa39efp-1;
// ln 2 split so that n * kLn2Hi is exact for |n| < 2^20.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kPio2Hi = 0x1.921fb54442d18p0;
constexpr double kPio2Lo = 0x1.1a62633145c07p-54;
// 1.5 * 2^52: adding it rounds a double of magnitude < 2^51 to an
// integer, which then sits in the low mantissa bits.
constexpr double kRoundShift = 0x1.8p52;

constexpr double factorial(int n) {
  double f = 1.0;
  for (int i = 2; i <= n; ++i) f *= i;
  return f;
}

// Series coefficients in ascending powers.
template <std::size_t N, typename Term>
constexpr std::array<double, N> coefficients(Term term) {
  std::array<double, N> c{};
  for (std::size_t k = 0; k < N; ++k) c[k] = term(static_cast<int>(k));
  return c;
}
constexpr double alternating(int k) { return k % 2 == 0 ? 1.0 : -1.0; }
// exp(r): 1 / k!, k = 0..13.
constexpr auto kExpSeries =
    coefficients<14>([](int k) { return 1.0 / factorial(k); });
// atanh(s) / s: 1 / (2k + 1) in s^2, k = 0..11.
constexpr auto kAtanhSeries =
    coefficients<12>([](int k) { return 1.0 / (2 * k + 1); });
// sin(t) / t: (-1)^k / (2k + 1)! in t^2, k = 0..8.
constexpr auto kSinSeries = coefficients<9>(
    [](int k) { return alternating(k) / factorial(2 * k + 1); });
// cos(t): (-1)^k / (2k)! in t^2, k = 0..9.
constexpr auto kCosSeries = coefficients<10>(
    [](int k) { return alternating(k) / factorial(2 * k); });

// Sum of c[Lo + k] x^k over k < Count by Estrin's scheme (pairs, then
// pairs of pairs), whose dependency chain is log2(Count) deep rather
// than Count; power[j] holds x^(2^j).
template <std::size_t Lo, std::size_t Count, std::size_t N>
[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256d estrin4(
    const std::array<double, N>& c, const __m256d* power) {
  if constexpr (Count == 1) {
    return _mm256_set1_pd(c[Lo]);
  } else {
    constexpr std::size_t kHalf = std::bit_ceil(Count) / 2;
    return _mm256_fmadd_pd(estrin4<Lo + kHalf, Count - kHalf>(c, power),
                           power[std::countr_zero(kHalf)],
                           estrin4<Lo, kHalf>(c, power));
  }
}

template <std::size_t N>
[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256d polynomial4(
    const std::array<double, N>& c, __m256d x) {
  __m256d power[4] = {x, x, x, x};
  for (std::size_t j = 1; j < 4 && (std::size_t{1} << j) < N; ++j) {
    power[j] = _mm256_mul_pd(power[j - 1], power[j - 1]);
  }
  return estrin4<0, N>(c, power);
}

// Left-pack permutations for _mm256_permutevar8x32_epi32: for each
// 4-bit keep mask, the 32-bit halves of the kept 64-bit lanes first.
constexpr std::array<std::array<std::int32_t, 8>, 16> kPackTable = [] {
  std::array<std::array<std::int32_t, 8>, 16> table{};
  for (int mask = 0; mask < 16; ++mask) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask & (1 << lane)) == 0) continue;
      table[mask][2 * out] = 2 * lane;
      table[mask][2 * out + 1] = 2 * lane + 1;
      ++out;
    }
  }
  return table;
}();

// --- vector math (four doubles) ------------------------------------------

[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256d abs4(
    __m256d x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

// exp(x) for x in [-700, 0]: x = n ln2 + r with |r| <= ln2 / 2, exp(r)
// by its Taylor series to r^13 (truncation < 5e-18), 2^n built in the
// exponent field.
[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256d exp4(
    __m256d x) {
  const __m256d shift = _mm256_set1_pd(kRoundShift);
  const __m256d t =
      _mm256_fmadd_pd(x, _mm256_set1_pd(0x1.71547652b82fep0), shift);
  const __m256d n = _mm256_sub_pd(t, shift);
  __m256d r = _mm256_fnmadd_pd(n, _mm256_set1_pd(kLn2Hi), x);
  r = _mm256_fnmadd_pd(n, _mm256_set1_pd(kLn2Lo), r);
  const __m256d p = polynomial4(kExpSeries, r);
  const __m256i exponent = _mm256_add_epi64(
      _mm256_slli_epi64(_mm256_castpd_si256(t), 52),
      _mm256_set1_epi64x(std::int64_t{1023} << 52));
  return _mm256_mul_pd(p, _mm256_castsi256_pd(exponent));
}

// 2 atanh(s) = log((1 + s) / (1 - s)) for |s| <= 0.2: 2s times the
// series sum_k s^2k / (2k + 1) to k = 11 (truncation < 1e-18).
[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256d two_atanh4(
    __m256d s) {
  return _mm256_mul_pd(_mm256_add_pd(s, s),
                       polynomial4(kAtanhSeries, _mm256_mul_pd(s, s)));
}

// log1p(y) for y in [0, 1]: log1p(y) = 2 atanh(y / (2 + y)); from 0.5 on,
// ln 2 + log1p((y - 1) / 2), whose argument is exact.
[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256d log1p4(
    __m256d y) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d upper = _mm256_cmp_pd(y, half, _CMP_GE_OQ);
  const __m256d z = _mm256_blendv_pd(
      y, _mm256_mul_pd(_mm256_sub_pd(y, _mm256_set1_pd(1.0)), half), upper);
  const __m256d base =
      _mm256_and_pd(upper, _mm256_set1_pd(kLn2));
  const __m256d s = _mm256_div_pd(z, _mm256_add_pd(_mm256_set1_pd(2.0), z));
  return _mm256_add_pd(base, two_atanh4(s));
}

// log(u) for u in (0, 1): u = 2^E m with m in [sqrt(1/2), sqrt(2)),
// log(m) = 2 atanh((m - 1) / (m + 1)), whose argument is at most 0.172.
[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256d log4(
    __m256d u) {
  const __m256i bits = _mm256_castpd_si256(u);
  const __m256i one = _mm256_castpd_si256(_mm256_set1_pd(1.0));
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x((std::int64_t{1} << 52) - 1)),
      one));
  // The biased exponent as a double: it fills the low mantissa bits of
  // 2^52.
  const __m256d biased = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_srli_epi64(bits, 52),
          _mm256_castpd_si256(_mm256_set1_pd(0x1p52)))),
      _mm256_set1_pd(0x1p52 + 1023.0));
  const __m256d above = _mm256_cmp_pd(m, _mm256_set1_pd(0x1.6a09e667f3bcdp0),
                                      _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), above);
  const __m256d e = _mm256_add_pd(
      biased, _mm256_and_pd(above, _mm256_set1_pd(1.0)));
  const __m256d f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d low =
      _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Lo), two_atanh4(s));
  return _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Hi), low);
}

// sin(2 pi u) where `sine` lanes are all ones, else cos(2 pi u), for u
// in [0, 1): 4u = q + f exactly with |f| <= 1/2, theta = f pi / 2, and
// the quadrant q picks +-sin or +-cos of theta (Taylor to theta^17 and
// theta^18, truncation < 1e-16).
[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256d cos_or_sin_2pi4(
    __m256d u, __m256i sine) {
  const __m256d t = _mm256_mul_pd(u, _mm256_set1_pd(4.0));
  const __m256d q =
      _mm256_round_pd(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d f = _mm256_sub_pd(t, q);
  const __m256d theta = _mm256_fmadd_pd(
      f, _mm256_set1_pd(kPio2Hi), _mm256_mul_pd(f, _mm256_set1_pd(kPio2Lo)));
  const __m256d w = _mm256_mul_pd(theta, theta);
  const __m256d sin_theta = _mm256_mul_pd(theta, polynomial4(kSinSeries, w));
  const __m256d cp = polynomial4(kCosSeries, w);
  // Quadrant table [cos, -sin, -cos, sin]; sin(a) = cos(a - pi/2).
  const __m256d shift = _mm256_set1_pd(kRoundShift);
  const __m256i quadrant = _mm256_sub_epi64(
      _mm256_castpd_si256(_mm256_add_pd(q, shift)),
      _mm256_castpd_si256(shift));
  const __m256i idx = _mm256_and_si256(
      _mm256_add_epi64(quadrant,
                       _mm256_and_si256(sine, _mm256_set1_epi64x(3))),
      _mm256_set1_epi64x(3));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256d use_sin = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(idx, one), one));
  const __m256i negate = _mm256_slli_epi64(
      _mm256_and_si256(_mm256_srli_epi64(_mm256_add_epi64(idx, one), 1), one),
      63);
  return _mm256_xor_pd(_mm256_blendv_pd(cp, sin_theta, use_sin),
                       _mm256_castsi256_pd(negate));
}

// softplus(x) = max(x, 0) + log1p(exp(-|x|)), |x| clamped to 700.
[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256d softplus4(
    __m256d x) {
  const __m256d ax = _mm256_min_pd(abs4(x), _mm256_set1_pd(-kMinExpArg));
  return _mm256_add_pd(_mm256_max_pd(x, _mm256_setzero_pd()),
                       log1p4(exp4(_mm256_sub_pd(_mm256_setzero_pd(), ax))));
}

// The Box-Muller value of pair halves: sqrt(-2 log u1) times cos(2 pi u2)
// where `sine` lanes are 0, sin(2 pi u2) where they are all ones.
// `radius` receives sqrt(-2 log u1).
[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256d pair_half4(
    __m256d u1, __m256d u2, __m256i sine, __m256d& radius) {
  radius = _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), log4(u1)));
  return _mm256_mul_pd(radius, cos_or_sin_2pi4(u2, sine));
}

[[gnu::target("avx2,fma")]] double exp_lane(double x) {
  return _mm256_cvtsd_f64(exp4(_mm256_set1_pd(x)));
}
[[gnu::target("avx2,fma")]] double log1p_lane(double y) {
  return _mm256_cvtsd_f64(log1p4(_mm256_set1_pd(y)));
}
[[gnu::target("avx2,fma")]] double log_lane(double u) {
  return _mm256_cvtsd_f64(log4(_mm256_set1_pd(u)));
}
[[gnu::target("avx2,fma")]] double cos_or_sin_2pi_lane(double u, bool sine) {
  return _mm256_cvtsd_f64(cos_or_sin_2pi4(
      _mm256_set1_pd(u), _mm256_set1_epi64x(sine ? -1 : 0)));
}
[[gnu::target("avx2,fma")]] double softplus_lane(double x) {
  return _mm256_cvtsd_f64(softplus4(_mm256_set1_pd(x)));
}
[[gnu::target("avx2,fma")]] double sampled_lane(NormalLaw law, double u1,
                                               double u2, bool sine) {
  __m256d radius;
  const __m256d z = pair_half4(_mm256_set1_pd(u1), _mm256_set1_pd(u2),
                               _mm256_set1_epi64x(sine ? -1 : 0), radius);
  return _mm256_cvtsd_f64(_mm256_fmadd_pd(
      _mm256_set1_pd(law.sigma), z, _mm256_set1_pd(law.mean)));
}

// Cells per stage of pulse() and per chunk of sample_lanes(): their
// scratch stays in L1 while each stage's blocks are independent and
// overlap in the core.
constexpr std::size_t kChunk = 128;

// --- the population -------------------------------------------------------

// One parameter's draws for a chunk of kept cells: the pairs' uniforms
// and which half each draw is.
struct ChunkDraws {
  alignas(32) double u1[kChunk];
  alignas(32) double u2[kChunk];
  alignas(32) std::int64_t sine[kChunk];

  void take(std::size_t j, const Rng::NormalDraw& draw) {
    u1[j] = draw.u1;
    u2[j] = draw.u2;
    sine[j] = draw.half == Rng::NormalDraw::Half::kSin ? -1 : 0;
  }
};

// max(floor, mean + sigma z) for the first `count` draws, rounded up to
// whole lanes, stored from `out` on.
[[gnu::target("avx2,fma"), gnu::always_inline]] inline void evaluate(
    const ChunkDraws& draws, std::size_t count, NormalLaw law, double floor,
    double* out) {
  const __m256d mean = _mm256_set1_pd(law.mean);
  const __m256d sigma = _mm256_set1_pd(law.sigma);
  const __m256d low = _mm256_set1_pd(floor);
  for (std::size_t j = 0; j < count; j += kLanes) {
    __m256d radius;
    const __m256d z = pair_half4(
        _mm256_load_pd(draws.u1 + j), _mm256_load_pd(draws.u2 + j),
        _mm256_load_si256(reinterpret_cast<const __m256i*>(draws.sine + j)),
        radius);
    // max_pd(a, b) is a > b ? a : b, std::max(b, a) as the exact
    // sampler clamps.
    _mm256_storeu_pd(out + j,
                     _mm256_max_pd(_mm256_fmadd_pd(sigma, z, mean), low));
  }
}

// The population's draws, chunk by chunk: a serial pass takes each
// cell's three normals and its target from the stream, as the exact
// sampler does, and keeps the non-L0 cells' uniforms; a vector pass
// evaluates them into `out`, whose columns hold `count` + kLanes
// entries.
[[gnu::target("avx2,fma")]] std::size_t sample_lanes(
    NormalLaw erased, const VariabilitySampler::AtWear& at_wear,
    unsigned count, std::optional<Level> pattern, Rng& rng,
    CellColumns& out) {
  const double none = -std::numeric_limits<double>::infinity();
  // Lanes past a chunk's kept cells evaluate a harmless pair half.
  ChunkDraws draws[3];
  for (ChunkDraws& field : draws) {
    for (std::size_t j = 0; j < kChunk; ++j) {
      field.take(j, {Rng::NormalDraw::Half::kCos, 0.5, 0.0});
    }
  }
  // A local copy of the stream, which the stores below cannot reach, so
  // its state stays in registers; written back at the end.
  Rng stream = rng;
  std::size_t kept = 0;
  for (unsigned begin = 0; begin < count; begin += kChunk) {
    const unsigned end =
        std::min(count, begin + static_cast<unsigned>(kChunk));
    // Every cell is stored at the next free slot, which only a kept
    // cell then claims: no branch on the random target.
    std::size_t n = 0;
    for (unsigned i = begin; i < end; ++i) {
      const Rng::NormalDraw vth = stream.draw_normal();
      const Rng::NormalDraw k = stream.draw_normal();
      const Rng::NormalDraw s = stream.draw_normal();
      const Level target = pattern.has_value()
                               ? *pattern
                               : static_cast<Level>(stream.below(4));
      draws[0].take(n, vth);
      draws[1].take(n, k);
      draws[2].take(n, s);
      out.targets[kept + n] = target;
      n += target != Level::kL0 ? 1 : 0;
    }
    evaluate(draws[0], n, erased, none, out.vth.data() + kept);
    evaluate(draws[1], n, at_wear.onset(), none, out.k_onset.data() + kept);
    evaluate(draws[2], n, at_wear.sharpness(),
             VariabilitySampler::AtWear::kMinSharpness,
             out.sharpness.data() + kept);
    kept += n;
  }
  rng = stream;
  return kept;
}

// --- the pulse loop --------------------------------------------------------

// The active (not inhibited) cells, ascending, one array per field. The
// arrays hold a multiple of kLanes entries; lanes past `count` are
// stale and masked.
struct Active {
  double* vth;
  double* k_onset;
  double* sharpness;
  double* err;  // the bound e on |vth - exact vth|
  std::int64_t* tag;
  std::size_t count;
  double k_onset_bound;    // dk
  double sharpness_bound;  // ds
};

struct PulseOutcome {
  bool certain = true;
  std::array<double, 4> fastest{};  // per level, as IsppEngine folds it
  double max_err = 0.0;
};

[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256d valid_lanes(
    std::size_t begin, std::size_t count) {
  const auto left = static_cast<std::int64_t>(count - begin);
  return _mm256_castsi256_pd(_mm256_cmpgt_epi64(
      _mm256_set1_epi64x(left), _mm256_setr_epi64x(0, 1, 2, 3)));
}

[[gnu::target("avx2,fma"), gnu::always_inline]] inline double max4(
    __m256d v) {
  alignas(32) std::array<double, 4> lanes{};
  _mm256_store_pd(lanes.data(), v);
  return std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
}

// One program pulse at `vcg` (`vcg_biased` in the DV slow zone) over the
// active cells, drawing noise from `rng` exactly where the exact engine
// draws it. Folds each level's fastest threshold and the largest bound.
[[gnu::target("avx2,fma")]] PulseOutcome pulse(const Active& cells,
                                               double vcg, double vcg_biased,
                                               double injection_sigma,
                                               double margin_scale, Rng& rng) {
  PulseOutcome out;
  const __m256d vcg4 = _mm256_set1_pd(vcg);
  const __m256d vcg_biased4 = _mm256_set1_pd(vcg_biased);
  const __m256d inj = _mm256_set1_pd(injection_sigma);
  const __m256d scale = _mm256_set1_pd(margin_scale);
  const __m256d min_step = _mm256_set1_pd(FloatingGateCell::kMinStepVolts);
  const __m256d linear =
      _mm256_set1_pd(FloatingGateCell::kLinearOnsetRatio);
  const __m256d round49 = _mm256_set1_pd(kRound49);
  const __m256d round50 = _mm256_set1_pd(kRound50);
  const __m256d k1 = _mm256_set1_pd(kK1);
  const __m256d eps_step = _mm256_set1_pd(kEpsStep);
  const __m256d dk = _mm256_set1_pd(cells.k_onset_bound);
  const __m256d ds = _mm256_set1_pd(cells.sharpness_bound);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d floor = _mm256_set1_pd(-100.0);
  const __m256i slow_bit = _mm256_set1_epi64x(kSlowZone);
  const __m256i level_bits = _mm256_set1_epi64x(kLevelBits);
  __m256d fastest[4] = {floor, floor, floor, floor};
  __m256d max_err = _mm256_setzero_pd();

  alignas(32) double arg[kChunk];   // x = od / s
  alignas(32) double soft[kChunk];  // softplus(x)
  alignas(32) double step[kChunk];
  alignas(32) double rho[kChunk];  // bound on |sigma / exact sigma - 1|
  alignas(32) double e_det[kChunk];  // e after the deterministic part
  alignas(32) double u1[kChunk];
  alignas(32) double u2[kChunk];
  alignas(32) double held[kChunk];
  alignas(32) std::int64_t sine[kChunk];
  alignas(32) std::int64_t is_held[kChunk];
  alignas(32) double normal[kChunk];      // the draw's value
  alignas(32) double normal_err[kChunk];  // bound on its deviation
  int drawing[kChunk / kLanes];
  // Lanes that do not draw keep harmless (stale or initial) inputs.
  for (std::size_t j = 0; j < kChunk; ++j) {
    u1[j] = 0.5;
    u2[j] = held[j] = 0.0;
    sine[j] = is_held[j] = 0;
  }
  // A local copy of the stream, which the stores below cannot reach, so
  // its state stays in registers; written back on success.
  Rng stream = rng;

  for (std::size_t begin = 0; begin < cells.count; begin += kChunk) {
    const std::size_t end = std::min(cells.count, begin + kChunk);

    // Stage 1a: each cell's softplus argument and value. Kept apart from
    // 1b so that each loop's blocks are short enough for several to be
    // in flight at once.
    for (std::size_t i = begin; i < end; i += kLanes) {
      const std::size_t j = i - begin;
      const __m256i tag = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(cells.tag + i));
      const __m256d c = _mm256_blendv_pd(
          vcg4, vcg_biased4,
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(
              _mm256_and_si256(tag, slow_bit), slow_bit)));
      const __m256d x = _mm256_div_pd(
          _mm256_sub_pd(_mm256_sub_pd(c, _mm256_loadu_pd(cells.vth + i)),
                        _mm256_loadu_pd(cells.k_onset + i)),
          _mm256_loadu_pd(cells.sharpness + i));
      _mm256_store_pd(arg + j, x);
      _mm256_store_pd(soft + j, softplus4(x));
    }

    // Stage 1b: each cell's step, its bound, and whether it draws.
    for (std::size_t i = begin, b = 0; i < end; i += kLanes, ++b) {
      const std::size_t j = i - begin;
      const __m256d valid = valid_lanes(i, cells.count);
      const __m256d v = _mm256_loadu_pd(cells.vth + i);
      const __m256d e = _mm256_loadu_pd(cells.err + i);
      const __m256d k = _mm256_loadu_pd(cells.k_onset + i);
      const __m256d s = _mm256_loadu_pd(cells.sharpness + i);
      const __m256i tag = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(cells.tag + i));
      const __m256d slow = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(tag, slow_bit), slow_bit));

      const __m256d c = _mm256_blendv_pd(vcg4, vcg_biased4, slow);
      const __m256d od = _mm256_sub_pd(_mm256_sub_pd(c, v), k);
      const __m256d x = _mm256_load_pd(arg + j);
      // The sampled parameters' share of e_x: dk + |x| ds.
      const __m256d e_param = _mm256_fmadd_pd(abs4(x), ds, dk);
      const __m256d mag =
          _mm256_add_pd(_mm256_add_pd(abs4(c), abs4(v)),
                        _mm256_add_pd(abs4(k), _mm256_add_pd(e, dk)));
      const __m256d e_x =
          _mm256_fmadd_pd(round49, mag, _mm256_add_pd(e, e_param));
      const __m256d sp = _mm256_load_pd(soft + j);
      const __m256d st = _mm256_blendv_pd(
          _mm256_mul_pd(s, sp), od, _mm256_cmp_pd(x, linear, _CMP_GT_OQ));
      const __m256d gain = _mm256_min_pd(sp, one);
      const __m256d sp_ds = _mm256_mul_pd(sp, ds);
      const __m256d dstep = _mm256_mul_pd(
          k1, _mm256_fmadd_pd(eps_step, st, _mm256_fmadd_pd(gain, e_x, sp_ds)));

      // dx = e_x / s bounds |x - exact x|; both tests below are on
      // dx * s, which needs no division.
      const __m256d m_step = _mm256_mul_pd(dstep, scale);
      const __m256d m_x = _mm256_mul_pd(e_x, scale);
      const __m256d draw =
          _mm256_cmp_pd(_mm256_sub_pd(st, m_step), min_step, _CMP_GT_OQ);
      const __m256d no_draw =
          _mm256_cmp_pd(_mm256_add_pd(st, m_step), min_step, _CMP_LE_OQ);
      // |x - 30| > dx, from |od - 30 s| > dx s plus the roundings of x
      // and of 30 s. Unordered compares are true on NaN, so a NaN bound
      // is ambiguous.
      const __m256d thirty_s = _mm256_mul_pd(linear, s);
      const __m256d branch_open = _mm256_cmp_pd(
          abs4(_mm256_sub_pd(od, thirty_s)),
          _mm256_fmadd_pd(round50, _mm256_add_pd(abs4(od), thirty_s), m_x),
          _CMP_NGT_UQ);
      // A validity condition of the bound itself, so never scaled: dx
      // and ds / s at most kDxLimit.
      const __m256d too_wide =
          _mm256_cmp_pd(_mm256_add_pd(e_x, ds),
                        _mm256_mul_pd(_mm256_set1_pd(kDxLimit), s),
                        _CMP_NLE_UQ);
      const __m256d ambiguous = _mm256_and_pd(
          valid,
          _mm256_or_pd(_mm256_andnot_pd(_mm256_or_pd(draw, no_draw),
                                        _mm256_castsi256_pd(
                                            _mm256_set1_epi64x(-1))),
                       _mm256_or_pd(branch_open, too_wide)));
      if (_mm256_movemask_pd(ambiguous) != 0) {
        out.certain = false;
        return out;
      }
      drawing[b] = _mm256_movemask_pd(_mm256_and_pd(valid, draw));
      _mm256_store_pd(step + j, st);
      // rho (see the error budget), with 1 / s from a single-precision
      // reciprocal raised past its 2^-11 error.
      const __m256d inv_s_upper = _mm256_mul_pd(
          _mm256_cvtps_pd(_mm_rcp_ps(_mm256_cvtpd_ps(s))),
          _mm256_set1_pd(1.0 + 0x1p-9));
      _mm256_store_pd(
          rho + j,
          _mm256_fmadd_pd(k1,
                          _mm256_fmadd_pd(_mm256_add_pd(e_x, ds),
                                          inv_s_upper, eps_step),
                          round50));
      const __m256d e_step =
          _mm256_fmadd_pd(eps_step, st, _mm256_mul_pd(round49, mag));
      _mm256_store_pd(
          e_det + j,
          _mm256_fmadd_pd(
              k1, _mm256_add_pd(e_step, _mm256_fmadd_pd(gain, e_param, sp_ds)),
              e));
    }

    // Stage 2: the noise draws, in cell order, exactly as the exact
    // engine takes them.
    for (std::size_t i = begin, b = 0; i < end; i += kLanes, ++b) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        if ((drawing[b] & (1 << lane)) == 0) continue;
        const std::size_t j = i - begin + lane;
        const Rng::NormalDraw d = stream.draw_normal();
        if (d.half == Rng::NormalDraw::Half::kValue) {
          held[j] = d.held;
          is_held[j] = -1;
        } else {
          u1[j] = d.u1;
          u2[j] = d.u2;
          sine[j] = d.half == Rng::NormalDraw::Half::kSin ? -1 : 0;
          is_held[j] = 0;
        }
      }
    }

    // Stage 3a: the draws' standard normals and their bounds.
    for (std::size_t j = 0, b = 0; begin + j < end; j += kLanes, ++b) {
      if (drawing[b] == 0) continue;
      const __m256d held_mask = _mm256_castsi256_pd(_mm256_load_si256(
          reinterpret_cast<const __m256i*>(is_held + j)));
      __m256d radius;
      const __m256d pair_value = pair_half4(
          _mm256_load_pd(u1 + j), _mm256_load_pd(u2 + j),
          _mm256_load_si256(reinterpret_cast<const __m256i*>(sine + j)),
          radius);
      _mm256_store_pd(normal + j,
                      _mm256_blendv_pd(pair_value, _mm256_load_pd(held + j),
                                       held_mask));
      _mm256_store_pd(
          normal_err + j,
          _mm256_andnot_pd(held_mask,
                           _mm256_mul_pd(radius, _mm256_set1_pd(kEpsNormal))));
    }

    // Stage 3b: the drawing cells' new thresholds and bounds; every
    // cell's threshold folds into its level's fastest.
    for (std::size_t i = begin, b = 0; i < end; i += kLanes, ++b) {
      const std::size_t j = i - begin;
      const __m256d valid = valid_lanes(i, cells.count);
      __m256d v = _mm256_loadu_pd(cells.vth + i);
      __m256d e = _mm256_loadu_pd(cells.err + i);
      if (drawing[b] != 0) {
        const __m256d st = _mm256_load_pd(step + j);
        const __m256d z = _mm256_load_pd(normal + j);
        const __m256d dz = _mm256_load_pd(normal_err + j);

        const __m256d sigma = _mm256_mul_pd(inj, _mm256_sqrt_pd(st));
        const __m256d noise = _mm256_mul_pd(sigma, z);
        const __m256d v_next = _mm256_add_pd(v, _mm256_fmadd_pd(sigma, z, st));
        const __m256d r = _mm256_load_pd(rho + j);
        const __m256d e_noise = _mm256_mul_pd(
            _mm256_mul_pd(k1, sigma),
            _mm256_fmadd_pd(abs4(z), r,
                            _mm256_mul_pd(dz, _mm256_add_pd(one, r))));
        const __m256d e_round = _mm256_mul_pd(
            round50, _mm256_add_pd(_mm256_add_pd(abs4(v_next), st),
                                   abs4(noise)));
        const __m256d e_next = _mm256_add_pd(
            _mm256_add_pd(_mm256_load_pd(e_det + j), e_noise), e_round);
        const __m256d drew = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
            _mm256_and_si256(_mm256_set1_epi64x(drawing[b]),
                             _mm256_setr_epi64x(1, 2, 4, 8)),
            _mm256_setzero_si256()));
        v = _mm256_blendv_pd(v, v_next, drew);
        e = _mm256_blendv_pd(e, e_next, drew);
        _mm256_storeu_pd(cells.vth + i, v);
        _mm256_storeu_pd(cells.err + i, e);
      }
      const __m256i level = _mm256_and_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cells.tag + i)),
          level_bits);
      for (int l = 1; l <= 3; ++l) {
        const __m256d member = _mm256_and_pd(
            valid, _mm256_castsi256_pd(
                       _mm256_cmpeq_epi64(level, _mm256_set1_epi64x(l))));
        fastest[l] =
            _mm256_max_pd(fastest[l], _mm256_blendv_pd(floor, v, member));
      }
      max_err = _mm256_max_pd(max_err, _mm256_and_pd(valid, e));
    }
  }
  rng = stream;
  for (int l = 1; l <= 3; ++l) out.fastest[l] = max4(fastest[l]);
  out.fastest[0] = -100.0;
  out.max_err = max4(max_err);
  return out;
}

// Stores the lanes `perm` selects, in order, at `out`.
[[gnu::target("avx2,fma"), gnu::always_inline]] inline void pack(
    double* out, __m256d lanes, __m256i perm) {
  _mm256_storeu_pd(out, _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
                            _mm256_castpd_si256(lanes), perm)));
}

struct VerifyOutcome {
  bool certain = true;
  std::array<std::size_t, 4> inhibited{};  // per level
};

// Looks up lane values by level: table[level] for each lane, the
// tables being 4 x 64-bit entries in one register.
[[gnu::target("avx2,fma"), gnu::always_inline]] inline __m256i by_level(
    __m256i table, __m256i level) {
  const __m256i twice = _mm256_slli_epi64(level, 1);
  const __m256i pairs = _mm256_or_si256(
      twice, _mm256_slli_epi64(_mm256_add_epi64(twice, _mm256_set1_epi64x(1)),
                               32));
  return _mm256_permutevar8x32_epi32(table, pairs);
}

// One verify phase over the sensed levels: DV cells past their
// pre-verify level enter the slow zone, cells past their verify level
// are inhibited and packed out of `cells`, order kept.
[[gnu::target("avx2,fma")]] VerifyOutcome verify(
    Active& cells, const std::array<bool, 4>& sensed,
    const std::array<double, 4>& pre, const std::array<double, 4>& vfy,
    bool double_verify, double margin_scale) {
  VerifyOutcome out;
  // A bound inflated by 2^-50 also covers the rounding of v - level.
  const __m256d scale = _mm256_set1_pd(margin_scale * (1.0 + kRound50));
  const __m256i slow_bit = _mm256_set1_epi64x(kSlowZone);
  const __m256i level_bits = _mm256_set1_epi64x(kLevelBits);
  const __m256i vfy_table =
      _mm256_castpd_si256(_mm256_setr_pd(vfy[0], vfy[1], vfy[2], vfy[3]));
  const __m256i pre_table =
      _mm256_castpd_si256(_mm256_setr_pd(pre[0], pre[1], pre[2], pre[3]));
  const __m256i sensed_table = _mm256_setr_epi64x(
      sensed[0] ? -1 : 0, sensed[1] ? -1 : 0, sensed[2] ? -1 : 0,
      sensed[3] ? -1 : 0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < cells.count; i += kLanes) {
    const __m256d valid = valid_lanes(i, cells.count);
    const __m256d v = _mm256_loadu_pd(cells.vth + i);
    const __m256d e = _mm256_loadu_pd(cells.err + i);
    __m256i tag = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(cells.tag + i));
    const __m256i level = _mm256_and_si256(tag, level_bits);
    const __m256d sensed_lane = _mm256_and_pd(
        valid, _mm256_castsi256_pd(by_level(sensed_table, level)));
    const __m256d margin = _mm256_mul_pd(e, scale);

    const __m256d to_vfy = _mm256_sub_pd(
        v, _mm256_castsi256_pd(by_level(vfy_table, level)));
    const __m256d inhibit = _mm256_and_pd(
        sensed_lane, _mm256_cmp_pd(to_vfy, margin, _CMP_GT_OQ));
    __m256d ambiguous = _mm256_and_pd(
        sensed_lane, _mm256_cmp_pd(abs4(to_vfy), margin, _CMP_NGT_UQ));
    if (double_verify) {
      const __m256d pulsing = _mm256_andnot_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(
              _mm256_and_si256(tag, slow_bit), slow_bit)),
          sensed_lane);
      const __m256d to_pre = _mm256_sub_pd(
          v, _mm256_castsi256_pd(by_level(pre_table, level)));
      const __m256d enter = _mm256_and_pd(
          pulsing, _mm256_cmp_pd(to_pre, margin, _CMP_GT_OQ));
      ambiguous = _mm256_or_pd(
          ambiguous, _mm256_and_pd(pulsing, _mm256_cmp_pd(abs4(to_pre), margin,
                                                          _CMP_NGT_UQ)));
      tag = _mm256_or_si256(
          tag, _mm256_and_si256(_mm256_castpd_si256(enter), slow_bit));
    }
    if (_mm256_movemask_pd(ambiguous) != 0) {
      out.certain = false;
      return out;
    }
    const int inhibited = _mm256_movemask_pd(inhibit);
    if (inhibited == 0 && kept == i) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cells.tag + i), tag);
      kept += static_cast<std::size_t>(
          std::popcount(static_cast<unsigned>(_mm256_movemask_pd(valid))));
      continue;
    }
    for (int lane = 0; lane < 4; ++lane) {
      if ((inhibited & (1 << lane)) != 0) {
        ++out.inhibited[static_cast<std::size_t>(cells.tag[i + lane] &
                                                 kLevelBits)];
      }
    }
    const int keep = _mm256_movemask_pd(_mm256_andnot_pd(inhibit, valid));
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kPackTable[keep].data()));
    pack(cells.vth + kept, v, perm);
    pack(cells.err + kept, e, perm);
    pack(cells.k_onset + kept, _mm256_loadu_pd(cells.k_onset + i), perm);
    pack(cells.sharpness + kept, _mm256_loadu_pd(cells.sharpness + i), perm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cells.tag + kept),
                        _mm256_permutevar8x32_epi32(tag, perm));
    kept +=
        static_cast<std::size_t>(std::popcount(static_cast<unsigned>(keep)));
  }
  cells.count = kept;
  return out;
}

}  // namespace
#else
namespace {
// Unreachable off x86-64, where host_ispp_kernel() is kScalar.
double sampled_lane(NormalLaw, double, double, bool) { return 0.0; }
double exp_lane(double) { return 0.0; }
double log1p_lane(double) { return 0.0; }
double log_lane(double) { return 0.0; }
double cos_or_sin_2pi_lane(double, bool) { return 0.0; }
double softplus_lane(double) { return 0.0; }
}  // namespace
#endif  // __x86_64__

std::optional<IsppTrace> program_certified(const IsppEngine& engine,
                                           CellColumns& cells,
                                           ProgramAlgorithm algo, Rng& rng,
                                           double dv_zone_multiplier,
                                           double margin_scale) {
  XLF_EXPECT(host_ispp_kernel() == IsppKernel::kAvx2);
  XLF_EXPECT(cells.vth.size() == cells.targets.size() &&
             cells.k_onset.size() == cells.targets.size() &&
             cells.sharpness.size() == cells.targets.size());
  XLF_EXPECT(dv_zone_multiplier >= 1.0);
  XLF_EXPECT(margin_scale >= 1.0);
#if defined(__x86_64__)
  // Everything outside pulse() and verify() mirrors IsppEngine::program
  // expression for expression, in code built without FMA, so the trace
  // accumulates the same doubles.
  const IsppConfig& config = engine.config();
  const VoltagePlan& plan = engine.plan();
  IsppTrace trace;
  trace.algorithm = algo;
  trace.setup_time = config.setup_time;
  const bool double_verify = algo == ProgramAlgorithm::kIsppDv;

  // Pad every column to whole lanes.
  const std::size_t count = cells.targets.size();
  const std::size_t padded = (count + kLanes - 1) / kLanes * kLanes;
  cells.vth.resize(padded, 0.0);
  cells.k_onset.resize(padded, 0.0);
  cells.sharpness.resize(padded, 1.0);
  std::vector<double> err(padded, cells.vth_bound);
  std::vector<std::int64_t> tag(padded, 0);
  std::array<std::size_t, 4> pending_per_level{0, 0, 0, 0};
  for (std::size_t i = 0; i < count; ++i) {
    const Level target = cells.targets[i];
    XLF_EXPECT(target != Level::kL0);
    tag[i] = static_cast<std::int64_t>(target);
    ++pending_per_level[static_cast<std::size_t>(target)];
  }
  Active active{cells.vth.data(),       cells.k_onset.data(),
                cells.sharpness.data(), err.data(),
                tag.data(),             count,
                cells.k_onset_bound,    cells.sharpness_bound};

  std::array<Volts, 4> vfy{}, pre{};
  std::array<double, 4> vfy_volts{}, pre_volts{};
  for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
    const auto li = static_cast<std::size_t>(level);
    vfy[li] = plan.verify_for(level);
    pre[li] = vfy[li] - plan.pre_verify_offset * dv_zone_multiplier;
    vfy_volts[li] = vfy[li].value();
    pre_volts[li] = pre[li].value();
  }

  Volts vcg = config.v_start;
  for (unsigned pulse_index = 0; pulse_index < config.max_pulses;
       ++pulse_index) {
    const bool any_pending =
        pending_per_level[1] + pending_per_level[2] + pending_per_level[3] > 0;
    if (!any_pending) break;

    const PulseOutcome pulsed =
        pulse(active, vcg.value(), (vcg - config.dv_bitline_bias).value(),
              cells.injection_sigma, margin_scale, rng);
    if (!pulsed.certain) return std::nullopt;
    ++trace.pulses;
    trace.program_pump_time += config.pulse_time;
    trace.inhibit_pump_time += config.pulse_time;
    trace.vcg_time_integral += vcg.value() * config.pulse_time.value();

    // The fastest thresholds are off by at most the largest bound, and
    // v - level rounds by at most 2^-50 of it.
    std::array<bool, 4> sensed{false, false, false, false};
    bool any_crossing = false;
    const double fastest_margin =
        pulsed.max_err * margin_scale * (1.0 + 0x1p-50);
    for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
      const auto li = static_cast<std::size_t>(level);
      if (pending_per_level[li] == 0) continue;
      const Volts sense_from = double_verify ? pre[li] : vfy[li];
      const Volts lookahead_floor = sense_from - config.verify_lookahead;
      const double to_floor = pulsed.fastest[li] - lookahead_floor.value();
      if (!(std::abs(to_floor) > fastest_margin)) return std::nullopt;
      if (to_floor < 0.0) continue;
      sensed[li] = true;
      for (int sense = double_verify ? 2 : 1; sense > 0; --sense) {
        ++trace.verify_ops;
        trace.verify_pump_time += config.verify_time;
      }
      // While every cell of the level is certainly below its first
      // sensing voltage, the verify phase changes none of them.
      any_crossing = any_crossing || !(sense_from.value() - pulsed.fastest[li] >
                                       fastest_margin);
    }

    if (any_crossing) {
      const VerifyOutcome verified = verify(active, sensed, pre_volts,
                                            vfy_volts, double_verify,
                                            margin_scale);
      if (!verified.certain) return std::nullopt;
      for (std::size_t li = 1; li < 4; ++li) {
        pending_per_level[li] -= verified.inhibited[li];
      }
    }

    vcg = std::min(vcg + config.v_step, config.v_end);
  }

  trace.failed_cells = static_cast<unsigned>(
      pending_per_level[1] + pending_per_level[2] + pending_per_level[3]);
  trace.converged = trace.failed_cells == 0;
  return trace;
#else
  (void)engine;
  (void)algo;
  (void)rng;
  return std::nullopt;
#endif
}

CellColumns sample_certified(NormalLaw erased,
                             const VariabilitySampler::AtWear& at_wear,
                             unsigned cells, std::optional<Level> pattern,
                             Rng& rng) {
  XLF_EXPECT(host_ispp_kernel() == IsppKernel::kAvx2);
  CellColumns out;
#if defined(__x86_64__)
  out.vth.resize(cells + kLanes);
  out.k_onset.resize(cells + kLanes);
  out.sharpness.resize(cells + kLanes);
  out.targets.resize(cells + kLanes);
  const std::size_t kept =
      sample_lanes(erased, at_wear, cells, pattern, rng, out);
  out.vth.resize(kept);
  out.k_onset.resize(kept);
  out.sharpness.resize(kept);
  out.targets.resize(kept);
  out.injection_sigma = at_wear.injection_sigma().value();
  out.vth_bound = certified_math::sampled_bound(erased);
  out.k_onset_bound = certified_math::sampled_bound(at_wear.onset());
  out.sharpness_bound = certified_math::sampled_bound(at_wear.sharpness());
#else
  (void)erased;
  (void)at_wear;
  (void)cells;
  (void)pattern;
  (void)rng;
#endif
  return out;
}

namespace certified_math {
namespace {

void require_avx2() { XLF_EXPECT(host_ispp_kernel() == IsppKernel::kAvx2); }

}  // namespace

double sampled_bound(NormalLaw law) {
  const double spread = law.sigma * kRadiusBound;
  return spread * kEpsNormal + kRound50 * (std::abs(law.mean) + spread);
}

double sampled_value(NormalLaw law, const Rng::NormalDraw& draw) {
  require_avx2();
  XLF_EXPECT(draw.half != Rng::NormalDraw::Half::kValue);
  return sampled_lane(law, draw.u1, draw.u2,
                      draw.half == Rng::NormalDraw::Half::kSin);
}

double exp(double x) {
  require_avx2();
  return exp_lane(x);
}
double log1p(double y) {
  require_avx2();
  return log1p_lane(y);
}
double log(double u) {
  require_avx2();
  return log_lane(u);
}
double sin_2pi(double u) {
  require_avx2();
  return cos_or_sin_2pi_lane(u, true);
}
double cos_2pi(double u) {
  require_avx2();
  return cos_or_sin_2pi_lane(u, false);
}
double softplus(double x) {
  require_avx2();
  return softplus_lane(x);
}

}  // namespace certified_math

}  // namespace xlf::nand
