#include "src/ecc_hw/latency.hpp"

#include <cmath>

#include "src/util/expect.hpp"

namespace xlf::ecc_hw {
namespace {

unsigned long long ceil_div(unsigned long long a, unsigned long long b) {
  return (a + b - 1) / b;
}

}  // namespace

LatencyModel::LatencyModel(const EccHwConfig& config) : config_(config) {
  XLF_EXPECT(config_.lfsr_parallelism >= 1);
  XLF_EXPECT(config_.chien_parallelism >= 1);
  XLF_EXPECT(config_.clock.value() > 0.0);
  config_.code.check();
}

void LatencyModel::check_t(unsigned t) const {
  XLF_EXPECT(config_.code.contains(t));
}

unsigned long long LatencyModel::encode_cycles() const {
  return ceil_div(config_.code.k, config_.lfsr_parallelism) +
         config_.stage_overhead_cycles;
}

unsigned long long LatencyModel::alignment_cycles(unsigned t) const {
  check_t(t);
  // When the r = m*t parity bits are not a multiple of the datapath
  // parallelism the decoder runs a preliminary alignment phase
  // (Section 4); one cycle per residual bit.
  return config_.code.at(t).parity_bits() % config_.lfsr_parallelism;
}

unsigned long long LatencyModel::syndrome_cycles(unsigned t) const {
  check_t(t);
  return ceil_div(config_.code.at(t).n(), config_.lfsr_parallelism) +
         alignment_cycles(t);
}

unsigned long long LatencyModel::berlekamp_massey_cycles(unsigned t) const {
  check_t(t);
  // t iterations; iteration i updates a locator of degree <= i on a
  // folded m-bit datapath: (t+1) cycles each.
  return static_cast<unsigned long long>(t) * (t + 1);
}

unsigned long long LatencyModel::chien_cycles(unsigned t) const {
  check_t(t);
  return ceil_div(config_.code.at(t).n(), config_.chien_parallelism);
}

unsigned long long LatencyModel::decode_cycles(unsigned t) const {
  return syndrome_cycles(t) + berlekamp_massey_cycles(t) + chien_cycles(t) +
         3ull * config_.stage_overhead_cycles;
}

unsigned long long LatencyModel::decode_cycles_clean(unsigned t) const {
  return syndrome_cycles(t) + config_.stage_overhead_cycles;
}

Seconds LatencyModel::encode_latency() const {
  return config_.clock.period() * static_cast<double>(encode_cycles());
}

Seconds LatencyModel::decode_latency(unsigned t) const {
  return config_.clock.period() * static_cast<double>(decode_cycles(t));
}

Seconds LatencyModel::decode_latency_clean(unsigned t) const {
  return config_.clock.period() * static_cast<double>(decode_cycles_clean(t));
}

Seconds LatencyModel::expected_decode_latency(unsigned t, double rber) const {
  check_t(t);
  XLF_EXPECT(rber >= 0.0 && rber < 1.0);
  const double n = static_cast<double>(config_.code.at(t).n());
  const double p_clean = std::exp(n * std::log1p(-rber));
  const Seconds clean = decode_latency_clean(t);
  const Seconds dirty = decode_latency(t);
  return clean * p_clean + dirty * (1.0 - p_clean);
}

}  // namespace xlf::ecc_hw
