#include "src/controller/reliability_manager.hpp"

#include <algorithm>

#include "src/util/expect.hpp"

namespace xlf::controller {

ReliabilityManager::ReliabilityManager(const ReliabilityConfig& config,
                                       const bch::CodeFamily& code,
                                       policy::Tuning tuning,
                                       const nand::AgingLaw& law)
    : config_(config), code_(code), tuning_(tuning), law_(law) {
  XLF_EXPECT(config_.uber_target > 0.0 && config_.uber_target < 1.0);
  code_.check();
  XLF_EXPECT(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0);
  XLF_EXPECT(config_.safety_factor >= 1.0);
}

unsigned ReliabilityManager::t_for_rber(double rber) const {
  auto entry =
      std::find_if(memo_.begin(), memo_.end(),
                   [rber](const MemoEntry& e) { return e.rber == rber; });
  if (entry == memo_.end()) {
    const std::optional<unsigned> t =
        bch::min_t_for_uber(rber, config_.uber_target, code_.k, code_.m,
                            code_.t_min, code_.t_max);
    entry = memo_.begin() + static_cast<std::ptrdiff_t>(memo_next_);
    memo_next_ = (memo_next_ + 1) % memo_.size();
    *entry = MemoEntry{rber, t};
  }
  saturated_ = !entry->t.has_value();
  return entry->t.value_or(code_.t_max);
}

unsigned ReliabilityManager::select_t(nand::ProgramAlgorithm algo,
                                      double pe_cycles) const {
  return t_for_rber(law_.rber(algo, pe_cycles));
}

double ReliabilityManager::predicted_uber(nand::ProgramAlgorithm algo,
                                          double pe_cycles) const {
  const double rber = law_.rber(algo, pe_cycles);
  const unsigned t = t_for_rber(rber);
  return bch::uber(rber, code_.at(t).n(), t);
}

void ReliabilityManager::observe_decode(unsigned corrected_bits,
                                        std::uint32_t codeword_bits) {
  XLF_EXPECT(codeword_bits > 0);
  const double sample =
      static_cast<double>(corrected_bits) / codeword_bits;
  if (pages_seen_ == 0) {
    rber_estimate_ = sample;
  } else {
    rber_estimate_ = (1.0 - config_.ewma_alpha) * rber_estimate_ +
                     config_.ewma_alpha * sample;
  }
  ++pages_seen_;
}

double ReliabilityManager::estimated_rber() const { return rber_estimate_; }

unsigned ReliabilityManager::recommended_t(nand::ProgramAlgorithm algo,
                                           double pe_cycles,
                                           unsigned fallback_t) const {
  switch (tuning_) {
    case policy::Tuning::kStatic:
      return fallback_t;
    case policy::Tuning::kModelBased:
      return select_t(algo, pe_cycles);
    case policy::Tuning::kFeedback:
      break;
  }
  if (!estimate_ready()) return fallback_t;
  // Never trust an estimate of exactly zero: with no observed errors
  // the best statement is "below one error per observed window"; fall
  // back to the floor capability.
  if (rber_estimate_ <= 0.0) return code_.t_min;
  return t_for_rber(std::min(0.5, rber_estimate_ * config_.safety_factor));
}

}  // namespace xlf::controller
