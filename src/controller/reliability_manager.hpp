// The integrated reliability manager (paper Section 3): selects the
// minimal BCH correction capability meeting the UBER target under one
// policy::Tuning strategy — `static` (hold the configured t),
// `model_based` (t from the device's known wear state and RBER law)
// or `feedback` (t from live corrected-bit feedback out of the ECC
// unit, the self-adaptive path). Eq. (1) closes the loop in the
// model-based and feedback cases.
//
// The manager owns all the state a selection reads: the EWMA
// estimator, the saturation flag and the Eq. (1) memo.
#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <optional>

#include "src/bch/code_params.hpp"
#include "src/nand/aging.hpp"
#include "src/policy/policy.hpp"

namespace xlf::controller {

// The die's one stored UBER target and the feedback estimator; the
// code family comes from ecc_hw::EccHwConfig::code.
struct ReliabilityConfig {
  double uber_target = 1e-11;  // Section 6.2
  // Feedback estimator: EWMA smoothing and a multiplicative safety
  // margin on the estimated RBER (estimates from sparse error counts
  // are noisy; undershooting t is the expensive direction).
  double ewma_alpha = 0.05;
  double safety_factor = 1.25;
  // Pages to observe before trusting the feedback estimate.
  unsigned warmup_pages = 32;
};

class ReliabilityManager {
 public:
  ReliabilityManager(const ReliabilityConfig& config,
                     const bch::CodeFamily& code, policy::Tuning tuning,
                     const nand::AgingLaw& law);

  const ReliabilityConfig& config() const { return config_; }
  const bch::CodeFamily& code() const { return code_; }

  // --- model-based path ------------------------------------------------
  // Minimal t meeting the UBER target for the given algorithm/wear.
  // Saturates at t_max (and reports so via `saturated()`).
  unsigned select_t(nand::ProgramAlgorithm algo, double pe_cycles) const;
  // Eq. (1) evaluated at the configuration the manager would pick.
  double predicted_uber(nand::ProgramAlgorithm algo, double pe_cycles) const;

  // --- feedback path -----------------------------------------------------
  // Feed one decode result: corrected bits over a codeword of n bits.
  void observe_decode(unsigned corrected_bits, std::uint32_t codeword_bits);
  double estimated_rber() const;
  bool estimate_ready() const { return pages_seen_ >= config_.warmup_pages; }
  // Recommended t per the tuning strategy and current state;
  // `fallback_t` is returned when the strategy declines to retune
  // (static, feedback before warm-up).
  unsigned recommended_t(nand::ProgramAlgorithm algo, double pe_cycles,
                         unsigned fallback_t) const;

  // True when the last selection could not meet the target within t_max.
  bool saturated() const { return saturated_; }

 private:
  // Eq. (1) for this config, memoised: the answer is a pure function
  // of rber, and a block's wear (so its rber) only moves at erase.
  // Records saturation, so only selections that consult the UBER
  // equation (never `static`) touch the flag.
  unsigned t_for_rber(double rber) const;

  // One memoised Eq. (1) solve; t is empty when the target is out of
  // reach within t_max (saturated).
  struct MemoEntry {
    // NaN equals nothing, so an empty slot never hits.
    double rber = std::numeric_limits<double>::quiet_NaN();
    std::optional<unsigned> t;
  };

  ReliabilityConfig config_;
  bch::CodeFamily code_;
  policy::Tuning tuning_;
  nand::AgingLaw law_;
  double rber_estimate_ = 0.0;
  unsigned pages_seen_ = 0;
  mutable bool saturated_ = false;
  // Exact-key memo, replaced round-robin.
  mutable std::array<MemoEntry, 4> memo_{};
  mutable std::size_t memo_next_ = 0;
};

}  // namespace xlf::controller
