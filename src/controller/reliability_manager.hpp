// The integrated reliability manager (paper Section 3): selects the
// minimal BCH correction capability meeting the UBER target through a
// pluggable policy::TuningPolicy — the built-ins are `static` (hold
// the configured t), `model_based` (t from the device's known wear
// state and RBER law) and `feedback` (t from live corrected-bit
// feedback out of the ECC unit, the self-adaptive path). Eq. (1)
// closes the loop in the model-based and feedback cases.
//
// The manager owns all mutable state (the EWMA estimator, the
// saturation flag); the policy object is immutable and consulted per
// decision with a TuningContext snapshot, so one policy instance is
// safely shared across dies and threads.
#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "src/bch/code_params.hpp"
#include "src/nand/aging.hpp"
#include "src/policy/policy.hpp"

namespace xlf::controller {

struct ReliabilityConfig {
  double uber_target = 1e-11;  // Section 6.2
  unsigned m = 16;
  std::uint32_t k = 32768;
  unsigned t_min = 3;
  unsigned t_max = 65;
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
  // `policy_name` is looked up in PolicyRegistry<TuningPolicy>;
  // unknown names throw listing the registered policies.
  ReliabilityManager(const ReliabilityConfig& config,
                     const std::string& policy_name,
                     const nand::AgingLaw& law);

  const std::string& policy_name() const { return policy_name_; }
  const policy::TuningPolicy& tuning_policy() const { return *policy_; }
  // Swap the tuning strategy at runtime (estimator state is kept).
  void set_policy(const std::string& policy_name);
  const ReliabilityConfig& config() const { return config_; }

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
  // Recommended t per the active policy and current state;
  // `fallback_t` is returned by policies that decline to retune (the
  // static policy, feedback before warm-up).
  unsigned recommended_t(nand::ProgramAlgorithm algo, double pe_cycles,
                         unsigned fallback_t) const;

  // True when the last selection could not meet the target within t_max.
  bool saturated() const { return saturated_; }

 private:
  // Bridges a TuningPolicy's t_for_rber calls back to the manager so
  // the saturation flag tracks exactly the selections that consulted
  // the UBER equation. Nested for private access; defined in the cpp.
  struct Host;

  // Eq. (1) for this config, memoised: the answer is a pure function
  // of rber, and a block's wear (so its rber) only moves at erase.
  unsigned t_for_rber(double rber) const;

  // One memoised Eq. (1) solve; t is empty when the target is out of
  // reach within t_max (saturated).
  struct MemoEntry {
    // NaN equals nothing, so an empty slot never hits.
    double rber = std::numeric_limits<double>::quiet_NaN();
    std::optional<unsigned> t;
  };

  ReliabilityConfig config_;
  std::string policy_name_;
  std::shared_ptr<const policy::TuningPolicy> policy_;
  nand::AgingLaw law_;
  double rber_estimate_ = 0.0;
  unsigned pages_seen_ = 0;
  mutable bool saturated_ = false;
  // Exact-key memo, replaced round-robin.
  mutable std::array<MemoEntry, 4> memo_{};
  mutable std::size_t memo_next_ = 0;
};

}  // namespace xlf::controller
