#include "src/policy/policy.hpp"

#include <optional>
#include <stdexcept>
#include <string>

#include "src/util/expect.hpp"

namespace xlf::policy {

template <class P>
P parse(std::string_view name) {
  constexpr auto& table = Names<P>::table;
  static_assert(std::ranges::is_sorted(table),
                "a name table lists its names sorted, as errors print them");
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i] == name) return static_cast<P>(i);
  }
  std::string message = "unknown ";
  message += Names<P>::kind;
  message += " policy '";
  message += name;
  message += "'; available:";
  for (const std::string_view known : table) {
    message += " ";
    message += known;
  }
  throw std::invalid_argument(message);
}

template Tuning parse<Tuning>(std::string_view);
template Gc parse<Gc>(std::string_view);
template Wear parse<Wear>(std::string_view);
template Refresh parse<Refresh>(std::string_view);
template Arbitration parse<Arbitration>(std::string_view);

// Retention-aware refresh: preventively re-program blocks whose
// predicted post-retention RBER approaches the correction-capability
// budget their pages were written with.
//
// Motivation (Cai et al., "Data Retention in MLC NAND Flash Memory":
// characterization/optimization/recovery of retention errors; and the
// mitigation taxonomy of Cai et al.'s SSD error survey): retention
// charge loss is the dominant error source between writes, it grows
// with both storage time and P/E wear, and periodically re-programming
// cold data resets it. A model-based tuner assigns each block the
// *minimal* t for its wear at program time, so any retention growth
// eats directly into the correction margin — exactly the gap this
// policy closes.
//
// First-order prediction model: the instantaneous RBER law gives the
// block's error rate right after programming; retention multiplies it
// by (1 + strength * hours/1000h * wear_accel), the linear head of the
// time- and wear-dependent growth the characterisation papers report
// (wear_accel rises with P/E because aged oxide leaks faster). The
// block is refreshed when the minimal t meeting the UBER target at
// that stressed RBER reaches or exceeds the t budget its pages carry —
// i.e. when predicted retention would consume the entire margin.
bool should_refresh(Refresh refresh, const RefreshContext& ctx) {
  if (refresh == Refresh::kNone) return false;
  // RBER growth per 1000 hours of retention at the knee-cycle wear
  // point; calibrated so mid-life blocks survive the default 1000 h
  // horizon untouched while end-of-life blocks trip the refresh.
  constexpr double kStrengthPer1kHours = 4.0;

  XLF_EXPECT(ctx.law != nullptr);
  if (ctx.page_t == 0) return false;  // never programmed
  if (ctx.retention_hours <= 0.0) return false;

  const double fresh_rber = ctx.law->rber(ctx.algo, ctx.pe_cycles);
  // Wear acceleration: leakage grows past the aging law's knee the
  // same way its RBER term does, normalised to 1 at the knee.
  const double wear_accel = ctx.pe_cycles / ctx.law->knee_cycles;
  const double stressed_rber =
      fresh_rber * (1.0 + kStrengthPer1kHours *
                              (ctx.retention_hours / 1000.0) * wear_accel);

  const std::optional<unsigned> required =
      bch::min_t_for_uber(stressed_rber, ctx.uber_target, ctx.code.k,
                          ctx.code.m, ctx.code.t_min, ctx.code.t_max);
  // No t can hold the target after retention — refresh immediately.
  if (!required.has_value()) return true;
  // Refresh when the stressed requirement outgrows the pages' t. A
  // strict compare, because a model-based tuner assigns exactly the
  // fresh requirement at program time: equality is the healthy
  // steady state, one step beyond it means retention would consume
  // the entire margin.
  return *required > ctx.page_t;
}

}  // namespace xlf::policy
