// The cross-layer control plane's vocabulary (xlf::policy).
//
// The paper's controller co-selects the ISPP algorithm and the BCH t
// its reliability manager derives from Eq. (1). Every other decision
// of the stack is made by one of a fixed set of built-in strategies,
// one enum per control point:
//
//  * Tuning      — per-block t selection inside the controller's
//    reliability manager (feedback / model_based / static);
//  * Gc          — garbage-collection victim scoring inside the FTL's
//    per-die allocator (cost-benefit / greedy);
//  * Wear        — free-block preference and the static cold-block
//    swap (dynamic / none / static);
//  * Refresh     — background scrub: which blocks are preventively
//    re-programmed before retention errors outgrow the t their pages
//    were written with (none / retention_aware);
//  * Arbitration — which host submission queue issues its next
//    command when the device has a free slot (round-robin /
//    weighted).
//
// Specs, flags and report columns name a strategy by string;
// parse<P>() turns the name into its enum value once, at the
// configuration edge, and every consumer switches on the value. This
// layer holds the GC, wear and refresh arithmetic; the tuning switch
// lives in the reliability manager and the arbitration switch in
// HostInterface::arbitrate, beside the state each one reads.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>

#include "src/bch/code_params.hpp"
#include "src/nand/aging.hpp"

namespace xlf::policy {

// Each enum lists its strategies in name order: a value's underlying
// integer is its index in Names<P>::table.
enum class Tuning { kFeedback, kModelBased, kStatic };
enum class Gc { kCostBenefit, kGreedy };
enum class Wear { kDynamic, kNone, kStatic };
enum class Refresh { kNone, kRetentionAware };
enum class Arbitration { kRoundRobin, kWeighted };

// Per kind: the label errors and --list-policies print, and the
// strategy names, sorted.
template <class P>
struct Names;
template <>
struct Names<Tuning> {
  static constexpr std::string_view kind = "tuning";
  static constexpr std::array<std::string_view, 3> table{
      "feedback", "model_based", "static"};
};
template <>
struct Names<Gc> {
  static constexpr std::string_view kind = "gc";
  static constexpr std::array<std::string_view, 2> table{"cost-benefit",
                                                         "greedy"};
};
template <>
struct Names<Wear> {
  static constexpr std::string_view kind = "wear";
  static constexpr std::array<std::string_view, 3> table{"dynamic", "none",
                                                         "static"};
};
template <>
struct Names<Refresh> {
  static constexpr std::string_view kind = "refresh";
  static constexpr std::array<std::string_view, 2> table{"none",
                                                         "retention_aware"};
};
template <>
struct Names<Arbitration> {
  static constexpr std::string_view kind = "arbitration";
  static constexpr std::array<std::string_view, 2> table{"round-robin",
                                                         "weighted"};
};

// The strategy named `name`. Throws std::invalid_argument
// "unknown <kind> policy '<name>'; available: <names, sorted>".
template <class P>
P parse(std::string_view name);

// --- GC ----------------------------------------------------------------

// Victim score of a closed block with `valid` of `pages_per_block`
// pages live, last written at logical stamp `last_write` (the FTL's
// monotonic write clock, `now` at pick time). The allocator collects
// the highest score, lowest block id on ties.
//  * greedy — fewest valid pages (cheapest copy-out now);
//  * cost-benefit — age * (1-u) / (2u), which lets a slightly fuller
//    but long-cold block win over a just-written sparse one
//    (Rosenblum & Ousterhout's LFS cleaner formula).
inline double gc_score(Gc gc, std::uint32_t valid,
                       std::uint32_t pages_per_block,
                       std::uint64_t last_write, std::uint64_t now) {
  if (gc == Gc::kGreedy) {
    return static_cast<double>(pages_per_block - valid);
  }
  const double u = static_cast<double>(valid) / pages_per_block;
  const double age =
      static_cast<double>(now - std::min(now, last_write)) + 1.0;
  // benefit/cost = free-space gain * age over twice the copy cost;
  // u == 0 degenerates to "free block's worth per unit cost", handled
  // by the u floor.
  return age * (1.0 - u) / (2.0 * std::max(u, 1e-9));
}

// --- Wear ----------------------------------------------------------------

// Free-block preference: the allocator opens the highest-scoring free
// block, lowest id on ties. "none" scores every block alike (so picks
// by id); "dynamic" and "static" prefer the least-erased block.
// "static" additionally swaps a cold block out once the die's erase
// spread exceeds FtlConfig::static_wl_spread (Ftl::maybe_static_swap).
inline double free_block_score(Wear wear, std::uint32_t erase_count) {
  return wear == Wear::kNone ? 0.0 : -static_cast<double>(erase_count);
}

// --- Refresh -------------------------------------------------------------

// One block as the scrub pass presents it.
struct RefreshContext {
  nand::ProgramAlgorithm algo = nand::ProgramAlgorithm::kIsppSv;
  // The block's own P/E counter.
  double pe_cycles = 0.0;
  // Correction capability the block's pages were written with — the t
  // budget a refresh decision guards.
  unsigned page_t = 0;
  // Retention horizon to guard against (hours at storage temperature
  // before the next scrub opportunity).
  double retention_hours = 0.0;
  // The ECC envelope the decision works inside (the die reliability
  // manager's): the code family and the UBER target.
  bch::CodeFamily code;
  double uber_target = 0.0;
  const nand::AgingLaw* law = nullptr;
};

// True when the scrub should re-program the block's live data now:
// never under "none"; under "retention_aware", when predicted
// post-retention errors would consume the block's whole t budget.
bool should_refresh(Refresh refresh, const RefreshContext& ctx);

}  // namespace xlf::policy
