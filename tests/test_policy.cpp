// The policy vocabulary and its decisions: every name in a kind's
// table parses to the enum value at its index, the tables are sorted
// (the order errors and --list-policies print), an unknown name
// throws listing every available name, and the GC and wear scores
// order blocks the way their strategies promise.
#include "src/policy/policy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace xlf::policy {
namespace {

template <class P>
void expect_table_round_trips() {
  const auto& table = Names<P>::table;
  EXPECT_TRUE(std::is_sorted(table.begin(), table.end())) << Names<P>::kind;
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(parse<P>(table[i]), static_cast<P>(i)) << table[i];
  }
}

TEST(PolicyNames, EveryTableEntryParsesToItsEnumValue) {
  expect_table_round_trips<Tuning>();
  expect_table_round_trips<Gc>();
  expect_table_round_trips<Wear>();
  expect_table_round_trips<Refresh>();
  expect_table_round_trips<Arbitration>();
  EXPECT_EQ(parse<Tuning>("model_based"), Tuning::kModelBased);
  EXPECT_EQ(parse<Gc>("cost-benefit"), Gc::kCostBenefit);
  EXPECT_EQ(parse<Wear>("none"), Wear::kNone);
  EXPECT_EQ(parse<Refresh>("retention_aware"), Refresh::kRetentionAware);
  EXPECT_EQ(parse<Arbitration>("weighted"), Arbitration::kWeighted);
}

template <class P>
std::string parse_error(const std::string& name) {
  try {
    (void)parse<P>(name);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// The message teaches the fix: every available name, sorted.
TEST(PolicyNames, UnknownNameThrowsListingAvailable) {
  EXPECT_EQ(parse_error<Tuning>("adaptive"),
            "unknown tuning policy 'adaptive'; available: feedback "
            "model_based static");
  EXPECT_EQ(parse_error<Gc>("round-robin"),
            "unknown gc policy 'round-robin'; available: cost-benefit greedy");
  EXPECT_EQ(parse_error<Wear>("lifo"),
            "unknown wear policy 'lifo'; available: dynamic none static");
  EXPECT_EQ(parse_error<Refresh>("Static"),
            "unknown refresh policy 'Static'; available: none "
            "retention_aware");
  EXPECT_EQ(parse_error<Arbitration>(""),
            "unknown arbitration policy ''; available: round-robin weighted");
}

TEST(PolicyDecisions, GcScoresOrderCandidates) {
  // Greedy: fewer valid pages scores higher, whatever the age.
  EXPECT_GT(gc_score(Gc::kGreedy, 1, 4, 900, 1000),
            gc_score(Gc::kGreedy, 3, 4, 0, 1000));
  // Cost-benefit: an ancient block with two valid pages beats a
  // just-written one with a single valid page.
  EXPECT_GT(gc_score(Gc::kCostBenefit, 2, 4, 1, 1001),
            gc_score(Gc::kCostBenefit, 1, 4, 1000, 1001));
  // An empty block is worth the most at any age (the u floor).
  EXPECT_GT(gc_score(Gc::kCostBenefit, 0, 4, 1000, 1001),
            gc_score(Gc::kCostBenefit, 1, 4, 0, 1001));
}

TEST(PolicyDecisions, FreeBlockScoresPreferLeastErased) {
  EXPECT_EQ(free_block_score(Wear::kNone, 2), free_block_score(Wear::kNone, 7));
  EXPECT_GT(free_block_score(Wear::kDynamic, 2),
            free_block_score(Wear::kDynamic, 7));
  EXPECT_GT(free_block_score(Wear::kStatic, 2),
            free_block_score(Wear::kStatic, 7));
}

}  // namespace
}  // namespace xlf::policy
