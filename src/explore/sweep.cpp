#include "src/explore/sweep.hpp"

#include <set>

#include "src/util/expect.hpp"

namespace xlf::explore {

FrameworkSpec FrameworkSpec::from(const core::SubsystemConfig& config) {
  FrameworkSpec spec;
  spec.controller = config.controller;
  spec.aging = config.device.array.aging;
  spec.timing = config.device.timing;
  spec.ispp = config.device.array.ispp;
  spec.plan = config.device.array.plan;
  spec.variability = config.device.array.variability;
  spec.hv = config.hv;
  return spec;
}

nand::NandTiming FrameworkSpec::make_timing() const {
  return nand::NandTiming(timing, ispp, plan, variability, aging);
}

// xlf: cold — report-time Pareto extraction; the hot closure only
// reaches it through the name collision with container front().
std::vector<core::Metrics> SweepResult::front() const {
  std::vector<core::Metrics> out;
  for (const SweepCell& cell : cells) {
    if (cell.pareto) out.push_back(cell.metrics);
  }
  return out;
}

std::vector<std::size_t> key_first_order(const std::vector<double>& ages) {
  std::vector<std::size_t> order, rest;
  order.reserve(ages.size());
  std::set<long> keys;
  for (std::size_t a = 0; a < ages.size(); ++a) {
    const bool first = keys.insert(nand::NandTiming::age_key(ages[a])).second;
    (first ? order : rest).push_back(a);
  }
  order.insert(order.end(), rest.begin(), rest.end());
  return order;
}

SweepResult sweep_space(const SweepSpec& spec, ThreadPool& pool) {
  XLF_EXPECT(!spec.ages.empty());
  // One framework shared by every age task: NandTiming's trace cache
  // is internally synchronised and key-deterministic, so workers no
  // longer build private clones. One task per age point — the ISPP
  // characterisation (the expensive part) is per (algo, age key), and
  // the key-first order gives each key's first touch to one task.
  nand::NandTiming timing = spec.framework.make_timing();
  const core::CrossLayerFramework framework(
      spec.framework.controller, spec.framework.aging, timing,
      spec.framework.hv);  // checks the code family
  const bch::CodeFamily& code = spec.framework.controller.ecc_hw.code;
  const std::size_t per_age = 2 * (code.t_max - code.t_min + 1);
  SweepResult result;
  result.cells_per_age = per_age;
  result.cells.resize(spec.ages.size() * per_age);
  const std::vector<std::size_t> order = key_first_order(spec.ages);
  pool.parallel_for(order.size(), [&](std::size_t task) {
    const std::size_t a = order[task];
    const std::vector<core::Metrics> space = framework.enumerate(spec.ages[a]);
    XLF_ENSURE(space.size() == per_age);
    const std::vector<bool> efficient =
        core::CrossLayerFramework::pareto_mask(space);
    for (std::size_t i = 0; i < per_age; ++i) {
      result.cells[a * per_age + i] = SweepCell{space[i], efficient[i]};
    }
  });
  return result;
}

}  // namespace xlf::explore
