#include "src/core/cross_layer.hpp"

#include <algorithm>
#include <cmath>

#include "src/bch/code_params.hpp"
#include "src/util/expect.hpp"

namespace xlf::core {

CrossLayerFramework::CrossLayerFramework(
    const controller::ControllerConfig& controller,
    const nand::AgingLaw& aging, const nand::NandTiming& timing,
    const hv::HvConfig& hv_config)
    : code_(controller.ecc_hw.code),
      uber_target_(controller.reliability.uber_target),
      aging_(aging),
      timing_(&timing),
      nand_power_(hv_config, timing),
      latency_(controller.ecc_hw),
      ecc_power_(controller.ecc_hw) {
  XLF_EXPECT(uber_target_ > 0.0);
}

unsigned CrossLayerFramework::scheduled_t(nand::ProgramAlgorithm algo,
                                          double pe_cycles) const {
  const double rber = aging_.rber(algo, pe_cycles);
  const auto t = bch::min_t_for_uber(rber, uber_target_, code_.k, code_.m,
                                     code_.t_min, code_.t_max);
  return t.value_or(code_.t_max);
}

unsigned CrossLayerFramework::resolve_t(const OperatingPoint& point,
                                        double pe_cycles) const {
  if (point.schedule == EccSchedule::kFixed) {
    XLF_EXPECT(code_.contains(point.fixed_t));
    return point.fixed_t;
  }
  return scheduled_t(point.schedule_algorithm(), pe_cycles);
}

Metrics CrossLayerFramework::evaluate(nand::ProgramAlgorithm algo, unsigned t,
                                      double pe_cycles) const {
  XLF_EXPECT(code_.contains(t));
  Metrics m;
  m.pe_cycles = pe_cycles;
  m.algo = algo;
  m.t = t;
  m.rber = aging_.rber(algo, pe_cycles);

  const bch::CodeParams params = code_.at(t);
  const double log_uber = bch::log_uber(m.rber, params.n(), t);
  m.uber = std::exp(std::max(log_uber, -700.0));
  m.log10_uber = log_uber / std::log(10.0);

  // Paper convention: decode latency at its worst case dominates the
  // read path; encode latency is t-independent and small against the
  // program time.
  m.read_latency = timing_->read_time() + latency_.decode_latency(t);
  m.write_latency =
      latency_.encode_latency() + timing_->program_time(algo, pe_cycles);
  const double page_bytes = code_.k / 8;
  m.read_throughput = BytesPerSecond{page_bytes / m.read_latency.value()};
  m.write_throughput = BytesPerSecond{page_bytes / m.write_latency.value()};

  m.nand_program_power = nand_power_.program_power(algo, pe_cycles);
  // ECC decode power at the expected per-page error load.
  const double expected_errors = m.rber * params.n();
  m.ecc_decode_power = ecc_power_.decode_power(t, expected_errors);
  return m;
}

Metrics CrossLayerFramework::evaluate(const OperatingPoint& point,
                                      double pe_cycles) const {
  return evaluate(point.algorithm, resolve_t(point, pe_cycles), pe_cycles);
}

std::vector<Metrics> CrossLayerFramework::enumerate(double pe_cycles) const {
  std::vector<Metrics> space;
  for (auto algo :
       {nand::ProgramAlgorithm::kIsppSv, nand::ProgramAlgorithm::kIsppDv}) {
    for (unsigned t = code_.t_min; t <= code_.t_max; ++t) {
      space.push_back(evaluate(algo, t, pe_cycles));
    }
  }
  return space;
}

std::vector<bool> CrossLayerFramework::pareto_mask(
    const std::vector<Metrics>& space) {
  const auto dominates = [](const Metrics& a, const Metrics& b) {
    const bool geq = a.read_throughput.value() >= b.read_throughput.value() &&
                     a.write_throughput.value() >= b.write_throughput.value() &&
                     a.log10_uber <= b.log10_uber &&
                     a.total_power().value() <= b.total_power().value();
    const bool gt = a.read_throughput.value() > b.read_throughput.value() ||
                    a.write_throughput.value() > b.write_throughput.value() ||
                    a.log10_uber < b.log10_uber ||
                    a.total_power().value() < b.total_power().value();
    return geq && gt;
  };
  std::vector<bool> efficient(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    efficient[i] =
        std::none_of(space.begin(), space.end(), [&](const Metrics& other) {
          return dominates(other, space[i]);
        });
  }
  return efficient;
}

std::vector<Metrics> CrossLayerFramework::pareto_front(
    std::vector<Metrics> space) {
  const std::vector<bool> efficient = pareto_mask(space);
  std::vector<Metrics> front;
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (efficient[i]) front.push_back(space[i]);
  }
  return front;
}

}  // namespace xlf::core
