// Field-by-field comparison of two ISPP traces, doubles by their bits:
// the certified kernel's contract is the exact engine's trace, not one
// close to it.
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "src/nand/ispp.hpp"

namespace xlf::test {

// Empty when the traces agree bit for bit, else the fields that differ.
inline std::string trace_difference(const nand::IsppTrace& got,
                                    const nand::IsppTrace& want) {
  std::ostringstream diff;
  const auto differ = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b);
  };
  if (got.algorithm != want.algorithm) diff << " algorithm";
  if (got.pulses != want.pulses) diff << " pulses";
  if (got.verify_ops != want.verify_ops) diff << " verify_ops";
  if (got.converged != want.converged) diff << " converged";
  if (got.failed_cells != want.failed_cells) diff << " failed_cells";
  if (differ(got.program_pump_time.value(), want.program_pump_time.value())) {
    diff << " program_pump_time";
  }
  if (differ(got.vcg_time_integral, want.vcg_time_integral)) {
    diff << " vcg_time_integral";
  }
  if (differ(got.verify_pump_time.value(), want.verify_pump_time.value())) {
    diff << " verify_pump_time";
  }
  if (differ(got.inhibit_pump_time.value(), want.inhibit_pump_time.value())) {
    diff << " inhibit_pump_time";
  }
  if (differ(got.setup_time.value(), want.setup_time.value())) {
    diff << " setup_time";
  }
  return diff.str();
}

}  // namespace xlf::test
