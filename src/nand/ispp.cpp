#include "src/nand/ispp.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>

#include "src/util/expect.hpp"

namespace xlf::nand {

Seconds IsppTrace::duration() const {
  // Pulses and verifies are strictly sequential in a NAND plane.
  return setup_time + program_pump_time + verify_pump_time;
}

Volts IsppTrace::average_vcg() const {
  if (program_pump_time.value() <= 0.0) return Volts{0.0};
  return Volts{vcg_time_integral / program_pump_time.value()};
}

IsppEngine::IsppEngine(const IsppConfig& config, const VoltagePlan& plan)
    : config_(config), plan_(plan) {
  XLF_EXPECT(config_.v_step.value() > 0.0);
  XLF_EXPECT(config_.v_end > config_.v_start);
  XLF_EXPECT(config_.max_pulses >= 1);
  XLF_EXPECT(plan_.consistent());
}

IsppTrace IsppEngine::program(std::span<FloatingGateCell> cells,
                              std::span<const Level> targets,
                              ProgramAlgorithm algo, Rng& rng,
                              double dv_zone_multiplier) const {
  XLF_EXPECT(cells.size() == targets.size());
  XLF_EXPECT(dv_zone_multiplier >= 1.0);
  IsppTrace trace;
  trace.algorithm = algo;
  trace.setup_time = config_.setup_time;

  const bool double_verify = algo == ProgramAlgorithm::kIsppDv;

  // Per-cell programming state, plus the ascending indices of the
  // cells not yet inhibited: pulses and verifies walk only those, and
  // the ascending order keeps the injection-noise draws in cell order.
  // The list is sized once and only ever compacted in place.
  enum class State : std::uint8_t { kInhibited, kPulsing, kSlowZone };
  XLF_EXPECT(cells.size() <= UINT32_MAX);
  std::vector<State> state(cells.size(), State::kInhibited);
  std::vector<std::uint32_t> active(cells.size());
  std::iota(active.begin(), active.end(), 0u);
  std::erase_if(active,
                [&](std::uint32_t i) { return targets[i] == Level::kL0; });
  std::array<std::size_t, 4> pending_per_level{0, 0, 0, 0};
  for (const std::uint32_t i : active) {
    state[i] = State::kPulsing;
    ++pending_per_level[static_cast<std::size_t>(targets[i])];
  }

  // Per-level sensing voltages: verify, and the DV pre-verify below it.
  std::array<Volts, 4> vfy{}, pre{};
  for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
    const auto li = static_cast<std::size_t>(level);
    vfy[li] = plan_.verify_for(level);
    pre[li] = vfy[li] - plan_.pre_verify_offset * dv_zone_multiplier;
  }

  Volts vcg = config_.v_start;
  for (unsigned pulse = 0; pulse < config_.max_pulses; ++pulse) {
    const bool any_pending =
        pending_per_level[1] + pending_per_level[2] + pending_per_level[3] > 0;
    if (!any_pending) break;

    // --- program pulse ------------------------------------------------
    // Also folds each level's fastest pending V_TH: nothing moves a
    // threshold between here and the verify phase.
    std::array<Volts, 4> fastest;
    fastest.fill(Volts{-100.0});
    for (const std::uint32_t i : active) {
      if (state[i] == State::kPulsing) {
        cells[i].apply_pulse(vcg, rng);
      } else {
        cells[i].apply_pulse(vcg, rng, config_.dv_bitline_bias);
      }
      Volts& level_fastest = fastest[static_cast<std::size_t>(targets[i])];
      level_fastest = std::max(level_fastest, cells[i].vth());
    }
    ++trace.pulses;
    trace.program_pump_time += config_.pulse_time;
    trace.inhibit_pump_time += config_.pulse_time;
    trace.vcg_time_integral += vcg.value() * config_.pulse_time.value();

    // --- verify phase ---------------------------------------------
    // Smart scheduling: sense a level only when its fastest pending
    // cell is within lookahead of the sensing voltage — the pre-verify
    // level for DV, the verify level for SV. DV senses pre-verify then
    // verify; SV only verify.
    std::array<bool, 4> sensed{false, false, false, false};
    bool any_sensed = false;
    for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
      const auto li = static_cast<std::size_t>(level);
      if (pending_per_level[li] == 0) continue;
      const Volts sense_from = double_verify ? pre[li] : vfy[li];
      if (fastest[li] < sense_from - config_.verify_lookahead) continue;
      sensed[li] = any_sensed = true;
      for (int sense = double_verify ? 2 : 1; sense > 0; --sense) {
        ++trace.verify_ops;
        trace.verify_pump_time += config_.verify_time;
      }
    }

    // One scan applies every sensed level's outcome: cells past VFYp
    // enter the DV slow zone, cells past VFY are inhibited. Levels are
    // disjoint cell sets, so one pass equals the per-level passes.
    bool any_inhibited = false;
    if (any_sensed) {
      for (const std::uint32_t i : active) {
        const auto li = static_cast<std::size_t>(targets[i]);
        if (!sensed[li]) continue;
        const Volts vth = cells[i].vth();
        if (double_verify && state[i] == State::kPulsing && vth >= pre[li]) {
          state[i] = State::kSlowZone;
        }
        if (vth >= vfy[li]) {
          state[i] = State::kInhibited;
          --pending_per_level[li];
          any_inhibited = true;
        }
      }
    }
    if (any_inhibited) {
      std::erase_if(active, [&](std::uint32_t i) {
        return state[i] == State::kInhibited;
      });
    }

    vcg = std::min(vcg + config_.v_step, config_.v_end);
  }

  trace.failed_cells = static_cast<unsigned>(
      pending_per_level[1] + pending_per_level[2] + pending_per_level[3]);
  trace.converged = trace.failed_cells == 0;
  return trace;
}

std::vector<Volts> IsppEngine::staircase_response(FloatingGateCell cell,
                                                  Volts v_start, Volts v_end,
                                                  Volts v_step,
                                                  Rng& rng) const {
  XLF_EXPECT(v_step.value() > 0.0);
  XLF_EXPECT(v_end > v_start);
  std::vector<Volts> response;
  for (Volts vcg = v_start; vcg <= v_end; vcg += v_step) {
    cell.apply_pulse(vcg, rng);
    response.push_back(cell.vth());
  }
  return response;
}

}  // namespace xlf::nand
