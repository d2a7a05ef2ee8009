// Self-adaptive reliability management (paper Section 3): instead of
// trusting a wear counter and the RBER model, the controller's
// reliability manager estimates the error rate from the corrected-bit
// feedback of the ECC itself and re-sizes t online. This demo ages
// the device through its life and shows the feedback schedule
// converging to the model-based one.
#include <iomanip>
#include <iostream>

#include "src/ftl/ssd.hpp"
#include "src/sim/host_workload.hpp"
#include "src/sim/ssd_sim.hpp"

using namespace xlf;

int main() {
  std::cout << "=== self-adaptive ECC over the device lifetime ===\n\n";
  // One die behind the FTL, on the smallest geometry it accepts.
  ftl::SsdConfig config;
  config.topology = {1, 1};
  config.die.device.array.geometry.blocks = 8;
  config.die.device.array.geometry.pages_per_block = 4;
  config.die.controller.tuning_policy = policy::Tuning::kFeedback;
  // Snappier estimator for the demo's coarse age steps.
  config.die.controller.reliability.ewma_alpha = 0.15;
  ftl::Ssd ssd(config);
  core::MemorySubsystem& die = ssd.die(0);
  auto& ctrl = die.controller();

  sim::SsdSimConfig sim_config;
  sim_config.queue_depth = 1;
  sim::SsdSimulator simulator(ssd, sim_config);
  simulator.prepopulate();  // every read hits mapped data

  std::cout << std::left << std::setw(12) << "PE cycles" << std::setw(14)
            << "est. RBER" << std::setw(12) << "model RBER" << std::setw(12)
            << "t feedback" << std::setw(10) << "t model" << "uncorrectable\n";

  sim::AccessPattern workload;
  workload.kind = sim::Pattern::kMixed;
  workload.read_fraction = 0.8;
  for (double cycles : {1e2, 1e3, 1e4, 1e5, 5e5, 1e6}) {
    die.device().set_uniform_wear(cycles);

    // Run traffic in rounds, letting the manager react between them —
    // the continuous loop a deployed controller executes. The first
    // round after a large age jump may fail pages (the old t is too
    // weak); the feedback pushes t up and the later rounds recover.
    std::size_t uncorrectable = 0;
    unsigned t_feedback = ctrl.correction_capability();
    for (int round = 0; round < 3; ++round) {
      Rng rng(static_cast<std::uint64_t>(cycles) + round);
      const sim::SsdSimStats stats = simulator.run(
          sim::generate_pattern(workload, ssd.logical_pages(), 48, rng));
      uncorrectable += stats.uncorrectable;
      t_feedback = ctrl.adapt_ecc(cycles);
    }
    const unsigned t_model = ctrl.reliability().select_t(
        ctrl.program_algorithm(), cycles);

    std::cout << std::left << std::setw(12) << cycles << std::setw(14)
              << ctrl.reliability().estimated_rber() << std::setw(12)
              << die.device().config().array.aging.rber(
                     ctrl.program_algorithm(), cycles)
              << std::setw(12) << t_feedback << std::setw(10) << t_model
              << uncorrectable << '\n';
  }

  std::cout << "\nthe feedback schedule tracks the model-based one using "
               "only observable decode statistics — the in-situ adaptation "
               "loop the paper envisions for future MPSoCs\n";
  return 0;
}
