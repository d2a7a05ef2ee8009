// Parallel exploration of the cross-layer configuration space: the
// full (program algorithm x ECC capability x lifetime) grid the paper
// builds its trade-off analysis on, fanned out over a ThreadPool.
//
// All age tasks share ONE NandTiming + CrossLayerFramework. The ISPP
// cache fills each key exactly once; the task order keeps workers from
// waiting on each other: key_first_order() hands out the first age of
// every distinct cache key before any repeat, so concurrent workers
// characterise distinct keys and a repeat nearly always finds its key
// filled (only a repeat of a key whose first fill is still running at
// the very end of the sweep waits for it). A cached entry is a pure
// function of its key (each characterisation seeds its own Rng from
// the key), so no value depends on which worker filled it. Every grid
// cell's result lands in its preallocated slot, and the per-age
// Pareto flags are a pure function of that age's cells computed
// inside the age's own task, so the output is bit-identical whatever
// the thread count — `threads=1` versus `threads=N` is asserted in
// tests.
#pragma once

#include <vector>

#include "src/core/cross_layer.hpp"
#include "src/core/subsystem.hpp"
#include "src/util/thread_pool.hpp"

namespace xlf::explore {

// The ingredients of a CrossLayerFramework, by value.
struct FrameworkSpec {
  // The ECC envelope: ecc_hw (code family, codec hardware) and
  // reliability.uber_target.
  controller::ControllerConfig controller;
  nand::AgingLaw aging;
  nand::TimingConfig timing;
  nand::IsppConfig ispp;
  nand::VoltagePlan plan;
  nand::VariabilityConfig variability;
  hv::HvConfig hv;

  static FrameworkSpec from(const core::SubsystemConfig& config);
  nand::NandTiming make_timing() const;
};

struct SweepSpec {
  FrameworkSpec framework;
  // P/E cycle grid. The paper's axes span 1..1e6 log-spaced, e.g.
  // log_space(1.0, 1e6, 13), the CLI's default --ages.
  std::vector<double> ages;
};

// One cell of the configuration space at one age, tagged with its
// Pareto-front membership *within that age*.
struct SweepCell {
  core::Metrics metrics;
  bool pareto = false;
};

struct SweepResult {
  // Age-major, then {SV, DV} x t ascending — the enumerate() order.
  std::vector<SweepCell> cells;
  std::size_t cells_per_age = 0;

  // The Pareto-efficient subset, in cell order.
  std::vector<core::Metrics> front() const;
};

// The order sweep_space runs its age tasks in: the index of the first
// age of each distinct nand::NandTiming::age_key, then every other
// index, both ascending. A permutation of 0..ages.size()-1.
std::vector<std::size_t> key_first_order(const std::vector<double>& ages);

// Evaluate every (algo, t) cell at every age, one parallel task per
// age point, in key_first_order. Each cell still lands in its own
// age-major slot.
SweepResult sweep_space(const SweepSpec& spec, ThreadPool& pool);

}  // namespace xlf::explore
