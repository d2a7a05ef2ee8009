// Parallel Monte-Carlo validation: N independent replicas of one
// access pattern at one (operating point, age), fanned out over a
// ThreadPool and reduced deterministically.
//
// A replica is a 1x1 ftl::Ssd driven by sim::SsdSimulator over
// host::Command, the one driver every other command path uses. Its
// die holds the point's resolved t (static tuning), starts at the
// validation age and is prepopulated, so every read hits mapped data.
// The paper's controller has one page buffer, so a replica runs
// closed loop at queue depth 1: each command issues at the later of
// its scheduled arrival and the previous completion. The latency
// columns are service times, and a paced stream counts a QoS miss
// whenever a completion lands after the next scheduled arrival.
//
// Determinism contract: replica r's entire randomness (device noise,
// command stream, payload data) derives from the r-th Rng::fork() of
// a root stream, and the forks are drawn serially before any worker
// starts. Each replica builds a private Ssd (the bit-true array and
// controller are stateful and not thread-safe) and writes its
// ValidationStats into slot r; the slots merge in replica order on
// the calling thread. The merged result is therefore bit-identical for
// any thread count, which tests assert.
#pragma once

#include <vector>

#include "src/core/subsystem.hpp"
#include "src/sim/host_workload.hpp"
#include "src/util/stats.hpp"
#include "src/util/thread_pool.hpp"

namespace xlf::explore {

struct MonteCarloSpec {
  // The replica's die. The FTL keeps GC slack beside its logical
  // share, so at the default logical fraction the die needs >= 8
  // blocks.
  core::SubsystemConfig subsystem;
  core::OperatingPoint point = core::OperatingPoint::baseline();
  double pe_cycles = 0.0;
  sim::AccessPattern workload;
  std::size_t requests_per_replica = 32;
  std::size_t replicas = 4;
  std::uint64_t seed = 0x5EEDCA5E;
};

// What the replicas observed: exactly what the QoS table reports.
struct ValidationStats {
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::size_t uncorrectable = 0;
  std::size_t data_mismatches = 0;
  std::size_t qos_misses = 0;  // completions past the next arrival
  Seconds elapsed{0.0};        // simulated time, summed over replicas
  RunningStats read_latency;   // service time, seconds
  RunningStats write_latency;

  // Fold in another replica: counts and time sum, latencies merge.
  void merge(const ValidationStats& other);
};

struct MonteCarloResult {
  std::size_t replicas = 0;
  ValidationStats merged;
  // Fraction of page reads that were uncorrectable — the empirical
  // companion of the analytic UBER (page-level, not per-bit).
  double uncorrectable_page_rate() const;
};

MonteCarloResult run_monte_carlo(const MonteCarloSpec& spec, ThreadPool& pool);

}  // namespace xlf::explore
