// Parallel FTL-policy exploration: sweep (SSD topology x queue depth
// x policy combination) grids of the multi-die stack under one
// host-level workload, and report write amplification, per-die
// utilisation, QoS (latency distribution) and the per-block
// reliability spread next to the device-level metrics the space
// sweep produces.
//
// Policies are swept by name along five independent axes — GC victim
// selection, wear leveling, reliability tuning, background refresh
// and host-queue arbitration — so any combination of the built-in
// strategies (src/policy/policy.hpp) is reachable from a spec or the
// command line; the names are parsed once, before any combo runs.
// The grid is the cartesian product topology x queue depth x queue
// count x arbitration x gc x wear x tuning x refresh, in that nesting
// order; axes default to a single entry, so the historical (topology
// x QD x GC) grid is the default shape. One queue means one tenant,
// whose command stream tests/test_host_workload.cpp pins.
//
// Determinism contract (same as sweep/monte_carlo): every combo's
// randomness comes from its own serially pre-forked Rng stream, each
// combo builds a private Ssd + simulator and writes its row into a
// preallocated slot, and rows emit in combo order — so the output is
// byte-identical for any thread count.
#pragma once

#include <string>
#include <vector>

#include "src/ftl/ssd.hpp"
#include "src/sim/ssd_sim.hpp"
#include "src/util/thread_pool.hpp"

namespace xlf::explore {

struct FtlSweepSpec {
  // Template for every combo; topology / queue depth / policy names
  // are overridden per grid point.
  ftl::SsdConfig base;
  std::vector<controller::DispatchConfig> topologies{{1, 1}, {2, 1}};
  std::vector<std::size_t> queue_depths{1, 4};
  // Host-interface axes: submission-queue counts (at most
  // host::kMaxQueues) and arbitration policy names. One tenant per
  // queue; requests split evenly across tenants.
  std::vector<std::size_t> queue_counts{1};
  std::vector<std::string> arbitration_policies{"round-robin"};
  // Arbitration weight per queue (queue 0 first; shorter lists pad
  // with 1.0, empty = equal weights).
  std::vector<double> queue_weights;
  // Policy axes, by name (policy::Names<P>::table of the matching
  // kind).
  std::vector<std::string> gc_policies{"greedy", "cost-benefit"};
  std::vector<std::string> wear_policies{"dynamic"};
  std::vector<std::string> tuning_policies{"model_based"};
  std::vector<std::string> refresh_policies{"none"};
  // Fault-injection axis (innermost): how many blocks per die grow
  // bad during the combo (the lowest block ids fail on their first
  // erase and retire to the durable bad-block table). Each entry must
  // leave the die enough healthy blocks for its logical share plus
  // the GC slack.
  std::vector<std::uint32_t> fail_blocks{0};
  // Hot/cold overwrite traffic driving GC (see MultiTenantWorkload).
  // trim_fraction > 0 makes each tenant deallocate that share of its
  // non-read requests.
  double hot_fraction = 0.25;
  double hot_write_fraction = 0.85;
  double read_fraction = 0.3;
  double trim_fraction = 0.0;
  std::size_t requests = 200;
  bool prepopulate = true;
  std::uint64_t seed = 0x55DF71;
  // Bit-true cell arrays (true, the default) or metadata-only devices
  // (false): programs/reads cost their modeled times but move no
  // payload bits, which is what makes production block counts (64k+
  // blocks/die, millions of commands) tractable. The post-run
  // read-back audit still runs but has no payloads to compare.
  bool data_plane = true;
};

struct FtlSweepRow {
  std::uint32_t channels = 0;
  std::uint32_t dies_per_channel = 0;
  std::size_t queue_depth = 0;
  std::size_t queues = 0;
  std::string arbitration;
  std::string gc_policy;
  std::string wear_policy;
  std::string tuning_policy;
  std::string refresh_policy;
  sim::SsdSimStats stats;
  // Recovery drill read-out: injected fail count, blocks actually
  // retired over the combo's lifetime, and the mismatch count of the
  // post-run clean-shutdown remount audit (flush -> remount ->
  // rebuild_from_oob -> verify every stored LPA; 0 = bit-true).
  std::uint32_t fail_blocks = 0;
  std::uint64_t bad_blocks = 0;
  std::size_t rebuild_mismatches = 0;
};

struct FtlSweepResult {
  // Topology-major, then queue depth, then queue count, arbitration,
  // gc / wear / tuning / refresh policy, fail-block count (innermost).
  std::vector<FtlSweepRow> rows;
};

FtlSweepResult ftl_sweep(const FtlSweepSpec& spec, ThreadPool& pool);

}  // namespace xlf::explore
