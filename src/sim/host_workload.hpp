// Host-level (LBA) workload generator for the open-loop SSD
// simulator. Unlike the physical-address workloads in workload.hpp,
// it addresses the FTL's logical page space, and its defining
// feature is *overwrite*: re-writing live LPAs is what invalidates
// physical pages, triggers garbage collection, and spreads wear — the
// machinery the per-block adaptive configuration pays off on.
//
// Arrival gaps are inter-arrival times of an open-loop stream (the
// host issues on its own clock, not on completions). A zero mean gap
// degenerates to maximum pressure (back-to-back arrivals).
#pragma once

#include <string>
#include <vector>

#include "src/host/command.hpp"
#include "src/util/rng.hpp"
#include "src/util/units.hpp"

namespace xlf::sim {

// One tenant of the multi-queue composite generator: skewed
// overwrite traffic plus trim. A `hot_fraction` slice of the LPA
// space receives `hot_write_fraction` of all writes (the classic
// hot/cold split; 0.2/0.8 approximates the usual "80% of writes hit
// 20% of data"). Reads, a `read_fraction` of requests, target LPAs
// the stream has already written, so every read hits mapped data. A
// `trim_fraction` share of the non-read requests deallocates a
// previously written LPA instead of overwriting one, which is what
// hands the FTL's GC cheap (invalid-page-rich) victims.
struct TenantSpec {
  double hot_fraction = 0.25;
  double hot_write_fraction = 0.85;
  double read_fraction = 0.3;
  double trim_fraction = 0.0;
  Seconds mean_gap{0.0};
};

// Composite multi-tenant host-command generator: tenant i submits on
// queue i, each tenant draws its stream from its own serially
// pre-forked Rng, and the streams merge into one open-loop arrival
// sequence ordered by absolute arrival time (ties break by tenant,
// then sequence — deterministic).
//
// Single-tenant contract: with exactly one tenant the generator
// consumes the caller's Rng directly (no fork, no merge) and emits
// the tenant's stream on queue 0 — the single-queue sweep rows rest
// on that stream (tests/test_host_workload.cpp pins it).
class MultiTenantWorkload {
 public:
  explicit MultiTenantWorkload(std::vector<TenantSpec> tenants);

  std::size_t tenants() const { return tenants_.size(); }
  std::string name() const { return "multi-tenant"; }

  // Generate `count` commands total, split evenly across tenants
  // (earlier tenants absorb the remainder).
  std::vector<host::Command> generate(std::uint32_t logical_pages,
                                      std::size_t count, Rng& rng) const;

 private:
  std::vector<TenantSpec> tenants_;
};

}  // namespace xlf::sim
