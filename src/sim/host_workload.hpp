// Host-level (LBA) workload generators for the SSD simulator, both
// over the FTL's logical page space:
//
// * MultiTenantWorkload, whose defining feature is *overwrite*:
//   re-writing live LPAs is what invalidates physical pages, triggers
//   garbage collection, and spreads wear — the machinery the
//   per-block adaptive configuration pays off on. Its arrival gaps are
//   inter-arrival times of an open-loop stream (the host issues on its
//   own clock, not on completions); a zero mean gap degenerates to
//   maximum pressure (back-to-back arrivals).
// * generate_pattern, the paper's motivating access patterns
//   (Sections 6.3.1/6.3.2) that Monte-Carlo validation replays:
//   multimedia streaming and picture browsing (reads), OS upgrades
//   and backups (sequential writes), web transactions (mixed).
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
// then sequence — deterministic). The merge draws each tenant's next
// command only when the tenant's previous one is emitted, so the
// returned vector is the stream's only per-command memory.
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

enum class Pattern {
  kSequentialRead,  // reads LPA 0, 1, 2, ... (wrapping)
  kRandomRead,      // reads uniform LPAs
  kWriteBurst,      // writes LPA 0, 1, 2, ... (wrapping)
  kMixed,           // a read (uniform LPA) with read_fraction, else the
                    // next sequential write
  kStreaming,       // sequential reads paced at `bitrate`
};

struct AccessPattern {
  Pattern kind = Pattern::kSequentialRead;
  double read_fraction = 0.7;                         // kMixed
  BytesPerSecond bitrate = BytesPerSecond::mib(8.0);  // kStreaming

  // Report label: sequential-read, random-read, write-burst,
  // mixed-r<read percent>, multimedia-streaming.
  std::string label() const;
};

// `count` one-page commands of `pattern` on queue 0 over LPAs
// [0, logical_pages). Draws: one chance per mixed command, then one
// below per read of a uniform LPA; the sequential patterns draw
// nothing. Only streaming carries gaps: a media consumer takes one
// 4 KiB page (the paper's page) per 4096 B / bitrate.
std::vector<host::Command> generate_pattern(const AccessPattern& pattern,
                                            std::uint32_t logical_pages,
                                            std::size_t count, Rng& rng);

}  // namespace xlf::sim
