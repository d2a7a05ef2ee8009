// Open-loop SSD simulator, now a thin driver over the multi-queue
// host command API (src/host/): host commands — Read, Write, Trim,
// Flush — arrive on their own clock onto N submission queues, an
// arbitration policy picks which queue issues next while fewer than
// `queue_depth` commands are outstanding, and the FTL + channel/die
// dispatcher resolve where and when each page of the command runs.
// Completions post back through the host interface, which keeps
// per-queue latency statistics next to the global ones.
//
// Mechanics: arrivals stream from a cursor over the command vector
// (open loop), merged with the EventQueue, which holds only in-flight
// completions; an arrival wins a timestamp tie against a completion.
// The vector is the stream's only per-command copy: as an NVMe
// controller fetches only the submission-queue entry it issues next,
// the host interface holds at most one unissued command per queue,
// its head, and a queue's next arrived command joins it when the head
// issues. An issue step runs whenever an arrival lands or an in-flight
// command completes. FTL state (mapping, GC, per-block t) mutates at
// issue time; the dispatcher's resource timelines place each page
// operation; a command completes when its last page does. Trim is
// metadata-only (unmap + valid-counter decrement) and completes
// immediately; Flush is a per-queue barrier — it completes once every
// command previously issued from its queue has, and holds that
// queue's later commands until then. Single-threaded and
// event-ordered, so runs are bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/ftl/ssd.hpp"
#include "src/host/command.hpp"
#include "src/host/queues.hpp"
#include "src/sim/event_queue.hpp"
#include "src/util/stats.hpp"

namespace xlf::sim {

struct SsdSimConfig {
  // Maximum commands in flight across the whole SSD (shared by all
  // submission queues; the arbiter divides it).
  std::size_t queue_depth = 4;
  // Submission/completion queue shape + arbitration policy name.
  host::HostConfig host;
  // Seeds the host's write payloads (bit-true devices only).
  std::uint64_t data_seed = 0xDA7A5EED;
};

struct SsdSimStats {
  // Host page operations serviced this run.
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::size_t unmapped_reads = 0;
  std::size_t uncorrectable = 0;
  std::size_t data_mismatches = 0;
  std::size_t corrected_bits = 0;
  // Trim/flush commands serviced (host view: one per command
  // whatever the extent length); trimmed_pages is the FTL-stats
  // delta of mapped pages trims actually dropped.
  std::size_t trims = 0;
  std::size_t trimmed_pages = 0;
  std::size_t flushes = 0;

  // True when an armed FaultInjector cut power mid-run: the command
  // stream stopped at the kill instant and the FTL's DRAM state is
  // considered lost (remount the Ssd before touching it again).
  bool power_loss = false;
  // Blocks retired to the bad-block table during this run.
  std::uint64_t bad_blocks = 0;

  // FTL activity attributable to this run (deltas over the run).
  std::uint64_t gc_relocations = 0;
  std::uint64_t erases = 0;
  std::uint64_t wl_swaps = 0;
  double write_amplification = 0.0;
  // Background scrub activity (filled by callers that run Ftl::scrub
  // around this run — e.g. the FTL sweep; the simulator itself never
  // scrubs, so these stay 0 unless a refresh policy is in play).
  std::uint64_t refresh_blocks = 0;
  std::uint64_t refresh_relocations = 0;

  // Per-block configuration spread over the FTL's lifetime so far:
  // min == max means wear never diverged enough for the reliability
  // manager to pick different t for different blocks.
  unsigned min_t_used = 0;
  unsigned max_t_used = 0;
  double wear_min = 0.0;
  double wear_max = 0.0;

  Seconds elapsed{0.0};
  Seconds gc_busy{0.0};  // die time spent on GC + wear leveling
  Joules ecc_energy{0.0};
  Joules nand_energy{0.0};
  RunningStats read_latency;   // arrival -> completion, seconds
  RunningStats write_latency;

  // Per-submission-queue service statistics (queue 0 first) — the
  // QoS read-out of the multi-queue interface.
  std::vector<host::QueueStats> queue_stats;

  // Busy fraction of each die / channel over this run's elapsed time.
  std::vector<double> die_utilisation;
  std::vector<double> channel_utilisation;

  // NaN (JSON null) while no utilisation was recorded — an
  // unmeasured run must not masquerade as 0% busy.
  double die_util_min() const;
  double die_util_max() const;
  double die_util_mean() const;
};

// The host oracle's digest of a payload: h <- mix(h + w) over its
// 64-bit words, where mix (splitmix64's finaliser) is a bijection. A
// difference confined to one word always changes the digest; any other
// escapes with probability 2^-64.
std::uint64_t payload_digest(const BitVec& payload);

class SsdSimulator {
 public:
  explicit SsdSimulator(ftl::Ssd& ssd, const SsdSimConfig& config = {});

  // Write every logical page once, sequentially, outside any run's
  // accounting (state setup for read/overwrite experiments).
  void prepopulate();

  // Execute a host command stream (in arrival order: every gap >= 0);
  // returns this run's statistics. A PowerLoss thrown by an armed
  // FaultInjector does not propagate: the run returns early with
  // stats.power_loss set and the pending timeline dropped (the host
  // oracle keeps every acknowledged write, so verify_stored() audits
  // the rebuilt device).
  SsdSimStats run(const std::vector<host::Command>& commands);

  // Recovery audit: read every LPA the host holds a payload for, in
  // ascending order, and count the ones that come back unmapped or
  // with another digest. Zero is
  // the expected answer even after a crash + remount — acknowledged
  // writes are durable, and trims (whose resurrection is legal until
  // flushed) left the oracle at trim time. Direct FTL reads, outside
  // any run's accounting.
  std::size_t verify_stored();

 private:
  BitVec random_payload();
  void try_issue(SsdSimStats& stats);
  // Hand the host queue q's oldest arrived command it does not hold yet,
  // if any (after pop(q), so q's head is never missing while one has
  // arrived).
  void refill(std::uint32_t q);
  void issue(std::uint32_t q, const host::Command& command, Seconds arrival,
             SsdSimStats& stats);
  // Fire the completion parked in inflight_[slot] (stats, unblock,
  // issue step), recycling the slot.
  void complete_slot(std::uint32_t slot);
  std::uint32_t acquire_inflight();

  ftl::Ssd* ssd_;
  SsdSimConfig config_;
  // The device's data plane: bit-true writes carry random payloads
  // that reads verify against the host's record; a metadata-only
  // device holds no payload bits.
  bool payloads_;
  EventQueue queue_;
  Rng data_rng_;
  // Host view of every LPA's current payload (verification oracle): its
  // digest, and whether the host holds one (trims drop it, matching the
  // device's deallocation). Empty on metadata-only devices.
  std::vector<std::uint64_t> digests_;
  std::vector<char> held_;

  // Per-run issue state (valid while run() executes). run_stats_
  // exists so completion callbacks capture only {this, slot}: 16 bytes
  // keeps every per-command std::function inside libstdc++'s
  // small-buffer storage — zero heap traffic per event at 10M-command
  // scale (Completion payloads park in the inflight_ arena instead of
  // the closure).
  host::HostInterface* host_ = nullptr;
  std::size_t outstanding_ = 0;
  SsdSimStats* run_stats_ = nullptr;
  // The run's command vector, and one lane per submission queue over
  // it. The host holds at most a queue's head (HostInterface::holds);
  // the queue's later arrivals wait in the vector. `next` is the first
  // index the lane has not passed and `stamp` the arrival of the
  // command before it: a refill rebuilds arrival stamps from there by
  // adding the gaps in the arrival loop's order, so they are
  // bit-identical. Sized per run, kept across runs so that short runs
  // do not allocate it again.
  struct Lane {
    std::size_t next = 0;
    Seconds stamp{0.0};
  };
  const std::vector<host::Command>* stream_ = nullptr;
  std::vector<Lane> lanes_;
  std::size_t arrived_ = 0;  // commands whose arrival has fired
  std::size_t handed_ = 0;   // commands submitted to the host
  // In-flight Completion arena (bounded by queue_depth + 1; slots
  // recycle through the free list).
  std::vector<host::Completion> inflight_;
  std::vector<std::uint32_t> inflight_free_;
};

}  // namespace xlf::sim
