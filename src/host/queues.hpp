// Multi-queue host interface: N independent submission/completion
// queue pairs in front of the SSD, with an arbitration policy
// (policy::Arbitration: round-robin or weighted) deciding which queue
// issues next whenever the device has a free command slot.
//
// The structure mirrors NVMe's submission/completion model scaled to
// the simulator: the host submits Commands onto per-queue submission
// queues on its own clock; the driver (sim::SsdSimulator) asks
// `arbitrate()` for the next queue while its outstanding count is
// below the device queue depth, pops the head command, executes it
// against the FTL, and posts a Completion back through `complete()`.
// Per-queue issue counters, flush barriers and latency statistics live
// here, and arbitrate() reads them in place.
//
// Each queue holds its head alone, as an NVMe controller fetches only
// the entry it issues next while the rest stay in host memory (the
// simulator's command vector): submit() onto a queue that holds one
// is a precondition failure, and the driver submits a queue's next
// arrived command right after pop() takes the head. arbitrate() reads
// whether a queue holds a command, so it picks as it would over whole
// backlogs.
//
// Single-threaded like the simulator that drives it; determinism
// comes from in-order submission, the stable arbitration tie-break
// contract, and nothing else.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/host/command.hpp"
#include "src/policy/policy.hpp"
#include "src/util/stats.hpp"

namespace xlf::host {

struct HostConfig {
  // Independent submission/completion queue pairs.
  std::size_t queues = 1;
  // Which issuable queue issues next (see arbitrate()).
  policy::Arbitration arbitration = policy::Arbitration::kRoundRobin;
  // Arbitration weight per queue, queue 0 first. Shorter lists pad
  // with 1.0 (so one template serves several queue counts); longer
  // lists are a configuration error. Empty = equal weights.
  std::vector<double> queue_weights;
};

// Per-queue service statistics, filled as completions post.
struct QueueStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t trims = 0;
  std::uint64_t flushes = 0;
  // Submission -> completion, seconds, per command (not per page).
  RunningStats read_latency;
  RunningStats write_latency;

  std::uint64_t commands() const { return reads + writes + trims + flushes; }
};

class HostInterface {
 public:
  explicit HostInterface(const HostConfig& config);

  std::size_t queues() const { return states_.size(); }
  double weight(std::size_t q) const;

  // --- submission side ------------------------------------------------
  // Make the command the head of its own queue (Command::queue must be
  // in range, and the queue must hold no command) at host time
  // `arrival`.
  void submit(const Command& command, Seconds arrival);
  // Any command submitted and not yet issued?
  bool pending() const;
  // Whether queue `q` holds a command (its head).
  bool holds(std::size_t q) const;

  // --- arbitration / issue -------------------------------------------
  // The queue that should issue next, per the arbitration policy;
  // nullopt when no queue is eligible (all empty or flush-blocked).
  std::optional<std::uint32_t> arbitrate() const;
  // Pop the head command of queue `q` (with its arrival stamp) and
  // charge the issue to the queue's fairness counter.
  std::pair<Command, Seconds> pop(std::uint32_t q);

  // Flush barrier: while blocked, a queue's head is ineligible
  // (commands behind an in-flight flush wait for it), but a submission
  // still lands.
  void block(std::uint32_t q);
  void unblock(std::uint32_t q);
  bool blocked(std::uint32_t q) const;

  // Latest completion time scheduled for any command issued from `q`
  // — the instant a flush issued now must wait for.
  Seconds last_scheduled_completion(std::uint32_t q) const;

  // --- completion side ------------------------------------------------
  // Record that a command issued from `q` will complete at
  // `completion` (keeps the flush horizon current).
  void note_scheduled_completion(std::uint32_t q, Seconds completion);
  // Post a completion-queue entry: fold it into the queue's stats.
  void complete(const Completion& entry);

  const QueueStats& stats(std::size_t q) const;
  // Copy of all per-queue statistics, queue 0 first.
  std::vector<QueueStats> all_stats() const;

 private:
  struct QueueState {
    // The queue's head: the command it issues next, its arrival stamp,
    // and whether it holds one.
    Command head;
    Seconds arrival{0.0};
    bool held = false;
    std::uint64_t issued = 0;
    double weight = 1.0;
    bool blocked = false;
    Seconds last_completion{0.0};
    QueueStats stats;
  };

  const QueueState& state(std::size_t q) const;
  // Issuable now: holds a command not behind an in-flight flush
  // barrier.
  static bool issuable(const QueueState& s) { return !s.blocked && s.held; }

  policy::Arbitration arbitration_;
  std::vector<QueueState> states_;
  // == queues() before the first issue (the round-robin start cue).
  std::uint32_t last_queue_;
};

}  // namespace xlf::host
