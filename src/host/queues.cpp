#include "src/host/queues.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>

#include "src/util/expect.hpp"

namespace xlf::host {

HostInterface::HostInterface(const HostConfig& config)
    : arbitration_(config.arbitration),
      last_queue_(static_cast<std::uint32_t>(config.queues)) {
  XLF_EXPECT_MSG(config.queues >= 1,
                 "host interface needs at least one submission queue");
  XLF_EXPECT_MSG(config.queues <= kMaxQueues,
                 "queues=" + std::to_string(config.queues) +
                     " exceeds the limit of " + std::to_string(kMaxQueues) +
                     " (queue ids are 16-bit)");
  XLF_EXPECT_MSG(config.queue_weights.size() <= config.queues, [&] {
    std::ostringstream msg;
    msg << "queue_weights has " << config.queue_weights.size()
        << " entries for " << config.queues
        << " queues; extra weights have no queue to apply to";
    return msg.str();
  }());
  states_.resize(config.queues);
  for (std::size_t q = 0; q < config.queue_weights.size(); ++q) {
    XLF_EXPECT_MSG(config.queue_weights[q] > 0.0, [&] {
      std::ostringstream msg;
      msg << "queue_weights[" << q << "]=" << config.queue_weights[q]
          << " must be > 0 (weights are issue-share proportions)";
      return msg.str();
    }());
    states_[q].weight = config.queue_weights[q];
  }
}

const HostInterface::QueueState& HostInterface::state(std::size_t q) const {
  XLF_EXPECT(q < states_.size());
  return states_[q];
}

double HostInterface::weight(std::size_t q) const { return state(q).weight; }

// xlf: hot — per-command path; stores the head in place.
void HostInterface::submit(const Command& command, Seconds arrival) {
  XLF_EXPECT_MSG(command.queue < states_.size(), [&] {
    std::ostringstream msg;
    msg << "command targets queue " << command.queue << " but only "
        << states_.size() << " queues exist";
    return msg.str();
  }());
  XLF_EXPECT(command.type == CmdType::kFlush || command.length >= 1);
  QueueState& s = states_[command.queue];
  XLF_EXPECT(!s.held && "each queue holds its head alone (pop it first)");
  s.head = command;
  s.arrival = arrival;
  s.held = true;
}

bool HostInterface::pending() const {
  for (const QueueState& s : states_) {
    if (s.held) return true;
  }
  return false;
}

bool HostInterface::holds(std::size_t q) const { return state(q).held; }

// xlf: hot — runs once per issued command; reads states_ in place.
std::optional<std::uint32_t> HostInterface::arbitrate() const {
  const std::size_t n = states_.size();
  if (arbitration_ == policy::Arbitration::kRoundRobin) {
    // Round-robin: the first issuable queue scanning circularly from
    // just past the last issuer (queue 0 before anything has issued);
    // every issuable queue gets one issue slot per turn of the wheel.
    const std::size_t start = last_queue_ >= n ? 0 : (last_queue_ + 1) % n;
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t q = (start + step) % n;
      if (issuable(states_[q])) return static_cast<std::uint32_t>(q);
    }
    return std::nullopt;
  }
  // Weighted (deficit-style sharing): the issuable queue furthest
  // behind its weighted issue share goes next, so issue opportunities
  // converge to the weight proportions and heavy queues drain first
  // under contention; strict < keeps ties on the lowest id.
  std::optional<std::uint32_t> pick;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t q = 0; q < n; ++q) {
    if (!issuable(states_[q])) continue;
    const double share =
        static_cast<double>(states_[q].issued) / states_[q].weight;
    if (!pick.has_value() || share < best) {
      best = share;
      pick = static_cast<std::uint32_t>(q);
    }
  }
  return pick;
}

// xlf: hot — hands out the head, no container operations at all.
std::pair<Command, Seconds> HostInterface::pop(std::uint32_t q) {
  XLF_EXPECT(q < states_.size());
  QueueState& s = states_[q];
  XLF_EXPECT(issuable(s));
  s.held = false;
  ++s.issued;
  last_queue_ = q;
  return {s.head, s.arrival};
}

void HostInterface::block(std::uint32_t q) {
  XLF_EXPECT(q < states_.size());
  states_[q].blocked = true;
}

void HostInterface::unblock(std::uint32_t q) {
  XLF_EXPECT(q < states_.size());
  states_[q].blocked = false;
}

bool HostInterface::blocked(std::uint32_t q) const { return state(q).blocked; }

Seconds HostInterface::last_scheduled_completion(std::uint32_t q) const {
  return state(q).last_completion;
}

void HostInterface::note_scheduled_completion(std::uint32_t q,
                                              Seconds completion) {
  XLF_EXPECT(q < states_.size());
  states_[q].last_completion =
      std::max(states_[q].last_completion, completion);
}

// xlf: ack — the host-visible acknowledgement: once the completion
// posts here the operation is promised durable (ack-order audits
// every NAND mutation reachable past this point).
void HostInterface::complete(const Completion& entry) {
  XLF_EXPECT(entry.queue < states_.size());
  QueueState& s = states_[entry.queue];
  const double latency = entry.latency().value();
  switch (entry.type) {
    case CmdType::kRead:
      ++s.stats.reads;
      s.stats.read_latency.add(latency);
      break;
    case CmdType::kWrite:
      ++s.stats.writes;
      s.stats.write_latency.add(latency);
      break;
    case CmdType::kTrim:
      ++s.stats.trims;
      break;
    case CmdType::kFlush:
      ++s.stats.flushes;
      break;
  }
}

const QueueStats& HostInterface::stats(std::size_t q) const {
  return state(q).stats;
}

std::vector<QueueStats> HostInterface::all_stats() const {
  std::vector<QueueStats> out;
  out.reserve(states_.size());
  for (const QueueState& s : states_) out.push_back(s.stats);
  return out;
}

}  // namespace xlf::host
