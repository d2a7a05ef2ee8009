#include "src/sim/ssd_sim.hpp"

#include <algorithm>
#include <limits>

#include "src/util/expect.hpp"

namespace xlf::sim {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

std::uint64_t payload_digest(const BitVec& payload) {
  std::uint64_t h = 0;
  for (std::uint64_t w : payload.words()) {
    h += w;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
  }
  return h;
}

double SsdSimStats::die_util_min() const {
  if (die_utilisation.empty()) return kNaN;
  return *std::min_element(die_utilisation.begin(), die_utilisation.end());
}

double SsdSimStats::die_util_max() const {
  if (die_utilisation.empty()) return kNaN;
  return *std::max_element(die_utilisation.begin(), die_utilisation.end());
}

double SsdSimStats::die_util_mean() const {
  if (die_utilisation.empty()) return kNaN;
  double sum = 0.0;
  for (double u : die_utilisation) sum += u;
  return sum / static_cast<double>(die_utilisation.size());
}

SsdSimulator::SsdSimulator(ftl::Ssd& ssd, const SsdSimConfig& config)
    : ssd_(&ssd),
      config_(config),
      payloads_(ssd.die(0).device().config().data_plane),
      data_rng_(config.data_seed) {
  XLF_EXPECT(config.queue_depth >= 1);
  if (payloads_) {
    digests_.assign(ssd.logical_pages(), 0);
    held_.assign(ssd.logical_pages(), 0);
  }
  // Surface a bad queue shape / arbitration name at construction, not
  // mid-run: building a throwaway interface runs all the checks.
  host::HostInterface probe(config_.host);
}

BitVec SsdSimulator::random_payload() {
  const std::uint32_t bits = ssd_->die_geometry().data_bits_per_page();
  BitVec data(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (data_rng_.chance(0.5)) data.set(i, true);
  }
  return data;
}

void SsdSimulator::prepopulate() {
  for (ftl::Lpa lpa = 0; lpa < ssd_->logical_pages(); ++lpa) {
    if (payloads_) {
      const BitVec payload = random_payload();
      ssd_->ftl().write(lpa, payload);
      digests_[lpa] = payload_digest(payload);
      held_[lpa] = 1;
    } else {
      ssd_->ftl().write(lpa, BitVec(0));
    }
  }
}

void SsdSimulator::issue(std::uint32_t q, const host::Command& command,
                         Seconds arrival, SsdSimStats& stats) {
  const Seconds now = queue_.now();
  controller::DieDispatcher& dispatcher = ssd_->dispatcher();
  host::Completion entry;
  entry.type = command.type;
  entry.lba = command.lba;
  entry.length = command.length;
  entry.queue = command.queue;
  entry.tenant = command.tenant;
  entry.submitted = arrival;

  // The command's completion: the latest page of its extent (or `now`
  // for pure metadata work).
  Seconds completion = now;

  switch (command.type) {
    case host::CmdType::kWrite: {
      for (std::uint32_t p = 0; p < command.length; ++p) {
        const ftl::Lpa lpa = command.lba + p;
        const BitVec payload = payloads_ ? random_payload() : BitVec(0);
        const ftl::FtlOpResult res = ssd_->ftl().write(lpa, payload);
        if (payloads_) {
          digests_[lpa] = payload_digest(payload);
          held_[lpa] = 1;
        }
        stats.gc_busy += res.gc_time;
        stats.ecc_energy += res.ecc_energy;
        stats.nand_energy += res.nand_energy;
        ++stats.writes;
        const controller::DispatchSlot slot =
            dispatcher.submit_write(res.die, now, res.io_time, res.cell_time);
        completion = std::max(completion, slot.completion);
      }
      break;
    }
    case host::CmdType::kRead: {
      for (std::uint32_t p = 0; p < command.length; ++p) {
        const ftl::Lpa lpa = command.lba + p;
        // FTL state resolves at issue; the payload check runs against
        // the host's record as of this instant.
        const ftl::FtlOpResult res = ssd_->ftl().read(lpa);
        if (res.unmapped) {
          // Serviced from the map with no flash access: this page
          // contributes no device time.
          ++stats.unmapped_reads;
          continue;
        }
        stats.corrected_bits += res.corrected_bits;
        stats.ecc_energy += res.ecc_energy;
        stats.nand_energy += res.nand_energy;
        ++stats.reads;
        if (res.uncorrectable) {
          ++stats.uncorrectable;
          entry.ok = false;
        } else if (payloads_ && held_[lpa] &&
                   payload_digest(res.data) != digests_[lpa]) {
          ++stats.data_mismatches;
        }
        const controller::DispatchSlot slot =
            dispatcher.submit_read(res.die, now, res.io_time, res.cell_time);
        completion = std::max(completion, slot.completion);
      }
      break;
    }
    case host::CmdType::kTrim: {
      for (std::uint32_t p = 0; p < command.length; ++p) {
        const ftl::Lpa lpa = command.lba + p;
        ssd_->ftl().trim(lpa);
        if (payloads_) held_[lpa] = 0;
      }
      // Host-level count (one per command; trimmed_pages comes from
      // the FTL-stats delta like the other FTL activity).
      ++stats.trims;
      // Metadata-only: completes at issue time.
      break;
    }
    case host::CmdType::kFlush: {
      // Barrier: done when everything previously issued from this
      // queue is; the queue stays blocked until then.
      ssd_->ftl().flush();
      ++stats.flushes;
      completion = std::max(now, host_->last_scheduled_completion(q));
      host_->block(q);
      break;
    }
  }

  entry.completed = completion;
  host_->note_scheduled_completion(q, completion);
  ++outstanding_;
  // Park the Completion in the inflight arena and schedule only the
  // slot index: the {this, slot} capture fits std::function's
  // small-buffer storage, so the per-command completion event costs
  // no allocation.
  const std::uint32_t slot = acquire_inflight();
  inflight_[slot] = entry;
  queue_.schedule_at(completion, [this, slot] { complete_slot(slot); });
}

std::uint32_t SsdSimulator::acquire_inflight() {
  if (!inflight_free_.empty()) {
    const std::uint32_t slot = inflight_free_.back();
    inflight_free_.pop_back();
    return slot;
  }
  // Arena growth: bounded by queue_depth, so the pool stops growing
  // once the pipeline is full and every later acquire recycles.
  inflight_.emplace_back();  // xlf-lint: allow(hot-alloc)
  return static_cast<std::uint32_t>(inflight_.size() - 1);
}

// xlf: hot — the completion event, once per command; everything it
// reaches (try_issue, issue, the inflight arena) recycles storage.
// xlf: ack — this is where a command is acknowledged to the host;
// no NAND mutation may be reachable from here without a durable
// commit on the path (ack-order).
void SsdSimulator::complete_slot(std::uint32_t slot) {
  // Copy out before recycling: try_issue below reuses the slot, and a
  // pool grow would invalidate a reference into it.
  const host::Completion entry = inflight_[slot];
  // Returning a slot to the free list reuses capacity the matching
  // acquire_inflight pop made available; it cannot grow past the
  // arena's own high-water mark.
  inflight_free_.push_back(slot);  // xlf-lint: allow(hot-alloc)
  SsdSimStats& stats = *run_stats_;
  const double latency = entry.latency().value();
  switch (entry.type) {
    case host::CmdType::kRead:
      stats.read_latency.add(latency);
      break;
    case host::CmdType::kWrite:
      stats.write_latency.add(latency);
      break;
    case host::CmdType::kTrim:
      break;
    case host::CmdType::kFlush:
      host_->unblock(entry.queue);
      break;
  }
  host_->complete(entry);
  --outstanding_;
  try_issue(stats);
}

// xlf: hot — the issue loop; runs between every pair of completions.
void SsdSimulator::try_issue(SsdSimStats& stats) {
  while (outstanding_ < config_.queue_depth) {
    const std::optional<std::uint32_t> q = host_->arbitrate();
    if (!q.has_value()) break;
    const auto [command, arrival] = host_->pop(*q);
    refill(*q);
    issue(*q, command, arrival, stats);
  }
}

void SsdSimulator::refill(std::uint32_t q) {
  const std::vector<host::Command>& commands = *stream_;
  Lane& lane = lanes_[q];
  Seconds stamp = lane.stamp;
  for (std::size_t i = lane.next; i < arrived_; ++i) {
    stamp += commands[i].gap;
    if (commands[i].queue == q) {
      host_->submit(commands[i], stamp);
      ++handed_;
      lane = {i + 1, stamp};
      return;
    }
  }
  lane = {arrived_, stamp};
}

std::size_t SsdSimulator::verify_stored() {
  std::size_t mismatches = 0;
  for (ftl::Lpa lpa = 0; lpa < held_.size(); ++lpa) {
    if (!held_[lpa]) continue;
    const ftl::FtlOpResult res = ssd_->ftl().read(lpa);
    if (res.unmapped || payload_digest(res.data) != digests_[lpa]) {
      ++mismatches;
    }
  }
  return mismatches;
}

SsdSimStats SsdSimulator::run(const std::vector<host::Command>& commands) {
  SsdSimStats stats;
  host::HostInterface host(config_.host);
  host_ = &host;
  outstanding_ = 0;
  run_stats_ = &stats;
  inflight_.clear();
  inflight_free_.clear();

  const Seconds start = queue_.now();
  stream_ = &commands;
  lanes_.assign(host.queues(), Lane{0, start});
  arrived_ = 0;
  handed_ = 0;
  const ftl::FtlStats ftl_before = ssd_->ftl().stats();
  std::vector<Seconds> die_busy_before(ssd_->dies());
  std::vector<Seconds> channel_busy_before(ssd_->dispatcher().channels());
  for (std::size_t d = 0; d < die_busy_before.size(); ++d) {
    die_busy_before[d] = ssd_->dispatcher().die_busy(d);
  }
  for (std::size_t c = 0; c < channel_busy_before.size(); ++c) {
    channel_busy_before[c] = ssd_->dispatcher().channel_busy(c);
  }

  // Open loop: arrivals stream from a cursor over `commands`, merged
  // with the event heap, which then holds only completions (at most
  // queue_depth of them). Completions never delay arrivals, only
  // issue. An arrival fires first on a timestamp tie: the same order
  // as if every arrival had been scheduled up front, ahead of every
  // completion. An arriving command goes to the host only when its
  // queue holds nothing; otherwise refill() hands it over when the
  // commands ahead of it have issued. arbitrate() reads only whether a
  // queue holds a command, never how many, so it picks as it would over
  // whole backlogs.
  try {
    Seconds arrival = start;  // of commands[arrived_]
    const auto stamp_next = [&] {
      if (arrived_ == commands.size()) return;
      XLF_EXPECT(commands[arrived_].gap.value() >= 0.0);
      arrival += commands[arrived_].gap;
    };
    stamp_next();
    // Runaway guard over arrivals + completions.
    for (std::size_t executed = 0; executed < EventQueue::kRunLimit;
         ++executed) {
      if (arrived_ < commands.size() &&
          (queue_.empty() || arrival <= queue_.next_time())) {
        queue_.advance_to(arrival);
        const host::Command& command = commands[arrived_];
        ++arrived_;
        // submit() also rejects a queue the host does not have.
        if (command.queue >= lanes_.size() || !host.holds(command.queue)) {
          host.submit(command, arrival);
          ++handed_;
          lanes_[command.queue] = {arrived_, arrival};
        }
        try_issue(stats);
        stamp_next();
      } else if (!queue_.step()) {
        break;
      }
    }
    XLF_ENSURE(arrived_ == commands.size() && queue_.empty() &&
               "event limit hit: runaway simulation");
    XLF_ENSURE(outstanding_ == 0 && !host.pending());
    XLF_ENSURE(handed_ == commands.size() &&
               "an arrived command never reached its host queue");
  } catch (const ftl::PowerLoss&) {
    // Power cut: everything scheduled after the kill instant never
    // happens. Drop the timeline and report the crash in the stats;
    // the caller remounts the Ssd over the surviving NAND state.
    queue_.clear();
    outstanding_ = 0;
    stats.power_loss = true;
  }

  stats.elapsed = queue_.now() - start;
  const ftl::FtlStats& ftl_after = ssd_->ftl().stats();
  stats.gc_relocations = ftl_after.gc_relocations - ftl_before.gc_relocations;
  stats.erases = ftl_after.erases - ftl_before.erases;
  stats.wl_swaps = ftl_after.wl_swaps - ftl_before.wl_swaps;
  stats.trimmed_pages = ftl_after.trimmed_pages - ftl_before.trimmed_pages;
  stats.bad_blocks = ftl_after.bad_blocks - ftl_before.bad_blocks;
  const std::uint64_t host_writes =
      ftl_after.host_writes - ftl_before.host_writes;
  stats.write_amplification =
      host_writes == 0
          ? 0.0
          : static_cast<double>(host_writes + stats.gc_relocations) /
                static_cast<double>(host_writes);
  // Lifetime spread (includes prepopulation): normalise the "never
  // wrote" sentinel away.
  stats.min_t_used =
      ftl_after.max_t_used == 0 ? 0 : ftl_after.min_t_used;
  stats.max_t_used = ftl_after.max_t_used;
  stats.wear_min = ssd_->ftl().min_wear();
  stats.wear_max = ssd_->ftl().max_wear();

  stats.die_utilisation.resize(ssd_->dies());
  stats.channel_utilisation.resize(channel_busy_before.size());
  const double elapsed = std::max(stats.elapsed.value(),
                                  std::numeric_limits<double>::min());
  for (std::size_t d = 0; d < stats.die_utilisation.size(); ++d) {
    stats.die_utilisation[d] =
        (ssd_->dispatcher().die_busy(d) - die_busy_before[d]).value() /
        elapsed;
  }
  for (std::size_t c = 0; c < stats.channel_utilisation.size(); ++c) {
    stats.channel_utilisation[c] =
        (ssd_->dispatcher().channel_busy(c) - channel_busy_before[c]).value() /
        elapsed;
  }
  stats.queue_stats = host.all_stats();
  host_ = nullptr;
  run_stats_ = nullptr;
  stream_ = nullptr;
  return stats;
}

}  // namespace xlf::sim
