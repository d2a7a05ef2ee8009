#include "src/sim/subsystem_sim.hpp"

#include <algorithm>

#include "src/util/expect.hpp"

namespace xlf::sim {

void SimStats::merge(const SimStats& other) {
  reads += other.reads;
  writes += other.writes;
  erases += other.erases;
  uncorrectable += other.uncorrectable;
  data_mismatches += other.data_mismatches;
  corrected_bits += other.corrected_bits;
  qos_misses += other.qos_misses;
  elapsed += other.elapsed;
  read_busy += other.read_busy;
  write_busy += other.write_busy;
  ecc_energy += other.ecc_energy;
  nand_energy += other.nand_energy;
  read_latency.merge(other.read_latency);
  write_latency.merge(other.write_latency);
}

BytesPerSecond SimStats::read_throughput(std::size_t page_bytes) const {
  if (read_busy.value() <= 0.0) return BytesPerSecond{0.0};
  return BytesPerSecond{static_cast<double>(reads * page_bytes) /
                        read_busy.value()};
}

BytesPerSecond SimStats::write_throughput(std::size_t page_bytes) const {
  if (write_busy.value() <= 0.0) return BytesPerSecond{0.0};
  return BytesPerSecond{static_cast<double>(writes * page_bytes) /
                        write_busy.value()};
}

SubsystemSimulator::SubsystemSimulator(
    controller::MemoryController& controller, const SimConfig& config)
    : controller_(&controller), config_(config), data_rng_(config.data_seed) {}

BitVec SubsystemSimulator::random_payload() {
  const std::uint32_t bits =
      controller_->device().geometry().data_bits_per_page();
  BitVec data(bits);
  for (std::size_t w = 0; w < data.words().size(); ++w) {
    data.set_word(w, data_rng_.coin_flips(static_cast<unsigned>(
                         std::min<std::size_t>(64, bits - 64 * w))));
  }
  return data;
}

void SubsystemSimulator::prepopulate() {
  const auto& geometry = controller_->device().geometry();
  for (std::uint32_t block = 0; block < geometry.blocks; ++block) {
    for (std::uint32_t p = 0; p < geometry.pages_per_block; ++p) {
      const nand::PageAddress addr{block, p};
      if (!controller_->device().array().is_erased(addr)) continue;
      BitVec payload = random_payload();
      controller_->write_page(addr, payload);
      written_[{block, p}] = std::move(payload);
    }
  }
}

void SubsystemSimulator::service_write(nand::PageAddress addr,
                                       SimStats& stats) {
  // Writing a programmed page requires an erase of its block first
  // (no FTL indirection in this subsystem-level model).
  if (!controller_->device().array().is_erased(addr)) {
    const Seconds erase_time = controller_->erase_block(addr.block);
    queue_.schedule_in(erase_time, [] {});
    queue_.run();
    stats.write_busy += erase_time;
    ++stats.erases;
    for (std::uint32_t p = 0;
         p < controller_->device().geometry().pages_per_block; ++p) {
      written_.erase({addr.block, p});
    }
  }
  BitVec payload = random_payload();
  const controller::WriteResult result =
      controller_->write_page(addr, payload);
  queue_.schedule_in(result.latency, [] {});
  queue_.run();
  stats.write_busy += result.latency;
  stats.write_latency.add(result.latency.value());
  stats.ecc_energy += result.ecc_energy;
  stats.nand_energy += result.nand_energy;
  ++stats.writes;
  written_[{addr.block, addr.page}] = std::move(payload);
}

void SubsystemSimulator::service_read(nand::PageAddress addr,
                                      SimStats& stats) {
  // Reads of pages this simulator has not written are satisfied by
  // writing them first outside the accounting (state setup). A page
  // programmed by an earlier simulator instance must be recycled
  // through an erase before it can be rewritten.
  if (written_.find({addr.block, addr.page}) == written_.end()) {
    if (!controller_->device().array().is_erased(addr)) {
      controller_->erase_block(addr.block);
      for (std::uint32_t p = 0;
           p < controller_->device().geometry().pages_per_block; ++p) {
        written_.erase({addr.block, p});
      }
    }
    BitVec payload = random_payload();
    controller_->write_page(addr, payload);
    written_[{addr.block, addr.page}] = std::move(payload);
  }
  const controller::ReadResult result = controller_->read_page(addr);
  queue_.schedule_in(result.latency, [] {});
  queue_.run();
  stats.read_busy += result.latency;
  stats.read_latency.add(result.latency.value());
  stats.ecc_energy += result.ecc_energy;
  stats.nand_energy += result.nand_energy;
  stats.corrected_bits += result.corrected_bits;
  if (result.uncorrectable) ++stats.uncorrectable;
  ++stats.reads;
  if (config_.verify_data && !result.uncorrectable) {
    const auto it = written_.find({addr.block, addr.page});
    if (it != written_.end() && !(result.data == it->second)) {
      ++stats.data_mismatches;
    }
  }
}

SimStats SubsystemSimulator::run(const std::vector<Request>& requests) {
  SimStats stats;
  Seconds next_arrival = queue_.now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    next_arrival += request.gap;
    // Closed loop with pacing: service starts at the later of the
    // arrival and device-free time.
    if (queue_.now() < next_arrival) {
      queue_.run_until(next_arrival);
    }
    const Seconds service_start = queue_.now();
    if (request.type == OpType::kWrite) {
      service_write(request.addr, stats);
    } else {
      service_read(request.addr, stats);
    }
    // A paced consumer misses QoS when service runs past the next
    // scheduled arrival.
    if (i + 1 < requests.size() && requests[i + 1].gap.value() > 0.0) {
      if (queue_.now() > next_arrival + requests[i + 1].gap) {
        ++stats.qos_misses;
      }
    }
    (void)service_start;
  }
  stats.elapsed = queue_.now();
  return stats;
}

}  // namespace xlf::sim
