// FNV-1a digests for the byte-identity pins: a test hashes every field
// of a result (doubles by bit pattern) and compares the digest with a
// value captured from a reference build, so any drift in a noise
// stream or a statistic shows up as one mismatching 64-bit number.
#pragma once

#include <cstdint>
#include <cstring>

#include "src/sim/ssd_sim.hpp"
#include "src/util/stats.hpp"

namespace xlf::test {

class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void latency(const RunningStats& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
    f64(s.min());
    f64(s.max());
  }
  // Every SsdSimStats field, per-queue stats and utilisations included.
  void add(const sim::SsdSimStats& s) {
    for (std::uint64_t v :
         {std::uint64_t{s.reads}, std::uint64_t{s.writes},
          std::uint64_t{s.unmapped_reads}, std::uint64_t{s.uncorrectable},
          std::uint64_t{s.data_mismatches}, std::uint64_t{s.corrected_bits},
          std::uint64_t{s.trims}, std::uint64_t{s.trimmed_pages},
          std::uint64_t{s.flushes}, std::uint64_t{s.power_loss},
          s.bad_blocks, s.gc_relocations, s.erases, s.wl_swaps,
          s.refresh_blocks, s.refresh_relocations,
          std::uint64_t{s.min_t_used}, std::uint64_t{s.max_t_used}}) {
      u64(v);
    }
    for (double v : {s.write_amplification, s.wear_min, s.wear_max,
                     s.elapsed.value(), s.gc_busy.value(),
                     s.ecc_energy.value(), s.nand_energy.value()}) {
      f64(v);
    }
    latency(s.read_latency);
    latency(s.write_latency);
    u64(s.queue_stats.size());
    for (const host::QueueStats& q : s.queue_stats) {
      u64(q.reads);
      u64(q.writes);
      u64(q.trims);
      u64(q.flushes);
      latency(q.read_latency);
      latency(q.write_latency);
    }
    u64(s.die_utilisation.size());
    for (double u : s.die_utilisation) f64(u);
    u64(s.channel_utilisation.size());
    for (double u : s.channel_utilisation) f64(u);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

}  // namespace xlf::test
