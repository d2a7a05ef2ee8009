// Multimedia streaming (paper Section 6.3.2): a read-intensive,
// QoS-sensitive workload near the end of the device's life. The
// MaxRead cross-layer point (ISPP-DV + relaxed ECC) shortens the
// worst-case read service time, letting the device sustain a higher
// stream bitrate at the same 1e-11 UBER — at the cost of slower
// (rare) writes.
//
// Each point runs as one Monte-Carlo replica: a 1x1 SSD whose die
// holds the point's t, serving the paced stream one page at a time
// (the paper's single page buffer).
#include <iostream>

#include "src/core/subsystem.hpp"
#include "src/explore/monte_carlo.hpp"

using namespace xlf;

namespace {

void run_stream(const core::MemorySubsystem& die,
                const core::SubsystemConfig& config,
                const core::OperatingPoint& point, double pe_cycles,
                BytesPerSecond bitrate, ThreadPool& pool) {
  explore::MonteCarloSpec spec;
  spec.subsystem = config;
  spec.point = point;
  spec.pe_cycles = pe_cycles;
  spec.workload.kind = sim::Pattern::kStreaming;
  spec.workload.bitrate = bitrate;
  spec.requests_per_replica = 160;
  spec.replicas = 1;
  spec.seed = 9;
  const explore::ValidationStats stats =
      explore::run_monte_carlo(spec, pool).merged;

  const double page_bytes = config.device.array.geometry.data_bytes_per_page;
  const Seconds mean_read{stats.read_latency.mean()};
  std::cout << "  " << point.describe() << '\n'
            << "    t=" << die.framework().resolve_t(point, pe_cycles)
            << "  device read throughput: "
            << to_string(BytesPerSecond{page_bytes / mean_read.value()})
            << "  mean latency: " << to_string(mean_read)
            << "  QoS misses: " << stats.qos_misses << "/" << stats.reads
            << "  uncorrectable: " << stats.uncorrectable << '\n';
}

}  // namespace

int main() {
  std::cout << "=== multimedia streaming at end of life (1e6 P/E) ===\n";
  core::SubsystemConfig config = core::SubsystemConfig::defaults();
  // The smallest die the replica's FTL accepts.
  config.device.array.geometry.blocks = 8;
  config.device.array.geometry.pages_per_block = 4;
  // The die's framework names the t each point resolves.
  const core::MemorySubsystem die(config);
  ThreadPool pool(1);

  // A stream rate chosen to be feasible with the relaxed decoder but
  // marginal with the baseline's worst-case t = 65 decode latency.
  const BytesPerSecond bitrate = BytesPerSecond::mib(17.0);
  std::cout << "stream bitrate: " << to_string(bitrate) << "\n\n";

  run_stream(die, config, core::OperatingPoint::baseline(), 1e6, bitrate,
             pool);
  run_stream(die, config, core::OperatingPoint::max_read(), 1e6, bitrate,
             pool);

  std::cout << "\nthe cross-layer point sustains the stream that the "
               "baseline misses deadlines on, with UBER unchanged at the "
               "1e-11 target (occasional glitches are the tolerance the "
               "paper cites for multimedia QoS)\n";
  return 0;
}
