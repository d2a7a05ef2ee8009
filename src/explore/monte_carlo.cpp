#include "src/explore/monte_carlo.hpp"

#include <algorithm>

#include "src/ftl/ssd.hpp"
#include "src/sim/ssd_sim.hpp"
#include "src/util/expect.hpp"

namespace xlf::explore {
namespace {

// The one-page-buffer closed loop over an open-loop driver: one
// command per SsdSimulator::run, its gap stretched or shrunk so it
// arrives at max(scheduled arrival, previous completion). With
// nothing else in flight, each run's latency is the command's service
// time. A completion after the next command's scheduled arrival
// stalls a paced consumer (a QoS miss); unpaced successors never wait
// on a schedule.
ValidationStats run_closed_loop(sim::SsdSimulator& simulator,
                                const std::vector<host::Command>& commands) {
  ValidationStats out;
  Seconds now{0.0};      // the simulator's clock (prepopulate runs none)
  Seconds arrival{0.0};  // scheduled arrival of commands[i]
  for (std::size_t i = 0; i < commands.size(); ++i) {
    arrival += commands[i].gap;
    host::Command command = commands[i];
    command.gap = std::max(Seconds{0.0}, arrival - now);
    const sim::SsdSimStats run = simulator.run({command});
    now += run.elapsed;
    out.reads += run.reads;
    out.writes += run.writes;
    out.uncorrectable += run.uncorrectable;
    out.data_mismatches += run.data_mismatches;
    out.read_latency.merge(run.read_latency);
    out.write_latency.merge(run.write_latency);
    if (i + 1 < commands.size() && commands[i + 1].gap.value() > 0.0 &&
        now > arrival + commands[i + 1].gap) {
      ++out.qos_misses;
    }
  }
  out.elapsed = now;
  return out;
}

ValidationStats run_replica(const MonteCarloSpec& spec, Rng stream) {
  ftl::SsdConfig config;
  config.topology = {1, 1};
  config.die = spec.subsystem;
  config.die.device.array.seed = stream.next();  // independent device noise
  // Hold the t that apply(point) resolves at the validation age:
  // model_based would re-derive t from the active algorithm's RBER and
  // so turn MinUber (DV on the SV schedule) into MaxRead.
  config.die.controller.tuning_policy = policy::Tuning::kStatic;
  config.initial_pe_cycles = spec.pe_cycles;
  config.point = spec.point;
  // The default FtlConfig ages a block by one P/E cycle per erase.
  ftl::Ssd ssd(config);

  const std::vector<host::Command> commands = sim::generate_pattern(
      spec.workload, ssd.logical_pages(), spec.requests_per_replica, stream);

  sim::SsdSimConfig sim_config;
  sim_config.queue_depth = 1;
  sim_config.data_seed = stream.next();
  sim::SsdSimulator simulator(ssd, sim_config);
  simulator.prepopulate();
  return run_closed_loop(simulator, commands);
}

}  // namespace

void ValidationStats::merge(const ValidationStats& other) {
  reads += other.reads;
  writes += other.writes;
  uncorrectable += other.uncorrectable;
  data_mismatches += other.data_mismatches;
  qos_misses += other.qos_misses;
  elapsed += other.elapsed;
  read_latency.merge(other.read_latency);
  write_latency.merge(other.write_latency);
}

double MonteCarloResult::uncorrectable_page_rate() const {
  if (merged.reads == 0) return 0.0;
  return static_cast<double>(merged.uncorrectable) /
         static_cast<double>(merged.reads);
}

MonteCarloResult run_monte_carlo(const MonteCarloSpec& spec,
                                 ThreadPool& pool) {
  XLF_EXPECT(spec.replicas > 0);
  XLF_EXPECT(spec.requests_per_replica > 0);
  XLF_EXPECT(spec.pe_cycles >= 0.0);

  // Fork all replica streams serially up front: fork() advances the
  // root generator, so doing it inside workers would order-depend.
  Rng root(spec.seed);
  std::vector<Rng> streams;
  streams.reserve(spec.replicas);
  for (std::size_t r = 0; r < spec.replicas; ++r) {
    streams.push_back(root.fork());
  }

  std::vector<ValidationStats> slots(spec.replicas);
  pool.parallel_for(spec.replicas, [&](std::size_t r) {
    slots[r] = run_replica(spec, streams[r]);
  });

  MonteCarloResult result;
  result.replicas = spec.replicas;
  // Deterministic reduction: replica order, on this thread.
  for (const ValidationStats& stats : slots) result.merged.merge(stats);
  return result;
}

}  // namespace xlf::explore
