#include "src/explore/ftl_sweep.hpp"

#include <algorithm>
#include <sstream>

#include "src/ftl/fault.hpp"
#include "src/policy/policy.hpp"
#include "src/sim/host_workload.hpp"
#include "src/util/expect.hpp"

namespace xlf::explore {
namespace {

template <class P>
std::vector<P> parse_axis(const std::vector<std::string>& names) {
  std::vector<P> out;
  out.reserve(names.size());
  for (const std::string& name : names) out.push_back(policy::parse<P>(name));
  return out;
}

}  // namespace

FtlSweepResult ftl_sweep(const FtlSweepSpec& spec, ThreadPool& pool) {
  XLF_EXPECT(!spec.topologies.empty());
  XLF_EXPECT(!spec.queue_depths.empty());
  XLF_EXPECT(!spec.queue_counts.empty());
  XLF_EXPECT(!spec.arbitration_policies.empty());
  XLF_EXPECT(!spec.gc_policies.empty());
  XLF_EXPECT(!spec.wear_policies.empty());
  XLF_EXPECT(!spec.tuning_policies.empty());
  XLF_EXPECT(!spec.refresh_policies.empty());
  XLF_EXPECT(spec.requests > 0);
  XLF_EXPECT(spec.trim_fraction >= 0.0 && spec.trim_fraction < 1.0);
  XLF_EXPECT(!spec.fail_blocks.empty());
  // Before the viability bound below converts the logical share to an
  // integer (Ftl's constructor checks the range only later).
  const double logical_fraction = spec.base.ftl.logical_fraction;
  XLF_EXPECT_MSG(logical_fraction > 0.0 && logical_fraction < 1.0,
                 "logical_fraction must lie in (0, 1)");

  // Every topology must fit the FTL's 32-bit page space, and every
  // fail-block count must leave each die its logical share plus the GC
  // slack (the same viability bounds Ftl's constructor enforces, with
  // the retired blocks subtracted) — checked up front for every
  // topology, in 64 bits, so a bad axis entry fails before any combo
  // runs instead of wrapping.
  const nand::Geometry& geometry = spec.base.die.device.array.geometry;
  XLF_EXPECT(geometry.pages_per_block >= 1);
  const std::uint64_t slack = std::uint64_t{spec.base.ftl.gc_free_blocks} + 2;
  const std::uint64_t die_pages =
      std::uint64_t{geometry.blocks} * geometry.pages_per_block;
  for (const std::uint32_t fail : spec.fail_blocks) {
    XLF_EXPECT_MSG(geometry.blocks > fail + slack, [&] {
      std::ostringstream msg;
      msg << "fail_blocks=" << fail << " leaves fewer than the " << slack
          << " slack blocks GC needs out of blocks=" << geometry.blocks;
      return msg.str();
    }());
    for (const controller::DispatchConfig& topology : spec.topologies) {
      const std::uint64_t dies =
          std::uint64_t{topology.channels} * topology.dies_per_channel;
      XLF_EXPECT_MSG(dies >= 1 && dies <= ftl::kUnmapped / die_pages, [&] {
        std::ostringstream msg;
        msg << "topology " << topology.channels << "x"
            << topology.dies_per_channel << " makes " << dies << " dies of "
            << die_pages << " pages, past the FTL's 32-bit page space";
        return msg.str();
      }());
      const auto logical = static_cast<std::uint64_t>(
          static_cast<double>(dies * die_pages) * logical_fraction);
      const std::uint64_t per_die_logical_max =
          logical / dies + (logical % dies != 0 ? 1 : 0);
      const std::uint64_t room =
          (geometry.blocks - fail - slack) * geometry.pages_per_block;
      XLF_EXPECT_MSG(per_die_logical_max <= room, [&] {
        std::ostringstream msg;
        msg << "fail_blocks=" << fail << " starves topology "
            << topology.channels << "x" << topology.dies_per_channel
            << ": up to " << per_die_logical_max
            << " logical pages land on one die but only " << room
            << " fit beside the slack once the retired blocks are gone; "
               "lower fail_blocks or logical_fraction, or grow the die";
        return msg.str();
      }());
    }
  }

  // Each policy axis, parsed once: an unknown name fails the sweep
  // before any combo runs, listing the available names.
  const auto tunings = parse_axis<policy::Tuning>(spec.tuning_policies);
  const auto gcs = parse_axis<policy::Gc>(spec.gc_policies);
  const auto wears = parse_axis<policy::Wear>(spec.wear_policies);
  const auto refreshes = parse_axis<policy::Refresh>(spec.refresh_policies);
  const auto arbitrations =
      parse_axis<policy::Arbitration>(spec.arbitration_policies);

  const std::size_t policy_combos =
      spec.gc_policies.size() * spec.wear_policies.size() *
      spec.tuning_policies.size() * spec.refresh_policies.size() *
      spec.fail_blocks.size();
  const std::size_t host_combos =
      spec.queue_counts.size() * spec.arbitration_policies.size();
  const std::size_t combos = spec.topologies.size() *
                             spec.queue_depths.size() * host_combos *
                             policy_combos;

  // Serially pre-forked randomness, one stream per combo: adding a
  // combo or reordering workers never reshuffles another combo's run.
  Rng root(spec.seed);
  std::vector<Rng> streams;
  streams.reserve(combos);
  for (std::size_t i = 0; i < combos; ++i) streams.push_back(root.fork());

  FtlSweepResult result;
  result.rows.resize(combos);

  const auto run_combo = [&](std::size_t index) {
    // Decompose: topology-major, then queue depth, queue count,
    // arbitration, then the policy axes gc > wear > tuning > refresh,
    // then the fail-block count (innermost).
    std::size_t rest = index;
    const std::size_t f = rest % spec.fail_blocks.size();
    rest /= spec.fail_blocks.size();
    const std::size_t r = rest % spec.refresh_policies.size();
    rest /= spec.refresh_policies.size();
    const std::size_t u = rest % spec.tuning_policies.size();
    rest /= spec.tuning_policies.size();
    const std::size_t w = rest % spec.wear_policies.size();
    rest /= spec.wear_policies.size();
    const std::size_t g = rest % spec.gc_policies.size();
    rest /= spec.gc_policies.size();
    const std::size_t a = rest % spec.arbitration_policies.size();
    rest /= spec.arbitration_policies.size();
    const std::size_t n = rest % spec.queue_counts.size();
    rest /= spec.queue_counts.size();
    const std::size_t q = rest % spec.queue_depths.size();
    const std::size_t t = rest / spec.queue_depths.size();

    ftl::SsdConfig config = spec.base;
    config.topology = spec.topologies[t];
    config.ftl.gc_policy = gcs[g];
    config.ftl.wear_policy = wears[w];
    config.ftl.refresh_policy = refreshes[r];
    config.die.controller.tuning_policy = tunings[u];
    config.die.device.data_plane = spec.data_plane;

    Rng stream = streams[index];
    ftl::Ssd ssd(config);

    // Grown-bad injection: the combo's fail count retires the lowest
    // block ids of every die on their first erase — the blocks every
    // wear policy allocates first and GC churns hardest, so the
    // injection reliably bites.
    ftl::FaultInjector injector;
    const std::uint32_t fail = spec.fail_blocks[f];
    for (std::size_t d = 0; d < ssd.dies(); ++d) {
      for (std::uint32_t i = 0; i < fail; ++i) {
        injector.fail_block(static_cast<std::uint32_t>(d), i);
      }
    }
    ssd.set_fault_injector(&injector);

    const std::size_t queues = spec.queue_counts[n];
    sim::SsdSimConfig sim_config;
    sim_config.queue_depth = spec.queue_depths[q];
    sim_config.host.queues = queues;
    sim_config.host.arbitration = arbitrations[a];
    // One weight list serves every queue-count entry: take the first
    // `queues` entries, pad missing ones with 1.0 (HostInterface).
    sim_config.host.queue_weights.assign(
        spec.queue_weights.begin(),
        spec.queue_weights.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(queues, spec.queue_weights.size())));
    sim_config.data_seed = stream.next();
    sim::SsdSimulator simulator(ssd, sim_config);
    if (spec.prepopulate) simulator.prepopulate();

    sim::TenantSpec tenant;
    tenant.hot_fraction = spec.hot_fraction;
    tenant.hot_write_fraction = spec.hot_write_fraction;
    tenant.read_fraction = spec.read_fraction;
    tenant.trim_fraction = spec.trim_fraction;
    const sim::MultiTenantWorkload workload(
        std::vector<sim::TenantSpec>(queues, tenant));
    const std::vector<host::Command> commands =
        workload.generate(ssd.logical_pages(), spec.requests, stream);

    FtlSweepRow row;
    row.channels = config.topology.channels;
    row.dies_per_channel = config.topology.dies_per_channel;
    row.queue_depth = spec.queue_depths[q];
    row.queues = queues;
    row.arbitration = spec.arbitration_policies[a];
    row.gc_policy = spec.gc_policies[g];
    row.wear_policy = spec.wear_policies[w];
    row.tuning_policy = spec.tuning_policies[u];
    row.refresh_policy = spec.refresh_policies[r];
    row.stats = simulator.run(commands);
    // One maintenance scrub after the request stream: the refresh
    // policy's effect shows up as preventive relocations in the row.
    // Unconditional — "none" refreshes nothing and reports zeros.
    const ftl::ScrubResult scrubbed = ssd.ftl().scrub();
    row.stats.refresh_blocks = scrubbed.blocks_refreshed;
    row.stats.refresh_relocations = scrubbed.pages_relocated;
    // Recovery drill: every combo ends with a clean shutdown (flush),
    // a remount that rebuilds the FTL from OOB + journal, an
    // invariant audit, and a bit-true read-back of everything the
    // host still holds. Lifetime totals (prepopulate + run + scrub)
    // for the bad-block count, read before the remount resets stats.
    row.fail_blocks = fail;
    row.bad_blocks = ssd.ftl().stats().bad_blocks;
    ssd.ftl().flush();
    ssd.remount();
    ssd.ftl().check_consistency();
    row.rebuild_mismatches = simulator.verify_stored();
    result.rows[index] = std::move(row);
  };
  pool.parallel_for(combos, run_combo);
  return result;
}

}  // namespace xlf::explore
