// Open-loop SSD simulator: completion accounting, queue-depth and
// multi-die scaling, utilisation bookkeeping, and dispatcher timing
// arithmetic.
#include "src/sim/ssd_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>

#include "src/controller/dispatch.hpp"
#include "src/sim/host_workload.hpp"
#include "tests/digest.hpp"

namespace xlf::sim {
namespace {

using namespace xlf::literals;

ftl::SsdConfig ssd_config(std::uint32_t channels, std::uint32_t dies) {
  ftl::SsdConfig config;
  config.topology = {channels, dies};
  config.die.device.array.geometry.blocks = 8;
  config.die.device.array.geometry.pages_per_block = 4;
  return config;
}

TEST(DieDispatcher, WritesShareChannelButOverlapOnDies) {
  // 1 channel x 2 dies: the bursts serialise on the bus, the
  // programs overlap.
  controller::DieDispatcher dispatcher({1, 2});
  const Seconds io = 0.001_s, cell = 0.010_s;
  const auto a = dispatcher.submit_write(0, Seconds{0.0}, io, cell);
  const auto b = dispatcher.submit_write(1, Seconds{0.0}, io, cell);
  EXPECT_DOUBLE_EQ(a.completion.value(), 0.011);
  // Die 1's burst waits for die 0's burst only, not its program.
  EXPECT_DOUBLE_EQ(b.start.value(), 0.001);
  EXPECT_DOUBLE_EQ(b.completion.value(), 0.012);
  EXPECT_DOUBLE_EQ(dispatcher.channel_busy(0).value(), 0.002);
}

TEST(DieDispatcher, SameDieSerialises) {
  controller::DieDispatcher dispatcher({1, 1});
  const Seconds io = 0.001_s, cell = 0.010_s;
  const auto a = dispatcher.submit_write(0, Seconds{0.0}, io, cell);
  const auto b = dispatcher.submit_write(0, Seconds{0.0}, io, cell);
  EXPECT_DOUBLE_EQ(b.start.value(), a.completion.value());
  EXPECT_DOUBLE_EQ(b.completion.value(), 0.022);
}

TEST(DieDispatcher, ReadSensesBeforeBurstingOut) {
  controller::DieDispatcher dispatcher({1, 2});
  // Die 0 reads (sense 75us, burst 25us); die 1's read senses in
  // parallel and its burst queues behind die 0's.
  const auto a = dispatcher.submit_read(0, Seconds{0.0}, 25.0_us, 75.0_us);
  const auto b = dispatcher.submit_read(1, Seconds{0.0}, 25.0_us, 75.0_us);
  EXPECT_DOUBLE_EQ(a.completion.micros(), 100.0);
  EXPECT_DOUBLE_EQ(b.completion.micros(), 125.0);
}

TEST(DieDispatcher, DiesStripeRoundRobinAcrossChannels) {
  controller::DieDispatcher dispatcher({2, 2});
  ASSERT_EQ(dispatcher.dies(), 4u);
  EXPECT_EQ(dispatcher.channel_of(0), 0u);
  EXPECT_EQ(dispatcher.channel_of(1), 1u);
  EXPECT_EQ(dispatcher.channel_of(2), 0u);
  EXPECT_EQ(dispatcher.channel_of(3), 1u);
}

TEST(SsdSimulator, AccountsEveryRequest) {
  ftl::Ssd ssd(ssd_config(2, 1));
  SsdSimulator simulator(ssd);
  // Uniform overwrites: the whole LPA space is the hot slice.
  const MultiTenantWorkload workload({TenantSpec{1.0, 1.0, 0.25}});
  Rng rng(11);
  const auto commands = workload.generate(ssd.logical_pages(), 60, rng);
  const SsdSimStats stats = simulator.run(commands);
  EXPECT_EQ(stats.reads + stats.writes + stats.unmapped_reads,
            commands.size());
  EXPECT_EQ(stats.unmapped_reads, 0u);  // reads only target written LPAs
  EXPECT_GT(stats.elapsed.value(), 0.0);
  EXPECT_EQ(stats.die_utilisation.size(), 2u);
  EXPECT_EQ(stats.data_mismatches, 0u);
  // The single queue's view agrees with the globals.
  ASSERT_EQ(stats.queue_stats.size(), 1u);
  EXPECT_EQ(stats.queue_stats[0].reads + stats.queue_stats[0].writes,
            commands.size());
  EXPECT_DOUBLE_EQ(stats.queue_stats[0].read_latency.mean(),
                   stats.read_latency.mean());
  EXPECT_DOUBLE_EQ(stats.queue_stats[0].write_latency.mean(),
                   stats.write_latency.mean());
}

TEST(SsdSimulator, PrepopulateMapsEveryLogicalPage) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimulator simulator(ssd);
  simulator.prepopulate();
  for (ftl::Lpa lpa = 0; lpa < ssd.logical_pages(); ++lpa) {
    EXPECT_TRUE(ssd.ftl().mapped(lpa));
  }
}

// The oracle's negative control: LPAs rewritten behind the
// simulator's back, each with one bit flipped, no longer match what
// the host holds, and both audits count them.
TEST(SsdSimulator, OracleCountsPayloadsChangedBehindItsBack) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimulator simulator(ssd);
  simulator.prepopulate();
  ASSERT_EQ(simulator.verify_stored(), 0u);
  const ftl::Lpa changed[] = {0, 3, 9};
  for (ftl::Lpa lpa : changed) {
    BitVec data = ssd.ftl().read(lpa).data;
    data.flip(100 * lpa);
    ssd.ftl().write(lpa, data);
  }
  EXPECT_EQ(simulator.verify_stored(), std::size(changed));

  host::Command read;
  read.type = host::CmdType::kRead;
  read.lba = 3;
  const SsdSimStats stats = simulator.run({read});
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.data_mismatches, 1u);
}

// Any single-bit change of a 4 KiB payload changes its digest.
TEST(SsdSimulator, PayloadDigestSeesEverySingleBitFlip) {
  Rng rng(0xD16E57);
  BitVec payload(32768);
  for (std::size_t w = 0; w < payload.words().size(); ++w) {
    payload.set_word(w, rng.next());
  }
  const std::uint64_t digest = payload_digest(payload);
  std::size_t unseen = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload.flip(i);
    unseen += payload_digest(payload) == digest;
    payload.flip(i);
  }
  EXPECT_EQ(unseen, 0u);
  EXPECT_EQ(payload_digest(payload), digest);
}

TEST(SsdSimulator, MoreDiesAndDepthFinishSooner) {
  // Identical uniform write load; the 2-die SSD at QD 4 overlaps
  // programs that the 1-die QD-1 SSD must serialise.
  const auto run = [](std::uint32_t channels, std::size_t qd) {
    ftl::Ssd ssd(ssd_config(channels, 1));
    SsdSimConfig config;
    config.queue_depth = qd;
    SsdSimulator simulator(ssd, config);
    const MultiTenantWorkload workload({TenantSpec{1.0, 1.0, 0.0}});
    Rng rng(5);
    // Fixed request count (not capacity-scaled) for comparability.
    const auto commands = workload.generate(12, 40, rng);
    return simulator.run(commands);
  };
  const SsdSimStats serial = run(1, 1);
  const SsdSimStats overlapped = run(2, 4);
  EXPECT_LT(overlapped.elapsed.value(), serial.elapsed.value());
  EXPECT_LT(overlapped.write_latency.mean(), serial.write_latency.mean());
  // The single die is saturated under back-to-back arrivals.
  EXPECT_NEAR(serial.die_util_max(), 1.0, 1e-9);
}

host::Command command(host::CmdType type, ftl::Lpa lba,
                      std::uint16_t queue = 0) {
  host::Command cmd;
  cmd.type = type;
  cmd.lba = lba;
  cmd.queue = queue;
  return cmd;
}

// A command on a queue the host interface does not have fails at its
// arrival with the host interface's own message.
TEST(SsdSimulator, CommandOnAMissingQueueIsRejected) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimConfig config;
  config.host.queues = 3;
  SsdSimulator simulator(ssd, config);
  try {
    simulator.run({command(host::CmdType::kWrite, 0, 2),
                   command(host::CmdType::kWrite, 1, 5)});
    FAIL() << "queue 5 of 3 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "command targets queue 5 but only 3 queues exist");
  }
}

TEST(SsdSimulator, UnmappedReadsCompleteInstantly) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimulator simulator(ssd);
  const std::vector<host::Command> commands{
      command(host::CmdType::kRead, 0), command(host::CmdType::kRead, 1)};
  const SsdSimStats stats = simulator.run(commands);
  EXPECT_EQ(stats.unmapped_reads, 2u);
  EXPECT_EQ(stats.reads, 0u);
  EXPECT_DOUBLE_EQ(stats.elapsed.value(), 0.0);
}

// Regression (satellite): the utilisation summaries of an empty
// vector must read as NaN (JSON null), not a fabricated 0.0 — and
// must not touch the vector at all (the old mean() divided by zero
// size on some refactors of this code).
TEST(SsdSimStats, EmptyUtilisationSummariesAreNaN) {
  const SsdSimStats stats;
  ASSERT_TRUE(stats.die_utilisation.empty());
  EXPECT_TRUE(std::isnan(stats.die_util_min()));
  EXPECT_TRUE(std::isnan(stats.die_util_max()));
  EXPECT_TRUE(std::isnan(stats.die_util_mean()));
}

TEST(SsdSimulator, TrimUnmapsAndReadsComeBackUnmapped) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimulator simulator(ssd);
  const std::vector<host::Command> commands{
      command(host::CmdType::kWrite, 3),
      command(host::CmdType::kTrim, 3),
      command(host::CmdType::kTrim, 4),  // never written: no-op trim
      command(host::CmdType::kRead, 3),
  };
  const SsdSimStats stats = simulator.run(commands);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.trims, 2u);
  EXPECT_EQ(stats.trimmed_pages, 1u);
  // The trimmed LPA reads as deallocated (no flash access, no
  // mismatch against the erased oracle entry).
  EXPECT_EQ(stats.unmapped_reads, 1u);
  EXPECT_EQ(stats.reads, 0u);
  EXPECT_EQ(stats.data_mismatches, 0u);
  EXPECT_FALSE(ssd.ftl().mapped(3));
}

TEST(SsdSimulator, MultiPageExtentCompletesWithItsLastPage) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimConfig config;
  config.queue_depth = 4;
  SsdSimulator simulator(ssd, config);
  host::Command extent = command(host::CmdType::kWrite, 0);
  extent.length = 4;
  const SsdSimStats stats = simulator.run({extent});
  // Four page programs, one command: the single latency sample is the
  // whole extent's service time.
  EXPECT_EQ(stats.writes, 4u);
  ASSERT_EQ(stats.queue_stats.size(), 1u);
  EXPECT_EQ(stats.queue_stats[0].writes, 1u);
  EXPECT_EQ(stats.write_latency.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.write_latency.max(), stats.elapsed.value());
}

TEST(SsdSimulator, FlushIsAPerQueueBarrier) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimConfig config;
  config.queue_depth = 8;  // depth never binds; the barrier must
  SsdSimulator simulator(ssd, config);
  const std::vector<host::Command> commands{
      command(host::CmdType::kWrite, 0),
      command(host::CmdType::kWrite, 1),
      command(host::CmdType::kFlush, 0),
      command(host::CmdType::kWrite, 2),
  };
  const SsdSimStats stats = simulator.run(commands);
  EXPECT_EQ(stats.flushes, 1u);
  ASSERT_EQ(stats.queue_stats.size(), 1u);
  EXPECT_EQ(stats.queue_stats[0].flushes, 1u);

  // All four commands arrive at t=0. Without the barrier, write 2
  // would issue immediately (depth 8) and overlap the first two; the
  // flush holds it until both have completed, so its latency includes
  // the full drain. On one die writes serialise: the last write's
  // completion is the whole run.
  EXPECT_EQ(stats.writes, 3u);
  const double last_write = stats.write_latency.max();
  EXPECT_DOUBLE_EQ(last_write, stats.elapsed.value());
  // The flush completed exactly when the pre-flush writes drained,
  // i.e. strictly before the run's end (write 2 still had to run).
  EXPECT_GT(stats.elapsed.value(), 0.0);
}

TEST(SsdSimulator, QueuesKeepIndependentStatsThatSumToGlobal) {
  ftl::Ssd ssd(ssd_config(2, 1));
  SsdSimConfig config;
  config.queue_depth = 4;
  config.host.queues = 3;
  SsdSimulator simulator(ssd, config);
  std::vector<host::Command> commands;
  for (std::uint16_t q = 0; q < 3; ++q) {
    for (ftl::Lpa lpa = 0; lpa < 4; ++lpa) {
      commands.push_back(
          command(host::CmdType::kWrite, lpa * 3 + q, q));
    }
  }
  const SsdSimStats stats = simulator.run(commands);
  ASSERT_EQ(stats.queue_stats.size(), 3u);
  std::uint64_t per_queue_writes = 0;
  for (const host::QueueStats& queue : stats.queue_stats) {
    EXPECT_EQ(queue.writes, 4u);
    per_queue_writes += queue.writes;
  }
  EXPECT_EQ(per_queue_writes, stats.writes);
  EXPECT_EQ(stats.data_mismatches, 0u);
}

// Arrival order pin: 3 weighted queues with trims on a 2x2 SSD, at
// gaps from back-to-back (every arrival ties) to sparse, on both data
// planes, two runs on one simulator. Arrivals and completions on one
// timestamp must interleave exactly as they always have; the digests
// were captured from the build that scheduled every arrival on the
// event heap up front.
std::uint64_t weighted_stream_digest(bool data_plane, double gap_us) {
  ftl::SsdConfig config = ssd_config(2, 2);
  config.die.device.data_plane = data_plane;
  config.initial_pe_cycles = 1e4;
  config.ftl.pe_cycles_per_erase = 3e4;
  ftl::Ssd ssd(config);

  SsdSimConfig sim_config;
  sim_config.queue_depth = 4;
  sim_config.host.queues = 3;
  sim_config.host.arbitration = policy::Arbitration::kWeighted;
  sim_config.host.queue_weights = {4.0, 2.0, 1.0};
  SsdSimulator simulator(ssd, sim_config);
  simulator.prepopulate();

  TenantSpec tenant;
  tenant.trim_fraction = 0.1;
  tenant.mean_gap = Seconds{gap_us * 1e-6};
  const MultiTenantWorkload workload({tenant, tenant, tenant});
  Rng rng(0xA11);
  test::Fnv1a digest;
  for (int run = 0; run < 2; ++run) {
    digest.add(
        simulator.run(workload.generate(ssd.logical_pages(), 150, rng)));
  }
  return digest.value();
}

// Two runs on one simulator of a stream drawn from `seed` (see the
// pin below for its shape).
std::uint64_t random_stream_digest(std::uint64_t seed) {
  Rng rng(0x5EED0000 + seed);
  ftl::SsdConfig config = ssd_config(2, 2);
  // One stream in four is bit-true: the arrival logic does not depend
  // on the plane, and a bit-true stream costs far more.
  config.die.device.data_plane = rng.below(4) == 0;
  // The default one P/E per erase keeps the wear on one
  // characterisation key, so each stream characterises once.
  config.initial_pe_cycles = 1e4;
  ftl::Ssd ssd(config);

  SsdSimConfig sim_config;
  sim_config.queue_depth = 1 + rng.below(32);
  sim_config.host.queues = 1 + rng.below(9);
  sim_config.host.arbitration = rng.chance(0.5)
                                    ? policy::Arbitration::kWeighted
                                    : policy::Arbitration::kRoundRobin;
  for (std::size_t q = 0; q < sim_config.host.queues; ++q) {
    sim_config.host.queue_weights.push_back(
        static_cast<double>(1 + rng.below(8)));
  }
  SsdSimulator simulator(ssd, sim_config);
  simulator.prepopulate();

  const std::uint32_t pages = ssd.logical_pages();
  test::Fnv1a digest;
  for (int run = 0; run < 2; ++run) {
    std::vector<host::Command> commands(120);
    for (host::Command& c : commands) {
      const double kind = rng.uniform();
      c.type = kind < 0.05   ? host::CmdType::kFlush
               : kind < 0.15 ? host::CmdType::kTrim
               : kind < 0.55 ? host::CmdType::kRead
                             : host::CmdType::kWrite;
      c.length = c.type == host::CmdType::kFlush
                     ? 1
                     : 1 + static_cast<std::uint32_t>(rng.below(3));
      c.lba = static_cast<ftl::Lpa>(rng.below(pages - c.length + 1));
      c.queue = static_cast<std::uint16_t>(rng.below(sim_config.host.queues));
      c.tenant = c.queue;
      c.gap = rng.chance(0.5) ? Seconds{0.0} : Seconds{rng.uniform() * 300e-6};
    }
    digest.add(simulator.run(commands));
  }
  return digest.value();
}

TEST(SsdSimulator, ArrivalOrderIsPinnedAcrossGapsAndPlanes) {
  struct Case {
    bool data_plane;
    double gap_us;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {true, 0.0, 0xF0ED570EAF5485D7ull},
      {true, 5.0, 0x7E79E369A55289BAull},
      {true, 40.0, 0x54426B3F06C19F63ull},
      {true, 400.0, 0x5B0165ADAA09480Eull},
      {false, 0.0, 0xF1C5C9418D6D8DA0ull},
      {false, 5.0, 0x954D493B223642DDull},
      {false, 40.0, 0xE87E0A385FB7AD4Full},
      {false, 400.0, 0x379A87BDB8FBBFFBull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(weighted_stream_digest(c.data_plane, c.gap_us), c.digest)
        << (c.data_plane ? "bit-true" : "meta") << " gap " << c.gap_us
        << " us";
  }
  // Streams the workload generator cannot make, drawn from the seed:
  // 1-9 queues weighted 1-8 and named at random per command, QD 1-32,
  // either arbitration, either plane, 5 % flushes, 10 % trims, 1-3
  // page extents, and half the gaps 0 (bursts of arrival ties). The
  // digests were captured from the build whose host queues held every
  // arrived command.
  const std::uint64_t random_digests[] = {
      0xE1FF0AF6356D9F4Full, 0x7288BDFF0BCA9AB8ull, 0x31227A75805CB058ull,
      0x90CB063ED6BD5898ull, 0x9A2058A9D6A8CBA7ull, 0x16040FC4B6C25356ull,
      0xF554981F4A3FF6D5ull, 0x1FE08913283E432Bull, 0x224AB73D1C94745Full,
      0x30C071F88A9DE68Aull, 0xB914C3D3AB855AECull, 0x49503810536AFE10ull,
      0x6AD0AE4D9EC466DAull, 0xA7A8D74A06DF784Bull, 0xBAE9E0BE52B4B6C2ull,
      0xF26A7BBA36239F19ull, 0xCA697E5943CF0BFAull, 0x4AF668FE26110B3Eull,
      0x4AC22FAAC88432C5ull, 0x52DAF18D4FA1D2FDull,
  };
  for (std::uint64_t seed = 0; seed < std::size(random_digests); ++seed) {
    EXPECT_EQ(random_stream_digest(seed), random_digests[seed])
        << "random stream " << seed;
  }
}

// The tie rule itself: an arrival and a completion on one timestamp
// fire arrival first, so the issue step the completion triggers
// arbitrates over every command that has arrived by then. At QD 1, a
// trim (which completes at its issue instant) on queue 0 and two
// writes, on queues 0 and 1, all arrive at t = 0. Round-robin then
// issues queue 1's write before queue 0's.
TEST(SsdSimulator, ArrivalWinsATimestampTieWithACompletion) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimConfig config;
  config.queue_depth = 1;
  config.host.queues = 2;
  SsdSimulator simulator(ssd, config);
  simulator.prepopulate();
  const SsdSimStats stats = simulator.run({
      command(host::CmdType::kTrim, 0, 0),
      command(host::CmdType::kWrite, 1, 0),
      command(host::CmdType::kWrite, 2, 1),
  });
  ASSERT_EQ(stats.queue_stats.size(), 2u);
  ASSERT_EQ(stats.queue_stats[0].writes, 1u);
  ASSERT_EQ(stats.queue_stats[1].writes, 1u);
  EXPECT_LT(stats.queue_stats[1].write_latency.mean(),
            stats.queue_stats[0].write_latency.mean());
  EXPECT_DOUBLE_EQ(stats.queue_stats[0].write_latency.mean(),
                   stats.elapsed.value());
}

}  // namespace
}  // namespace xlf::sim
