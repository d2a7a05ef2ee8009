// Declarative experiment specs: strict parsing (unknown keys, unknown
// policies and malformed values fail with teaching messages, and
// mutated specs never fail any other way), and the spec's parity with
// the flags it spells: each input is one row that both parse through,
// so a spec and the matching flags render byte-identical reports (the
// shipped examples/specs/ftl_smoke.json is the CLI smoke grid,
// --ftl-sweep --ftl-requests 64).
#include "src/explore/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <typeinfo>

#include "src/explore/report.hpp"
#include "src/explore/sweep.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

#ifndef XLF_SPEC_DIR
#define XLF_SPEC_DIR "examples/specs"
#endif

namespace xlf::explore {
namespace {

std::string error_of(const std::string& text) {
  try {
    parse_experiment_text(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// What tools/xlf_explore builds from these experiment flags.
ExperimentSpec from_flags(const std::vector<std::string>& args) {
  ExperimentSpec spec = ExperimentSpec::defaults();
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const int arity = flag_arity(flag);
    EXPECT_GE(arity, 0) << flag;
    apply_flag(spec, flag, arity == 1 ? args.at(++i) : "");
  }
  check_ages(spec, InputNames::kFlags);
  check_ftl_shape(spec, InputNames::kFlags);
  return spec;
}

TEST(ExperimentSpec, MinimalFtlSweepUsesCliDefaults) {
  const ExperimentSpec spec = parse_experiment_text(R"({"mode": "ftl-sweep"})");
  EXPECT_EQ(spec.mode, ExperimentSpec::Mode::kFtlSweep);
  EXPECT_EQ(spec.ftl.base.die.device.array.geometry.blocks, 8u);
  EXPECT_EQ(spec.ftl.base.die.device.array.geometry.pages_per_block, 4u);
  EXPECT_DOUBLE_EQ(spec.ftl.base.initial_pe_cycles, 1e4);
  EXPECT_DOUBLE_EQ(spec.ftl.base.ftl.pe_cycles_per_erase, 3e4);
  EXPECT_EQ(spec.ftl.gc_policies,
            (std::vector<std::string>{"greedy", "cost-benefit"}));
  EXPECT_EQ(spec.ftl.wear_policies, std::vector<std::string>{"dynamic"});
  EXPECT_EQ(spec.ftl.tuning_policies,
            std::vector<std::string>{"model_based"});
  EXPECT_EQ(spec.ftl.refresh_policies, std::vector<std::string>{"none"});
}

TEST(ExperimentSpec, ModeIsRequiredAndValidated) {
  EXPECT_NE(error_of("{}").find("missing required key 'mode'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "warp"})").find("unknown mode 'warp'"),
            std::string::npos);
}

TEST(ExperimentSpec, UnknownKeysRejectedWithKnownList) {
  const std::string top =
      error_of(R"({"mode": "ftl-sweep", "sweeps": {}})");
  EXPECT_NE(top.find("unknown key 'sweeps'"), std::string::npos) << top;
  EXPECT_NE(top.find("sweep"), std::string::npos) << top;

  const std::string nested = error_of(
      R"({"mode": "ftl-sweep", "sweep": {"qeue_depths": [1]}})");
  EXPECT_NE(nested.find("unknown key 'qeue_depths'"), std::string::npos)
      << nested;
  EXPECT_NE(nested.find("queue_depths"), std::string::npos) << nested;
}

TEST(ExperimentSpec, MultiQueueKnobsParseAndValidate) {
  const ExperimentSpec spec = parse_experiment_text(R"({
    "mode": "ftl-sweep",
    "workload": {"trim_fraction": 0.2, "queue_weights": [8, 4, 2, 1]},
    "sweep": {"queues": [1, 4], "arbitrations": ["round-robin", "weighted"]}
  })");
  EXPECT_EQ(spec.ftl.queue_counts, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(spec.ftl.arbitration_policies,
            (std::vector<std::string>{"round-robin", "weighted"}));
  EXPECT_DOUBLE_EQ(spec.ftl.trim_fraction, 0.2);
  EXPECT_EQ(spec.ftl.queue_weights, (std::vector<double>{8, 4, 2, 1}));

  // Defaults: the pre-redesign single-stream shape.
  const ExperimentSpec defaults =
      parse_experiment_text(R"({"mode": "ftl-sweep"})");
  EXPECT_EQ(defaults.ftl.queue_counts, std::vector<std::size_t>{1});
  EXPECT_EQ(defaults.ftl.arbitration_policies,
            std::vector<std::string>{"round-robin"});
  EXPECT_DOUBLE_EQ(defaults.ftl.trim_fraction, 0.0);

  EXPECT_NE(error_of(R"({"mode": "ftl-sweep",
                         "sweep": {"queues": [0]}})")
                .find("'sweep.queues' must be an integer in [1, 65536], got 0"),
            std::string::npos);
  // Queue ids are 16-bit: 65,536 queues is the most a sweep can ask.
  EXPECT_EQ(parse_experiment_text(R"({"mode": "ftl-sweep",
                                      "sweep": {"queues": [65536]}})")
                .ftl.queue_counts,
            std::vector<std::size_t>{65536});
  EXPECT_EQ(error_of(R"({"mode": "ftl-sweep",
                         "sweep": {"queues": [4, 65537]}})"),
            "experiment spec: 'sweep.queues' must be an integer in [1, 65536], "
            "got 65537");
  EXPECT_NE(error_of(R"({"mode": "ftl-sweep",
                         "workload": {"trim_fraction": 1.5}})")
                .find("'workload.trim_fraction' must be a number in [0, 1), "
                      "got 1.5"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "ftl-sweep",
                         "workload": {"queue_weights": [0]}})")
                .find("'workload.queue_weights' must be a number > 0, got 0"),
            std::string::npos);
  const std::string what = error_of(R"({"mode": "ftl-sweep",
                                        "sweep": {"arbitrations": ["fifo"]}})");
  EXPECT_NE(what.find("unknown arbitration policy 'fifo'"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("round-robin"), std::string::npos) << what;
}

TEST(ExperimentSpec, WorkloadKnobsOutsideTheirRangesAreRejected) {
  const struct {
    const char* workload;
    const char* message;
  } cases[] = {
      {R"({"requests": 0})",
       "'workload.requests' must be an integer in [1, 2^53], got 0"},
      {R"({"read_fraction": 1.0})",
       "'workload.read_fraction' must be a number in [0, 1), got 1"},
      {R"({"read_fraction": -0.1})",
       "'workload.read_fraction' must be a number in [0, 1), got -0.1"},
      {R"({"hot_fraction": 0})",
       "'workload.hot_fraction' must be a number in (0, 1], got 0"},
      {R"({"hot_fraction": 1.5})",
       "'workload.hot_fraction' must be a number in (0, 1], got 1.5"},
      {R"({"hot_write_fraction": 1.5})",
       "'workload.hot_write_fraction' must be a number in [0, 1], got 1.5"},
      {R"({"hot_write_fraction": -1})",
       "'workload.hot_write_fraction' must be a number in [0, 1], got -1"},
  };
  for (const auto& c : cases) {
    const std::string what = error_of(
        std::string(R"({"mode": "ftl-sweep", "workload": )") + c.workload +
        "}");
    EXPECT_NE(what.find(c.message), std::string::npos)
        << c.workload << ": " << what;
  }
  EXPECT_NE(error_of(R"({"mode": "space", "monte_carlo": {"requests": 0}})")
                .find("'monte_carlo.requests' must be an integer in [1, 2^53], "
                      "got 0"),
            std::string::npos);
  // The edges each range admits still parse.
  const ExperimentSpec edges = parse_experiment_text(R"({
    "mode": "ftl-sweep",
    "workload": {"requests": 1, "read_fraction": 0, "hot_fraction": 1,
                 "hot_write_fraction": 1}
  })");
  EXPECT_EQ(edges.ftl.requests, 1u);
  EXPECT_DOUBLE_EQ(edges.ftl.hot_fraction, 1.0);
  EXPECT_DOUBLE_EQ(edges.ftl.hot_write_fraction, 1.0);
}

// Every policy axis checks its names at parse time, with the message
// listing every available name, sorted.
TEST(ExperimentSpec, UnknownPolicyNamesFailListingAvailable) {
  const struct {
    const char* key;
    const char* message;
  } cases[] = {
      {"gc_policies", "unknown gc policy 'fifo'; available: cost-benefit "
                      "greedy"},
      {"wear_policies", "unknown wear policy 'fifo'; available: dynamic none "
                        "static"},
      {"tuning_policies", "unknown tuning policy 'fifo'; available: feedback "
                          "model_based static"},
      {"refresh_policies", "unknown refresh policy 'fifo'; available: none "
                           "retention_aware"},
      {"arbitrations", "unknown arbitration policy 'fifo'; available: "
                       "round-robin weighted"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(error_of(std::string(R"({"mode": "ftl-sweep", "sweep": {")") +
                       c.key + R"(": ["fifo"]}})"),
              c.message)
        << c.key;
  }
}

TEST(ExperimentSpec, MalformedValuesRejected) {
  EXPECT_NE(error_of(R"({"mode": "ftl-sweep",
                         "sweep": {"topologies": ["2by1"]}})")
                .find("'sweep.topologies' must be CxD (channels x dies per "
                      "channel, each >= 1), got \"2by1\""),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "space",
                         "ages": {"lo": 10, "hi": 1, "points": 5}})")
                .find("invalid ages grid"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "space", "uber_target": 2})")
                .find("uber_target"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "space", "point": "fastest"})")
                .find("unknown operating point 'fastest'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "space",
                         "monte_carlo": {"workloads": ["disk-thrash"]}})")
                .find("unknown workload 'disk-thrash'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "ftl-sweep",
                         "workload": {"requests": 1.5}})")
                .find("'workload.requests' must be an integer in [1, 2^53], "
                      "got 1.5"),
            std::string::npos);
}

TEST(ExperimentSpec, ThirtyTwoBitKeysRejectValuesThatWouldWrap) {
  // Each dotted key, its range, and the JSON that holds the value. The
  // specs are in space mode, which reads the FTL keys without running
  // an FTL: the integer bound alone is under test here, while an FTL
  // sweep also rejects a shape its die cannot hold (next test).
  const struct {
    const char* key;
    const char* range;
    const char* json;  // printf-style, %s = the value
  } cases[] = {
      {"geometry.blocks", "[1, 4294967295]",
       R"({"mode": "space", "geometry": {"blocks": %s}})"},
      {"geometry.pages_per_block", "[1, 4294967295]",
       R"({"mode": "space", "geometry": {"pages_per_block": %s}})"},
      {"ftl.gc_free_blocks", "[0, 4294967295]",
       R"({"mode": "space", "ftl": {"gc_free_blocks": %s}})"},
      {"ftl.static_wl_spread", "[0, 4294967295]",
       R"({"mode": "space", "ftl": {"static_wl_spread": %s}})"},
      {"sweep.fail_blocks", "[0, 4294967295]",
       R"({"mode": "space", "sweep": {"fail_blocks": [0, %s]}})"},
  };
  const auto with = [](const char* json, const char* value) {
    std::string text = json;
    text.replace(text.find("%s"), 2, value);
    return text;
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.key);
    const ExperimentSpec spec =
        parse_experiment_text(with(c.json, "4294967295"));
    const ftl::FtlConfig& ftl = spec.ftl.base.ftl;
    const nand::Geometry& geometry = spec.ftl.base.die.device.array.geometry;
    const std::string key = c.key;
    const std::uint32_t parsed =
        key == "geometry.blocks"            ? geometry.blocks
        : key == "geometry.pages_per_block" ? geometry.pages_per_block
        : key == "ftl.gc_free_blocks"       ? ftl.gc_free_blocks
        : key == "ftl.static_wl_spread"     ? ftl.static_wl_spread
                                            : spec.ftl.fail_blocks[1];
    EXPECT_EQ(parsed, 4294967295u);
    EXPECT_EQ(error_of(with(c.json, "4294967296")),
              "experiment spec: '" + key + "' must be an integer in " +
                  c.range + ", got 4294967296");
  }
}

// An FTL sweep's shape must fit the FTL, checked in 64 bits in either
// spelling: a topology past the 32-bit page space (65536x65536 dies
// once wrapped to 0 dies, 65536x65537 to 65,536) and a GC floor that
// leaves a die no block for data (4294967295 + 2 once wrapped to 1).
// A direct FtlSweepSpec gets a named precondition too.
TEST(ExperimentSpec, FtlShapePastThePageSpaceOrTheDieIsRejected) {
  EXPECT_EQ(
      error_of(R"({"mode": "ftl-sweep", "sweep": {"topologies": ["1x1",
          "65536x65537"]}})"),
      "experiment spec: 'sweep.topologies' entry 65536x65537 makes "
      "4295032832 dies of 32 pages, past the FTL's 32-bit page space of "
      "4294967295 pages");
  EXPECT_EQ(error_of(R"({"mode": "ftl-sweep", "geometry": {"blocks": 2147483648,
      "pages_per_block": 2}, "sweep": {"topologies": ["1x1"]}})"),
            "experiment spec: 'sweep.topologies' entry 1x1 makes 1 dies of "
            "4294967296 pages, past the FTL's 32-bit page space of "
            "4294967295 pages");
  for (const char* free : {"4294967295", "7"}) {
    std::string text = R"({"mode": "ftl-sweep", "ftl": {"gc_free_blocks": )";
    text += free;
    text += "}}";
    EXPECT_EQ(error_of(text),
              std::string("experiment spec: 'ftl.gc_free_blocks' must be "
                          "below 'geometry.blocks' - 2 (a die holds the GC "
                          "free-block floor plus its two write frontiers), "
                          "got ") +
                  free + " with 'geometry.blocks' 8");
  }
  EXPECT_NO_THROW(parse_experiment_text(
      R"({"mode": "ftl-sweep", "ftl": {"gc_free_blocks": 5}})"));

  try {
    from_flags({"--ftl-sweep", "--ftl-topologies", "65536x65536"});
    ADD_FAILURE() << "65536x65536 must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "--ftl-topologies entry 65536x65536 makes 4294967296 dies of "
              "32 pages, past the FTL's 32-bit page space of 4294967295 "
              "pages");
  }
  try {
    from_flags({"--ftl-sweep", "--ftl-blocks", "3"});
    ADD_FAILURE() << "--ftl-blocks 3 must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "--ftl-blocks must be above gc_free_blocks + 2 = 3 (a die "
              "holds the GC free-block floor plus its two write "
              "frontiers), got 3");
  }

  FtlSweepSpec direct = ExperimentSpec::defaults().ftl;
  direct.requests = 8;
  direct.topologies = {{65536, 65536}};
  ThreadPool pool(1);
  try {
    ftl_sweep(direct, pool);
    ADD_FAILURE() << "a direct 65536x65536 sweep must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "topology 65536x65536 makes 4294967296 dies of 32 pages, "
                  "past the FTL's 32-bit page space"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExperimentSpec, AgesOutsideTheModelsDomainAreRejected) {
  const struct {
    const char* spec;
    const char* message;
  } cases[] = {
      {R"({"mode": "space", "ages": {"lo": 1, "hi": 1e8, "points": 3}})",
       "'ages.hi' must be below"},
      {R"({"mode": "space", "monte_carlo": {"replicas": 1, "requests": 2,
           "age": 1e8, "workloads": ["mixed"]}})",
       "'monte_carlo.age' must be below"},
      {R"({"mode": "space", "ages": {"lo": 1, "hi": 5e7, "points": 3},
           "monte_carlo": {"replicas": 1}})",
       "'monte_carlo.age' (unset, so 'ages.hi') must be below"},
      {R"({"mode": "ftl-sweep", "initial_pe_cycles": 5e7})",
       "'initial_pe_cycles' must be below"},
      {R"({"mode": "ftl-sweep", "data_plane": "meta",
           "initial_pe_cycles": 1e8})",
       "'initial_pe_cycles' must be below"},
  };
  for (const auto& c : cases) {
    const std::string what = error_of(c.spec);
    EXPECT_NE(what.find(c.message), std::string::npos) << c.spec << ": " << what;
    EXPECT_NE(what.find("P/E cycles"), std::string::npos) << what;
  }
  // Inside the limits the specs parse, and an age nothing evaluates
  // (Monte-Carlo off) is not checked.
  EXPECT_NO_THROW(parse_experiment_text(
      R"({"mode": "space", "ages": {"lo": 1, "hi": 9e7, "points": 3}})"));
  EXPECT_NO_THROW(parse_experiment_text(
      R"({"mode": "space", "monte_carlo": {"replicas": 1, "age": 3e7}})"));
  EXPECT_NO_THROW(parse_experiment_text(
      R"({"mode": "space", "monte_carlo": {"replicas": 0, "age": 1e8}})"));
  EXPECT_NO_THROW(
      parse_experiment_text(R"({"mode": "ftl-sweep", "initial_pe_cycles": 3e7})"));
  EXPECT_NO_THROW(parse_experiment_text(R"({"mode": "ftl-sweep",
      "data_plane": "meta", "initial_pe_cycles": 9e7})"));
}

// Spec keys take their flags' bounds and fail at the parse edge
// naming the key. Later checks come too late: ftl_sweep's viability
// bound converts logical_fraction to an integer, Ssd's precondition
// names no key, and a negative retention horizon or Monte-Carlo age
// would run silently.
TEST(ExperimentSpec, LogicalFractionOutsideZeroOneIsRejected) {
  for (const char* value : {"-0.5", "0", "1", "1.5", "1e+308"}) {
    EXPECT_EQ(error_of(std::string(R"({"mode": "ftl-sweep",
                                        "ftl": {"logical_fraction": )") +
                       value + "}}"),
              std::string("experiment spec: 'ftl.logical_fraction' must be a "
                          "number in (0, 1), got ") +
                  value)
        << value;
  }
  // API callers skip the parser: ftl_sweep checks the range before
  // its viability bound converts the logical share to an integer.
  FtlSweepSpec sweep = ExperimentSpec::defaults().ftl;
  sweep.base.ftl.logical_fraction = -0.5;
  ThreadPool pool(1);
  try {
    ftl_sweep(sweep, pool);
    ADD_FAILURE() << "a negative logical_fraction must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "logical_fraction must lie in (0, 1)");
  }
}

TEST(ExperimentSpec, NegativeInitialWearIsRejected) {
  EXPECT_EQ(error_of(R"({"mode": "ftl-sweep", "initial_pe_cycles": -1})"),
            "experiment spec: 'initial_pe_cycles' must be a number >= 0, got "
            "-1");
  EXPECT_NO_THROW(
      parse_experiment_text(R"({"mode": "ftl-sweep", "initial_pe_cycles": 0})"));
}

TEST(ExperimentSpec, NegativeScrubRetentionIsRejected) {
  EXPECT_EQ(error_of(R"({"mode": "ftl-sweep",
                         "ftl": {"scrub_retention_hours": -10}})"),
            "experiment spec: 'ftl.scrub_retention_hours' must be a number "
            ">= 0, got -10");
  EXPECT_NO_THROW(parse_experiment_text(
      R"({"mode": "ftl-sweep", "ftl": {"scrub_retention_hours": 0}})"));
}

TEST(ExperimentSpec, NegativeMonteCarloAgeIsRejected) {
  // A negative age is the spec's internal "unset" (last grid age), so
  // it must not be accepted as a value.
  EXPECT_EQ(error_of(R"({"mode": "space",
                         "monte_carlo": {"replicas": 1, "age": -7}})"),
            "experiment spec: 'monte_carlo.age' must be a number >= 0, got "
            "-7");
  EXPECT_NO_THROW(parse_experiment_text(
      R"({"mode": "space", "monte_carlo": {"replicas": 1, "age": 0}})"));
}

// The keys whose bounds used to be looser than their flags': zero
// blocks or pages reached an internal precondition, and an erase that
// ages a block by half a cycle parsed.
TEST(ExperimentSpec, KeysTakeTheTighterBoundOfTheirFlags) {
  EXPECT_EQ(error_of(R"({"mode": "ftl-sweep",
                         "geometry": {"pages_per_block": 0}})"),
            "experiment spec: 'geometry.pages_per_block' must be an integer "
            "in [1, 4294967295], got 0");
  EXPECT_EQ(error_of(R"({"mode": "ftl-sweep", "geometry": {"blocks": 0}})"),
            "experiment spec: 'geometry.blocks' must be an integer in [1, "
            "4294967295], got 0");
  EXPECT_EQ(error_of(R"({"mode": "ftl-sweep",
                         "ftl": {"pe_cycles_per_erase": 0.5}})"),
            "experiment spec: 'ftl.pe_cycles_per_erase' must be a number >= "
            "1, got 0.5");
}

TEST(ExperimentSpec, DataPlaneKeySelectsThePlane) {
  EXPECT_TRUE(parse_experiment_text(R"({"mode": "ftl-sweep"})").ftl.data_plane);
  EXPECT_FALSE(parse_experiment_text(
                   R"({"mode": "ftl-sweep", "data_plane": "meta"})")
                   .ftl.data_plane);
  EXPECT_TRUE(parse_experiment_text(
                  R"({"mode": "ftl-sweep", "data_plane": "bit-true"})")
                  .ftl.data_plane);
  EXPECT_EQ(error_of(R"({"mode": "ftl-sweep", "data_plane": "metadata"})"),
            "experiment spec: unknown data plane 'metadata'; available: "
            "bit-true meta");
}

// The metadata-only plane has no cell array, but its t schedule and
// UBER arithmetic still end where the aging law's RBER reaches 1, in
// either spelling. Wear a run adds after the start is not checked.
TEST(ExperimentSpec, MetaPlaneInitialWearPastTheAgingLawIsRejected) {
  ExperimentSpec spec = ExperimentSpec::defaults();
  spec.mode = ExperimentSpec::Mode::kFtlSweep;
  spec.ftl.data_plane = false;
  spec.ftl.base.initial_pe_cycles = 1e8;
  const double limit = spec.ftl.base.die.device.array.aging.max_cycles();
  for (const auto& [names, what] :
       {std::pair{InputNames::kFlags, "--ftl-initial-wear"},
        std::pair{InputNames::kSpecKeys, "experiment spec: 'initial_pe_cycles'"}}) {
    try {
      check_ages(spec, names);
      ADD_FAILURE() << what << " = 1e8 must throw";
    } catch (const std::invalid_argument& e) {
      std::ostringstream expected;
      expected << what << " must be below " << limit
               << " P/E cycles (the aging law's RBER reaches 1 there), got "
                  "1e+08";
      EXPECT_EQ(e.what(), expected.str());
    }
  }
  // Below the law's limit the meta plane runs past the array's.
  spec.ftl.base.initial_pe_cycles = 9e7;
  EXPECT_NO_THROW(check_ages(spec, InputNames::kSpecKeys));
}

// The shipped example spec is the CI smoke grid: the spec and the
// flags render byte-identical reports in both formats.
TEST(ExperimentSpec, FtlSmokeExampleReproducesCliSmokeGrid) {
  const ExperimentSpec json =
      load_experiment(std::string(XLF_SPEC_DIR) + "/ftl_smoke.json");
  const ExperimentSpec flags =
      from_flags({"--ftl-sweep", "--ftl-requests", "64"});

  ThreadPool pool(2);
  EXPECT_EQ(run_experiment(json, pool, "csv"),
            run_experiment(flags, pool, "csv"));
  EXPECT_EQ(run_experiment(json, pool, "json"),
            run_experiment(flags, pool, "json"));
}

// Parity: the two argv lists below set every experiment flag to a
// value other than its default, and the two specs set the same keys
// to the same values; each pair renders one report.
TEST(ExperimentSpec, EveryFlagAndItsKeyRenderTheSameReport) {
  const std::vector<std::string> ftl_flags = {
      "--ftl-sweep", "--seed", "0x11", "--uber-target", "1e-12",
      "--point", "max-read", "--ftl-data-plane", "meta",
      "--ftl-blocks", "24", "--ftl-pages", "8",
      "--ftl-initial-wear", "2e4", "--ftl-wear-per-erase", "2e4",
      "--ftl-logical-fraction", "0.5", "--ftl-requests", "300",
      "--ftl-read-fraction", "0.25", "--ftl-hot-fraction", "0.3",
      "--ftl-hot-writes", "0.8", "--ftl-trim-fraction", "0.1",
      "--ftl-queue-weights", "3,1", "--ftl-topologies", "1x1,2x1",
      "--ftl-qd", "2", "--ftl-queues", "2", "--ftl-arbitration", "weighted",
      "--ftl-gc", "greedy", "--ftl-wear", "static",
      "--ftl-tuning", "feedback", "--ftl-refresh", "retention_aware",
      "--ftl-fail-blocks", "0,1"};
  const char* ftl_spec = R"({
    "mode": "ftl-sweep", "seed": 17, "uber_target": 1e-12,
    "point": "max-read", "data_plane": "meta",
    "geometry": {"blocks": 24, "pages_per_block": 8},
    "initial_pe_cycles": 2e4,
    "ftl": {"pe_cycles_per_erase": 2e4, "logical_fraction": 0.5},
    "workload": {"requests": 300, "read_fraction": 0.25,
                 "hot_fraction": 0.3, "hot_write_fraction": 0.8,
                 "trim_fraction": 0.1, "queue_weights": [3, 1]},
    "sweep": {"topologies": ["1x1", "2x1"], "queue_depths": [2],
              "queues": [2], "arbitrations": ["weighted"],
              "gc_policies": ["greedy"], "wear_policies": ["static"],
              "tuning_policies": ["feedback"],
              "refresh_policies": ["retention_aware"],
              "fail_blocks": [0, 1]}
  })";
  const std::vector<std::string> space_flags = {
      "--ages", "1:1e4:3", "--pareto-only", "--uber-target", "1e-12",
      "--point", "min-uber", "--workloads", "mixed,write-burst",
      "--mc-replicas", "2", "--mc-requests", "4", "--mc-age", "5000",
      "--seed", "021"};
  const char* space_spec = R"({
    "mode": "space", "seed": 17, "uber_target": 1e-12, "point": "min-uber",
    "ages": {"lo": 1, "hi": 1e4, "points": 3}, "pareto_only": true,
    "monte_carlo": {"replicas": 2, "requests": 4, "age": 5000,
                    "workloads": ["mixed", "write-burst"]}
  })";

  std::istringstream usage(flag_usage());
  for (std::string line; std::getline(usage, line);) {
    if (!line.starts_with("  --")) continue;  // a help line's continuation
    const std::string flag = line.substr(2, line.find(' ', 2) - 2);
    EXPECT_TRUE(std::count(ftl_flags.begin(), ftl_flags.end(), flag) +
                    std::count(space_flags.begin(), space_flags.end(), flag) >
                0)
        << flag << " has no parity case";
  }

  ThreadPool pool(2);
  const std::string ftl = run_experiment(from_flags(ftl_flags), pool, "csv");
  EXPECT_EQ(ftl, run_experiment(parse_experiment_text(ftl_spec), pool, "csv"));
  EXPECT_EQ(std::count(ftl.begin(), ftl.end(), '\n'), 5);  // header + 4
  const std::string space =
      run_experiment(from_flags(space_flags), pool, "csv");
  EXPECT_EQ(space,
            run_experiment(parse_experiment_text(space_spec), pool, "csv"));
  EXPECT_NE(space.find("mixed"), std::string::npos);
}

TEST(ExperimentSpec, SpaceModeMatchesDirectSweep) {
  const ExperimentSpec spec = parse_experiment_text(
      R"({"mode": "space", "ages": {"lo": 1, "hi": 1e4, "points": 3}})");
  ThreadPool pool(2);
  const std::string report = run_experiment(spec, pool, "csv");

  core::SubsystemConfig subsystem = core::SubsystemConfig::defaults();
  SweepSpec sweep_spec;
  sweep_spec.framework = FrameworkSpec::from(subsystem);
  sweep_spec.ages = log_space(1.0, 1e4, 3);
  const SweepResult space = sweep_space(sweep_spec, pool);
  EXPECT_EQ(report, sweep_csv(space));
}

TEST(ExperimentSpec, PolicyAxesMultiplyTheGrid) {
  ExperimentSpec spec = parse_experiment_text(R"({
    "mode": "ftl-sweep",
    "workload": {"requests": 8},
    "sweep": {"topologies": ["1x1"], "queue_depths": [2],
              "gc_policies": ["greedy"],
              "wear_policies": ["none", "dynamic"],
              "tuning_policies": ["static", "model_based"]}
  })");
  ThreadPool pool(2);
  const FtlSweepResult result = [&] {
    FtlSweepSpec ftl = spec.ftl;
    ftl.seed = spec.seed;
    return ftl_sweep(ftl, pool);
  }();
  ASSERT_EQ(result.rows.size(), 4u);
  // wear outer, tuning inner.
  EXPECT_EQ(result.rows[0].wear_policy, "none");
  EXPECT_EQ(result.rows[0].tuning_policy, "static");
  EXPECT_EQ(result.rows[1].tuning_policy, "model_based");
  EXPECT_EQ(result.rows[2].wear_policy, "dynamic");
  for (const FtlSweepRow& row : result.rows) {
    EXPECT_EQ(row.gc_policy, "greedy");
    EXPECT_EQ(row.refresh_policy, "none");
    EXPECT_GT(row.stats.writes, 0u);
  }
}

TEST(ExperimentSpec, RunRejectsUnknownFormat) {
  const ExperimentSpec spec = parse_experiment_text(R"({"mode": "space"})");
  ThreadPool pool(1);
  EXPECT_THROW(run_experiment(spec, pool, "xml"), std::invalid_argument);
}

// Mutation fuzzing of the parser: the shipped specs, mutated from a
// fixed seed by deletions, byte flips, fragments spliced in from
// another spec and extreme tokens, must each parse or throw
// std::invalid_argument. Any other exception fails the test; the
// sanitizer build also catches undefined behaviour on the way.
TEST(ExperimentSpec, MutatedSpecsParseOrThrowInvalidArgument) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(XLF_SPEC_DIR)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // directory order is unspecified
  std::vector<std::string> corpus;
  corpus.reserve(paths.size());
  for (const auto& path : paths) {
    std::ifstream file(path);
    std::ostringstream contents;
    contents << file.rdbuf();
    corpus.push_back(contents.str());
  }
  ASSERT_GE(corpus.size(), 5u);

  const char* const kTokens[] = {"1e308", "-1", "18446744073709551616",
                                 "null",  "[]", "{}", "\"x\""};
  constexpr int kMutants = 20000;
  Rng rng(0x5bec5eed);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = corpus[rng.below(corpus.size())];
    const std::uint64_t edits = 1 + rng.below(4);
    for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.below(text.size());
      switch (rng.below(4)) {
        case 0:  // delete a short run
          text.erase(at, 1 + rng.below(8));
          break;
        case 1:  // flip one bit of one byte
          text[at] = static_cast<char>(static_cast<unsigned char>(text[at]) ^
                                       (1u << rng.below(8)));
          break;
        case 2: {  // splice in a fragment of another spec
          // One draw per statement: argument evaluation order is
          // unspecified, and the mutants must not depend on it.
          const std::string& donor = corpus[rng.below(corpus.size())];
          const std::size_t from = rng.below(donor.size());
          text.insert(at, donor, from, 1 + rng.below(32));
          break;
        }
        default: {  // overwrite a short run with an extreme token
          const std::size_t run = rng.below(8);
          text.replace(at, run, kTokens[rng.below(std::size(kTokens))]);
          break;
        }
      }
    }
    try {
      (void)parse_experiment_text(text);
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " threw " << typeid(e).name() << ": "
             << e.what() << "\n" << text;
    }
  }
  EXPECT_EQ(parsed + rejected, kMutants);
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ExperimentSpec, LoadRejectsMissingFile) {
  try {
    load_experiment("/nonexistent/spec.json");
    FAIL() << "missing file must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

}  // namespace
}  // namespace xlf::explore
