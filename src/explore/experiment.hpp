// Declarative experiment specs: one JSON document describes a whole
// exploration run — which engine (configuration-space sweep or FTL
// policy sweep), the device/FTL configuration under test, the sweep
// axes (any combination of the built-in policy names, see
// src/policy/policy.hpp), and the optional Monte-Carlo validation — and
// tools/xlf_explore --spec executes it. The same file reproduces the
// same bytes on any machine at any thread count (the engines'
// determinism contract), so sweeps are citable results.
//
// Every input is one row of the table in experiment.cpp: its dotted
// spec key, its xlf_explore flag (if any), its bounds and the field it
// sets. parse_experiment and apply_flag both read through the rows, so
// a key and its flag accept the same values and fail the same way,
// throwing std::invalid_argument as "<name> must be <a number|an
// integer> <range>, got <value>" or "unknown <kind> '<name>';
// available: <names>". <name> is the flag or the quoted dotted key
// ('ftl.logical_fraction'); spec errors start "experiment spec: ", and
// an unknown key lists the known ones.
//
// Spec shape (all keys optional unless noted; defaults are the
// flags'; the bounds live in the rows):
//
//   {
//     "mode": "ftl-sweep" | "space",        // required
//     "seed": 123,
//     "uber_target": 1e-11,                 // the die's reliability target
//     "point": "baseline" | "min-uber" | "max-read",
//     // --- mode: "space" ---------------------------------------
//     "ages": {"lo": 1, "hi": 1e6, "points": 13},
//     "pareto_only": false,
//     "monte_carlo": {                       // omit to skip MC
//       "replicas": 4, "requests": 32, "age": 1e6,  // omit age: ages.hi
//       "workloads": ["sequential-read", "mixed"]
//     },
//     // --- mode: "ftl-sweep" -----------------------------------
//     "data_plane": "bit-true" | "meta",
//     "geometry": {"blocks": 8, "pages_per_block": 4},
//     "initial_pe_cycles": 1e4,
//     "ftl": {"pe_cycles_per_erase": 3e4, "logical_fraction": 0.6,
//             "gc_free_blocks": 1, "static_wl_spread": 8,
//             "scrub_retention_hours": 1000},
//     "workload": {"requests": 200, "read_fraction": 0.3,
//                  "hot_fraction": 0.25, "hot_write_fraction": 0.85,
//                  "trim_fraction": 0.0, "queue_weights": [8, 1],
//                  "prepopulate": true},
//     "sweep": {"topologies": ["1x1", "2x1"], "queue_depths": [1, 4],
//               "queues": [1, 4],
//               "arbitrations": ["round-robin", "weighted"],
//               "gc_policies": ["greedy", "cost-benefit"],
//               "wear_policies": ["dynamic"],
//               "tuning_policies": ["model_based"],
//               "refresh_policies": ["none"],
//               "fail_blocks": [0, 2]}
//   }
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/explore/ftl_sweep.hpp"
#include "src/util/json.hpp"
#include "src/util/thread_pool.hpp"

namespace xlf::explore {

struct ExperimentSpec {
  enum class Mode { kSpace, kFtlSweep };

  // The starting point both spellings refine: simulation-affordable
  // FTL geometry (8 blocks x 4 pages per die), mid-life
  // pre-conditioning and compressed aging.
  static ExperimentSpec defaults();

  Mode mode = Mode::kSpace;
  std::uint64_t seed = 0x5EEDCA5E;
  double uber_target = 1e-11;
  std::string point = "baseline";

  // --- space mode -----------------------------------------------------
  double age_lo = 1.0;
  double age_hi = 1e6;
  std::size_t age_points = 13;
  bool pareto_only = false;
  // Monte-Carlo validation (replicas == 0 skips it).
  std::size_t mc_replicas = 0;
  std::size_t mc_requests = 32;
  double mc_age = -1.0;  // < 0 = last grid age
  std::vector<std::string> mc_workloads{"sequential-read", "random-read",
                                        "write-burst", "mixed", "streaming"};

  // --- ftl-sweep mode -------------------------------------------------
  FtlSweepSpec ftl;
};

// Whether an input error names the CLI's flags or the spec's keys.
enum class InputNames { kFlags, kSpecKeys };

// Throws std::invalid_argument, naming the flag or key, for an ages
// grid without lo > 0, hi > lo and points >= 2 (the one place both
// spellings check it), or for an age the run would evaluate outside
// the models' domain: the space grid's top or the metadata-only
// initial wear past nand::AgingLaw::max_cycles (RBER 1), or the
// Monte-Carlo age or bit-true initial wear past
// nand::RberModel::max_cycles (the cell array's limit). Wear a run
// adds after its start is not checked. parse_experiment runs it;
// tools/xlf_explore runs it on the spec its flags build.
void check_ages(const ExperimentSpec& spec, InputNames names);
// Throws std::invalid_argument, naming the flag or key, for an FTL
// sweep the FTL cannot hold, counted in 64 bits: a topology past the
// 32-bit page space (ftl::Lpa), or a die of at most
// ftl.gc_free_blocks + 2 blocks. It runs wherever check_ages runs.
void check_ftl_shape(const ExperimentSpec& spec, InputNames names);

// The command-line spelling of the rows. flag_arity is 0 for a switch
// (--ftl-sweep, --pareto-only), 1 for a flag that takes a value, and
// -1 for a flag no row names. apply_flag reads `text` (ignored for a
// switch) into the row's field and throws std::invalid_argument
// naming the flag. flag_usage is one usage line per flag, in table
// order, each with the spec key it sets.
int flag_arity(std::string_view flag);
void apply_flag(ExperimentSpec& spec, std::string_view flag,
                std::string_view text);
std::string flag_usage();

// Builds a spec from parsed JSON / raw text / a file on disk.
// Validation is strict (see file comment).
ExperimentSpec parse_experiment(const JsonValue& root);
ExperimentSpec parse_experiment_text(const std::string& text);
ExperimentSpec load_experiment(const std::string& path);

// Executes the spec and renders the report — the same bytes the CLI's
// flag-driven paths produce for equivalent parameters. `format` must
// be "csv" or "json".
std::string run_experiment(const ExperimentSpec& spec, ThreadPool& pool,
                           const std::string& format);

}  // namespace xlf::explore
