// xlf_explore — parallel trade-off exploration CLI.
//
// Two ways to describe an experiment:
//  * flags (below) for quick interactive runs;
//  * --spec file.json, a declarative experiment spec (the JSON shape
//    is documented in src/explore/experiment.hpp and examples/specs/).
// Either can sweep any combination of the built-in policies — GC x
// wear x tuning x refresh x arbitration — by name.
// Both paths build the same explore::ExperimentSpec and run through
// explore::run_experiment, so a spec that mirrors a flag set produces
// byte-identical output.
//
// Engines: the (program algorithm x ECC capability) configuration
// space over a log-spaced lifetime grid with per-age Pareto fronts
// and optional Monte-Carlo validation, or the multi-die FTL sweep
// (topology x queue depth x policy combination). Emits CSV (default)
// or JSON on stdout or --out.
//
// Determinism contract: for a fixed spec and --seed, the output is
// byte-identical for every --threads value (parallel tasks write
// preallocated slots; reduction is serial) — so exploration results
// are reproducible artifacts, not run-dependent samples.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/explore/experiment.hpp"
#include "src/host/command.hpp"
#include "src/nand/ispp_certified.hpp"
#include "src/policy/policy.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace xlf;

struct Options {
  explore::ExperimentSpec experiment = explore::ExperimentSpec::defaults();
  std::string spec_path;        // --spec; exclusive with shaping flags
  bool shaped_by_flags = false; // any experiment-shaping flag seen
  bool show_version = false;    // --version/--build-info; excl. --spec
  unsigned threads = 0;         // 0 = hardware concurrency
  std::string format;           // empty = csv
  std::string out_path;         // empty = stdout
};

// Build provenance (--version/--build-info): with sweeps feeding CSV
// artifacts into papers, the binary must be able to say exactly what
// produced the bytes — compiler, build type, sanitizer runtimes, and
// the ISPP kernel this host selects (the bytes are the same either
// way; the time is not). The macros are injected per-configure from
// tools/CMakeLists.txt.
void print_build_info() {
  std::cout << "xlf_explore " << XLF_VERSION << "\n"
            << "compiler: " << XLF_COMPILER << "\n"
            << "build type: " << XLF_BUILD_TYPE << "\n"
            << "sanitizers: " << XLF_SANITIZERS << "\n"
            << "ispp kernel: " << nand::to_string(nand::host_ispp_kernel())
            << "\n";
}

void usage() {
  std::cerr <<
      "usage: xlf_explore [options]\n"
      "  --spec FILE           run a declarative JSON experiment spec\n"
      "                        (exclusive with the sweep-shaping flags below;\n"
      "                        --threads/--format/--out still apply)\n"
      "  --list-policies       print the policy names per kind (tuning, gc,\n"
      "                        wear, refresh, arbitration) and exit\n"
      "  --version             print version + build provenance (compiler,\n"
      "  --build-info          build type, sanitizer flags, the ISPP kernel\n"
      "                        this host selects) and exit; exclusive with\n"
      "                        --spec\n"
      "  --threads N           total threads, 1 = serial (default: hardware)\n"
      "  --format csv|json     output format (default csv)\n"
      "  --out PATH            write to PATH instead of stdout\n"
      "  --ages LO:HI:POINTS   log-spaced P/E grid (default 1:1e6:13)\n"
      "  --pareto-only         emit only Pareto-front rows of the space\n"
      "  --uber-target X       UBER target for the ECC schedule (1e-11)\n"
      "  --point NAME          baseline|min-uber|max-read (baseline)\n"
      "  --workloads LIST      comma list of sequential-read,random-read,\n"
      "                        write-burst,mixed,streaming\n"
      "  --mc-replicas R       Monte-Carlo replicas per workload (0 = off)\n"
      "  --mc-requests N       requests per replica (32)\n"
      "  --mc-age CYCLES       age for the validation (default: last grid age)\n"
      "  --seed S              root seed for all replica streams\n"
      "FTL sweep mode (multi-die SSD: L2P + GC + wear leveling + refresh):\n"
      "  --ftl-sweep           sweep FTL policy x queue depth x topology\n"
      "                        instead of the configuration space\n"
      "  --ftl-topologies L    comma list of CxD (channels x dies/channel,\n"
      "                        default 1x1,2x1)\n"
      "  --ftl-qd LIST         queue depths (default 1,4)\n"
      "  --ftl-queues LIST     submission-queue counts, each in [1, 65536]\n"
      "                        (default 1)\n"
      "  --ftl-arbitration LIST  arbitration policies by name\n"
      "                        (default round-robin)\n"
      "  --ftl-queue-weights LIST  per-queue arbitration weights, queue 0\n"
      "                        first (shorter lists pad with 1; default equal)\n"
      "  --ftl-gc LIST         GC policies by name (default greedy,cost-benefit)\n"
      "  --ftl-wear LIST       wear policies by name (default dynamic)\n"
      "  --ftl-tuning LIST     tuning policies by name (default model_based)\n"
      "  --ftl-refresh LIST    refresh policies by name (default none)\n"
      "  --ftl-fail-blocks LIST  grown-bad blocks injected per die (the\n"
      "                        lowest block ids fail on first erase;\n"
      "                        default 0 — needs spare blocks beyond the\n"
      "                        logical share + GC slack)\n"
      "  --ftl-requests N      host requests per combo (200)\n"
      "  --ftl-blocks B        blocks per die (8)\n"
      "  --ftl-pages P         pages per block (4)\n"
      "  --ftl-initial-wear C  uniform starting P/E cycles (1e4)\n"
      "  --ftl-wear-per-erase C  lifetime compression per erase (3e4)\n"
      "  --ftl-logical-fraction F  logical share of physical pages (0.6)\n"
      "  --ftl-read-fraction F hot-cold workload read share (0.3)\n"
      "  --ftl-hot-fraction F  hot slice of the LPA space (0.25)\n"
      "  --ftl-hot-writes F    write share hitting the hot slice (0.85)\n"
      "  --ftl-trim-fraction F share of non-read requests that trim a\n"
      "                        written LPA (0)\n"
      "  --ftl-data-plane M    bit-true | meta: cell arrays or metadata-only\n"
      "                        devices (timing/energy models, no payload\n"
      "                        bits; default bit-true)\n"
      "  --ftl-perf            report wall-clock commands/s per combo\n"
      "                        beside the deterministic rows (JSON only)\n";
}

// The discovery companion of policy::parse's unknown-name errors: the
// same sorted name tables, one line per policy kind.
template <class P>
void list_policy_kind() {
  std::cout << policy::Names<P>::kind << ":";
  for (const std::string_view name : policy::Names<P>::table) {
    std::cout << " " << name;
  }
  std::cout << "\n";
}

void list_policies() {
  list_policy_kind<policy::Tuning>();
  list_policy_kind<policy::Gc>();
  list_policy_kind<policy::Wear>();
  list_policy_kind<policy::Refresh>();
  list_policy_kind<policy::Arbitration>();
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// Every numeric flag value goes through here. The whole token must
// parse as a T (std::from_chars: no sign on unsigned types, no
// trailing characters, finite) and satisfy `valid`; otherwise the
// error names the flag and what it accepts, e.g. "--ftl-pages must be
// an integer >= 1, got '0'". Base 0 reads C literal prefixes as
// strtoull does: 0x hex, a leading 0 octal, else decimal.
template <typename T, typename Valid>
bool parse_number(const std::string& flag, std::string_view text,
                  const char* accepts, Valid valid, T& out, int base = 10) {
  std::string_view digits = text;
  T value{};
  std::from_chars_result parsed{};
  if constexpr (std::is_integral_v<T>) {
    if (base == 0) {
      base = 10;
      if (digits.size() > 2 &&
          (digits.starts_with("0x") || digits.starts_with("0X"))) {
        digits.remove_prefix(2);
        base = 16;
      } else if (digits.size() > 1 && digits[0] == '0') {
        digits.remove_prefix(1);
        base = 8;
      }
    }
    parsed = std::from_chars(digits.data(), digits.data() + digits.size(),
                             value, base);
  } else {
    parsed = std::from_chars(digits.data(), digits.data() + digits.size(),
                             value);
  }
  bool ok = parsed.ec == std::errc() &&
            parsed.ptr == digits.data() + digits.size() && !digits.empty();
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok || !valid(value)) {
    std::cerr << "xlf_explore: " << flag << " must be "
              << (std::is_integral_v<T> ? "an integer" : "a number")
              << (*accepts != '\0' ? " " : "") << accepts << ", got '"
              << text << "'\n";
    return false;
  }
  out = value;
  return true;
}

// A comma list of numbers, each checked as by parse_number.
template <typename T, typename Valid>
bool parse_list(const std::string& flag, const std::string& list,
                const char* accepts, Valid valid, std::vector<T>& out) {
  out.clear();
  for (const std::string& part : split(list, ',')) {
    T value{};
    if (!parse_number(flag, part, accepts, valid, value)) return false;
    out.push_back(value);
  }
  return true;
}

constexpr auto kAny = [](auto) { return true; };
constexpr auto kPositive = [](auto x) { return x > 0; };

bool parse_topologies(const std::string& list, Options& opt) {
  opt.experiment.ftl.topologies.clear();
  for (const std::string& part : split(list, ',')) {
    const std::optional<controller::DispatchConfig> topology =
        explore::parse_topology(part);
    if (!topology.has_value()) {
      std::cerr << "xlf_explore: --ftl-topologies expects CxD entries, got "
                << part << "\n";
      return false;
    }
    opt.experiment.ftl.topologies.push_back(*topology);
  }
  return true;
}

bool parse_args(int argc, char** argv, Options& opt) {
  explore::ExperimentSpec& exp = opt.experiment;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "xlf_explore: missing value for " << argv[i] << "\n";
      return nullptr;
    }
    return argv[++i];
  };
  // Experiment-shaping flags mark the options object so a conflicting
  // --spec can be rejected; output/threading flags stay independent.
  auto shape = [&] { opt.shaped_by_flags = true; };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--list-policies") {
      list_policies();
      std::exit(0);
    } else if (arg == "--version" || arg == "--build-info") {
      // Not an immediate exit: a later --spec on the line must still
      // be rejected (same exclusivity teaching as shaping flags).
      opt.show_version = true;
    } else if (arg == "--spec") {
      if ((v = value(i)) == nullptr) return false;
      opt.spec_path = v;
    } else if (arg == "--pareto-only") {
      shape();
      exp.pareto_only = true;
    } else if (arg == "--ages") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      const auto parts = split(v, ':');
      if (parts.size() != 3) {
        std::cerr << "xlf_explore: --ages expects LO:HI:POINTS\n";
        return false;
      }
      const char* grid = "in LO:HI:POINTS";
      if (!parse_number(arg, parts[0], grid, kAny, exp.age_lo) ||
          !parse_number(arg, parts[1], grid, kAny, exp.age_hi) ||
          !parse_number(arg, parts[2], grid, kAny, exp.age_points)) {
        return false;
      }
      if (exp.age_points < 2 || exp.age_lo <= 0.0 ||
          exp.age_hi <= exp.age_lo) {
        std::cerr << "xlf_explore: invalid --ages grid\n";
        return false;
      }
    } else if (arg == "--threads") {
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, "in [0, 4096]",
                        [](unsigned n) { return n <= 4096; }, opt.threads)) {
        return false;
      }
    } else if (arg == "--format") {
      if ((v = value(i)) == nullptr) return false;
      opt.format = v;
      if (opt.format != "csv" && opt.format != "json") {
        std::cerr << "xlf_explore: --format must be csv or json\n";
        return false;
      }
    } else if (arg == "--out") {
      if ((v = value(i)) == nullptr) return false;
      opt.out_path = v;
    } else if (arg == "--uber-target") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, "in (0, 1)",
                        [](double x) { return x > 0.0 && x < 1.0; },
                        exp.uber_target)) {
        return false;
      }
    } else if (arg == "--point") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      exp.point = v;
    } else if (arg == "--workloads") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      exp.mc_workloads = split(v, ',');
    } else if (arg == "--mc-replicas") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, ">= 0", kAny, exp.mc_replicas)) return false;
    } else if (arg == "--mc-requests") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, ">= 1", kPositive, exp.mc_requests)) {
        return false;
      }
    } else if (arg == "--mc-age") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, ">= 0", [](double x) { return x >= 0.0; },
                        exp.mc_age)) {
        return false;
      }
    } else if (arg == "--seed") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, "(decimal, 0x hex or 0 octal)", kAny,
                        exp.seed, 0)) {
        return false;
      }
    } else if (arg == "--ftl-sweep") {
      shape();
      exp.mode = explore::ExperimentSpec::Mode::kFtlSweep;
    } else if (arg == "--ftl-topologies") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_topologies(v, opt)) return false;
    } else if (arg == "--ftl-qd") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_list(arg, v, ">= 1", kPositive, exp.ftl.queue_depths)) {
        return false;
      }
    } else if (arg == "--ftl-queues") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_list(arg, v, "in [1, 65536]",
                      [](std::size_t n) {
                        return n >= 1 && n <= host::kMaxQueues;
                      },
                      exp.ftl.queue_counts)) {
        return false;
      }
    } else if (arg == "--ftl-arbitration") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      exp.ftl.arbitration_policies = split(v, ',');
    } else if (arg == "--ftl-queue-weights") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_list(arg, v, "> 0", kPositive, exp.ftl.queue_weights)) {
        return false;
      }
    } else if (arg == "--ftl-trim-fraction") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, "in [0, 1)",
                        [](double x) { return x >= 0.0 && x < 1.0; },
                        exp.ftl.trim_fraction)) {
        return false;
      }
    } else if (arg == "--ftl-gc") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      exp.ftl.gc_policies = split(v, ',');
    } else if (arg == "--ftl-wear") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      exp.ftl.wear_policies = split(v, ',');
    } else if (arg == "--ftl-tuning") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      exp.ftl.tuning_policies = split(v, ',');
    } else if (arg == "--ftl-refresh") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      exp.ftl.refresh_policies = split(v, ',');
    } else if (arg == "--ftl-fail-blocks") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_list(arg, v, ">= 0", kAny, exp.ftl.fail_blocks)) {
        return false;
      }
    } else if (arg == "--ftl-requests") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, ">= 1", kPositive, exp.ftl.requests)) {
        return false;
      }
    } else if (arg == "--ftl-blocks") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, ">= 1", kPositive,
                        exp.ftl.base.die.device.array.geometry.blocks)) {
        return false;
      }
    } else if (arg == "--ftl-pages") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(
              arg, v, ">= 1", kPositive,
              exp.ftl.base.die.device.array.geometry.pages_per_block)) {
        return false;
      }
    } else if (arg == "--ftl-initial-wear") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, ">= 0", [](double x) { return x >= 0.0; },
                        exp.ftl.base.initial_pe_cycles)) {
        return false;
      }
    } else if (arg == "--ftl-wear-per-erase") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, ">= 1", [](double x) { return x >= 1.0; },
                        exp.ftl.base.ftl.pe_cycles_per_erase)) {
        return false;
      }
    } else if (arg == "--ftl-logical-fraction") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, "in (0, 1)",
                        [](double x) { return x > 0.0 && x < 1.0; },
                        exp.ftl.base.ftl.logical_fraction)) {
        return false;
      }
    } else if (arg == "--ftl-read-fraction") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, "in [0, 1)",
                        [](double x) { return x >= 0.0 && x < 1.0; },
                        exp.ftl.read_fraction)) {
        return false;
      }
    } else if (arg == "--ftl-hot-fraction") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, "in (0, 1]",
                        [](double x) { return x > 0.0 && x <= 1.0; },
                        exp.ftl.hot_fraction)) {
        return false;
      }
    } else if (arg == "--ftl-hot-writes") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(arg, v, "in [0, 1]",
                        [](double x) { return x >= 0.0 && x <= 1.0; },
                        exp.ftl.hot_write_fraction)) {
        return false;
      }
    } else if (arg == "--ftl-data-plane") {
      shape();
      if ((v = value(i)) == nullptr) return false;
      const std::string mode = v;
      if (mode == "bit-true") {
        exp.ftl.data_plane = true;
      } else if (mode == "meta") {
        exp.ftl.data_plane = false;
      } else {
        std::cerr << "xlf_explore: --ftl-data-plane expects bit-true or "
                     "meta, got "
                  << mode << "\n";
        return false;
      }
    } else if (arg == "--ftl-perf") {
      shape();
      exp.ftl.measure_throughput = true;
    } else {
      std::cerr << "xlf_explore: unknown flag '" << arg
                << "' (try --help)\n";
      return false;
    }
  }
  if (!opt.spec_path.empty() && opt.shaped_by_flags) {
    std::cerr << "xlf_explore: --spec is exclusive with the sweep-shaping "
                 "flags; put the experiment in the spec file "
                 "(--threads/--format/--out still apply)\n";
    return false;
  }
  if (opt.show_version && !opt.spec_path.empty()) {
    std::cerr << "xlf_explore: --version/--build-info is exclusive with "
                 "--spec; query provenance and run the experiment as two "
                 "invocations\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  if (opt.show_version) {
    print_build_info();
    return 0;
  }

  try {
    if (!opt.spec_path.empty()) {
      opt.experiment = explore::load_experiment(opt.spec_path);
    } else {
      explore::check_ages(opt.experiment, explore::InputNames::kFlags);
    }
    const std::string format = opt.format.empty() ? "csv" : opt.format;

    ThreadPool pool(opt.threads);
    const std::string report =
        explore::run_experiment(opt.experiment, pool, format);

    if (opt.out_path.empty()) {
      std::cout << report;
    } else {
      std::ofstream file(opt.out_path);
      if (!file) {
        std::cerr << "xlf_explore: cannot open " << opt.out_path << "\n";
        return 1;
      }
      file << report;
    }
  } catch (const std::exception& e) {
    std::cerr << "xlf_explore: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
