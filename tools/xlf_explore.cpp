// xlf_explore — parallel trade-off exploration CLI.
//
// Two spellings of one experiment: flags for quick interactive runs,
// or --spec file.json (the JSON shape is in src/explore/experiment.hpp
// and examples/specs/). Each experiment flag is a row of the input
// table in src/explore/experiment.cpp beside its spec key, so a spec
// that mirrors a flag set produces byte-identical output; this file
// keeps only the CLI's own settings.
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
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/explore/experiment.hpp"
#include "src/nand/ispp_certified.hpp"
#include "src/policy/policy.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace xlf;

struct Options {
  explore::ExperimentSpec experiment = explore::ExperimentSpec::defaults();
  std::string spec_path;        // --spec; exclusive with experiment flags
  bool shaped_by_flags = false; // any experiment flag seen
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
      "                        (exclusive with the experiment flags below;\n"
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
      "experiment flags, each beside the spec key it sets (defaults in\n"
      "parentheses; the spec shape is in src/explore/experiment.hpp):\n"
   << explore::flag_usage();
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

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "xlf_explore: missing value for " << arg << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--list-policies") {
      list_policies();
      std::exit(0);
    } else if (arg == "--version" || arg == "--build-info") {
      // Not an immediate exit: a later --spec on the line must still
      // be rejected (same exclusivity teaching as experiment flags).
      opt.show_version = true;
    } else if (arg == "--spec") {
      if ((v = value()) == nullptr) return false;
      opt.spec_path = v;
    } else if (arg == "--threads") {
      if ((v = value()) == nullptr) return false;
      const std::string_view text = v;
      const char* end = text.data() + text.size();
      const std::from_chars_result parsed =
          std::from_chars(text.data(), end, opt.threads);
      if (parsed.ec != std::errc() || parsed.ptr != end ||
          opt.threads > 4096) {
        std::cerr << "xlf_explore: --threads must be an integer in [0, 4096], "
                     "got '"
                  << text << "'\n";
        return false;
      }
    } else if (arg == "--format") {
      if ((v = value()) == nullptr) return false;
      opt.format = v;
      if (opt.format != "csv" && opt.format != "json") {
        std::cerr << "xlf_explore: --format must be csv or json\n";
        return false;
      }
    } else if (arg == "--out") {
      if ((v = value()) == nullptr) return false;
      opt.out_path = v;
    } else {
      const int arity = explore::flag_arity(arg);
      if (arity < 0) {
        std::cerr << "xlf_explore: unknown flag '" << arg
                  << "' (try --help)\n";
        return false;
      }
      if (arity == 1 && (v = value()) == nullptr) return false;
      opt.shaped_by_flags = true;
      try {
        explore::apply_flag(opt.experiment, arg, arity == 1 ? v : "");
      } catch (const std::invalid_argument& e) {
        std::cerr << "xlf_explore: " << e.what() << "\n";
        return false;
      }
    }
  }
  if (!opt.spec_path.empty() && opt.shaped_by_flags) {
    std::cerr << "xlf_explore: --spec is exclusive with the experiment "
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
      explore::check_ftl_shape(opt.experiment, explore::InputNames::kFlags);
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
