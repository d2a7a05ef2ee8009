// xlf_bench / xlf_bench_traced: run one benchmark workload once through
// the public explore entry point and print one JSON line with its phase
// times, an output digest and the correctness checks. benchmark/run.py
// starts one process per repetition, so peak RSS is per repetition.
//
//   xlf_bench --workload NAME --seed N [--trace-stem PATH]
//   xlf_bench --print-digests      (golden.json for the default seed)
//
// Phases: setup is everything inside the entry-point call before the
// split point, run is the split-point call, audit is everything after
// it. The split point is SsdSimulator::run for the FTL workloads and
// ThreadPool::parallel_for for paper_space. Both are interposed here
// with -Wl,--wrap (see CMakeLists.txt), so src/ stays unchanged. The
// traced build additionally records per-layer spans (tracer.hpp) and
// writes its Chrome trace to PATH.trace.json when --trace-stem is set.
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/subsystem.hpp"
#include "src/explore/experiment.hpp"
#include "src/explore/ftl_sweep.hpp"
#include "src/explore/sweep.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/thread_pool.hpp"
#include "tracer.hpp"

#define XLF_BENCH_STR2(x) #x
#define XLF_BENCH_STR(x) XLF_BENCH_STR2(x)

namespace xlf_bench {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::size_t kSpaceAges = 241;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- phase split -------------------------------------------------------

enum class Split { kSimRun, kParallelFor };

// Instants the split-point call began and ended, on the calling thread.
struct Marks {
  Split split = Split::kSimRun;
  int calls = 0;
  std::int64_t enter = 0;
  std::int64_t exit = 0;
};
Marks g_marks;

class SplitScope {
 public:
  explicit SplitScope(Split here) : active_(here == g_marks.split) {
    if (!active_) return;
    g_marks.enter = now_ns();
    trace::switch_phase(trace::kRun, g_marks.enter);
  }
  ~SplitScope() {
    if (!active_) return;
    g_marks.exit = now_ns();
    trace::switch_phase(trace::kAudit, g_marks.exit);
    ++g_marks.calls;
  }
  SplitScope(const SplitScope&) = delete;
  SplitScope& operator=(const SplitScope&) = delete;

 private:
  bool active_;
};

}  // namespace
}  // namespace xlf_bench

// The split-point interposers (both binaries). `this` is the first
// parameter of a member function under the Itanium ABI.
xlf::sim::SsdSimStats real_sim_run(xlf::sim::SsdSimulator* self,
                                   const std::vector<xlf::host::Command>& commands)
    __asm__("__real_" XLF_BENCH_STR(XLF_SIM_RUN_SYM));
xlf::sim::SsdSimStats wrap_sim_run(xlf::sim::SsdSimulator* self,
                                   const std::vector<xlf::host::Command>& commands)
    __asm__("__wrap_" XLF_BENCH_STR(XLF_SIM_RUN_SYM));
xlf::sim::SsdSimStats wrap_sim_run(xlf::sim::SsdSimulator* self,
                                   const std::vector<xlf::host::Command>& commands) {
  using namespace xlf_bench;
  const SplitScope split(Split::kSimRun);
  const trace::Span span(trace::sim_run_id());
  return real_sim_run(self, commands);
}

void real_parallel_for(xlf::ThreadPool* self, std::size_t count,
                       const std::function<void(std::size_t)>& body)
    __asm__("__real_" XLF_BENCH_STR(XLF_PARALLEL_FOR_SYM));
void wrap_parallel_for(xlf::ThreadPool* self, std::size_t count,
                       const std::function<void(std::size_t)>& body)
    __asm__("__wrap_" XLF_BENCH_STR(XLF_PARALLEL_FOR_SYM));
void wrap_parallel_for(xlf::ThreadPool* self, std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  using namespace xlf_bench;
  const SplitScope split(Split::kParallelFor);
  if constexpr (trace::kEnabled) {
    // Each task runs in an explore.task span on whichever thread takes
    // it, so worker time is attributed and parallel efficiency measured.
    const std::function<void(std::size_t)> traced = [&body](std::size_t i) {
      const trace::Span task(trace::task_id());
      body(i);
    };
    real_parallel_for(self, count, traced);
  } else {
    real_parallel_for(self, count, body);
  }
}

namespace xlf_bench {
namespace {

// --- workloads ----------------------------------------------------------

// One FTL sweep cell: pages per block is 16 everywhere; the rest of the
// SSD (initial wear 1e4 P/E, 3e4 P/E per erase, logical fraction 0.6,
// greedy GC, dynamic wear, model_based tuning, hot/cold 0.25/0.85, all
// arrivals at t=0) is the CLI/spec default.
struct FtlShape {
  xlf::controller::DispatchConfig topology{1, 1};
  std::uint32_t blocks = 0;  // per die
  std::size_t queue_depth = 0;
  std::vector<double> queue_weights;  // one entry per submission queue
  double read_fraction = 0.0;
  double trim_fraction = 0.0;
  std::size_t requests = 0;
  bool data_plane = false;
};

struct Workload {
  const char* name;
  Split split;
  unsigned threads;
  FtlShape ftl;  // FTL workloads only
};

const Workload kWorkloads[] = {
    {"paper_space", Split::kParallelFor, 2, {}},
    {"ftl_meta_write", Split::kSimRun, 1,
     {{1, 1}, 8192, 8, {1.0}, 0.3, 0.0, 500000, false}},
    {"ftl_meta_mixed", Split::kSimRun, 1,
     {{2, 2}, 2048, 32, {32, 16, 8, 8, 4, 4, 2, 1}, 0.7, 0.2, 500000, false}},
    {"ftl_bittrue", Split::kSimRun, 1,
     {{2, 1}, 16, 8, {1.0}, 0.3, 0.0, 600, true}},
};

xlf::explore::FtlSweepSpec ftl_spec(const FtlShape& shape, std::uint64_t seed) {
  xlf::explore::FtlSweepSpec spec = xlf::explore::ExperimentSpec::defaults().ftl;
  spec.base.die.device.array.geometry.blocks = shape.blocks;
  spec.base.die.device.array.geometry.pages_per_block = 16;
  spec.topologies = {shape.topology};
  spec.queue_depths = {shape.queue_depth};
  spec.queue_counts = {shape.queue_weights.size()};
  spec.arbitration_policies = {shape.queue_weights.size() > 1 ? "weighted"
                                                              : "round-robin"};
  spec.queue_weights = shape.queue_weights;
  spec.gc_policies = {"greedy"};
  spec.read_fraction = shape.read_fraction;
  spec.trim_fraction = shape.trim_fraction;
  spec.requests = shape.requests;
  spec.data_plane = shape.data_plane;
  spec.seed = seed;
  return spec;
}

// The paper's grid: {SV, DV} x t 3..65 x 241 log-spaced ages over
// 1..1e6 P/E. The seed picks the cell sample behind the ISPP
// program-time characterisation.
xlf::explore::SweepSpec space_spec(std::uint64_t seed) {
  xlf::explore::SweepSpec spec;
  spec.framework =
      xlf::explore::FrameworkSpec::from(xlf::core::SubsystemConfig::defaults());
  spec.framework.timing.sample_seed = xlf::Rng(seed).next();
  spec.ages = xlf::log_space(1.0, 1e6, kSpaceAges);
  return spec;
}

// --- digests -------------------------------------------------------------

// FNV-1a over a canonical text form: integers in decimal, doubles in
// their shortest round-trip form, every value comma-terminated.
class Digest {
 public:
  Digest& operator<<(double v) {
    char buf[32];
    put(std::string_view(buf, std::to_chars(buf, buf + sizeof buf, v).ptr));
    return *this;
  }
  Digest& operator<<(std::uint64_t v) {
    char buf[24];
    put(std::string_view(buf, std::to_chars(buf, buf + sizeof buf, v).ptr));
    return *this;
  }
  Digest& operator<<(const xlf::RunningStats& s) {
    return *this << static_cast<std::uint64_t>(s.count()) << s.mean()
                 << s.variance() << s.min() << s.max();
  }
  std::uint64_t value() const { return hash_; }

 private:
  void put(std::string_view text) {
    for (const char c : text) byte(static_cast<unsigned char>(c));
    byte(',');
  }
  void byte(unsigned char c) {
    hash_ ^= c;
    hash_ *= 0x100000001B3ull;
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

// Every field of the row's statistics (metadata-only workloads).
std::uint64_t full_digest(const xlf::explore::FtlSweepRow& row) {
  const xlf::sim::SsdSimStats& s = row.stats;
  Digest d;
  d << std::uint64_t{s.reads} << std::uint64_t{s.writes}
    << std::uint64_t{s.unmapped_reads} << std::uint64_t{s.uncorrectable}
    << std::uint64_t{s.data_mismatches} << std::uint64_t{s.corrected_bits}
    << std::uint64_t{s.trims} << std::uint64_t{s.trimmed_pages}
    << std::uint64_t{s.flushes} << std::uint64_t{s.power_loss}
    << s.bad_blocks << s.gc_relocations << s.erases << s.wl_swaps
    << s.write_amplification << s.refresh_blocks << s.refresh_relocations
    << std::uint64_t{s.min_t_used} << std::uint64_t{s.max_t_used}
    << s.wear_min << s.wear_max << s.elapsed.value() << s.gc_busy.value()
    << s.ecc_energy.value() << s.nand_energy.value() << s.read_latency
    << s.write_latency;
  for (const xlf::host::QueueStats& q : s.queue_stats) {
    d << q.reads << q.writes << q.trims << q.flushes << q.read_latency
      << q.write_latency;
  }
  for (const double u : s.die_utilisation) d << u;
  for (const double u : s.channel_utilisation) d << u;
  d << row.bad_blocks << std::uint64_t{row.rebuild_mismatches};
  return d.value();
}

// FTL decisions only (bit-true workload): these do not depend on cell
// noise, so a deliberate re-baseline of the cell RNG stream keeps them.
std::uint64_t decision_digest(const xlf::sim::SsdSimStats& s) {
  Digest d;
  d << std::uint64_t{s.writes} << std::uint64_t{s.reads}
    << std::uint64_t{s.trims} << s.gc_relocations << s.erases << s.wl_swaps
    << std::uint64_t{s.min_t_used} << std::uint64_t{s.max_t_used};
  return d.value();
}

std::uint64_t space_digest(const xlf::explore::SweepResult& result) {
  Digest d;
  for (const xlf::explore::SweepCell& cell : result.cells) {
    const xlf::core::Metrics& m = cell.metrics;
    d << m.pe_cycles << static_cast<std::uint64_t>(m.algo)
      << std::uint64_t{m.t} << m.rber << m.uber << m.log10_uber
      << m.read_latency.value() << m.write_latency.value()
      << m.read_throughput.value() << m.write_throughput.value()
      << m.nand_program_power.value() << m.ecc_decode_power.value()
      << std::uint64_t{cell.pareto};
  }
  return d.value();
}

// --- one repetition --------------------------------------------------------

struct Outcome {
  std::uint64_t ops = 0;  // host commands or sweep cells
  std::uint64_t failed_ops = 0;
  std::uint64_t digest = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::string error;
  trace::PhaseWalls walls{};

  void check(const char* name, bool ok) { checks.emplace_back(name, ok); }
};

void run_ftl(const Workload& w, std::uint64_t seed, Outcome& out,
             std::int64_t& begin, std::int64_t& end) {
  const xlf::explore::FtlSweepSpec spec = ftl_spec(w.ftl, seed);
  xlf::ThreadPool pool(w.threads);
  begin = now_ns();
  const xlf::explore::FtlSweepResult result = xlf::explore::ftl_sweep(spec, pool);
  end = now_ns();

  out.check("one_row", result.rows.size() == 1);
  if (result.rows.size() != 1) return;
  const xlf::explore::FtlSweepRow& row = result.rows.front();
  const xlf::sim::SsdSimStats& s = row.stats;
  out.ops = spec.requests;
  out.failed_ops = s.uncorrectable + s.data_mismatches + row.rebuild_mismatches;
  out.digest = w.ftl.data_plane ? decision_digest(s) : full_digest(row);

  std::uint64_t queued = 0;
  for (const xlf::host::QueueStats& q : s.queue_stats) queued += q.commands();
  const std::uint64_t serviced =
      s.reads + s.unmapped_reads + s.writes + s.trims + s.flushes;
  out.check("no_uncorrectable", s.uncorrectable == 0);
  out.check("no_data_mismatches", s.data_mismatches == 0);
  out.check("no_rebuild_mismatches", row.rebuild_mismatches == 0);
  out.check("no_power_loss", !s.power_loss);
  out.check("all_commands_serviced",
            serviced == spec.requests && queued == spec.requests);
  out.check("gc_ran", s.erases > 0 && s.gc_relocations > 0);
}

void run_space(const Workload& w, std::uint64_t seed, Outcome& out,
               std::int64_t& begin, std::int64_t& end) {
  const xlf::explore::SweepSpec spec = space_spec(seed);
  xlf::ThreadPool pool(w.threads);
  begin = now_ns();
  const xlf::explore::SweepResult result = xlf::explore::sweep_space(spec, pool);
  end = now_ns();

  const std::size_t per_age = result.cells_per_age;
  out.ops = result.cells.size();
  out.digest = space_digest(result);
  out.check("cell_count", per_age == 126 &&
                              result.cells.size() == kSpaceAges * per_age);
  for (const xlf::explore::SweepCell& cell : result.cells) {
    const xlf::core::Metrics& m = cell.metrics;
    const bool finite =
        std::isfinite(m.pe_cycles) && std::isfinite(m.rber) &&
        std::isfinite(m.uber) && std::isfinite(m.log10_uber) &&
        std::isfinite(m.read_latency.value()) &&
        std::isfinite(m.write_latency.value()) &&
        std::isfinite(m.read_throughput.value()) &&
        std::isfinite(m.write_throughput.value()) &&
        std::isfinite(m.nand_program_power.value()) &&
        std::isfinite(m.ecc_decode_power.value());
    if (!finite) ++out.failed_ops;
  }
  out.check("finite_metrics", out.failed_ops == 0);
  bool fronts = per_age > 0;
  for (std::size_t a = 0; fronts && a < kSpaceAges; ++a) {
    bool any = false;
    for (std::size_t i = 0; i < per_age && a * per_age + i < result.cells.size(); ++i) {
      any = any || result.cells[a * per_age + i].pareto;
    }
    fronts = any;
  }
  out.check("pareto_every_age", fronts);
}

Outcome run(const Workload& w, std::uint64_t seed) {
  Outcome out;
  g_marks = Marks{w.split};
  trace::switch_phase(trace::kSetup, now_ns());
  std::int64_t begin = 0;
  std::int64_t end = 0;
  try {
    if (w.split == Split::kParallelFor) {
      run_space(w, seed, out, begin, end);
    } else {
      run_ftl(w, seed, out, begin, end);
    }
    out.check("completed", true);
  } catch (const std::exception& e) {
    out.error = e.what();
    out.check("completed", false);
  }
  out.check("split_point_once", g_marks.calls == 1);
  if (g_marks.calls == 1) {
    out.walls = {g_marks.enter - begin, g_marks.exit - g_marks.enter,
                 end - g_marks.exit};
  }
  return out;
}

// --- output ------------------------------------------------------------------

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string seconds(std::int64_t ns) {
  char buf[32];
  return std::string(
      buf, std::to_chars(buf, buf + sizeof buf, static_cast<double>(ns) / 1e9).ptr);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool passed(const Outcome& out) {
  for (const auto& [name, ok] : out.checks) {
    if (!ok) return false;
  }
  return out.failed_ops == 0;
}

int print_digests() {
  std::cout << "{";
  bool ok = true;
  const char* sep = "";
  for (const Workload& w : kWorkloads) {
    const Outcome out = run(w, kDefaultSeed);
    ok = ok && passed(out);
    if (w.threads > 1) {
      // The golden paper_space cells are the serial reference too.
      Workload serial = w;
      serial.threads = 1;
      const Outcome one = run(serial, kDefaultSeed);
      if (one.digest != out.digest) {
        std::cerr << "xlf_bench: " << w.name << " differs between 1 and "
                  << w.threads << " threads\n";
        ok = false;
      }
    }
    std::cout << sep << "\n  " << json_string(w.name) << ": "
              << json_string(hex(out.digest));
    sep = ",";
  }
  std::cout << "\n}\n";
  return ok ? 0 : 1;
}

int usage() {
  std::cerr << "usage: xlf_bench --workload NAME --seed N [--trace-stem PATH]\n"
               "       xlf_bench --print-digests\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

int main_impl(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  std::string trace_stem;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--print-digests" && argc == 2) return print_digests();
    if (i + 1 >= argc) return usage();
    const std::string_view value = argv[++i];
    if (arg == "--workload") {
      workload = find_workload(value);
      if (workload == nullptr) return usage();
    } else if (arg == "--seed") {
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), seed);
      if (ec != std::errc() || ptr != value.data() + value.size()) return usage();
    } else if (arg == "--trace-stem") {
      trace_stem = value;
    } else {
      return usage();
    }
  }
  if (workload == nullptr) return usage();

  const Outcome out = run(*workload, seed);
  std::ostringstream line;
  line << "{\"workload\":" << json_string(workload->name) << ",\"seed\":" << seed
       << ",\"threads\":" << workload->threads << ",\"ops\":" << out.ops
       << ",\"failed_ops\":" << out.failed_ops
       << ",\"digest\":" << json_string(hex(out.digest)) << ",\"checks\":{";
  const char* sep = "";
  for (const auto& [name, ok] : out.checks) {
    line << sep << json_string(name) << ':' << (ok ? "true" : "false");
    sep = ",";
  }
  line << "},\"error\":" << json_string(out.error) << ",\"phases\":{"
       << "\"setup_s\":" << seconds(out.walls[trace::kSetup])
       << ",\"run_s\":" << seconds(out.walls[trace::kRun])
       << ",\"audit_s\":" << seconds(out.walls[trace::kAudit]) << ",\"wall_s\":"
       << seconds(out.walls[0] + out.walls[1] + out.walls[2]) << '}';
#ifdef XLF_BENCH_TRACED
  line << ",\"trace\":" << trace::report(out.walls, trace_stem);
#endif
  line << '}';
  std::cout << line.str() << std::endl;
  return passed(out) ? 0 : 1;
}

}  // namespace
}  // namespace xlf_bench

int main(int argc, char** argv) { return xlf_bench::main_impl(argc, argv); }
