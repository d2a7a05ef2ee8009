// Span tracer and the boundaries.def interposers of xlf_bench_traced.
//
// Every wrapper records on a thread-local stack; nothing is shared on
// the hot path except the phase flag and the raw-span budget. Self
// time is charged event by event: whenever a span opens or closes, the
// interval since the thread's previous event goes to the layer of the
// span on top of the stack, in the current phase. A phase switch
// charges the same way first, so the per-phase layer self times of a
// thread sum exactly to the time its root span covered in that phase.
#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "src/bch/code_params.hpp"
#include "src/bch/codec.hpp"
#include "src/controller/controller.hpp"
#include "src/controller/dispatch.hpp"
#include "src/core/cross_layer.hpp"
#include "src/core/subsystem.hpp"
#include "src/ecc_hw/latency.hpp"
#include "src/ecc_hw/power.hpp"
#include "src/explore/ftl_sweep.hpp"
#include "src/explore/sweep.hpp"
#include "src/ftl/ssd.hpp"
#include "src/gf/gf2m.hpp"
#include "src/host/queues.hpp"
#include "src/hv/power_model.hpp"
#include "src/nand/array.hpp"
#include "src/nand/device.hpp"
#include "src/nand/timing.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/host_workload.hpp"
#include "src/sim/ssd_sim.hpp"
#include "src/util/bitvec.hpp"
#include "src/util/rng.hpp"

namespace xlf_bench::trace {

namespace layer {
enum Id : int {
  explore, sim, host, ftl, controller, core, bch, ecc_hw, hv, nand, util, gf,
  kCount
};
constexpr const char* kNames[kCount] = {
    "explore", "sim", "host", "ftl",    "controller", "core",
    "bch",     "ecc_hw", "hv", "nand", "util",       "gf"};
}  // namespace layer

enum Boundary : int {
#define XLF_SPAN(sym, ...) id_##sym,
#define XLF_COUNT(sym, ...) id_##sym,
#include "boundaries.def"
#undef XLF_SPAN
#undef XLF_COUNT
  kSimRun,
  kTask,
  kBoundaries
};

// The real functions. Weak, so a row whose symbol no archive defines
// (wraps.cmake then emits no --wrap for it) links as a null address
// and is reported under trace.missing instead of breaking the build.
namespace real {
#define XLF_ROW(sym, lay, name, expect, Ret, params, args) \
  Ret sym params __asm__("__real_" #sym) __attribute__((weak));
#define XLF_SPAN XLF_ROW
#define XLF_COUNT XLF_ROW
#include "boundaries.def"
#undef XLF_SPAN
#undef XLF_COUNT
#undef XLF_ROW
}  // namespace real

namespace {

struct Row {
  const char* name;
  int layer;
  const char* expect;
  bool span;
  bool missing;
};

const Row kRows[kBoundaries] = {
#define XLF_SPAN(sym, lay, name, expect, ...) \
  {name, layer::lay, expect, true, &real::sym == nullptr},
#define XLF_COUNT(sym, lay, name, expect, ...) \
  {name, layer::lay, expect, false, &real::sym == nullptr},
#include "boundaries.def"
#undef XLF_SPAN
#undef XLF_COUNT
    {"sim.run", layer::sim, "ftl_*", true, false},
    {"explore.task", layer::explore, "*", true, false},
};

constexpr std::size_t kMaxRawSpans = 100000;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Log-linear duration histogram: 16 linear sub-buckets per power of
// two (bucket width <= 1/16 of its lower edge). Percentiles interpolate
// linearly inside the bucket that holds the rank.
class Histogram {
 public:
  void add(std::int64_t ns) {
    ++counts_[index(static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0)))];
    ++total_;
  }
  void merge(const Histogram& other) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  double percentile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_);
    std::uint64_t below = 0;
    for (int i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(below + counts_[i]) >= rank) {
        const double fraction = (rank - static_cast<double>(below)) /
                                static_cast<double>(counts_[i]);
        return lower(i) + fraction * width(i);
      }
      below += counts_[i];
    }
    return 0.0;
  }

 private:
  static constexpr int kSub = 16;
  static constexpr int kBuckets = kSub + 60 * kSub;
  static int index(std::uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int e = std::bit_width(v) - 1;  // >= 4
    return kSub + (e - 4) * kSub + static_cast<int>((v >> (e - 4)) & (kSub - 1));
  }
  static double lower(int i) {
    if (i < kSub) return i;
    const int e = (i - kSub) / kSub + 4;
    return std::ldexp(kSub + (i - kSub) % kSub, e - 4);
  }
  static double width(int i) {
    return i < kSub ? 1.0 : std::ldexp(1.0, (i - kSub) / kSub);
  }
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

struct Frame {
  int id;
  std::int64_t start;
};
struct Edge {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};
struct RawSpan {
  int id;
  std::int64_t start;
  std::int64_t duration;
};

struct ThreadState {
  std::size_t index = 0;
  std::vector<Frame> stack;
  std::int64_t last = 0;
  int tasks_open = 0;
  std::array<std::array<std::int64_t, layer::kCount>, kPhases> self_ns{};
  // Time covered by explore.task spans (thread busy in parallel work).
  std::array<std::int64_t, kPhases> task_ns{};
  std::array<std::array<std::uint64_t, kPhases>, kBoundaries> calls{};
  std::vector<Histogram> run_hist = std::vector<Histogram>(kBoundaries);
  // [caller + 1][callee]; caller -1 is "no open span on this thread".
  std::vector<Edge> edges = std::vector<Edge>((kBoundaries + 1) * kBoundaries);
  std::vector<RawSpan> raw;
};

std::atomic<int> g_phase{kSetup};
std::atomic<std::size_t> g_raw_spans{0};
std::mutex g_mutex;  // guards g_threads
std::vector<std::unique_ptr<ThreadState>> g_threads;
thread_local ThreadState* t_state = nullptr;

ThreadState& state() {
  if (t_state == nullptr) {
    auto fresh = std::make_unique<ThreadState>();
    fresh->stack.reserve(64);
    const std::lock_guard<std::mutex> lock(g_mutex);
    fresh->index = g_threads.size();
    t_state = fresh.get();
    g_threads.push_back(std::move(fresh));
  }
  return *t_state;
}

// Charge the interval since the thread's previous event to the span on
// top of its stack (no-op for an empty stack: untraced time).
void charge(ThreadState& s, std::int64_t now, int phase) {
  if (!s.stack.empty()) {
    const std::int64_t dt = now - s.last;
    s.self_ns[phase][kRows[s.stack.back().id].layer] += dt;
    if (s.tasks_open > 0) s.task_ns[phase] += dt;
  }
  s.last = now;
}

void count(int id) {
  ++state().calls[id][g_phase.load(std::memory_order_relaxed)];
}

std::string number(double v) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

template <class T>
std::string triple(const std::array<T, kPhases>& v) {
  std::ostringstream out;
  out << '[' << v[0] << ',' << v[1] << ',' << v[2] << ']';
  return out.str();
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const ThreadState*>& threads) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const ThreadState* t : threads) {
    for (const RawSpan& span : t->raw) origin = std::min(origin, span.start);
  }
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const ThreadState* t : threads) {
    for (const RawSpan& span : t->raw) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << kRows[span.id].name
          << "\",\"cat\":\"" << layer::kNames[kRows[span.id].layer]
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t->index
          << ",\"ts\":" << number(static_cast<double>(span.start - origin) / 1e3)
          << ",\"dur\":" << number(static_cast<double>(span.duration) / 1e3)
          << '}';
      first = false;
    }
  }
  out << "\n]}\n";
}

void write_edges(const std::string& path,
                 const std::vector<const ThreadState*>& threads) {
  std::vector<Edge> edges((kBoundaries + 1) * kBoundaries);
  for (const ThreadState* t : threads) {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      edges[i].calls += t->edges[i].calls;
      edges[i].ns += t->edges[i].ns;
    }
  }
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].calls > 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return edges[a].ns != edges[b].ns ? edges[a].ns > edges[b].ns : a < b;
  });
  std::ofstream out(path);
  out << '[';
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const std::size_t caller = i / kBoundaries;
    const std::size_t callee = i % kBoundaries;
    out << (k == 0 ? "\n" : ",\n") << "{\"caller\":\""
        << (caller == 0 ? "(thread)" : kRows[caller - 1].name)
        << "\",\"callee\":\"" << kRows[callee].name
        << "\",\"calls\":" << edges[i].calls
        << ",\"total_ms\":" << number(static_cast<double>(edges[i].ns) / 1e6)
        << '}';
  }
  out << "\n]\n";
}

}  // namespace

int sim_run_id() { return kSimRun; }
int task_id() { return kTask; }

void enter(int id) {
  ThreadState& s = state();
  const std::int64_t now = now_ns();
  const int phase = g_phase.load(std::memory_order_relaxed);
  const int caller = s.stack.empty() ? -1 : s.stack.back().id;
  charge(s, now, phase);
  ++s.calls[id][phase];
  ++s.edges[(caller + 1) * kBoundaries + id].calls;
  if (id == kTask) ++s.tasks_open;
  s.stack.push_back(Frame{id, now});
}

void leave() {
  ThreadState& s = state();
  const std::int64_t now = now_ns();
  const int phase = g_phase.load(std::memory_order_relaxed);
  charge(s, now, phase);
  const Frame frame = s.stack.back();
  s.stack.pop_back();
  if (frame.id == kTask) --s.tasks_open;
  const std::int64_t duration = now - frame.start;
  const int caller = s.stack.empty() ? -1 : s.stack.back().id;
  s.edges[(caller + 1) * kBoundaries + frame.id].ns += duration;
  if (phase == kRun) {
    s.run_hist[frame.id].add(duration);
    if (g_raw_spans.load(std::memory_order_relaxed) < kMaxRawSpans &&
        g_raw_spans.fetch_add(1, std::memory_order_relaxed) < kMaxRawSpans) {
      s.raw.push_back(RawSpan{frame.id, frame.start, duration});
    }
  }
}

void switch_phase(Phase phase, std::int64_t now) {
  charge(state(), now, g_phase.load(std::memory_order_relaxed));
  g_phase.store(phase, std::memory_order_relaxed);
}

std::string report(const PhaseWalls& walls, const std::string& path_stem) {
  // Called on the thread that made the entry-point call, after it
  // returned: every worker has closed its task spans and handed its
  // completion back through the pool's mutex.
  std::array<std::int64_t, kPhases> main_self{};
  for (int p = 0; p < kPhases; ++p) {
    for (const std::int64_t ns : state().self_ns[p]) main_self[p] += ns;
  }

  const std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<const ThreadState*> threads;
  for (const auto& t : g_threads) threads.push_back(t.get());

  std::array<std::array<std::int64_t, kPhases>, layer::kCount> self{};
  std::array<std::int64_t, kPhases> task{};
  std::vector<std::array<std::uint64_t, kPhases>> calls(kBoundaries);
  std::vector<Histogram> hist(kBoundaries);
  for (const ThreadState* t : threads) {
    for (int p = 0; p < kPhases; ++p) {
      for (int l = 0; l < layer::kCount; ++l) self[l][p] += t->self_ns[p][l];
      task[p] += t->task_ns[p];
    }
    for (int b = 0; b < kBoundaries; ++b) {
      for (int p = 0; p < kPhases; ++p) calls[b][p] += t->calls[b][p];
      hist[b].merge(t->run_hist[b]);
    }
  }

  std::ostringstream out;
  out << "{\"walls_ns\":" << triple(walls)
      << ",\"main_self_ns\":" << triple(main_self)
      << ",\"task_ns\":" << triple(task) << ",\"layers\":{";
  for (int l = 0; l < layer::kCount; ++l) {
    out << (l == 0 ? "" : ",") << '"' << layer::kNames[l] << "\":" << triple(self[l]);
  }
  out << "},\"boundaries\":[";
  for (int b = 0; b < kBoundaries; ++b) {
    const Row& row = kRows[b];
    out << (b == 0 ? "" : ",") << "{\"name\":\"" << row.name
        << "\",\"layer\":\"" << layer::kNames[row.layer]
        << "\",\"span\":" << (row.span ? "true" : "false")
        << ",\"expect\":\"" << row.expect
        << "\",\"missing\":" << (row.missing ? "true" : "false")
        << ",\"calls\":" << triple(calls[b])
        << ",\"p50_ns\":" << number(hist[b].percentile(0.50))
        << ",\"p99_ns\":" << number(hist[b].percentile(0.99)) << '}';
  }
  out << "]}";

  if (!path_stem.empty()) {
    write_chrome_trace(path_stem + ".trace.json", threads);
    write_edges(path_stem + ".edges.json", threads);
  }
  return out.str();
}

// The interposers: `__wrap_<sym>` replaces every cross-object call to
// <sym>; `real::<sym>` is the original.
#define XLF_SPAN(sym, lay, name, expect, Ret, params, args) \
  Ret wrap_##sym params __asm__("__wrap_" #sym);             \
  Ret wrap_##sym params {                                    \
    const Span span(id_##sym);                               \
    return real::sym args;                                   \
  }
#define XLF_COUNT(sym, lay, name, expect, Ret, params, args) \
  Ret wrap_##sym params __asm__("__wrap_" #sym);              \
  Ret wrap_##sym params {                                     \
    count(id_##sym);                                          \
    return real::sym args;                                    \
  }
#include "boundaries.def"
#undef XLF_SPAN
#undef XLF_COUNT

}  // namespace xlf_bench::trace
