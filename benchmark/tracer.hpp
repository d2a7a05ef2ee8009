// Outside-in span tracer of the traced benchmark binary. The wrappers
// generated from boundaries.def open a Span around every interposed
// call into a layer; the benchmark switches the phase at the split
// point and asks for the report once the entry-point call returned.
//
// Compiled only into xlf_bench_traced (XLF_BENCH_TRACED); in xlf_bench
// every entry point below is an inline no-op, so the end-to-end binary
// pays nothing for it.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace xlf_bench::trace {

enum Phase : int { kSetup = 0, kRun = 1, kAudit = 2 };
inline constexpr int kPhases = 3;

// Wall time of each phase as the benchmark measured it around the
// entry-point call (nanoseconds).
using PhaseWalls = std::array<std::int64_t, kPhases>;

#ifdef XLF_BENCH_TRACED
inline constexpr bool kEnabled = true;
// Span ids of the two boundaries xlf_bench.cpp wraps by hand.
int sim_run_id();
int task_id();
void enter(int boundary);
void leave();
// Charges the calling thread's open span up to `now_ns` (a
// steady_clock reading) to the old phase, then switches every thread
// to `phase`. The first call also sets up the calling thread's state,
// so the benchmark makes one before it starts timing.
void switch_phase(Phase phase, std::int64_t now_ns);
// JSON object with the per-layer self times, per-boundary call counts
// and run-phase percentiles; writes the Chrome trace-event file and
// the caller->callee aggregate next to `path_stem`.
std::string report(const PhaseWalls& walls, const std::string& path_stem);
#else
inline constexpr bool kEnabled = false;
inline int sim_run_id() { return 0; }
inline int task_id() { return 0; }
inline void enter(int) {}
inline void leave() {}
inline void switch_phase(Phase, std::int64_t) {}
#endif

class Span {
 public:
  explicit Span(int boundary) { enter(boundary); }
  ~Span() { leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace xlf_bench::trace
