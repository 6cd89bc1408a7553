// The live closed-loop runs of the bench programs and examples, on the
// benchmark's own phase runner (perfbench/src/harness.hpp): callers pinned
// one per CPU, latency timed at seeded random gaps, throughput the median
// over equal windows, the op templated rather than called through a
// std::function. run_live adds only three things perfbench leaves out:
//   - a co-scheduled placement when the affinity mask has fewer than
//     threads + 1 CPUs (perfbench refuses to run there): callers are pinned
//     round robin over the allowed CPUs and the run says so;
//   - a per-caller floor of ops, run before the caller reports ready, so a
//     smoke-sized window on a loaded host never leaves a caller without a
//     single op and the invariant checks over the run never pass vacuously;
//   - latency percentiles in ns instead of ticks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "support/report.hpp"

namespace cnet::bench {

struct LiveRun {
  perfbench::PhaseResult phase;
  // Per-call latency; nullopt when no samples were taken, or too few to
  // reach the tail (perfbench::percentile's rule).
  std::optional<double> p50_ns;
  std::optional<double> p99_ns;

  // Top-level calls per second, the median of the measured windows.
  double ops_per_s() const { return phase.ops_per_s(); }
};

// Whether `threads` callers must share CPUs here: the affinity mask has
// fewer than threads + 1 CPUs (one is left to the coordinator).
bool co_scheduled(std::size_t threads);

// perfbench::place(threads) when the mask has room; otherwise every
// allowed CPU, callers assigned round robin over them.
perfbench::Placement live_placement(std::size_t threads);

// " (co-sched)" when co_scheduled(threads), else "": appended to the
// thread-count label of a table column or cell.
std::string co_sched_flag(std::size_t threads);

// The footnote explaining co_sched_flag, when co_scheduled(max_threads).
void note_co_scheduled(std::size_t max_threads, const ReportOptions& opts);

// Folds a finished phase into a LiveRun. Throws std::runtime_error naming
// the first caller that reported an error.
LiveRun finish_live(perfbench::PhaseResult phase);

// Runs one closed-loop phase on `threads` callers. make_op(c) is called on
// caller c's pinned thread and returns its bool() op (false counts as a
// failed call); the caller then runs `floor` ops before reporting ready.
// Those ops are not timed and not in phase.ops. Latency samples are drawn
// from a fixed seed, so one binary samples the same op indices every run.
template <class MakeOp>
LiveRun run_live(std::size_t threads, const perfbench::PhasePlan& plan,
                 std::uint64_t floor, MakeOp&& make_op) {
  std::vector<std::vector<std::uint32_t>> gaps;
  for (std::size_t c = 0; c < threads; ++c) {
    gaps.push_back(perfbench::sample_gaps(1, c));
  }
  perfbench::PhaseResult phase = perfbench::run_phase(
      live_placement(threads), gaps, plan, [&](std::size_t c) {
        auto op = make_op(c);
        for (std::uint64_t i = 0; i < floor; ++i) (void)op();
        return op;
      });
  return finish_live(std::move(phase));
}

}  // namespace cnet::bench
