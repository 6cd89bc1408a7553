#include "support/live.hpp"

#include <stdexcept>
#include <utility>

namespace cnet::bench {

bool co_scheduled(std::size_t threads) {
  return perfbench::allowed_cpus().size() < threads + 1;
}

perfbench::Placement live_placement(std::size_t threads) {
  if (auto pl = perfbench::place(threads)) return *pl;
  perfbench::Placement pl;
  pl.allowed = perfbench::allowed_cpus();
  if (pl.allowed.empty()) pl.allowed.push_back(0);  // mask unreadable
  pl.coordinator = pl.allowed[0];
  for (std::size_t c = 0; c < threads; ++c) {
    pl.callers.push_back(pl.allowed[c % pl.allowed.size()]);
  }
  return pl;
}

std::string co_sched_flag(std::size_t threads) {
  return co_scheduled(threads) ? " (co-sched)" : "";
}

void note_co_scheduled(std::size_t max_threads, const ReportOptions& opts) {
  if (!co_scheduled(max_threads)) return;
  note("\n(co-sched): the " +
           std::to_string(perfbench::allowed_cpus().size()) +
           " allowed CPUs are fewer than callers + 1, so the\n"
           "callers are pinned round robin and share CPUs; those figures\n"
           "include time slicing.",
       opts);
}

LiveRun finish_live(perfbench::PhaseResult phase) {
  for (std::size_t c = 0; c < phase.callers.size(); ++c) {
    if (!phase.callers[c].error.empty()) {
      throw std::runtime_error("caller " + std::to_string(c) + ": " +
                               phase.callers[c].error);
    }
  }
  LiveRun run;
  const auto samples = phase.sorted_samples();
  const auto ns = [&](unsigned pct) -> std::optional<double> {
    const auto ticks = perfbench::percentile(samples, pct);
    if (!ticks) return std::nullopt;
    return static_cast<double>(*ticks) * phase.ns_per_tick;
  };
  run.p50_ns = ns(50);
  run.p99_ns = ns(99);
  run.phase = std::move(phase);
  return run;
}

}  // namespace cnet::bench
