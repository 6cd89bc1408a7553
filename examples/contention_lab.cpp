// Contention laboratory: run the paper's §6 stall-counting experiment on
// any network family with any scheduler from the command line, print the
// per-layer/per-block breakdown, then hammer the same network with real
// threads on the shared live harness (bench/support/live.hpp: pinned
// callers, co-scheduled and flagged when the host has too few CPUs;
// CAS-retry discipline) so the simulated stall census can be compared
// with hardware-observed stalls — the interactive version of
// bench_tab_contention / bench_fig_blocks.
//
// Usage: ./examples/contention_lab <family> <w> [t] [n] [scheduler]
//   family:    counting | bitonic | periodic | difftree | ablated
//   scheduler: convoy (default) | greedy | random | rr
//
// Example: ./examples/contention_lab counting 16 64 256 convoy
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "cnet/analysis/bounds.hpp"
#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/difftree.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/ablation.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/runtime/network_counter.hpp"
#include "cnet/sim/contention.hpp"
#include "cnet/util/bitops.hpp"
#include "support/live.hpp"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <family> <w> [t] [n] [scheduler]\n"
                 "  family: counting bitonic periodic difftree ablated\n"
                 "  scheduler: convoy greedy random rr\n",
                 argv[0]);
    return 2;
  }
  const std::string family = argv[1];
  const auto w = static_cast<std::size_t>(std::atoll(argv[2]));
  const std::size_t t =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : w;
  const std::size_t n =
      argc > 4 ? static_cast<std::size_t>(std::atoll(argv[4])) : 16 * w;
  const std::string sched_name = argc > 5 ? argv[5] : "convoy";

  std::optional<cnet::topo::Topology> net;
  try {
    if (family == "counting") net = cnet::core::make_counting(w, t);
    if (family == "ablated")
      net = cnet::core::make_counting_bitonic_merge(w, t);
    if (family == "bitonic") net = cnet::baselines::make_bitonic(w);
    if (family == "periodic") net = cnet::baselines::make_periodic(w);
    if (family == "difftree")
      net = cnet::baselines::make_diffracting_tree(w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "construction failed: %s\n", e.what());
    return 1;
  }
  if (!net) {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return 2;
  }

  cnet::sim::ContentionConfig cfg;
  cfg.concurrency = n;
  cfg.generations = 32;
  if (sched_name == "greedy") {
    cfg.scheduler = cnet::sim::SchedulerKind::kGreedyMaxQueue;
  } else if (sched_name == "random") {
    cfg.scheduler = cnet::sim::SchedulerKind::kRandom;
  } else if (sched_name == "rr") {
    cfg.scheduler = cnet::sim::SchedulerKind::kRoundRobin;
  } else if (sched_name != "convoy") {
    std::fprintf(stderr, "unknown scheduler '%s'\n", sched_name.c_str());
    return 2;
  }

  const auto report = cnet::sim::measure_contention(*net, cfg);
  std::printf("network : %s\n", net->summary().c_str());
  std::printf("config  : n=%zu, m=%zu tokens, scheduler=%s\n", n,
              report.tokens, cnet::sim::scheduler_name(cfg.scheduler));
  std::printf("stalls/token: %.3f   (max queue: %zu)\n",
              report.stalls_per_token, report.max_queue);
  if (family == "counting") {
    std::printf("Theorem 6.7 bound: %.1f\n",
                cnet::analysis::counting_contention_bound(w, t, n));
  }
  std::printf("\nper-layer stalls/token:\n");
  const std::size_t lgw = cnet::util::ilog2(w);
  for (std::size_t d = 0; d < report.per_layer.size(); ++d) {
    const char* block = "";
    if (family == "counting" || family == "ablated") {
      block = d + 1 < lgw ? " [Na]" : (d + 1 == lgw ? " [Nb]" : " [Nc]");
    }
    std::printf("  layer %2zu%s: %8.3f\n", d + 1, block,
                report.per_layer[d]);
  }

  // Hardware leg: the same network as a live counter under real threads
  // (capped at 16 — simulated n models logical concurrency, not cores).
  // difftree uses its own runtime, so the compiled-network leg skips it.
  if (family != "difftree") {
    const std::size_t threads = std::clamp<std::size_t>(n, 1, 16);
    cnet::rt::NetworkCounter counter(*net, family,
                                     cnet::rt::BalancerMode::kCasRetry);
    const perfbench::PhasePlan plan{0.1, 0.5, 10, 1u << 16};
    // No floor: stall_count() covers the counter's whole life, so the
    // token count it is divided by is every call, warmup included.
    const auto run =
        cnet::bench::run_live(threads, plan, 0, [&](std::size_t c) {
          return [&counter, c] {
            volatile std::int64_t sink = counter.fetch_increment(c);
            (void)sink;
            return true;
          };
        });
    std::printf("\nhardware (cas-retry, %zu threads%s, %.1fs):\n", threads,
                cnet::bench::co_sched_flag(threads).c_str(), plan.measure_s);
    std::printf("  throughput  : %s\n",
                cnet::bench::fmt_rate(run.ops_per_s()).c_str());
    std::printf("  latency     : p50 %s  p99 %s\n",
                cnet::bench::fmt_ns(run.p50_ns).c_str(),
                cnet::bench::fmt_ns(run.p99_ns).c_str());
    const std::uint64_t stalls = counter.stall_count();
    const std::uint64_t tokens = run.phase.ops;
    std::printf("  stalls/token: %.3f (%llu stalls / %llu tokens)\n",
                tokens ? static_cast<double>(stalls) /
                             static_cast<double>(tokens)
                       : 0.0,
                static_cast<unsigned long long>(stalls),
                static_cast<unsigned long long>(tokens));
  }
  return 0;
}
