// bench::run_live, the entry point every live bench and example runs on:
// the per-caller floor keeps a window a loaded host swallows whole from
// leaving a caller without ops (and the invariant checks computed over the
// run from passing vacuously); more callers than the affinity mask has CPUs
// less one share CPUs round robin, flagged, never an error; sample capacity
// 0 takes no latency samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "cnet/util/cacheline.hpp"
#include "support/live.hpp"

namespace cnet::bench {
namespace {

TEST(Live, FloorGivesEveryCallerOpsInAZeroLengthPlan) {
  std::vector<util::Padded<std::uint64_t>> calls(3);
  const auto run = run_live(3, {0.0, 0.0, 1, 0}, 32, [&](std::size_t c) {
    return [&calls, c] {
      ++calls[c].value;
      return true;
    };
  });
  ASSERT_EQ(run.phase.callers.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_GE(calls[c].value, 32u)
        << "caller " << c << " stopped below the floor";
    // The floor runs before the caller reports ready: it is not in the
    // phase's count.
    EXPECT_EQ(calls[c].value, 32u + run.phase.callers[c].ops);
  }
}

TEST(Live, PlacementIsRoundRobinOverTheMaskWhenCallersOutnumberCpus) {
  const std::vector<int> allowed = perfbench::allowed_cpus();
  ASSERT_FALSE(allowed.empty());
  // Computing a placement starts no thread, so a count far beyond the
  // mask is cheap to check.
  const std::size_t many = 3 * allowed.size() + 1;
  EXPECT_TRUE(co_scheduled(many));
  EXPECT_EQ(co_sched_flag(many), " (co-sched)");
  const perfbench::Placement pl = live_placement(many);
  ASSERT_EQ(pl.callers.size(), many);
  for (std::size_t c = 0; c < many; ++c) {
    EXPECT_EQ(pl.callers[c], allowed[c % allowed.size()]);
  }
  EXPECT_FALSE(co_scheduled(allowed.size() - 1));
  EXPECT_EQ(co_sched_flag(allowed.size() - 1), "");
}

TEST(Live, CoScheduledRunPinsEveryCallerToAnAllowedCpu) {
  const std::vector<int> allowed = perfbench::allowed_cpus();
  const std::size_t threads = allowed.size() + 1;
  std::atomic<std::uint64_t> calls{0};
  const auto run = run_live(threads, {0.0, 0.01, 2, 0}, 1, [&](std::size_t) {
    return [&calls] {
      calls.fetch_add(1, std::memory_order_relaxed);
      return true;
    };
  });
  EXPECT_TRUE(co_scheduled(threads));
  ASSERT_EQ(run.phase.callers.size(), threads);
  for (const auto& caller : run.phase.callers) {
    EXPECT_TRUE(caller.error.empty()) << caller.error;
    EXPECT_NE(std::find(allowed.begin(), allowed.end(), caller.cpu),
              allowed.end());
    EXPECT_EQ(caller.cpu_start, caller.cpu);
  }
  EXPECT_GE(calls.load(), threads);
}

TEST(Live, ZeroSampleCapacityTakesNoLatencySamples) {
  const auto run = run_live(1, {0.0, 0.02, 2, 0}, 0, [](std::size_t) {
    return [] { return true; };
  });
  EXPECT_GT(run.phase.ops, 0u);
  EXPECT_TRUE(run.phase.callers[0].samples.empty());
  EXPECT_FALSE(run.p50_ns.has_value());
  EXPECT_FALSE(run.p99_ns.has_value());
}

TEST(Live, SampledRunReportsPercentilesInNanoseconds) {
  const auto run = run_live(1, {0.0, 0.05, 2, 1u << 12}, 0, [](std::size_t) {
    return [x = 0u]() mutable { return ++x != 0; };
  });
  ASSERT_TRUE(run.p50_ns.has_value());
  ASSERT_TRUE(run.p99_ns.has_value());
  EXPECT_GT(*run.p50_ns, 0.0);
  EXPECT_LE(*run.p50_ns, *run.p99_ns);
  EXPECT_GT(run.ops_per_s(), 0.0);
}

}  // namespace
}  // namespace cnet::bench
