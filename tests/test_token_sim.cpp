// Token simulator: stall accounting semantics, Fetch&Increment correctness
// (values are exactly 0..m-1), agreement with the quiescent evaluator.
#include "cnet/sim/token_sim.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <span>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/difftree.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/sim/model_check.hpp"
#include "cnet/sim/schedulers.hpp"
#include "cnet/topology/quiescent.hpp"
#include "test_util.hpp"

namespace cnet::sim {
namespace {

topo::Topology single22() {
  topo::Builder b;
  const auto in = b.add_network_inputs(2);
  const auto [top, bottom] = b.add_balancer2(in[0], in[1]);
  const topo::WireId outs[2] = {top, bottom};
  b.set_outputs(outs);
  return std::move(b).build();
}

TEST(TokenSim, SingleTokenNoStalls) {
  const auto net = single22();
  SimConfig cfg{.concurrency = 1, .total_tokens = 1};
  RoundRobinScheduler sched;
  const auto res = simulate(net, cfg, sched);
  EXPECT_EQ(res.total_stalls, 0u);
  EXPECT_EQ(res.tokens, 1u);
  ASSERT_EQ(res.counter_values.size(), 1u);
  EXPECT_EQ(res.counter_values[0], 0);
}

TEST(TokenSim, SequentialTokensNeverStall) {
  // One process: at most one token in flight, so no one ever waits.
  const auto net = core::make_counting(4, 8);
  SimConfig cfg{.concurrency = 1, .total_tokens = 64};
  RandomScheduler sched(1);
  const auto res = simulate(net, cfg, sched);
  EXPECT_EQ(res.total_stalls, 0u);
  EXPECT_EQ(res.max_queue, 1u);
}

TEST(TokenSim, TwoTokensOneBalancerExactStalls) {
  // Both processes enter the same balancer; whoever fires first stalls the
  // other exactly once.
  topo::Builder b;
  const auto in = b.add_network_inputs(1);
  b.set_outputs(b.add_balancer(in, 2));
  const auto net = std::move(b).build();
  SimConfig cfg{.concurrency = 2, .total_tokens = 2};
  RoundRobinScheduler sched;
  const auto res = simulate(net, cfg, sched);
  EXPECT_EQ(res.total_stalls, 1u);
  EXPECT_EQ(res.max_queue, 2u);
}

TEST(TokenSim, ConvoyOfNAtOneBalancerQuadraticStalls) {
  // n tokens queued at one (1,2)-balancer drain with n(n-1)/2 stalls.
  topo::Builder b;
  const auto in = b.add_network_inputs(1);
  b.set_outputs(b.add_balancer(in, 2));
  const auto net = std::move(b).build();
  for (const std::size_t n : {2u, 4u, 8u, 16u}) {
    SimConfig cfg{.concurrency = n, .total_tokens = n};
    WavefrontConvoyScheduler sched;
    const auto res = simulate(net, cfg, sched);
    EXPECT_EQ(res.total_stalls, n * (n - 1) / 2) << n;
  }
}

TEST(TokenSim, CounterValuesAreExactRange) {
  const auto net = core::make_counting(8, 16);
  for (const auto kind : {SchedulerKind::kRandom, SchedulerKind::kRoundRobin,
                          SchedulerKind::kWavefrontConvoy}) {
    SimConfig cfg{.concurrency = 13, .total_tokens = 509};
    auto sched = make_scheduler(kind, 7);
    const auto res = simulate(net, cfg, *sched);
    EXPECT_TRUE(test::is_exact_range(res.counter_values))
        << scheduler_name(kind);
  }
}

TEST(TokenSim, OutputCountsMatchQuiescentEvaluator) {
  // After the simulation the per-output token counts must equal the
  // quiescent evaluation of the per-input injection counts.
  const auto net = core::make_counting(4, 8);
  const std::size_t n = 5, m = 137;
  SimConfig cfg{.concurrency = n, .total_tokens = m};
  RandomScheduler sched(99);
  const auto res = simulate(net, cfg, sched);
  (void)n;
  EXPECT_EQ(seq::sum(res.input_counts), static_cast<seq::Value>(m));
  EXPECT_EQ(res.output_counts, topo::evaluate(net, res.input_counts));
}

TEST(TokenSim, StallsPerLayerSumToTotal) {
  const auto net = baselines::make_bitonic(8);
  SimConfig cfg{.concurrency = 16, .total_tokens = 1024};
  WavefrontConvoyScheduler sched;
  const auto res = simulate(net, cfg, sched);
  const std::uint64_t by_layer = std::accumulate(
      res.stalls_per_layer.begin(), res.stalls_per_layer.end(), 0ULL);
  const std::uint64_t by_balancer = std::accumulate(
      res.stalls_per_balancer.begin(), res.stalls_per_balancer.end(), 0ULL);
  EXPECT_EQ(by_layer, res.total_stalls);
  EXPECT_EQ(by_balancer, res.total_stalls);
  EXPECT_GT(res.total_stalls, 0u);
}

TEST(TokenSim, DiffractingTreeSingleEntryWorks) {
  const auto net = baselines::make_diffracting_tree(8);
  SimConfig cfg{.concurrency = 6, .total_tokens = 200};
  RandomScheduler sched(3);
  const auto res = simulate(net, cfg, sched);
  EXPECT_TRUE(test::is_exact_range(res.counter_values));
}

TEST(TokenSim, MoreProcessesThanTokens) {
  const auto net = single22();
  SimConfig cfg{.concurrency = 64, .total_tokens = 5};
  RoundRobinScheduler sched;
  const auto res = simulate(net, cfg, sched);
  EXPECT_TRUE(test::is_exact_range(res.counter_values));
}

TEST(TokenSim, RejectsZeroTokensOrProcesses) {
  const auto net = single22();
  RoundRobinScheduler sched;
  SimConfig no_tokens{.concurrency = 1, .total_tokens = 0};
  EXPECT_THROW((void)simulate(net, no_tokens, sched), std::invalid_argument);
  SimConfig no_procs{.concurrency = 0, .total_tokens = 1};
  EXPECT_THROW((void)simulate(net, no_procs, sched), std::invalid_argument);
}

TEST(TokenSim, DeterministicForSameSeed) {
  const auto net = core::make_counting(8, 8);
  SimConfig cfg{.concurrency = 9, .total_tokens = 300};
  RandomScheduler s1(123), s2(123);
  const auto r1 = simulate(net, cfg, s1);
  const auto r2 = simulate(net, cfg, s2);
  EXPECT_EQ(r1.total_stalls, r2.total_stalls);
  EXPECT_EQ(r1.counter_values, r2.counter_values);
}

TEST(TokenSim, CollectionFlagsRespected) {
  const auto net = single22();
  SimConfig cfg{.concurrency = 2, .total_tokens = 10,
                .collect_counter_values = false,
                .collect_per_balancer = false};
  RoundRobinScheduler sched;
  const auto res = simulate(net, cfg, sched);
  EXPECT_TRUE(res.counter_values.empty());
  EXPECT_TRUE(res.stalls_per_balancer.empty());
  EXPECT_EQ(seq::sum(res.output_counts), 10);
}

// Pass-through wires: a token that enters on a balancer-free wire exits at
// injection, and its process must inject its next token right away. Both
// token-level entry points run the one step machine, so they agree.
void expect_exact_everywhere(const topo::Topology& net, std::size_t procs,
                             std::size_t tokens) {
  for (const SchedulerKind kind :
       {SchedulerKind::kRandom, SchedulerKind::kRoundRobin,
        SchedulerKind::kWavefrontConvoy, SchedulerKind::kGreedyMaxQueue}) {
    SCOPED_TRACE(scheduler_name(kind));
    const auto sched = make_scheduler(kind, 7);
    const auto res = simulate(
        net, {.concurrency = procs, .total_tokens = tokens}, *sched);
    EXPECT_TRUE(test::is_exact_range(res.counter_values));
    EXPECT_EQ(seq::sum(res.output_counts), static_cast<seq::Value>(tokens));
  }
  const auto mc = explore_all_executions(
      net, {.concurrency = procs, .total_tokens = tokens});
  EXPECT_EQ(mc.executions, 1u);
  EXPECT_TRUE(mc.all_exact);
}

TEST(TokenSim, PassThroughWireReinjectsItsProcess) {
  // One wire, no balancers: every token exits at injection.
  topo::Builder b;
  const auto in = b.add_network_inputs(1);
  b.set_outputs(in);
  expect_exact_everywhere(std::move(b).build(), 1, 3);
}

TEST(TokenSim, BalancerPlusPassThroughWireIsExact) {
  // Wire 0 through a (1,1)-balancer to output 1, wire 1 straight to
  // output 0. Process 1 takes tokens 1 and 2 at injection (values 0, 2);
  // process 0's queued token takes value 1.
  topo::Builder b;
  const auto in = b.add_network_inputs(2);
  const auto out = b.add_balancer(std::span(in).first(1), 1);
  const topo::WireId outs[2] = {in[1], out[0]};
  b.set_outputs(outs);
  expect_exact_everywhere(std::move(b).build(), 2, 3);
}

}  // namespace
}  // namespace cnet::sim
