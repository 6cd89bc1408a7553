#include "cnet/topology/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/difftree.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/topology/dot.hpp"
#include "cnet/topology/routing.hpp"

namespace cnet::topo {
namespace {

// A single (2,2)-balancer network.
Topology single_balancer() {
  Builder b;
  const auto in = b.add_network_inputs(2);
  const auto [top, bottom] = b.add_balancer2(in[0], in[1]);
  const WireId outs[2] = {top, bottom};
  b.set_outputs(outs);
  return std::move(b).build();
}

TEST(Builder, SingleBalancerShape) {
  const Topology t = single_balancer();
  EXPECT_EQ(t.width_in(), 2u);
  EXPECT_EQ(t.width_out(), 2u);
  EXPECT_EQ(t.num_balancers(), 1u);
  EXPECT_EQ(t.num_wires(), 4u);
  EXPECT_EQ(t.depth(), 1u);
  EXPECT_TRUE(t.is_regular());
}

TEST(Builder, IrregularBalancer) {
  Builder b;
  const auto in = b.add_network_inputs(2);
  const auto out = b.add_balancer(in, 6);
  b.set_outputs(out);
  const Topology t = std::move(b).build();
  EXPECT_EQ(t.width_out(), 6u);
  EXPECT_FALSE(t.is_regular());
  const auto census = t.census();
  ASSERT_EQ(census.size(), 1u);
  EXPECT_EQ(census[0].fan_in, 2u);
  EXPECT_EQ(census[0].fan_out, 6u);
  EXPECT_EQ(census[0].count, 1u);
}

TEST(Builder, RejectsDoubleConsumption) {
  Builder b;
  const auto in = b.add_network_inputs(2);
  (void)b.add_balancer2(in[0], in[1]);
  EXPECT_THROW((void)b.add_balancer2(in[0], in[1]), std::invalid_argument);
}

TEST(Builder, RejectsDanglingWires) {
  Builder b;
  const auto in = b.add_network_inputs(2);
  const auto [top, bottom] = b.add_balancer2(in[0], in[1]);
  (void)bottom;  // never consumed nor declared an output
  const WireId outs[1] = {top};
  b.set_outputs(outs);
  EXPECT_THROW((void)std::move(b).build(), std::invalid_argument);
}

TEST(Builder, RejectsBuildWithoutOutputs) {
  Builder b;
  (void)b.add_network_inputs(2);
  EXPECT_THROW((void)std::move(b).build(), std::invalid_argument);
}

TEST(Builder, RejectsOutputOfConsumedWire) {
  Builder b;
  const auto in = b.add_network_inputs(2);
  const auto [top, bottom] = b.add_balancer2(in[0], in[1]);
  (void)top;
  (void)bottom;
  const WireId outs[1] = {in[0]};  // already consumed by the balancer
  EXPECT_THROW(b.set_outputs(outs), std::invalid_argument);
}

TEST(Builder, RejectsUnknownWire) {
  Builder b;
  (void)b.add_network_inputs(1);
  const WireId bogus{12345};
  const WireId ins[2] = {bogus, bogus};
  EXPECT_THROW((void)b.add_balancer(ins, 2), std::invalid_argument);
}

TEST(Builder, PassThroughWire) {
  // A wire can go straight from network input to network output.
  Builder b;
  const auto in = b.add_network_inputs(1);
  b.set_outputs(in);
  const Topology t = std::move(b).build();
  EXPECT_EQ(t.depth(), 0u);
  EXPECT_EQ(t.num_balancers(), 0u);
}

TEST(Topology, DepthAndLayersOfTwoLayerNetwork) {
  // Two balancers in series on two wires, plus one parallel balancer.
  Builder b;
  const auto in = b.add_network_inputs(4);
  const auto [a0, a1] = b.add_balancer2(in[0], in[1]);
  const auto [b0, b1] = b.add_balancer2(a0, a1);
  const auto [c0, c1] = b.add_balancer2(in[2], in[3]);
  const WireId outs[4] = {b0, b1, c0, c1};
  b.set_outputs(outs);
  const Topology t = std::move(b).build();
  EXPECT_EQ(t.depth(), 2u);
  EXPECT_EQ(t.balancer_depth(BalancerId{0}), 1u);
  EXPECT_EQ(t.balancer_depth(BalancerId{1}), 2u);
  EXPECT_EQ(t.balancer_depth(BalancerId{2}), 1u);
  ASSERT_EQ(t.layers().size(), 2u);
  EXPECT_EQ(t.layers()[0].size(), 2u);
  EXPECT_EQ(t.layers()[1].size(), 1u);
}

TEST(Topology, ProducerConsumerEndpoints) {
  const Topology t = single_balancer();
  const WireId in0 = t.input_wires()[0];
  EXPECT_EQ(t.producer(in0).kind, WireEnd::Kind::kNetworkInput);
  EXPECT_EQ(t.consumer(in0).kind, WireEnd::Kind::kBalancer);
  const WireId out0 = t.output_wires()[0];
  EXPECT_EQ(t.producer(out0).kind, WireEnd::Kind::kBalancer);
  EXPECT_EQ(t.consumer(out0).kind, WireEnd::Kind::kNetworkOutput);
}

TEST(Topology, SummaryMentionsShape) {
  const std::string s = single_balancer().summary();
  EXPECT_NE(s.find("w=2"), std::string::npos);
  EXPECT_NE(s.find("1x(2,2)"), std::string::npos);
}

TEST(Topology, RangeChecksThrow) {
  const Topology t = single_balancer();
  EXPECT_THROW((void)t.balancer(BalancerId{5}), std::invalid_argument);
  EXPECT_THROW((void)t.producer(WireId{99}), std::invalid_argument);
  EXPECT_THROW((void)t.balancer_depth(BalancerId{9}), std::invalid_argument);
}

TEST(Dot, EmitsBalancersAndWires) {
  const std::string dot = to_dot(single_balancer(), "demo");
  EXPECT_NE(dot.find("digraph \"demo\""), std::string::npos);
  EXPECT_NE(dot.find("b0"), std::string::npos);
  EXPECT_NE(dot.find("in0 -> b0"), std::string::npos);
  EXPECT_NE(dot.find("b0 -> out0"), std::string::npos);
  EXPECT_NE(dot.find("rank=same"), std::string::npos);
}

// The shared routing table, checked entry by entry against the topology it
// was compiled from: every route[route_base[b] + p] decodes to the consumer
// of balancer b's output p, every entry[i] to the consumer of input wire i,
// and every balancer -> balancer entry points to a higher index (the order
// CompiledNetwork::traverse_batch sweeps in).
void expect_routing_matches(const Topology& net) {
  const Routing r = compile_routing(net);
  const auto expect_decodes_to = [](std::int32_t encoded,
                                    const WireEnd& consumer) {
    if (encoded < 0) {
      EXPECT_EQ(consumer.kind, WireEnd::Kind::kNetworkOutput);
      EXPECT_EQ(static_cast<std::uint32_t>(~encoded), consumer.port);
    } else {
      EXPECT_EQ(consumer.kind, WireEnd::Kind::kBalancer);
      EXPECT_EQ(static_cast<std::uint32_t>(encoded), consumer.balancer.value);
    }
  };
  ASSERT_EQ(r.fanout.size(), net.num_balancers());
  ASSERT_EQ(r.route_base.size(), net.num_balancers());
  std::size_t ports = 0;
  for (std::uint32_t b = 0; b < net.num_balancers(); ++b) {
    const Balancer& bal = net.balancer(BalancerId{b});
    ASSERT_EQ(r.fanout[b], bal.fan_out());
    ASSERT_EQ(r.route_base[b], ports);
    for (std::size_t p = 0; p < bal.fan_out(); ++p) {
      const std::int32_t dest = r.route[r.route_base[b] + p];
      expect_decodes_to(dest, net.consumer(bal.outputs[p]));
      if (dest >= 0) EXPECT_GT(static_cast<std::uint32_t>(dest), b);
    }
    ports += bal.fan_out();
  }
  EXPECT_EQ(r.route.size(), ports);
  ASSERT_EQ(r.entry.size(), net.width_in());
  for (std::size_t i = 0; i < net.width_in(); ++i) {
    expect_decodes_to(r.entry[i], net.consumer(net.input_wires()[i]));
  }
}

TEST(Routing, MatchesCountingNetwork) {
  expect_routing_matches(core::make_counting(8, 24));
}

TEST(Routing, MatchesBitonic) {
  expect_routing_matches(baselines::make_bitonic(8));
}

TEST(Routing, MatchesPeriodic) {
  expect_routing_matches(baselines::make_periodic(8));
}

TEST(Routing, MatchesDiffractingTree) {
  expect_routing_matches(baselines::make_diffracting_tree(8));
}

TEST(Routing, MatchesWidthOneSingleBalancer) {
  Builder b;
  const auto in = b.add_network_inputs(1);
  b.set_outputs(b.add_balancer(in, 1));
  const Topology net = std::move(b).build();
  expect_routing_matches(net);
  const Routing r = compile_routing(net);
  EXPECT_EQ(r.entry, std::vector<std::int32_t>{0});
  EXPECT_EQ(r.route, std::vector<std::int32_t>{~0});
}

}  // namespace
}  // namespace cnet::topo
