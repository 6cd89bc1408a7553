// The experimental comparison of [19,20] (Klein; Klein–Busch–Musser),
// regenerated in the discrete-event queueing model: sustained throughput
// and mean operation latency of each counting structure as concurrency
// grows, with every balancer a unit-time server.
//
// Expected shape (matches the cited study): the central counter wins at
// n = 1 but saturates at 1/service; counting networks scale; at high n the
// wide-output C(w, w·lgw) sustains the highest network throughput because
// its N_c block spreads the queueing over t servers, while the periodic
// network trails (twice the depth). The diffracting tree sits between the
// central counter and the networks (depth lg w but a serial root).
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/difftree.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/sim/timed_sim.hpp"
#include "cnet/util/bitops.hpp"
#include "cnet/util/table.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

sim::TimedResult run(const topo::Topology& net, std::size_t n) {
  sim::TimedConfig cfg;
  cfg.concurrency = n;
  cfg.total_tokens = std::max<std::size_t>(4000, 24 * n);
  cfg.service_time = 1.0;
  cfg.wire_delay = 0.2;
  // Exponential service: memory/interconnect access times on a real
  // multiprocessor are highly variable, and the variance is what makes
  // queueing depth (and hence the width of N_c) matter.
  cfg.exponential_service = true;
  cfg.seed = 0xC0FFEE;
  return sim::simulate_timed(net, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);
  const std::size_t w = 16;
  const std::size_t lgw = util::ilog2(w);

  struct Net {
    std::string name;
    topo::Topology topo;
  };
  std::vector<Net> nets;
  // The central counter is a single server every token must pass: a
  // width-1 network with one (1,1)-balancer.
  {
    topo::Builder b;
    const auto in = b.add_network_inputs(1);
    b.set_outputs(b.add_balancer(in, 1));
    nets.push_back({"central(1 server)", std::move(b).build()});
  }
  nets.push_back({"difftree(16)", baselines::make_diffracting_tree(w)});
  nets.push_back({"bitonic(16)", baselines::make_bitonic(w)});
  nets.push_back({"periodic(16)", baselines::make_periodic(w)});
  nets.push_back({"C(16,16)", core::make_counting(w, w)});
  nets.push_back({"C(16,64)", core::make_counting(w, w * lgw)});

  std::puts("=================================================================");
  std::puts(" [19,20] shape: throughput (tokens/unit time) vs concurrency n");
  std::puts(" (unit-time balancer servers, wire delay 0.2, closed loop)");
  std::puts("=================================================================");
  {
    std::vector<std::string> headers = {"n"};
    for (const auto& net : nets) headers.push_back(net.name);
    util::Table table(headers);
    std::vector<double> at16, at256;  // per net, for the shape checks
    for (const std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
      std::vector<std::string> row = {
          util::fmt_int(static_cast<std::int64_t>(n))};
      for (const auto& net : nets) {
        const double tp = run(net.topo, n).throughput;
        if (n == 16) at16.push_back(tp);
        if (n == 256) at256.push_back(tp);
        row.push_back(util::fmt_double(tp, 2));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);

    // The expected shape below, as checks: at n = 256 the wide-output
    // C(16,64) (last column) out-runs every other structure, and the
    // central server (first column) is already saturated at n = 16.
    const std::size_t wide = nets.size() - 1;
    bool wide_wins = true;
    for (std::size_t i = 0; i < wide; ++i) {
      wide_wins = wide_wins && at256[wide] > at256[i];
    }
    bench::check("throughput_sim_wide_output_wins", wide_wins, opts);
    bench::check("throughput_sim_central_saturates",
                 std::abs(at256[0] - at16[0]) <= 0.05 * at16[0], opts);
  }

  std::puts("");
  bench::section("mean Fetch&Increment latency (time units) vs concurrency n");
  {
    std::vector<std::string> headers = {"n"};
    for (const auto& net : nets) headers.push_back(net.name);
    util::Table table(headers);
    for (const std::size_t n : {1u, 8u, 64u, 256u}) {
      std::vector<std::string> row = {
          util::fmt_int(static_cast<std::int64_t>(n))};
      for (const auto& net : nets) {
        row.push_back(util::fmt_double(run(net.topo, n).mean_latency, 1));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
  }
  bench::note(
      "\nexpected shape: the central server caps at 1.0; counting networks\n"
      "scale with n; at n >> w, C(16,64) sustains the best network\n"
      "throughput and the lowest latency growth; periodic trails (depth\n"
      "lg^2 w); the diffracting tree caps at its root's service rate.", opts);
  return cnet::bench::finish(opts);
}
