// Table B′ — the multi-core rerun of bench_tab_svc Table B, answered in
// virtual time: sim::simulate_multicore drives the svc-layer models with P
// simulated cores, so the central→network crossover and the organic
// adaptive switch are observable (and CI-gated) on any host, including the
// 1-vCPU dev container where the real-thread bench cannot contend a cache
// line. Deterministic from the fixed seed: every number reproduces
// bit-identically.
//
// Table B′ — consume(1) ops per virtual second for every backend spec as
//            the simulated core count grows.
// Table B′a — adaptive detail: organic switch time, ops at the switch,
//            observed stall events per core count.
// Table B′e — elimination detail: pairs / withdrawals per core count.
//
// Named checks (fail the run via --json, which is what CI gates on):
//   svc_sim_conservation                — every spec × core count conserves
//                                         tokens exactly, pool bound at 0;
//   svc_sim_crossover_network_vs_central— network >= 2x central-atomic
//                                         ops/virtual-sec at the largest
//                                         core count;
//   svc_sim_central_wins_singlecore     — ...and the opposite at 1 core,
//                                         the paper's other half;
//   svc_sim_adaptive_organic_switch     — the adaptive spec switched on its
//                                         own at the largest core count;
//   svc_sim_adaptive_stays_cold_singlecore — and did not at 1 core;
//   svc_sim_elim_pairs_recorded         — the elimination front-end paired
//                                         ops at the largest core count;
//   svc_sim_determinism                 — a re-run with the same seed
//                                         reproduces Table B′ exactly.
#include <string>
#include <vector>

#include "cnet/sim/multicore.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/util/table.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

sim::MulticoreConfig base_config(std::size_t cores, bool smoke) {
  sim::MulticoreConfig cfg;
  cfg.cores = cores;
  cfg.ops_per_core = smoke ? 512 : 2048;
  cfg.refill_every = smoke ? 64 : 256;
  cfg.initial_tokens_per_core = cfg.refill_every;
  // Exponential service draws: access-time variance is what makes queueing
  // depth (and the network's width) matter, as in bench_tab_throughput_sim.
  cfg.exponential_service = true;
  cfg.seed = 0xB10C0DE;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);

  const std::vector<std::size_t> core_sweep =
      opts.smoke ? std::vector<std::size_t>{1, 4, 16}
                 : std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64};
  const std::size_t max_cores = core_sweep.back();
  const auto specs = sim::multicore_sweep_specs();

  // One pass over spec × cores; everything below reads from this grid.
  std::vector<std::vector<sim::MulticoreResult>> grid(specs.size());
  bool all_conserved = true;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (const auto cores : core_sweep) {
      grid[s].push_back(
          sim::simulate_multicore(specs[s], base_config(cores, opts.smoke)));
      all_conserved = all_conserved && grid[s].back().conserved;
    }
  }
  auto result_for = [&](const svc::BackendSpec& want,
                        std::size_t cores) -> const sim::MulticoreResult& {
    for (std::size_t s = 0; s < specs.size(); ++s) {
      if (specs[s].kind != want.kind ||
          specs[s].elimination != want.elimination) {
        continue;
      }
      for (std::size_t c = 0; c < core_sweep.size(); ++c) {
        if (core_sweep[c] == cores) return grid[s][c];
      }
    }
    std::abort();  // spec_list/core_sweep are closed sets
  };

  bench::section("Table B': consume(1) ops per virtual sec vs simulated cores");
  {
    std::vector<std::string> header{"backend"};
    for (const auto c : core_sweep) {
      header.push_back(std::to_string(c) + " cores");
    }
    util::Table table(header);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      std::vector<std::string> row{svc::backend_spec_name(specs[s])};
      for (std::size_t c = 0; c < core_sweep.size(); ++c) {
        row.push_back(util::fmt_double(grid[s][c].ops_per_vtime, 3));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
    const double central1 =
        result_for({svc::BackendKind::kCentralAtomic, false}, 1)
            .ops_per_vtime;
    const double network1 =
        result_for({svc::BackendKind::kNetwork, false}, 1).ops_per_vtime;
    const double centralP =
        result_for({svc::BackendKind::kCentralAtomic, false}, max_cores)
            .ops_per_vtime;
    const double networkP =
        result_for({svc::BackendKind::kNetwork, false}, max_cores)
            .ops_per_vtime;
    bench::note("\nnetwork/central-atomic at " + std::to_string(max_cores) +
                    " cores: " + util::fmt_ratio(networkP, centralP, 2) +
                    "   at 1 core: " + util::fmt_ratio(network1, central1, 2) +
                    "\n(the paper's inversion: the central word wins "
                    "uncontended, the\nnetwork wins once the word is the "
                    "bottleneck)",
                opts);
    bench::check("svc_sim_crossover_network_vs_central",
                 networkP >= 2.0 * centralP, opts);
    bench::check("svc_sim_central_wins_singlecore", central1 > network1,
                 opts);
  }

  std::puts("");
  bench::section("Table B'a: adaptive backend, organic switch vs cores");
  {
    util::Table table({"cores", "switched", "switch vtime", "ops at switch",
                       "stall events", "ops/vsec"});
    const svc::BackendSpec adaptive{svc::BackendKind::kAdaptive, false};
    for (const auto cores : core_sweep) {
      const auto& r = result_for(adaptive, cores);
      table.add_row({std::to_string(cores), r.switched ? "yes" : "no",
                     r.switched ? util::fmt_double(r.switch_time, 2) : "-",
                     r.switched ? std::to_string(r.ops_at_switch) : "-",
                     std::to_string(r.stall_events),
                     util::fmt_double(r.ops_per_vtime, 3)});
    }
    bench::emit(table, opts);
    bench::note(
        "\nthe switch is organic: no force_switch, just the shared\n"
        "svc::should_switch rule over windows of simulated stall events.",
        opts);
    bench::check("svc_sim_adaptive_organic_switch",
                 result_for(adaptive, max_cores).switched, opts);
    bench::check("svc_sim_adaptive_stays_cold_singlecore",
                 !result_for(adaptive, 1).switched, opts);
  }

  std::puts("");
  bench::section("Table B'e: elimination front-end pairing vs cores");
  {
    util::Table table({"backend", "cores", "pairs", "withdrawals",
                       "pairs/1k ops"});
    for (std::size_t s = 0; s < specs.size(); ++s) {
      if (!specs[s].elimination) continue;
      for (std::size_t c = 0; c < core_sweep.size(); ++c) {
        const auto& r = grid[s][c];
        table.add_row(
            {svc::backend_spec_name(specs[s]),
             std::to_string(core_sweep[c]), std::to_string(r.elim_pairs),
             std::to_string(r.elim_withdrawals),
             util::fmt_double(1000.0 * static_cast<double>(r.elim_pairs) /
                                  static_cast<double>(r.consume_ops),
                              2)});
      }
    }
    bench::emit(table, opts);
    bench::note(
        "\nconsume-heavy mix: decrements deposit briefly, bulk refills\n"
        "catch them — pairs never enter the backend at all.",
        opts);
    const svc::BackendSpec elim_batched{svc::BackendKind::kBatchedNetwork,
                                        true};
    bench::check("svc_sim_elim_pairs_recorded",
                 result_for(elim_batched, max_cores).elim_pairs > 0, opts);
  }

  bench::check("svc_sim_conservation", all_conserved, opts);

  // Determinism: the whole point of answering Table B in virtual time is
  // that the numbers reproduce anywhere — re-run one cell and compare
  // the whole result.
  {
    const svc::BackendSpec adaptive{svc::BackendKind::kAdaptive, false};
    const auto& first = result_for(adaptive, max_cores);
    const auto again = sim::simulate_multicore(
        adaptive, base_config(max_cores, opts.smoke));
    bench::check("svc_sim_determinism", first == again, opts);
  }

  return bench::finish(opts);
}
