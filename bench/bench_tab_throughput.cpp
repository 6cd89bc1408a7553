// Experimental analysis (paper §1.3.1's reference to [19,20]): sustained
// Fetch&Increment throughput of every counter implementation under real
// threads on the shared live harness (bench/support/live.hpp: pinned
// callers, seeded-gap latency samples, median-of-windows rates), plus the
// batched-token runtime (BatchedNetworkCounter::fetch_increment_batch)
// against the per-token baseline — the batching lever that cuts per-value
// atomic traffic by up to k×. Thread counts the affinity mask cannot give
// one CPU each run co-scheduled, and their columns say so.
//
// NOTE: the paper's cited experiments ran on 10 UltraSparc workstations;
// this harness runs wherever you build it. On a few-core host the
// wall-clock ordering is dominated by path length (central counter first,
// deeper networks slower) — the contention separation that favours
// C(w, w·lgw) at high concurrency is reproduced in bench_tab_contention's
// adversarial simulation, which is the measure the theorems speak about.
// Batching wins regardless of core count because it removes atomic RMWs
// per token outright.
//
// --smoke shrinks the windows (every thread count, the n=8 check
// included, still runs); numbers from a smoke run are meaningless.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/runtime/central.hpp"
#include "cnet/runtime/difftree_rt.hpp"
#include "cnet/runtime/network_counter.hpp"
#include "cnet/util/table.hpp"
#include "support/live.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

perfbench::PhasePlan plan_for(bool smoke) {
  return smoke ? perfbench::PhasePlan{0.01, 0.05, 10, 1u << 12}
               : perfbench::PhasePlan{0.1, 0.3, 10, 1u << 16};
}

// Per-token load: one fetch_increment per call.
bench::LiveRun hammer(rt::Counter& counter, std::size_t threads,
                      const perfbench::PhasePlan& plan) {
  return bench::run_live(threads, plan, 1, [&](std::size_t c) {
    return [&counter, c] {
      volatile std::int64_t sink = counter.fetch_increment(c);
      (void)sink;
      return true;
    };
  });
}

// Batched load: one fetch_increment_batch(k) per call; the caller scales
// the call rate by k to count tokens.
bench::LiveRun hammer_batch(rt::Counter& counter, std::size_t threads,
                            std::size_t k, const perfbench::PhasePlan& plan) {
  return bench::run_live(threads, plan, 1, [&](std::size_t c) {
    return [&counter, c, k, buffer = std::vector<std::int64_t>(k)]() mutable {
      counter.fetch_increment_batch(c, k, buffer.data());
      volatile std::int64_t sink = buffer[k - 1];
      (void)sink;
      return true;
    };
  });
}

// {first, "n=1", ..., "n=8", rest...}; a thread column the host cannot
// give one CPU per caller is flagged.
std::vector<std::string> columns(const std::string& first,
                                 std::initializer_list<std::string> rest) {
  std::vector<std::string> headers{first};
  for (const std::size_t n : kThreadCounts) {
    headers.push_back("n=" + std::to_string(n) + bench::co_sched_flag(n));
  }
  headers.insert(headers.end(), rest);
  return headers;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);

  struct Backend {
    std::string label;
    std::unique_ptr<rt::Counter> counter;
  };
  std::vector<Backend> backends;
  backends.push_back({"central-atomic", std::make_unique<rt::AtomicCounter>()});
  backends.push_back({"central-cas", std::make_unique<rt::CasCounter>()});
  backends.push_back({"central-mutex", std::make_unique<rt::MutexCounter>()});
  backends.push_back({"bitonic(8)", std::make_unique<rt::NetworkCounter>(
                                        baselines::make_bitonic(8),
                                        "bitonic(8)")});
  backends.push_back({"periodic(8)", std::make_unique<rt::NetworkCounter>(
                                         baselines::make_periodic(8),
                                         "periodic(8)")});
  backends.push_back({"C(8,8)", std::make_unique<rt::NetworkCounter>(
                                    core::make_counting(8, 8), "C(8,8)")});
  backends.push_back({"C(8,24)", std::make_unique<rt::NetworkCounter>(
                                     core::make_counting(8, 24), "C(8,24)")});
  backends.push_back(
      {"C(8,24)/cas", std::make_unique<rt::NetworkCounter>(
                          core::make_counting(8, 24), "C(8,24)/cas",
                          rt::BalancerMode::kCasRetry)});
  {
    rt::DiffractingTreeCounter::Config cfg;
    cfg.leaves = 8;
    cfg.partner_spins = 4;  // collisions are rare on few-core hosts
    backends.push_back(
        {"difftree(8)", std::make_unique<rt::DiffractingTreeCounter>(cfg)});
  }

  const perfbench::PhasePlan plan = plan_for(opts.smoke);
  bench::section("Fetch&Increment throughput vs threads (per-token)");
  {
    util::Table table(columns("backend", {"p50", "p99", "stalls"}));
    for (auto& backend : backends) {
      std::vector<std::string> row = {backend.label};
      bench::LiveRun last;
      for (const std::size_t n : kThreadCounts) {
        last = hammer(*backend.counter, n, plan);
        row.push_back(bench::fmt_rate(last.ops_per_s()));
      }
      row.push_back(bench::fmt_ns(last.p50_ns));
      row.push_back(bench::fmt_ns(last.p99_ns));
      row.push_back(util::fmt_int(
          static_cast<std::int64_t>(backend.counter->stall_count())));
      table.add_row(row);
    }
    bench::emit(table, opts);
    bench::note(
        "\nrates are tokens/sec, the median of 10 windows over a " +
            util::fmt_double(plan.measure_s, 2) + "s measured\nphase after " +
            util::fmt_double(plan.warmup_s, 2) +
            "s warmup; p50/p99 are per-op latencies at n=8; stalls are\n"
            "CAS retries accumulated across the whole run (cas backends "
            "only).",
        opts);
    bench::note_co_scheduled(kThreadCounts[3], opts);
  }

  // The tentpole comparison: the same C(w, w·lgw) network traversed
  // per-token vs in k-token batches. One fetch_add(k) per balancer and one
  // cell RMW per exit wire replace k·depth(+1) RMWs.
  std::printf("\n");
  bench::section("Batched tokens on C(8,24): k-token batches vs per-token");
  double per_token_at8 = 0.0, batched_at8 = 0.0;
  {
    const auto net = core::make_counting(8, 24);
    util::Table table(columns("mode", {"p50(call)", "vs per-token @n=8"}));
    {
      rt::NetworkCounter counter(net, "C(8,24)");
      std::vector<std::string> row = {"per-token"};
      bench::LiveRun last;
      for (const std::size_t n : kThreadCounts) {
        last = hammer(counter, n, plan);
        row.push_back(bench::fmt_rate(last.ops_per_s()));
      }
      per_token_at8 = last.ops_per_s();
      row.push_back(bench::fmt_ns(last.p50_ns));
      row.push_back("1.00x");
      table.add_row(row);
    }
    for (const std::size_t k : {8u, 64u}) {
      rt::BatchedNetworkCounter counter(net, "batched C(8,24)");
      std::vector<std::string> row = {"batch k=" + std::to_string(k)};
      bench::LiveRun last;
      double tokens_per_s = 0.0;
      for (const std::size_t n : kThreadCounts) {
        last = hammer_batch(counter, n, k, plan);
        tokens_per_s = last.ops_per_s() * static_cast<double>(k);
        row.push_back(bench::fmt_rate(tokens_per_s));
      }
      if (k == 64) batched_at8 = tokens_per_s;
      row.push_back(bench::fmt_ns(last.p50_ns));
      row.push_back(util::fmt_double(tokens_per_s / per_token_at8, 2) + "x");
      table.add_row(row);
    }
    bench::emit(table, opts);
  }
  std::printf("\nbatched (k=64) vs per-token at n=8 threads: %.2fx %s\n",
              batched_at8 / per_token_at8,
              batched_at8 >= 2.0 * per_token_at8 ? "(>= 2x target met)"
                                                 : "(below 2x target)");
  bench::check("batched >= 2x per-token at n=8",
               batched_at8 >= 2.0 * per_token_at8, opts);
  return bench::finish(opts);
}
