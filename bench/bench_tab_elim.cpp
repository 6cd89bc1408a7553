// Elimination front-end under mixed inc/dec load, plus the adaptive
// backend's switch behavior — the two svc layers this bench exists to keep
// honest.
//
// Table A — hit-rate vs thread count: a 50/50 fetch_increment /
//           try_fetch_decrement mix on the batched network backend, with
//           and without the ElimCounter front-end. The elimination claims:
//           hit-rate > 0 once ≥2 threads collide, and network traversals
//           per op strictly below the plain backend's (paired ops never
//           enter the network).
// Table B — hit-rate vs mix ratio at a fixed thread count: collisions need
//           both streams, so the hit-rate should rise toward the balanced
//           50% mix and starve at inc-only.
// Table C — adaptive backend: balanced consume/refill traffic starting on
//           the central word; reports the observed stall rate and whether
//           the LoadStats probe triggered the central→network swap.
//
// Every table runs on the shared live harness (bench/support/live.hpp);
// thread counts the affinity mask cannot give one CPU each run co-scheduled,
// and their cells say so.
//
// After every run the conservation invariant is drained and recorded as a
// named check (--json + exit code), which CI gates on: successful
// decrements plus what remains in the pool must equal the increments,
// elimination included.
#include <cstdint>
#include <string>
#include <vector>

#include "cnet/svc/adaptive.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/elimination.hpp"
#include "cnet/util/cacheline.hpp"
#include "cnet/util/prng.hpp"
#include "cnet/util/table.hpp"
#include "support/live.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

// Pure throughput: no latency samples. Smoke windows are small enough for
// a loaded CI runner to swallow whole; the 64-op floor every run passes
// keeps each row non-vacuous.
perfbench::PhasePlan plan_for(bool smoke) {
  return smoke ? perfbench::PhasePlan{0.01, 0.05, 10, 0}
               : perfbench::PhasePlan{0.1, 0.5, 10, 0};
}

struct MixedRunResult {
  double ops_per_sec = 0.0;
  std::uint64_t incs = 0;
  std::uint64_t decs = 0;        // successful decrements only
  std::uint64_t ops = 0;         // incs + dec attempts (lifetime)
  std::uint64_t pairs = 0;       // eliminated inc/dec pairs
  std::uint64_t traversals = 0;  // tokens/antitokens into the network
  bool conserved = false;        // decs + drained remainder == incs
};

// Runs a mixed workload — each op is a decrement attempt with probability
// dec_percent/100, an increment otherwise — then drains the counter and
// verifies conservation.
MixedRunResult run_mixed(const svc::BackendSpec& spec, std::size_t threads,
                         unsigned dec_percent, bool smoke) {
  svc::BackendConfig cfg;
  // One exchange slot per thread: undersized arrays collapse when the
  // machine is oversubscribed and parked waiters hold every slot (see
  // EliminationLayer::Config::slots).
  cfg.elim.layer.slots = threads;
  const auto counter = svc::make_counter(spec, cfg);
  const auto* elim = dynamic_cast<const svc::ElimCounter*>(counter.get());

  struct alignas(util::kCacheLine) Tally {
    std::uint64_t incs = 0;
    std::uint64_t decs = 0;
    std::uint64_t ops = 0;
    std::uint64_t rng = 0;
  };
  std::vector<Tally> tallies(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    tallies[t].rng = 0x9e3779b97f4a7c15ULL * (t + 1) + 0xe11b;
  }

  const auto run = bench::run_live(threads, plan_for(smoke), 64,
                                   [&](std::size_t c) {
    return [&counter, &tally = tallies[c], c, dec_percent] {
      ++tally.ops;
      if (util::xorshift64_star(tally.rng) % 100 < dec_percent) {
        if (counter->try_fetch_decrement(c)) ++tally.decs;
      } else {
        (void)counter->fetch_increment(c);
        ++tally.incs;
      }
      return true;
    };
  });

  MixedRunResult result;
  result.ops_per_sec = run.ops_per_s();
  for (const auto& tally : tallies) {
    result.incs += tally.incs;
    result.decs += tally.decs;
    result.ops += tally.ops;
  }
  result.pairs = elim != nullptr ? elim->layer().pairs() : 0;
  result.traversals = counter->traversal_count();

  // Quiescent drain: everything the run left in the pool must be exactly
  // the inc/dec imbalance — elimination must not create or leak tokens.
  std::uint64_t drained = 0;
  for (std::uint64_t got;
       (got = counter->try_fetch_decrement_n(0, 256)) != 0;) {
    drained += got;
  }
  result.conserved = result.decs + drained == result.incs;
  return result;
}

std::string hit_rate_cell(const MixedRunResult& r) {
  // Both sides of a pair are eliminated ops.
  return util::fmt_double(
             r.ops == 0 ? 0.0
                        : 100.0 * 2.0 * static_cast<double>(r.pairs) /
                              static_cast<double>(r.ops),
             1) +
         "%";
}

std::string trav_per_op_cell(const MixedRunResult& r) {
  return util::fmt_double(r.ops == 0 ? 0.0
                                     : static_cast<double>(r.traversals) /
                                           static_cast<double>(r.ops),
                          3);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);

  const svc::BackendSpec plain{svc::BackendKind::kBatchedNetwork, false};
  const svc::BackendSpec elim{svc::BackendKind::kBatchedNetwork, true};

  const std::vector<std::size_t> thread_sweep =
      opts.smoke ? std::vector<std::size_t>{4}
                 : std::vector<std::size_t>{2, 4, 8};
  bench::section("Table A: elimination vs threads, 50/50 inc/dec mix");
  {
    util::Table table(
        {"backend", "thr", "ops/s", "hit-rate", "trav/op", "conserved"});
    for (const auto threads : thread_sweep) {
      for (const auto& spec : {plain, elim}) {
        const auto r = run_mixed(spec, threads, 50, opts.smoke);
        table.add_row({svc::backend_spec_name(spec),
                       util::fmt_int(threads) + bench::co_sched_flag(threads),
                       bench::fmt_rate(r.ops_per_sec), hit_rate_cell(r),
                       trav_per_op_cell(r), r.conserved ? "yes" : "NO"});
        // `ops > 0` folded in: a zero-op run conserves vacuously, and a
        // vacuous pass must read as a failure, not a green check.
        bench::check("A:conservation[" + svc::backend_spec_name(spec) + "," +
                         std::to_string(threads) + "thr,50%dec]",
                     r.conserved && r.ops > 0, opts);
      }
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: elim+ rows show hit-rate > 0 at >= 2 threads and\n"
        "strictly fewer network traversals per op — paired inc/dec ops\n"
        "cancel in the exchange slots and never enter the network. (On a\n"
        "single-core box the waiter's spin budget costs wall-clock, so the\n"
        "ops/s win needs real parallelism even though the traversal and\n"
        "hit-rate columns already show the mechanism working.)",
        opts);
  }

  std::puts("");
  const std::size_t mix_threads = 4;
  const std::vector<unsigned> mix_sweep =
      opts.smoke ? std::vector<unsigned>{50}
                 : std::vector<unsigned>{0, 25, 50};
  bench::section("Table B: elimination vs mix ratio, " +
                 std::to_string(mix_threads) + " threads" +
                 bench::co_sched_flag(mix_threads));
  {
    util::Table table(
        {"backend", "dec%", "ops/s", "hit-rate", "trav/op", "conserved"});
    for (const auto dec_percent : mix_sweep) {
      const auto r = run_mixed(elim, mix_threads, dec_percent, opts.smoke);
      table.add_row({svc::backend_spec_name(elim),
                     util::fmt_int(dec_percent),
                     bench::fmt_rate(r.ops_per_sec), hit_rate_cell(r),
                     trav_per_op_cell(r), r.conserved ? "yes" : "NO"});
      bench::check("B:conservation[" + svc::backend_spec_name(elim) + "," +
                       std::to_string(mix_threads) + "thr," +
                       std::to_string(dec_percent) + "%dec]",
                   r.conserved && r.ops > 0, opts);
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: collisions need both streams — hit-rate rises\n"
        "toward the balanced mix and is zero on the inc-only row.",
        opts);
  }

  std::puts("");
  bench::section("Table C: adaptive backend, balanced consume/refill");
  {
    util::Table table({"thr", "ops/s", "stall rate", "switched", "serving"});
    for (const auto threads : thread_sweep) {
      svc::AdaptiveCounter::Config cfg;
      cfg.tuning.sample_interval = 512;
      cfg.tuning.min_window_ops = 1024;
      svc::AdaptiveCounter counter(cfg);

      const auto r = bench::run_live(threads, plan_for(opts.smoke), 64,
                                     [&](std::size_t c) {
        // Each thread alternates a 64-token refill with 64 consumes, so the
        // pool stays balanced and both counter paths see contention.
        return [&counter, c, credit = 0u]() mutable {
          if (credit == 0) {
            std::int64_t scratch[64];
            counter.fetch_increment_batch(c, 64, scratch);
            credit = 64;
          } else {
            --credit;
            (void)counter.try_fetch_decrement(c);
          }
          return true;
        };
      });
      // A 65-call cycle (one 64-token refill, 64 consumes) is 128 token
      // ops; the column counts token ops.
      const double ops_per_s = r.ops_per_s() * 128.0 / 65.0;
      const double stall_rate =
          counter.stats().ops() == 0
              ? 0.0
              : static_cast<double>(counter.stall_count()) /
                    static_cast<double>(counter.stats().ops());
      table.add_row({util::fmt_int(threads) + bench::co_sched_flag(threads),
                     bench::fmt_rate(ops_per_s),
                     util::fmt_double(stall_rate, 4),
                     counter.switched() ? "yes" : "no", counter.name()});
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: on contended multi-core hardware the bounded-\n"
        "decrement CAS retries push the stall rate over the threshold and\n"
        "the counter swaps to the batched network mid-run; on an idle or\n"
        "single-core box it honestly stays central.",
        opts);
    bench::note_co_scheduled(thread_sweep.back(), opts);
  }

  return bench::finish(opts);
}
