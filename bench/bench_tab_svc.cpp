// Service-layer throughput: the svc building blocks under live threads on
// the shared live harness (bench/support/live.hpp), each swept across every
// counter backend kind. Thread counts the affinity mask cannot give one CPU
// each run co-scheduled, and their labels say so.
//
// Table A — ShardedIdAllocator: sustained allocate() IDs/sec as the shard
//           count grows (the dynomite-style composition: N counters,
//           stride-N residue classes, per-thread affinity + batched refill).
// Table B — NetTokenBucket: consume(1)/sec under a balanced refill/consume
//           load at several thread counts. The headline comparison: a
//           counting-network pool spreads admission across wires and exit
//           cells, a central pool serializes every decision on one word.
// Table C — AdmissionController: end-to-end admit() (bucket charge + unique
//           request ID) at a fixed thread count.
//
// --smoke shrinks measurement windows and sweeps so CI can exercise every
// code path in seconds; numbers from a smoke run are meaningless.
#include <string>
#include <vector>

#include "cnet/svc/admission.hpp"
#include "cnet/util/table.hpp"
#include "support/live.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

svc::ShardedIdAllocator make_allocator(svc::BackendKind kind,
                                       std::size_t shards,
                                       std::size_t max_threads) {
  std::vector<std::unique_ptr<rt::Counter>> counters;
  for (std::size_t s = 0; s < shards; ++s) {
    counters.push_back(svc::make_counter(kind));
  }
  return svc::ShardedIdAllocator(
      std::move(counters), {.max_threads = max_threads, .refill_batch = 16});
}

// Pure throughput: no latency samples. A loaded CI runner can swallow the
// whole smoke window before a caller runs once; the 64-op floor keeps every
// cell non-vacuous.
template <class MakeOp>
double live_rate(std::size_t threads, bool smoke, MakeOp&& make_op) {
  const perfbench::PhasePlan plan =
      smoke ? perfbench::PhasePlan{0.01, 0.04, 10, 0}
            : perfbench::PhasePlan{0.15, 0.6, 10, 0};
  return bench::run_live(threads, plan, 64, make_op).ops_per_s();
}

double allocator_rate(svc::BackendKind kind, std::size_t shards,
                      std::size_t threads, bool smoke) {
  auto alloc = make_allocator(kind, shards, threads);
  return live_rate(threads, smoke, [&](std::size_t c) {
    return [&alloc, c] {
      (void)alloc.allocate(c);
      return true;
    };
  });
}

// Balanced load: each thread tops the pool up by its own consumption in
// 256-token batches, so the pool hovers near its initial level and the
// measured rate is the cost of the consume+refill mechanism itself. No
// thread can consume more than its own 256-token share, so no consume is
// refused and calls/sec is consume(1)/sec.
double bucket_rate(svc::BackendKind kind, std::size_t threads, bool smoke) {
  svc::NetTokenBucket bucket(svc::make_counter(kind),
                             {.initial_tokens = 256 * threads});
  return live_rate(threads, smoke, [&](std::size_t c) {
    return [&bucket, c, since_refill = 0u]() mutable {
      if (++since_refill == 256) {
        since_refill = 0;
        bucket.refill(c, 256);
      }
      return bucket.consume(c, 1, svc::kPartialOk) == 1;
    };
  });
}

double admission_rate(svc::BackendKind kind, std::size_t threads,
                      bool smoke) {
  svc::AdmissionConfig cfg;
  cfg.backend = kind;
  cfg.shards = 4;
  cfg.ids.max_threads = threads;
  // Balanced like bucket_rate(): each thread replaces what it admits, so
  // the gate stays open by construction however fast the backend is.
  cfg.bucket.initial_tokens = 256 * threads;
  svc::AdmissionController ctl(cfg);
  return live_rate(threads, smoke, [&](std::size_t c) {
    return [&ctl, c, since_refill = 0u]() mutable {
      if (++since_refill == 256) {
        since_refill = 0;
        ctl.refill(c, 256);
      }
      return ctl.admit(c, 1).admitted;
    };
  });
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);

  const std::vector<std::size_t> shard_sweep =
      opts.smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 4, 8};
  const std::size_t alloc_threads = opts.smoke ? 2 : 8;

  bench::section("Table A: ShardedIdAllocator IDs/sec, " +
                 std::to_string(alloc_threads) + " threads" +
                 bench::co_sched_flag(alloc_threads));
  {
    std::vector<std::string> header{"backend"};
    for (const auto s : shard_sweep) {
      header.push_back(std::to_string(s) + " shard" + (s == 1 ? "" : "s"));
    }
    util::Table table(header);
    for (const auto kind : svc::kAllBackendKinds) {
      std::vector<std::string> row{svc::backend_kind_name(kind)};
      for (const auto shards : shard_sweep) {
        row.push_back(
            bench::fmt_rate(allocator_rate(kind, shards, alloc_threads,
                                           opts.smoke)));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: sharding multiplies every backend; network\n"
        "backends additionally spread each shard's traffic across wires.",
        opts);
  }

  std::puts("");
  const std::vector<std::size_t> thread_sweep =
      opts.smoke ? std::vector<std::size_t>{2}
                 : std::vector<std::size_t>{1, 4, 16};
  bench::section("Table B: NetTokenBucket consume(1)/sec, balanced refill");
  double central16 = 0.0, network16 = 0.0, batched16 = 0.0;
  {
    std::vector<std::string> header{"backend"};
    for (const auto t : thread_sweep) {
      header.push_back(std::to_string(t) + " thr" + bench::co_sched_flag(t));
    }
    util::Table table(header);
    for (const auto kind : svc::kAllBackendKinds) {
      std::vector<std::string> row{svc::backend_kind_name(kind)};
      for (const auto threads : thread_sweep) {
        const double rate = bucket_rate(kind, threads, opts.smoke);
        if (threads == 16) {
          if (kind == svc::BackendKind::kCentralAtomic) central16 = rate;
          if (kind == svc::BackendKind::kNetwork) network16 = rate;
          if (kind == svc::BackendKind::kBatchedNetwork) batched16 = rate;
        }
        row.push_back(bench::fmt_rate(rate));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
    if (central16 > 0.0) {
      bench::note("\nnetwork/central-atomic at 16 threads: " +
                      util::fmt_ratio(network16, central16, 2) +
                      "   batched/central-atomic: " +
                      util::fmt_ratio(batched16, central16, 2) +
                      "\n(>= 2x expected on multi-core hardware, where the\n"
                      "central pool's cache line is the bottleneck)",
                  opts);
    }
  }

  std::puts("");
  bench::section("Table C: AdmissionController admit()/sec, 4 shards");
  {
    const std::size_t threads = opts.smoke ? 2 : 8;
    util::Table table({"backend", std::to_string(threads) + " thr" +
                                      bench::co_sched_flag(threads)});
    for (const auto kind : svc::kAllBackendKinds) {
      table.add_row({svc::backend_kind_name(kind),
                     bench::fmt_rate(admission_rate(kind, threads,
                                                    opts.smoke))});
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: admit = bucket charge + cached ID allocation,\n"
        "so rates track Table B with a small constant overhead.", opts);
    bench::note_co_scheduled(thread_sweep.back(), opts);
  }
  return bench::finish(opts);
}
