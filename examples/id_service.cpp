// Ticket/ID dispenser with a pluggable counter backend — a miniature
// version of the experimental comparison in the paper's cited study
// [Klein'03 / Klein-Busch-Musser'06]: pick a backend, measure sustained
// Fetch&Increment throughput under a chosen thread count on the shared
// live harness (bench/support/live.hpp: pinned callers, warmup + timed
// windows, seeded-gap latency percentiles; callers share CPUs round robin,
// flagged, when the host has fewer than threads + 1).
//
// Usage: ./examples/id_service [backend] [threads] [batch]
//   backend: central | cas | mutex | bitonic | periodic | cww | cwt |
//            cwt-batch | difftree   (default: cwt, i.e. C(8, 8*lg8)=C(8,24))
//   batch:   tokens claimed per call (default 1; >1 uses the widened
//            fetch_increment_batch API — cwt-batch amortizes it through
//            the network, every other backend loops)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/runtime/central.hpp"
#include "cnet/runtime/difftree_rt.hpp"
#include "cnet/runtime/network_counter.hpp"
#include "cnet/util/cacheline.hpp"
#include "support/live.hpp"

namespace {

std::unique_ptr<cnet::rt::Counter> make_backend(const char* name) {
  using namespace cnet;
  if (!std::strcmp(name, "central")) return std::make_unique<rt::AtomicCounter>();
  if (!std::strcmp(name, "cas")) return std::make_unique<rt::CasCounter>();
  if (!std::strcmp(name, "mutex")) return std::make_unique<rt::MutexCounter>();
  if (!std::strcmp(name, "bitonic")) {
    return std::make_unique<rt::NetworkCounter>(baselines::make_bitonic(8),
                                                "bitonic(8)");
  }
  if (!std::strcmp(name, "periodic")) {
    return std::make_unique<rt::NetworkCounter>(baselines::make_periodic(8),
                                                "periodic(8)");
  }
  if (!std::strcmp(name, "cww")) {
    return std::make_unique<rt::NetworkCounter>(core::make_counting(8, 8),
                                                "C(8,8)");
  }
  if (!std::strcmp(name, "cwt")) {
    return std::make_unique<rt::NetworkCounter>(core::make_counting(8, 24),
                                                "C(8,24)");
  }
  if (!std::strcmp(name, "cwt-batch")) {
    return std::make_unique<rt::BatchedNetworkCounter>(
        core::make_counting(8, 24), "batched C(8,24)");
  }
  if (!std::strcmp(name, "difftree")) {
    rt::DiffractingTreeCounter::Config cfg;
    cfg.leaves = 8;
    return std::make_unique<rt::DiffractingTreeCounter>(cfg);
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const char* backend_name = argc > 1 ? argv[1] : "cwt";
  const std::size_t threads =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 8;
  const std::size_t batch =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 1;

  auto counter = make_backend(backend_name);
  if (!counter || threads == 0 || threads > 256 || batch == 0 ||
      batch > 4096) {
    std::fprintf(stderr,
                 "unknown backend '%s', thread count not in 1..256, or "
                 "batch size not in 1..4096 (backends: central cas mutex "
                 "bitonic periodic cww cwt cwt-batch difftree)\n",
                 backend_name);
    return 2;
  }

  const perfbench::PhasePlan plan{0.2, 1.0, 10, 1u << 16};

  // Per-thread tally over every call (warmup included): claimed-ticket
  // count and the largest ticket seen, for the uniqueness check below.
  struct alignas(cnet::util::kCacheLine) Tally {
    std::vector<std::int64_t> values;
    std::uint64_t claimed = 0;
    std::int64_t max_seen = -1;
  };
  std::vector<Tally> tallies(threads);
  for (auto& tally : tallies) tally.values.resize(batch);
  const auto run = cnet::bench::run_live(threads, plan, 1, [&](std::size_t c) {
    return [&counter, &tally = tallies[c], c, batch] {
      counter->fetch_increment_batch(c, batch, tally.values.data());
      tally.claimed += batch;
      for (const auto v : tally.values) {
        tally.max_seen = std::max(tally.max_seen, v);
      }
      return true;
    };
  });

  std::printf("backend      : %s\n", counter->name().c_str());
  std::printf("threads      : %zu%s\n", threads,
              cnet::bench::co_sched_flag(threads).c_str());
  std::printf("batch        : %zu token(s)/call\n", batch);
  std::printf("measured     : %.1f s in 10 windows (after %.1fs warmup)\n",
              plan.measure_s, plan.warmup_s);
  const double tickets_per_s = run.ops_per_s() * static_cast<double>(batch);
  std::printf("throughput   : %s (%.0f tickets/s, median window)\n",
              cnet::bench::fmt_rate(tickets_per_s).c_str(), tickets_per_s);
  std::printf("latency/call : p50 %s   p99 %s\n",
              cnet::bench::fmt_ns(run.p50_ns).c_str(),
              cnet::bench::fmt_ns(run.p99_ns).c_str());
  const auto [fewest, most] = std::minmax_element(
      tallies.begin(), tallies.end(),
      [](const Tally& a, const Tally& b) { return a.claimed < b.claimed; });
  std::printf("fairness     : %llu..%llu tickets/thread (warmup included)\n",
              static_cast<unsigned long long>(fewest->claimed),
              static_cast<unsigned long long>(most->claimed));
  std::printf("observed stalls: %llu\n",
              static_cast<unsigned long long>(counter->stall_count()));

  // Sanity: every backend hands out exactly the tickets 0..N-1 for N calls,
  // so after joining, the largest ticket seen must equal total-claimed − 1.
  // A smaller max means some ticket was handed out twice.
  std::uint64_t total_claimed = 0;
  std::int64_t max_seen = -1;
  for (const auto& tally : tallies) {
    total_claimed += tally.claimed;
    max_seen = std::max(max_seen, tally.max_seen);
  }
  const bool ok =
      max_seen + 1 == static_cast<std::int64_t>(total_claimed);
  std::printf("max ticket   : %lld (%llu claimed) — %s\n",
              static_cast<long long>(max_seen),
              static_cast<unsigned long long>(total_claimed),
              ok ? "unique" : "DUPLICATES");
  return ok ? 0 : 1;
}
