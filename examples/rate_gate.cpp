// Rate-limited request gate: the svc::AdmissionController in front of an
// open-loop workload. One refiller thread feeds the token bucket at a fixed
// rate R while the other threads hammer admit(); whatever the offered load,
// the admitted rate is pinned at ~R and every admitted request carries a
// globally-unique ID from the sharded allocator. A miniature of the
// queueing-style serving scenario the ROADMAP aims at: arrival rate set by
// the refiller, service capacity set by the bucket. The threads run on the
// shared live harness (bench/support/live.hpp), pinned, or co-scheduled
// and flagged when the host has fewer CPUs than threads + 1.
//
// Usage: ./examples/rate_gate [backend] [threads] [rate]
//   backend: central-atomic | central-cas | central-mutex | network |
//            batched-network | adaptive, optionally prefixed with "elim+"
//            to put the elimination front-end before the bucket pool
//            (e.g. elim+batched-network)        (default: batched-network)
//   threads: total threads incl. the refiller   (default: 5)
//   rate:    tokens/sec fed to the bucket       (default: 100000)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cnet/svc/admission.hpp"
#include "cnet/svc/elimination.hpp"
#include "cnet/util/cacheline.hpp"
#include "support/live.hpp"

int main(int argc, char** argv) {
  const char* backend_name = argc > 1 ? argv[1] : "batched-network";
  const std::size_t threads =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 5;
  const double rate = argc > 3 ? std::atof(argv[3]) : 100000.0;

  const auto spec = cnet::svc::parse_backend_spec(backend_name);
  if (!spec) {
    std::fprintf(stderr, "bad backend \"%s\": %s\n", backend_name,
                 spec.error.c_str());
  }
  if (!spec || threads < 2 || threads > 256 || rate < 1.0) {
    std::fprintf(stderr,
                 "usage: rate_gate [[elim+]central-atomic|central-cas|"
                 "central-mutex|network|batched-network|adaptive] "
                 "[threads>=2] [rate>=1]\n");
    return 2;
  }

  cnet::svc::AdmissionConfig cfg;
  cfg.backend = spec->kind;
  cfg.elimination = spec->elimination;
  cfg.shards = 4;
  cfg.ids.max_threads = threads;
  cnet::svc::AdmissionController gate(cfg);

  // Lifetime tallies (warmup included), one padded slot per thread.
  struct alignas(cnet::util::kCacheLine) Tally {
    std::uint64_t attempts = 0;
    std::uint64_t refilled = 0;
    std::vector<std::int64_t> ids;
  };
  std::vector<Tally> tallies(threads);

  const perfbench::PhasePlan plan{0.2, 1.0, 10, 0};

  // Thread 0 drips tokens at `rate`, about 200 times a second; everyone
  // else is offered load. Each drip adds what the rate has owed since the
  // start, so a late wakeup on a shared CPU delays tokens but never drops
  // them.
  const auto start = std::chrono::steady_clock::now();
  cnet::bench::run_live(threads, plan, 1, [&](std::size_t t) {
    return [&, &tally = tallies[t], t] {
      if (t == 0) {
        const auto owed =
            static_cast<std::uint64_t>(rate * perfbench::seconds_since(start));
        if (owed > tally.refilled) {
          gate.refill(0, owed - tally.refilled);
          tally.refilled = owed;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return true;
      }
      ++tally.attempts;
      const auto ticket = gate.admit(t, 1);
      if (ticket.admitted) tally.ids.push_back(ticket.request_id);
      return ticket.admitted;
    };
  });

  std::uint64_t attempts = 0, refilled = 0;
  std::vector<std::int64_t> ids;
  for (const auto& tally : tallies) {
    attempts += tally.attempts;
    refilled += tally.refilled;
    ids.insert(ids.end(), tally.ids.begin(), tally.ids.end());
  }
  const double wall = plan.warmup_s + plan.measure_s;

  std::printf("gate         : %s\n", gate.name().c_str());
  std::printf("threads      : %zu (1 refiller + %zu consumers)%s\n", threads,
              threads - 1, cnet::bench::co_sched_flag(threads).c_str());
  std::printf("token rate   : %.0f/s (refilled %llu over ~%.2fs)\n", rate,
              static_cast<unsigned long long>(refilled), wall);
  std::printf("offered      : %llu attempts (%s)\n",
              static_cast<unsigned long long>(attempts),
              cnet::bench::fmt_rate(attempts / wall).c_str());
  std::printf("admitted     : %zu (%s — pinned at the token rate)\n",
              ids.size(), cnet::bench::fmt_rate(ids.size() / wall).c_str());
  std::printf("rejected     : %llu\n",
              static_cast<unsigned long long>(attempts - ids.size()));
  std::printf("observed stalls: %llu\n",
              static_cast<unsigned long long>(gate.stall_count()));
  if (const auto* elim = dynamic_cast<const cnet::svc::ElimCounter*>(
          &gate.bucket().pool())) {
    std::printf("eliminated pairs: %llu (refill/consume collisions that "
                "never touched the backend; %llu backend traversals)\n",
                static_cast<unsigned long long>(elim->layer().pairs()),
                static_cast<unsigned long long>(elim->traversal_count()));
  }

  // Safety checks: never over-admit, and no request ID handed out twice.
  const bool bounded = ids.size() <= refilled;
  std::sort(ids.begin(), ids.end());
  const bool unique =
      std::adjacent_find(ids.begin(), ids.end()) == ids.end();
  std::printf("admitted <= refilled: %s\n", bounded ? "yes" : "VIOLATED");
  std::printf("request IDs unique  : %s\n", unique ? "yes" : "VIOLATED");
  return bounded && unique ? 0 : 1;
}
