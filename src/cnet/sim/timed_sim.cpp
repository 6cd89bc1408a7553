#include "cnet/sim/timed_sim.hpp"

#include <algorithm>
#include <functional>

#include "cnet/sim/vtime.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/prng.hpp"

namespace cnet::sim {

TimedResult simulate_timed(const topo::Topology& net,
                           const TimedConfig& cfg) {
  CNET_REQUIRE(cfg.concurrency >= 1, "need at least one process");
  CNET_REQUIRE(cfg.total_tokens >= 1, "need at least one token");
  CNET_REQUIRE(cfg.service_time > 0.0, "service time must be positive");
  CNET_REQUIRE(cfg.wire_delay >= 0.0 && cfg.think_time >= 0.0,
               "delays must be nonnegative");

  // The balancers are the svc simulators' per-balancer FIFO servers
  // (vtime::NetworkModel); this driver only closes the loop around them.
  vtime::Engine eng;
  util::Xoshiro256 rng(cfg.seed);
  vtime::NetworkModel servers(
      eng, net, cfg.wire_delay, /*batch_k=*/1,
      vtime::ServiceDraw(cfg.service_time, cfg.exponential_service, rng));

  TimedResult res;
  std::size_t injected = 0;
  double latency_sum = 0.0, wait_sum = 0.0;

  // Process `proc` injects a token on its input wire; when the token exits,
  // the process owning the next token injects it think_time later.
  std::function<void(std::size_t)> inject = [&](std::size_t proc) {
    const double start = eng.now();
    servers.traverse(proc, [&, start](double queue_wait) {
      const double latency = eng.now() - start;
      latency_sum += latency;
      wait_sum += queue_wait;
      res.max_latency = std::max(res.max_latency, latency);
      res.makespan = std::max(res.makespan, eng.now());
      if (injected == cfg.total_tokens) return;
      const std::size_t next_proc = injected++ % cfg.concurrency;
      eng.at(eng.now() + cfg.think_time,
             [&, next_proc] { inject(next_proc); });
    });
  };

  const std::size_t first_wave = std::min(cfg.concurrency, cfg.total_tokens);
  for (std::size_t p = 0; p < first_wave; ++p) {
    ++injected;
    inject(p);
  }
  eng.run();

  res.throughput = static_cast<double>(cfg.total_tokens) /
                   std::max(res.makespan, 1e-12);
  res.mean_latency = latency_sum / static_cast<double>(cfg.total_tokens);
  res.mean_queue_wait = wait_sum / static_cast<double>(cfg.total_tokens);
  return res;
}

}  // namespace cnet::sim
