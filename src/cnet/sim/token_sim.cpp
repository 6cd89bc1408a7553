#include "cnet/sim/token_sim.hpp"

#include <algorithm>
#include <utility>

#include "cnet/sim/token_machine.hpp"
#include "cnet/topology/routing.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::sim {

namespace {

// The Scheduler-driven run of the shared token machine: it keeps the
// nonempty-balancer set the schedulers see and the SimResult tallies.
class Engine final : public EngineView {
 public:
  Engine(const topo::Topology& net, const SimConfig& cfg)
      : net_(net),
        cfg_(cfg),
        machine_(routing_, net.width_in(), net.width_out(), cfg.concurrency,
                 cfg.total_tokens),
        pos_in_nonempty_(net.num_balancers()) {}

  // --- EngineView ---
  std::size_t num_balancers() const override {
    return machine_.num_balancers();
  }
  std::uint32_t queue_size(std::uint32_t b) const override {
    return machine_.queue_size(b);
  }
  std::uint32_t layer_of(std::uint32_t b) const override {
    return static_cast<std::uint32_t>(
        net_.balancer_depth(topo::BalancerId{b}));
  }
  const std::vector<std::uint32_t>& nonempty() const override {
    return nonempty_;
  }

  // --- TokenMachine hooks ---
  void enqueued(std::uint32_t b) {
    const std::uint32_t size = machine_.queue_size(b);
    if (size == 1) {
      pos_in_nonempty_[b] = static_cast<std::uint32_t>(nonempty_.size());
      nonempty_.push_back(b);
    }
    res_.max_queue = std::max<std::size_t>(res_.max_queue, size);
    sched_->on_enqueue(b);
  }
  void drained(std::uint32_t b) {
    const std::uint32_t pos = pos_in_nonempty_[b];
    const std::uint32_t last = nonempty_.back();
    nonempty_[pos] = last;
    pos_in_nonempty_[last] = pos;
    nonempty_.pop_back();
  }
  void exited(std::uint32_t token, std::uint32_t out, const TokenRecord& r) {
    if (cfg_.collect_counter_values) res_.counter_values.push_back(r.value);
    if (cfg_.collect_token_records) res_.token_records[token] = r;
    ++res_.input_counts[r.process % net_.width_in()];
    ++res_.output_counts[out];
  }

  SimResult run(Scheduler& sched) {
    sched_ = &sched;
    sched.attach(*this);
    res_.tokens = cfg_.total_tokens;
    if (cfg_.collect_per_balancer) {
      res_.stalls_per_balancer.assign(machine_.num_balancers(), 0);
      res_.stalls_per_layer.assign(net_.depth(), 0);
    }
    if (cfg_.collect_counter_values) {
      res_.counter_values.reserve(cfg_.total_tokens);
    }
    if (cfg_.collect_token_records) {
      res_.token_records.resize(cfg_.total_tokens);
    }
    res_.input_counts.assign(net_.width_in(), 0);
    res_.output_counts.assign(net_.width_out(), 0);

    machine_.start(*this);
    // Fire scheduler-chosen balancers until all tokens exited.
    while (!machine_.finished()) {
      const std::uint32_t b = sched.pick();
      CNET_ENSURE(b < machine_.num_balancers() && machine_.queue_size(b) > 0,
                  "scheduler picked an empty balancer");
      const std::uint64_t waiters = machine_.fire(b, *this);
      if (cfg_.collect_per_balancer) {
        res_.stalls_per_balancer[b] += waiters;
        res_.stalls_per_layer[layer_of(b) - 1] += waiters;
      }
    }
    res_.total_stalls = machine_.stalls();
    res_.stalls_per_token = static_cast<double>(res_.total_stalls) /
                            static_cast<double>(res_.tokens);
    return std::move(res_);
  }

 private:
  const topo::Topology& net_;
  const SimConfig cfg_;
  const topo::Routing routing_ = topo::compile_routing(net_);
  TokenMachine machine_;
  Scheduler* sched_ = nullptr;
  SimResult res_;
  std::vector<std::uint32_t> nonempty_;
  std::vector<std::uint32_t> pos_in_nonempty_;
};

}  // namespace

SimResult simulate(const topo::Topology& net, const SimConfig& cfg,
                   Scheduler& scheduler) {
  Engine engine(net, cfg);
  return engine.run(scheduler);
}

}  // namespace cnet::sim
