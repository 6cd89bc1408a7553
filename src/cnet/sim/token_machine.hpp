// The token-step machine of paper §1.2, the one engine behind both
// token-level simulators: sim::simulate drives it with a Scheduler, and
// sim::explore_all_executions copies it per DFS branch. n processes each
// shepherd one token at a time, entering on wire l mod w; a balancer fires
// its FIFO head out on the next round-robin port and stalls every other
// waiter once; a token leaving on output i takes cell v_i (initially i,
// stepped by t), and its process at once injects its next token — also
// when that token passes straight through a balancer-free wire.
//
// The caller's hooks object sees h.enqueued(b) after a token joins b's
// queue, h.drained(b) when firing empties it, and h.exited(token, output,
// record) per exit (token = injection index, 0..m-1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cnet/sim/token_sim.hpp"
#include "cnet/topology/routing.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::sim {

class TokenMachine {
 public:
  // `routing` must outlive the machine and its copies.
  TokenMachine(const topo::Routing& routing, std::size_t width_in,
               std::size_t width_out, std::size_t concurrency,
               std::size_t total_tokens)
      : routing_(&routing),
        width_in_(width_in),
        total_(total_tokens),
        bal_(routing.fanout.size()),
        proc_(std::min(concurrency, total_tokens)),
        cells_(width_out) {
    CNET_REQUIRE(concurrency >= 1, "need at least one process");
    CNET_REQUIRE(total_tokens >= 1, "need at least one token");
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i] = static_cast<seq::Value>(i);
    }
  }

  template <class Hooks>
  void start(Hooks& h) {
    for (std::uint32_t p = 0; p < proc_.size(); ++p) inject(p, h);
  }

  // One atomic transition of nonempty balancer b; returns the waiters it
  // stalled.
  template <class Hooks>
  std::uint64_t fire(std::uint32_t b, Hooks& h) {
    Balancer& bal = bal_[b];
    const std::uint64_t waiters = bal.size - 1;
    stalls_ += waiters;
    ++steps_;
    const std::uint32_t p = bal.head;
    bal.head = proc_[p].next;
    bal.size -= 1;
    if (bal.size == 0) h.drained(b);
    const std::uint32_t port = bal.port;
    bal.port = (port + 1) % routing_->fanout[b];
    if (route(p, routing_->route[routing_->route_base[b] + port], h)) {
      inject(p, h);
    }
    return waiters;
  }

  bool finished() const noexcept { return exited_ == total_; }
  std::size_t num_balancers() const noexcept { return bal_.size(); }
  std::uint32_t queue_size(std::uint32_t b) const noexcept {
    return bal_[b].size;
  }
  std::uint64_t stalls() const noexcept { return stalls_; }

 private:
  struct Balancer {
    std::uint32_t head = 0, tail = 0;  // FIFO linked through Process::next
    std::uint32_t size = 0;
    std::uint32_t port = 0;  // next round-robin output port
  };
  struct Process {
    std::uint32_t next = 0;
    std::uint32_t token = 0;  // the token it shepherds now
    std::uint64_t enter_step = 0;
  };

  template <class Hooks>
  void inject(std::uint32_t p, Hooks& h) {
    do {
      if (injected_ == total_) return;
      proc_[p].token = static_cast<std::uint32_t>(injected_++);
      proc_[p].enter_step = steps_;
    } while (route(p, routing_->entry[p % width_in_], h));
  }

  // Moves p's token to `target`; returns true when it left the network.
  template <class Hooks>
  bool route(std::uint32_t p, std::int32_t target, Hooks& h) {
    if (target >= 0) {
      const auto b = static_cast<std::uint32_t>(target);
      Balancer& bal = bal_[b];
      if (bal.size == 0) {
        bal.head = p;
      } else {
        proc_[bal.tail].next = p;
      }
      bal.tail = p;
      bal.size += 1;
      h.enqueued(b);
      return false;
    }
    const auto out = static_cast<std::uint32_t>(~target);
    h.exited(proc_[p].token, out,
             TokenRecord{p, proc_[p].enter_step, steps_, cells_[out]});
    cells_[out] += static_cast<seq::Value>(cells_.size());
    ++exited_;
    return true;
  }

  const topo::Routing* routing_;
  std::size_t width_in_;
  std::size_t total_;
  std::vector<Balancer> bal_;
  std::vector<Process> proc_;
  std::vector<seq::Value> cells_;
  std::size_t injected_ = 0, exited_ = 0;
  std::uint64_t steps_ = 0, stalls_ = 0;
};

}  // namespace cnet::sim
