#include "cnet/sim/model_check.hpp"

#include <algorithm>
#include <vector>

#include "cnet/seq/sequence.hpp"
#include "cnet/sim/token_machine.hpp"
#include "cnet/topology/routing.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::sim {

namespace {

// One DFS node: the machine plus the records of the tokens that exited.
struct Branch {
  TokenMachine machine;
  std::vector<TokenRecord> records;

  // TokenMachine hooks: only exits matter to the checker.
  void enqueued(std::uint32_t) {}
  void drained(std::uint32_t) {}
  void exited(std::uint32_t token, std::uint32_t, const TokenRecord& r) {
    records[token] = r;
  }
};

void finalize(const Branch& s, const ModelCheckConfig& cfg,
              ModelCheckResult& result) {
  ++result.executions;
  CNET_REQUIRE(result.executions <= cfg.max_executions,
               "execution-space cap exceeded — instance too large");
  // Exactness: values must be exactly 0..m-1.
  std::vector<seq::Value> values;
  values.reserve(s.records.size());
  for (const auto& rec : s.records) values.push_back(rec.value);
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != static_cast<seq::Value>(i)) {
      result.all_exact = false;
      break;
    }
  }
  const std::uint64_t stalls = s.machine.stalls();
  result.max_total_stalls = std::max(result.max_total_stalls, stalls);
  result.min_total_stalls = std::min(result.min_total_stalls, stalls);
  if (!result.inversion_possible) {
    for (const auto& i : s.records) {
      for (const auto& j : s.records) {
        if (i.exit_step < j.enter_step && i.value > j.value) {
          result.inversion_possible = true;
        }
      }
    }
  }
}

// Fires balancers in index order; each branch gets its own copy.
void dfs(const Branch& s, const ModelCheckConfig& cfg,
         ModelCheckResult& result) {
  if (s.machine.finished()) {
    finalize(s, cfg, result);
    return;
  }
  for (std::uint32_t b = 0; b < s.machine.num_balancers(); ++b) {
    if (s.machine.queue_size(b) == 0) continue;
    Branch next = s;
    next.machine.fire(b, next);
    dfs(next, cfg, result);
  }
}

}  // namespace

ModelCheckResult explore_all_executions(const topo::Topology& net,
                                        const ModelCheckConfig& cfg) {
  const topo::Routing routing = topo::compile_routing(net);
  Branch root{TokenMachine(routing, net.width_in(), net.width_out(),
                           cfg.concurrency, cfg.total_tokens),
              std::vector<TokenRecord>(cfg.total_tokens)};
  root.machine.start(root);
  ModelCheckResult result;
  result.min_total_stalls = ~0ULL;
  dfs(root, cfg, result);  // every branch ends in a maximal execution
  return result;
}

}  // namespace cnet::sim
