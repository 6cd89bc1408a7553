// The cluster family: simulate_cluster (Table G′), the dist::PeerCluster
// lease tier over per-link FIFO latency servers.
#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cnet/dist/lease_ledger.hpp"
#include "cnet/dist/policy.hpp"
#include "cnet/dist/topology.hpp"
#include "cnet/sim/multicore.hpp"
#include "cnet/sim/vtime.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/prng.hpp"
#include "cnet/util/stats.hpp"

namespace cnet::sim {

using vtime::CounterModel;
using vtime::DoneN;
using vtime::Engine;

ClusterSimConfig cluster_sim_reference_config(std::size_t nodes) {
  ClusterSimConfig cfg;
  CNET_REQUIRE(nodes >= 1, "need at least one node");
  // First half of the nodes in dc 0, second half in dc 1; within a dc,
  // adjacent node pairs share a rack — so almost every node has a
  // rack-mate to donate to, which is the whole locality story.
  const std::size_t per_dc = (nodes + 1) / 2;
  cfg.nodes.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    cfg.nodes[i].dc = static_cast<std::uint32_t>(i / per_dc);
    cfg.nodes[i].rack = static_cast<std::uint32_t>((i % per_dc) / 2);
  }
  cfg.cores_per_node = 3;
  cfg.ops_per_core = 160;
  // Supply-healthy: each node's account + borrow share covers its demand,
  // so the admission tail measures *renewal locality*, not global
  // starvation (scarcity variants layer on top of this in bench_tab_dist).
  cfg.parent_initial = 2048;
  cfg.account_initial = 256;
  cfg.borrow_budget = 2048;
  cfg.local_initial = 64;
  cfg.lease_chunk = 96;
  cfg.lease_cap = 384;
  cfg.lease_ttl = 600.0;
  cfg.peer_reserve = 24;
  cfg.reconcile_chunk = 192;
  cfg.base.exponential_service = true;
  cfg.base.seed = 0xD157C0DE;
  return cfg;
}

ClusterSimResult simulate_cluster(const svc::BackendSpec& parent_spec,
                                  const ClusterSimConfig& cfg) {
  const std::size_t n = cfg.nodes.size();
  CNET_REQUIRE(n >= 1, "need at least one node");
  CNET_REQUIRE(cfg.cores_per_node >= 1, "need at least one core per node");
  CNET_REQUIRE(cfg.ops_per_core >= 1, "need at least one op per core");
  CNET_REQUIRE(cfg.lease_chunk >= 1 && cfg.lease_cap >= 1,
               "lease sizing must be positive");
  CNET_REQUIRE(cfg.reconcile_chunk >= 1, "reconcile chunk must be positive");
  CNET_REQUIRE(cfg.lease_ttl > 0.0, "lease TTL must be positive");
  CNET_REQUIRE(cfg.link_same_rack >= 0.0 && cfg.link_same_dc >= 0.0 &&
                   cfg.link_remote >= 0.0 && cfg.local_service >= 0.0,
               "delays must be nonnegative");
  for (const ClusterPartition& p : cfg.partitions) {
    CNET_REQUIRE(p.node < n, "partition names a node outside the topology");
    CNET_REQUIRE(p.end > p.start && p.start >= 0.0,
                 "partition window must be a nonempty [start, end)");
  }

  std::vector<dist::NodeLocation> locs;
  locs.reserve(n);
  for (const ClusterNode& node : cfg.nodes) {
    locs.push_back({node.dc, node.rack});
  }
  const dist::Topology topo(std::move(locs));

  Engine eng;
  util::Xoshiro256 rng(cfg.base.seed);
  vtime::ModelStack parent_stack =
      vtime::make_model(parent_spec, eng, cfg.base, rng);
  CounterModel& parent = *parent_stack.root;

  ClusterSimResult res;
  res.initial_tokens =
      cfg.parent_initial +
      static_cast<std::uint64_t>(n) * (cfg.account_initial + cfg.local_initial);

  // In leased mode the hierarchy is real: parent pool + per-node lease
  // accounts at the coordinator, per-node local pools at the edge. In
  // central mode every token lives in the one global pool and every
  // admission round-trips to it — the baseline the locality claim beats.
  if (cfg.leased) {
    parent.inject_pool_now(cfg.parent_initial);
  } else {
    parent.inject_pool_now(res.initial_tokens);
  }
  std::vector<std::uint64_t> account(n, cfg.leased ? cfg.account_initial : 0);
  std::vector<std::int64_t> local(
      n, cfg.leased ? static_cast<std::int64_t>(cfg.local_initial) : 0);
  std::vector<std::uint64_t> borrowed(n, 0);
  const std::uint64_t borrow_limit =
      svc::weighted_borrow_limit(cfg.borrow_budget, 1, n);

  // The coordinator sits with node 0: each node owns one FIFO uplink whose
  // one-way latency follows its proximity to node 0, and peer RPCs occupy
  // the requester's link for the round trip. A busy link queues — which is
  // exactly how central counting loses.
  const auto link_of = [&](dist::Proximity p) {
    switch (p) {
      case dist::Proximity::kSelf:
      case dist::Proximity::kSameRack:
        return cfg.link_same_rack;
      case dist::Proximity::kSameDc:
        return cfg.link_same_dc;
      case dist::Proximity::kRemote:
        return cfg.link_remote;
    }
    return cfg.link_remote;
  };
  std::vector<double> link_free(n, 0.0);
  const auto occupy = [&](std::size_t node, double service) {
    const double start = std::max(eng.now(), link_free[node]);
    link_free[node] = start + service;
    return link_free[node];
  };
  const auto uplat = [&](std::size_t node) {
    return link_of(topo.proximity(node, 0));
  };

  // Each node's lease book is the live ledger itself; the simulator never
  // compacts it, so a lease's index stays valid for its expiry events.
  using Ledger = dist::LeaseLedger<double>;
  std::vector<Ledger> ledgers(n);
  std::vector<char> partitioned(n, 0);

  std::vector<double> admit_latency;
  admit_latency.reserve(static_cast<std::size_t>(cfg.ops_per_core) *
                        cfg.cores_per_node * n);
  double makespan = 0.0;
  const auto touch = [&] { makespan = std::max(makespan, eng.now()); };
  vtime::ServiceDraw local_draw(cfg.local_service,
                                cfg.base.exponential_service, rng);

  // The coordinator's side of a node's two-level quota: its lease account
  // is an instant child pool, its `borrowed` word the reservation, and the
  // parent model takes the node as thread hint. Grants decide partial, as
  // PeerCluster::renew asks.
  struct Coordinator {
    CounterModel* parent;
    std::uint64_t *account, *word;
    std::uint64_t cap;
    std::size_t tenant;

    void take(bool from_parent, std::uint64_t n, DoneN done) const {
      if (from_parent) {
        parent->try_decrement_n(tenant, n, std::move(done));
        return;
      }
      const std::uint64_t got = std::min(n, *account);
      *account -= got;
      done(got);
    }
    void put(bool to_parent, std::uint64_t n, vtime::Done done) const {
      if (to_parent) {
        parent->refund_n(tenant, n, std::move(done));
        return;
      }
      *account += n;
      done();
    }
    std::uint64_t& borrowed() const { return *word; }
    std::uint64_t limit() const { return cap; }
    void decide(svc::QuotaPlan& plan) const { plan.decide(svc::kPartialOk); }
  };
  const auto coordinator = [&](std::size_t tenant) {
    return Coordinator{&parent, &account[tenant], &borrowed[tenant],
                       borrow_limit, tenant};
  };

  // One expiry/debt refund landing at the coordinator: the exact
  // lease_expiry_refund split the live ledger applies via settle_spent.
  const auto apply_refund = [&](const Ledger::Debt& d, bool is_debt) {
    const dist::ExpiryRefund split = dist::lease_expiry_refund(
        d.parts.from_child, d.parts.from_parent, d.recovered);
    res.expiry_refunded += d.recovered;
    if (is_debt) res.debt_reconciled += d.recovered;
    vtime::step_quota_plan(
        coordinator(d.tenant),
        svc::QuotaPlan::settle({true, d.parts.from_child, d.parts.from_parent},
                               split.refund_child, split.refund_parent),
        [&](const svc::QuotaOutcome&) { touch(); });
  };

  // Lease expiry: events re-arm while renewals keep extending the expiry
  // (the ledger's heartbeat), and settle exactly once through the ledger's
  // settled flag — the live expiry-vs-renewal race rule.
  std::function<void(std::size_t, std::size_t)> arm_expiry =
      [&](std::size_t node, std::size_t i) {
        eng.at(ledgers[node].lease(i).expiry, [&, node, i] {
          Ledger& ledger = ledgers[node];
          const bool dark = partitioned[node] != 0;
          const auto expired =
              ledger.expire(i, eng.now(), dark, [&](std::uint64_t tokens) {
                return std::min(tokens, static_cast<std::uint64_t>(
                                            std::max<std::int64_t>(
                                                local[node], 0)));
              });
          if (!expired) {
            // Renewed since; chase the new TTL.
            if (!ledger.lease(i).settled) arm_expiry(node, i);
            return;
          }
          local[node] -= static_cast<std::int64_t>(expired->recovered);
          ++res.expiries;
          res.expiry_recovered += expired->recovered;
          touch();
          if (dark) {
            res.debt_created += expired->recovered;
            return;
          }
          eng.at(occupy(node, uplat(node)), [&, d = *expired] {
            apply_refund(d, /*is_debt=*/false);
          });
        });
      };

  const auto add_lease = [&](std::size_t node, std::size_t tenant,
                             dist::CarvedParts parts) {
    arm_expiry(node, ledgers[node].grant(tenant, parts,
                                         eng.now() + cfg.lease_ttl));
  };

  // Lease renewal: heartbeat, then nearest-donor walk, then the global
  // two-level acquire — every decision through the shared dist/policy.hpp
  // and svc/policy.hpp rules. Donations and the global grant travel as
  // messages; `done(gained)` fires once the last of them lands.
  struct RenewOp {
    std::uint64_t gained = 0;
    int pending = 0;
    bool issued = false;
    DoneN done;
  };
  const auto renew_finish = [](const std::shared_ptr<RenewOp>& op) {
    if (op->issued && op->pending == 0) op->done(op->gained);
  };
  const auto renew = [&](std::size_t node, std::uint64_t want, DoneN done) {
    if (partitioned[node] != 0) {
      done(0);
      return;
    }
    ledgers[node].heartbeat(eng.now() + cfg.lease_ttl);
    auto op = std::make_shared<RenewOp>();
    op->done = std::move(done);
    std::uint64_t need = dist::lease_grant(want, cfg.lease_chunk,
                                           cfg.lease_cap);

    for (std::size_t attempt = 0; need > 0; ++attempt) {
      const std::optional<std::size_t> target =
          dist::renewal_target(topo, node, attempt);
      if (!target.has_value()) break;
      const std::size_t donor = *target;
      if (partitioned[donor] != 0) continue;
      Ledger& from = ledgers[donor];
      const std::uint64_t give =
          from.donatable(local[donor], cfg.peer_reserve, need);
      if (give == 0) continue;
      local[donor] -= static_cast<std::int64_t>(give);
      auto carved = std::make_shared<
          std::vector<std::pair<std::size_t, dist::CarvedParts>>>();
      from.carve(give, [&](std::size_t tenant, dist::CarvedParts parts) {
        carved->push_back({tenant, parts});
      });
      ++res.donations;
      res.donated_tokens += give;
      need -= give;
      ++op->pending;
      const double rtt = 2.0 * link_of(topo.proximity(node, donor));
      eng.at(occupy(node, rtt), [&, node, give, carved, op] {
        for (const auto& [tenant, parts] : *carved) {
          add_lease(node, tenant, parts);
        }
        local[node] += static_cast<std::int64_t>(give);
        op->gained += give;
        --op->pending;
        touch();
        renew_finish(op);
      });
    }

    if (need > 0) {
      const std::uint64_t ask = need;
      ++op->pending;
      eng.at(occupy(node, uplat(node)), [&, node, ask, op] {
        if (partitioned[node] != 0) {
          // Partition cut the request mid-flight: the coordinator drops
          // it, so the partitioned node gets (and spends) nothing global.
          --op->pending;
          renew_finish(op);
          return;
        }
        vtime::step_quota_plan(
            coordinator(node), svc::QuotaPlan::acquire(ask),
            [&, node, op](const svc::QuotaOutcome& g) {
              eng.at(eng.now() + uplat(node), [&, node, g, op] {
                const std::uint64_t total = g.tokens();
                if (total > 0) {
                  add_lease(node, node, {g.from_child, g.from_parent});
                  local[node] += static_cast<std::int64_t>(total);
                  ++res.renewals;
                  res.renewal_tokens += total;
                }
                op->gained += total;
                --op->pending;
                touch();
                renew_finish(op);
              });
            });
      });
    }
    op->issued = true;
    renew_finish(op);
  };

  // Healed partitions replay their escrow in debt_reconcile-bounded
  // batches, one uplink round trip per batch.
  std::function<void(std::size_t)> reconcile = [&](std::size_t node) {
    Ledger& ledger = ledgers[node];
    if (!ledger.has_debt()) {
      CNET_ENSURE(ledger.escrowed() == 0, "debt escrow left after reconcile");
      return;
    }
    auto batch = std::make_shared<std::vector<Ledger::Debt>>();
    ledger.reconcile_batch(cfg.reconcile_chunk, [&](const Ledger::Debt& d) {
      batch->push_back(d);
    });
    eng.at(occupy(node, uplat(node)), [&, node, batch] {
      for (const Ledger::Debt& debt : *batch) {
        apply_refund(debt, /*is_debt=*/true);
      }
      eng.at(eng.now() + uplat(node), [&, node] { reconcile(node); });
    });
  };

  for (const ClusterPartition& p : cfg.partitions) {
    eng.at(p.start, [&, p] { partitioned[p.node] = 1; });
    eng.at(p.end, [&, p] {
      partitioned[p.node] = 0;
      touch();
      reconcile(p.node);
    });
  }

  // The workload: every node core runs a closed admit(1) loop. Leased
  // mode spends locally and renews on a miss (one retry); central mode
  // round-trips the uplink for every single admission.
  struct CoreState {
    std::size_t ops_done = 0;
  };
  const std::size_t total_cores = n * cfg.cores_per_node;
  std::vector<CoreState> cores(total_cores);
  std::function<void(std::size_t)> step;
  const auto finish_op = [&](std::size_t c, bool ok, double issue) {
    if (ok) {
      ++res.admitted;
      ++res.spent;
      admit_latency.push_back(eng.now() - issue);
    } else {
      ++res.rejected;
    }
    ++cores[c].ops_done;
    touch();
    eng.at(eng.now() + cfg.think_time, [&, c] { step(c); });
  };

  std::function<void(std::size_t, std::size_t, double, bool)> attempt =
      [&](std::size_t c, std::size_t node, double issue, bool retried) {
        if (local[node] >= 1) {
          local[node] -= 1;
          eng.at(eng.now() + local_draw(),
                 [&, c, issue] { finish_op(c, true, issue); });
          return;
        }
        if (!retried) {
          renew(node, cfg.lease_chunk, [&, c, node, issue](std::uint64_t) {
            attempt(c, node, issue, true);
          });
          return;
        }
        finish_op(c, false, issue);
      };

  step = [&](std::size_t c) {
    if (cores[c].ops_done == cfg.ops_per_core) return;
    const std::size_t node = c / cfg.cores_per_node;
    const double issue = eng.now();
    ++res.attempts;
    if (cfg.leased) {
      attempt(c, node, issue, false);
      return;
    }
    if (partitioned[node] != 0) {
      // Central counting has no local pool to fall back on: a partitioned
      // node admits nothing (and, crucially, touches nothing global).
      finish_op(c, false, issue);
      return;
    }
    eng.at(occupy(node, uplat(node)), [&, c, node, issue] {
      if (partitioned[node] != 0) {
        ++res.partition_global_touches;
      }
      parent.try_decrement_n(c, 1, [&, c, node, issue](std::uint64_t got) {
        eng.at(eng.now() + uplat(node),
               [&, c, issue, got] { finish_op(c, got == 1, issue); });
      });
    });
  };

  for (std::size_t c = 0; c < total_cores; ++c) step(c);
  eng.run();

  res.makespan = makespan;
  res.final_parent_pool = parent.pool();
  res.parent_stalls = parent.stalls();
  bool conserved = !parent.pool_ever_negative();
  std::int64_t held = res.final_parent_pool;
  for (std::size_t i = 0; i < n; ++i) {
    res.final_account_tokens += static_cast<std::int64_t>(account[i]);
    res.final_local_tokens += local[i];
    held += static_cast<std::int64_t>(account[i]) + local[i];
    conserved = conserved && local[i] >= 0 &&
                borrowed[i] == 0 && ledgers[i].escrowed() == 0 &&
                !ledgers[i].has_debt() && ledgers[i].active_leases() == 0;
  }
  res.conserved =
      conserved &&
      res.spent + static_cast<std::uint64_t>(held) == res.initial_tokens;
  res.debt_settled = res.debt_created == res.debt_reconciled;

  if (!admit_latency.empty()) {
    res.p50_admission = util::percentile(admit_latency, 50.0);
    res.p99_admission = util::percentile(admit_latency, 99.0);
  }

  for (const CoreState& core : cores) {
    CNET_ENSURE(core.ops_done == cfg.ops_per_core,
                "simulated core finished early");
  }
  return res;
}

}  // namespace cnet::sim
