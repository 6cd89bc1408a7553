#include "cnet/dist/peer_cluster.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "cnet/util/ensure.hpp"

namespace cnet::dist {

PeerCluster::PeerCluster(Topology topo, const ClusterConfig& cfg)
    : topo_(std::move(topo)), cfg_(cfg) {
  CNET_REQUIRE(cfg.lease_chunk > 0, "lease_chunk must be positive");
  CNET_REQUIRE(cfg.lease_cap >= cfg.lease_chunk,
               "lease_cap must cover at least one chunk");
  CNET_REQUIRE(cfg.lease_ttl > 0, "lease_ttl must be positive");
  CNET_REQUIRE(cfg.reconcile_chunk > 0, "reconcile_chunk must be positive");
  const std::size_t n = topo_.num_nodes();

  svc::QuotaHierarchy::Config qcfg;
  qcfg.parent = cfg.parent_spec;
  qcfg.net = cfg.net;
  qcfg.bucket.refill_chunk = cfg.refill_chunk;
  qcfg.parent_initial_tokens = cfg.parent_initial;
  qcfg.borrow_budget = cfg.borrow_budget;
  std::vector<svc::QuotaHierarchy::TenantConfig> accounts(
      n, {cfg.node_account_initial, cfg.node_weight});
  global_ = std::make_unique<svc::QuotaHierarchy>(qcfg, std::move(accounts));

  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto ns = std::make_unique<NodeState>();
    // The local admission pool sees only this node's traffic, so the cheap
    // central word is the right backend (same reasoning as the hierarchy's
    // child buckets).
    ns->local = std::make_unique<svc::NetTokenBucket>(
        svc::make_counter(svc::BackendKind::kCentralAtomic),
        svc::NetTokenBucket::Config{cfg.local_initial, cfg.refill_chunk});
    ns->balance.store(static_cast<std::int64_t>(cfg.local_initial),
                      std::memory_order_relaxed);
    ns->overload = std::make_unique<svc::OverloadManager>();
    ns->overload->add_monitor(svc::make_reject_ratio_monitor(*ns->local));
    ns->local->attach_overload(ns->overload.get());
    nodes_.push_back(std::move(ns));
  }
  total_initial_ =
      cfg.parent_initial +
      static_cast<std::uint64_t>(n) *
          (cfg.node_account_initial + cfg.local_initial);

  // SDS-style watch instead of polling: every reweigh commit is pushed to
  // the nodes from the hierarchy's commit path. A partitioned node misses
  // the push (its control plane is down) and catches up at heal().
  global_->subscribe([this](std::uint64_t version) {
    for (auto& ns : nodes_) {
      if (!ns->partitioned.load(std::memory_order_acquire)) {
        ns->observed_version.store(version, std::memory_order_release);
      }
    }
  });
}

PeerCluster::NodeState& PeerCluster::node_state(std::size_t node) const {
  CNET_REQUIRE(node < nodes_.size(), "node index out of range");
  return *nodes_[node];
}

std::uint64_t PeerCluster::admit(std::size_t thread_hint, std::size_t node,
                                 std::uint64_t cost) {
  NodeState& ns = node_state(node);
  // Degrade is decided here, per node, so the caller learns the exact
  // partial charge — the same contract as AdmissionController::admit.
  const std::uint64_t got = ns.local->consume(
      thread_hint, cost,
      svc::settle_options(ns.overload->actions(), svc::kAllOrNothing));
  if (got > 0) {
    ns.spent.fetch_add(got, std::memory_order_relaxed);
    ns.balance.fetch_sub(static_cast<std::int64_t>(got),
                         std::memory_order_relaxed);
  }
  return got;
}

std::uint64_t PeerCluster::donate(std::size_t thread_hint, std::size_t donor,
                                  std::size_t to, std::uint64_t want) {
  NodeState& from = node_state(donor);
  NodeState& dest = node_state(to);
  if (from.partitioned.load(std::memory_order_acquire)) return 0;
  // Both ledgers lock together (std::lock's deadlock-avoiding order);
  // the carve and the recipient's new lease records are one atomic step.
  const util::DualMutexLock lock(from.ledger, dest.ledger);
  // A donation moves *leased* tokens only: every donated token keeps its
  // hierarchy grant parts, so its eventual expiry still settles against
  // the donor's account exactly. Surplus above the reserve is the shared
  // peer_surplus rule over the advisory balance.
  const std::uint64_t give = from.leases.donatable(
      from.balance.load(std::memory_order_relaxed), cfg_.peer_reserve, want);
  if (give == 0) return 0;
  // Drain the actual tokens first (the pool is the ground truth; the
  // advisory balance may run ahead of it), then carve exactly that many
  // grant parts out of the donor's newest active leases, child-first.
  const std::uint64_t drained =
      from.local->consume(thread_hint, give, svc::kPartialOk);
  if (drained == 0) return 0;
  from.balance.fetch_sub(static_cast<std::int64_t>(drained),
                         std::memory_order_relaxed);
  const std::uint64_t expiry = now_.load(std::memory_order_acquire) +
                               cfg_.lease_ttl;
  Ledger& into = dest.leases;
  from.leases.carve(drained, [&](std::size_t tenant, CarvedParts parts) {
    into.grant(tenant, parts, expiry);
  });
  dest.local->refill(thread_hint, drained);
  dest.balance.fetch_add(static_cast<std::int64_t>(drained),
                         std::memory_order_relaxed);
  donations_.fetch_add(1, std::memory_order_relaxed);
  donated_tokens_.fetch_add(drained, std::memory_order_relaxed);
  return drained;
}

std::uint64_t PeerCluster::renew(std::size_t thread_hint, std::size_t node,
                                 std::uint64_t want) {
  NodeState& ns = node_state(node);
  if (ns.partitioned.load(std::memory_order_acquire)) return 0;
  const std::uint64_t current = now_.load(std::memory_order_acquire);
  const std::uint64_t fresh_expiry = current + cfg_.lease_ttl;
  {
    // The heartbeat half: extend every active lease. The settled flag is
    // the exactly-once guard — a lease the expiry sweep already settled
    // (possibly racing this renewal on another thread) is never revived.
    const util::MutexLock lock(ns.ledger);
    ns.leases.heartbeat(fresh_expiry);
  }
  const std::uint64_t ask =
      lease_grant(want, cfg_.lease_chunk, cfg_.lease_cap);
  std::uint64_t gained = 0;
  // Nearest-first donation walk; the shared renewal_target rule decides
  // the order, the shared peer_surplus/lease_carve rules decide the size.
  for (std::size_t attempt = 0; gained < ask; ++attempt) {
    const auto target = renewal_target(topo_, node, attempt);
    if (!target.has_value()) break;
    gained += donate(thread_hint, *target, node, ask - gained);
  }
  if (gained < ask) {
    // Global fallback: a two-level acquire against the node's own account,
    // partial so a low parent still grants what it can.
    const svc::QuotaHierarchy::Grant grant =
        global_->acquire(thread_hint, node, ask - gained, svc::kPartialOk);
    if (grant.admitted && grant.tokens() > 0) {
      ns.local->refill(thread_hint, grant.tokens());
      ns.balance.fetch_add(static_cast<std::int64_t>(grant.tokens()),
                           std::memory_order_relaxed);
      const util::MutexLock lock(ns.ledger);
      ns.leases.grant(grant.tenant, {grant.from_child, grant.from_parent},
                      fresh_expiry);
      gained += grant.tokens();
    }
  }
  if (gained > 0) renewals_.fetch_add(1, std::memory_order_relaxed);
  return gained;
}

void PeerCluster::refund_expired(std::size_t thread_hint,
                                 const Ledger::Debt& expired) {
  const CarvedParts& parts = expired.parts;
  const ExpiryRefund split = lease_expiry_refund(
      parts.from_child, parts.from_parent, expired.recovered);
  const svc::QuotaHierarchy::Grant grant{
      {true, parts.from_child, parts.from_parent},
      static_cast<std::uint32_t>(expired.tenant)};
  global_->settle_spent(thread_hint, grant, split.refund_child,
                        split.refund_parent);
  expiry_refunded_.fetch_add(expired.recovered, std::memory_order_relaxed);
}

void PeerCluster::advance(std::size_t thread_hint, std::uint64_t now) {
  // Monotone clock: concurrent advances race to the max.
  std::uint64_t cur = now_.load(std::memory_order_relaxed);
  while (cur < now && !now_.compare_exchange_weak(
                          cur, now, std::memory_order_acq_rel)) {
  }
  sweep(thread_hint, now_.load(std::memory_order_acquire));
}

void PeerCluster::sweep(std::size_t thread_hint, std::uint64_t at) {
  for (auto& node : nodes_) {
    NodeState& ns = *node;
    const util::MutexLock lock(ns.ledger);
    const bool partitioned = ns.partitioned.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < ns.leases.size(); ++i) {
      // Exactly-once: the ledger flips settled under the ledger lock before
      // any token moves, so a renewal racing this sweep can never extend
      // (and a second sweep can never re-refund) a lease being settled.
      // A partitioned node's recovery sits in debt escrow — counted, held
      // out of every pool — until heal() replays it exactly once.
      const auto expired =
          ns.leases.expire(i, at, partitioned, [&](std::uint64_t tokens) {
            return ns.local->consume(thread_hint, tokens, svc::kPartialOk);
          });
      if (!expired) continue;
      ns.balance.fetch_sub(static_cast<std::int64_t>(expired->recovered),
                           std::memory_order_relaxed);
      expiries_.fetch_add(1, std::memory_order_relaxed);
      expiry_recovered_.fetch_add(expired->recovered,
                                  std::memory_order_relaxed);
      if (partitioned) {
        debt_created_.fetch_add(expired->recovered, std::memory_order_relaxed);
      } else {
        refund_expired(thread_hint, *expired);
      }
    }
    ns.leases.compact();
  }
}

void PeerCluster::partition(std::size_t node) {
  node_state(node).partitioned.store(true, std::memory_order_release);
}

void PeerCluster::heal(std::size_t thread_hint, std::size_t node) {
  NodeState& ns = node_state(node);
  const util::MutexLock lock(ns.ledger);
  ns.partitioned.store(false, std::memory_order_release);
  while (ns.leases.has_debt()) {
    ns.leases.reconcile_batch(
        cfg_.reconcile_chunk, [&](const Ledger::Debt& debt) {
          refund_expired(thread_hint, debt);
          debt_reconciled_.fetch_add(debt.recovered,
                                     std::memory_order_relaxed);
        });
  }
  CNET_ENSURE(ns.leases.escrowed() == 0, "healed node left escrowed debt");
  // Catch up on reconfiguration commits pushed while the node was dark.
  ns.observed_version.store(global_->config_version(),
                            std::memory_order_release);
}

bool PeerCluster::is_partitioned(std::size_t node) const {
  return node_state(node).partitioned.load(std::memory_order_acquire);
}

void PeerCluster::expire_all(std::size_t thread_hint) {
  sweep(thread_hint, std::numeric_limits<std::uint64_t>::max());
}

namespace {

// Partial consumes until one comes back empty: a single consume can return
// short of the pool, and refills can push a pool past the initial total.
std::uint64_t drain_pool(svc::NetTokenBucket& pool, std::size_t thread_hint,
                         std::uint64_t chunk) {
  std::uint64_t drained = 0;
  while (const auto got = pool.consume(thread_hint, chunk, svc::kPartialOk)) {
    drained += got;
  }
  return drained;
}

}  // namespace

std::uint64_t PeerCluster::drain_local(std::size_t thread_hint,
                                       std::size_t node) {
  NodeState& ns = node_state(node);
  const std::uint64_t drained =
      drain_pool(*ns.local, thread_hint, total_initial_ + 1);
  ns.balance.fetch_sub(static_cast<std::int64_t>(drained),
                       std::memory_order_relaxed);
  return drained;
}

std::uint64_t PeerCluster::drain_global(std::size_t thread_hint) {
  std::uint64_t drained =
      drain_pool(global_->parent(), thread_hint, total_initial_ + 1);
  for (std::size_t i = 0; i < global_->num_tenants(); ++i) {
    drained += drain_pool(global_->child(i), thread_hint, total_initial_ + 1);
  }
  return drained;
}

svc::OverloadManager& PeerCluster::overload(std::size_t node) {
  return *node_state(node).overload;
}

void PeerCluster::evaluate_overload() {
  for (auto& ns : nodes_) ns->overload->evaluate();
}

std::int64_t PeerCluster::local_balance(std::size_t node) const {
  return node_state(node).balance.load(std::memory_order_acquire);
}

std::uint64_t PeerCluster::leased_tokens(std::size_t node) const {
  NodeState& ns = node_state(node);
  const util::MutexLock lock(ns.ledger);
  return ns.leases.active_tokens();
}

std::uint64_t PeerCluster::active_leases(std::size_t node) const {
  NodeState& ns = node_state(node);
  const util::MutexLock lock(ns.ledger);
  return ns.leases.active_leases();
}

std::uint64_t PeerCluster::debt_tokens(std::size_t node) const {
  NodeState& ns = node_state(node);
  const util::MutexLock lock(ns.ledger);
  return ns.leases.escrowed();
}

std::uint64_t PeerCluster::spent(std::size_t node) const {
  return node_state(node).spent.load(std::memory_order_acquire);
}

std::uint64_t PeerCluster::total_spent() const {
  std::uint64_t total = 0;
  for (const auto& ns : nodes_) {
    total += ns->spent.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t PeerCluster::observed_reweigh_version(std::size_t node) const {
  return node_state(node).observed_version.load(std::memory_order_acquire);
}

}  // namespace cnet::dist
