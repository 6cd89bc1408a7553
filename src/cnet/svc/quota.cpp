#include "cnet/svc/quota.hpp"

#include <utility>

#include "cnet/svc/overload.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::svc {

std::unique_ptr<QuotaHierarchy::WeightState> QuotaHierarchy::make_weights(
    std::uint64_t borrow_budget, std::size_t tenants,
    const std::vector<std::uint64_t>& weights) {
  CNET_REQUIRE(reweigh_safe(tenants, weights),
               "weight vector must cover every tenant with positive weights");
  auto state = std::make_unique<WeightState>();
  state->weights = weights;
  state->limits = reweigh_limits(borrow_budget, weights);
  return state;
}

namespace {
std::vector<std::uint64_t> initial_weights(
    const std::vector<QuotaHierarchy::TenantConfig>& tenants) {
  std::vector<std::uint64_t> weights;
  weights.reserve(tenants.size());
  for (const auto& t : tenants) weights.push_back(t.weight);
  return weights;
}
}  // namespace

QuotaHierarchy::QuotaHierarchy(const Config& cfg,
                               std::vector<TenantConfig> tenants)
    : parent_(make_counter(cfg.parent, cfg.net),
              NetTokenBucket::Config{cfg.parent_initial_tokens,
                                     cfg.bucket.refill_chunk}),
      tenants_(tenants.size()),
      weights_(make_weights(cfg.borrow_budget, tenants.size(),
                            initial_weights(tenants))),
      borrow_budget_(cfg.borrow_budget) {
  CNET_REQUIRE(!tenants.empty(), "at least one tenant");
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants_[i].bucket = std::make_unique<NetTokenBucket>(
        make_counter(cfg.child, cfg.net),
        NetTokenBucket::Config{tenants[i].initial_tokens,
                               cfg.bucket.refill_chunk});
  }
}

// One tenant's side of the hierarchy: its bucket, its reservation word and
// the parent; `opts` (with the overload degrade action on top) decides.
struct QuotaHierarchy::Pools {
  QuotaHierarchy& q;
  std::size_t hint;
  std::size_t tenant;
  ConsumeOptions opts;

  TenantState& state() const { return q.tenants_[tenant]; }
  NetTokenBucket& pool(bool parent) const {
    return parent ? q.parent_ : *state().bucket;
  }
  // Always partial: the plan's decision, not the pool, says whether a
  // short yield admits.
  std::uint64_t take(bool parent, std::uint64_t n) const {
    return pool(parent).consume(hint, n, kPartialOk);
  }
  void put(bool parent, std::uint64_t n) const { pool(parent).refund(hint, n); }
  // Secures exactly n borrow headroom or none; the CAS loop over
  // borrow_reservation keeps borrowed <= limit an always-true invariant.
  // The limit is read inside one engine read section, so the whole loop
  // runs against a single weight generation.
  std::uint64_t reserve(std::uint64_t n) const {
    return q.weights_.read(hint, [&](const WeightState& ws) -> std::uint64_t {
      const std::uint64_t limit = ws.limits[tenant];
      auto& borrowed = state().borrowed;
      std::uint64_t cur = borrowed.load(std::memory_order_relaxed);
      for (;;) {
        // After a reweigh shrinks the limit below the outstanding borrow,
        // the rule yields 0 until releases drain the overage — the new cap
        // binds without any claw-back.
        const std::uint64_t got = borrow_reservation(n, cur, limit);
        if (got == 0) return 0;
        // acq_rel: a winning reservation must observe the parent-pool
        // refund that preceded the release which freed this headroom (the
        // plan puts the tokens back *before* shrinking borrowed).
        if (borrowed.compare_exchange_weak(cur, cur + got,
                                           std::memory_order_acq_rel)) {
          return got;
        }
      }
    });
  }
  void unreserve(std::uint64_t n) const {
    state().borrowed.fetch_sub(n, std::memory_order_release);
  }
  ConsumeOptions options() const {
    if (q.overload_ == nullptr) return opts;
    return settle_options(q.overload_->actions(), opts);
  }
};

QuotaHierarchy::Grant QuotaHierarchy::acquire(std::size_t thread_hint,
                                              std::size_t tenant,
                                              std::uint64_t tokens,
                                              ConsumeOptions opts) {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  const auto id = static_cast<std::uint32_t>(tenant);
  // A shed tenant is rejected before any pool is touched: no tokens move,
  // so there is nothing to refund and conservation is trivial.
  if (tenants_[tenant].shed.load(std::memory_order_acquire)) return {{}, id};
  return {run_quota_plan(QuotaPlan::acquire(tokens),
                         Pools{*this, thread_hint, tenant, opts}),
          id};
}

void QuotaHierarchy::settle_spent(std::size_t thread_hint, const Grant& grant,
                                  std::uint64_t refund_child,
                                  std::uint64_t refund_parent) {
  CNET_REQUIRE(grant.admitted, "settlement of a rejected grant");
  CNET_REQUIRE(grant.tenant < tenants_.size(), "grant tenant out of range");
  CNET_REQUIRE(refund_child <= grant.from_child,
               "child refund exceeds the grant's child part");
  CNET_REQUIRE(refund_parent <= grant.from_parent,
               "parent refund exceeds the grant's parent part");
  // Reweigh-independent: the grant records what was borrowed under
  // whatever limits then held, so the settlement is exact under any
  // current weight generation.
  run_quota_plan(QuotaPlan::settle(grant, refund_child, refund_parent),
                 Pools{*this, thread_hint, grant.tenant, kAllOrNothing});
}

std::uint64_t QuotaHierarchy::reweigh(
    std::size_t thread_hint, const std::vector<std::uint64_t>& weights) {
  (void)thread_hint;
  auto next = make_weights(borrow_budget_, tenants_.size(), weights);
  // No migration: outstanding borrows carry over untouched. The commit's
  // quiescence wait is what guarantees no reservation CAS-loop straddles
  // the generations — each loop ran wholly against old limits or runs
  // wholly against new ones.
  return weights_.commit(std::move(next),
                         [](WeightState&, WeightState&) {});
}

void QuotaHierarchy::refill_tenant(std::size_t thread_hint,
                                   std::size_t tenant, std::uint64_t tokens) {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  tenants_[tenant].bucket->refill(thread_hint, tokens);
}

void QuotaHierarchy::shed(std::size_t tenant) {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  tenants_[tenant].shed.store(true, std::memory_order_release);
}

void QuotaHierarchy::restore(std::size_t tenant) {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  tenants_[tenant].shed.store(false, std::memory_order_release);
}

bool QuotaHierarchy::is_shed(std::size_t tenant) const {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  return tenants_[tenant].shed.load(std::memory_order_acquire);
}

void QuotaHierarchy::attach_overload(const OverloadManager* manager) noexcept {
  overload_ = manager;
  parent_.attach_overload(manager);
  for (TenantState& state : tenants_) state.bucket->attach_overload(manager);
}

std::uint64_t QuotaHierarchy::borrowed(std::size_t tenant) const {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  return tenants_[tenant].borrowed.load(std::memory_order_acquire);
}

std::uint64_t QuotaHierarchy::borrow_limit(std::size_t tenant) const {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  return weights_.current().limits[tenant];
}

std::uint64_t QuotaHierarchy::weight(std::size_t tenant) const {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  return weights_.current().weights[tenant];
}

NetTokenBucket& QuotaHierarchy::child(std::size_t tenant) {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  return *tenants_[tenant].bucket;
}

std::uint64_t QuotaHierarchy::stall_count() const {
  std::uint64_t total = parent_.stall_count();
  for (const TenantState& state : tenants_) {
    total += state.bucket->stall_count();
  }
  return total;
}

}  // namespace cnet::svc
