// The quota family: simulate_quota (Table D′) and simulate_overload (Table
// E′). Both run one acquire → hold → release flow over per-tenant child
// pools and a shared parent; simulate_overload adds the manager's sampler
// and staggered core entry on top of it.
#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cnet/sim/multicore.hpp"
#include "cnet/sim/vtime.hpp"
#include "cnet/svc/overload.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/prng.hpp"

namespace cnet::sim {

namespace {

using vtime::CounterModel;
using vtime::Done;
using vtime::Engine;

// The svc::QuotaHierarchy workload in virtual time: each core steps the
// same svc::QuotaPlan the live hierarchy steps — acquire, hold, then the
// settle plan that returns each part to the level it came from — over
// per-tenant child models and the shared parent model. `actions` is the
// overload tier in force (nominal unless a manager changes it); the
// registry of held grants is what a shed sweep force-refunds.
class QuotaFlow {
 public:
  QuotaFlow(const svc::BackendSpec& parent_spec, const QuotaSimConfig& cfg)
      : rng(cfg.base.seed),
        parent_stack(vtime::make_model(parent_spec, eng, cfg.base, rng)),
        parent(*parent_stack.root),
        borrowed(cfg.tenants, 0),
        active_cores(cfg.cores),
        cfg_(cfg),
        held_(cfg.tenants),
        shed_flag_(cfg.tenants, 0),
        cores_(cfg.cores) {
    CNET_REQUIRE(cfg.cores >= 1, "need at least one simulated core");
    CNET_REQUIRE(cfg.tenants >= 1, "need at least one tenant");
    CNET_REQUIRE(cfg.hot_tenants <= cfg.tenants,
                 "hot tenants cannot exceed tenants");
    CNET_REQUIRE(cfg.ops_per_core >= 1, "need at least one op per core");
    CNET_REQUIRE(cfg.acquire_cost >= 1, "acquire cost must be positive");
    CNET_REQUIRE(cfg.hot_weight > 0 && cfg.cold_weight > 0,
                 "weights must be positive");
    CNET_REQUIRE(cfg.hold_time >= 0.0 && cfg.think_time >= 0.0,
                 "delays must be nonnegative");
    parent.inject_pool_now(cfg.parent_initial);

    // Per-tenant child pools: central-word models, matching the real
    // hierarchy's default child backend — cheap alone, and honestly a
    // queue when many hot cores share one tenant.
    children.reserve(cfg.tenants);
    for (std::size_t t = 0; t < cfg.tenants; ++t) {
      children.push_back(std::make_unique<vtime::CentralModel>(
          eng, cfg.base.central_slope,
          vtime::ServiceDraw(cfg.base.central_service,
                             cfg.base.exponential_service, rng),
          /*empty_read_fast_path=*/true));
      children.back()->inject_pool_now(cfg.child_initial);
    }

    // Core pinning: the first hot_core_share of the cores round-robin over
    // the hot tenants, the rest over the cold ones.
    const std::size_t cold_tenants = cfg.tenants - cfg.hot_tenants;
    std::size_t hot_cores =
        cfg.hot_tenants == 0
            ? 0
            : static_cast<std::size_t>(
                  static_cast<double>(cfg.cores) * cfg.hot_core_share + 0.5);
    if (cfg.hot_tenants > 0 && hot_cores < cfg.hot_tenants) {
      hot_cores = cfg.hot_tenants;  // every hot tenant gets a core
    }
    if (cold_tenants == 0) hot_cores = cfg.cores;
    hot_cores = std::min(hot_cores, cfg.cores);
    tenant_of_.resize(cfg.cores);
    for (std::size_t c = 0; c < cfg.cores; ++c) {
      tenant_of_[c] = c < hot_cores
                          ? c % cfg.hot_tenants
                          : cfg.hot_tenants + (c - hot_cores) % cold_tenants;
    }

    // Weighted borrow limits, from the same shared rule the real hierarchy
    // applies at construction.
    weights.resize(cfg.tenants);
    for (std::size_t t = 0; t < cfg.tenants; ++t) {
      weights[t] = t < cfg.hot_tenants ? cfg.hot_weight : cfg.cold_weight;
    }
    res.limit_per_tenant = svc::reweigh_limits(cfg.borrow_budget, weights);
    for (const std::uint64_t limit : res.limit_per_tenant) total_limit += limit;
    res.attempts_per_tenant.assign(cfg.tenants, 0);
    res.admitted_per_tenant.assign(cfg.tenants, 0);
    res.peak_borrowed_per_tenant.assign(cfg.tenants, 0);
    shed_rejects_per_tenant.assign(cfg.tenants, 0);
  }

  // Scheduled events capture `this`.
  QuotaFlow(const QuotaFlow&) = delete;
  QuotaFlow& operator=(const QuotaFlow&) = delete;

  // Core c enters at c * stagger; run the engine afterwards.
  void start_cores(double stagger) {
    for (std::size_t c = 0; c < cfg_.cores; ++c) {
      eng.at(static_cast<double>(c) * stagger, [this, c] { step(c); });
    }
  }

  // Fills res's timing, stall and ledger fields once the engine drained.
  void finish() {
    res.makespan = makespan_;
    res.ops_per_vtime = static_cast<double>(res.acquire_ops) /
                        std::max(makespan_, 1e-12);
    res.goodput_per_vtime =
        static_cast<double>(res.admitted) / std::max(makespan_, 1e-12);
    res.parent_stalls = parent.stalls();
    for (const auto& child : children) res.child_stalls += child->stalls();

    // Exact quiescent ledger: every child pool back at child_initial, the
    // parent back at parent_initial, no outstanding borrow, no pool ever
    // negative — each grant part returned to the level it came from.
    bool quiescent_exact =
        !parent.pool_ever_negative() &&
        parent.pool() == static_cast<std::int64_t>(cfg_.parent_initial);
    for (std::size_t t = 0; t < cfg_.tenants; ++t) {
      quiescent_exact = quiescent_exact &&
                        !children[t]->pool_ever_negative() &&
                        children[t]->pool() ==
                            static_cast<std::int64_t>(cfg_.child_initial) &&
                        borrowed[t] == 0;
    }
    res.conserved = quiescent_exact;
    res.isolation = res.cold_rejected == 0;

    for (const std::size_t ops : cores_) {
      CNET_ENSURE(ops == cfg_.ops_per_core, "simulated core finished early");
    }
  }

  // Enters the shed tier: svc::shed_set picks the tenants; their
  // outstanding grants are force-refunded to the level each part came
  // from, and their later attempts reject without touching any pool until
  // restore().
  void shed(double fraction) {
    for (const std::size_t t : svc::shed_set(weights, fraction)) {
      shed_flag_[t] = 1;
      currently_shed.push_back(t);
      for (const std::size_t idx : held_[t]) {
        Grant& g = grants_[idx];
        if (g.released) continue;
        g.released = true;
        shed_refunded_tokens += g.tokens();
        release(/*c=*/t, idx, [] {});
      }
      held_[t].clear();
    }
  }
  void restore() {
    for (const std::size_t t : currently_shed) shed_flag_[t] = 0;
    currently_shed.clear();
  }

  // The models, and the state the overload manager reads and actuates.
  Engine eng;
  util::Xoshiro256 rng;
  vtime::ModelStack parent_stack;
  CounterModel& parent;
  std::vector<std::unique_ptr<CounterModel>> children;
  std::vector<std::uint64_t> weights;
  std::vector<std::uint64_t> borrowed;
  std::uint64_t total_limit = 0;
  svc::OverloadActions actions;  // defaults == nominal
  std::size_t active_cores = 0;  // cores still running their loop
  std::vector<std::size_t> currently_shed;

  // Tallies. res.acquire_ops and attempts_per_tenant count every attempt,
  // shed turn-aways included; rejected counts organic rejects only.
  QuotaSimResult res;
  std::uint64_t degraded_admits = 0;
  std::uint64_t shed_rejects = 0;
  std::uint64_t shed_refunded_tokens = 0;
  std::vector<std::uint64_t> shed_rejects_per_tenant;

 private:
  const QuotaSimConfig& cfg_;
  // Outstanding-grant registry for exact shed refunds. A grant is refunded
  // exactly once: either by its hold-expiry event or — if a shed sweep got
  // there first — by the force-refund, with the expiry finding `released`
  // set and doing nothing. (The engine cannot cancel scheduled events, so
  // the flag is the cancellation.) Deque: references stay valid across
  // push_back, which the in-flight continuations rely on.
  struct Grant : svc::QuotaOutcome {
    std::size_t tenant = 0;
    bool released = false;
  };

  void touch() { makespan_ = std::max(makespan_, eng.now()); }
  void next(std::size_t c, double at) {
    eng.at(at, [this, c] { step(c); });
  }

  // kShrinkBatch actuation: refunds return in chunks of
  // max(1, n / batch_divisor) — several short exclusive holds instead of
  // one bulk traversal. Divisor 1 (nominal) degenerates to a single call.
  // n > 0: the plan puts only nonzero parts.
  void refund_chunked(CounterModel* model, std::size_t c, std::uint64_t n,
                      Done done) {
    const std::uint64_t k = std::min(
        n, std::max<std::uint64_t>(1, n / actions.batch_divisor));
    model->refund_n(c, k,
                    [this, model, c, n, k, done = std::move(done)]() mutable {
                      if (k == n) return done();
                      refund_chunked(model, c, n - k, std::move(done));
                    });
  }

  // Tenant t's pool models, core c the thread hint: puts are chunked as
  // above, and the decision reads the tier in force at that instant, as
  // QuotaHierarchy reads OverloadManager::actions(), and tallies the
  // attempt. The peak borrow is read at the parent take, which directly
  // follows a won reservation.
  struct Levels {
    QuotaFlow* flow;
    std::size_t c, t;

    CounterModel& pool(bool parent) const {
      return parent ? flow->parent : *flow->children[t];
    }
    void take(bool parent, std::uint64_t n, vtime::DoneN done) const {
      std::uint64_t& peak = flow->res.peak_borrowed_per_tenant[t];
      if (parent) peak = std::max(peak, borrowed());
      pool(parent).try_decrement_n(c, n, std::move(done));
    }
    void put(bool parent, std::uint64_t n, Done done) const {
      flow->refund_chunked(&pool(parent), c, n, std::move(done));
    }
    std::uint64_t& borrowed() const { return flow->borrowed[t]; }
    std::uint64_t limit() const { return flow->res.limit_per_tenant[t]; }
    void decide(svc::QuotaPlan& plan) const {
      plan.decide(svc::settle_options(flow->actions, svc::kAllOrNothing));
      const svc::QuotaOutcome out = plan.result();
      QuotaSimResult& res = flow->res;
      ++res.acquire_ops;
      ++res.attempts_per_tenant[t];
      ++flow->cores_[c];
      if (!out.admitted) {
        ++res.rejected;
        ++(t < flow->cfg_.hot_tenants ? res.hot_rejected : res.cold_rejected);
        return;
      }
      ++res.admitted;
      ++res.admitted_per_tenant[t];
      res.granted_child_tokens += out.from_child;
      res.granted_parent_tokens += out.from_parent;
      if (out.tokens() < flow->cfg_.acquire_cost) ++flow->degraded_admits;
    }
  };

  // A grant's end: every part back to the level it came from, through the
  // same settle plan QuotaHierarchy::release steps.
  void release(std::size_t c, std::size_t idx, Done after) {
    const Grant& g = grants_[idx];
    vtime::step_quota_plan(
        Levels{this, c, g.tenant},
        svc::QuotaPlan::settle(g, g.from_child, g.from_parent),
        [this, after = std::move(after)](const svc::QuotaOutcome&) {
          touch();
          after();
        });
  }

  // One attempt: the acquire plan, then on admit a held grant whose hold
  // expiry releases it; the next attempt follows the release (or the
  // reject) plus think time.
  void step(std::size_t c) {
    if (cores_[c] == cfg_.ops_per_core) {
      --active_cores;
      return;
    }
    const std::size_t t = tenant_of_[c];
    if (shed_flag_[t] != 0) {
      // The shed fast path: rejected before any pool is touched, so there
      // is nothing to refund (QuotaHierarchy::acquire's shed check).
      ++res.acquire_ops;
      ++res.attempts_per_tenant[t];
      ++shed_rejects;
      ++shed_rejects_per_tenant[t];
      ++cores_[c];
      touch();
      next(c, eng.now() + cfg_.think_time);
      return;
    }
    vtime::step_quota_plan(
        Levels{this, c, t}, svc::QuotaPlan::acquire(cfg_.acquire_cost),
        [this, c, t](const svc::QuotaOutcome& out) {
          touch();
          if (!out.admitted) {
            next(c, eng.now() + cfg_.think_time);
            return;
          }
          const std::size_t idx = grants_.size();
          grants_.push_back({out, t, false});
          held_[t].push_back(idx);
          eng.at(eng.now() + cfg_.hold_time, [this, c, idx] {
            Grant& g = grants_[idx];
            if (g.released) {  // force-refunded by a shed sweep meanwhile
              touch();
              next(c, eng.now() + cfg_.think_time);
              return;
            }
            g.released = true;
            release(c, idx,
                    [this, c] { next(c, eng.now() + cfg_.think_time); });
          });
        });
  }
  std::vector<std::size_t> tenant_of_;
  std::deque<Grant> grants_;
  // Per-tenant indices of possibly-live grants, cleaned lazily (a shed
  // sweep skips entries whose grant was already released).
  std::vector<std::vector<std::size_t>> held_;
  std::vector<char> shed_flag_;
  std::vector<std::size_t> cores_;  // ops done per core
  double makespan_ = 0.0;
};

}  // namespace

QuotaSimConfig quota_sim_reference_config(std::size_t cores) {
  QuotaSimConfig cfg;
  cfg.cores = cores;
  cfg.tenants = 8;
  cfg.hot_tenants = 1;
  cfg.hot_core_share = 0.75;
  cfg.ops_per_core = 512;
  cfg.base.exponential_service = true;
  cfg.base.seed = 0xB10C0DE;
  return cfg;
}

QuotaSimResult simulate_quota(const svc::BackendSpec& parent_spec,
                              const QuotaSimConfig& cfg) {
  QuotaFlow flow(parent_spec, cfg);
  flow.start_cores(/*stagger=*/0.0);
  flow.eng.run();
  flow.finish();
  return flow.res;
}

OverloadSimConfig overload_sim_reference_config() {
  OverloadSimConfig cfg;
  cfg.quota.base.exponential_service = true;
  cfg.quota.base.seed = 0xB10C0DE;
  return cfg;
}

OverloadSimResult simulate_overload(const svc::BackendSpec& parent_spec,
                                    const OverloadSimConfig& cfg) {
  CNET_REQUIRE(cfg.core_start_stagger >= 0.0, "delays must be nonnegative");
  CNET_REQUIRE(cfg.sample_every > 0.0, "sample cadence must be positive");

  QuotaFlow flow(parent_spec, cfg.quota);
  Engine& eng = flow.eng;
  OverloadSimResult res;

  // The real manager, sampled in virtual time. Its three monitors read the
  // flow's counters: the parent stall rate, the organic reject ratio (shed
  // turn-aways are the manager's own doing and never reach a bucket), and
  // aggregate borrow occupancy, set just before each evaluate().
  svc::OverloadManager manager({cfg.thresholds, cfg.shed_fraction});
  manager.add_monitor(std::make_unique<svc::WindowedRateMonitor>(
      "stall_rate", [&] { return flow.res.acquire_ops; },
      [&] { return flow.parent.stalls(); }, cfg.stall_saturation));
  manager.add_monitor(std::make_unique<svc::WindowedRateMonitor>(
      "reject_ratio", [&] { return flow.res.acquire_ops; },
      [&] { return flow.res.rejected; }, 1.0));
  auto& borrow = static_cast<svc::GaugeMonitor&>(manager.add_monitor(
      std::make_unique<svc::GaugeMonitor>("borrow_pressure",
                                          flow.total_limit)));

  // A tier change takes effect here: the workload reads the new action
  // table, a forced adaptive swap fires, and entering/leaving the shed
  // tier runs the shed_set sweep / the restore on the simulated tenants.
  const auto apply_transition = [&](svc::OverloadTier from,
                                    svc::OverloadTier to) {
    res.transitions.push_back({eng.now(), from, to, manager.pressure()});
    const bool was_shedding = flow.actions.shed_tenants;
    flow.actions = svc::overload_actions(to);
    if (to > res.peak_tier) res.peak_tier = to;
    vtime::AdaptiveModel* adaptive = flow.parent_stack.adaptive;
    if (flow.actions.force_eliminate && adaptive != nullptr &&
        !adaptive->switched()) {
      adaptive->force_switch_now();
      res.forced_switch = true;
      res.forced_switch_time = eng.now();
    }
    if (flow.actions.shed_tenants && !was_shedding) {
      ++res.shed_events;
      flow.shed(cfg.shed_fraction);
    } else if (!flow.actions.shed_tenants && was_shedding) {
      ++res.restore_events;
      flow.restore();
    }
  };

  // The periodic evaluate(). The sampler keeps itself alive while cores
  // run, then for at most drain_samples more while the tier decays back to
  // nominal.
  std::size_t drain_budget = cfg.drain_samples;
  std::function<void()> sample = [&] {
    std::uint64_t borrowed_total = 0;
    for (const std::uint64_t b : flow.borrowed) borrowed_total += b;
    borrow.set(borrowed_total);
    const svc::OverloadTier from = manager.tier();
    const svc::OverloadTier to = manager.evaluate();
    if (to != from) apply_transition(from, to);
    if (flow.active_cores > 0) {
      eng.at(eng.now() + cfg.sample_every, sample);
    } else if (to != svc::OverloadTier::kNominal && drain_budget > 0) {
      --drain_budget;
      eng.at(eng.now() + cfg.sample_every, sample);
    }
  };

  flow.start_cores(cfg.core_start_stagger);
  eng.at(cfg.sample_every, sample);
  eng.run();
  flow.finish();

  res.makespan = flow.res.makespan;
  res.attempts = flow.res.acquire_ops;
  res.admitted = flow.res.admitted;
  res.rejected = flow.res.rejected;
  res.degraded_admits = flow.degraded_admits;
  res.shed_rejects = flow.shed_rejects;
  res.shed_refunded_tokens = flow.shed_refunded_tokens;
  res.shed_rejects_per_tenant = flow.shed_rejects_per_tenant;
  res.final_tier = manager.tier();
  res.conserved = flow.res.conserved;

  bool hysteresis_ok = true;
  for (const OverloadSimTransition& tr : res.transitions) {
    const auto from_i = static_cast<std::size_t>(tr.from);
    const auto to_i = static_cast<std::size_t>(tr.to);
    if (to_i > from_i) {
      hysteresis_ok =
          hysteresis_ok && tr.pressure >= cfg.thresholds.enter[to_i] - 1e-12;
    } else {
      hysteresis_ok = hysteresis_ok &&
                      tr.pressure <= cfg.thresholds.enter[from_i] -
                                         cfg.thresholds.hysteresis + 1e-12;
    }
  }
  res.hysteresis_respected = hysteresis_ok;
  res.recovered = res.final_tier == svc::OverloadTier::kNominal &&
                  flow.currently_shed.empty();
  return res;
}

}  // namespace cnet::sim
