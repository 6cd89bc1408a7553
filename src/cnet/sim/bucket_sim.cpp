// The bucket family: simulate_multicore (Table B′) and simulate_reconfig
// (Table F′), one consume/refill loop with two ways of picking the pool
// model an op issues on.
#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "cnet/sim/multicore.hpp"
#include "cnet/sim/vtime.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/prng.hpp"

namespace cnet::sim {

namespace {

using vtime::CounterModel;
using vtime::Engine;
using vtime::ModelStack;

// The Table B workload, one closed loop per core: consume(1) as one
// bounded claim on the pool model, a bulk refill every refill_every
// consumes, think_time between ops. `issue()` returns the pool model the op
// issuing now runs on plus a tag that `complete(tag)` receives first thing
// when that op completes. Fills res's consume_ops / consumed / rejected /
// refilled / makespan; the caller fills in the rest.
template <class Result, class Issue, class Complete>
void run_bucket_loop(Engine& eng, const MulticoreConfig& cfg, Result& res,
                     Issue issue, Complete complete) {
  struct CoreState {
    std::size_t ops_done = 0;
    std::size_t since_refill = 0;
  };
  std::vector<CoreState> cores(cfg.cores);

  // Declared std::function for self-reference (each completion schedules
  // the core's next op).
  std::function<void(std::size_t)> step = [&](std::size_t c) {
    if (cores[c].ops_done == cfg.ops_per_core) return;
    const auto [model, tag] = issue();
    // consume(1): one bounded claim that yields 0 or 1, so there is no
    // partial grab to settle or refund.
    model->try_decrement_n(c, 1, [&, c, tag](std::uint64_t got) {
      complete(tag);
      CoreState& me = cores[c];
      ++res.consume_ops;
      ++me.ops_done;
      res.consumed += got;
      if (got == 0) ++res.rejected;
      res.makespan = std::max(res.makespan, eng.now());
      const bool refill_due = ++me.since_refill == cfg.refill_every;
      if (refill_due) me.since_refill = 0;
      const double next_at = eng.now() + cfg.think_time;
      if (!refill_due) {
        eng.at(next_at, [&, c] { step(c); });
        return;
      }
      const auto [refill_model, refill_tag] = issue();
      refill_model->increment_n(c, cfg.refill_every,
                                [&, c, refill_tag, next_at] {
                                  complete(refill_tag);
                                  res.refilled += cfg.refill_every;
                                  res.makespan =
                                      std::max(res.makespan, eng.now());
                                  eng.at(std::max(next_at, eng.now()),
                                         [&, c] { step(c); });
                                });
    });
  };

  for (std::size_t c = 0; c < cfg.cores; ++c) step(c);
  eng.run();

  // Every core must have completed its loop (the event queue drains only
  // when no completion is pending).
  for (const CoreState& core : cores) {
    CNET_ENSURE(core.ops_done == cfg.ops_per_core,
                "simulated core finished early");
  }
}

void require_bucket_workload(const MulticoreConfig& cfg) {
  CNET_REQUIRE(cfg.cores >= 1, "need at least one simulated core");
  CNET_REQUIRE(cfg.ops_per_core >= 1, "need at least one op per core");
  CNET_REQUIRE(cfg.refill_every >= 1, "refill cadence must be positive");
  CNET_REQUIRE(cfg.think_time >= 0.0 && cfg.wire_delay >= 0.0,
               "delays must be nonnegative");
}

}  // namespace

std::vector<svc::BackendSpec> multicore_sweep_specs() {
  std::vector<svc::BackendSpec> specs;
  for (const auto kind : svc::kPoolBackendKinds) {
    specs.push_back({kind, false});
  }
  specs.push_back({svc::BackendKind::kCentralAtomic, true});
  specs.push_back({svc::BackendKind::kBatchedNetwork, true});
  return specs;
}

MulticoreResult simulate_multicore(const svc::BackendSpec& spec,
                                   const MulticoreConfig& cfg) {
  require_bucket_workload(cfg);

  Engine eng;
  util::Xoshiro256 rng(cfg.seed);
  ModelStack stack = vtime::make_model(spec, eng, cfg, rng);
  CounterModel& model = *stack.root;

  MulticoreResult res;
  res.initial_tokens = cfg.initial_tokens_per_core * cfg.cores;
  model.inject_pool_now(res.initial_tokens);

  run_bucket_loop(
      eng, cfg, res, [&] { return std::pair{&model, false}; },
      [](bool) {});

  res.ops_per_vtime =
      static_cast<double>(res.consume_ops) / std::max(res.makespan, 1e-12);
  res.stall_events = model.stalls();
  res.final_pool = model.pool();
  res.conserved =
      !model.pool_ever_negative() && res.final_pool >= 0 &&
      res.consumed + static_cast<std::uint64_t>(res.final_pool) ==
          res.refilled + res.initial_tokens;
  if (stack.elim != nullptr) {
    res.elim_pairs = stack.elim->pairs();
    res.elim_withdrawals = stack.elim->withdrawals();
    res.elim_value_sum = stack.elim->value_sum();
  }
  if (stack.adaptive != nullptr) {
    res.switched = stack.adaptive->switched();
    res.switch_time = stack.adaptive->switch_time();
    res.ops_at_switch = stack.adaptive->ops_at_switch();
  }
  return res;
}

// --------------------------------------------------------------- reconfig

ReconfigSimConfig reconfig_sim_reference_config() {
  ReconfigSimConfig cfg;
  cfg.base.cores = 8;
  cfg.base.ops_per_core = 2048;
  cfg.base.refill_every = 128;
  cfg.base.initial_tokens_per_core = 64;
  cfg.base.exponential_service = true;
  cfg.base.seed = 0x5EC0AD;
  cfg.spec_to = {svc::BackendKind::kCentralAtomic, false};
  cfg.respec_at = 300.0;
  cfg.rechunk_divisor = 4;
  return cfg;
}

svc::BackendSpec reconfig_respec_target(const svc::BackendSpec& spec_from) {
  switch (spec_from.kind) {
    case svc::BackendKind::kCentralAtomic:
    case svc::BackendKind::kCentralCas:
    case svc::BackendKind::kCentralMutex:
      return {svc::BackendKind::kBatchedNetwork, false};
    default:
      return {svc::BackendKind::kCentralAtomic, false};
  }
}

ReconfigSimResult simulate_reconfig(const svc::BackendSpec& spec_from,
                                    const ReconfigSimConfig& cfg) {
  const MulticoreConfig& base = cfg.base;
  require_bucket_workload(base);
  CNET_REQUIRE(cfg.respec_at >= 0.0, "respec instant must be nonnegative");
  // The same staging rules the live NetTokenBucket::respec enforces: the
  // re-divided chunk is computed by the shared policy function and must be
  // a legal chunk before anything is built.
  const std::size_t staged_chunk =
      svc::divided_chunk(base.batch_k, cfg.rechunk_divisor);
  CNET_REQUIRE(svc::respec_safe(staged_chunk),
               "staged batch chunk out of range");

  Engine eng;
  util::Xoshiro256 rng(base.seed);
  ModelStack old_stack = vtime::make_model(spec_from, eng, base, rng);
  ModelStack new_stack;  // built off to the side at the stage instant

  ReconfigSimResult res;
  res.staged_chunk = staged_chunk;
  res.initial_tokens = base.initial_tokens_per_core * base.cores;
  old_stack.root->inject_pool_now(res.initial_tokens);

  // The RCU mirror: `active` is the published pointer new ops load at
  // issue; ops already in flight on the old stack are the reader sections
  // the commit must wait out. outstanding_old counts them exactly.
  CounterModel* active = old_stack.root.get();
  std::uint64_t outstanding_old = 0;
  bool staged = false;
  bool committed = false;

  const auto maybe_commit = [&] {
    if (!staged || committed || outstanding_old != 0) return;
    // Quiescence: no in-flight op can touch the old stack again, so its
    // remaining count is well-defined — the paper's §2.2 argument run in
    // reverse — and the migration is one exact instantaneous transfer.
    committed = true;
    res.respec_commit_time = eng.now();
    res.migrated_tokens = old_stack.root->drain_pool_now();
    new_stack.root->inject_pool_now(res.migrated_tokens);
    res.config_version = 2;
  };

  eng.at(cfg.respec_at, [&] {
    // Stage: build the full replacement (new backend, re-divided chunk)
    // and publish it. From this event on, every newly issued op routes to
    // the new stack; the commit fires once the old drains.
    ModelConfig staged_cfg = base;
    staged_cfg.batch_k = staged_chunk;
    new_stack = vtime::make_model(cfg.spec_to, eng, staged_cfg, rng);
    active = new_stack.root.get();
    staged = true;
    res.respec_staged_time = eng.now();
    maybe_commit();
  });

  // Each op's issue reads the published pointer and, while it still
  // routes to the old stack, bumps the old stack's reader count; every
  // completion may be the last old-stack reader the commit waits for.
  run_bucket_loop(
      eng, base, res,
      [&] {
        const bool on_old = !staged;  // active flips exactly at the stage
        if (on_old) ++outstanding_old;
        return std::pair{active, on_old};
      },
      [&](bool on_old) {
        if (on_old) --outstanding_old;
        maybe_commit();
      });

  res.old_stalls = old_stack.root->stalls();
  res.new_stalls = new_stack.root != nullptr ? new_stack.root->stalls() : 0;
  const std::int64_t old_pool = old_stack.root->pool();
  const std::int64_t new_pool =
      new_stack.root != nullptr ? new_stack.root->pool() : 0;
  res.final_pool = old_pool + new_pool;
  bool never_negative = !old_stack.root->pool_ever_negative();
  if (new_stack.root != nullptr) {
    never_negative = never_negative && !new_stack.root->pool_ever_negative();
  }
  res.conserved =
      never_negative && res.final_pool >= 0 &&
      (!committed || old_pool == 0) &&  // the retired pool stays drained
      res.consumed + static_cast<std::uint64_t>(res.final_pool) ==
          res.refilled + res.initial_tokens;
  return res;
}

}  // namespace cnet::sim
