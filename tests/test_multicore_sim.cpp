// sim::simulate_multicore: the virtual-time svc simulator must be (a)
// bit-deterministic from its seed — that is the whole point of answering
// "Table B needs real cores" in virtual time — (b) shaped like the paper
// (central wins uncontended, network wins contended), (c) exactly
// token-conserving for every backend spec, and (d) must fire the adaptive
// switch at the precise virtual instant the shared should_switch rule
// crosses, which a hand-derived scenario pins below.
#include <gtest/gtest.h>

#include <vector>

#include "cnet/sim/multicore.hpp"
#include "cnet/svc/backend.hpp"

namespace cnet::sim {
namespace {

MulticoreConfig small_config(std::size_t cores) {
  MulticoreConfig cfg;
  cfg.cores = cores;
  cfg.ops_per_core = 512;
  cfg.refill_every = 64;
  cfg.initial_tokens_per_core = 64;
  cfg.exponential_service = true;
  cfg.seed = 0xB10C0DE;
  return cfg;
}

TEST(MulticoreSim, GoldenSeedDeterminism) {
  // Same seed -> identical Table B' numbers, for every spec, including the
  // exponential-service draws, elimination pairings, and the adaptive
  // switch instant.
  for (const auto& spec : multicore_sweep_specs()) {
    const auto a = simulate_multicore(spec, small_config(8));
    const auto b = simulate_multicore(spec, small_config(8));
    SCOPED_TRACE(svc::backend_spec_name(spec));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.ops_per_vtime, b.ops_per_vtime);
    EXPECT_EQ(a.consume_ops, b.consume_ops);
    EXPECT_EQ(a.consumed, b.consumed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.refilled, b.refilled);
    EXPECT_EQ(a.stall_events, b.stall_events);
    EXPECT_EQ(a.final_pool, b.final_pool);
    EXPECT_EQ(a.elim_pairs, b.elim_pairs);
    EXPECT_EQ(a.elim_withdrawals, b.elim_withdrawals);
    EXPECT_EQ(a.elim_value_sum, b.elim_value_sum);
    EXPECT_EQ(a.switched, b.switched);
    EXPECT_EQ(a.switch_time, b.switch_time);
    EXPECT_EQ(a.ops_at_switch, b.ops_at_switch);
  }
}

TEST(MulticoreSim, SeedChangesTheExponentialDraws) {
  auto cfg = small_config(8);
  const auto a = simulate_multicore({svc::BackendKind::kNetwork, false}, cfg);
  cfg.seed ^= 0xDEAD;
  const auto b = simulate_multicore({svc::BackendKind::kNetwork, false}, cfg);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(MulticoreSim, GoldenSeedBatchedNetworkCell) {
  // One Table B' cell pinned golden: the bucket loop, the shared
  // per-balancer servers and the batched traversal together are a pure
  // function of (spec, config, seed), so drift in any of them shows up
  // here as an exact-value diff.
  const auto r = simulate_multicore({svc::BackendKind::kBatchedNetwork, false},
                                    small_config(8));
  EXPECT_EQ(r.consume_ops, 4096u);
  EXPECT_EQ(r.consumed, 4096u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.refilled, 4096u);
  EXPECT_EQ(r.stall_events, 3295u);
  EXPECT_EQ(r.final_pool, 512);
  EXPECT_DOUBLE_EQ(r.makespan, 4308.9672571499532);
  EXPECT_TRUE(r.conserved);
}

TEST(MulticoreSim, ConservesTokensForEverySpec) {
  for (const auto& spec : multicore_sweep_specs()) {
    for (const std::size_t cores : {1u, 4u, 16u}) {
      const auto r = simulate_multicore(spec, small_config(cores));
      SCOPED_TRACE(svc::backend_spec_name(spec) + " @ " +
                   std::to_string(cores));
      EXPECT_TRUE(r.conserved);
      EXPECT_EQ(r.consumed + static_cast<std::uint64_t>(r.final_pool),
                r.refilled + r.initial_tokens);
      EXPECT_EQ(r.consume_ops, cores * 512);
    }
  }
}

TEST(MulticoreSim, CentralNetworkCrossoverShape) {
  const svc::BackendSpec central{svc::BackendKind::kCentralAtomic, false};
  const svc::BackendSpec network{svc::BackendKind::kNetwork, false};
  // Uncontended: the single word beats a deep network traversal.
  EXPECT_GT(simulate_multicore(central, small_config(1)).ops_per_vtime,
            simulate_multicore(network, small_config(1)).ops_per_vtime);
  // Contended: the network's parallel servers win by at least the paper's
  // 2x margin.
  EXPECT_GE(simulate_multicore(network, small_config(32)).ops_per_vtime,
            2.0 * simulate_multicore(central, small_config(32)).ops_per_vtime);
}

// The hand-derivable adaptive scenario: 2 cores, fixed unit service, no
// think time, no contention slope, no refills in the window. The server
// serializes the two cores, so op completions land at t = 1, 2, 3, ...;
// the arrival behind each completion finds exactly one request in service
// (one stall each), plus the single stall of the t=0 double arrival. With
// sample_interval = min_window_ops = 64, the boundary crossing happens at
// the 64th completion — virtual time 64.0 exactly — with a window of
// {ops: 64, events: 64}, rate 1.0 >= threshold 0.5: the switch must fire
// at that instant and not a tick earlier or later.
MulticoreConfig pinned_adaptive_config(std::size_t cores) {
  MulticoreConfig cfg;
  cfg.cores = cores;
  cfg.ops_per_core = 128;
  cfg.refill_every = 1u << 20;  // never refills inside the run
  cfg.initial_tokens_per_core = 1024;
  cfg.think_time = 0.0;
  cfg.central_service = 1.0;
  cfg.central_slope = 0.0;
  cfg.exponential_service = false;
  cfg.tuning.sample_interval = 64;
  cfg.tuning.min_window_ops = 64;
  cfg.tuning.stall_rate_threshold = 0.5;
  return cfg;
}

TEST(MulticoreSim, AdaptiveSwitchFiresAtTheExactThresholdCrossing) {
  const auto r = simulate_multicore({svc::BackendKind::kAdaptive, false},
                                    pinned_adaptive_config(2));
  EXPECT_TRUE(r.switched);
  EXPECT_EQ(r.ops_at_switch, 64u);
  EXPECT_DOUBLE_EQ(r.switch_time, 64.0);
  EXPECT_TRUE(r.conserved);
}

TEST(MulticoreSim, AdaptiveStaysColdWithoutContention) {
  // One core never queues behind itself: zero stall events, so the rule
  // can never cross and the cold central model serves the whole run.
  const auto r = simulate_multicore({svc::BackendKind::kAdaptive, false},
                                    pinned_adaptive_config(1));
  EXPECT_FALSE(r.switched);
  EXPECT_EQ(r.stall_events, 0u);
  EXPECT_TRUE(r.conserved);
}

TEST(MulticoreSim, EliminationPairsUnderContendedMix) {
  // Contended batched-network spec with the elimination front-end: some
  // waiting decrements must be caught by bulk refills, and every pair
  // value from the shared rule is negative (the value sum strictly so).
  const auto r = simulate_multicore({svc::BackendKind::kBatchedNetwork, true},
                                    small_config(32));
  EXPECT_GT(r.elim_pairs, 0u);
  EXPECT_LT(r.elim_value_sum, 0);
  EXPECT_TRUE(r.conserved);
}

// The bench's exact Table D' workload (quota_sim_reference_config is
// shared so the CI-gated checks and these tests cannot drift apart).
QuotaSimConfig quota_config(std::size_t cores) {
  return quota_sim_reference_config(cores);
}

TEST(QuotaSim, GoldenSeedDeterminism) {
  for (const auto& spec : multicore_sweep_specs()) {
    const auto a = simulate_quota(spec, quota_config(16));
    const auto b = simulate_quota(spec, quota_config(16));
    SCOPED_TRACE(svc::backend_spec_name(spec));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.goodput_per_vtime, b.goodput_per_vtime);
    EXPECT_EQ(a.acquire_ops, b.acquire_ops);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.parent_stalls, b.parent_stalls);
    EXPECT_EQ(a.child_stalls, b.child_stalls);
    EXPECT_EQ(a.admitted_per_tenant, b.admitted_per_tenant);
    EXPECT_EQ(a.peak_borrowed_per_tenant, b.peak_borrowed_per_tenant);
  }
}

TEST(QuotaSim, GoldenSeedReferenceCell) {
  // The Table D' reference cell pinned golden: the acquire/settle/release
  // flow simulate_overload shares, with no manager and no stagger. At 16
  // cores the central parent keeps up, so every attempt is admitted.
  const auto r = simulate_quota({svc::BackendKind::kCentralAtomic, false},
                                quota_config(16));
  EXPECT_EQ(r.acquire_ops, 8192u);  // 16 cores x 512 attempts
  EXPECT_EQ(r.admitted, 8192u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.granted_child_tokens, 4840u);
  EXPECT_EQ(r.granted_parent_tokens, 3352u);
  EXPECT_EQ(r.parent_stalls, 43711u);
  EXPECT_EQ(r.child_stalls, 5904u);
  EXPECT_DOUBLE_EQ(r.makespan, 10302.531755333461);
  EXPECT_TRUE(r.conserved);
  EXPECT_TRUE(r.isolation);
}

TEST(QuotaSim, ConservesAndIsolatesForEverySpec) {
  for (const auto& spec : multicore_sweep_specs()) {
    for (const std::size_t cores : {4u, 64u}) {
      const auto r = simulate_quota(spec, quota_config(cores));
      SCOPED_TRACE(svc::backend_spec_name(spec) + " @ " +
                   std::to_string(cores));
      EXPECT_TRUE(r.conserved);
      EXPECT_TRUE(r.isolation);
      EXPECT_EQ(r.cold_rejected, 0u);
      EXPECT_EQ(r.acquire_ops, cores * 512);
      // Peak borrow never pierced a weighted cap.
      for (std::size_t t = 0; t < r.peak_borrowed_per_tenant.size(); ++t) {
        EXPECT_LE(r.peak_borrowed_per_tenant[t], r.limit_per_tenant[t]);
      }
    }
  }
}

TEST(QuotaSim, HotTenantSaturatesItsCapAtScale) {
  // 48 of 64 cores hammer tenant 0: its demand far exceeds child + cap,
  // so the weighted limit must be pinned and the overflow rejected —
  // while every cold tenant stays inside its own cap, rejection-free.
  const auto r = simulate_quota({svc::BackendKind::kNetwork, false},
                                quota_config(64));
  EXPECT_GT(r.hot_rejected, 0u);
  EXPECT_EQ(r.cold_rejected, 0u);
  EXPECT_EQ(r.peak_borrowed_per_tenant[0], r.limit_per_tenant[0]);
  EXPECT_TRUE(r.conserved);
}

TEST(QuotaSim, ParentContentionOrderingMatchesThePaper) {
  const svc::BackendSpec central{svc::BackendKind::kCentralAtomic, false};
  const svc::BackendSpec network{svc::BackendKind::kNetwork, false};
  // Uncontended the central parent wins; at 64 cores every hot acquire
  // funnels through the shared parent and the network parent admits more
  // grants per unit virtual time.
  EXPECT_GT(simulate_quota(central, quota_config(4)).goodput_per_vtime,
            simulate_quota(network, quota_config(4)).goodput_per_vtime);
  EXPECT_GE(simulate_quota(network, quota_config(64)).goodput_per_vtime,
            simulate_quota(central, quota_config(64)).goodput_per_vtime);
}

TEST(OverloadSim, GoldenSeedReferenceTrace) {
  // The bench's exact Table E' reference cell, pinned golden: the virtual
  // clock makes the whole escalate→shed→recover trace a pure function of
  // (spec, config, seed), so any drift in the engine, the quota model, or
  // the shared policy rules shows up here as an exact-value diff.
  const auto r = simulate_overload({svc::BackendKind::kCentralAtomic, false},
                                   overload_sim_reference_config());
  EXPECT_EQ(r.attempts, 9216u);  // 48 cores x 192 attempts
  EXPECT_EQ(r.admitted, 2654u);
  EXPECT_EQ(r.rejected, 5550u);
  EXPECT_EQ(r.degraded_admits, 12u);
  EXPECT_EQ(r.shed_rejects, 1012u);
  EXPECT_EQ(r.shed_events, 4u);
  EXPECT_EQ(r.restore_events, 4u);
  EXPECT_EQ(r.shed_refunded_tokens, 8u);
  EXPECT_EQ(r.peak_tier, svc::OverloadTier::kShedTenants);
  EXPECT_EQ(r.final_tier, svc::OverloadTier::kNominal);
  EXPECT_FALSE(r.forced_switch);  // nothing to force on a central parent
  EXPECT_DOUBLE_EQ(r.makespan, 5580.1720385393346);

  // The tier-transition instants land on the sampler grid (multiples of
  // sample_every = 32). The ramp saturates the parent before the second
  // sample, so the first transition jumps straight to the shed tier; the
  // first descent drops two tiers at once, exactly as the hysteretic rule
  // dictates at that pressure.
  ASSERT_EQ(r.transitions.size(), 11u);
  EXPECT_EQ(r.transitions[0].time, 128.0);
  EXPECT_EQ(r.transitions[0].from, svc::OverloadTier::kNominal);
  EXPECT_EQ(r.transitions[0].to, svc::OverloadTier::kShedTenants);
  EXPECT_EQ(r.transitions[0].pressure, 1.0);
  EXPECT_EQ(r.transitions[1].time, 960.0);
  EXPECT_EQ(r.transitions[1].from, svc::OverloadTier::kShedTenants);
  EXPECT_EQ(r.transitions[1].to, svc::OverloadTier::kForceEliminate);
  EXPECT_NEAR(r.transitions[1].pressure, 0.72040816326530612, 1e-12);

  // Shedding hits only the cold weight-1 tenants (shed_set: tenant 0
  // carries the hot weight), highest indices first.
  ASSERT_EQ(r.shed_rejects_per_tenant.size(), 8u);
  const std::vector<std::uint64_t> expected_shed_rejects{0,   0,   0,   0,
                                                         347, 343, 159, 163};
  EXPECT_EQ(r.shed_rejects_per_tenant, expected_shed_rejects);

  EXPECT_TRUE(r.conserved);
  EXPECT_TRUE(r.hysteresis_respected);
  EXPECT_TRUE(r.recovered);
}

TEST(OverloadSim, ConservesAndRecoversForEverySpec) {
  for (const auto& spec : multicore_sweep_specs()) {
    const auto r = simulate_overload(spec, overload_sim_reference_config());
    SCOPED_TRACE(svc::backend_spec_name(spec));
    EXPECT_EQ(r.attempts, 9216u);
    // The reference ramp pushes every backend through the full ladder and
    // back: whatever was shed was restored, every grant part (released or
    // force-refunded) returned to its level, and no transition ever
    // violated the hysteresis band.
    EXPECT_EQ(r.peak_tier, svc::OverloadTier::kShedTenants);
    EXPECT_EQ(r.final_tier, svc::OverloadTier::kNominal);
    EXPECT_TRUE(r.conserved);
    EXPECT_TRUE(r.hysteresis_respected);
    EXPECT_TRUE(r.recovered);
    EXPECT_EQ(r.shed_events, r.restore_events);
  }
}

TEST(OverloadSim, GoldenSeedDeterminism) {
  for (const auto& spec : multicore_sweep_specs()) {
    const auto a = simulate_overload(spec, overload_sim_reference_config());
    const auto b = simulate_overload(spec, overload_sim_reference_config());
    SCOPED_TRACE(svc::backend_spec_name(spec));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.degraded_admits, b.degraded_admits);
    EXPECT_EQ(a.shed_rejects_per_tenant, b.shed_rejects_per_tenant);
    ASSERT_EQ(a.transitions.size(), b.transitions.size());
    for (std::size_t i = 0; i < a.transitions.size(); ++i) {
      EXPECT_EQ(a.transitions[i].time, b.transitions[i].time);
      EXPECT_EQ(a.transitions[i].from, b.transitions[i].from);
      EXPECT_EQ(a.transitions[i].to, b.transitions[i].to);
      EXPECT_EQ(a.transitions[i].pressure, b.transitions[i].pressure);
    }
  }
}

TEST(OverloadSim, AdaptiveParentTakesTheForcedSwap) {
  // The force-eliminate action tells an adaptive parent to take its
  // cold→hot swap at the next sample instant instead of waiting out its
  // own switch rule — the ramp enters tier >= 2 at the fourth sample, so
  // the swap lands exactly there.
  const auto r = simulate_overload({svc::BackendKind::kAdaptive, false},
                                   overload_sim_reference_config());
  EXPECT_TRUE(r.forced_switch);
  EXPECT_EQ(r.forced_switch_time, 128.0);
  EXPECT_TRUE(r.conserved);
  EXPECT_TRUE(r.recovered);
}

// The bench's exact Table F workload: reconfig_sim_reference_config plus
// the shared pairing rule, so the CI-gated checks and these goldens
// cannot drift apart.
ReconfigSimConfig reconfig_config(const svc::BackendSpec& spec_from) {
  ReconfigSimConfig cfg = reconfig_sim_reference_config();
  cfg.spec_to = reconfig_respec_target(spec_from);
  return cfg;
}

TEST(ReconfigSim, GoldenSeedDeterminism) {
  for (const auto& spec : multicore_sweep_specs()) {
    const auto a = simulate_reconfig(spec, reconfig_config(spec));
    const auto b = simulate_reconfig(spec, reconfig_config(spec));
    SCOPED_TRACE(svc::backend_spec_name(spec));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.consume_ops, b.consume_ops);
    EXPECT_EQ(a.consumed, b.consumed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.refilled, b.refilled);
    EXPECT_EQ(a.respec_staged_time, b.respec_staged_time);
    EXPECT_EQ(a.respec_commit_time, b.respec_commit_time);
    EXPECT_EQ(a.migrated_tokens, b.migrated_tokens);
    EXPECT_EQ(a.old_stalls, b.old_stalls);
    EXPECT_EQ(a.new_stalls, b.new_stalls);
    EXPECT_EQ(a.final_pool, b.final_pool);
  }
}

TEST(ReconfigSim, ConservesAcrossTheCommitForEverySpec) {
  for (const auto& spec : multicore_sweep_specs()) {
    const auto r = simulate_reconfig(spec, reconfig_config(spec));
    SCOPED_TRACE(svc::backend_spec_name(spec));
    EXPECT_TRUE(r.conserved);
    EXPECT_EQ(r.consumed + static_cast<std::uint64_t>(r.final_pool),
              r.refilled + r.initial_tokens);
    // The reference workload always has old ops in flight at t = 300, so
    // the commit is strictly after the stage, and the migration moved the
    // old pool's exact (nonzero, for this workload) remainder.
    EXPECT_EQ(r.config_version, 2u);
    EXPECT_DOUBLE_EQ(r.respec_staged_time, 300.0);
    EXPECT_GT(r.respec_commit_time, r.respec_staged_time);
    EXPECT_GT(r.migrated_tokens, 0u);
    // divided_chunk(64, 4) under the shared rule.
    EXPECT_EQ(r.staged_chunk, 16u);
    EXPECT_EQ(r.consume_ops, 8u * 2048u);
  }
}

TEST(ReconfigSim, GoldenCommitInstants) {
  // The quiescence instant is a pure function of (spec, config, seed): the
  // commit fires exactly when the last op in flight on the old stack at
  // t = 300 completes. Pinned to the bit for the two bookend directions —
  // any drift in the engine, the drain accounting, or the staged publish
  // shows up here as an exact-value diff.
  const auto up = simulate_reconfig(
      {svc::BackendKind::kCentralAtomic, false},
      reconfig_config({svc::BackendKind::kCentralAtomic, false}));
  EXPECT_DOUBLE_EQ(up.respec_commit_time, 307.26134860564667);
  EXPECT_EQ(up.migrated_tokens, 303u);
  EXPECT_EQ(up.consumed, 15905u);
  EXPECT_EQ(up.rejected, 479u);
  EXPECT_DOUBLE_EQ(up.makespan, 17943.989688889873);

  const auto down = simulate_reconfig(
      {svc::BackendKind::kBatchedNetwork, false},
      reconfig_config({svc::BackendKind::kBatchedNetwork, false}));
  EXPECT_DOUBLE_EQ(down.respec_commit_time, 307.69616677734183);
  EXPECT_EQ(down.migrated_tokens, 215u);
  EXPECT_EQ(down.consumed, 15872u);
  EXPECT_EQ(down.rejected, 512u);
  EXPECT_DOUBLE_EQ(down.makespan, 50688.496555901685);
}

TEST(ReconfigSim, IdleStageCommitsAtTheStageInstant) {
  // Stage the respec after the workload has fully drained: there are no
  // in-flight old-stack readers left, so quiescence holds trivially and
  // the commit fires at the very same instant the stage publishes — the
  // engine's "uncontended respec is instantaneous" degenerate case. The
  // whole leftover pool migrates in the one transfer.
  const svc::BackendSpec spec{svc::BackendKind::kCentralAtomic, false};
  ReconfigSimConfig cfg = reconfig_config(spec);
  cfg.respec_at = 1e9;
  const auto r = simulate_reconfig(spec, cfg);
  EXPECT_EQ(r.config_version, 2u);
  EXPECT_DOUBLE_EQ(r.respec_staged_time, 1e9);
  EXPECT_DOUBLE_EQ(r.respec_commit_time, 1e9);
  EXPECT_EQ(r.migrated_tokens, static_cast<std::uint64_t>(r.final_pool));
  EXPECT_TRUE(r.conserved);
}

TEST(MulticoreSim, RejectsWhenThePoolRunsDry) {
  // No initial tokens and a huge refill cadence: every consume before the
  // first refill must be rejected, never over-admitted.
  MulticoreConfig cfg = small_config(4);
  cfg.initial_tokens_per_core = 0;
  cfg.refill_every = 32;
  const auto r =
      simulate_multicore({svc::BackendKind::kCentralAtomic, false}, cfg);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_TRUE(r.conserved);
}

TEST(ClusterSim, BorrowBelowOneLeaseChunkLeavesTheParentUntouched) {
  // Limit 10 per node against a 96-token lease chunk, empty accounts: the
  // all-or-nothing reservation never covers a renewal's shortfall, so the
  // parent is never borrowed from — the answer PeerCluster::renew gives
  // (DistLeases.BorrowBelowOneLeaseChunkGainsNothing).
  ClusterSimConfig cfg = cluster_sim_reference_config(6);
  cfg.account_initial = 0;
  cfg.borrow_budget = 60;
  const auto r =
      simulate_cluster({svc::BackendKind::kBatchedNetwork, false}, cfg);
  EXPECT_EQ(r.final_parent_pool,
            static_cast<std::int64_t>(cfg.parent_initial));
  EXPECT_EQ(r.renewal_tokens, 0u);
  EXPECT_TRUE(r.conserved);
}

TEST(ClusterSim, GoldenSeedReferenceCell) {
  // bench_tab_dist's Table G' partition cell (smoke size), every result
  // field pinned: short-TTL churn on the 6-node reference topology with
  // two scripted partitions, so renewal, donation carve, expiry refund,
  // debt escrow and the bounded heal reconcile all carry real tokens.
  // Re-pinned when the coordinator started stepping svc::QuotaPlan, for two
  // causes. The all-or-nothing reservation alone, with the old
  // headroom-before-pool refund order, gives admitted 1477, renewals 56,
  // renewal_tokens 4749, expiries 84, makespan 831.6, p99 132.4 (from
  // 1476, 54, 4536, 79, 666.2, 117.0); the plan's pool-before-headroom
  // refund order on top gives the values below.
  ClusterSimConfig cfg = cluster_sim_reference_config(6);
  cfg.ops_per_core = 96;
  cfg.lease_ttl = 12.0;
  cfg.partitions.push_back({1, 42.0, 300.0});
  cfg.partitions.push_back({4, 90.0, 340.0});
  const auto r =
      simulate_cluster({svc::BackendKind::kBatchedNetwork, false}, cfg);
  EXPECT_DOUBLE_EQ(r.makespan, 842.8808670654679);
  EXPECT_EQ(r.attempts, 1728u);  // 6 nodes x 3 cores x 96 ops
  EXPECT_EQ(r.admitted, 1477u);
  EXPECT_EQ(r.rejected, 251u);
  EXPECT_EQ(r.spent, 1477u);
  EXPECT_EQ(r.renewals, 53u);
  EXPECT_EQ(r.renewal_tokens, 4497u);
  EXPECT_EQ(r.donations, 31u);
  EXPECT_EQ(r.donated_tokens, 1392u);
  EXPECT_EQ(r.expiries, 81u);
  EXPECT_EQ(r.expiry_recovered, 3404u);
  EXPECT_EQ(r.expiry_refunded, 3404u);
  EXPECT_EQ(r.debt_created, 94u);
  EXPECT_EQ(r.debt_reconciled, 94u);
  EXPECT_EQ(r.partition_global_touches, 0u);
  EXPECT_EQ(r.initial_tokens, 3968u);
  EXPECT_EQ(r.final_parent_pool, 1693);
  EXPECT_EQ(r.final_account_tokens, 798);
  EXPECT_EQ(r.final_local_tokens, 0);
  EXPECT_TRUE(r.conserved);
  EXPECT_TRUE(r.debt_settled);
  EXPECT_DOUBLE_EQ(r.p50_admission, 0.15205962806054174);
  EXPECT_DOUBLE_EQ(r.p99_admission, 123.93108349891295);
  EXPECT_EQ(r.parent_stalls, 18u);
}

}  // namespace
}  // namespace cnet::sim
