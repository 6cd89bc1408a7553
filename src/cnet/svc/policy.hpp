// Backend-independent *decision* logic of the service layer, factored out
// of the concurrent implementations so the virtual-time multicore simulator
// (sim::MulticoreModel) runs the exact same rules as the real machinery —
// when an adaptive counter switches, what value an eliminated pair agrees
// on, how a quota grant is taken and given back — instead of a drifting
// reimplementation. Everything here is pure: no atomics, no time, no I/O.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cnet::svc {

// Switch tuning for the adaptive backend (svc::AdaptiveCounter and the
// simulator's adaptive model both decide through should_switch below).
struct AdaptiveTuning {
  // Per-slot ops between LoadStats probes.
  std::uint64_t sample_interval = 2048;
  // Windows smaller than this never trigger (startup noise guard).
  std::uint64_t min_window_ops = 4096;
  // Stalls per op in one window that trigger the central→network swap.
  double stall_rate_threshold = 0.05;
};

// One observation window: ops completed and contention events (stalls, CAS
// retries — whatever total the observer feeds in) since the previous
// sample. svc::LoadStats produces these from live threads; the simulator
// produces them from virtual-time stall events.
struct LoadWindow {
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
  double event_rate() const noexcept {
    return ops == 0 ? 0.0
                    : static_cast<double>(events) / static_cast<double>(ops);
  }
};

// The central→network switch rule: a window big enough to trust whose
// stall rate crosses the threshold.
inline bool should_switch(const LoadWindow& window,
                          const AdaptiveTuning& tuning) noexcept {
  if (window.ops < tuning.min_window_ops) return false;
  return window.event_rate() >= tuning.stall_rate_threshold;
}

// The elimination pairing name: the value both sides of a collision agree
// on, derived from the slot index and the slot's epoch at pairing time.
// Always negative, unique per collision, never collides with the
// non-negative values real backends assign — so paired inc/dec cancel
// exactly in any inc-minus-dec multiset.
constexpr std::int64_t elimination_pair_value(std::size_t num_slots,
                                              std::size_t slot,
                                              std::uint64_t epoch) noexcept {
  return -1 - static_cast<std::int64_t>(epoch * num_slots + slot);
}

// How a consume/acquire settles a short pool, as one options struct rather
// than the historic bare `bool allow_partial` positional argument (which
// read as line noise at call sites and left no room to grow). Passed by
// value through every consume-shaped call in the service layer —
// NetTokenBucket::consume, QuotaHierarchy::acquire, and the shared rules
// below — and by the simulator's pool models, so live code and model agree
// on the same struct.
struct ConsumeOptions {
  // A short pool yields a partial grab (possibly 0) instead of the
  // all-or-nothing refund-and-reject.
  bool partial_ok = false;
  // Reserved for the admission-latency roadmap items; carried through the
  // call chain but not yet acted on anywhere. priority classes order
  // shedding, 0 = highest; deadline is a caller clock instant (0 = none).
  // This order keeps the struct at 16 bytes, which the x86-64 SysV and
  // AArch64 ABIs pass in registers: an options value built per call
  // (settle_options) never goes through memory, where a byte store of
  // partial_ok followed by the copy's wide load stalls store forwarding.
  std::uint8_t priority = 0;
  double deadline = 0.0;
};

// The two common settlements, named so call sites read as intent.
inline constexpr ConsumeOptions kAllOrNothing{};
inline constexpr ConsumeOptions kPartialOk{/*partial_ok=*/true};

// The token-bucket consume plan: grab up to `tokens` through `take_n`
// (which returns how many it claimed; zero is conclusive — the pool was
// observably empty), and on an all-or-nothing shortfall refund the partial
// grab through `put_n`. Returns tokens actually consumed. NetTokenBucket
// runs this against a live rt::Counter.
//
// tokens == 0 is a defined, trivially successful no-op: neither take_n nor
// put_n is ever invoked and 0 is returned. (A zero-token request is vacuous
// in both partial and all-or-nothing modes — "all of nothing" is nothing —
// so it must not be reported or treated as a rejection.)
template <class TakeN, class PutN>
std::uint64_t bucket_consume(std::uint64_t tokens, ConsumeOptions opts,
                             TakeN&& take_n, PutN&& put_n) {
  if (tokens == 0) return 0;  // the defined no-op, never a backend touch
  std::uint64_t got = 0;
  while (got < tokens) {
    const std::uint64_t grabbed = take_n(tokens - got);
    if (grabbed == 0) break;
    got += grabbed;
  }
  if (!opts.partial_ok && got < tokens && got > 0) {
    put_n(got);
    got = 0;
  }
  return got;
}

// ---------------------------------------------------------------------------
// Quota-hierarchy decision rules (svc::QuotaHierarchy, sim::simulate_quota
// and sim::simulate_cluster's coordinator all step the QuotaPlan below).

// A tenant's parent-borrow cap under the weighted max-borrow policy: its
// weight's share of the hierarchy's borrow budget, rounded down. The sum
// over all tenants never exceeds `budget`, so sizing the budget at most
// (parent capacity - largest single cost) guarantees a successful
// reservation always finds its tokens in the parent pool — the isolation
// property the hierarchy's checks gate on.
constexpr std::uint64_t weighted_borrow_limit(
    std::uint64_t budget, std::uint64_t weight,
    std::uint64_t total_weight) noexcept {
  if (total_weight == 0) return 0;
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(budget) * weight / total_weight);
}

// The borrow reservation: with `outstanding` tokens already on loan against
// `limit`, a request for `want` more headroom gets all of it or nothing. A
// partial reservation is doomed to be returned, and holding it meanwhile
// could falsely reject a sibling's in-cap borrow. QuotaHierarchy CAS-loops
// over this rule, so `outstanding` never overshoots the limit, not even
// transiently; while a reweigh has left outstanding > limit it is 0.
constexpr std::uint64_t borrow_reservation(std::uint64_t want,
                                           std::uint64_t outstanding,
                                           std::uint64_t limit) noexcept {
  return outstanding <= limit && want <= limit - outstanding ? want : 0;
}

// What one phase of a QuotaPlan asks its driver to do on its own pools.
enum class QuotaOp : std::uint8_t {
  kTake,       // claim up to n from the step's pool; done(phase, got)
  kReserve,    // reserve n borrow headroom, all of it or none; done(phase, got)
  kDecide,     // settle the acquire: decide(opts) with the options in force
  kPut,        // return n to the step's pool
  kUnreserve,  // free n borrow headroom
};

struct QuotaStep {
  QuotaOp op = QuotaOp::kTake;
  bool parent = false;  // a take or put on the parent pool, else the child
  std::uint64_t n = 0;  // 0: the phase has nothing to do
  friend bool operator==(const QuotaStep&, const QuotaStep&) = default;
};

// What an acquire yielded: the tokens covered by each level.
struct QuotaOutcome {
  bool admitted = false;
  std::uint64_t from_child = 0;   // tokens covered by the tenant's bucket
  std::uint64_t from_parent = 0;  // tokens borrowed from the shared parent
  std::uint64_t tokens() const noexcept { return from_child + from_parent; }
};

// The two-level protocol as a pure, resumable plan, stepped by the live
// hierarchy synchronously and by the simulators in virtual time. It owns
// the whole order: a driver visits phases 0 .. kPhases-1 in turn, and
// performs step(phase) unless its n is 0.
//
// acquire(tokens): take from the child (partial), and on a shortfall
// reserve that much headroom and take it from the parent. The decision
// admits a full yield, or with opts.partial_ok (the kDegradePartial
// action) any nonzero yield; a degraded admit unreserves the headroom its
// parent take did not fill, so outstanding borrow == from_parent. A reject
// returns the parent part, then the child part, then the reservation —
// pool before headroom, so a reservation that wins the freed headroom
// finds its tokens already back. tokens == 0 admits with empty parts and
// touches nothing, the same defined no-op as bucket_consume's.
//
// settle(grant, refund_child, refund_parent): the end of an admitted
// grant of which refund_* tokens come back unspent (release refunds both
// parts whole). Child part, then parent part, then the whole from_parent
// of headroom: spent parent tokens left the system for good and must stop
// occupying the tenant's limit.
class QuotaPlan {
 public:
  static QuotaPlan acquire(std::uint64_t tokens) noexcept {
    QuotaPlan p;
    p.tokens_ = tokens;
    p.out_.admitted = tokens == 0;
    return p;
  }
  static QuotaPlan settle(const QuotaOutcome& grant,
                          std::uint64_t refund_child,
                          std::uint64_t refund_parent) noexcept {
    QuotaPlan p;
    p.out_ = grant;
    p.give_ = {0, refund_child, refund_parent, grant.from_parent};
    return p;
  }

  // Phases 0 .. kPhases-1: take child, reserve, take parent, decide, then
  // the give-backs: a reject's parent part, the child part, a settle's
  // parent part, and the headroom.
  static constexpr int kPhases = 8;
  QuotaStep step(int phase) const noexcept {
    switch (phase) {
      case 0: return {QuotaOp::kTake, false, tokens_};
      case 1:
        return {QuotaOp::kReserve, false,
                tokens_ > out_.from_child ? tokens_ - out_.from_child : 0};
      case 2: return {QuotaOp::kTake, true, reserved_};
      case 3: return {QuotaOp::kDecide, false, tokens_};
      case 7: return {QuotaOp::kUnreserve, false, give_[3]};
      default: return {QuotaOp::kPut, phase != 5, give_[phase - 4]};
    }
  }
  // Completes a take or reserve phase with what it yielded.
  void done(int phase, std::uint64_t got) noexcept {
    if (phase == 0) out_.from_child = got;
    if (phase == 1) reserved_ = got;
    if (phase == 2) out_.from_parent = got;
  }
  // The acquire's decision, under the options in force at this instant.
  void decide(ConsumeOptions opts) noexcept {
    const std::uint64_t got = out_.tokens();
    if (got == tokens_ || (opts.partial_ok && got > 0)) {
      out_.admitted = true;
      give_ = {0, 0, 0, reserved_ - out_.from_parent};
      return;
    }
    give_ = {out_.from_parent, out_.from_child, 0, reserved_};
    out_ = {};
  }
  QuotaOutcome result() const noexcept { return out_; }

 private:
  QuotaOutcome out_;
  std::uint64_t tokens_ = 0;
  std::uint64_t reserved_ = 0;
  std::array<std::uint64_t, 4> give_ = {};  // what phases 4 .. 7 move
};

// Steps `plan` to its end at once over `pools`: take(parent, n) claims up
// to n and returns what it got, put(parent, n) returns n, reserve(n)
// secures n borrow headroom or none, unreserve(n) frees it, and options()
// is read at the decision. QuotaHierarchy steps every acquire and
// settlement through this; the simulators step the plan in virtual time
// (sim/vtime.hpp). Inlined and unrolled over the phases, each call site
// compiles to straight-line code for its own plan: as an out-of-line loop
// it cost 12-17% of perfbench's tenant_quota throughput.
template <class Pools>
[[gnu::always_inline]] inline QuotaOutcome run_quota_plan(QuotaPlan plan,
                                                          Pools&& pools) {
#pragma GCC unroll 8
  for (int phase = 0; phase < QuotaPlan::kPhases; ++phase) {
    const QuotaStep s = plan.step(phase);
    if (s.n == 0) continue;
    switch (s.op) {
      case QuotaOp::kTake: plan.done(phase, pools.take(s.parent, s.n)); break;
      case QuotaOp::kReserve: plan.done(phase, pools.reserve(s.n)); break;
      case QuotaOp::kDecide: plan.decide(pools.options()); break;
      case QuotaOp::kPut: pools.put(s.parent, s.n); break;
      case QuotaOp::kUnreserve: pools.unreserve(s.n); break;
    }
  }
  return plan.result();
}

// ---------------------------------------------------------------------------
// Overload-manager decision rules (svc::OverloadManager and the simulator's
// sim::simulate_overload drive the exact same ladder; see svc/overload.hpp).
// Signals arrive as normalized 0–1 "pressure" readings, are combined by
// combine_pressure, and map to a tier through overload_tier; each tier's
// interventions come from the monotone action table overload_actions.

// The escalation ladder. Tiers are ordered by severity and the action table
// below is monotone — every tier keeps the interventions of the tiers under
// it — so operators can reason in "at least" terms: a system at
// kDegradePartial already has shrunken batches and forced elimination.
enum class OverloadTier : std::uint8_t {
  kNominal = 0,         // no intervention
  kShrinkBatch = 1,     // shrink batch/refill chunks (bound exclusive holds)
  kForceEliminate = 2,  // force elimination pairing and the adaptive swap
  kDegradePartial = 3,  // all-or-nothing consumes degrade to partial grants
  kShedTenants = 4,     // shed whole tenants by weight, refund held grants
};

inline constexpr std::size_t kNumOverloadTiers = 5;

constexpr const char* overload_tier_name(OverloadTier tier) noexcept {
  switch (tier) {
    case OverloadTier::kNominal:
      return "nominal";
    case OverloadTier::kShrinkBatch:
      return "shrink-batch";
    case OverloadTier::kForceEliminate:
      return "force-eliminate";
    case OverloadTier::kDegradePartial:
      return "degrade-partial";
    case OverloadTier::kShedTenants:
      return "shed-tenants";
  }
  return "?";
}

// Escalation thresholds with recovery hysteresis. enter[i] is the combined
// pressure at or above which tier i engages; enter[0] is unused (nominal
// needs no entry). A tier, once entered, is only left when pressure drops
// to or below its *exit* threshold enter[i] - hysteresis — the gap is what
// keeps a signal oscillating around a boundary from flapping actions on
// and off every sample.
struct OverloadThresholds {
  double enter[kNumOverloadTiers] = {0.0, 0.50, 0.70, 0.85, 0.95};
  double hysteresis = 0.10;
};

// The tier rule. Escalation is immediate: the result is at least the
// highest tier whose enter threshold the pressure meets. De-escalation is
// hysteretic: from `current`, the tier only drops to the highest tier
// still *held* — one whose exit threshold (enter - hysteresis) the
// pressure still exceeds — so recovery retraces the ladder without
// re-triggering on boundary noise. Pure and total: any pressure, any
// current tier.
constexpr OverloadTier overload_tier(double pressure, OverloadTier current,
                                     const OverloadThresholds& th) noexcept {
  std::size_t up = 0;
  for (std::size_t i = 1; i < kNumOverloadTiers; ++i) {
    if (pressure >= th.enter[i]) up = i;
  }
  const auto cur = static_cast<std::size_t>(current);
  if (up >= cur) return static_cast<OverloadTier>(up);
  std::size_t held = 0;
  for (std::size_t i = 1; i <= cur; ++i) {
    if (pressure > th.enter[i] - th.hysteresis) held = i;
  }
  return static_cast<OverloadTier>(held > up ? held : up);
}

// What each tier actually does to the service layer. The table is monotone
// in the tier (checked by test_svc_policy and the bench's monotone-tiers
// gate): batch_divisor never shrinks back and the booleans never turn off
// as the tier climbs.
struct OverloadActions {
  // Batched refills/traversals divide their chunk size by this (floor 1):
  // smaller exclusive holds bound the latency a single batch can impose.
  std::size_t batch_divisor = 1;
  // Force the elimination front-end to pair aggressively and the adaptive
  // backend to take its cold→hot swap immediately.
  bool force_eliminate = false;
  // Degrade all-or-nothing consumes/acquires to allow_partial grants.
  bool degrade_to_partial = false;
  // Shed whole tenants (shed_set below) with exact refund of held grants.
  bool shed_tenants = false;
};

inline constexpr std::size_t kOverloadBatchDivisor = 4;

constexpr OverloadActions overload_actions(OverloadTier tier) noexcept {
  OverloadActions a;
  if (tier >= OverloadTier::kShrinkBatch) a.batch_divisor = kOverloadBatchDivisor;
  if (tier >= OverloadTier::kForceEliminate) a.force_eliminate = true;
  if (tier >= OverloadTier::kDegradePartial) a.degrade_to_partial = true;
  if (tier >= OverloadTier::kShedTenants) a.shed_tenants = true;
  return a;
}

// The degrade rule: under degrade_to_partial a consume or acquire settles
// partially, on top of whatever the caller asked for; the action never
// forces all-or-nothing.
constexpr ConsumeOptions settle_options(const OverloadActions& actions,
                                        ConsumeOptions opts) noexcept {
  if (actions.degrade_to_partial) opts.partial_ok = true;
  return opts;
}

// Pressure readings live in [0, 1]; everything a monitor produces is
// clamped through this before combining.
constexpr double clamp_pressure(double p) noexcept {
  return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
}

// A windowed rate signal normalized against the rate that counts as
// saturation: stalls/op against the stall rate considered fully saturated,
// rejects/attempt against 1.0, and so on. The empty window reads as zero
// pressure — an idle system must decay toward nominal, not hold its last
// tier forever.
inline double window_pressure(const LoadWindow& window,
                              double saturation_rate) noexcept {
  if (window.ops == 0 || saturation_rate <= 0.0) return 0.0;
  return clamp_pressure(window.event_rate() / saturation_rate);
}

// A level signal: current occupancy over capacity (admission queue depth,
// per-tenant outstanding borrow against its limit). Capacity 0 means "no
// budget at all": any occupancy against it is full saturation (1.0), and
// an empty gauge is idle (0.0). The earlier reading of capacity-0 as
// always-zero pressure silently blinded the tier ladder to a resource
// whose budget had been reconfigured away while holders were still
// outstanding — exactly the state a reweigh can now produce live.
constexpr double occupancy_pressure(std::uint64_t value,
                                    std::uint64_t capacity) noexcept {
  if (capacity == 0) return value > 0 ? 1.0 : 0.0;
  return clamp_pressure(static_cast<double>(value) /
                        static_cast<double>(capacity));
}

// Combining rule: the worst signal wins. Max (not sum or mean) because
// pressure readings are not commensurable — a saturated borrow cap is a
// real overload even when every other signal is idle, and averaging it
// away would be exactly the failure mode an overload manager exists to
// prevent.
inline double combine_pressure(const std::vector<double>& readings) noexcept {
  double worst = 0.0;
  for (const double r : readings) {
    const double p = clamp_pressure(r);
    if (p > worst) worst = p;
  }
  return worst;
}

// The shed selection: lowest-weight tenants go first (weight is the same
// importance signal the borrow limits divide by), ties broken toward the
// higher index so tenant 0 — conventionally the most important — is shed
// last. Tenants are added until the shed weight reaches `fraction` of the
// total; at least one tenant is shed for any positive fraction, and the
// rule never sheds *every* tenant (a manager that sheds 100% of its load
// has just failed differently). Deterministic; returns ascending indices.
inline std::vector<std::size_t> shed_set(
    const std::vector<std::uint64_t>& weights, double fraction) {
  if (weights.size() <= 1 || fraction <= 0.0) return {};
  std::vector<std::size_t> order(weights.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              if (weights[a] != weights[b]) return weights[a] < weights[b];
              return a > b;
            });
  double total = 0.0;
  for (const std::uint64_t w : weights) total += static_cast<double>(w);
  const double target = total * (fraction > 1.0 ? 1.0 : fraction);
  std::vector<std::size_t> shed;
  double shed_weight = 0.0;
  for (const std::size_t t : order) {
    if (shed.size() + 1 >= weights.size()) break;  // never shed everyone
    shed.push_back(t);
    shed_weight += static_cast<double>(weights[t]);
    if (shed_weight >= target) break;
  }
  std::sort(shed.begin(), shed.end());
  return shed;
}

// ---------------------------------------------------------------------------
// Hot-reconfiguration decision rules (svc::ReconfigEngine consumers and the
// simulator's sim::simulate_reconfig mirror share these; see svc/reconfig.hpp
// for the staged-commit protocol itself).

// Batch/refill chunking under a divisor — the shrink-batch action's
// arithmetic, and the chunk a staged bucket re-spec adopts when it folds the
// current overload tier into its configuration. Floor 1: a divided chunk
// still makes progress.
constexpr std::size_t divided_chunk(std::size_t chunk,
                                    std::size_t divisor) noexcept {
  if (divisor <= 1) return chunk < 1 ? 1 : chunk;
  const std::size_t divided = chunk / divisor;
  return divided < 1 ? 1 : divided;
}

// Refill/batch chunks live in 1..256 everywhere (NetTokenBucket's refill
// scratch block is sized to this); a staged re-spec outside the range is
// rejected before anything is built.
inline constexpr std::size_t kMaxRefillChunk = 256;

// When a staged bucket re-spec is safe to commit: the chunk must be a legal
// refill chunk. (The backend spec itself needs no rule — every pool kind
// migrates by drain/re-inject, conserving the count exactly.)
constexpr bool respec_safe(std::size_t refill_chunk) noexcept {
  return refill_chunk >= 1 && refill_chunk <= kMaxRefillChunk;
}

// When a staged weight vector is safe to commit against a live hierarchy:
// same tenant count (weights are positional — a resize would orphan
// outstanding borrows), every weight positive (a zero weight is a shed, not
// a share, and would make the tenant's limit permanently zero while its
// borrows stay outstanding).
inline bool reweigh_safe(std::size_t tenants,
                         const std::vector<std::uint64_t>& weights) noexcept {
  if (weights.size() != tenants || tenants == 0) return false;
  for (const std::uint64_t w : weights) {
    if (w == 0) return false;
  }
  return true;
}

// The whole-vector re-division of a borrow budget: every tenant's limit
// recomputed from the *same* staged vector, so the sum-never-exceeds-budget
// sizing rule holds for the published vector as a unit. This is why a
// reweigh goes through the reconfig engine rather than storing per-tenant
// atomics one at a time: a reader mixing limits from two generations could
// see a vector whose limit sum exceeds the budget, and two tenants could
// then reserve more parent headroom than the pool was sized for.
inline std::vector<std::uint64_t> reweigh_limits(
    std::uint64_t budget, const std::vector<std::uint64_t>& weights) {
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  std::vector<std::uint64_t> limits(weights.size());
  for (std::size_t t = 0; t < weights.size(); ++t) {
    limits[t] = weighted_borrow_limit(budget, weights[t], total);
  }
  return limits;
}

// How a re-divided limit meets outstanding borrows: tokens already on loan
// above the new limit are never clawed back — the grant holders release
// exactly what they hold, in their own time. The overage merely blocks new
// reservations (borrow_reservation yields 0 while outstanding >= limit) until
// releases drain it. Pure bookkeeping for monitors and the simulator.
constexpr std::uint64_t borrow_overage(std::uint64_t outstanding,
                                       std::uint64_t limit) noexcept {
  return outstanding > limit ? outstanding - limit : 0;
}

}  // namespace cnet::svc
