#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <type_traits>

#include "cnet/dist/peer_cluster.hpp"
#include "cnet/dist/topology.hpp"
#include "cnet/svc/admission.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/elimination.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/svc/quota.hpp"

namespace perfbench {

LayerCounts LayerCounts::operator-(const LayerCounts& o) const {
  LayerCounts d;
  d.pool_stalls = pool_stalls - o.pool_stalls;
  d.pool_traversals = pool_traversals - o.pool_traversals;
  d.pool_batch_passes = pool_batch_passes - o.pool_batch_passes;
  d.bucket_attempts = bucket_attempts - o.bucket_attempts;
  d.bucket_rejects = bucket_rejects - o.bucket_rejects;
  d.id_stalls = id_stalls - o.id_stalls;
  d.elim_pairs = elim_pairs - o.elim_pairs;
  d.elim_withdrawals = elim_withdrawals - o.elim_withdrawals;
  d.elim_backend_traversals =
      elim_backend_traversals - o.elim_backend_traversals;
  d.quota_stalls = quota_stalls - o.quota_stalls;
  d.quota_grants = quota_grants - o.quota_grants;
  d.quota_borrowing_grants = quota_borrowing_grants - o.quota_borrowing_grants;
  d.quota_parent_tokens = quota_parent_tokens - o.quota_parent_tokens;
  d.renewals = renewals - o.renewals;
  d.renewal_tokens = renewal_tokens - o.renewal_tokens;
  d.donated_tokens = donated_tokens - o.donated_tokens;
  d.expiry_refunded = expiry_refunded - o.expiry_refunded;
  return d;
}

namespace {

using namespace cnet;

// The front-end pools start with 2^20 tokens: the size a production
// admission bucket runs at, and deep enough that the bounded drift of a
// cycled, balanced op sequence can never empty it.
constexpr std::uint64_t kFrontTokens = std::uint64_t{1} << 20;

// How a step issues a public call: untraced runs call straight through,
// traced runs bracket the call in a span. One step body serves both, so the
// traced run does exactly the untraced run's work.
struct Direct {
  template <class F>
  auto operator()(SpanName, F&& f) const {
    return f();
  }
};
struct Traced {
  Tracer& tracer;
  template <class F>
  auto operator()(SpanName name, F&& f) const {
    return tracer.call(name, std::forward<F>(f));
  }
};

// Per-caller state, a cache line apart so callers never share one.
struct alignas(64) CallerState {
  std::uint64_t n = 0;            // ops issued; indexes the op array
  std::uint64_t granted = 0;      // tokens taken from the workload's pools
  std::uint64_t refilled = 0;     // tokens the caller added back
  std::uint64_t pending = 0;      // granted since the caller's last refill
  std::uint64_t over_admits = 0;  // grants that differ from what was asked
  std::uint64_t grants = 0;
  std::uint64_t borrowing_grants = 0;
  std::uint64_t parent_tokens = 0;
  std::uint64_t admits = 0;  // cluster: local admits tried
  std::uint64_t misses = 0;  // cluster: local admits refused
  std::uint64_t renewal_tokens = 0;  // cluster: tokens renew() gained
  // admit_front: a bitmap of the traced run's request IDs, private to the
  // caller, and IDs that were negative or already set in it.
  std::vector<std::uint64_t> id_bits;
  std::uint64_t ids_seen = 0;
  std::uint64_t id_repeats = 0;
};

// Serves op() and traced_op() from the derived workload's one step(c, call)
// template, so the traced run does exactly the untraced run's work.
template <class Derived>
class Base : public Workload {
 public:
  bool op(std::size_t c) final { return self().step(c, Direct{}); }
  bool traced_op(std::size_t c, Tracer& t) final {
    t.begin();
    const bool ok = self().step(c, Traced{t});
    t.end();
    return ok;
  }

 protected:
  Base(const std::string& name, std::uint64_t seed)
      : ops_(generate_ops(name, seed)) {}

  Derived& self() { return static_cast<Derived&>(*this); }

  const OpCode& next(std::size_t c) {
    CallerState& s = state_[c];
    return ops_[c][s.n++ % kOpsPerCaller];
  }
  void reset_state() {
    for (auto& s : state_) s = CallerState{};
  }
  template <class Field>
  std::uint64_t sum(Field f) const {
    std::uint64_t total = 0;
    for (const auto& s : state_) total += s.*f;
    return total;
  }

  OpArrays ops_;
  std::array<CallerState, kCallers> state_{};
};

std::uint64_t drain(svc::NetTokenBucket& bucket) {
  std::uint64_t total = 0;
  for (std::uint64_t got;
       (got = bucket.consume(0, std::uint64_t{1} << 16, svc::kPartialOk)) != 0;) {
    total += got;
  }
  return total;
}

std::string fmt(const char* format, unsigned long long a, unsigned long long b,
                unsigned long long c = 0, unsigned long long d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

void bucket_pool_counts(svc::NetTokenBucket& b, LayerCounts& k) {
  k.pool_stalls = b.stall_count();
  k.pool_traversals = b.traversal_count();
  k.pool_batch_passes = b.batch_pass_count();
}

// ------------------------------------------------------------ admit_front
// The front-end request path: AdmissionController with the default config
// (batched-network C(8,24) pool, four ID shards), admit(hint, 1), each
// caller refilling what it was granted every refill_chunk admits.
class AdmitFront final : public Base<AdmitFront> {
 public:
  explicit AdmitFront(std::uint64_t seed) : Base("admit_front", seed) {}

  void build() override {
    ctl_.reset();
    reset_state();
    svc::AdmissionConfig cfg;
    cfg.bucket.initial_tokens = kFrontTokens;
    ctl_ = std::make_unique<svc::AdmissionController>(cfg);
    chunk_ = ctl_->bucket().refill_chunk();
  }
  void destroy() override { ctl_.reset(); }

  bool has_rung() const override { return true; }
  bool rung_op(std::size_t c, Tracer& t) override {
    CallerState& s = state_[c];
    ++s.n;
    rt::Counter& pool = ctl_->bucket().pool();
    t.begin();
    const bool ok = t.call(SpanName::kPoolConsume,
                           [&] { return pool.try_fetch_decrement(c); });
    if (ok) {
      ++s.granted;
      if (++s.pending == chunk_) {
        t.call(SpanName::kPoolRefill, [&] {
          std::int64_t scratch[svc::kMaxRefillChunk];
          pool.fetch_increment_batch(c, chunk_, scratch);
          return 0;
        });
        s.refilled += chunk_;
        s.pending = 0;
      }
    }
    t.end();
    return ok;
  }

  LayerCounts counts() const override {
    LayerCounts k;
    svc::NetTokenBucket& b = ctl_->bucket();
    bucket_pool_counts(b, k);
    k.bucket_attempts = b.consume_attempts();
    k.bucket_rejects = b.consume_rejects();
    k.id_stalls = ctl_->ids().stall_count();
    return k;
  }

  std::vector<Check> verify() override {
    std::vector<Check> out;
    const std::uint64_t drained = drain(ctl_->bucket());
    const std::uint64_t redrained = drain(ctl_->bucket());
    const std::uint64_t granted = sum(&CallerState::granted);
    const std::uint64_t refilled = sum(&CallerState::refilled);
    out.push_back({"conservation",
                   kFrontTokens + refilled == granted + drained,
                   fmt("initial %llu + refilled %llu - granted %llu - "
                       "drained %llu",
                       kFrontTokens, refilled, granted, drained)});
    out.push_back({"no_over_admit",
                   sum(&CallerState::over_admits) == 0 &&
                       granted <= kFrontTokens + refilled && redrained == 0,
                   fmt("over-sized grants %llu, tokens left after drain %llu",
                       sum(&CallerState::over_admits), redrained)});
    // Each caller's bitmap caught repeats within the caller; IDs shared
    // between callers show up as overlapping bits.
    std::uint64_t shared = 0;
    for (std::size_t a = 0; a < kCallers; ++a) {
      for (std::size_t b = a + 1; b < kCallers; ++b) {
        const auto& x = state_[a].id_bits;
        const auto& y = state_[b].id_bits;
        for (std::size_t w = 0; w < std::min(x.size(), y.size()); ++w) {
          shared += static_cast<std::uint64_t>(__builtin_popcountll(x[w] & y[w]));
        }
      }
    }
    const std::uint64_t repeats = sum(&CallerState::id_repeats) + shared;
    out.push_back({"unique_request_ids", repeats == 0,
                   fmt("%llu traced request IDs checked, %llu repeated",
                       sum(&CallerState::ids_seen), repeats)});
    return out;
  }

 private:
  friend class Base<AdmitFront>;
  // The traced run alternates (seeded) between admit and its two parts.
  template <class Call>
  bool step(std::size_t c, Call call) {
    constexpr bool split = std::is_same_v<Call, Traced>;
    CallerState& s = state_[c];
    const OpCode& code = next(c);
    std::uint64_t charged = 0;
    std::int64_t id = -1;
    if (!split || code.target == 0) {
      const auto ticket =
          call(SpanName::kAdmit, [&] { return ctl_->admit(c, 1); });
      charged = ticket.charged;
      id = ticket.request_id;
    } else {
      charged = call(SpanName::kConsume,
                     [&] { return ctl_->bucket().consume(c, 1); });
      if (charged > 0) {
        id = call(SpanName::kAllocate, [&] { return ctl_->ids().allocate(c); });
      }
    }
    if (charged == 0) return false;
    if (split) record_id(s, id);
    s.granted += charged;
    s.over_admits += charged != 1 ? 1 : 0;
    s.pending += charged;
    if (s.pending >= chunk_) {
      call(SpanName::kRefill, [&] {
        ctl_->refill(c, s.pending);
        return 0;
      });
      s.refilled += s.pending;
      s.pending = 0;
    }
    return true;
  }

  static void record_id(CallerState& s, std::int64_t id) {
    ++s.ids_seen;
    if (id < 0) {
      ++s.id_repeats;
      return;
    }
    const auto word = static_cast<std::size_t>(id >> 6);
    if (word >= s.id_bits.size()) {
      s.id_bits.resize(std::max(word + 1, std::max<std::size_t>(
                                              2 * s.id_bits.size(), 1 << 19)));
    }
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    s.id_repeats += (s.id_bits[word] & bit) != 0 ? 1 : 0;
    s.id_bits[word] |= bit;
  }

  std::unique_ptr<svc::AdmissionController> ctl_;
  std::size_t chunk_ = 64;
};

// ------------------------------------------------------------- pool_mixed
// Writes beside reads on one bucket: NetTokenBucket over
// elim+batched-network, each caller interleaving consume(1) and refill(1)
// 50/50 in a seeded order.
class PoolMixed final : public Base<PoolMixed> {
 public:
  explicit PoolMixed(std::uint64_t seed) : Base("pool_mixed", seed) {}

  void build() override {
    bucket_.reset();
    reset_state();
    bucket_ = std::make_unique<svc::NetTokenBucket>(
        svc::make_counter(
            svc::BackendSpec{svc::BackendKind::kBatchedNetwork, true}),
        svc::NetTokenBucket::Config{kFrontTokens, 64});
    elim_ = dynamic_cast<svc::ElimCounter*>(&bucket_->pool());
  }
  void destroy() override {
    elim_ = nullptr;
    bucket_.reset();
  }

  bool has_rung() const override { return true; }
  bool rung_op(std::size_t c, Tracer& t) override {
    CallerState& s = state_[c];
    const OpCode& code = next(c);
    rt::Counter& pool = bucket_->pool();
    t.begin();
    bool ok = true;
    if (code.target == kRefillOp) {
      t.call(SpanName::kPoolRefill, [&] {
        std::int64_t value = 0;
        pool.fetch_increment_batch(c, 1, &value);
        return 0;
      });
      ++s.refilled;
    } else {
      ok = t.call(SpanName::kPoolConsume,
                  [&] { return pool.try_fetch_decrement(c); });
      s.granted += ok ? 1 : 0;
    }
    t.end();
    return ok;
  }

  LayerCounts counts() const override {
    LayerCounts k;
    bucket_pool_counts(*bucket_, k);
    k.bucket_attempts = bucket_->consume_attempts();
    k.bucket_rejects = bucket_->consume_rejects();
    if (elim_ != nullptr) {
      k.elim_pairs = elim_->layer().pairs();
      k.elim_withdrawals = elim_->layer().withdrawals();
      k.elim_backend_traversals = elim_->inner().traversal_count();
    }
    return k;
  }

  std::vector<Check> verify() override {
    std::vector<Check> out;
    const std::uint64_t drained = drain(*bucket_);
    const std::uint64_t redrained = drain(*bucket_);
    const std::uint64_t granted = sum(&CallerState::granted);
    const std::uint64_t refilled = sum(&CallerState::refilled);
    out.push_back({"conservation",
                   kFrontTokens + refilled == granted + drained,
                   fmt("initial %llu + refilled %llu - granted %llu - "
                       "drained %llu",
                       kFrontTokens, refilled, granted, drained)});
    out.push_back({"no_over_admit",
                   sum(&CallerState::over_admits) == 0 &&
                       granted <= kFrontTokens + refilled && redrained == 0,
                   fmt("over-sized grants %llu, tokens left after drain %llu",
                       sum(&CallerState::over_admits), redrained)});
    out.push_back({"elimination_layer", elim_ != nullptr,
                   "pool is an elim+ counter"});
    return out;
  }

  static constexpr std::uint8_t kRefillOp = 1;

 private:
  friend class Base<PoolMixed>;
  template <class Call>
  bool step(std::size_t c, Call call) {
    CallerState& s = state_[c];
    if (next(c).target == kRefillOp) {
      call(SpanName::kRefill, [&] {
        bucket_->refill(c, 1);
        return 0;
      });
      ++s.refilled;
      return true;
    }
    const std::uint64_t got =
        call(SpanName::kConsume, [&] { return bucket_->consume(c, 1); });
    s.granted += got;
    s.over_admits += got > 1 ? 1 : 0;
    return got > 0;
  }

  std::unique_ptr<svc::NetTokenBucket> bucket_;
  svc::ElimCounter* elim_ = nullptr;
};

// ----------------------------------------------------------- tenant_quota
// QuotaHierarchy with 64 tenants: a batched-network parent, central-atomic
// children, acquire then release. Children hold fewer tokens than three
// concurrent large acquires of a hot tenant need, so hot tenants and large
// costs borrow from the parent; the weighted borrow limit (1024) stays far
// above what three callers can hold at once (3 x 16), so no acquire can be
// refused.
constexpr std::size_t kTenants = 64;
constexpr std::uint64_t kChildTokens = 16;
constexpr std::uint64_t kParentTokens = std::uint64_t{1} << 20;
constexpr std::uint64_t kBorrowBudget = kTenants * 1024;
constexpr std::uint8_t kMaxQuotaCost = 16;
constexpr double kZipfSkew = 1.0;

class TenantQuota final : public Base<TenantQuota> {
 public:
  explicit TenantQuota(std::uint64_t seed) : Base("tenant_quota", seed) {}

  void build() override {
    q_.reset();
    reset_state();
    svc::QuotaHierarchy::Config cfg;
    cfg.parent = {svc::BackendKind::kBatchedNetwork, false};
    cfg.child = {svc::BackendKind::kCentralAtomic, false};
    cfg.parent_initial_tokens = kParentTokens;
    cfg.borrow_budget = kBorrowBudget;
    q_ = std::make_unique<svc::QuotaHierarchy>(
        cfg, std::vector<svc::QuotaHierarchy::TenantConfig>(
                 kTenants, {kChildTokens, 1}));
  }
  void destroy() override { q_.reset(); }


  LayerCounts counts() const override {
    LayerCounts k;
    bucket_pool_counts(q_->parent(), k);
    for (std::size_t i = 0; i < kTenants; ++i) {
      k.bucket_attempts += q_->child(i).consume_attempts();
      k.bucket_rejects += q_->child(i).consume_rejects();
    }
    k.quota_stalls = q_->stall_count();
    k.quota_grants = sum(&CallerState::grants);
    k.quota_borrowing_grants = sum(&CallerState::borrowing_grants);
    k.quota_parent_tokens = sum(&CallerState::parent_tokens);
    return k;
  }

  std::vector<Check> verify() override {
    std::vector<Check> out;
    std::uint64_t borrowed = 0;
    std::uint64_t bad_children = 0;
    for (std::size_t i = 0; i < kTenants; ++i) {
      borrowed += q_->borrowed(i);
      bad_children += drain(q_->child(i)) != kChildTokens ? 1 : 0;
    }
    const std::uint64_t parent = drain(q_->parent());
    out.push_back({"parent_conservation", parent == kParentTokens && borrowed == 0,
                   fmt("parent holds %llu of %llu, %llu still on loan",
                       parent, kParentTokens, borrowed)});
    out.push_back({"child_conservation", bad_children == 0,
                   fmt("%llu of %llu child pools off their initial fill",
                       bad_children, kTenants)});
    out.push_back({"no_over_admit", sum(&CallerState::over_admits) == 0,
                   fmt("%llu grants differ from their cost",
                       sum(&CallerState::over_admits), 0)});
    return out;
  }

 private:
  friend class Base<TenantQuota>;
  template <class Call>
  bool step(std::size_t c, Call call) {
    CallerState& s = state_[c];
    const OpCode& code = next(c);
    const svc::QuotaHierarchy::Grant g = call(SpanName::kAcquire, [&] {
      return q_->acquire(c, code.target, code.cost);
    });
    if (!g.admitted) return false;
    ++s.grants;
    s.borrowing_grants += g.from_parent > 0 ? 1 : 0;
    s.parent_tokens += g.from_parent;
    s.over_admits += g.tokens() != code.cost ? 1 : 0;
    call(SpanName::kRelease, [&] {
      q_->release(c, g);
      return 0;
    });
    return true;
  }

  std::unique_ptr<svc::QuotaHierarchy> q_;
};

// --------------------------------------------------------- cluster_leases
// dist::PeerCluster with 6 nodes in bench_tab_dist's 2-dc striping; caller
// c owns nodes 2c and 2c+1. A local admit miss triggers renew. The logical
// clock advances every kTickOps ops of the whole cluster, and each caller
// refills the parent with what it spent every kRefillOps of its own ops, so
// the work per op is fixed by op counts, never by wall time. A lease
// (lease_cap tokens) outlasts one tick of its node's spend (about
// 2.5 x kTickOps / 6 tokens), so with a one-tick TTL every lease expires and
// settles instead of being extended forever by renewals, and borrow
// headroom is always returned. The clock counts every caller's ops (in
// kClockBatch steps) rather than one caller's: a clock that follows the
// fastest caller stops while that caller is descheduled, and leases then
// pile up past the borrow headroom until renewals fail.
constexpr std::size_t kNodes = 6;
constexpr std::uint64_t kTickOps = 1536;
constexpr std::uint64_t kClockBatch = 64;
constexpr std::uint64_t kRefillOps = 256;
constexpr std::uint64_t kRenewWant = 1024;
constexpr int kMaxRenews = 3;
constexpr std::uint8_t kMaxLeaseCost = 4;

dist::Topology two_dc_topology(std::size_t n) {
  const std::size_t per_dc = (n + 1) / 2;
  std::vector<dist::NodeLocation> locs(n);
  for (std::size_t i = 0; i < n; ++i) {
    locs[i].dc = static_cast<std::uint32_t>(i / per_dc);
    locs[i].rack = static_cast<std::uint32_t>((i % per_dc) / 2);
  }
  return dist::Topology(std::move(locs));
}

class ClusterLeases final : public Base<ClusterLeases> {
 public:
  explicit ClusterLeases(std::uint64_t seed) : Base("cluster_leases", seed) {}

  void build() override {
    cluster_.reset();
    reset_state();
    clock_ops_.store(0, std::memory_order_relaxed);
    dist::ClusterConfig cfg;
    cfg.parent_initial = std::uint64_t{1} << 20;
    cfg.node_account_initial = 4096;
    cfg.borrow_budget = kNodes * 65536;
    cfg.local_initial = 256;
    cfg.refill_chunk = 256;
    cfg.lease_chunk = 256;
    cfg.lease_cap = kRenewWant;
    cfg.lease_ttl = 1;
    cfg.peer_reserve = 128;
    cluster_ = std::make_unique<dist::PeerCluster>(two_dc_topology(kNodes), cfg);
  }
  void destroy() override { cluster_.reset(); }


  LayerCounts counts() const override {
    LayerCounts k;
    bucket_pool_counts(cluster_->global().parent(), k);
    k.bucket_attempts = sum(&CallerState::admits);
    k.bucket_rejects = sum(&CallerState::misses);
    k.quota_stalls = cluster_->global().stall_count();
    k.renewals = cluster_->renewals();
    k.renewal_tokens = sum(&CallerState::renewal_tokens);
    k.donated_tokens = cluster_->donated_tokens();
    k.expiry_refunded = cluster_->expiry_refunded();
    return k;
  }

  std::vector<Check> verify() override {
    std::vector<Check> out;
    cluster_->expire_all(0);
    std::uint64_t local = 0;
    std::uint64_t escrow = 0;
    for (std::size_t i = 0; i < kNodes; ++i) {
      escrow += cluster_->debt_tokens(i);
      local += cluster_->drain_local(0, i);
    }
    const std::uint64_t global = cluster_->drain_global(0);
    const std::uint64_t spent = cluster_->total_spent();
    const std::uint64_t total =
        cluster_->total_initial_tokens() + sum(&CallerState::refilled);
    out.push_back({"conservation", global + local + spent + escrow == total,
                   fmt("global %llu + local %llu + spent %llu + escrow %llu",
                       global, local, spent, escrow) +
                       fmt(" vs total %llu", total, 0)});
    out.push_back({"expiry_exactly_once",
                   cluster_->expiry_recovered() == cluster_->expiry_refunded(),
                   fmt("recovered %llu, refunded %llu",
                       cluster_->expiry_recovered(),
                       cluster_->expiry_refunded())});
    out.push_back({"no_over_admit",
                   sum(&CallerState::over_admits) == 0 &&
                       sum(&CallerState::granted) == spent,
                   fmt("%llu grants differ from their cost; callers saw "
                       "%llu spent",
                       sum(&CallerState::over_admits),
                       sum(&CallerState::granted))});
    return out;
  }

 private:
  friend class Base<ClusterLeases>;
  template <class Call>
  bool step(std::size_t c, Call call) {
    CallerState& s = state_[c];
    const OpCode& code = next(c);
    auto admit = [&] {
      ++s.admits;
      const std::uint64_t got = call(SpanName::kDistAdmit, [&] {
        return cluster_->admit(c, code.target, code.cost);
      });
      s.misses += got == 0 ? 1 : 0;
      return got;
    };
    std::uint64_t got = admit();
    for (int r = 0; got == 0 && r < kMaxRenews; ++r) {
      s.renewal_tokens += call(SpanName::kRenew, [&] {
        return cluster_->renew(c, code.target, kRenewWant);
      });
      got = admit();
    }
    s.granted += got;
    s.over_admits += got != 0 && got != code.cost ? 1 : 0;
    s.pending += got;
    if (s.n % kRefillOps == 0 && s.pending > 0) {
      call(SpanName::kRefillParent, [&] {
        cluster_->global().refill_parent(c, s.pending);
        return 0;
      });
      s.refilled += s.pending;
      s.pending = 0;
    }
    if (s.n % kClockBatch == 0) {
      const std::uint64_t before =
          clock_ops_.fetch_add(kClockBatch, std::memory_order_relaxed);
      const std::uint64_t after = before + kClockBatch;
      if (after / kTickOps != before / kTickOps) {
        call(SpanName::kAdvance, [&] {
          cluster_->advance(c, after / kTickOps);
          return 0;
        });
      }
    }
    return got != 0;
  }

  std::unique_ptr<dist::PeerCluster> cluster_;
  alignas(64) std::atomic<std::uint64_t> clock_ops_{0};
};

// Balanced consume/refill: exactly half of each caller's cycle refills, so
// the pool's drift is bounded by the sequence's largest prefix imbalance.
std::vector<OpCode> balanced_mix(Rng& rng) {
  std::vector<OpCode> ops(kOpsPerCaller);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].target = i < ops.size() / 2 ? 0 : PoolMixed::kRefillOp;
  }
  for (std::size_t i = ops.size() - 1; i > 0; --i) {
    std::swap(ops[i], ops[rng.below(i + 1)]);
  }
  return ops;
}

std::vector<double> zipf_cdf(std::size_t n, double skew) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf[k] = total;
  }
  for (auto& v : cdf) v /= total;
  return cdf;
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"ops_per_s", "ops/s"},  {"lat_p50_ns", "ns"}, {"lat_p99_ns", "ns"},
      {"setup_s", "s"},        {"heap_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"runtime.pool_ns", "ns"},
      {"runtime.stalls_per_op", "1/op"},
      {"runtime.traversals_per_op", "1/op"},
      {"runtime.batch_passes_per_op", "1/op"},
      {"svc.bucket.consume_ns", "ns"},
      {"svc.bucket.refill_ns", "ns"},
      {"svc.bucket.self_ns", "ns"},
      {"svc.bucket.reject_frac", "fraction"},
      {"svc.ids.allocate_ns", "ns"},
      {"svc.ids.stalls_per_op", "1/op"},
      {"svc.admission.admit_ns", "ns"},
      {"svc.admission.self_ns", "ns"},
      {"svc.elim.pair_frac", "fraction"},
      {"svc.elim.withdraw_frac", "fraction"},
      {"svc.elim.backend_ops_per_op", "1/op"},
      {"svc.quota.acquire_ns", "ns"},
      {"svc.quota.release_ns", "ns"},
      {"svc.quota.borrow_frac", "fraction"},
      {"svc.quota.parent_tokens_per_op", "1/op"},
      {"svc.quota.stalls_per_op", "1/op"},
      {"dist.admit_ns", "ns"},
      {"dist.renew_ns", "ns"},
      {"dist.advance_ns", "ns"},
      {"dist.renews_per_kop", "1/kop"},
      {"dist.donation_frac", "fraction"},
      {"dist.expiry_refund_per_kop", "1/kop"},
      {"trace.overhead_frac", "fraction"},
  };
  return defs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "admit_front", "pool_mixed", "tenant_quota", "cluster_leases"};
  return names;
}

OpArrays generate_ops(const std::string& name, std::uint64_t seed) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) return {};
  const std::vector<double> zipf = zipf_cdf(kTenants, kZipfSkew);
  OpArrays arrays(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    Rng rng = stream(seed, c, 0x0b);
    std::vector<OpCode>& ops = arrays[c];
    if (name == "pool_mixed") {
      ops = balanced_mix(rng);
      continue;
    }
    ops.resize(kOpsPerCaller);
    for (OpCode& op : ops) {
      if (name == "admit_front") {
        op.target = static_cast<std::uint8_t>(rng.below(2));
      } else if (name == "tenant_quota") {
        const double u = rng.unit();
        op.target = static_cast<std::uint8_t>(
            std::lower_bound(zipf.begin(), zipf.end(), u) - zipf.begin());
        op.target = std::min<std::uint8_t>(op.target, kTenants - 1);
        op.cost = static_cast<std::uint8_t>(1 + rng.below(kMaxQuotaCost));
      } else {  // cluster_leases
        op.target = static_cast<std::uint8_t>(2 * c + rng.below(2));
        op.cost = static_cast<std::uint8_t>(1 + rng.below(kMaxLeaseCost));
      }
    }
  }
  return arrays;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "admit_front") return std::make_unique<AdmitFront>(seed);
  if (name == "pool_mixed") return std::make_unique<PoolMixed>(seed);
  if (name == "tenant_quota") return std::make_unique<TenantQuota>(seed);
  if (name == "cluster_leases") return std::make_unique<ClusterLeases>(seed);
  return nullptr;
}

}  // namespace perfbench
