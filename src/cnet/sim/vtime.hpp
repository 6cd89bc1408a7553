// Internal to the simulators (not a public API): the virtual-time machinery
// every discrete-event simulator in sim/ shares. One deterministic event
// executor, one service-time draw, and one set of server models — the
// central word as a queue-length-dependent FIFO server, the counting
// network as per-balancer FIFO servers over the shared routing table, the
// elimination slots and the adaptive swap (windowed by a real
// svc::LoadStats) — behind the CounterModel pool interface. simulate_timed
// runs the network servers alone; the svc simulators (multicore.hpp)
// compose them into model stacks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "cnet/sim/multicore.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/load_stats.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/topology/routing.hpp"
#include "cnet/topology/topology.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/prng.hpp"

namespace cnet::sim::vtime {

using Done = std::function<void()>;
using DoneN = std::function<void(std::uint64_t)>;

// ------------------------------------------------------------------ engine

// Minimal deterministic discrete-event executor: events fire in (time,
// insertion order), so equal-time events replay identically on every host.
class Engine {
 public:
  double now() const noexcept { return now_; }

  void at(double time, std::function<void()> fn) {
    events_.push(Event{std::max(time, now_), seq_++, std::move(fn)});
  }

  void run() {
    while (!events_.empty()) {
      // Move the handler out from under priority_queue's const top(). The
      // subsequent pop() re-heapifies by comparing only the trivially
      // copied time/seq fields, which the move leaves intact — nothing on
      // the pop path may ever inspect fn.
      Event ev = std::move(const_cast<Event&>(events_.top()));
      events_.pop();
      now_ = ev.time;
      ev.fn();
    }
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::uint64_t seq_ = 0;
  double now_ = 0.0;
};

// ------------------------------------------------------------- model base

// Virtual-time counterpart of rt::Counter's pool semantics: increments
// deposit tokens, decrements claim up to n bounded at zero, and both
// complete at a later virtual time determined by the backend's servers.
class CounterModel {
 public:
  virtual ~CounterModel() = default;

  virtual void increment_n(std::size_t core, std::uint64_t k, Done done) = 0;
  virtual void try_decrement_n(std::size_t core, std::uint64_t n,
                               DoneN done) = 0;
  // Refund traffic (shortfall un-consume, quota releases): count-wise the
  // same deposits as increment_n — the default — but a distinct entry
  // point so AdaptiveModel can keep it out of its switch window, exactly
  // mirroring rt::Counter::refund_n and AdaptiveCounter's override.
  virtual void refund_n(std::size_t core, std::uint64_t k, Done done) {
    increment_n(core, k, std::move(done));
  }

  virtual std::uint64_t stalls() const = 0;
  virtual std::int64_t pool() const = 0;
  virtual bool pool_ever_negative() const = 0;

  // Instantaneous pool bookkeeping, used for the initial fill and for the
  // adaptive model's exact migration at the switch instant.
  virtual std::uint64_t drain_pool_now() = 0;
  virtual void inject_pool_now(std::uint64_t k) = 0;
};

// Shared pool ledger: claims clamp at zero, so a negative balance is a
// model bug, not a workload outcome — tracked and surfaced as a check.
class PoolBase : public CounterModel {
 public:
  std::int64_t pool() const override { return pool_; }
  bool pool_ever_negative() const override { return ever_negative_; }

  std::uint64_t drain_pool_now() override {
    const auto moved = static_cast<std::uint64_t>(std::max<std::int64_t>(
        pool_, 0));
    pool_ = 0;
    return moved;
  }
  void inject_pool_now(std::uint64_t k) override {
    pool_ += static_cast<std::int64_t>(k);
  }

 protected:
  void deposit(std::uint64_t k) { pool_ += static_cast<std::int64_t>(k); }
  std::uint64_t claim(std::uint64_t n) {
    if (pool_ < 0) ever_negative_ = true;
    const auto avail =
        static_cast<std::uint64_t>(std::max<std::int64_t>(pool_, 0));
    const std::uint64_t got = std::min(n, avail);
    pool_ -= static_cast<std::int64_t>(got);
    return got;
  }

 private:
  std::int64_t pool_ = 0;
  bool ever_negative_ = false;
};

// Service-time draw: fixed, or exponential with the given mean (the same
// variance argument as bench_tab_throughput_sim — real memory access times
// are noisy, and the noise is what makes queue depth matter).
class ServiceDraw {
 public:
  ServiceDraw(double mean, bool exponential, util::Xoshiro256& rng)
      : mean_(mean), exponential_(exponential), rng_(rng) {}
  double operator()() {
    if (!exponential_) return mean_;
    return -mean_ * std::log1p(-rng_.uniform01());
  }

 private:
  double mean_;
  bool exponential_;
  util::Xoshiro256& rng_;
};

// ---------------------------------------------------------- central model

// The central word as a single FIFO server. Service time scales with the
// number of requests already in the system: every additional sharer adds a
// coherence hop before the RMW lands (for CAS kinds the slope is steeper —
// failed attempts resubmit). Each arrival that finds requests ahead of it
// is a stall event, the virtual analogue of Counter::stall_count.
class CentralModel final : public PoolBase {
 public:
  // empty_read_fast_path models the atomic/CAS bounded-decrement contract:
  // on an observably empty pool the real loop exits after a plain load — a
  // shared cache read that never takes exclusive line ownership — so it
  // neither queues behind the RMW stream nor counts as a stall. The mutex
  // kind always takes the lock and gets no fast path.
  CentralModel(Engine& eng, double slope, ServiceDraw draw,
               bool empty_read_fast_path = false)
      : eng_(eng),
        slope_(slope),
        draw_(draw),
        empty_read_fast_path_(empty_read_fast_path) {}

  void increment_n(std::size_t, std::uint64_t k, Done done) override {
    // A batch of k is k successive RMWs holding the line.
    const double t = schedule_rmw(static_cast<double>(k));
    eng_.at(t, [this, k, done = std::move(done)] {
      --pending_;
      deposit(k);
      done();
    });
  }

  void try_decrement_n(std::size_t, std::uint64_t n, DoneN done) override {
    if (empty_read_fast_path_ && pool() <= 0) {
      // Read-only miss: one uncontended service draw, in parallel with the
      // server. The op's linearization point is the issue-time load that
      // observed the empty pool, so it conclusively returns 0.
      eng_.at(eng_.now() + draw_(),
              [done = std::move(done)] { done(0); });
      return;
    }
    // One bounded CAS claims the whole remainder (rt::AtomicCounter /
    // CasCounter take the bulk path in a single word-sized claim).
    const double t = schedule_rmw(1.0);
    eng_.at(t, [this, n, done = std::move(done)] {
      --pending_;
      done(claim(n));
    });
  }

  std::uint64_t stalls() const override { return stalls_; }

 private:
  double schedule_rmw(double units) {
    stalls_ += pending_;  // every request ahead of us is a coherence stall
    const double start = std::max(eng_.now(), free_);
    // draw_() carries the kind's mean RMW time; the slope term lengthens it
    // by a fraction per request already contending for the line.
    const double service =
        units * draw_() * (1.0 + slope_ * static_cast<double>(pending_));
    ++pending_;
    free_ = start + service;
    return free_;
  }

  Engine& eng_;
  double slope_;
  ServiceDraw draw_;
  bool empty_read_fast_path_;
  std::uint64_t pending_ = 0;  // requests queued or in service
  double free_ = 0.0;          // time the server next goes idle
  std::uint64_t stalls_ = 0;
};

// ---------------------------------------------------------- network model

// Continuation of one network traversal, told the total time the token
// spent queued behind busy balancers on its way through.
using Exit = std::function<void(double queue_wait)>;

// The counting network as per-balancer FIFO servers over the real routing
// table: tokens (increments) and antitokens (bounded decrements) traverse
// balancer by balancer, queueing when a server is busy; each queued arrival
// is a stall event. A traversal carries a payload of up to batch_k tokens
// (1 for the per-token backend), which is the batched backend's whole
// advantage. simulate_timed drives the same servers through traverse().
class NetworkModel final : public PoolBase {
 public:
  NetworkModel(Engine& eng, const topo::Topology& net, double wire_delay,
               std::size_t batch_k, ServiceDraw draw)
      : eng_(eng),
        wire_(wire_delay),
        batch_k_(batch_k),
        draw_(draw),
        routing_(topo::compile_routing(net)),
        bals_(net.num_balancers()) {}

  void increment_n(std::size_t core, std::uint64_t k, Done done) override {
    if (k == 0) {
      eng_.at(eng_.now(), std::move(done));
      return;
    }
    const auto chunk = static_cast<std::uint64_t>(
        std::min<std::uint64_t>(k, batch_k_));
    // Sequential chunked traversals: the issuing core's thread walks the
    // network once per chunk, exactly like the real batch loop.
    traverse(core,
             [this, core, k, chunk, done = std::move(done)](double) mutable {
               deposit(chunk);
               increment_n(core, k - chunk, std::move(done));
             });
  }

  void try_decrement_n(std::size_t core, std::uint64_t n,
                       DoneN done) override {
    // One antitoken traversal; the claim happens at the exit cell, bounded
    // by what the pool holds at that instant.
    traverse(core,
             [this, n, done = std::move(done)](double) { done(claim(n)); });
  }

  std::uint64_t stalls() const override { return stalls_; }

  // Launches one traversal from input wire `core % width_in`; on_exit runs
  // at the virtual time the token leaves the network.
  void traverse(std::size_t core, Exit on_exit) {
    const std::int32_t e = routing_.entry[core % routing_.entry.size()];
    if (e < 0) {
      eng_.at(eng_.now(), [on_exit = std::move(on_exit)] { on_exit(0.0); });
      return;
    }
    arrive(static_cast<std::uint32_t>(e), Token{0.0, std::move(on_exit)});
  }

 private:
  struct Token {
    double queue_wait = 0.0;
    Exit on_exit;
  };
  struct Waiter {
    Token token;
    double since = 0.0;  // virtual time it joined the queue
  };
  struct Balancer {
    bool busy = false;
    std::uint32_t state = 0;
    std::deque<Waiter> waiting;
  };

  void arrive(std::uint32_t b, Token token) {
    Balancer& bal = bals_[b];
    if (bal.busy) {
      ++stalls_;
      bal.waiting.push_back({std::move(token), eng_.now()});
      return;
    }
    bal.busy = true;
    start_service(b, std::move(token));
  }

  void start_service(std::uint32_t b, Token token) {
    eng_.at(eng_.now() + draw_(),
            [this, b, token = std::move(token)]() mutable {
              complete(b, std::move(token));
            });
  }

  void complete(std::uint32_t b, Token token) {
    Balancer& bal = bals_[b];
    const std::uint32_t port = bal.state;
    bal.state = (bal.state + 1) % routing_.fanout[b];
    const std::int32_t next = routing_.route[routing_.route_base[b] + port];
    if (next < 0) {
      eng_.at(eng_.now() + wire_,
              [token = std::move(token)] { token.on_exit(token.queue_wait); });
    } else {
      const auto nb = static_cast<std::uint32_t>(next);
      eng_.at(eng_.now() + wire_,
              [this, nb, token = std::move(token)]() mutable {
                arrive(nb, std::move(token));
              });
    }
    if (bal.waiting.empty()) {
      bal.busy = false;
    } else {
      Waiter waiter = std::move(bal.waiting.front());
      bal.waiting.pop_front();
      waiter.token.queue_wait += eng_.now() - waiter.since;
      start_service(b, std::move(waiter.token));
    }
  }

  Engine& eng_;
  double wire_;
  std::size_t batch_k_;
  ServiceDraw draw_;
  topo::Routing routing_;
  std::vector<Balancer> bals_;
  std::uint64_t stalls_ = 0;
};

// ------------------------------------------------------- elimination model

// EliminationLayer in virtual time: the same slot state machine (empty /
// waiting-inc / waiting-dec, epoch bumped on every return to empty) run by
// the deterministic executor instead of CASes. Single-token ops deposit and
// wait elim_wait before withdrawing to the backend; bulk ops catch already-
// waiting partners only — the exact call-path split of the real
// ElimCounter. Pair values come from the shared svc::elimination_pair_value
// rule, so model and real multisets cancel identically.
class ElimModel final : public CounterModel {
 public:
  ElimModel(Engine& eng, std::unique_ptr<CounterModel> inner,
            std::size_t slots, double exchange_time, double inc_wait,
            double dec_wait, util::Xoshiro256& rng)
      : eng_(eng),
        inner_(std::move(inner)),
        slots_(slots),
        exchange_(exchange_time),
        inc_wait_(inc_wait),
        dec_wait_(dec_wait),
        rng_(rng) {
    CNET_REQUIRE(slots > 0, "at least one elimination slot");
  }

  void increment_n(std::size_t core, std::uint64_t k, Done done) override {
    // Catch pass (any k): hand tokens to already-waiting decrements.
    std::uint64_t remaining = k;
    while (remaining > 0 && catch_partner(Role::kDec)) --remaining;
    if (remaining == 0) {
      eng_.at(eng_.now() + exchange_, std::move(done));
      return;
    }
    if (remaining == 1 && k == 1) {
      // Single-op path: deposit and wait for a partner decrement. `done` is
      // passed as a copy so the fall-through below stays valid on a full
      // slot array.
      if (try_deposit(Role::kInc, core, /*k=*/1, done)) return;
    }
    inner_->increment_n(core, remaining, std::move(done));
  }

  void try_decrement_n(std::size_t core, std::uint64_t n,
                       DoneN done) override {
    std::uint64_t got = 0;
    while (got < n && catch_partner(Role::kInc)) ++got;
    if (got == n) {
      eng_.at(eng_.now() + exchange_,
              [got, done = std::move(done)] { done(got); });
      return;
    }
    if (n == 1 && got == 0) {
      // Single-op path: deposit; a catching increment completes us with one
      // token (the pairing continuation already runs exchange_time after
      // the catch), the withdrawal falls through to the backend.
      auto fulfilled = [done](std::int64_t /*pair value*/) { done(1); };
      auto withdrawn = [this, core, done] {
        inner_->try_decrement_n(core, 1, done);
      };
      if (deposit(Role::kDec, std::move(fulfilled), std::move(withdrawn))) {
        return;
      }
      inner_->try_decrement_n(core, 1, std::move(done));
      return;
    }
    const std::uint64_t caught = got;
    if (caught == 0) {
      inner_->try_decrement_n(core, n, std::move(done));
      return;
    }
    inner_->try_decrement_n(
        core, n - caught,
        [caught, done = std::move(done)](std::uint64_t inner_got) {
          done(caught + inner_got);
        });
  }

  // Refunds skip the exchange slots (rt::ForwardingCounter's default does
  // the same): give-backs land in the pool unconditionally.
  void refund_n(std::size_t core, std::uint64_t k, Done done) override {
    inner_->refund_n(core, k, std::move(done));
  }

  std::uint64_t stalls() const override { return inner_->stalls(); }
  std::int64_t pool() const override { return inner_->pool(); }
  bool pool_ever_negative() const override {
    return inner_->pool_ever_negative();
  }
  std::uint64_t drain_pool_now() override { return inner_->drain_pool_now(); }
  void inject_pool_now(std::uint64_t k) override {
    inner_->inject_pool_now(k);
  }

  std::uint64_t pairs() const { return pairs_; }
  std::uint64_t withdrawals() const { return withdrawals_; }
  std::int64_t value_sum() const { return value_sum_; }

 private:
  enum class Role : std::uint8_t { kInc, kDec };
  struct Slot {
    enum class State : std::uint8_t { kEmpty, kWaitInc, kWaitDec } state =
        State::kEmpty;
    std::uint64_t epoch = 0;
    // Waiter continuations: on_pair runs when an opposite role catches the
    // slot, on_withdraw when the deposit window expires first.
    std::function<void(std::int64_t)> on_pair;
  };

  // Finds a waiter of `role` and pairs with it: the waiter's continuation
  // fires exchange_ later, the slot returns to empty with a bumped epoch.
  bool catch_partner(Role role) {
    const auto want = role == Role::kInc ? Slot::State::kWaitInc
                                         : Slot::State::kWaitDec;
    const std::size_t start = static_cast<std::size_t>(
        rng_.below(static_cast<std::uint64_t>(slots_.size())));
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const std::size_t s = (start + i) % slots_.size();
      Slot& slot = slots_[s];
      if (slot.state != want) continue;
      const std::int64_t value = svc::elimination_pair_value(
          slots_.size(), s, slot.epoch);
      ++pairs_;
      value_sum_ += value;
      auto on_pair = std::move(slot.on_pair);
      slot.state = Slot::State::kEmpty;
      slot.on_pair = nullptr;
      ++slot.epoch;
      const double at = eng_.now() + exchange_;
      eng_.at(at, [value, on_pair = std::move(on_pair)] { on_pair(value); });
      return true;
    }
    return false;
  }

  // Deposits a waiter; schedules the withdrawal at the deposit window's
  // end (per-role windows mirror the real inc_spins/dec_spins asymmetry:
  // increments wait long, decrements only briefly). Returns false when
  // every slot is occupied (fall through).
  bool deposit(Role role, std::function<void(std::int64_t)> on_pair,
               Done on_withdraw) {
    const std::size_t start = static_cast<std::size_t>(
        rng_.below(static_cast<std::uint64_t>(slots_.size())));
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const std::size_t s = (start + i) % slots_.size();
      Slot& slot = slots_[s];
      if (slot.state != Slot::State::kEmpty) continue;
      slot.state = role == Role::kInc ? Slot::State::kWaitInc
                                      : Slot::State::kWaitDec;
      slot.on_pair = std::move(on_pair);
      const std::uint64_t epoch = slot.epoch;
      eng_.at(eng_.now() + (role == Role::kInc ? inc_wait_ : dec_wait_),
              [this, s, epoch, on_withdraw = std::move(on_withdraw)] {
                Slot& sl = slots_[s];
                if (sl.epoch != epoch ||
                    sl.state == Slot::State::kEmpty) {
                  return;  // already paired; the pairing continuation ran
                }
                sl.state = Slot::State::kEmpty;
                sl.on_pair = nullptr;
                ++sl.epoch;
                ++withdrawals_;
                on_withdraw();
              });
      return true;
    }
    return false;
  }

  // Single-increment deposit: on pairing the increment op completes (its
  // token went straight to the paired decrement); on withdrawal the token
  // goes to the backend.
  bool try_deposit(Role role, std::size_t core, std::uint64_t k,
                   const Done& done) {
    auto fulfilled = [done](std::int64_t) { done(); };
    auto withdrawn = [this, core, k, done] {
      inner_->increment_n(core, k, done);
    };
    return deposit(role, std::move(fulfilled), std::move(withdrawn));
  }

  Engine& eng_;
  std::unique_ptr<CounterModel> inner_;
  std::vector<Slot> slots_;
  double exchange_;
  double inc_wait_;
  double dec_wait_;
  util::Xoshiro256& rng_;
  std::uint64_t pairs_ = 0;
  std::uint64_t withdrawals_ = 0;
  std::int64_t value_sum_ = 0;
};

// --------------------------------------------------------- adaptive model

// AdaptiveCounter in virtual time: ops run on the cold central model until
// a sampled window of simulated stall events crosses the shared
// svc::should_switch rule; the switch migrates the remaining pool into the
// hot batched-network model at that exact virtual instant. The window is
// the real svc::LoadStats probe; the executor is one thread, so every op
// lands on slot 0 and the slot's boundary crossing is the tally's.
class AdaptiveModel final : public CounterModel {
 public:
  AdaptiveModel(std::unique_ptr<CounterModel> cold,
                std::unique_ptr<CounterModel> hot, Engine& eng,
                const svc::AdaptiveTuning& tuning)
      : cold_(std::move(cold)),
        hot_(std::move(hot)),
        eng_(eng),
        tuning_(tuning),
        stats_(tuning.sample_interval) {}

  void increment_n(std::size_t core, std::uint64_t k, Done done) override {
    active().increment_n(core, k, [this, k, done = std::move(done)] {
      after_ops(k);
      done();
    });
  }

  void try_decrement_n(std::size_t core, std::uint64_t n,
                       DoneN done) override {
    if (switched_) {
      // Sweep straggler deposits (pre-switch ops completing late on the
      // cold model) before taking: the real counter's reader quiescence
      // means a post-swap consumer can never miss a token that is only
      // "in the other pool".
      migrate();
    }
    active().try_decrement_n(
        core, n, [this, done = std::move(done)](std::uint64_t got) {
          // Same charging rule as the fixed AdaptiveCounter: tokens
          // actually transferred, minimum one for the attempt.
          after_ops(std::max<std::uint64_t>(got, 1));
          done(got);
        });
  }

  void refund_n(std::size_t core, std::uint64_t k, Done done) override {
    // Mirror of AdaptiveCounter::refund_n: no op charge, and the stalls
    // the refund provokes on the cold model are banked for exclusion from
    // the switch window. The cold CentralModel tallies a stall at
    // scheduling time (inside the increment_n call), so the delta around
    // the call attributes exactly this refund's own stalls.
    const bool track = !switched_;
    const std::uint64_t before = track ? cold_->stalls() : 0;
    active().refund_n(core, k, [this, done = std::move(done)] {
      if (switched_) {
        // Same straggler sweep as after_ops: a refund that was in flight
        // on the cold model at the switch instant must not strand tokens.
        migrate();
      }
      done();
    });
    if (track) refund_stalls_ += cold_->stalls() - before;
  }

  std::uint64_t stalls() const override {
    return cold_->stalls() + hot_->stalls();
  }
  std::int64_t pool() const override {
    return cold_->pool() + hot_->pool();
  }
  bool pool_ever_negative() const override {
    return cold_->pool_ever_negative() || hot_->pool_ever_negative();
  }
  std::uint64_t drain_pool_now() override {
    return cold_->drain_pool_now() + hot_->drain_pool_now();
  }
  void inject_pool_now(std::uint64_t k) override {
    active().inject_pool_now(k);
  }

  bool switched() const { return switched_; }
  double switch_time() const { return switch_time_; }
  // The op tally stops at the switch (after_ops records no more).
  std::uint64_t ops_at_switch() const { return switched_ ? stats_.ops() : 0; }

  // The force-eliminate actuation (AdaptiveCounter::force_switch's model
  // counterpart): take the cold→hot swap now regardless of the stall
  // window, with the same exact pool migration as the organic switch.
  void force_switch_now() {
    if (!switched_) switch_now();
  }

 private:
  CounterModel& active() { return switched_ ? *hot_ : *cold_; }

  // Moves whatever the cold pool holds into the hot one (a no-op on an
  // empty cold pool).
  void migrate() { hot_->inject_pool_now(cold_->drain_pool_now()); }

  void switch_now() {
    switched_ = true;
    switch_time_ = eng_.now();
    migrate();  // exact migration
  }

  void after_ops(std::uint64_t n) {
    if (switched_) {
      // Ops that were already in flight on the cold model at the switch
      // instant may still deposit there (a queued bulk refill completing
      // late). The real AdaptiveCounter waits for reader quiescence before
      // its one-shot drain; the event-driven analogue is to sweep any cold
      // remainder as each straggler completes — once the last in-flight
      // cold op lands, the cold pool is empty for good and no token is
      // stranded.
      migrate();
      return;
    }
    if (!stats_.record_ops(0, n)) return;  // no sample boundary crossed
    // Refund-attributed stalls are excluded; the exclusion can make the
    // adjusted total dip below the previous window's high-water mark,
    // which the probe's clamp reads as an empty delta.
    const auto window = stats_.sample([this] {
      const std::uint64_t total = cold_->stalls();
      return total >= refund_stalls_ ? total - refund_stalls_ : 0;
    });
    if (window && svc::should_switch(*window, tuning_)) switch_now();
  }

  std::unique_ptr<CounterModel> cold_, hot_;
  Engine& eng_;
  svc::AdaptiveTuning tuning_;
  bool switched_ = false;
  double switch_time_ = -1.0;
  svc::LoadStats stats_;
  std::uint64_t refund_stalls_ = 0;
};

// ------------------------------------------------------------ model stack

struct ModelStack {
  std::unique_ptr<CounterModel> root;
  // Non-owning views into the stack for stats extraction.
  ElimModel* elim = nullptr;
  AdaptiveModel* adaptive = nullptr;
};

// The pool model behind `spec` (plus its elimination front-end when the
// spec asks for one), built from `cfg`'s knobs. Every server draws its
// service times from `rng`.
ModelStack make_model(const svc::BackendSpec& spec, Engine& eng,
                      const ModelConfig& cfg, util::Xoshiro256& rng);

// ------------------------------------------------------------- quota plan

// Steps a svc::QuotaPlan in virtual time from `phase` on, as
// svc::run_quota_plan steps it live; simulate_quota, simulate_overload and
// simulate_cluster's coordinator step every acquire and settlement here.
// levels.take/put(parent, n, done) move tokens and call done(got), at once
// or later; the reservation books on levels.borrowed() against
// levels.limit() at once, by the live CAS's all-or-nothing rule; and
// levels.decide(plan) settles the acquire. after(result) runs at the end.
template <class Levels>
void step_quota_plan(const Levels& levels, svc::QuotaPlan plan,
                     std::function<void(const svc::QuotaOutcome&)> after,
                     int phase = 0) {
  for (; phase < svc::QuotaPlan::kPhases; ++phase) {
    const svc::QuotaStep s = plan.step(phase);
    if (s.n == 0) continue;
    // A take or a put hands the rest of the plan to the pool.
    const auto rest = [&] {
      return [levels, plan, phase, after = std::move(after)](
                 std::uint64_t got = 0) mutable {
        plan.done(phase, got);
        step_quota_plan(levels, plan, std::move(after), phase + 1);
      };
    };
    std::uint64_t& borrowed = levels.borrowed();
    switch (s.op) {
      case svc::QuotaOp::kTake: levels.take(s.parent, s.n, rest()); return;
      case svc::QuotaOp::kPut: levels.put(s.parent, s.n, rest()); return;
      case svc::QuotaOp::kReserve: {
        const std::uint64_t got =
            svc::borrow_reservation(s.n, borrowed, levels.limit());
        borrowed += got;
        plan.done(phase, got);
        break;
      }
      case svc::QuotaOp::kUnreserve: borrowed -= s.n; break;
      case svc::QuotaOp::kDecide: levels.decide(plan); break;
    }
  }
  after(plan.result());
}

}  // namespace cnet::sim::vtime
