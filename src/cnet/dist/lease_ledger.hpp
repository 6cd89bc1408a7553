// dist::LeaseLedger — one node's lease book, the single-threaded state
// machine behind exactly-once lease settlement. dist::PeerCluster keeps one
// per node under the node's ledger mutex (Time = logical ticks);
// sim::simulate_cluster keeps one per node in virtual time (Time = double).
// It owns the lease records (grant parts, expiry, settled flag), the
// heartbeat, the donation carve, exactly-once settlement, the debt escrow
// and its bounded reconcile batches. No atomics, locks, clock or pools:
// callers move the tokens and pass the time in. Indices from grant() stay
// valid until compact().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "cnet/dist/policy.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::dist {

template <class Time>
class LeaseLedger {
 public:
  struct Lease {
    std::size_t tenant = 0;  // the hierarchy account its refund settles to
    CarvedParts parts;       // grant parts the lease still carries
    Time expiry{};
    bool settled = false;
  };
  struct Debt {
    std::size_t tenant = 0;
    CarvedParts parts;
    std::uint64_t recovered = 0;  // escrowed tokens awaiting the refund
  };

  std::size_t grant(std::size_t tenant, CarvedParts parts, Time expiry) {
    leases_.push_back(Lease{tenant, parts, expiry, false});
    return leases_.size() - 1;
  }
  const Lease& lease(std::size_t i) const { return leases_[i]; }
  std::size_t size() const noexcept { return leases_.size(); }

  // A settled lease is never revived.
  void heartbeat(Time expiry) {
    for (Lease& l : leases_) {
      if (!l.settled) l.expiry = std::max(l.expiry, expiry);
    }
  }

  std::uint64_t active_tokens() const noexcept {
    std::uint64_t total = 0;
    for (const Lease& l : leases_) total += l.settled ? 0 : l.parts.tokens();
    return total;
  }
  std::uint64_t active_leases() const noexcept {
    return static_cast<std::uint64_t>(std::count_if(
        leases_.begin(), leases_.end(),
        [](const Lease& l) { return !l.settled; }));
  }

  // How much a donor holding `balance` may give toward `want`: its
  // peer_surplus above `reserve`, and never more than its active parts.
  std::uint64_t donatable(std::int64_t balance, std::uint64_t reserve,
                          std::uint64_t want) const noexcept {
    const auto held = static_cast<std::uint64_t>(std::max<std::int64_t>(
        balance, 0));
    return std::min({want, peer_surplus(held, reserve), active_tokens()});
  }

  // Takes exactly `tokens` (<= active_tokens()) grant parts from the newest
  // unsettled leases, child parts first, handing each lease's share to
  // on_part(tenant, parts). A lease carved to nothing counts as settled.
  template <class OnPart>
  void carve(std::uint64_t tokens, OnPart&& on_part) {
    for (auto it = leases_.rbegin(); it != leases_.rend() && tokens > 0;
         ++it) {
      if (it->settled) continue;
      const CarvedParts part = lease_carve(tokens, it->parts.from_child,
                                           it->parts.from_parent);
      if (part.tokens() == 0) continue;
      it->parts.from_child -= part.from_child;
      it->parts.from_parent -= part.from_parent;
      it->settled = it->parts.tokens() == 0;
      on_part(it->tenant, part);
      tokens -= part.tokens();
    }
    CNET_ENSURE(tokens == 0, "donated tokens exceeded donor lease parts");
  }

  // Settles lease i exactly once, if it is unsettled and due at `now`:
  // recover(tokens) takes back the unspent part, which is held as debt
  // when `escrow` (a partitioned node). Returns the settlement.
  template <class Recover>
  std::optional<Debt> expire(std::size_t i, Time now, bool escrow,
                             Recover&& recover) {
    Lease& l = leases_[i];
    if (l.settled || l.expiry > now) return std::nullopt;
    l.settled = true;
    const Debt d{l.tenant, l.parts, recover(l.parts.tokens())};
    if (escrow) {
      debts_.push_back(d);
      escrowed_ += d.recovered;
    }
    return d;
  }
  bool has_debt() const noexcept { return !debts_.empty(); }
  std::uint64_t escrowed() const noexcept { return escrowed_; }

  // One batch: settles whole entries, oldest first, through
  // on_settle(debt) until the debt_reconcile budget is met; zero-recovery
  // entries still settle (their refund closes the borrow). Returns the
  // escrowed tokens settled.
  template <class OnSettle>
  std::uint64_t reconcile_batch(std::uint64_t chunk, OnSettle&& on_settle) {
    const std::uint64_t budget = debt_reconcile(escrowed_, chunk);
    std::uint64_t settled = 0;
    while (!debts_.empty()) {
      on_settle(debts_.front());
      settled += debts_.front().recovered;
      debts_.pop_front();
      if (settled >= budget) break;
    }
    escrowed_ -= settled;
    return settled;
  }

  // Drops settled leases, keeping the active ones in order.
  void compact() {
    leases_.erase(std::remove_if(leases_.begin(), leases_.end(),
                                 [](const Lease& l) { return l.settled; }),
                  leases_.end());
  }

 private:
  std::vector<Lease> leases_;
  std::deque<Debt> debts_;
  std::uint64_t escrowed_ = 0;
};

}  // namespace cnet::dist
