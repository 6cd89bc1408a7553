// dist::LeaseLedger on its own: the single-threaded lease book that
// dist::PeerCluster and sim::simulate_cluster both run. Heartbeat, carve,
// exactly-once settlement, escrow batching and compaction are checked here
// with exact arithmetic, independent of any pool or clock.
#include "cnet/dist/lease_ledger.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace cnet::dist {
namespace {

using Ledger = LeaseLedger<std::uint64_t>;

// Settles lease i if due, recovering `recovered` of its tokens.
bool expire(Ledger& ledger, std::size_t i, std::uint64_t now,
            std::uint64_t recovered = 0, bool escrow = false) {
  return ledger
      .expire(i, now, escrow, [&](std::uint64_t) { return recovered; })
      .has_value();
}

TEST(LeaseLedger, HeartbeatNeverRevivesASettledLease) {
  Ledger ledger;
  const std::size_t a = ledger.grant(0, {10, 0}, 5);
  const std::size_t b = ledger.grant(0, {20, 0}, 9);
  EXPECT_FALSE(expire(ledger, a, 4));  // not due yet
  EXPECT_TRUE(expire(ledger, a, 5));
  EXPECT_FALSE(expire(ledger, a, 5));  // exactly once

  ledger.heartbeat(12);
  EXPECT_EQ(ledger.lease(a).expiry, 5u);  // settled: untouched
  EXPECT_TRUE(ledger.lease(a).settled);
  EXPECT_EQ(ledger.lease(b).expiry, 12u);
  ledger.heartbeat(7);  // never shortens
  EXPECT_EQ(ledger.lease(b).expiry, 12u);
  EXPECT_FALSE(expire(ledger, b, 11));
  EXPECT_EQ(ledger.active_leases(), 1u);
  EXPECT_EQ(ledger.active_tokens(), 20u);
}

TEST(LeaseLedger, CarveIsNewestFirstChildFirstAndExact) {
  Ledger ledger;
  const std::size_t oldest = ledger.grant(1, {4, 4}, 10);
  const std::size_t settled = ledger.grant(2, {50, 0}, 1);
  const std::size_t newest = ledger.grant(3, {3, 2}, 10);
  ASSERT_TRUE(expire(ledger, settled, 1));
  ASSERT_EQ(ledger.active_tokens(), 13u);

  std::vector<std::pair<std::size_t, CarvedParts>> parts;
  ledger.carve(9, [&](std::size_t tenant, CarvedParts p) {
    parts.emplace_back(tenant, p);
  });
  // The newest lease gives all 5 (child part first), the settled one is
  // skipped, and the oldest gives the remaining 4 from its child part.
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].first, 3u);
  EXPECT_EQ(parts[0].second.from_child, 3u);
  EXPECT_EQ(parts[0].second.from_parent, 2u);
  EXPECT_EQ(parts[1].first, 1u);
  EXPECT_EQ(parts[1].second.from_child, 4u);
  EXPECT_EQ(parts[1].second.from_parent, 0u);

  EXPECT_TRUE(ledger.lease(newest).settled);  // carved to nothing
  EXPECT_FALSE(ledger.lease(oldest).settled);
  EXPECT_EQ(ledger.lease(oldest).parts.from_child, 0u);
  EXPECT_EQ(ledger.lease(oldest).parts.from_parent, 4u);
  EXPECT_EQ(ledger.active_tokens(), 4u);
  EXPECT_EQ(ledger.active_leases(), 1u);

  // Asking for more than the active parts is a broken caller.
  EXPECT_ANY_THROW(ledger.carve(5, [](std::size_t, CarvedParts) {}));
}

TEST(LeaseLedger, ReconcileBatchesSettleWholeEntriesUntilTheChunkIsMet) {
  Ledger ledger;
  const std::uint64_t recovered[] = {30, 0, 50, 40};
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t lease =
        ledger.grant(i, {recovered[i] + 1, 0}, static_cast<std::uint64_t>(i));
    const auto debt = ledger.expire(lease, 10, /*escrow=*/true,
                                    [&](std::uint64_t tokens) {
                                      EXPECT_EQ(tokens, recovered[i] + 1);
                                      return recovered[i];
                                    });
    ASSERT_TRUE(debt.has_value());
    EXPECT_EQ(debt->recovered, recovered[i]);
  }
  EXPECT_EQ(ledger.escrowed(), 120u);
  EXPECT_EQ(ledger.active_leases(), 0u);

  std::vector<std::size_t> order;
  const auto record = [&](const Ledger::Debt& d) {
    order.push_back(d.tenant);
    if (d.tenant < 4) {  // each entry keeps its lease's grant parts
      EXPECT_EQ(d.parts.from_child, recovered[d.tenant] + 1);
      EXPECT_EQ(d.recovered, recovered[d.tenant]);
    }
  };
  // Chunk 60: 30 settles, the zero entry settles too (the budget is not
  // met yet), then 50 overshoots the chunk as a whole entry.
  EXPECT_EQ(ledger.reconcile_batch(60, record), 80u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(ledger.escrowed(), 40u);
  EXPECT_TRUE(ledger.has_debt());
  EXPECT_EQ(ledger.reconcile_batch(60, record), 40u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_FALSE(ledger.has_debt());
  EXPECT_EQ(ledger.escrowed(), 0u);
  EXPECT_EQ(ledger.reconcile_batch(60, record), 0u);  // nothing left

  // A zero-recovery entry alone is a zero budget: it still settles.
  const std::size_t spent = ledger.grant(7, {5, 0}, 0);
  ASSERT_TRUE(expire(ledger, spent, 0, 0, /*escrow=*/true));
  EXPECT_EQ(ledger.reconcile_batch(60, record), 0u);
  EXPECT_FALSE(ledger.has_debt());
  EXPECT_EQ(order.back(), 7u);
}

TEST(LeaseLedger, CompactionKeepsActiveLeasesInOrder) {
  Ledger ledger;
  for (std::size_t i = 0; i < 5; ++i) {
    ledger.grant(i, {i + 1, 0}, 10 + i);
  }
  ASSERT_TRUE(expire(ledger, 0, 10));
  ASSERT_TRUE(expire(ledger, 2, 12));
  ledger.compact();
  ASSERT_EQ(ledger.size(), 3u);
  EXPECT_EQ(ledger.lease(0).tenant, 1u);
  EXPECT_EQ(ledger.lease(1).tenant, 3u);
  EXPECT_EQ(ledger.lease(2).tenant, 4u);
  EXPECT_EQ(ledger.lease(2).expiry, 14u);
  EXPECT_EQ(ledger.active_tokens(), 2u + 4u + 5u);
  // Indices handed out after compaction address the compacted book.
  EXPECT_EQ(ledger.grant(9, {1, 1}, 20), 3u);
  EXPECT_EQ(ledger.lease(3).tenant, 9u);
}

}  // namespace
}  // namespace cnet::dist
