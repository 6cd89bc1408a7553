// Schedule-checker driver: QuotaHierarchy borrow reservation.
//
// The protocol under test is the reservation CAS loop over the tenant's
// `borrowed` word inside a weights_ read section — the mechanism behind
// the isolation guarantee (outstanding borrow never exceeds the weighted
// limit, not even transiently). Three shapes: the reservation racing a
// reweigh commit (limits swap generations mid-loop), two acquires racing
// for the last unit of borrow headroom, and a release racing an acquire
// for the headroom it frees (the plan's pool-before-headroom order).
#include <cstdint>
#include <memory>
#include <vector>

#include "cnet/check/driver.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/quota.hpp"
#include "cnet/util/ensure.hpp"

namespace {

using cnet::check::Expect;
using cnet::check::Scenario;
using cnet::check::TestContext;
using cnet::svc::BackendKind;
using cnet::svc::QuotaHierarchy;

// Two tenants, empty children, tiny parent: every admission is forced
// through the parent-borrow reservation. Central-atomic backends keep the
// pool arithmetic out of the schedule space — the explored steps are
// exactly the reservation CAS loop, the weights read section, and the
// commit protocol.
std::shared_ptr<QuotaHierarchy> tiny_quota(std::uint64_t parent_initial = 4) {
  QuotaHierarchy::Config cfg;
  cfg.parent = {BackendKind::kCentralAtomic, false};
  cfg.child = {BackendKind::kCentralAtomic, false};
  cfg.parent_initial_tokens = parent_initial;
  cfg.borrow_budget = 2;  // weights {1,1} -> limit 1 per tenant
  return std::make_shared<QuotaHierarchy>(
      cfg, std::vector<QuotaHierarchy::TenantConfig>{{0, 1}, {0, 1}});
}

void borrow_vs_reweigh(TestContext& ctx) {
  auto quota = tiny_quota();
  auto grant = std::make_shared<QuotaHierarchy::Grant>();
  ctx.spawn([quota, grant] { *grant = quota->acquire(0, 0, 1); });
  ctx.spawn([quota] {
    quota->reweigh(1, std::vector<std::uint64_t>{3, 1});
  });
  ctx.join_all();
  CNET_ENSURE(quota->config_version() == 2, "reweigh did not commit");
  CNET_ENSURE(quota->borrow_limit(0) + quota->borrow_limit(1) <=
                  2,
              "limits exceed the borrow budget");
  if (grant->admitted) {
    CNET_ENSURE(grant->from_parent == 1 && grant->from_child == 0,
                "grant parts must record one parent-borrowed token");
    CNET_ENSURE(quota->borrowed(0) == 1,
                "borrow ledger out of sync with the outstanding grant");
    quota->release(0, *grant);
  }
  CNET_ENSURE(quota->borrowed(0) == 0 && quota->borrowed(1) == 0,
              "borrow ledger nonzero after all grants released");
}

void last_headroom(TestContext& ctx) {
  auto quota = tiny_quota();
  auto g1 = std::make_shared<QuotaHierarchy::Grant>();
  auto g2 = std::make_shared<QuotaHierarchy::Grant>();
  // Same tenant, limit 1: exactly one of the two racing reservations may
  // win the last unit of headroom — never both (that would put borrowed
  // above the limit, the isolation bug), never neither (a failed CAS means
  // the other reservation progressed).
  ctx.spawn([quota, g1] { *g1 = quota->acquire(0, 0, 1); });
  ctx.spawn([quota, g2] { *g2 = quota->acquire(1, 0, 1); });
  ctx.join_all();
  const int admitted = (g1->admitted ? 1 : 0) + (g2->admitted ? 1 : 0);
  CNET_ENSURE(admitted == 1,
              "exactly one acquire must win the last borrow headroom");
  CNET_ENSURE(quota->borrowed(0) == 1,
              "borrow ledger out of sync after the race");
  quota->release(0, g1->admitted ? *g1 : *g2);
  CNET_ENSURE(quota->borrowed(0) == 0,
              "borrow ledger nonzero after release");
}

void release_before_headroom(TestContext& ctx) {
  // One parent token, limit 1, already on loan: the release and a second
  // acquire for the same tenant race for it. The acquire's reservation can
  // only win once the release frees the headroom, and the release puts
  // the token back first — so a won reservation always finds its token
  // and the parent never sees a failed take.
  auto quota = tiny_quota(/*parent_initial=*/1);
  const QuotaHierarchy::Grant held = quota->acquire(0, 0, 1);
  CNET_ENSURE(held.admitted && held.from_parent == 1,
              "setup must borrow the one parent token");
  auto again = std::make_shared<QuotaHierarchy::Grant>();
  ctx.spawn([quota, held] { quota->release(0, held); });
  ctx.spawn([quota, again] { *again = quota->acquire(1, 0, 1); });
  ctx.join_all();
  CNET_ENSURE(quota->parent().consume_rejects() == 0,
              "a won reservation found its parent token missing");
  if (again->admitted) quota->release(0, *again);
  CNET_ENSURE(quota->borrowed(0) == 0,
              "borrow ledger nonzero after all grants released");
}

}  // namespace

int main(int argc, char** argv) {
  return cnet::check::run_scenarios(
      {
          Scenario{"borrow_vs_reweigh", Expect::kClean, borrow_vs_reweigh},
          Scenario{"last_headroom", Expect::kClean, last_headroom},
          Scenario{"release_before_headroom", Expect::kClean,
                   release_before_headroom},
      },
      argc, argv);
}
