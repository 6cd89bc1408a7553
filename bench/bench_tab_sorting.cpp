// §7: the sorting-network byproduct. C(w,w) with comparators substituted
// for balancers is a depth-O(lg²w) sorting network; we benchmark it against
// Batcher's bitonic sorter (same depth class) and std::sort on one pinned
// caller of the shared live harness (bench/support/live.hpp), after
// re-verifying both schedules with the 0-1 principle / random
// permutations.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cnet/core/counting.hpp"
#include "cnet/sort/batcher.hpp"
#include "cnet/sort/comparator_net.hpp"
#include "cnet/util/prng.hpp"
#include "cnet/util/table.hpp"
#include "support/live.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

std::vector<int> random_values(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<int> v(n);
  for (auto& x : v) x = static_cast<int>(rng.below(1u << 30));
  return v;
}

const sort::ComparatorSchedule& cww_schedule(std::size_t w) {
  static std::map<std::size_t, sort::ComparatorSchedule> cache;
  auto it = cache.find(w);
  if (it == cache.end()) {
    it = cache.emplace(w, sort::schedule_from_topology(
                              core::make_counting(w, w))).first;
  }
  return it->second;
}

const sort::ComparatorSchedule& batcher_schedule(std::size_t w) {
  static std::map<std::size_t, sort::ComparatorSchedule> cache;
  auto it = cache.find(w);
  if (it == cache.end()) {
    it = cache.emplace(w, sort::make_batcher_bitonic(w)).first;
  }
  return it->second;
}

// Sort passes per second: one call sorts one fresh copy of `input`. The
// schedules are data-parallel, but one lane is timed.
double passes_per_s(const std::vector<int>& input,
                    const std::function<void(std::vector<int>&)>& sort_pass) {
  return bench::run_live(1, {0.05, 0.2, 10, 0}, 1, [&](std::size_t) {
           return [&] {
             auto v = input;
             sort_pass(v);
             return true;
           };
         }).ops_per_s();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);

  // Correctness gate before timing (paper §7: C(w,w) sorts).
  std::puts("verifying sorters before timing...");
  for (const std::size_t w : {4u, 8u, 16u}) {
    if (!sort::sorts_all_01(cww_schedule(w)) ||
        !sort::sorts_all_01(batcher_schedule(w))) {
      std::fprintf(stderr, "sorter verification FAILED at w=%zu\n", w);
      return 1;
    }
  }
  for (const std::size_t w : {64u, 256u, 1024u}) {
    if (!sort::sorts_random(cww_schedule(w), 50, 1) ||
        !sort::sorts_random(batcher_schedule(w), 50, 2)) {
      std::fprintf(stderr, "sorter verification FAILED at w=%zu\n", w);
      return 1;
    }
  }
  std::puts("all sorters verified (0-1 principle + random permutations)\n");

  bench::section("§7 sorting byproduct: C(w,w) vs Batcher vs std::sort");
  util::Table table({"w", "sorter", "items/s", "ns/pass", "comparators",
                     "depth"});
  for (const std::size_t w : {16u, 64u, 256u, 1024u}) {
    const auto input = random_values(w, 0x50F7 + w);
    struct Row {
      const char* name;
      std::function<void(std::vector<int>&)> pass;
      const sort::ComparatorSchedule* schedule;
    };
    const Row rows[] = {
        {"C(w,w)",
         [&](std::vector<int>& v) {
           sort::apply_in_place(cww_schedule(w), std::span<int>(v));
         },
         &cww_schedule(w)},
        {"batcher",
         [&](std::vector<int>& v) {
           sort::apply_in_place(batcher_schedule(w), std::span<int>(v));
         },
         &batcher_schedule(w)},
        {"std::sort",
         [](std::vector<int>& v) {
           std::sort(v.begin(), v.end(), std::greater<>());
         },
         nullptr},
    };
    for (const Row& row : rows) {
      const double passes = passes_per_s(input, row.pass);
      table.add_row(
          {util::fmt_int(static_cast<std::int64_t>(w)), row.name,
           bench::fmt_rate(passes * static_cast<double>(w)),
           util::fmt_double(passes > 0 ? 1e9 / passes : 0, 0),
           row.schedule ? util::fmt_int(static_cast<std::int64_t>(
                              row.schedule->comparators.size()))
                        : "-",
           row.schedule ? util::fmt_int(
                              static_cast<std::int64_t>(row.schedule->depth))
                        : "-"});
    }
  }
  bench::emit(table, opts);
  bench::note(
      "\nexpected shape: both networks sort obliviously in O(w lg^2 w)\n"
      "comparators; std::sort wins at scale (O(w lg w) adaptive), the\n"
      "schedules win on predictability and parallel depth.",
      opts);
  bench::note_co_scheduled(1, opts);
  return cnet::bench::finish(opts);
}
