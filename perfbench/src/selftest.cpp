// Self-tests of the benchmark's own machinery, run by `perfbench --selftest`
// (and by run.py before every measurement): sampler aliasing, the
// percentile tail rule, span self-time arithmetic, the result line's shape,
// metric/workload names, and seed determinism of the pre-generated inputs.
#include <cstdio>
#include <regex>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("selftest %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
  failures += ok ? 0 : 1;
}

std::uint64_t p50_at(const std::vector<std::uint64_t>& cost,
                     const std::vector<std::uint64_t>& indices) {
  std::vector<std::uint64_t> picked;
  for (const std::uint64_t i : indices) picked.push_back(cost[i]);
  std::sort(picked.begin(), picked.end());
  return percentile(picked, 50).value_or(0);
}

// An op that is slow on every `period`-th call, like an ID-cache refill:
// the sampler's p50 must be the fast path's, as timing every call shows.
void test_aliasing_model() {
  constexpr std::uint64_t kN = std::uint64_t{1} << 20;
  const std::vector<std::uint32_t> gaps = sample_gaps(1, 0);
  for (const std::uint64_t period : {16, 64}) {
    std::vector<std::uint64_t> cost(kN);
    for (std::uint64_t i = 0; i < kN; ++i) {
      cost[i] = i % period == 0 ? 1000 : 100;  // refill on an empty cache
    }
    std::vector<std::uint64_t> every(kN);
    for (std::uint64_t i = 0; i < kN; ++i) every[i] = i;
    const std::uint64_t truth = p50_at(cost, every);
    const auto sampled = sampled_indices(gaps, kN);
    std::uint64_t slow = 0;
    for (const std::uint64_t i : sampled) slow += cost[i] == 1000 ? 1 : 0;
    const double slow_share =
        static_cast<double>(slow) / static_cast<double>(sampled.size());
    const double expected = 1.0 / static_cast<double>(period);
    expect(p50_at(cost, sampled) == truth &&
               slow_share > 0.7 * expected && slow_share < 1.3 * expected,
           "seeded gaps see a slow call every " + std::to_string(period) +
               " at its true share, p50 = every-call p50");
    expect(p50_at(cost, sampled_indices({64}, kN)) == 1000,
           "a fixed stride of 64 aliases with period " +
               std::to_string(period) + " (the check can fail)");
  }
}

// The same property with real timing through caller_loop: a spin op that
// is 30x slower on every 16th call.
void test_aliasing_timed() {
  constexpr std::uint64_t kCalls = 64 * 2000;
  auto measure = [&](const std::vector<std::uint32_t>& gaps) {
    std::atomic<int> state{kMeasure};
    Progress progress;
    CallerResult out;
    out.samples.reserve(kCalls);
    std::uint64_t calls = 0;
    auto op = [&] {
      const std::uint64_t spin = calls++ % 16 == 0 ? 6000 : 200;
      const std::uint64_t start = ticks();
      while (ticks() - start < spin) {
      }
      if (calls == kCalls) state.store(kStop, std::memory_order_relaxed);
      return true;
    };
    caller_loop(op, gaps, state, progress, out);
    std::vector<std::uint64_t> s(out.samples.begin(), out.samples.end());
    std::sort(s.begin(), s.end());
    return static_cast<double>(percentile(s, 50).value_or(0));
  };
  const double every = measure({1});
  const double sampled = measure(sample_gaps(3, 1));
  const double strided = measure({64});
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "timed p50 ticks: every call %.0f, sampler %.0f, stride-64 %.0f",
                every, sampled, strided);
  expect(every > 0 && sampled < 1.5 * every && sampled > every / 1.5, buf);
  expect(strided > 5 * every, "timed stride-64 sampling lands on the slow call");
}

void test_percentile_tail_rule() {
  auto ramp = [](std::size_t n) {
    std::vector<std::uint64_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = i + 1;
    return v;
  };
  expect(percentile(ramp(1000), 99) == std::optional<std::uint64_t>(990),
         "p99 of 1000 samples is reported (10 lie beyond it)");
  expect(!percentile(ramp(999), 99).has_value(),
         "p99 of 999 samples is refused (9 lie beyond it)");
  expect(percentile(ramp(20), 50) == std::optional<std::uint64_t>(10) &&
             !percentile(ramp(19), 50).has_value(),
         "p50 needs 10 samples beyond it too");
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 3.0, 2.0}) == 2.5,
         "median of odd and even counts");
}

void test_self_time() {
  auto self = [](Interval parent, std::vector<Interval> children) {
    return self_ticks(parent, children.data(), children.size());
  };
  expect(self({0, 100}, {}) == 100, "a span with no children is all self");
  expect(self({0, 100}, {{10, 20}, {15, 30}, {90, 120}}) == 70,
         "overlapping children count once and are clipped to the parent");
  expect(self({0, 100}, {{0, 100}, {20, 40}}) == 0,
         "a child covering the parent leaves no self time");
  expect(self({50, 60}, {{0, 10}, {70, 80}}) == 10,
         "children outside the parent take nothing");
  Tracer t(16);
  for (int r = 0; r < 4; ++r) {
    t.begin();
    t.call(SpanName::kConsume, [] { return 0; });
    t.call(SpanName::kAllocate, [] { return 0; });
    t.end();
  }
  expect(t.count(SpanName::kRequest) == 4 && t.count(SpanName::kConsume) == 4 &&
             t.mean_self_ticks(SpanName::kRequest) <=
                 t.mean_ticks(SpanName::kRequest) &&
             t.kept().size() == 12 && t.kept()[1].parent == 0,
         "tracer folds requests and keeps parent links");
}

void test_result_shape() {
  const std::string got =
      result_json(true, 5, 1, {{"lat_p50_ns", 1.25, "ns"}, {"x.y", 3, "1/op"}});
  expect(got ==
             "{\"correct\": true, \"attempted\": 5, \"failed\": 1, "
             "\"metrics\": {\"lat_p50_ns\": {\"value\": 1.25, \"unit\": "
             "\"ns\"}, \"x.y\": {\"value\": 3, \"unit\": \"1/op\"}}}",
         "result line has exactly correct/attempted/failed/metrics");
  expect(format_number(0.1 + 0.2) == "0.30000000000000004",
         "numbers keep all their digits");
  expect(result_json(false, 1, 0, {{"m", 0.0 / 0.0, "s"}}).find("null") !=
             std::string::npos,
         "a non-finite value is emitted as null, which the shape check rejects");
}

void test_names() {
  const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
  bool ok = true;
  std::vector<std::string> seen;
  auto check = [&](const std::string& n) {
    ok = ok && std::regex_match(n, name) &&
         std::find(seen.begin(), seen.end(), n) == seen.end();
    seen.push_back(n);
  };
  for (const auto& w : workload_names()) check(w);
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& m : *defs) {
      check(m.name);
      ok = ok && std::regex_match(m.unit, unit);
    }
  }
  expect(ok, "workload and metric names use [A-Za-z0-9_.-], once each");
}

void test_seed_determinism() {
  for (const auto& w : workload_names()) {
    const OpArrays a = generate_ops(w, 42);
    const OpArrays b = generate_ops(w, 42);
    const OpArrays c = generate_ops(w, 43);
    expect(a.size() == kCallers && a[0].size() == kOpsPerCaller && a == b &&
               a != c,
           w + ": the same seed gives the same op arrays, another seed not");
  }
  expect(sample_gaps(42, 0) == sample_gaps(42, 0) &&
             sample_gaps(42, 0) != sample_gaps(42, 1) &&
             sample_gaps(42, 0) != sample_gaps(43, 0),
         "sampler gaps are per seed and per caller");

  const OpArrays mixed = generate_ops("pool_mixed", 7);
  bool balanced = true;
  for (const auto& ops : mixed) {
    std::size_t refills = 0;
    for (const OpCode& op : ops) refills += op.target == 1 ? 1 : 0;
    balanced = balanced && refills == ops.size() / 2;
  }
  expect(balanced, "pool_mixed cycles are exactly half refills");

  std::vector<std::size_t> hits(64, 0);
  for (const auto& ops : generate_ops("tenant_quota", 7)) {
    for (const OpCode& op : ops) ++hits.at(op.target);
  }
  expect(hits[0] > hits[1] && hits[1] > hits[7] && hits[7] > hits[63] &&
             hits[63] > 0,
         "tenant_quota picks tenants with a Zipf skew");
  bool owned = true;
  const OpArrays cluster = generate_ops("cluster_leases", 7);
  for (std::size_t c = 0; c < cluster.size(); ++c) {
    for (const OpCode& op : cluster[c]) {
      owned = owned && op.target / 2 == c && op.cost >= 1 && op.cost <= 4;
    }
  }
  expect(owned, "cluster_leases callers stay on their own two nodes");
}

}  // namespace

int run_selftests() {
  test_aliasing_model();
  test_aliasing_timed();
  test_percentile_tail_rule();
  test_self_time();
  test_result_shape();
  test_names();
  test_seed_determinism();
  std::printf("selftest %s (%d failed)\n", failures == 0 ? "passed" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
