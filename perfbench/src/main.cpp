// perfbench: the repository benchmark program. One run builds one workload's
// stack, measures it with 3 pinned closed-loop callers, checks the stack's
// invariants, and prints one JSON result as its last line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//   perfbench --selftest | --list
//
// --trace 0 reports the end-to-end metrics. --trace 1 splits the time into
// an untraced phase, a traced phase (spans around each public call) and, on
// the bucket workloads, a ladder rung straight on the pool counter, and
// reports the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
int run_selftests();  // selftest.cpp
}

namespace {

using namespace perfbench;

// Set-ups per run; setup_s is their median (a single set-up of a few ms
// varies by tens of percent between runs).
constexpr int kSetups = 21;
constexpr double kWarmupS = 0.5;
constexpr std::size_t kWindows = 10;
constexpr std::size_t kKeptSpans = std::size_t{1} << 13;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  bool selftest = false;
  bool list = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (flag == "--list") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] - '0';
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return a.selftest || a.list || !a.workload.empty();
}

std::vector<std::vector<std::uint32_t>> all_gaps(std::uint64_t seed) {
  std::vector<std::vector<std::uint32_t>> gaps;
  for (std::size_t c = 0; c < kCallers; ++c) gaps.push_back(sample_gaps(seed, c));
  return gaps;
}

bool caller_errors(const PhaseResult& r) {
  bool any = false;
  for (std::size_t c = 0; c < r.callers.size(); ++c) {
    if (!r.callers[c].error.empty()) {
      std::fprintf(stderr, "caller %zu: %s\n", c, r.callers[c].error.c_str());
      any = true;
    }
  }
  return any;
}

// What the tracer adds to one span (median over many empty spans). Every
// reported span time is net of it, so a caller minus its parts is not
// skewed by the extra spans the parts carry.
double empty_span_ticks() {
  constexpr std::size_t kSpans = 20001;
  Tracer t(2 * kSpans);
  for (std::size_t i = 0; i < kSpans; ++i) {
    t.begin();
    t.call(SpanName::kConsume, [] { return 0; });
    t.end();
  }
  std::vector<double> d;
  for (const Tracer::Record& r : t.kept()) {
    if (r.parent == 0) d.push_back(static_cast<double>(r.span.end - r.span.start));
  }
  return median(d);
}

// Span-weighted mean over every caller's tracer, net of the span floor, in
// ns; 0 when no caller made the call.
double span_ns(const std::vector<Tracer>& tracers, SpanName name,
               double ns_per_tick, double floor_ticks) {
  double total = 0;
  std::uint64_t count = 0;
  for (const Tracer& t : tracers) {
    total += t.mean_ticks(name) * static_cast<double>(t.count(name));
    count += t.count(name);
  }
  return count == 0 ? 0.0
                    : (total / static_cast<double>(count) - floor_ticks) *
                          ns_per_tick;
}

double ratio(std::uint64_t num, std::uint64_t den, double scale = 1.0) {
  return den == 0 ? 0.0
                  : scale * static_cast<double>(num) / static_cast<double>(den);
}

// A rung minus the rung below it; 0 when either rung is absent.
double rung_self(double upper, double lower) {
  return upper > 0 && lower > 0 ? upper - lower : 0.0;
}

std::vector<Metric> named(const std::vector<MetricDef>& defs,
                          const std::vector<double>& values) {
  std::vector<Metric> out;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    out.push_back({defs[i].name, values[i], defs[i].unit});
  }
  return out;
}

std::vector<Metric> per_layer(const LayerCounts& d, std::uint64_t ops,
                              const std::vector<Tracer>& traced,
                              double traced_tick,
                              const std::vector<Tracer>& rung, double rung_tick,
                              double floor_ticks, double overhead) {
  auto ns = [&](SpanName n) {
    return span_ns(traced, n, traced_tick, floor_ticks);
  };
  const double pool =
      span_ns(rung, SpanName::kPoolConsume, rung_tick, floor_ticks);
  const double consume = ns(SpanName::kConsume);
  const double allocate = ns(SpanName::kAllocate);
  const double admit = ns(SpanName::kAdmit);
  const std::vector<double> values = {
      pool,
      ratio(d.pool_stalls, ops),
      ratio(d.pool_traversals, ops),
      ratio(d.pool_batch_passes, ops),
      consume,
      ns(SpanName::kRefill),
      rung_self(consume, pool),
      ratio(d.bucket_rejects, d.bucket_attempts),
      allocate,
      ratio(d.id_stalls, ops),
      admit,
      admit > 0 && consume > 0 && allocate > 0 ? admit - consume - allocate
                                               : 0.0,
      ratio(2 * d.elim_pairs, ops),
      ratio(d.elim_withdrawals, ops),
      ratio(d.elim_backend_traversals, ops),
      ns(SpanName::kAcquire),
      ns(SpanName::kRelease),
      ratio(d.quota_borrowing_grants, d.quota_grants),
      ratio(d.quota_parent_tokens, ops),
      ratio(d.quota_stalls, ops),
      ns(SpanName::kDistAdmit),
      ns(SpanName::kRenew),
      ns(SpanName::kAdvance),
      ratio(d.renewals, ops, 1000.0),
      ratio(d.donated_tokens, d.renewal_tokens),
      ratio(d.expiry_refunded, ops, 1000.0),
      overhead,
  };
  return named(per_layer_metrics(), values);
}

void write_spans(const char* phase, const std::vector<Tracer>& tracers,
                 double ns_per_tick, std::ofstream& out) {
  std::uint64_t origin = UINT64_MAX;
  for (const Tracer& t : tracers) {
    if (!t.kept().empty()) origin = std::min(origin, t.kept().front().span.start);
  }
  for (std::size_t c = 0; c < tracers.size(); ++c) {
    for (const Tracer::Record& r : tracers[c].kept()) {
      out << phase << '\t' << c << '\t' << r.request << '\t' << r.parent
          << '\t' << span_name(r.name) << '\t'
          << format_number(static_cast<double>(r.span.start - origin) *
                           ns_per_tick)
          << '\t'
          << format_number(static_cast<double>(r.span.end - origin) *
                           ns_per_tick)
          << '\n';
    }
  }
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const std::optional<Placement> pl = place(kCallers);
  if (!pl) {
    std::fprintf(stderr,
                 "refusing to run: %zu callers need %zu CPUs in the affinity "
                 "mask, found %zu\n",
                 kCallers, kCallers + 1, allowed_cpus().size());
    return 2;
  }
  pin_current_thread(pl->coordinator);
  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              format_number(a.seconds).c_str(), a.trace);
  std::printf("host %s\n", host_json(*pl).c_str());

  const auto gaps = all_gaps(a.seed);
  std::vector<double> setups;
  const double heap_before = heap_mib();
  double heap_growth = 0;
  for (int k = 0; k < kSetups; ++k) {
    w->destroy();
    const auto start = std::chrono::steady_clock::now();
    w->build();
    setups.push_back(seconds_since(start));
    if (k == 0) heap_growth = heap_mib() - heap_before;
  }

  auto untraced = [&](std::size_t c) { return [&w, c] { return w->op(c); }; };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool errors = false;
  auto account = [&](const char* phase, const PhaseResult& r) {
    print_placement(phase, r);
    attempted += r.ops;
    failed += r.failed;
    errors = caller_errors(r) || errors;
  };

  if (a.trace == 0) {
    const PhaseResult r =
        run_phase(*pl, gaps, {kWarmupS, a.seconds, kWindows}, untraced);
    account("measure", r);
    const auto samples = r.sorted_samples();
    const auto p50 = percentile(samples, 50);
    const auto p99 = percentile(samples, 99);
    if (!p50 || !p99) {
      std::fprintf(stderr, "only %zu latency samples: too few for a p99\n",
                   samples.size());
      return 3;
    }
    std::printf("latency samples=%zu\nwindow ops/s:", samples.size());
    for (const double rate : r.window_rates) {
      std::printf(" %s", format_number(rate).c_str());
    }
    std::printf("\n");
    metrics = named(end_to_end_metrics(),
                    {r.ops_per_s(), static_cast<double>(*p50) * r.ns_per_tick,
                     static_cast<double>(*p99) * r.ns_per_tick,
                     median(setups), heap_growth});
  } else {
    const double rung_s = w->has_rung() ? 0.3 * a.seconds : 0.0;
    const double untraced_s = 0.4 * (a.seconds - rung_s);
    const double traced_s = a.seconds - rung_s - untraced_s;
    const std::size_t windows = kWindows / 2;
    const PhaseResult plain =
        run_phase(*pl, gaps, {kWarmupS, untraced_s, windows}, untraced);
    account("untraced", plain);

    std::vector<Tracer> traced(kCallers, Tracer(kKeptSpans));
    std::vector<Tracer> rung(w->has_rung() ? kCallers : 0, Tracer(kKeptSpans));
    const LayerCounts before = w->counts();
    const PhaseResult tr = run_phase(
        *pl, gaps, {kWarmupS, traced_s, windows}, [&](std::size_t c) {
          return [&w, &t = traced[c], c] { return w->traced_op(c, t); };
        });
    const LayerCounts delta = w->counts() - before;
    account("traced", tr);

    double rung_tick = 1.0;
    if (w->has_rung()) {
      const PhaseResult rr = run_phase(
          *pl, gaps, {kWarmupS, rung_s, windows}, [&](std::size_t c) {
            return [&w, &t = rung[c], c] { return w->rung_op(c, t); };
          });
      account("rung", rr);
      rung_tick = rr.ns_per_tick;
    }
    const double floor_ticks = empty_span_ticks();
    double self_ticks_sum = 0;
    std::uint64_t requests = 0;
    for (const Tracer& t : traced) {
      self_ticks_sum += t.mean_self_ticks(SpanName::kRequest) *
                        static_cast<double>(t.count(SpanName::kRequest));
      requests += t.count(SpanName::kRequest);
    }
    std::printf("span floor %s ns (subtracted from every span time); "
                "request self time %s ns (the harness around the calls)\n",
                format_number(floor_ticks * tr.ns_per_tick).c_str(),
                format_number(ratio(1, requests) * self_ticks_sum *
                              tr.ns_per_tick)
                    .c_str());
    metrics = per_layer(delta, tr.ops, traced, tr.ns_per_tick, rung, rung_tick,
                        floor_ticks, 1.0 - tr.ops_per_s() / plain.ops_per_s());
    if (!a.trace_out.empty()) {
      std::ofstream out(a.trace_out);
      out << "phase\tcaller\trequest\tparent\tname\tstart_ns\tend_ns\n";
      write_spans("traced", traced, tr.ns_per_tick, out);
      write_spans("rung", rung, rung_tick, out);
      std::printf("spans written to %s\n", a.trace_out.c_str());
    }
  }
  if (errors) return 3;

  bool correct = true;
  for (const Check& c : w->verify()) {
    std::printf("check %s %s: %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
    correct = correct && c.ok;
  }
  std::printf("fail_frac %s (%llu refused of %llu calls)\n",
              format_number(attempted == 0 ? 0.0
                                           : static_cast<double>(failed) /
                                                 static_cast<double>(attempted))
                  .c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const Metric& m : metrics) {
    std::printf("metric %s %s %s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  }
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n"
                 "       perfbench --selftest | --list\n");
    return 2;
  }
  if (a.selftest) return perfbench::run_selftests();
  if (a.list) {
    for (const auto& n : workload_names()) std::printf("workload %s\n", n.c_str());
    for (const auto& m : end_to_end_metrics()) {
      std::printf("end_to_end %s %s\n", m.name, m.unit);
    }
    for (const auto& m : per_layer_metrics()) {
      std::printf("per_layer %s %s\n", m.name, m.unit);
    }
    return 0;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
