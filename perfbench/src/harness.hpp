// Measurement machinery shared by every workload and independent of the
// library under test: the tick clock, the seeded generator, the latency
// sampler, percentiles, spans, caller placement and the closed-loop phase
// runner.
#pragma once

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

// ------------------------------------------------------------------ clock
// Raw TSC ticks (invariant on the x86-64 hosts this runs on): cheap enough
// to bracket every traced call. Each phase converts ticks to ns with a ratio
// it measures against steady_clock over its own span, so reported times
// carry their measured digits instead of an integer-ns grid.
inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

double seconds_since(std::chrono::steady_clock::time_point start);

// -------------------------------------------------------------- generator
// splitmix64: tiny, seedable, and identical on every platform, so one seed
// names one input set. Used only before timing starts.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// An independent stream per (seed, caller, purpose), so adding a caller or
// an input array never shifts another array's values.
Rng stream(std::uint64_t seed, std::size_t caller, std::uint64_t purpose);

// ---------------------------------------------------------------- sampler
// Latency is sampled at seeded pseudo-random gaps drawn uniformly from
// [kGapMin, kGapMax] (mean 64). A fixed stride aliases with the library's
// own periods: a stride of 64 always lands on the ID allocator's batch
// claim (every 16th allocate) and on the front end's bucket refill (every
// 64th admit), reporting the slow call as the median.
inline constexpr std::uint32_t kGapMin = 33;
inline constexpr std::uint32_t kGapMax = 95;
inline constexpr std::size_t kGapCount = 4096;

std::vector<std::uint32_t> sample_gaps(std::uint64_t seed, std::size_t caller);

// Op indices a sampler with these gaps times among the first n ops (the
// same walk caller_loop makes).
std::vector<std::uint64_t> sampled_indices(
    const std::vector<std::uint32_t>& gaps, std::uint64_t n);

// ------------------------------------------------------------ percentiles
// Nearest-rank percentile of sorted samples, or nullopt unless at least
// kTailSamples samples lie beyond it: a percentile resting on a handful of
// values is noise, not a tail.
inline constexpr std::size_t kTailSamples = 10;
std::optional<std::uint64_t> percentile(
    const std::vector<std::uint64_t>& sorted, unsigned pct);

double median(std::vector<double> values);

// ------------------------------------------------------------------ spans
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

// The part of `parent` that no child covers: children are clipped to the
// parent and overlaps between them are counted once. Reorders children.
std::uint64_t self_ticks(Interval parent, Interval* children, std::size_t n);

// Every public call the traced runs bracket, plus the request around them.
enum class SpanName : std::uint8_t {
  kRequest,
  kAdmit,         // AdmissionController::admit
  kConsume,       // NetTokenBucket::consume
  kRefill,        // NetTokenBucket::refill
  kAllocate,      // ShardedIdAllocator::allocate
  kPoolConsume,   // rt::Counter::try_fetch_decrement (ladder rung)
  kPoolRefill,    // rt::Counter::fetch_increment_batch (ladder rung)
  kAcquire,       // QuotaHierarchy::acquire
  kRelease,       // QuotaHierarchy::release
  kRefillParent,  // QuotaHierarchy::refill_parent
  kDistAdmit,     // PeerCluster::admit
  kRenew,         // PeerCluster::renew
  kAdvance,       // PeerCluster::advance
  kCount,
};
inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kCount);
const char* span_name(SpanName name) noexcept;

// One caller's tracer: spans go into a fixed per-request scratch array and
// are folded into per-name totals when the request closes, so a traced
// phase of any length runs in bounded memory. The first `keep` spans are
// also kept verbatim for the span file written at exit.
class Tracer {
 public:
  struct Record {
    std::uint64_t request = 0;
    SpanName name = SpanName::kRequest;
    std::int32_t parent = -1;  // index within the request; -1 = root
    Interval span;
  };

  explicit Tracer(std::size_t keep) : keep_(keep) { kept_.reserve(keep); }

  void begin() noexcept {
    n_children_ = 0;
    request_start_ = ticks();
  }
  template <class F>
  auto call(SpanName name, F&& f) {
    const std::uint64_t start = ticks();
    auto result = f();
    const std::uint64_t end = ticks();
    if (n_children_ < children_.size()) {
      children_[n_children_++] = {name, {start, end}};
    }
    return result;
  }
  void end();

  std::uint64_t count(SpanName name) const noexcept {
    return count_[static_cast<std::size_t>(name)];
  }
  // Mean span duration in ticks (0 when the name never occurred).
  double mean_ticks(SpanName name) const noexcept;
  // Mean self time in ticks: duration minus what child spans cover.
  double mean_self_ticks(SpanName name) const noexcept;
  const std::vector<Record>& kept() const noexcept { return kept_; }

 private:
  struct Child {
    SpanName name;
    Interval span;
  };
  std::uint64_t request_start_ = 0;
  std::uint64_t requests_ = 0;
  static constexpr std::size_t kMaxChildren = 8;
  std::array<Child, kMaxChildren> children_{};
  std::size_t n_children_ = 0;
  std::array<std::uint64_t, kSpanNames> count_{};
  std::array<std::uint64_t, kSpanNames> total_{};
  std::array<std::uint64_t, kSpanNames> self_{};
  std::size_t keep_;
  std::vector<Record> kept_;
};

// -------------------------------------------------------------- placement
// Callers are pinned one per CPU from the process's affinity mask; the
// first CPU of the mask is left to the coordinator and the OS.
struct Placement {
  std::vector<int> allowed;  // the process's mask before any pinning
  int coordinator = -1;
  std::vector<int> callers;
};
std::vector<int> allowed_cpus();
// Fails (returns nullopt) when the mask has fewer than callers + 1 CPUs.
std::optional<Placement> place(std::size_t callers);
bool pin_current_thread(int cpu);
long involuntary_switches();  // of the calling thread

// ----------------------------------------------------- closed-loop phases
enum PhaseState : int { kIdle = 0, kWarmup = 1, kMeasure = 2, kStop = 3 };

struct alignas(64) Progress {
  std::atomic<std::uint64_t> ops{0};
};

struct CallerResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint32_t> samples;  // ticks, measured phase only
  int cpu = -1;
  int cpu_start = -1;
  int cpu_end = -1;
  long involuntary_switches = 0;
  std::string error;
};

// One caller's closed loop: call op() back to back until the coordinator
// says stop, timing the calls at the sampler's gaps while measuring.
template <class Op>
void caller_loop(Op& op, const std::vector<std::uint32_t>& gaps,
                 const std::atomic<int>& state, Progress& progress,
                 CallerResult& out) {
  std::uint64_t i = 0;
  std::uint64_t failed = 0;
  std::uint64_t next_sample = gaps[0];
  std::size_t g = 1;
  for (int s; (s = state.load(std::memory_order_relaxed)) != kStop; ++i) {
    bool ok;
    if (i == next_sample) {
      const std::uint64_t t0 = ticks();
      ok = op();
      const std::uint64_t t1 = ticks();
      if (s == kMeasure && out.samples.size() < out.samples.capacity()) {
        out.samples.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(t1 - t0, UINT32_MAX)));
      }
      next_sample += gaps[g++ % gaps.size()];
    } else {
      ok = op();
    }
    failed += ok ? 0 : 1;
    progress.ops.store(i + 1, std::memory_order_relaxed);
  }
  out.ops = i;
  out.failed = failed;
}

struct PhaseResult {
  std::vector<CallerResult> callers;
  std::vector<double> window_rates;  // top-level calls per second
  double ns_per_tick = 1.0;
  std::uint64_t ops = 0;     // every call, warm-up included
  std::uint64_t failed = 0;  // refused calls, warm-up included

  double ops_per_s() const { return median(window_rates); }
  std::vector<std::uint64_t> sorted_samples() const;
};

struct PhasePlan {
  double warmup_s = 0.5;
  double measure_s = 1.0;
  std::size_t windows = 10;
  std::size_t sample_capacity = std::size_t{1} << 20;
};

// Runs one closed-loop phase with one pinned thread per placement caller.
// make_op(c) is called on caller c's thread and returns its bool() op.
// Throughput is the median over equal windows of the measured span.
template <class MakeOp>
PhaseResult run_phase(const Placement& pl,
                      const std::vector<std::vector<std::uint32_t>>& gaps,
                      const PhasePlan& plan, MakeOp&& make_op);

void print_placement(const char* phase, const PhaseResult& r);

// -------------------------------------------------------------- reporting
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
std::string format_number(double v);
std::string json_escape(const std::string& s);
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);
std::string host_json(const Placement& pl);
// Bytes the allocator has handed out and not taken back, in MiB. Exact and
// layout-independent, unlike resident pages, which move with where the
// randomized heap start falls relative to page boundaries.
double heap_mib();

template <class MakeOp>
PhaseResult run_phase(const Placement& pl,
                      const std::vector<std::vector<std::uint32_t>>& gaps,
                      const PhasePlan& plan, MakeOp&& make_op) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = pl.callers.size();
  PhaseResult r;
  r.callers.resize(n);
  std::vector<Progress> progress(n);
  std::atomic<int> state{kIdle};
  std::atomic<std::size_t> ready{0};

  auto body = [&](std::size_t c) {
    CallerResult& out = r.callers[c];
    try {
      out.cpu = pl.callers[c];
      if (!pin_current_thread(out.cpu)) out.error = "pinning failed";
      out.cpu_start = sched_getcpu();
      out.samples.reserve(plan.sample_capacity);
      auto op = make_op(c);
      const long switches_before = involuntary_switches();
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (state.load(std::memory_order_acquire) == kIdle) {
      }
      caller_loop(op, gaps[c], state, progress[c], out);
      out.involuntary_switches = involuntary_switches() - switches_before;
      out.cpu_end = sched_getcpu();
    } catch (const std::exception& e) {
      out.error = e.what();
      ready.fetch_add(1, std::memory_order_acq_rel);
    }
  };

  std::vector<std::thread> threads;
  // Stops and joins the callers on every exit path, exceptions included.
  struct Joiner {
    std::vector<std::thread>& threads;
    std::atomic<int>& state;
    ~Joiner() {
      state.store(kStop, std::memory_order_release);
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{threads, state};
  threads.reserve(n);
  for (std::size_t c = 0; c < n; ++c) threads.emplace_back(body, c);
  while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();

  auto total_ops = [&] {
    std::uint64_t sum = 0;
    for (const auto& p : progress) sum += p.ops.load(std::memory_order_relaxed);
    return sum;
  };
  state.store(kWarmup, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(plan.warmup_s));

  const Clock::time_point start = Clock::now();
  const std::uint64_t tick_start = ticks();
  state.store(kMeasure, std::memory_order_release);
  std::uint64_t ops_before = total_ops();
  Clock::time_point window_start = start;
  const double window_s = plan.measure_s / static_cast<double>(plan.windows);
  for (std::size_t w = 1; w <= plan.windows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(window_s * w)));
    const Clock::time_point now = Clock::now();
    const std::uint64_t ops_now = total_ops();
    r.window_rates.push_back(
        static_cast<double>(ops_now - ops_before) /
        std::chrono::duration<double>(now - window_start).count());
    ops_before = ops_now;
    window_start = now;
  }
  const std::uint64_t tick_end = ticks();
  const double elapsed_ns = seconds_since(start) * 1e9;
  state.store(kStop, std::memory_order_release);
  for (auto& t : threads) t.join();

  r.ns_per_tick = elapsed_ns / static_cast<double>(tick_end - tick_start);
  for (const auto& c : r.callers) {
    r.ops += c.ops;
    r.failed += c.failed;
  }
  return r;
}

}  // namespace perfbench
