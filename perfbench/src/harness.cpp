#include "harness.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Rng stream(std::uint64_t seed, std::size_t caller, std::uint64_t purpose) {
  Rng mix(seed);
  const std::uint64_t a = mix.next();
  return Rng(a ^ (0x632be59bd9b4e019ULL * (caller + 1)) ^
             (0x85157af5ULL * (purpose + 1) << 17));
}

std::vector<std::uint32_t> sample_gaps(std::uint64_t seed,
                                       std::size_t caller) {
  Rng rng = stream(seed, caller, 0x5a);
  std::vector<std::uint32_t> gaps(kGapCount);
  for (auto& g : gaps) {
    g = kGapMin + static_cast<std::uint32_t>(rng.below(kGapMax - kGapMin + 1));
  }
  return gaps;
}

std::vector<std::uint64_t> sampled_indices(
    const std::vector<std::uint32_t>& gaps, std::uint64_t n) {
  std::vector<std::uint64_t> out;
  std::size_t g = 1;
  for (std::uint64_t i = gaps[0]; i < n; i += gaps[g++ % gaps.size()]) {
    out.push_back(i);
  }
  return out;
}

std::optional<std::uint64_t> percentile(
    const std::vector<std::uint64_t>& sorted, unsigned pct) {
  const std::size_t n = sorted.size();
  if (n == 0 || pct == 0 || pct > 100) return std::nullopt;
  const std::size_t rank = (pct * n + 99) / 100;  // 1-based nearest rank
  if (n - rank < kTailSamples) return std::nullopt;
  return sorted[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

std::uint64_t self_ticks(Interval parent, Interval* children, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    Interval& c = children[i];
    c.start = std::clamp(c.start, parent.start, parent.end);
    c.end = std::clamp(c.end, parent.start, parent.end);
  }
  std::sort(children, children + n, [](const Interval& a, const Interval& b) {
    return a.start < b.start;
  });
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.start;
  for (std::size_t i = 0; i < n; ++i) {
    const Interval& c = children[i];
    const std::uint64_t from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return (parent.end - parent.start) - covered;
}

const char* span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kAdmit: return "svc.admission.admit";
    case SpanName::kConsume: return "svc.bucket.consume";
    case SpanName::kRefill: return "svc.bucket.refill";
    case SpanName::kAllocate: return "svc.ids.allocate";
    case SpanName::kPoolConsume: return "runtime.pool.try_fetch_decrement";
    case SpanName::kPoolRefill: return "runtime.pool.fetch_increment_batch";
    case SpanName::kAcquire: return "svc.quota.acquire";
    case SpanName::kRelease: return "svc.quota.release";
    case SpanName::kRefillParent: return "svc.quota.refill_parent";
    case SpanName::kDistAdmit: return "dist.admit";
    case SpanName::kRenew: return "dist.renew";
    case SpanName::kAdvance: return "dist.advance";
    case SpanName::kCount: break;
  }
  return "?";
}

void Tracer::end() {
  const Interval request{request_start_, ticks()};
  std::array<Interval, kMaxChildren> spans;
  for (std::size_t i = 0; i < n_children_; ++i) {
    const Child& c = children_[i];
    const auto k = static_cast<std::size_t>(c.name);
    const std::uint64_t d = c.span.end - c.span.start;
    ++count_[k];
    total_[k] += d;
    self_[k] += d;  // leaf spans: the benchmark issues no nested calls
    spans[i] = c.span;
  }
  const auto root = static_cast<std::size_t>(SpanName::kRequest);
  ++count_[root];
  total_[root] += request.end - request.start;
  self_[root] += self_ticks(request, spans.data(), n_children_);
  if (kept_.size() + n_children_ + 1 <= keep_) {
    kept_.push_back({requests_, SpanName::kRequest, -1, request});
    for (std::size_t i = 0; i < n_children_; ++i) {
      kept_.push_back({requests_, children_[i].name, 0, children_[i].span});
    }
  }
  ++requests_;
}

double Tracer::mean_ticks(SpanName name) const noexcept {
  const auto k = static_cast<std::size_t>(name);
  return count_[k] == 0 ? 0.0
                        : static_cast<double>(total_[k]) /
                              static_cast<double>(count_[k]);
}

double Tracer::mean_self_ticks(SpanName name) const noexcept {
  const auto k = static_cast<std::size_t>(name);
  return count_[k] == 0 ? 0.0
                        : static_cast<double>(self_[k]) /
                              static_cast<double>(count_[k]);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

std::optional<Placement> place(std::size_t callers) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < callers + 1) return std::nullopt;
  Placement pl;
  pl.allowed = cpus;
  pl.coordinator = cpus[0];
  pl.callers.assign(cpus.begin() + 1,
                    cpus.begin() + 1 + static_cast<std::ptrdiff_t>(callers));
  return pl;
}

bool pin_current_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

long involuntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nivcsw;
}

std::vector<std::uint64_t> PhaseResult::sorted_samples() const {
  std::vector<std::uint64_t> all;
  for (const auto& c : callers) all.insert(all.end(), c.samples.begin(), c.samples.end());
  std::sort(all.begin(), all.end());
  return all;
}

void print_placement(const char* phase, const PhaseResult& r) {
  std::vector<int> seen;
  bool co_scheduled = false;
  for (std::size_t c = 0; c < r.callers.size(); ++c) {
    const CallerResult& cr = r.callers[c];
    std::printf(
        "placement phase=%s caller=%zu pinned=%d cpu_start=%d cpu_end=%d "
        "involuntary_switches=%ld ops=%llu\n",
        phase, c, cr.cpu, cr.cpu_start, cr.cpu_end, cr.involuntary_switches,
        static_cast<unsigned long long>(cr.ops));
    co_scheduled = co_scheduled || cr.cpu_start != cr.cpu ||
                   cr.cpu_end != cr.cpu ||
                   std::find(seen.begin(), seen.end(), cr.cpu) != seen.end();
    seen.push_back(cr.cpu);
  }
  if (co_scheduled) {
    std::printf("placement phase=%s WARNING: callers were co-scheduled or "
                "left their pinned CPUs; this run's figures are suspect\n",
                phase);
  }
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";  // fails the result-line check
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i == 0 ? "" : ", ") << '"' << json_escape(m.name)
       << "\": {\"value\": " << format_number(m.value) << ", \"unit\": \""
       << json_escape(m.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string host_json(const Placement& pl) {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"allowed_cpus\": " << pl.allowed.size()
     << ", \"cpu_model\": \"" << json_escape(cpu_model())
     << "\", \"compiler\": \"" << json_escape(
#if defined(__clang__)
                                      std::string("clang ") + __clang_version__
#elif defined(__GNUC__)
                                      std::string("gcc ") + __VERSION__
#else
                                      std::string("unknown")
#endif
                                      )
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"coordinator_cpu\": " << pl.coordinator
     << ", \"caller_cpus\": [";
  for (std::size_t i = 0; i < pl.callers.size(); ++i) {
    os << (i == 0 ? "" : ", ") << pl.callers[i];
  }
  os << "]}";
  return os.str();
}

double heap_mib() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

}  // namespace perfbench
