// The four closed-loop workloads over the public svc/dist API. Each one
// pre-generates its callers' op sequences from the seed, builds its stack
// at its real size, and checks the stack's invariants after the run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

inline constexpr std::size_t kCallers = 3;
// Op sequences are cycled: 2^16 ops per caller is far longer than any
// library period (16, 64) and small enough to stay cache-resident.
inline constexpr std::size_t kOpsPerCaller = std::size_t{1} << 16;

// Layer counters read through public accessors; deltas over a traced phase
// become the per-layer metrics. Fields a workload's stack lacks stay 0.
struct LayerCounts {
  std::uint64_t pool_stalls = 0;
  std::uint64_t pool_traversals = 0;
  std::uint64_t pool_batch_passes = 0;
  std::uint64_t bucket_attempts = 0;
  std::uint64_t bucket_rejects = 0;
  std::uint64_t id_stalls = 0;
  std::uint64_t elim_pairs = 0;
  std::uint64_t elim_withdrawals = 0;
  std::uint64_t elim_backend_traversals = 0;
  std::uint64_t quota_stalls = 0;
  std::uint64_t quota_grants = 0;
  std::uint64_t quota_borrowing_grants = 0;
  std::uint64_t quota_parent_tokens = 0;
  std::uint64_t renewals = 0;
  std::uint64_t renewal_tokens = 0;
  std::uint64_t donated_tokens = 0;
  std::uint64_t expiry_refunded = 0;

  LayerCounts operator-(const LayerCounts& o) const;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Constructs the stack at its real size, initial token fill included
  // (this is what setup_s times), replacing any previous one.
  virtual void build() = 0;
  virtual void destroy() = 0;

  // One top-level call by `caller`; false when it was refused.
  virtual bool op(std::size_t caller) = 0;
  // The same call with its public parts issued and bracketed directly.
  virtual bool traced_op(std::size_t caller, Tracer& t) = 0;
  // The ladder rung: the same op mix sent straight to the pool counter.
  virtual bool has_rung() const { return false; }
  virtual bool rung_op(std::size_t /*caller*/, Tracer& /*t*/) { return false; }

  virtual LayerCounts counts() const = 0;
  // Invariant checks; run once, after every phase has joined.
  virtual std::vector<Check> verify() = 0;
};

// The metrics a run reports, in output order: end-to-end ones untraced,
// per-layer ones traced. BENCHMARK.json lists the same names and units.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

const std::vector<std::string>& workload_names();
// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// One pre-generated op. `target` is the tenant or node for the quota and
// cluster workloads, consume (0) or refill (1) for pool_mixed, and for
// admit_front whether the traced run calls admit (0) or its parts (1).
struct OpCode {
  std::uint8_t target = 0;
  std::uint8_t cost = 1;
  bool operator==(const OpCode&) const = default;
};
using OpArrays = std::vector<std::vector<OpCode>>;  // one per caller

// The inputs a workload runs for `seed` (exposed for the determinism
// self-test); empty for an unknown name.
OpArrays generate_ops(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
