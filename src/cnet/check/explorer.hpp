// cnet::check — systematic concurrency testing for the real protocol code.
//
// The simulator's sim/model_check.{hpp,cpp} already runs the paper's
// adversary scheduler exhaustively, but only against the *model* of the
// core network. This explorer runs the adversary against the shipped
// implementations: real threads executing real EliminationLayer /
// ReconfigEngine / QuotaHierarchy / dist-ledger code, serialized through
// the util::SchedPoint seam (CNET_SCHED_CHECK) so that exactly one thread
// runs at a time and every synchronization operation is one schedulable
// step. The explorer then enumerates interleavings by depth-first search:
//
//   - default schedule: keep running the current thread until it blocks,
//     finishes, or yields (forced switches are free);
//   - branching: at every step, switching away from a still-runnable
//     thread costs one *preemption*; schedules with more than
//     Options::preemption_bound preemptions are not explored (CHESS-style
//     iterative context bounding — most real bugs need very few);
//   - pruning: sleep sets (Godefroid) skip schedules that only reorder
//     independent operations — two ops are dependent only if they touch
//     the same atomic word with at least one write, or the same mutex;
//   - invariants: the driver body runs to completion on every explored
//     schedule and asserts its protocol invariants (token conservation,
//     exactly-once settlement, ...) with CNET_ENSURE/CNET_REQUIRE — any
//     exception is a caught failure;
//   - replay: every failure carries a compact schedule string; feeding it
//     back via Explorer::replay() (or a driver's --replay flag)
//     re-executes that exact interleaving bit-identically.
//
// Exploration requires a CNET_SCHED_CHECK build (Explorer::explore throws
// otherwise); the schedule codec below is build-independent and unit
// tested in the normal suite.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cnet::check {

// One recorded scheduling switch: at global step `step`, thread `thread`
// was activated (all steps between switches continue the same thread).
// Every switch is recorded — forced and preemptive alike — so a schedule
// string alone determines the whole interleaving with no replayer policy.
struct ScheduleSwitch {
  std::uint64_t step = 0;
  std::uint32_t thread = 0;
};

// "cnet-sched-v1;3@1,9@0,..." — the compact failure/replay format.
std::string encode_schedule(const std::vector<ScheduleSwitch>& switches);
// Inverse of encode_schedule; throws std::invalid_argument on malformed
// input (bad prefix, non-numeric fields, unsorted steps).
std::vector<ScheduleSwitch> parse_schedule(const std::string& text);

struct Options {
  // Maximum preemptive (non-forced) context switches per explored
  // schedule. 2 reaches most real concurrency bugs; raise it for tiny
  // state spaces to approach exhaustiveness.
  std::size_t preemption_bound = 2;
  // Stop exploring after this many executions (stats still reported).
  std::uint64_t max_executions = 1'000'000;
  // Soft per-execution step cap: past it the execution stops branching
  // and free-runs to completion (keeps pathological schedules cheap).
  std::uint64_t max_steps = 20'000;
  // Hard per-execution step cap: past it the execution is failed as a
  // suspected livelock (and past 4x, the process aborts — a thread
  // spinning inside noexcept code cannot be unwound safely).
  std::uint64_t hard_step_limit = 200'000;
};

struct Result {
  bool failed = false;
  std::string message;        // first failure, verbatim
  std::string schedule;       // replay string of the failing execution
  std::uint64_t failure_step = 0;  // global step at which the failure threw
  std::uint64_t executions = 0;    // maximal executions run (incl. pruned)
  std::uint64_t pruned = 0;        // executions cut short by sleep sets
  std::uint64_t steps = 0;         // total scheduled steps, all executions
  std::uint64_t max_execution_steps = 0;  // longest single execution
};

// Handed to the driver body: spawn controlled threads, then join them all
// before asserting end-state invariants. join_all() is a scheduling point
// (enabled once every other controlled thread finished); two threads
// calling it concurrently deadlock by construction — call it from the
// body thread only.
class TestContext {
 public:
  virtual ~TestContext() = default;
  virtual void spawn(std::function<void()> fn) = 0;
  virtual void join_all() = 0;
};

// The driver body: runs once per explored schedule on controlled thread 0,
// constructs the protocol objects fresh (determinism across executions),
// spawns the racing threads, joins, and asserts invariants by throwing.
using Body = std::function<void(TestContext&)>;

class Explorer {
 public:
  explicit Explorer(const Options& opts = {});

  // Explores bounded-preemption schedules of `body` until a failure, the
  // execution cap, or exhaustion of the (pruned) schedule space.
  Result explore(const Body& body);

  // Re-executes exactly the interleaving `schedule` encodes (no branching,
  // so nothing to prune). A failure reproduces with the same message at the
  // same step as the exploration that produced the string.
  Result replay(const std::string& schedule, const Body& body);

 private:
  Options opts_;
};

}  // namespace cnet::check
