#include "cnet/check/explorer.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cnet/util/ensure.hpp"
#include "cnet/util/sched_point.hpp"

// Implementation notes.
//
// Control model: all controlled threads are real std::threads, serialized
// by direct baton handoff. Exactly one thread runs at a time; when it
// reaches a sched point it announces its pending operation, *decides* (as
// the scheduler) which thread performs the next global step, wakes that
// thread if it is not itself, and parks. The woken thread executes its
// announced operation and runs undisturbed to its own next point. There is
// no central controller thread in the loop — continuing the current thread
// costs no context switch at all, which is what keeps executions cheap.
//
// The real std::mutex inside util::Mutex is never locked on controlled
// threads (kernel blocking would wedge the handoff); ownership lives in
// this scheduler's map and lock-waiters are simply not enabled.
//
// Teardown discipline: a failure (driver invariant throw) flips the run
// into free mode — no more tree extension, remaining threads are scheduled
// round-robin until everything finishes, so locks release and the body
// completes. Only a true deadlock (no enabled thread) needs unwinding
// parked threads, and every parked-disabled thread is by construction
// inside a throwing-safe frame (mutex lock / join / yield — atomic points
// are always enabled), so aborting them with an exception is safe.
namespace cnet::check {

namespace {

using util::SchedOp;
using util::SchedOpKind;

constexpr std::uint32_t kNoThread = 0xffffffffu;
constexpr const char* kScheduleTag = "cnet-sched-v1;";

// Internal unwinder for threads that can never be scheduled again
// (deadlock teardown). Deliberately not derived from std::exception so
// driver-level `catch (const std::exception&)` invariant handling cannot
// swallow it.
struct ExecutionAborted {};

// Conservative commutativity: dependent unless provably order-free. The
// sleep-set machinery stays sound as long as this over-approximates.
bool ops_dependent(const SchedOp& a, const SchedOp& b) {
  auto lifecycle = [](SchedOpKind k) {
    return k == SchedOpKind::kThreadStart || k == SchedOpKind::kJoin;
  };
  if (lifecycle(a.kind) || lifecycle(b.kind)) return true;  // rare; be safe
  if (a.kind == SchedOpKind::kYield || b.kind == SchedOpKind::kYield) {
    return false;  // a yield step touches no shared state
  }
  if (a.addr != b.addr) return false;
  // Same operand: two plain loads commute, everything else conflicts
  // (all mutex operations on one mutex order against each other).
  return !(a.kind == SchedOpKind::kAtomicLoad &&
           b.kind == SchedOpKind::kAtomicLoad);
}

struct Node {
  std::uint32_t chosen = 0;
  std::uint32_t running = 0;     // thread that was current at this decision
  bool running_enabled = false;  // preemption-cost basis for alternatives
  std::size_t preempts_before = 0;
  std::vector<std::pair<std::uint32_t, SchedOp>> enabled;
  std::vector<std::pair<std::uint32_t, SchedOp>> sleep_init;
  std::vector<std::pair<std::uint32_t, SchedOp>> explored;
};

struct Tree {
  std::vector<Node> stack;
};

// Picks the next branch to explore: deepest node first, alternatives in
// thread-id order, skipping sleeping/explored threads and alternatives
// whose preemption cost would exceed the bound. Returns false when the
// bounded, pruned schedule space is exhausted.
bool advance_tree(Tree& tree, const Options& opts) {
  while (!tree.stack.empty()) {
    Node& n = tree.stack.back();
    const SchedOp* chosen_op = nullptr;
    for (const auto& [id, op] : n.enabled) {
      if (id == n.chosen) chosen_op = &op;
    }
    CNET_ENSURE(chosen_op != nullptr, "explored branch missing from node");
    n.explored.push_back({n.chosen, *chosen_op});
    auto blocked = [&n](std::uint32_t id) {
      for (const auto& e : n.sleep_init) {
        if (e.first == id) return true;
      }
      for (const auto& e : n.explored) {
        if (e.first == id) return true;
      }
      return false;
    };
    for (const auto& [id, op] : n.enabled) {
      if (blocked(id)) continue;
      const std::size_t cost =
          (id != n.running && n.running_enabled) ? 1 : 0;
      if (n.preempts_before + cost > opts.preemption_bound) continue;
      n.chosen = id;
      return true;
    }
    tree.stack.pop_back();
  }
  return false;
}

enum class Mode { kExplore, kReplay, kFree };

// One maximal execution: scheduler, hook implementation, and test context
// in one object. Fresh per execution — protocol state is rebuilt by the
// driver body, scheduler state here.
class Run final : public util::SchedHooks, public TestContext {
 public:
  Run(const Options& opts, Mode mode, Tree* tree,
      std::vector<ScheduleSwitch> replay)
      : opts_(opts), mode_(mode), tree_(tree), replay_(std::move(replay)) {}

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  void execute(const Body& body) {
    {
      std::unique_lock<std::mutex> l(mu_);
      ThreadRec* r0 = add_thread_locked([this, &body] { body(*this); });
      r0->go = true;
      r0->cv.notify_one();
      main_cv_.wait(l, [this] { return all_done_; });
    }
    for (auto& rec : threads_) {
      if (rec->sys.joinable()) rec->sys.join();
    }
  }

  bool failed() const { return failed_; }
  const std::string& failure_message() const { return fail_msg_; }
  const std::string& failure_schedule() const { return fail_schedule_; }
  std::uint64_t failure_step() const { return fail_step_; }
  std::uint64_t steps() const { return step_; }
  bool pruned() const { return pruned_; }

  // ------------------------------------------------------------ TestContext
  void spawn(std::function<void()> fn) override {
    std::unique_lock<std::mutex> l(mu_);
    add_thread_locked(std::move(fn));
  }

  void join_all() override {
    ThreadRec* rec = self();
    CNET_ENSURE(rec != nullptr, "join_all outside a controlled thread");
    std::unique_lock<std::mutex> l(mu_);
    if (rec->aborting) return;
    arrive_and_wait(l, rec, SchedOp{SchedOpKind::kJoin, nullptr});
  }

  // ------------------------------------------------------------- SchedHooks
  void sched_point(const SchedOp& op) override {
    ThreadRec* rec = self();
    std::unique_lock<std::mutex> l(mu_);
    if (rec->aborting) return;
    arrive_and_wait(l, rec, op);
  }

  void mutex_acquire(const void* mu) override {
    ThreadRec* rec = self();
    std::unique_lock<std::mutex> l(mu_);
    if (!rec->aborting) {
      arrive_and_wait(l, rec, SchedOp{SchedOpKind::kMutexLock, mu});
    }
    mutex_owner_[mu] = rec->id;
  }

  bool mutex_try_acquire(const void* mu) override {
    ThreadRec* rec = self();
    std::unique_lock<std::mutex> l(mu_);
    if (!rec->aborting) {
      arrive_and_wait(l, rec, SchedOp{SchedOpKind::kMutexTryLock, mu});
    }
    if (mutex_owner_.count(mu) != 0) return false;
    mutex_owner_[mu] = rec->id;
    return true;
  }

  void mutex_release(const void* mu) override {
    ThreadRec* rec = self();
    std::unique_lock<std::mutex> l(mu_);
    if (!rec->aborting) {
      arrive_and_wait(l, rec, SchedOp{SchedOpKind::kMutexUnlock, mu});
    }
    auto it = mutex_owner_.find(mu);
    if (it != mutex_owner_.end() && it->second == rec->id) {
      mutex_owner_.erase(it);
    }
  }

  std::uint64_t mutex_created(const void*) override {
    std::unique_lock<std::mutex> l(mu_);
    return next_mutex_id_++;
  }

  void yield() override {
    ThreadRec* rec = self();
    std::unique_lock<std::mutex> l(mu_);
    if (rec->aborting) return;
    rec->arrival_step = step_;
    arrive_and_wait(l, rec, SchedOp{SchedOpKind::kYield, nullptr});
  }

 private:
  enum class St { kFresh, kRunning, kAtPoint, kDone };

  struct ThreadRec {
    std::uint32_t id = 0;
    std::thread sys;
    std::function<void()> fn;
    St st = St::kFresh;
    SchedOp pending{SchedOpKind::kThreadStart, nullptr};
    std::uint64_t arrival_step = 0;  // of the pending kYield
    bool go = false;
    bool abort_on_wake = false;
    bool aborting = false;
    std::condition_variable cv;
  };

  ThreadRec* self() {
    // The per-thread rec: hooks are installed per controlled thread, so
    // the current thread id is recovered from a thread_local set in
    // thread_main.
    return t_self_;
  }

  static thread_local ThreadRec* t_self_;

  ThreadRec* add_thread_locked(std::function<void()> fn) {
    auto rec = std::make_unique<ThreadRec>();
    rec->id = static_cast<std::uint32_t>(threads_.size());
    rec->fn = std::move(fn);
    ThreadRec* raw = rec.get();
    threads_.push_back(std::move(rec));
    raw->sys = std::thread([this, raw] { thread_main(raw); });
    return raw;
  }

  void thread_main(ThreadRec* rec) {
    util::set_sched_hooks(this);
    t_self_ = rec;
    {
      std::unique_lock<std::mutex> l(mu_);
      rec->cv.wait(l, [rec] { return rec->go; });
      rec->go = false;
      rec->st = St::kRunning;
      if (rec->abort_on_wake) rec->aborting = true;
    }
    if (!rec->aborting) {
      try {
        rec->fn();
      } catch (const ExecutionAborted&) {
        // Unwound during deadlock teardown; already accounted for.
      } catch (const std::exception& e) {
        on_failure(e.what());
      } catch (...) {
        on_failure("unknown exception escaped a controlled thread");
      }
    }
    util::set_sched_hooks(nullptr);
    t_self_ = nullptr;
    std::unique_lock<std::mutex> l(mu_);
    rec->st = St::kDone;
    bool done = true;
    for (const auto& t : threads_) {
      if (t->st != St::kDone) done = false;
    }
    if (done) {
      all_done_ = true;
      main_cv_.notify_all();
      return;
    }
    if (rec->aborting) return;  // teardown peers wake themselves
    decide(l, rec);  // forced switch: someone else performs the next step
  }

  void on_failure(const std::string& what) {
    std::unique_lock<std::mutex> l(mu_);
    record_failure_locked(what);
  }

  void record_failure_locked(const std::string& what) {
    if (!failed_) {
      failed_ = true;
      fail_msg_ = what;
      fail_step_ = step_;
      fail_schedule_ = encode_schedule(switches_);
    }
    mode_ = Mode::kFree;
  }

  // Announce `op` as this thread's pending operation, decide the next
  // step, park if another thread was chosen, and return ready to execute
  // `op` (serialized). Called with mu_ held.
  void arrive_and_wait(std::unique_lock<std::mutex>& l, ThreadRec* rec,
                       const SchedOp& op) {
    rec->pending = op;
    rec->st = St::kAtPoint;
    const std::uint32_t chosen = decide(l, rec);
    if (chosen == rec->id) {
      rec->st = St::kRunning;
      return;
    }
    rec->cv.wait(l, [rec] { return rec->go; });
    rec->go = false;
    rec->st = St::kRunning;
    if (rec->abort_on_wake) {
      rec->aborting = true;
      throw ExecutionAborted{};
    }
  }

  bool op_enabled(const ThreadRec& t, bool relax_yield) const {
    switch (t.pending.kind) {
      case SchedOpKind::kMutexLock:
        return mutex_owner_.count(t.pending.addr) == 0;
      case SchedOpKind::kYield:
        return relax_yield || step_ > t.arrival_step;
      case SchedOpKind::kJoin:
        for (const auto& other : threads_) {
          if (other->id != t.id && other->st != St::kDone) return false;
        }
        return true;
      default:
        return true;  // atomics, try-lock, unlock, thread start
    }
  }

  std::vector<std::pair<std::uint32_t, SchedOp>> enabled_snapshot() const {
    std::vector<std::pair<std::uint32_t, SchedOp>> out;
    for (const auto& t : threads_) {
      if (t->st == St::kDone || t->st == St::kRunning) {
        if (t->st == St::kRunning) {
          // Only the deciding thread can be kRunning here, and it always
          // moves to kAtPoint/kDone before deciding.
          CNET_ENSURE(false, "running thread during scheduling decision");
        }
        continue;
      }
      if (t->st == St::kFresh ||
          op_enabled(*t, /*relax_yield=*/false)) {
        out.push_back({t->id, t->pending});
      }
    }
    if (out.empty()) {
      // Everyone parked is yielding (or blocked): re-arm yields as
      // spurious wakeups rather than calling it a deadlock.
      for (const auto& t : threads_) {
        if (t->st == St::kAtPoint &&
            t->pending.kind == SchedOpKind::kYield) {
          out.push_back({t->id, t->pending});
        }
      }
    }
    return out;
  }

  static bool contains(
      const std::vector<std::pair<std::uint32_t, SchedOp>>& v,
      std::uint32_t id) {
    for (const auto& e : v) {
      if (e.first == id) return true;
    }
    return false;
  }

  static const SchedOp& op_of(
      const std::vector<std::pair<std::uint32_t, SchedOp>>& v,
      std::uint32_t id) {
    for (const auto& e : v) {
      if (e.first == id) return e.second;
    }
    CNET_ENSURE(false, "thread missing from enabled snapshot");
    return v.front().second;  // unreachable
  }

  void sleep_after_step(std::uint32_t chosen, const SchedOp& chosen_op) {
    cur_sleep_.erase(chosen);
    for (auto it = cur_sleep_.begin(); it != cur_sleep_.end();) {
      if (ops_dependent(it->second, chosen_op)) {
        it = cur_sleep_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::uint32_t free_pick(
      const std::vector<std::pair<std::uint32_t, SchedOp>>& enabled) const {
    // Round-robin from the thread after current_: guarantees progress in
    // teardown even when the current thread is mid spin-loop.
    std::uint32_t best = kNoThread;
    for (const auto& [id, op] : enabled) {
      if (id > current_) {
        best = id;
        break;
      }
    }
    if (best == kNoThread) best = enabled.front().first;
    return best;
  }

  // The scheduling decision: exactly one global step is dispatched per
  // call. Returns the chosen thread (which may be the caller). Called
  // with mu_ held by a thread that just parked itself (kAtPoint) or
  // finished (kDone).
  std::uint32_t decide(std::unique_lock<std::mutex>& l, ThreadRec* rec) {
    if (step_ >= opts_.hard_step_limit) {
      if (step_ >= opts_.hard_step_limit * 4) {
        std::fprintf(stderr,
                     "cnet::check: execution exceeded %llu steps even in "
                     "free-run teardown; genuine livelock — aborting\n",
                     static_cast<unsigned long long>(step_));
        std::abort();
      }
      record_failure_locked(
          "execution exceeded hard_step_limit (suspected livelock)");
    } else if (mode_ == Mode::kExplore && step_ >= opts_.max_steps) {
      mode_ = Mode::kFree;  // too deep to keep branching; finish cheaply
    }

    auto enabled = enabled_snapshot();
    if (enabled.empty()) return handle_deadlock(rec);

    std::uint32_t chosen = kNoThread;
    switch (mode_) {
      case Mode::kReplay:
        chosen = replay_pick(enabled, rec);
        break;
      case Mode::kFree:
        chosen = free_pick(enabled);
        break;
      case Mode::kExplore:
        chosen = explore_pick(enabled, rec);
        break;
    }
    CNET_ENSURE(chosen != kNoThread, "scheduler failed to choose a thread");

    // Dispatch: this is global step step_, performed by `chosen`.
    if (chosen != current_) switches_.push_back({step_, chosen});
    ++step_;
    current_ = chosen;
    if (chosen != rec->id) {
      ThreadRec* c = threads_[chosen].get();
      c->go = true;
      c->cv.notify_one();
    }
    (void)l;
    return chosen;
  }

  std::uint32_t replay_pick(
      const std::vector<std::pair<std::uint32_t, SchedOp>>& enabled,
      ThreadRec* rec) {
    if (replay_cursor_ < replay_.size() &&
        replay_[replay_cursor_].step == step_) {
      const std::uint32_t target = replay_[replay_cursor_].thread;
      ++replay_cursor_;
      if (target < threads_.size() && contains(enabled, target)) {
        return target;
      }
      record_failure_locked(
          "replay schedule names a thread that is not enabled at its step "
          "(stale or corrupt schedule string)");
      return free_pick(enabled);
    }
    if (rec->st == St::kAtPoint && contains(enabled, rec->id)) {
      return rec->id;  // between switches: continue the current thread
    }
    // A forced switch the schedule does not cover: every switch is
    // recorded at exploration time, so this means the string does not
    // match this body.
    record_failure_locked(
        "replay schedule missing a forced switch (schedule does not match "
        "this scenario)");
    return free_pick(enabled);
  }

  std::uint32_t explore_pick(
      const std::vector<std::pair<std::uint32_t, SchedOp>>& enabled,
      ThreadRec* rec) {
    const bool self_enabled =
        rec->st == St::kAtPoint && contains(enabled, rec->id);
    if (step_ < tree_->stack.size()) {
      // Replaying the tree prefix into the next branch.
      Node& n = tree_->stack[static_cast<std::size_t>(step_)];
      cur_sleep_.clear();
      for (const auto& e : n.sleep_init) cur_sleep_.insert(e);
      for (const auto& e : n.explored) cur_sleep_.insert(e);
      if (!contains(enabled, n.chosen)) {
        record_failure_locked(
            "internal: nondeterministic prefix (enabled set changed "
            "between executions) — protocol code performs uncontrolled "
            "synchronization");
        return free_pick(enabled);
      }
      cur_preempts_ = n.preempts_before +
                      ((n.chosen != n.running && n.running_enabled) ? 1 : 0);
      sleep_after_step(n.chosen, op_of(n.enabled, n.chosen));
      return n.chosen;
    }

    // Fresh node.
    std::vector<std::uint32_t> candidates;
    for (const auto& [id, op] : enabled) {
      if (cur_sleep_.count(id) == 0) {
        candidates.push_back(id);
      }
    }
    if (candidates.empty()) {
      // Every enabled thread sleeps: any continuation only reorders
      // independent steps of already-explored executions.
      pruned_ = true;
      mode_ = Mode::kFree;
      return free_pick(enabled);
    }
    std::uint32_t chosen = kNoThread;
    if (self_enabled &&
        std::find(candidates.begin(), candidates.end(), rec->id) !=
            candidates.end()) {
      chosen = rec->id;
    } else {
      chosen = candidates.front();
    }
    Node n;
    n.chosen = chosen;
    n.running = rec->id;
    n.running_enabled = self_enabled;
    n.preempts_before = cur_preempts_;
    n.enabled = enabled;
    n.sleep_init.assign(cur_sleep_.begin(), cur_sleep_.end());
    tree_->stack.push_back(std::move(n));
    cur_preempts_ += (chosen != rec->id && self_enabled) ? 1 : 0;
    sleep_after_step(chosen, op_of(enabled, chosen));
    return chosen;
  }

  std::uint32_t handle_deadlock(ThreadRec* rec) {
    std::ostringstream os;
    os << "deadlock: no controlled thread is enabled (";
    bool first = true;
    for (const auto& t : threads_) {
      if (t->st == St::kDone) continue;
      if (!first) os << ", ";
      first = false;
      os << "t" << t->id << " blocked";
    }
    os << ")";
    record_failure_locked(os.str());
    for (auto& t : threads_) {
      if (t.get() != rec && t->st == St::kAtPoint) {
        // Parked-disabled threads sit in throwing-safe frames (mutex
        // lock / join / yield); unwind them.
        t->abort_on_wake = true;
        t->go = true;
        t->cv.notify_one();
      }
    }
    if (rec->st == St::kAtPoint) {
      rec->aborting = true;
      throw ExecutionAborted{};
    }
    return kNoThread;  // rec finished; aborted peers complete teardown
  }

  const Options& opts_;
  Mode mode_;
  Tree* tree_;  // shared across executions; null in replay/free
  std::vector<ScheduleSwitch> replay_;
  std::size_t replay_cursor_ = 0;

  std::mutex mu_;
  std::condition_variable main_cv_;
  bool all_done_ = false;
  std::vector<std::unique_ptr<ThreadRec>> threads_;
  std::unordered_map<const void*, std::uint32_t> mutex_owner_;
  std::uint64_t next_mutex_id_ = 1;
  std::uint32_t current_ = 0;
  std::uint64_t step_ = 0;
  std::size_t cur_preempts_ = 0;
  std::map<std::uint32_t, SchedOp> cur_sleep_;
  std::vector<ScheduleSwitch> switches_;

  bool failed_ = false;
  bool pruned_ = false;
  std::string fail_msg_;
  std::string fail_schedule_;
  std::uint64_t fail_step_ = 0;
};

thread_local Run::ThreadRec* Run::t_self_ = nullptr;

}  // namespace

std::string encode_schedule(const std::vector<ScheduleSwitch>& switches) {
  std::ostringstream os;
  os << kScheduleTag;
  bool first = true;
  for (const auto& s : switches) {
    if (!first) os << ',';
    first = false;
    os << s.step << '@' << s.thread;
  }
  return os.str();
}

std::vector<ScheduleSwitch> parse_schedule(const std::string& text) {
  const std::string tag(kScheduleTag);
  CNET_REQUIRE(text.compare(0, tag.size(), tag) == 0,
               "schedule string must start with '" + tag + "'");
  std::vector<ScheduleSwitch> out;
  std::string rest = text.substr(tag.size());
  if (rest.empty()) return out;
  std::istringstream is(rest);
  std::string item;
  std::uint64_t prev_step = 0;
  bool have_prev = false;
  while (std::getline(is, item, ',')) {
    const auto at = item.find('@');
    CNET_REQUIRE(at != std::string::npos && at > 0 && at + 1 < item.size(),
                 "schedule entry must be <step>@<thread>: '" + item + "'");
    std::size_t used = 0;
    std::uint64_t step = 0;
    std::uint64_t thread = 0;
    try {
      step = std::stoull(item.substr(0, at), &used);
      CNET_REQUIRE(used == at, "non-numeric step in '" + item + "'");
      thread = std::stoull(item.substr(at + 1), &used);
      CNET_REQUIRE(used == item.size() - at - 1,
                   "non-numeric thread in '" + item + "'");
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      CNET_REQUIRE(false, "malformed schedule entry '" + item + "'");
    }
    CNET_REQUIRE(!have_prev || step > prev_step,
                 "schedule steps must be strictly increasing");
    prev_step = step;
    have_prev = true;
    out.push_back(ScheduleSwitch{step, static_cast<std::uint32_t>(thread)});
  }
  return out;
}

Explorer::Explorer(const Options& opts) : opts_(opts) {
  CNET_REQUIRE(opts_.max_executions > 0, "max_executions must be positive");
  CNET_REQUIRE(opts_.hard_step_limit >= opts_.max_steps,
               "hard_step_limit must be at least max_steps");
}

Result Explorer::explore(const Body& body) {
  CNET_REQUIRE(body != nullptr, "null body");
  CNET_REQUIRE(util::kSchedCheckEnabled,
               "Explorer::explore requires a CNET_SCHED_CHECK build (the "
               "sched-point seam is compiled out of this binary)");
  Result result;
  Tree tree;
  for (;;) {
    Run run(opts_, Mode::kExplore, &tree, {});
    run.execute(body);
    ++result.executions;
    result.steps += run.steps();
    result.max_execution_steps =
        std::max(result.max_execution_steps, run.steps());
    if (run.pruned()) ++result.pruned;
    if (run.failed()) {
      result.failed = true;
      result.message = run.failure_message();
      result.schedule = run.failure_schedule();
      result.failure_step = run.failure_step();
      return result;
    }
    if (result.executions >= opts_.max_executions) return result;
    if (!advance_tree(tree, opts_)) return result;
  }
}

Result Explorer::replay(const std::string& schedule, const Body& body) {
  CNET_REQUIRE(body != nullptr, "null body");
  CNET_REQUIRE(util::kSchedCheckEnabled,
               "Explorer::replay requires a CNET_SCHED_CHECK build (the "
               "sched-point seam is compiled out of this binary)");
  Result result;
  Run run(opts_, Mode::kReplay, nullptr, parse_schedule(schedule));
  run.execute(body);
  result.executions = 1;
  result.steps = run.steps();
  result.max_execution_steps = run.steps();
  if (run.failed()) {
    result.failed = true;
    result.message = run.failure_message();
    result.schedule = run.failure_schedule();
    result.failure_step = run.failure_step();
  }
  return result;
}

}  // namespace cnet::check
