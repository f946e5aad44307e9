//===- support/ShardPool.h - Work-stealing task shards ----------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared execution substrate for the compile server and
/// allocateProgramChecked: N shards, each a worker thread with its own task
/// deque. Producers place tasks on a shard chosen by an affinity hint
/// (requests keep their functions together for locality); a worker drains
/// its own deque FIFO and, when empty, steals from the *back* of a
/// sibling's deque — the classic split that keeps owners and thieves off
/// the same end. Stealing is what keeps a batch with skewed shard
/// assignment (one huge request, many idle shards) at full utilization.
///
/// Tasks may nest: a task can submit subtasks and wait on their TaskGroup.
/// A pool worker that waits keeps running queued tasks until its group
/// drains, so the wait never idles a worker and cannot deadlock the pool,
/// even with a single shard. allocateProgramChecked relies on this: one
/// pool carries the function tasks and, nested inside them, RAP's region
/// tasks.
///
/// Determinism: the pool schedules, it does not order results. Callers
/// write each task's output into a pre-assigned slot (function index,
/// request index) and fold slots in index order after waiting — the same
/// discipline allocateProgramChecked established — so any interleaving
/// produces identical output. TaskGroup provides the wait barrier.
///
/// Crash-only serving (DESIGN.md §13) adds two pieces:
///
///   * Tasks may register the request's CancelToken at submit time. A
///     skipped task (token already stopped when a worker picks it up) is
///     never run — the submitter's own pre-checks make the common case
///     cheap, this is the backstop — but its TaskGroup is always released.
///   * A watchdog thread samples every shard's running task. A task that
///     overstays WatchdogFactor x its token's deadline budget has, by
///     definition, ignored its cooperative cancellation points; the
///     watchdog cannot preempt it, but it marks the shard degraded (sticky
///     until that task finally completes) and counts a trip, so operators
///     see wedged workers in the `server` stats section instead of
///     wondering where their capacity went. A nested task takes over its
///     worker's registration while it runs and hands the outer task's back
///     when it finishes.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_SHARDPOOL_H
#define RAP_SUPPORT_SHARDPOOL_H

#include "support/Deadline.h"

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace rap {

/// Countdown latch for one batch of pool tasks: the submitter registers
/// each task, workers signal completion, wait() blocks until all are done.
/// Called on a pool worker, wait() runs that pool's queued tasks until the
/// batch completes (see ShardPool), so a task may wait on subtasks it
/// submitted. Workers may also expect()+submit() follow-on tasks from
/// inside a task as long as they do so before returning — their own
/// pending done() keeps the barrier open.
class TaskGroup {
public:
  void expect(size_t N = 1) {
    std::lock_guard<std::mutex> Lock(M);
    Pending += N;
  }
  void done() {
    std::lock_guard<std::mutex> Lock(M);
    if (--Pending == 0)
      CV.notify_all();
  }
  void wait();

private:
  bool finished() {
    std::lock_guard<std::mutex> Lock(M);
    return Pending == 0;
  }

  friend class ShardPool;
  std::mutex M;
  std::condition_variable CV;
  size_t Pending = 0;
};

/// Watchdog tuning. Factor 0 disables the watchdog thread entirely (unit
/// tests and benches that want a quiet pool).
struct WatchdogConfig {
  /// A running task trips the watchdog once it has been running longer than
  /// Factor x its deadline budget (deadline minus task start, floored at
  /// one poll interval so an already-expired token cannot false-trip).
  /// Tasks without an armed deadline are never tripped — there is no
  /// budget to scale.
  unsigned Factor = 4;
  /// Sampling cadence of the watchdog thread.
  unsigned PollMs = 5;
};

class ShardPool {
public:
  using Task = std::function<void()>;

  /// Spawns \p NumShards workers (at least 1). Shard count is the server's
  /// --shards knob; the deterministic-output contract holds at any value.
  explicit ShardPool(unsigned NumShards,
                     const WatchdogConfig &Watchdog = WatchdogConfig());
  ~ShardPool();

  ShardPool(const ShardPool &) = delete;
  ShardPool &operator=(const ShardPool &) = delete;

  /// Enqueues \p T on shard `Hint % shards()` and wakes a worker. When
  /// \p Group is given it must have been expect()ed already; the pool calls
  /// done() after the task runs (even if it throws — tasks are expected to
  /// contain their own failures, but a throw must not hang the barrier).
  /// \p Token, when given, must outlive the task (the submitter's barrier
  /// guarantees this): a task whose token already requests stop is skipped
  /// — its Group still released — and a running task's token deadline is
  /// what the watchdog measures against.
  void submit(size_t Hint, Task T, TaskGroup *Group = nullptr,
              const CancelToken *Token = nullptr);

  unsigned shards() const { return static_cast<unsigned>(Shards.size()); }

  /// Index of the shard whose worker is the calling thread (telemetry
  /// lanes); 0 on a thread that is no pool's worker.
  static unsigned currentShard();

  /// High-water mark of any single shard's queue depth (telemetry).
  uint64_t queueDepthMax() const;
  /// Tasks executed by a worker that did not own their shard (telemetry;
  /// proves stealing actually happens under skewed load).
  uint64_t tasksStolen() const;
  uint64_t tasksRun() const;
  /// Tasks never run because their cancel token had already stopped when a
  /// worker picked them up (their barriers were still released).
  uint64_t tasksSkipped() const;
  /// Times the watchdog caught a worker overstaying its deadline budget.
  uint64_t watchdogTrips() const;
  /// Shards currently marked degraded (a tripped task still running).
  unsigned shardsDegraded() const;

private:
  struct QueueItem {
    Task Work;
    TaskGroup *Group = nullptr;
    const CancelToken *Token = nullptr;
  };

  /// The watchdog's view of the task a worker is running. Written by the
  /// worker and read by the watchdog, both under the shard's M. Token is
  /// null while no task with a token runs; the worker resets it (under M)
  /// before releasing the task's barrier, so the watchdog can never
  /// observe a dangling token.
  struct RunningTask {
    const CancelToken *Token = nullptr;
    std::chrono::steady_clock::time_point Since{};
    bool Tripped = false; ///< this running task already counted a trip
  };

  struct Shard {
    std::mutex M;
    std::deque<QueueItem> Q;
    uint64_t DepthMax = 0;
    RunningTask Running;
    bool Degraded = false; ///< sticky until the tripped task completes
  };

  void workerLoop(unsigned Self);
  void watchdogLoop();
  bool take(unsigned From, bool Own, QueueItem &Out);
  bool anyQueued() const;
  /// Takes one task — own deque first, then a sibling's — and runs it on
  /// worker \p Self. False when every deque is empty.
  bool runOne(unsigned Self);
  /// TaskGroup::wait on a worker of this pool: runs queued tasks until
  /// \p G drains.
  void helpUntilDone(TaskGroup &G);
  friend class TaskGroup;

  std::vector<std::unique_ptr<Shard>> Shards;
  std::vector<std::thread> Workers;

  WatchdogConfig Watchdog;
  std::thread WatchdogThread;

  // One pool-wide sleep channel: workers park here when every deque is
  // empty, and so do waiting workers whose group's last tasks run
  // elsewhere. Simpler than per-shard wakeups and plenty for task
  // granularity (one task = one function or region-subtree allocation).
  std::mutex SleepM;
  std::condition_variable SleepCV;
  bool Stopping = false;
  unsigned SleepingWaiters = 0; ///< workers parked inside TaskGroup::wait

  mutable std::mutex StatsM;
  uint64_t Stolen = 0;
  uint64_t Run = 0;
  uint64_t Skipped = 0;
  uint64_t Trips = 0;
};

} // namespace rap

#endif // RAP_SUPPORT_SHARDPOOL_H
