//===- support/ShardPool.cpp - Work-stealing task shards --------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "support/ShardPool.h"

#include <algorithm>
#include <chrono>

using namespace rap;

namespace {
/// The pool and shard a worker thread serves; null on every other thread.
thread_local ShardPool *CurrentPool = nullptr;
thread_local unsigned CurrentShard = 0;
} // namespace

ShardPool::ShardPool(unsigned NumShards, const WatchdogConfig &Watchdog)
    : Watchdog(Watchdog) {
  if (NumShards == 0)
    NumShards = 1;
  Shards.reserve(NumShards);
  for (unsigned I = 0; I != NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
  Workers.reserve(NumShards);
  for (unsigned I = 0; I != NumShards; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
  if (Watchdog.Factor > 0)
    WatchdogThread = std::thread([this] { watchdogLoop(); });
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> Lock(SleepM);
    Stopping = true;
  }
  SleepCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
  if (WatchdogThread.joinable())
    WatchdogThread.join();
}

void ShardPool::submit(size_t Hint, Task T, TaskGroup *Group,
                       const CancelToken *Token) {
  Shard &S = *Shards[Hint % Shards.size()];
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Q.push_back(QueueItem{std::move(T), Group, Token});
    if (S.Q.size() > S.DepthMax)
      S.DepthMax = S.Q.size();
  }
  SleepCV.notify_one();
}

bool ShardPool::take(unsigned From, bool Own, QueueItem &Out) {
  Shard &S = *Shards[From];
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.Q.empty())
    return false;
  // The owner drains FIFO; thieves take the opposite end.
  Out = std::move(Own ? S.Q.front() : S.Q.back());
  if (Own)
    S.Q.pop_front();
  else
    S.Q.pop_back();
  return true;
}

bool ShardPool::anyQueued() const {
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> QL(S->M);
    if (!S->Q.empty())
      return true;
  }
  return false;
}

bool ShardPool::runOne(unsigned Self) {
  const unsigned N = static_cast<unsigned>(Shards.size());
  QueueItem Item;
  bool Stole = false;
  if (!take(Self, /*Own=*/true, Item)) {
    // Scan siblings round-robin starting after ourselves so thieves
    // spread over victims instead of mobbing shard 0.
    for (unsigned D = 1; D != N && !Stole; ++D)
      Stole = take((Self + D) % N, /*Own=*/false, Item);
    if (!Stole)
      return false;
  }

  // Backstop skip: a task whose request already stopped (deadline hit or
  // drain cancel while it sat queued) is not worth starting — the
  // allocator would only throw at its first round boundary anyway.
  bool Skip = Item.Token && Item.Token->stopRequested();
  if (!Skip) {
    // Register for the watchdog in the executing worker's own shard slot,
    // regardless of which deque the task came from. A task run from inside
    // another task's wait saves the outer registration and restores it
    // afterwards.
    Shard &Own = *Shards[Self];
    RunningTask Outer;
    {
      std::lock_guard<std::mutex> Lock(Own.M);
      Outer = Own.Running;
      Own.Running =
          RunningTask{Item.Token, std::chrono::steady_clock::now(), false};
    }
    try {
      Item.Work();
    } catch (...) {
      // Tasks own their failures (the service catches per function); a
      // leak here must not take down the worker or hang the barrier.
    }
    {
      // Restore *before* releasing the barrier: the token lives at least
      // until the barrier releases, so the watchdog (which reads under
      // this same mutex) can never see a dangling pointer. The shard stays
      // degraded only while a tripped outer task is still running.
      std::lock_guard<std::mutex> Lock(Own.M);
      Own.Running = Outer;
      Own.Degraded = Outer.Tripped;
    }
  }
  {
    // Fold stats *before* releasing the barrier so a waiter that reads the
    // counters right after wait() sees this task accounted for.
    std::lock_guard<std::mutex> Lock(StatsM);
    Run += !Skip;
    Skipped += Skip;
    Stolen += Stole && !Skip;
  }
  if (Item.Group) {
    Item.Group->done();
    // Wake workers parked in a nested wait: this may have been the last
    // task of their group. Taking SleepM orders the wake after their
    // predicate check, so it cannot be lost.
    std::lock_guard<std::mutex> Lock(SleepM);
    if (SleepingWaiters)
      SleepCV.notify_all();
  }
  return true;
}

void ShardPool::workerLoop(unsigned Self) {
  CurrentPool = this;
  CurrentShard = Self;
  while (true) {
    if (runOne(Self))
      continue;
    // Nothing anywhere: park until a submit or shutdown. Re-check the
    // deques under the sleep lock via predicate re-poll (a submit between
    // our scan and the wait would otherwise be missed — notify_one with no
    // waiter is lost, so the predicate must look at queue state).
    std::unique_lock<std::mutex> Lock(SleepM);
    if (Stopping)
      return;
    SleepCV.wait_for(Lock, std::chrono::milliseconds(10),
                     [&] { return Stopping || anyQueued(); });
    if (Stopping)
      return;
  }
}

void ShardPool::helpUntilDone(TaskGroup &G) {
  while (!G.finished()) {
    if (runOne(CurrentShard))
      continue;
    // The group's remaining tasks run on other workers. Park until one of
    // them completes or new work is queued; the timeout also covers a
    // group whose tasks run on another pool, which never wakes this one.
    std::unique_lock<std::mutex> Lock(SleepM);
    ++SleepingWaiters;
    SleepCV.wait_for(Lock, std::chrono::milliseconds(1),
                     [&] { return G.finished() || anyQueued(); });
    --SleepingWaiters;
  }
}

unsigned ShardPool::currentShard() { return CurrentPool ? CurrentShard : 0; }

void TaskGroup::wait() {
  if (CurrentPool) {
    CurrentPool->helpUntilDone(*this);
    return;
  }
  std::unique_lock<std::mutex> Lock(M);
  CV.wait(Lock, [&] { return Pending == 0; });
}

void ShardPool::watchdogLoop() {
  using Clock = std::chrono::steady_clock;
  const auto Poll = std::chrono::milliseconds(
      Watchdog.PollMs ? Watchdog.PollMs : 1);
  while (true) {
    {
      // Reuse the sleep channel for a cancellable wait; a spurious wake
      // just means one extra scan.
      std::unique_lock<std::mutex> Lock(SleepM);
      if (Stopping)
        return;
      SleepCV.wait_for(Lock, Poll, [&] { return Stopping; });
      if (Stopping)
        return;
    }
    Clock::time_point Now = Clock::now();
    for (const auto &SP : Shards) {
      Shard &S = *SP;
      std::lock_guard<std::mutex> Lock(S.M);
      RunningTask &R = S.Running;
      if (!R.Token || R.Tripped)
        continue;
      const Deadline &D = R.Token->deadline();
      if (!D.armed())
        continue; // no budget to scale: never tripped
      // Budget = what the request had left when the task started, floored
      // at one poll tick so a task admitted moments before (or after) its
      // deadline cannot false-trip while it runs its cooperative checks.
      auto Budget = std::max<Clock::duration>(D.when() - R.Since, Poll);
      if (Now - R.Since > Budget * Watchdog.Factor) {
        R.Tripped = true;
        S.Degraded = true;
        std::lock_guard<std::mutex> SL(StatsM);
        ++Trips;
      }
    }
  }
}

uint64_t ShardPool::queueDepthMax() const {
  uint64_t Max = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    if (S->DepthMax > Max)
      Max = S->DepthMax;
  }
  return Max;
}

uint64_t ShardPool::tasksStolen() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return Stolen;
}

uint64_t ShardPool::tasksRun() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return Run;
}

uint64_t ShardPool::tasksSkipped() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return Skipped;
}

uint64_t ShardPool::watchdogTrips() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return Trips;
}

unsigned ShardPool::shardsDegraded() const {
  unsigned N = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    N += S->Degraded;
  }
  return N;
}
