//===- tests/shard_pool_test.cpp - Nested waits on the shard pool ---------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tasks that submit subtasks and wait on them, the shape of
/// allocateProgramChecked's function tasks waiting on RAP's region tasks.
/// A pool worker that waits must run queued tasks itself; otherwise a pool
/// whose every worker sits in such a wait never finishes. These cases hang
/// rather than fail on a regression, so CTest gives this binary a timeout.
///
//===----------------------------------------------------------------------===//

#include "support/ShardPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <thread>

using namespace rap;

namespace {

/// Submits \p Fanout subtasks that recurse to \p Depth, then waits on them
/// from inside the current task; counts the leaves that ran.
void spawnAndWait(ShardPool &Pool, unsigned Depth, unsigned Fanout,
                  std::atomic<unsigned> &Leaves) {
  if (Depth == 0) {
    Leaves.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TaskGroup Sub;
  Sub.expect(Fanout);
  for (unsigned I = 0; I != Fanout; ++I)
    Pool.submit(I, [&Pool, Depth, Fanout, &Leaves] {
      spawnAndWait(Pool, Depth - 1, Fanout, Leaves);
    }, &Sub);
  Sub.wait();
}

/// Every worker enters an outer task, and only once all of them are inside
/// does any of them submit its subtasks — so no worker is free to run those
/// subtasks except the ones that wait on them.
void expectNestedWaitsComplete(unsigned Shards) {
  ShardPool Pool(Shards, WatchdogConfig{0, 0});
  constexpr unsigned Outer = 6, Depth = 3, Fanout = 3;
  std::atomic<unsigned> Inside{0}, Leaves{0}, OuterDone{0};
  TaskGroup All;
  All.expect(Outer);
  for (unsigned O = 0; O != Outer; ++O)
    Pool.submit(O, [&] {
      Inside.fetch_add(1);
      while (Inside.load() < Shards)
        std::this_thread::yield();
      spawnAndWait(Pool, Depth, Fanout, Leaves);
      OuterDone.fetch_add(1);
    }, &All);
  All.wait();
  EXPECT_EQ(OuterDone.load(), Outer);
  EXPECT_EQ(Leaves.load(), Outer * Fanout * Fanout * Fanout);
  // Every outer task, inner task and leaf ran exactly once.
  EXPECT_EQ(Pool.tasksRun(), Outer * (1 + Fanout + Fanout * Fanout +
                                      Fanout * Fanout * Fanout));
}

template <typename Pred> bool spinUntil(Pred P) {
  auto End = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!P()) {
    if (std::chrono::steady_clock::now() > End)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

} // namespace

TEST(ShardPoolNested, WaitsCompleteOnOneShard) {
  expectNestedWaitsComplete(1);
}

TEST(ShardPoolNested, WaitsCompleteOnTwoShards) {
  expectNestedWaitsComplete(2);
}

TEST(ShardPoolNested, CurrentShardNamesTheExecutingWorker) {
  EXPECT_EQ(ShardPool::currentShard(), 0u); // not a worker
  ShardPool Pool(3, WatchdogConfig{0, 0});
  constexpr unsigned N = 32;
  std::atomic<unsigned> InRange{0};
  TaskGroup Group;
  Group.expect(N);
  for (unsigned I = 0; I != N; ++I)
    Pool.submit(I, [&] {
      InRange.fetch_add(ShardPool::currentShard() < 3);
    }, &Group);
  Group.wait();
  EXPECT_EQ(InRange.load(), N);
}

TEST(ShardPoolNested, NestedTaskHandsBackTheWatchdogRegistration) {
  // The outer task carries a deadline and overstays it only *after* a
  // nested task has run inside its wait. If the nested task left the
  // worker's registration cleared, the watchdog would never see the outer
  // task wedge.
  WatchdogConfig Watchdog;
  Watchdog.Factor = 1;
  Watchdog.PollMs = 1;
  ShardPool Pool(1, Watchdog);
  CancelToken Wedged(Deadline::afterMs(20));
  CancelToken Release;
  std::atomic<bool> NestedRan{false};
  TaskGroup Group;
  Group.expect(1);
  Pool.submit(0, [&] {
    TaskGroup Sub;
    Sub.expect(1);
    Pool.submit(0, [&] { NestedRan = true; }, &Sub);
    Sub.wait();
    while (!Release.cancelled())
      std::this_thread::yield();
  }, &Group, &Wedged);
  EXPECT_TRUE(spinUntil([&] { return Pool.watchdogTrips() >= 1; }));
  EXPECT_TRUE(NestedRan.load());
  EXPECT_EQ(Pool.shardsDegraded(), 1u);
  Release.cancel();
  Group.wait();
  EXPECT_TRUE(spinUntil([&] { return Pool.shardsDegraded() == 0; }));
}
