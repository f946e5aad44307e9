//===- server/CompileService.cpp - Cached batched compilation ---------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "server/CompileService.h"

#include "support/Env.h"
#include "support/Hash.h"

#include <chrono>
#include <cstdlib>
#include <thread>

using namespace rap;
using namespace rap::server;

uint64_t server::hashProgramOutput(const IlocProgram &Prog) {
  Hasher H;
  for (const auto &F : Prog.functions())
    H.str(F->str());
  return H.value();
}

const char *server::serviceStatusName(ServiceStatus S) {
  switch (S) {
  case ServiceStatus::Ok:
    return "ok";
  case ServiceStatus::CompileError:
    return "compile-error";
  case ServiceStatus::DeadlineExceeded:
    return "deadline-exceeded";
  case ServiceStatus::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

CompileService::CompileService(const ServiceConfig &Config)
    : Config(Config), Cache(Config.CacheBytes),
      Pool(Config.Shards, Config.Watchdog),
      Chaos(Config.Chaos.empty() ? envFaultPlan() : Config.Chaos,
            std::string()) {
  // Durable cache recovery (DESIGN.md §15): replay snapshot + journal into
  // the in-memory cache before the first request. Replay funnels through
  // the ordinary insert path, so the LRU byte budget and eviction rules
  // govern recovered entries exactly as they governed the originals; a
  // journal larger than the budget recovers the most recently written
  // entries (later frames re-insert over earlier ones, then evict LRU).
  if (!this->Config.CacheDir.empty() && this->Config.CacheBytes > 0) {
    CacheStoreConfig SC;
    SC.Dir = this->Config.CacheDir;
    SC.Fsync = this->Config.CacheFsync;
    SC.CompactBytes = this->Config.CacheCompactBytes;
    SC.Fingerprint = this->Config.CacheFingerprint;
    // Test hook: RAP_CACHE_FINGERPRINT overrides the build fingerprint so
    // the invalidation path ("rebuilt binary wipes the store, never a stale
    // hit") is testable without actually rebuilding the binary.
    if (SC.Fingerprint == 0) {
      if (const std::optional<std::string> &FP =
              env::get("RAP_CACHE_FINGERPRINT")) {
        char *End = nullptr;
        unsigned long long V = std::strtoull(FP->c_str(), &End, 10);
        if (End != FP->c_str() && *End == '\0' && V != 0)
          SC.Fingerprint = V;
      }
    }
    SC.Chaos = [this](FaultSite S) {
      if (!chaosFires(S))
        return false;
      ChaosInjectedCount.fetch_add(1, std::memory_order_relaxed);
      return true;
    };
    Store = std::make_unique<CacheStore>(std::move(SC));
    Store->open([this](uint64_t Key, std::unique_ptr<IlocFunction> Body,
                       const AllocOutcome &Outcome) {
      Cache.insert(Key, *Body, Outcome);
    });
  }
}

bool CompileService::chaosFires(FaultSite S) {
  std::lock_guard<std::mutex> Lock(ChaosM);
  return Chaos.fires(S);
}

namespace {

/// The `stall` chaos fault: wedge this worker for a while, deliberately
/// ignoring every cancellation point — the failure mode the ShardPool
/// watchdog exists to detect.
void stallIgnoringToken(unsigned Ms) {
  auto End =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
  while (std::chrono::steady_clock::now() < End)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

} // namespace

ServiceResult CompileService::compile(const std::string &Source,
                                      const RequestOptions &Opts) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  ServiceResult Res;

  // The request's cancel token: armed from deadline_ms, parented by the
  // server's drain token. Every stack below (cache replay loop, pool tasks,
  // allocator round boundaries) checks this one object; it outlives all of
  // them because the task barrier completes before this frame returns.
  CancelToken Token(Opts.DeadlineMs > 0 ? Deadline::afterMs(Opts.DeadlineMs)
                                        : Deadline(),
                    Config.StopToken);

  // Folds the abort into a stable status. Deadline expiry wins over drain
  // cancellation (both may be true); the response never carries partial
  // output — and, critically, an aborted request has inserted nothing into
  // the cache, so wall-clock races cannot perturb deterministic cache
  // state.
  auto aborted = [&] {
    bool DeadlineHit = Token.expired();
    Res.Ok = false;
    Res.Status = DeadlineHit ? ServiceStatus::DeadlineExceeded
                             : ServiceStatus::Cancelled;
    Res.Errors = DeadlineHit
                     ? "deadline of " + std::to_string(Opts.DeadlineMs) +
                           "ms exceeded (" +
                           std::to_string(Res.Functions.size()) +
                           " function(s) in request)"
                     : "request cancelled (server drain)";
    (DeadlineHit ? DeadlineExceededCount : CancelledCount)
        .fetch_add(1, std::memory_order_relaxed);
    Res.Prog.reset();
  };

  // Frontend + lowering, unallocated (AllocatorKind::None short-circuits
  // the allocation driver). This path inherits the crash-free contract:
  // hostile sources come back as diagnostics, never exceptions.
  CompileOptions CO;
  CO.Allocator = AllocatorKind::None;
  CO.Granularity = Opts.Granularity;
  CO.Copies = Opts.Copies;
  CompileResult CR = compileMiniC(Source, CO);
  if (!CR.ok()) {
    Res.Errors = CR.Errors;
    Res.Status = ServiceStatus::CompileError;
    return Res;
  }
  if (Token.stopRequested()) {
    aborted();
    return Res;
  }
  Res.Prog = std::move(CR.Prog);
  IlocProgram &Prog = *Res.Prog;
  const unsigned N = static_cast<unsigned>(Prog.functions().size());
  Res.Functions.resize(N);

  // Deadline expiry and drain cancellation reach the allocators as
  // AllocError at their round boundaries and take the fallback path like
  // any other failure: the half-edited body is discarded and the pristine
  // one gets the linear-time spill-everything allocation — the request may
  // answer `deadline-exceeded`, but the shard finishes clean, never wedged.
  AllocOptions AO;
  AO.K = Opts.K;
  AO.Cancel = &Token;
  AO.FallbackOnError = true;

  // Phase 1 (inline): fingerprint every function and replay cache hits.
  // Hits swap a clone of the stored allocated body into the program slot.
  std::vector<unsigned> Misses;
  if (Opts.Allocator != AllocatorKind::None) {
    for (unsigned I = 0; I != N; ++I) {
      if (Token.stopRequested()) {
        aborted();
        return Res;
      }
      IlocFunction *F = Prog.functions()[I].get();
      FunctionReport &R = Res.Functions[I];
      R.Name = F->name();
      R.Fingerprint = fingerprintFunction(*F, Opts.Allocator, AO);
      CachedAllocation Hit = Cache.lookup(R.Fingerprint);
      if (Hit.Body) {
        R.CacheHit = true;
        R.Outcome = std::move(Hit.Outcome);
        Prog.replaceFunction(I, std::move(Hit.Body));
      } else {
        Misses.push_back(I);
      }
    }

    // Phase 2 (parallel): allocate the misses on the shard pool. One
    // request's misses share an affinity hint so they land on one shard;
    // idle shards steal them back when the batch is skewed. The barrier
    // ALWAYS completes: queued tasks whose token already stopped are
    // skipped by the pool, and running allocations abort at their next
    // round boundary — a deadline can cost one round, never a wedged shard.
    size_t Hint = NextShardHint.fetch_add(1, std::memory_order_relaxed);
    if (!Misses.empty()) {
      TaskGroup Group;
      Group.expect(Misses.size());
      for (unsigned I : Misses)
        Pool.submit(Hint, [this, &Prog, I, &Opts, &AO, &Res] {
          if (chaosFires(FaultSite::WorkerStall)) {
            ChaosInjectedCount.fetch_add(1, std::memory_order_relaxed);
            stallIgnoringToken(Config.ChaosStallMs);
          }
          FunctionReport &R = Res.Functions[I];
          try {
            R.Outcome = allocateFunctionChecked(Prog, I, Opts.Allocator, AO);
          } catch (const std::exception &E) {
            // Only the fallback itself can throw here, on code no
            // allocator can handle at this k; record it without crashing
            // the serving loop (crash-free contract).
            R.Outcome.Function = R.Name;
            R.Outcome.Status = AllocStatus::Failed;
            R.Outcome.Error = std::string("fallback failed: ") + E.what();
          }
        }, &Group, &Token);
      Group.wait();
    }
    if (Token.stopRequested()) {
      aborted();
      return Res;
    }

    // Phase 3 (inline, function order): insert the fresh allocations into
    // the cache *after* the barrier so LRU order — and therefore eviction —
    // is a function of the request sequence alone, not thread scheduling.
    // The cache-insert chaos site drops the insert (a contained fault: the
    // function simply misses again next time); it never corrupts state.
    for (unsigned I : Misses) {
      const FunctionReport &R = Res.Functions[I];
      if (R.Outcome.Status == AllocStatus::Failed)
        continue; // nothing replayable
      if (chaosFires(FaultSite::CacheInsert)) {
        ChaosInjectedCount.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Cache.insert(R.Fingerprint, *Prog.functions()[I], R.Outcome);
      // Journal the insertion so a restarted server replays it. Same
      // function-order discipline as the cache insert itself; a degraded
      // store makes this a no-op and the server keeps serving in-memory.
      if (Store)
        Store->append(R.Fingerprint, *Prog.functions()[I], R.Outcome);
    }
  } else {
    for (unsigned I = 0; I != N; ++I)
      Res.Functions[I].Name = Prog.functions()[I]->name();
  }

  for (unsigned I = 0; I != N; ++I) {
    Res.Alloc.accumulate(Res.Functions[I].Outcome.Stats);
    if (Opts.Allocator != AllocatorKind::None) {
      Res.CacheHits += Res.Functions[I].CacheHit;
      Res.CacheMisses += !Res.Functions[I].CacheHit;
    }
  }
  Res.OutputHash = hashProgramOutput(Prog);
  Res.Ok = true;
  Res.Status = ServiceStatus::Ok;

  if (Opts.Run) {
    if (Token.stopRequested()) {
      aborted();
      return Res;
    }
    Interpreter Interp(Prog);
    Res.Exec = Interp.run("main", Opts.Fuel);
  }
  return Res;
}

ServiceCounters CompileService::counters() const {
  ServiceCounters C;
  CacheCounters CC = Cache.counters();
  C.Requests = Requests.load(std::memory_order_relaxed);
  C.CacheHits = CC.Hits;
  C.CacheMisses = CC.Misses;
  C.FunctionsCompiled = CC.Hits + CC.Misses;
  C.CacheBytes = CC.Bytes;
  C.CacheEvictions = CC.Evictions;
  C.QueueDepthMax = Pool.queueDepthMax();
  C.TasksStolen = Pool.tasksStolen();
  C.DeadlineExceeded = DeadlineExceededCount.load(std::memory_order_relaxed);
  C.Cancelled = CancelledCount.load(std::memory_order_relaxed);
  C.WatchdogTrips = Pool.watchdogTrips();
  C.ShardsDegraded = Pool.shardsDegraded();
  C.ChaosInjected = ChaosInjectedCount.load(std::memory_order_relaxed);
  if (Store) {
    CacheStoreCounters SC = Store->counters();
    C.PersistEnabled = true;
    C.SnapshotLoaded = SC.SnapshotLoaded;
    C.JournalFramesReplayed = SC.FramesReplayed;
    C.TornTailDropped = SC.TornTailBytes;
    C.StoreInvalidations = SC.Invalidations;
    C.JournalAppends = SC.Appends;
    C.Compactions = SC.Compactions;
    C.StoreDegraded = SC.Degraded;
    C.Restarts = Config.Restarts;
  }
  return C;
}
