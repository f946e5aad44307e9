//===- server/CompileService.h - Cached batched compilation -----*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile server's engine, independent of any transport: lower a MiniC
/// module, fingerprint each function's ILOC, replay cached allocations for
/// hits, fan cache misses out over the work-stealing shard pool, and fold
/// everything back in function order. rapd wraps this in the NDJSON
/// protocol; the load bench and the cache-correctness tests call it
/// directly.
///
/// Determinism contract (the acceptance bar): for a fixed request sequence
/// and fixed cache budget, the compiled output of every request — function
/// text, per-function outcomes, hit/miss classification — is byte-identical
/// at any shard count, and a warm response is byte-identical to what a cold
/// compile of the same source would produce. The pieces that make it hold:
///
///   * allocation per function is deterministic and independent,
///   * hits replay a clone whose linearized text equals the cold result,
///   * misses allocate on the pool but land in per-function slots,
///   * cache insertion happens after the barrier, in function order, so
///     LRU/eviction state evolves identically at any shard count.
///
/// Crash-only serving (DESIGN.md §13) threads a CancelToken through every
/// request: `deadline_ms` arms it, the server's drain token parents it, the
/// allocators check it at round boundaries, and an aborted request answers
/// with a stable `deadline-exceeded` / `cancelled` status. Aborted requests
/// never insert into the cache — wall-clock races must not perturb the
/// deterministic cache state that fault-free replays assert against.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SERVER_COMPILESERVICE_H
#define RAP_SERVER_COMPILESERVICE_H

#include "driver/Pipeline.h"
#include "server/AllocCache.h"
#include "server/CacheStore.h"
#include "support/ShardPool.h"
#include "support/Deadline.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rap {
namespace server {

/// Service-wide configuration (one per rapd process).
struct ServiceConfig {
  unsigned Shards = 4;                  ///< work-stealing workers
  size_t CacheBytes = 256u << 20;       ///< 0 = caching off (cold baseline)
  /// Server-wide stop signal (the drain-kill token): parented into every
  /// request token so one cancel() aborts all in-flight compilations at
  /// their next cooperative check. Null outside rapd.
  const CancelToken *StopToken = nullptr;
  /// Deterministic server-layer chaos schedule (sites cache-insert/stall);
  /// empty = the process-wide RAP_FAULT_INJECT plan, if any.
  FaultPlan Chaos;
  /// How long a `stall` chaos fault wedges a worker, ignoring its token
  /// (exercises the ShardPool watchdog).
  unsigned ChaosStallMs = 50;
  /// Watchdog tuning for the shard pool (Factor 0 disables).
  WatchdogConfig Watchdog;

  //===------------------------------------------------------------------===//
  // Durable cache persistence (DESIGN.md §15). Empty CacheDir = in-memory
  // only (the pre-PR behavior, byte for byte).
  //===------------------------------------------------------------------===//

  /// Directory for snapshot.bin/journal.bin; recovery replays both into the
  /// in-memory cache at construction and every later insertion is
  /// journaled. Ignored when CacheBytes == 0 (nothing to persist).
  std::string CacheDir;
  FsyncMode CacheFsync = FsyncMode::Batch;
  /// Journal size that triggers snapshot compaction (0 = never).
  size_t CacheCompactBytes = 64u << 20;
  /// Store fingerprint override for the invalidation tests; 0 = the real
  /// build fingerprint.
  uint64_t CacheFingerprint = 0;
  /// Supervised-restart count (rapd passes RAPD_RESTARTS through); purely
  /// informational, surfaced in the stats `recovery` block.
  uint64_t Restarts = 0;
};

/// Per-request compile options: the protocol's "options" object plus the
/// request-level `deadline_ms`.
struct RequestOptions {
  AllocatorKind Allocator = AllocatorKind::Rap;
  unsigned K = 5;
  RegionGranularity Granularity = RegionGranularity::PerStatement;
  CopyStyle Copies = CopyStyle::Naive;
  bool Run = false;              ///< execute main() and report counters
  uint64_t Fuel = 500'000'000;   ///< interpreter budget when Run
  /// End-to-end budget for this request in milliseconds; 0 = none. The
  /// deadline covers lowering, allocation (hits and misses), and execution;
  /// past it the request answers `deadline-exceeded`. Never fingerprinted —
  /// it does not steer allocation decisions.
  uint64_t DeadlineMs = 0;
};

/// How a request ended, beyond the per-function detail.
enum class ServiceStatus {
  Ok,               ///< compiled; Functions/OutputHash are meaningful
  CompileError,     ///< frontend diagnostics in Errors
  DeadlineExceeded, ///< the request's deadline_ms budget ran out
  Cancelled,        ///< the server drain (or an explicit cancel) aborted it
};

const char *serviceStatusName(ServiceStatus S);

/// One function's slice of a response.
struct FunctionReport {
  std::string Name;
  uint64_t Fingerprint = 0;
  bool CacheHit = false;
  /// What allocateFunctionChecked reported (or the cache replayed).
  AllocOutcome Outcome;
};

/// One compiled request.
struct ServiceResult {
  bool Ok = false;
  ServiceStatus Status = ServiceStatus::CompileError;
  std::string Errors; ///< compile diagnostics when !Ok
  std::unique_ptr<IlocProgram> Prog;
  std::vector<FunctionReport> Functions;
  AllocStats Alloc;          ///< ledger aggregated in function order
  unsigned CacheHits = 0;
  unsigned CacheMisses = 0;
  /// Stable hash over every function's allocated text, in program order —
  /// the warm-vs-cold byte-identity witness the protocol transmits.
  uint64_t OutputHash = 0;
  /// Filled when RequestOptions::Run: the interpreted execution.
  RunResult Exec;

  unsigned degraded() const {
    unsigned N = 0;
    for (const FunctionReport &F : Functions)
      N += F.Outcome.degraded();
    return N;
  }
};

/// Aggregate counters the server exports (rap-stats-v1 "server" section).
struct ServiceCounters {
  uint64_t Requests = 0;
  uint64_t FunctionsCompiled = 0; ///< hits + misses
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheBytes = 0;
  uint64_t CacheEvictions = 0;
  uint64_t QueueDepthMax = 0;
  uint64_t TasksStolen = 0;
  uint64_t DeadlineExceeded = 0; ///< requests that ran out of deadline_ms
  uint64_t Cancelled = 0;        ///< requests aborted by drain/cancel
  uint64_t WatchdogTrips = 0;    ///< workers caught overstaying N x deadline
  uint64_t ShardsDegraded = 0;   ///< shards currently wedged (watchdog view)
  uint64_t ChaosInjected = 0;    ///< contained server-layer chaos faults

  // Durable-cache recovery (meaningful only when PersistEnabled; the stats
  // `recovery` block is omitted otherwise).
  bool PersistEnabled = false;       ///< a CacheStore is attached
  bool SnapshotLoaded = false;       ///< snapshot.bin replayed at startup
  uint64_t JournalFramesReplayed = 0;///< entries recovered (snapshot+journal)
  uint64_t TornTailDropped = 0;      ///< bytes dropped past the last good frame
  uint64_t StoreInvalidations = 0;   ///< fingerprint-mismatch full wipes
  uint64_t JournalAppends = 0;       ///< entries journaled this process
  uint64_t Compactions = 0;          ///< snapshot rewrites this process
  bool StoreDegraded = false;        ///< persistence off after a fault
  uint64_t Restarts = 0;             ///< supervised restarts (RAPD_RESTARTS)
};

class CompileService {
public:
  explicit CompileService(const ServiceConfig &Config);

  /// Compiles one request. Thread-safe: concurrent callers share the cache
  /// and the pool; each gets its own program, slots, and cancel token.
  ServiceResult compile(const std::string &Source, const RequestOptions &Opts);

  ServiceCounters counters() const;
  unsigned shards() const { return Pool.shards(); }
  size_t cacheBudgetBytes() const { return Cache.budgetBytes(); }

  /// The durable cache store, if --cache-dir armed one (tests and the drain
  /// path poke it directly; null in in-memory-only mode).
  CacheStore *store() { return Store.get(); }

private:
  /// Thread-safe countdown on the service's chaos schedule (server sites
  /// fire from pool workers and the service thread alike).
  bool chaosFires(FaultSite S);

  ServiceConfig Config;
  AllocCache Cache;
  /// Durable mirror of Cache (null = in-memory only). Constructed after
  /// Cache and replayed in the constructor body, so warm state is visible
  /// before the first request.
  std::unique_ptr<CacheStore> Store;
  ShardPool Pool;
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> NextShardHint{0};
  std::atomic<uint64_t> DeadlineExceededCount{0};
  std::atomic<uint64_t> CancelledCount{0};
  std::atomic<uint64_t> ChaosInjectedCount{0};
  std::mutex ChaosM;
  FaultInjector Chaos;
};

/// Stable hash of a whole allocated program (function texts in order) —
/// shared by the service and the tests that recompute it cold.
uint64_t hashProgramOutput(const IlocProgram &Prog);

} // namespace server
} // namespace rap

#endif // RAP_SERVER_COMPILESERVICE_H
