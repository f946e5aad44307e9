//===- regalloc/Allocator.h - Public allocation entry points ----*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public register-allocation API. Two allocators are provided:
///
/// * GRA — the paper's baseline (§4): Chaitin's global graph coloring with
///   the Briggs optimistic enhancement, no coalescing, no rematerialization,
///   whole-procedure unweighted spill costs.
/// * RAP — the paper's contribution (§3): hierarchical allocation over the
///   PDG region tree (bottom-up region coloring with combine), spill-code
///   movement out of loops, and a peephole cleanup of redundant spill
///   loads/stores.
///
/// Both rewrite the function in place to use physical registers 0..k-1 and
/// delete copies whose operands received the same register.
///
/// Failures (invariant violations, resource-guard breaches, verifier
/// rejections in checked mode, injected faults) surface as AllocError.
/// allocateFunctionChecked isolates them per function: with
/// AllocOptions::FallbackOnError the failing function alone degrades to a
/// guaranteed-correct spill-everything allocation (see SpillEverything.h)
/// while every other function allocates normally.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_ALLOCATOR_H
#define RAP_REGALLOC_ALLOCATOR_H

#include "ir/IlocFunction.h"
#include "ir/IlocProgram.h"
#include "regalloc/AllocOutcome.h"
#include "regalloc/FaultInjection.h"
#include "support/Deadline.h"

#include <chrono>
#include <string>

namespace rap {

namespace telemetry {
class Telemetry;
class FunctionScope;
} // namespace telemetry

class ShardPool;

enum class AllocatorKind {
  None, ///< leave virtual registers (reference runs)
  Gra,
  Rap,
};

struct AllocOptions {
  unsigned K = 5; ///< number of physical registers (paper uses 3, 5, 7, 9)

  /// RAP phase 2 (spill-code movement out of loops). Ablation toggle.
  bool SpillMovement = true;

  /// RAP phase 3 (Figure 6 peephole). Ablation toggle.
  bool Peephole = true;

  /// Dataflow extension of phase 3 (cross-block redundant-reload and dead
  /// spill-store elimination; the paper's §5 future work). Ablation toggle.
  bool GlobalCleanup = true;

  /// Function-level parallelism in allocateProgramChecked: up to this many
  /// functions are allocated at once on its pool. 0 or 1 means one at a
  /// time on the calling thread. Results are byte-identical to a serial run
  /// (stats aggregate in function order) regardless of the value.
  unsigned Threads = 1;

  /// Worker threads for RAP's intra-function region-parallel phase 1: the
  /// speculative no-spill pass runs independent sibling regions of the
  /// series-parallel decomposition (pdg/SeriesParallel.h) concurrently and
  /// commits results in the sequential postorder, so output, stats and
  /// telemetry are byte-identical to a serial run at any value. 0 or 1
  /// means the classic sequential walk. Ignored by GRA. Like Threads, this
  /// never steers allocation decisions and is excluded from allocation-cache
  /// fingerprints.
  unsigned RegionThreads = 1;

  /// The pool carrying function tasks and, nested inside them, RAP's region
  /// tasks. Set internally by allocateProgramChecked, which builds one pool
  /// of max(Threads, RegionThreads) workers when either exceeds 1; a caller
  /// may pass its own instead. Without a pool, allocateRap runs the classic
  /// sequential walk whatever RegionThreads says.
  ShardPool *Pool = nullptr;

  /// Minimum subtree weight (instructions) for a region subtree to get its
  /// own pool task; lighter subtrees run inline in the task of their
  /// closest task-owning ancestor. Purely a scheduling knob — any value
  /// produces identical output.
  unsigned RegionGrain = 64;

  /// Ablation: also run the Figure 6 peephole on GRA output (the paper does
  /// not; this isolates how much of RAP's win the cleanup alone provides).
  bool PeepholeForGra = false;

  /// Extension (paper §5 future work): conservative Briggs coalescing of
  /// copies, applied by whichever allocator runs. Off for Table 1, which
  /// reproduces the paper's no-coalescing setup.
  bool Coalesce = false;

  //===------------------------------------------------------------------===//
  // Robustness controls (see DESIGN.md "Robustness architecture").
  //===------------------------------------------------------------------===//

  /// Spill/color round budget: per region for RAP, per function for GRA.
  /// Exceeding it raises AllocError(NonConvergence) instead of looping.
  unsigned MaxSpillRounds = 100;

  /// Cap on one interference graph's adjacency footprint in bytes
  /// (InterferenceGraph::memoryBytes); 0 = unlimited. Exceeding it raises
  /// AllocError(ResourceLimit) instead of growing without bound.
  size_t MaxGraphBytes = 0;

  /// Per-function wall-clock budget in seconds; 0 = unlimited. Checked at
  /// round boundaries; raises AllocError(ResourceLimit). Note: wall-clock
  /// triggering is inherently machine-dependent, so runs relying on
  /// byte-identical determinism should leave this off or pair it with
  /// FallbackOnError (the fallback itself is deterministic).
  double MaxAllocSeconds = 0;

  /// Cooperative cancellation for server requests: checked at the same
  /// round boundaries as MaxAllocSeconds. An expired deadline raises
  /// AllocError(DeadlineExceeded), an explicit cancel (graceful drain)
  /// raises AllocError(Cancelled); both degrade cleanly through the
  /// spill-everything fallback. Null (the default, and the rapcc path)
  /// costs one pointer test per check. Excluded from cache fingerprints:
  /// like Threads, it never steers allocation decisions, only whether the
  /// run finishes.
  const CancelToken *Cancel = nullptr;

  /// Checked mode: run the independent AssignmentVerifier on the coloring
  /// before the physical rewrite; violations raise
  /// AllocError(VerifierReject). The spill-everything fallback self-checks
  /// the same way when this is set.
  bool VerifyAssignments = false;

  /// Per-function graceful degradation in allocateFunctionChecked (and so
  /// allocateProgramChecked): on AllocError the function's pristine body is
  /// restored and allocated with the guaranteed-correct spill-everything
  /// allocator; other functions are unaffected. When off, the error
  /// propagates (deterministically, lowest function index first).
  bool FallbackOnError = false;

  /// Deterministic fault injection for testing the degradation path. When
  /// empty, the process-wide RAP_FAULT_INJECT plan (if any) applies. The
  /// fallback allocator always runs fault-free.
  FaultPlan Faults;

  //===------------------------------------------------------------------===//
  // Telemetry (see support/Stats.h and DESIGN.md §9). Null pointers mean
  // disabled: every instrumentation point inlines to a pointer test and
  // the hot paths allocate nothing.
  //===------------------------------------------------------------------===//

  /// Program-level registry. allocateProgramChecked gives each function a
  /// FunctionScope sharing this registry's epoch and commits it keyed by
  /// function index, so the aggregate (and trace content modulo
  /// timestamps/lane ids) is identical at any thread count.
  telemetry::Telemetry *Telem = nullptr;

  /// Per-function sink consumed by allocateGra/allocateRap (phase slices,
  /// per-region event log, named counters). Set internally by the program
  /// driver; set it directly only when calling the per-function entry
  /// points yourself.
  telemetry::FunctionScope *Scope = nullptr;
};

/// Round-boundary guard shared by GRA and RAP: one call enforcing both the
/// per-function wall-clock budget (MaxAllocSeconds) and the cooperative
/// cancel token (per-request deadline / graceful drain). Throws AllocError
/// on breach; the throw leaves the function at an IR-consistent boundary so
/// the spill-everything fallback applies.
inline void checkAllocBudget(const AllocOptions &Options,
                             std::chrono::steady_clock::time_point Start,
                             const std::string &Function, int Region = -1) {
  if (Options.Cancel && Options.Cancel->stopRequested()) {
    bool DeadlineHit = Options.Cancel->expired();
    throwAllocError(DeadlineHit ? AllocErrorKind::DeadlineExceeded
                                : AllocErrorKind::Cancelled,
                    DeadlineHit ? "request deadline exceeded"
                                : "request cancelled (server drain)",
                    Function, Region);
  }
  if (Options.MaxAllocSeconds > 0 &&
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
              .count() > Options.MaxAllocSeconds)
    throwAllocError(AllocErrorKind::ResourceLimit,
                    "wall-clock budget of " +
                        std::to_string(Options.MaxAllocSeconds) +
                        "s exceeded",
                    Function, Region);
}

/// Allocates registers for \p F with the baseline allocator. \p F must be
/// unallocated. Throws AllocError on failure.
AllocStats allocateGra(IlocFunction &F, const AllocOptions &Options);

/// Allocates registers for \p F with RAP. Throws AllocError on failure.
AllocStats allocateRap(IlocFunction &F, const AllocOptions &Options);

/// Allocates function \p I of \p Prog with \p Kind (Gra or Rap), isolated:
/// with Options.FallbackOnError, any failure of the allocator discards the
/// half-edited body, restores a pristine clone taken up front, and
/// allocates that with the spill-everything fallback — which has no
/// injection sites, so an armed fault plan cannot re-fire there. Throws
/// only when FallbackOnError is off or the fallback itself fails. With
/// Options.Telem set, the function's telemetry is committed under index
/// \p I.
AllocOutcome allocateFunctionChecked(IlocProgram &Prog, unsigned I,
                                     AllocatorKind Kind,
                                     const AllocOptions &Options);

/// Allocates every function of \p Prog with \p Kind (no-op for None),
/// returning per-function outcomes plus stats aggregated in function order.
/// Failures are captured per function slot; with Options.FallbackOnError
/// the affected functions degrade in place, otherwise the lowest-index
/// failure is rethrown once every function has finished.
ProgramAllocResult allocateProgramChecked(IlocProgram &Prog,
                                          AllocatorKind Kind,
                                          const AllocOptions &Options);

/// Parses "gra"/"rap"/"none" (for tools).
AllocatorKind allocatorKindFromString(const std::string &Name);

} // namespace rap

#endif // RAP_REGALLOC_ALLOCATOR_H
