//===- regalloc/SpillCleanup.h - Spill load/store cleanup -------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAP phase 3 and its dataflow generalization, on one engine. A forward
/// scan tracks which physical registers hold the current value of which
/// frame-local spill slot (nothing else can alias a slot, so calls and
/// global-memory operations do not invalidate the facts) and rewrites:
///
///   * a reload whose target register already holds the slot is deleted;
///   * a reload whose value sits in another register becomes a `mv`;
///   * a store of a value the slot already holds is deleted.
///
/// Two entry points run it at two scopes:
///
/// * peepholeSpillCleanup (paper §3.3, Figure 6): every basic block starts
///   from "nothing available". This subsumes the paper's five patterns
///
///     (1) ldm r2,s ... ldm r2,s          -> second load deleted
///     (2) ldm r2,s ... ldm r3,s          -> second load becomes mv r3,r2
///     (3) ldm r2,s ... stm s,r2          -> store deleted
///     (4) stm s,r2 ... ldm r2,s          -> load deleted
///     (5) stm s,r2 ... mv r3,r2 ... stm s,r3 -> second store deleted
///
///   (each "..." contains no redefinition of the registers involved and no
///   other store to the slot).
/// * globalSpillCleanup (the paper's §5 future work, "better placement of
///   spill code" across region boundaries): block entry facts come from a
///   forward availability dataflow over the CFG, and a backward slot
///   liveness deletes stores no later reload can read (slots die with the
///   frame). The two passes iterate to a fixpoint.
///
/// The scopes are toggled separately so the ablation bench can measure the
/// paper-exact configuration against the extended one.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_SPILLCLEANUP_H
#define RAP_REGALLOC_SPILLCLEANUP_H

#include "ir/IlocFunction.h"

namespace rap {

namespace telemetry {
class FunctionScope;
} // namespace telemetry

struct SpillCleanupResult {
  unsigned RemovedLoads = 0;  ///< deleted ldm (patterns 1, 4)
  unsigned LoadsToCopies = 0; ///< ldm rewritten to mv (pattern 2)
  unsigned RemovedStores = 0; ///< deleted stm (patterns 3, 5; dead stores)
};

/// Runs the block-local cleanup over \p F, which must already be rewritten
/// to physical registers. With a telemetry \p Scope, the pass is timed as a
/// "peephole" slice and records peephole.* counters.
SpillCleanupResult peepholeSpillCleanup(IlocFunction &F,
                                        telemetry::FunctionScope *Scope = nullptr);

/// Runs the cross-block reload and dead-store passes to a fixpoint over
/// \p F, which must be in physical registers. With a telemetry \p Scope, the
/// pass is timed as a "cleanup" slice and records cleanup.* counters.
SpillCleanupResult globalSpillCleanup(IlocFunction &F,
                                      telemetry::FunctionScope *Scope = nullptr);

} // namespace rap

#endif // RAP_REGALLOC_SPILLCLEANUP_H
