//===- cfg/Liveness.h - Per-instruction liveness ----------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward liveness dataflow over virtual registers, refined to every
/// instruction position. This is the single liveness oracle shared by both
/// allocators: interference construction, the region-level live-in/live-out
/// queries of RAP's calc_spill_costs (paper Figure 5), and spill-code
/// placement all read from here.
///
/// Because structured regions are single-entry and fall through to their
/// linear successor, LiveIn(region) = liveBefore(LinBegin) and
/// LiveOut(region) = liveBefore(LinEnd).
///
/// Liveness is computed once per function and *reused* across code edits:
/// the incremental constructor re-seeds the block-level fixpoint from a
/// previous solution, resetting only the registers whose block use/def sets
/// changed (liveness is bitwise-independent per register, so untouched
/// registers are already at their least fixpoint). Spill insertion edits
/// straight-line code only, so the block structure — and therefore the old
/// solution's shape — survives; when it does not (block count or branch
/// structure changed), the constructor falls back to a cold solve. Setting
/// RAP_VERIFY_LIVENESS in the environment cross-checks every incremental
/// result against a cold recompute.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CFG_LIVENESS_H
#define RAP_CFG_LIVENESS_H

#include "cfg/Cfg.h"
#include "ir/RegionTree.h"
#include "support/BitVector.h"

#include <vector>

namespace rap {

class Liveness {
public:
  /// Computes liveness for \p Code (a linearization of a function with
  /// \p NumVRegs virtual registers) over \p G from scratch.
  Liveness(const LinearCode &Code, const Cfg &G, unsigned NumVRegs);

  /// Computes liveness for edited code, warm-starting the block-level
  /// fixpoint from \p Prev (a solution for the same function before the
  /// edit). Produces exactly the cold-computed solution; \p Prev may be
  /// null, and a structural change falls back to the cold path. \p Prev is
  /// consumed: its buffers are scavenged into the new solution (callers
  /// discard the old CodeInfo right after rebuilding, so the storage would
  /// be freed anyway).
  Liveness(const LinearCode &Code, const Cfg &G, unsigned NumVRegs,
           Liveness *Prev);

  /// Registers live immediately before instruction position \p Pos. The
  /// position may equal the instruction count (function end: empty set).
  const BitVector &liveBefore(unsigned Pos) const { return Before[Pos]; }

  /// Registers live immediately after instruction position \p Pos. For a
  /// block terminator this is the union of the successors' live-ins, not the
  /// live-before of the next linear position.
  const BitVector &liveAfter(unsigned Pos) const { return After[Pos]; }

  /// Region-level queries (see file comment).
  const BitVector &liveInOf(const PdgNode &Region) const {
    return Before[Region.LinBegin];
  }
  const BitVector &liveOutOf(const PdgNode &Region) const {
    return Before[Region.LinEnd];
  }

  /// Most registers live before any one position. RAP's speculative
  /// region-parallel round (DESIGN.md §14) runs only when this is at most k.
  unsigned maxLive() const { return MaxLive; }

  /// True when the last construction reused a previous block solution
  /// instead of solving from scratch (exposed for tests).
  bool reusedPreviousSolution() const { return WarmStarted; }

  bool operator==(const Liveness &O) const {
    return Before == O.Before && After == O.After;
  }

private:
  void computeBlockSets(const LinearCode &Code, const Cfg &G,
                        unsigned NumVRegs);
  /// Runs the backward fixpoint over In/Out from their current contents.
  void solve(const Cfg &G);
  void refine(const LinearCode &Code, const Cfg &G, unsigned NumVRegs);
  /// True when \p Prev's solution has the same block structure and may seed
  /// this one.
  bool sameShape(const Liveness &Prev, const Cfg &G) const;

  /// Before[i] = live before instruction i; Before[N] = empty.
  std::vector<BitVector> Before;
  /// After[i] = live after instruction i.
  std::vector<BitVector> After;

  /// Block-level sets, kept after construction so the next (incremental)
  /// computation can diff and re-seed from them.
  std::vector<BitVector> Use, Def, In, Out;
  /// Successor lists snapshot: a warm start additionally requires identical
  /// edges, not just an identical block count.
  std::vector<std::vector<unsigned>> Succs;
  unsigned MaxLive = 0;
  bool WarmStarted = false;
};

} // namespace rap

#endif // RAP_CFG_LIVENESS_H
