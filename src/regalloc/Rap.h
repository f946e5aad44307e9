//===- regalloc/Rap.h - Hierarchical PDG allocator --------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAP, the paper's contribution: register allocation over the PDG region
/// hierarchy. Phase 1 (§3.1) walks the region tree bottom-up; each region
/// builds an interference graph from its own code (add_region_conflicts)
/// plus the combined graphs of its subregions (add_subregion_conflicts,
/// Figure 4), computes spill costs (Figure 5), colors with the Briggs
/// scheme, spills locally when needed, and finally combines same-colored
/// nodes so the parent sees at most k summary nodes. Register assignment
/// happens at the entry region. Phase 2 (§3.2) moves spill code out of
/// loops; phase 3 (§3.3) is the Figure 6 peephole.
///
/// The class is exposed (rather than only the allocateRap() entry point) so
/// unit tests can drive individual stages against the paper's worked
/// examples (Figures 3-5).
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_RAP_H
#define RAP_REGALLOC_RAP_H

#include "regalloc/AllocSupport.h"
#include "regalloc/Allocator.h"
#include "regalloc/InterferenceGraph.h"

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

namespace rap {

class RapAllocator {
public:
  RapAllocator(IlocFunction &F, const AllocOptions &Options);

  /// Runs all three phases and rewrites \p F to physical registers.
  AllocStats run();

  //===------------------------------------------------------------------===//
  // Stage entry points for unit tests.
  //===------------------------------------------------------------------===//

  /// Rebuilds linearization, liveness and reference maps after code edits.
  void refresh();

  /// Paper §3.1.1: add_region_conflicts + add_subregion_conflicts for
  /// region \p V. Subregions must already be allocated (their combined
  /// graphs saved).
  InterferenceGraph buildRegionGraph(PdgNode *V);

  /// Paper Figure 5: attaches a spill cost to every node of \p G.
  void calcSpillCosts(PdgNode *V, InterferenceGraph &G);

  /// Paper Figure 2: the full allocation loop for one region (recursing
  /// into subregions first). Returns the region's colored graph.
  InterferenceGraph allocRegion(PdgNode *V);

  const std::map<const PdgNode *, InterferenceGraph> &savedGraphs() const {
    return SavedGraphs;
  }
  const CodeInfo &codeInfo() const { return *CI; }
  const RefInfo &refInfo() const { return *Refs; }
  const AllocStats &stats() const { return Stats; }

  /// True if some reference of \p R lies outside \p V's subtree ("global to
  /// the region", paper §3.1).
  bool isGlobalTo(Reg R, const PdgNode *V) const;

private:
  /// A set of registers, dense and indexed by register; registers past the
  /// end read as absent.
  class RegFlags {
  public:
    bool test(Reg R) const { return R < Bits.size() && Bits[R]; }
    /// Adds \p R; returns true if it was absent.
    bool insert(Reg R) {
      if (R >= Bits.size())
        Bits.resize(R + 1, 0);
      if (Bits[R])
        return false;
      Bits[R] = 1;
      return true;
    }

  private:
    std::vector<char> Bits;
  };

  /// Shared body of buildRegionGraph: \p SubGraph resolves a subregion's
  /// combined interference graph. The sequential walk resolves from
  /// SavedGraphs; the region-parallel phase resolves from its per-task
  /// speculative slots.
  InterferenceGraph buildRegionGraphImpl(
      PdgNode *V,
      const std::function<const InterferenceGraph *(const PdgNode *)>
          &SubGraph);

  /// The speculative region-parallel phase 1 (Options.RegionThreads > 1):
  /// runs every region's first build/cost/color round as pool tasks over
  /// the series-parallel decomposition, children before parents, with all
  /// shared allocator state read-only. If every region colors without a
  /// spill candidate, results are committed in the sequential postorder
  /// (bit-identical to the classic walk) and \p Final receives the root's
  /// colored graph. Any spill candidate, error or injected fault discards
  /// the whole speculation — including partially consumed fault-injection
  /// countdowns — and returns false so the caller reruns the classic
  /// sequential walk, which then reproduces the sequential outcome exactly
  /// (same spills, same stats, same error if any).
  bool runRegionParallelPhase1(InterferenceGraph &Final);

  /// Merges the nodes of pieces of one split register (paper §3.1.1) when
  /// they do not interfere and the union holds at most one region-global
  /// origin. One ascending scan over the nodes; after a merge it resumes at
  /// the surviving node.
  void mergeSplitPieces(InterferenceGraph &G, const PdgNode *V) const;

  void spillQueueRun(std::vector<std::pair<Reg, PdgNode *>> Queue);

  /// Applies the paper's §3.1.4 spill-code insertion for \p V in region
  /// \p R: loads/stores with fresh atomic ranges at the parent level,
  /// rename + boundary loads/stores in referencing subregions, and the
  /// recursive outside-the-region fixup (stores after outside definitions
  /// that reach the region, loads before outside uses that its definitions
  /// reach). When the rewrite would be a pure rename (the register's uses
  /// are confined to subregions with no boundary traffic), defers to the
  /// owning subregions via \p Deferred instead. Returns true if code
  /// changed.
  bool trySpill(Reg V, PdgNode *R,
                std::vector<std::pair<Reg, PdgNode *>> &Deferred);

  /// Interrupts \p V's live range at every reference in the function (the
  /// fixpoint of the paper's outside-the-region recursion). Used for
  /// registers that are live across a region but referenced elsewhere — the
  /// paper's "first candidates for spilling" — whose pressure cannot be
  /// relieved by local rewrites.
  bool spillEverywhere(Reg V);

  void renameInSubtree(PdgNode *S, Reg OldReg, Reg NewReg);
  int slotOf(Reg V);

  /// Raises AllocError(ResourceLimit) once the wall-clock budget
  /// (Options.MaxAllocSeconds) is spent. Checked at round boundaries.
  void checkTimeBudget(int Region);

  IlocFunction &F;
  AllocOptions Options;
  AllocStats Stats;

  /// This run's fault-injection state (disarmed unless a plan names us).
  FaultInjector Injector;
  std::chrono::steady_clock::time_point StartTime;

  std::unique_ptr<CodeInfo> CI;
  std::unique_ptr<RefInfo> Refs;

  /// Combined interference graphs of completed regions. Non-loop entries
  /// are erased when their parent completes; loop graphs persist for spill
  /// movement (paper §3.1.5).
  std::map<const PdgNode *, InterferenceGraph> SavedGraphs;

  /// Registers already spilled per region (Figure 5's "spilled in V").
  std::map<const PdgNode *, std::set<Reg>> SpilledIn;

  /// Regions whose allocRegion loop is currently on the call stack; dirty
  /// re-allocation never targets these.
  std::set<const PdgNode *> InProgress;

  /// Spill slot of each origin register (indexed by origin; -1 = none yet).
  std::vector<int> SlotOf;
  bool hasSlot(Reg Origin) const {
    return Origin < SlotOf.size() && SlotOf[Origin] >= 0;
  }
  RegFlags GloballySpilled;
  std::set<Reg> ParamStoreDone;

  /// Registers whose references were edited since the last refresh(). Spill
  /// rewrites touch only the spilled register and fresh no-spill
  /// temporaries, so the CodeInfo/RefInfo snapshot remains valid for every
  /// other register; the spill queue refreshes lazily, only when the entry
  /// being processed names an edited register.
  std::set<Reg> EditedSinceRefresh;

  /// The function-entry stores that park spilled parameters. They must read
  /// the incoming register itself, so later spill rewrites of the same
  /// parameter skip them.
  std::map<Reg, Instr *> ParamStores;

  /// Atomic live ranges created by spill rewrites. Spilling them again can
  /// never help, so they carry infinite cost (above the paper's 999999 for
  /// merely-unprofitable nodes) and trySpill skips them.
  RegFlags NoSpill;

  /// Spill rewrites split a register into renamed per-subregion pieces and
  /// atomic temporaries. All pieces map back to the original register here
  /// (indexed by piece; NoReg, or past the end, for an unsplit register);
  /// the paper treats them as *the same virtual register*, so region graphs
  /// merge their nodes ("since these nodes represent the same virtual
  /// register, they are combined in the parent's interference graph",
  /// §3.1.1) — which is also what lets phase 2 move their loads as one.
  std::vector<Reg> OriginOf;

  /// The original register \p R descends from (identity when unsplit).
  Reg originOf(Reg R) const {
    return R < OriginOf.size() && OriginOf[R] != NoReg ? OriginOf[R] : R;
  }

  /// A fresh register for a piece of \p V (an atomic spill temporary when
  /// \p Atomic).
  Reg newPieceOf(Reg V, bool Atomic);

  /// Origins whose pieces must stay in separate nodes: merging them
  /// produced a node that could neither color nor spill (no single color
  /// suits every piece), so the unit-allocation preference is abandoned for
  /// them.
  RegFlags NoMergeOrigins;

  /// True if \p R (descended from \p Origin) belongs to a split register.
  bool isPiece(Reg R, Reg Origin) const {
    return Origin != R || hasSlot(Origin);
  }
  /// True if \p R is a piece whose node may merge with the other pieces'
  /// nodes (see mergeSplitPieces).
  bool mergesAsPiece(Reg R, Reg Origin) const {
    return isPiece(R, Origin) && !NoMergeOrigins.test(Origin);
  }

  /// The lazily built editor every phase-1 spill action inserts through.
  /// Its owner map stays exact across actions: phase-1 edits are its own
  /// insertions and in-place renames, which move no instruction.
  CodeEditor &editor();
  std::unique_ptr<CodeEditor> Editor;

  unsigned TotalSpillActions = 0;
};

} // namespace rap

#endif // RAP_REGALLOC_RAP_H
