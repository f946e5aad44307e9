//===- regalloc/AllocSupport.h - Shared allocator utilities -----*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Utilities shared by GRA and RAP: the analysis bundle recomputed after
/// every code edit (linearization, CFG, liveness), per-register reference
/// maps, and spill-code insertion into the region tree.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_ALLOCSUPPORT_H
#define RAP_REGALLOC_ALLOCSUPPORT_H

#include "cfg/Cfg.h"
#include "cfg/Liveness.h"
#include "ir/IlocFunction.h"
#include "ir/Linearize.h"

#include <span>
#include <vector>

namespace rap {

/// Linearization + CFG + liveness of one function. Invalidated by any code
/// edit; allocators rebuild it after each spill round — passing the stale
/// CodeInfo so the liveness fixpoint warm-starts from the previous solution
/// instead of solving from scratch (see Liveness).
struct CodeInfo {
  LinearCode Code;
  Cfg Graph;
  double LivenessSeconds = 0; ///< wall time of the Liveness construction
  Liveness Live;

  /// \p Prev is consumed (its liveness buffers are scavenged and its
  /// linearization vectors reused); callers replace the old CodeInfo with
  /// this one immediately after.
  explicit CodeInfo(IlocFunction &F, CodeInfo *Prev = nullptr)
      : Code(relinearized(F, Prev)), Graph(Code),
        Live(timedLiveness(*this, F.numVRegs(),
                           Prev ? &Prev->Live : nullptr)) {}

private:
  static Liveness timedLiveness(CodeInfo &CI, unsigned NumVRegs,
                                Liveness *Prev);

  /// Relinearizes \p F, scavenging the previous round's vectors.
  static LinearCode relinearized(IlocFunction &F, CodeInfo *Prev) {
    LinearCode Out = Prev ? std::move(Prev->Code) : LinearCode();
    linearize(F, Out);
    return Out;
  }
};

/// A view of consecutive linear positions (ascending) in RefInfo's flat
/// storage.
using PosSpan = std::span<const unsigned>;

/// Use/def positions per virtual register over one linearization. Stored in
/// compressed-sparse-row form — two flat arrays, not one heap vector per
/// register — because a RefInfo is rebuilt on every refresh after a spill.
class RefInfo {
public:
  RefInfo(const LinearCode &Code, unsigned NumVRegs);

  PosSpan usePositions(Reg R) const {
    return {UsePos.data() + UseStart[R], UsePos.data() + UseStart[R + 1]};
  }
  PosSpan defPositions(Reg R) const {
    return {DefPos.data() + DefStart[R], DefPos.data() + DefStart[R + 1]};
  }

  bool isReferenced(Reg R) const {
    return !usePositions(R).empty() || !defPositions(R).empty();
  }

  /// True if every reference of \p R lies in the linear range
  /// [\p Begin, \p End) — i.e. R is *local* to the region covering that
  /// range (paper §3.1). O(1): positions are sorted, so only the first and
  /// last of each list are checked.
  bool allRefsWithin(Reg R, unsigned Begin, unsigned End) const {
    return allWithin(usePositions(R), Begin, End) &&
           allWithin(defPositions(R), Begin, End);
  }

  /// True if some use/def of \p R lies in [\p Begin, \p End).
  bool usedWithin(Reg R, unsigned Begin, unsigned End) const;
  bool definedWithin(Reg R, unsigned Begin, unsigned End) const;
  bool referencedWithin(Reg R, unsigned Begin, unsigned End) const {
    return usedWithin(R, Begin, End) || definedWithin(R, Begin, End);
  }

private:
  static bool allWithin(PosSpan Sorted, unsigned Begin, unsigned End) {
    return Sorted.empty() || (Sorted.front() >= Begin && Sorted.back() < End);
  }

  /// CSR layout: positions of register R occupy [Start[R], Start[R+1]) of
  /// the flat position array, ascending within each register.
  std::vector<unsigned> UseStart, DefStart;
  std::vector<unsigned> UsePos, DefPos;
};

/// Edits ILOC attached to a function's region tree: locates an
/// instruction's owning code vector and inserts spill code around it or at
/// region boundaries. Anchors must exist in the tree. Construction walks the
/// tree once to map each instruction to its owner; the editor keeps the map
/// exact for its own insertions, so one editor serves any number of edits
/// as long as nothing else moves instructions between nodes (renaming
/// registers in place is fine). The owner map is indexed by the
/// function-unique instruction id, so lookups are O(1).
class CodeEditor {
public:
  explicit CodeEditor(IlocFunction &F);

  /// Inserts \p NewI immediately before \p Anchor. When the anchor is a
  /// predicate's branch, the instruction goes at the end of the predicate's
  /// condition code.
  void insertBefore(Instr *Anchor, Instr *NewI);

  /// Inserts \p NewI immediately after \p Anchor (which must not be a
  /// branch).
  void insertAfter(Instr *Anchor, Instr *NewI);

  /// Prepends a spill statement node holding \p NewI at the entry of region
  /// \p V (before the loop head for loop regions — the paper's pre-loop
  /// spill node position).
  void insertAtRegionEntry(PdgNode *V, Instr *NewI);

  /// Appends a spill statement node holding \p NewI at the exit of region
  /// \p V (after the loop for loop regions — the post-loop spill node).
  void insertAtRegionExit(PdgNode *V, Instr *NewI);

private:
  struct Owner {
    PdgNode *N = nullptr; ///< statement or predicate node
    bool IsBranch = false;
  };
  Owner ownerOf(Instr *I) const;
  void setOwner(Instr *I, Owner O);

  IlocFunction &F;
  std::vector<Owner> Owners; ///< indexed by Instr::Id
};

} // namespace rap

#endif // RAP_REGALLOC_ALLOCSUPPORT_H
