//===- pdg/DataDependence.h - Flow dependences ------------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register flow (def-use) dependences over the linearized ILOC. These are
/// the data dependence edges of the PDG (paper §2.2, Figure 1 — including
/// the cyclic self-dependence of `i = i + 1` inside a loop). The whole-
/// function set comes from a classic reaching-definitions dataflow and feeds
/// the DOT export; RAP's outside-the-region spill fixup (paper §3.1.4) asks
/// for one register at a time through the sparse flowDepsFor.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_PDG_DATADEPENDENCE_H
#define RAP_PDG_DATADEPENDENCE_H

#include "cfg/Cfg.h"
#include "ir/Linearize.h"

#include <span>
#include <vector>

namespace rap {

/// A flow dependence: the value defined at instruction position DefPos
/// reaches the use at position UsePos of register R.
struct FlowDep {
  unsigned DefPos = 0;
  unsigned UsePos = 0;
  Reg R = NoReg;

  bool operator<(const FlowDep &O) const {
    if (DefPos != O.DefPos)
      return DefPos < O.DefPos;
    if (UsePos != O.UsePos)
      return UsePos < O.UsePos;
    return R < O.R;
  }
  bool operator==(const FlowDep &O) const {
    return DefPos == O.DefPos && UsePos == O.UsePos && R == O.R;
  }
};

class DataDependence {
public:
  DataDependence(const LinearCode &Code, const Cfg &G, unsigned NumVRegs);

  /// All flow dependences, sorted by (def, use).
  const std::vector<FlowDep> &flowDeps() const { return Flows; }

  /// The flow dependences of the single register \p R, sorted by (def, use),
  /// given R's definition and use positions in \p G's linearization (each
  /// ascending and distinct, as RefInfo stores them). A use pairs with the
  /// nearest earlier def in its own block; otherwise a backward walk from
  /// its block takes the last def of each block that defines R and stops
  /// that path there. The cost follows R's references and the blocks its
  /// values pass through, not the size of the function.
  static std::vector<FlowDep> flowDepsFor(const Cfg &G, Reg R,
                                          std::span<const unsigned> Defs,
                                          std::span<const unsigned> Uses);

private:
  std::vector<FlowDep> Flows;
};

} // namespace rap

#endif // RAP_PDG_DATADEPENDENCE_H
