//===- tests/oracles/ControlDependence.h - FOW CD ---------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control dependence computed from the CFG with the Ferrante / Ottenstein /
/// Warren construction (paper ref [16]): block B is control dependent on
/// edge A->S iff B postdominates S but does not postdominate A. For our
/// structured MiniC programs the resulting dependence sets are nested, and
/// tests cross-check them against the syntax-directed region tree built by
/// lowering; the analysis itself is general and handles any reducible or
/// irreducible CFG with reachable exits.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_TESTS_ORACLES_CONTROLDEPENDENCE_H
#define RAP_TESTS_ORACLES_CONTROLDEPENDENCE_H

#include "cfg/Cfg.h"
#include "oracles/Dominators.h"

#include <vector>

namespace rap {

/// One control-dependence fact: the dependent block executes only when the
/// branch terminating block Controller takes the edge to EdgeTarget.
struct ControlDep {
  unsigned Controller = 0;
  unsigned EdgeTarget = 0;

  bool operator==(const ControlDep &O) const {
    return Controller == O.Controller && EdgeTarget == O.EdgeTarget;
  }
  bool operator<(const ControlDep &O) const {
    return Controller != O.Controller ? Controller < O.Controller
                                      : EdgeTarget < O.EdgeTarget;
  }
};

class ControlDependence {
public:
  ControlDependence(const Cfg &G, const DominatorTree &PostDom);

  /// The control-dependence set of \p Block, sorted.
  const std::vector<ControlDep> &depsOf(unsigned Block) const {
    return Deps[Block];
  }

private:
  std::vector<std::vector<ControlDep>> Deps;
};

} // namespace rap

#endif // RAP_TESTS_ORACLES_CONTROLDEPENDENCE_H
