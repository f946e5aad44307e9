//===- tests/oracles/ControlDependence.cpp - FOW control dependence -------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "oracles/ControlDependence.h"

#include <algorithm>
#include <cassert>

using namespace rap;

ControlDependence::ControlDependence(const Cfg &G,
                                     const DominatorTree &PostDom) {
  assert(PostDom.isPostDom() && "control dependence needs postdominators");
  unsigned N = G.numBlocks();
  Deps.assign(N, {});

  // For every CFG edge A -> S where S does not postdominate A, walk the
  // postdominator tree from S up to (but excluding) ipostdom(A); every block
  // visited is control dependent on the edge.
  for (unsigned A = 0; A != N; ++A) {
    for (unsigned S : G.block(A).Succs) {
      if (PostDom.dominates(S, A))
        continue;
      int Stop = PostDom.idom(A); // may be the virtual exit
      int Cur = static_cast<int>(S);
      while (Cur >= 0 && Cur != Stop &&
             static_cast<unsigned>(Cur) != PostDom.root()) {
        Deps[Cur].push_back(ControlDep{A, S});
        Cur = PostDom.idom(static_cast<unsigned>(Cur));
      }
    }
  }

  for (auto &D : Deps) {
    std::sort(D.begin(), D.end());
    D.erase(std::unique(D.begin(), D.end()), D.end());
  }
}
