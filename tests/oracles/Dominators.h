//===- tests/oracles/Dominators.h - (Post)dominator trees -------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative dominator and postdominator computation (Cooper-Harvey-Kennedy
/// style "engineered" algorithm over reverse postorder). Postdominators use
/// a virtual exit node joining all CFG exit blocks, which is required by the
/// Ferrante-Ottenstein-Warren control-dependence construction beside it.
/// Test oracle: the allocators never build dominator trees.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_TESTS_ORACLES_DOMINATORS_H
#define RAP_TESTS_ORACLES_DOMINATORS_H

#include "cfg/Cfg.h"

#include <vector>

namespace rap {

/// Immediate-dominator tree over CFG blocks.
class DominatorTree {
public:
  /// When \p Post is true, computes postdominators: the tree is rooted at a
  /// virtual exit whose id is numBlocks() (virtualRoot()).
  DominatorTree(const Cfg &G, bool Post);

  /// Immediate dominator of \p Block, or -1 for the root (and for blocks
  /// unreachable in the direction of the analysis).
  int idom(unsigned Block) const { return Idom[Block]; }

  bool isPostDom() const { return Post; }

  /// Id of the virtual root: entry block 0 for dominators, the virtual exit
  /// node for postdominators.
  unsigned root() const { return Root; }

  /// True if \p A dominates (or postdominates) \p B; reflexive.
  bool dominates(unsigned A, unsigned B) const;

private:
  bool Post;
  unsigned Root;
  std::vector<int> Idom;  ///< indexed by block id; Root's entry is -1
  std::vector<int> Depth; ///< tree depth, -1 if unreachable
};

} // namespace rap

#endif // RAP_TESTS_ORACLES_DOMINATORS_H
