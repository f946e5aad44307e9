//===- pdg/SeriesParallel.h - Series-parallel region decomposition -*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An explicit series-parallel view of the PDG region hierarchy. The region
/// tree already *is* series-parallel — a region's subregions are control
/// siblings with no ordering constraint between their allocations, while a
/// parent's allocation is in series after all of its children — but RAP's
/// recursive walk leaves that structure implicit in the call stack. This
/// decomposition materializes it: one SPNode per region node, children in
/// subregions() order, with postorder indices that equal the completion
/// order of the classic sequential bottom-up walk.
///
/// The decomposition is what the region-parallel allocator schedules over:
/// sibling subtrees are the "parallel" composition (independent tasks), the
/// child-then-parent edge is the "series" composition (a countdown
/// dependency). Subtree sizes let the scheduler pick a task grain so tiny
/// regions don't each pay a task-dispatch round trip.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_PDG_SERIESPARALLEL_H
#define RAP_PDG_SERIESPARALLEL_H

#include <cstddef>
#include <vector>

namespace rap {

class PdgNode;

/// One region node of the series-parallel decomposition. Index is the
/// node's postorder position, which is exactly the order the sequential
/// bottom-up allocator finishes regions in — committing speculative results
/// in ascending Index order therefore reproduces the sequential schedule
/// bit for bit.
struct SPNode {
  PdgNode *Region = nullptr;
  unsigned Index = 0;         ///< postorder index; node(Index) is this node
  int Parent = -1;            ///< parent SPNode index, -1 for the root
  std::vector<unsigned> Children; ///< child indices, in subregions() order
  unsigned SubtreeInstrs = 0; ///< instructions in the whole subtree
  bool IsLoop = false;
};

/// The series-parallel decomposition of one function's region tree.
/// Immutable after construction; safe to share across threads.
class SeriesParallelDecomposition {
public:
  /// Builds the decomposition rooted at \p Root (a region node).
  explicit SeriesParallelDecomposition(PdgNode *Root);

  size_t size() const { return Nodes.size(); }
  const SPNode &node(unsigned Index) const { return Nodes[Index]; }

  /// The root region's node — always the last postorder index.
  const SPNode &root() const { return Nodes.back(); }

private:
  unsigned build(PdgNode *Region);

  std::vector<SPNode> Nodes;
};

} // namespace rap

#endif // RAP_PDG_SERIESPARALLEL_H
