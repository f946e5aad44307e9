//===- pdg/SeriesParallel.cpp - Series-parallel region decomposition --------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "pdg/SeriesParallel.h"

#include "ir/RegionTree.h"

using namespace rap;

SeriesParallelDecomposition::SeriesParallelDecomposition(PdgNode *Root) {
  build(Root);
}

unsigned SeriesParallelDecomposition::build(PdgNode *Region) {
  // Children first: postorder indices must match the sequential bottom-up
  // allocator, which finishes every subregion before its parent.
  std::vector<PdgNode *> Subs = Region->subregions();
  std::vector<unsigned> ChildIdx;
  ChildIdx.reserve(Subs.size());
  unsigned Instrs = 0;
  for (PdgNode *Sub : Subs) {
    unsigned C = build(Sub);
    ChildIdx.push_back(C);
    Instrs += Nodes[C].SubtreeInstrs;
  }

  // Instructions attached at this region's own level (statement leaves and
  // predicate condition/branch code directly below it).
  Instrs += static_cast<unsigned>(Region->parentCode().size());

  SPNode N;
  N.Region = Region;
  N.Index = static_cast<unsigned>(Nodes.size());
  N.Children = std::move(ChildIdx);
  N.SubtreeInstrs = Instrs;
  N.IsLoop = Region->IsLoop;
  for (unsigned C : N.Children)
    Nodes[C].Parent = static_cast<int>(N.Index);
  Nodes.push_back(std::move(N));
  return Nodes.back().Index;
}
