//===- ir/RegionTree.cpp - PDG region hierarchy ---------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "ir/RegionTree.h"

#include <algorithm>

using namespace rap;

std::vector<Instr *> PdgNode::parentCode() const {
  assert(isRegion() && "parentCode is a region query");
  std::vector<Instr *> Out;
  for (const PdgNode *C : Children) {
    if (C->isStatement()) {
      Out.insert(Out.end(), C->Code.begin(), C->Code.end());
      continue;
    }
    if (C->isPredicate()) {
      Out.insert(Out.end(), C->Code.begin(), C->Code.end());
      if (C->Branch)
        Out.push_back(C->Branch);
    }
  }
  return Out;
}

std::vector<PdgNode *> PdgNode::subregions() const {
  assert(isRegion() && "subregions is a region query");
  std::vector<PdgNode *> Out;
  for (const PdgNode *C : Children) {
    if (C->isRegion()) {
      Out.push_back(const_cast<PdgNode *>(C));
      continue;
    }
    if (C->isPredicate()) {
      if (C->TrueRegion)
        Out.push_back(C->TrueRegion);
      if (C->FalseRegion)
        Out.push_back(C->FalseRegion);
    }
  }
  return Out;
}

void PdgNode::eraseInstrs(const std::set<Instr *> &Dead) {
  if (Dead.empty())
    return;
  forEachNode([&](const PdgNode *CN) {
    auto *N = const_cast<PdgNode *>(CN);
    if (!N->isStatement() && !N->isPredicate())
      return;
    N->Code.erase(std::remove_if(N->Code.begin(), N->Code.end(),
                                 [&](Instr *I) { return Dead.count(I) != 0; }),
                  N->Code.end());
  });
}
