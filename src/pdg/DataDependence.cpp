//===- pdg/DataDependence.cpp - Flow dependences ---------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "pdg/DataDependence.h"

#include "support/BitVector.h"

#include <algorithm>

using namespace rap;

DataDependence::DataDependence(const LinearCode &Code, const Cfg &G,
                               unsigned NumVRegs) {
  unsigned N = static_cast<unsigned>(Code.Instrs.size());

  // Number the definitions.
  std::vector<unsigned> DefPosOfId;   // def id -> instruction position
  std::vector<int> DefIdOfPos(N, -1); // instruction position -> def id
  std::vector<std::vector<unsigned>> DefsOfReg(NumVRegs);
  for (unsigned P = 0; P != N; ++P) {
    const Instr *I = Code.Instrs[P];
    if (!I->hasDef())
      continue;
    unsigned Id = static_cast<unsigned>(DefPosOfId.size());
    DefIdOfPos[P] = static_cast<int>(Id);
    DefPosOfId.push_back(P);
    DefsOfReg[I->Dst].push_back(Id);
  }
  unsigned NumDefs = static_cast<unsigned>(DefPosOfId.size());

  // Block-level gen/kill.
  unsigned NumBlocks = G.numBlocks();
  std::vector<BitVector> Gen(NumBlocks, BitVector(NumDefs));
  std::vector<BitVector> Kill(NumBlocks, BitVector(NumDefs));
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = G.block(B);
    for (unsigned P = BB.Begin; P != BB.End; ++P) {
      const Instr *I = Code.Instrs[P];
      if (!I->hasDef())
        continue;
      for (unsigned Other : DefsOfReg[I->Dst]) {
        Gen[B].reset(Other);
        Kill[B].set(Other);
      }
      Gen[B].set(static_cast<unsigned>(DefIdOfPos[P]));
    }
  }

  // Forward fixpoint.
  std::vector<BitVector> In(NumBlocks, BitVector(NumDefs));
  std::vector<BitVector> Out(NumBlocks, BitVector(NumDefs));
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = 0; B != NumBlocks; ++B) {
      BitVector NewIn(NumDefs);
      for (unsigned P : G.block(B).Preds)
        NewIn.unionWith(Out[P]);
      BitVector NewOut = NewIn;
      NewOut.subtract(Kill[B]);
      NewOut.unionWith(Gen[B]);
      if (NewIn != In[B] || NewOut != Out[B]) {
        In[B] = std::move(NewIn);
        Out[B] = std::move(NewOut);
        Changed = true;
      }
    }
  }

  // Walk each block forward, pairing uses with their reaching definitions.
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = G.block(B);
    BitVector Reach = In[B];
    for (unsigned P = BB.Begin; P != BB.End; ++P) {
      const Instr *I = Code.Instrs[P];
      for (Reg R : I->Src)
        for (unsigned DefId : DefsOfReg[R])
          if (Reach.test(DefId))
            Flows.push_back(FlowDep{DefPosOfId[DefId], P, R});
      if (I->hasDef()) {
        for (unsigned Other : DefsOfReg[I->Dst])
          Reach.reset(Other);
        Reach.set(static_cast<unsigned>(DefIdOfPos[P]));
      }
    }
  }

  std::sort(Flows.begin(), Flows.end());
  Flows.erase(std::unique(Flows.begin(), Flows.end()), Flows.end());
}

std::vector<FlowDep>
DataDependence::flowDepsFor(const Cfg &G, Reg R,
                            std::span<const unsigned> Defs,
                            std::span<const unsigned> Uses) {
  std::vector<FlowDep> Flows;
  if (Defs.empty())
    return Flows;

  // The last def of R in block B before position Before, if any. Blocks are
  // contiguous position ranges, so this is one binary search over Defs.
  constexpr unsigned None = ~0u;
  auto lastDefBefore = [&](unsigned B, unsigned Before) {
    auto It = std::lower_bound(Defs.begin(), Defs.end(), Before);
    if (It == Defs.begin() || *(It - 1) < G.block(B).Begin)
      return None;
    return *(It - 1);
  };

  // Defs reaching the entry of the current use block: walk predecessors
  // backward, stopping each path at the first block that defines R. Each
  // block is visited once per use block.
  BitVector Visited(G.numBlocks());
  std::vector<unsigned> Walk, VisitedList, EntryDefs;
  auto reachEntry = [&](unsigned B) {
    EntryDefs.clear();
    auto visitPreds = [&](unsigned X) {
      for (unsigned P : G.block(X).Preds)
        if (!Visited.test(P)) {
          Visited.set(P);
          VisitedList.push_back(P);
          Walk.push_back(P);
        }
    };
    visitPreds(B);
    while (!Walk.empty()) {
      unsigned X = Walk.back();
      Walk.pop_back();
      unsigned D = lastDefBefore(X, G.block(X).End);
      if (D != None)
        EntryDefs.push_back(D);
      else
        visitPreds(X);
    }
    for (unsigned X : VisitedList)
      Visited.reset(X);
    VisitedList.clear();
  };

  // Uses ascend, and so do blocks, so the uses of one block are adjacent.
  unsigned EntryBlock = None;
  for (unsigned P : Uses) {
    unsigned B = G.blockOf(P);
    unsigned D = lastDefBefore(B, P);
    if (D != None) {
      Flows.push_back(FlowDep{D, P, R});
      continue;
    }
    if (B != EntryBlock) {
      reachEntry(B);
      EntryBlock = B;
    }
    for (unsigned E : EntryDefs)
      Flows.push_back(FlowDep{E, P, R});
  }

  std::sort(Flows.begin(), Flows.end());
  return Flows;
}
