//===- regalloc/AllocSupport.cpp - Shared allocator utilities --------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/AllocSupport.h"

#include "regalloc/AllocError.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace rap;

Liveness CodeInfo::timedLiveness(CodeInfo &CI, unsigned NumVRegs,
                                 Liveness *Prev) {
  auto Start = std::chrono::steady_clock::now();
  Liveness L(CI.Code, CI.Graph, NumVRegs, Prev);
  CI.LivenessSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return L;
}

RefInfo::RefInfo(const LinearCode &Code, unsigned NumVRegs) {
  unsigned E = static_cast<unsigned>(Code.Instrs.size());

  // Counting sort into CSR form: count per register, prefix-sum, then place
  // each position. The forward walk keeps positions ascending per register,
  // and an instruction using a register twice contributes one use position.
  UseStart.assign(NumVRegs + 1, 0);
  DefStart.assign(NumVRegs + 1, 0);
  auto FirstUseInInstr = [](const Instr *I, size_t J) {
    for (size_t K = 0; K != J; ++K)
      if (I->Src[K] == I->Src[J])
        return false;
    return true;
  };
  for (unsigned P = 0; P != E; ++P) {
    const Instr *I = Code.Instrs[P];
    for (size_t J = 0; J != I->Src.size(); ++J)
      if (FirstUseInInstr(I, J))
        ++UseStart[I->Src[J] + 1];
    if (I->hasDef())
      ++DefStart[I->Dst + 1];
  }
  for (unsigned R = 0; R != NumVRegs; ++R) {
    UseStart[R + 1] += UseStart[R];
    DefStart[R + 1] += DefStart[R];
  }
  UsePos.resize(UseStart[NumVRegs]);
  DefPos.resize(DefStart[NumVRegs]);
  std::vector<unsigned> UseNext(UseStart.begin(), UseStart.end() - 1);
  std::vector<unsigned> DefNext(DefStart.begin(), DefStart.end() - 1);
  for (unsigned P = 0; P != E; ++P) {
    const Instr *I = Code.Instrs[P];
    for (size_t J = 0; J != I->Src.size(); ++J)
      if (FirstUseInInstr(I, J))
        UsePos[UseNext[I->Src[J]]++] = P;
    if (I->hasDef())
      DefPos[DefNext[I->Dst]++] = P;
  }
}

static bool anyWithin(PosSpan Sorted, unsigned Begin, unsigned End) {
  auto It = std::lower_bound(Sorted.begin(), Sorted.end(), Begin);
  return It != Sorted.end() && *It < End;
}

bool RefInfo::usedWithin(Reg R, unsigned Begin, unsigned End) const {
  return anyWithin(usePositions(R), Begin, End);
}

bool RefInfo::definedWithin(Reg R, unsigned Begin, unsigned End) const {
  return anyWithin(defPositions(R), Begin, End);
}

//===----------------------------------------------------------------------===//
// CodeEditor
//===----------------------------------------------------------------------===//

CodeEditor::CodeEditor(IlocFunction &F)
    : F(F), Owners(F.numInstrIds(), Owner{}) {
  F.root()->forEachNode([&](const PdgNode *N) {
    if (!N->isStatement() && !N->isPredicate())
      return;
    auto *MutN = const_cast<PdgNode *>(N);
    for (Instr *I : N->Code)
      Owners[I->Id] = Owner{MutN, false};
    if (N->isPredicate() && N->Branch)
      Owners[N->Branch->Id] = Owner{MutN, true};
  });
}

CodeEditor::Owner CodeEditor::ownerOf(Instr *I) const {
  allocCheck(I->Id < Owners.size() && Owners[I->Id].N,
             AllocErrorKind::InvariantViolation,
             "anchor instruction not found in region tree");
  return Owners[I->Id];
}

void CodeEditor::setOwner(Instr *I, Owner O) {
  // Fresh spill instructions get ids past the refresh-time arena size.
  if (I->Id >= Owners.size())
    Owners.resize(I->Id + 1, Owner{});
  Owners[I->Id] = O;
}

void CodeEditor::insertBefore(Instr *Anchor, Instr *NewI) {
  Owner O = ownerOf(Anchor);
  if (O.IsBranch) {
    // The branch consumes the end of the predicate's condition code.
    O.N->Code.push_back(NewI);
  } else {
    auto It = std::find(O.N->Code.begin(), O.N->Code.end(), Anchor);
    allocCheck(It != O.N->Code.end(), AllocErrorKind::InvariantViolation,
               "owner map out of date");
    O.N->Code.insert(It, NewI);
  }
  setOwner(NewI, Owner{O.N, false});
}

void CodeEditor::insertAfter(Instr *Anchor, Instr *NewI) {
  Owner O = ownerOf(Anchor);
  allocCheck(!O.IsBranch, AllocErrorKind::InvariantViolation,
             "cannot insert after a branch");
  auto It = std::find(O.N->Code.begin(), O.N->Code.end(), Anchor);
  allocCheck(It != O.N->Code.end(), AllocErrorKind::InvariantViolation,
             "owner map out of date");
  O.N->Code.insert(It + 1, NewI);
  setOwner(NewI, Owner{O.N, false});
}

void CodeEditor::insertAtRegionEntry(PdgNode *V, Instr *NewI) {
  allocCheck(V->isRegion(), AllocErrorKind::InvariantViolation,
             "spill node insertion needs a region");
  PdgNode *S = F.createNode(PdgNodeKind::Statement);
  S->Parent = V;
  S->Code.push_back(NewI);
  V->Children.insert(V->Children.begin(), S);
  setOwner(NewI, Owner{S, false});
}

void CodeEditor::insertAtRegionExit(PdgNode *V, Instr *NewI) {
  allocCheck(V->isRegion(), AllocErrorKind::InvariantViolation,
             "spill node insertion needs a region");
  PdgNode *S = F.createNode(PdgNodeKind::Statement);
  S->Parent = V;
  S->Code.push_back(NewI);
  V->Children.push_back(S);
  setOwner(NewI, Owner{S, false});
}
