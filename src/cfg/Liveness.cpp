//===- cfg/Liveness.cpp - Per-instruction liveness --------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "cfg/Liveness.h"

#include "support/Env.h"

#include <algorithm>
#include <cassert>

using namespace rap;

namespace {
bool verifyLivenessEnv() {
  static const bool V = env::flag("RAP_VERIFY_LIVENESS");
  return V;
}
} // namespace

void Liveness::computeBlockSets(const LinearCode &Code, const Cfg &G,
                                unsigned NumVRegs) {
  unsigned NumBlocks = G.numBlocks();
  Use.assign(NumBlocks, BitVector(NumVRegs));
  Def.assign(NumBlocks, BitVector(NumVRegs));
  Succs.resize(NumBlocks);
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = G.block(B);
    for (unsigned P = BB.Begin; P != BB.End; ++P) {
      const Instr *I = Code.Instrs[P];
      for (Reg R : I->Src)
        if (!Def[B].test(R))
          Use[B].set(R);
      if (I->hasDef())
        Def[B].set(I->Dst);
    }
    Succs[B] = BB.Succs;
  }
}

void Liveness::solve(const Cfg &G) {
  unsigned NumBlocks = G.numBlocks();
  BitVector NewOut(Use.empty() ? 0 : Use[0].size());
  BitVector NewIn(NewOut.size());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned BI = NumBlocks; BI-- > 0;) {
      NewOut.clear();
      for (unsigned S : G.block(BI).Succs)
        NewOut.unionWith(In[S]);
      NewIn = NewOut;
      NewIn.subtract(Def[BI]);
      NewIn.unionWith(Use[BI]);
      if (NewOut != Out[BI] || NewIn != In[BI]) {
        Out[BI] = NewOut;
        In[BI] = NewIn;
        Changed = true;
      }
    }
  }
}

void Liveness::refine(const LinearCode &Code, const Cfg &G,
                      unsigned NumVRegs) {
  unsigned N = static_cast<unsigned>(Code.Instrs.size());
  // Recycle per-position sets scavenged from a consumed previous solution
  // (see the incremental constructor): vector::assign would reallocate
  // every element once the position count grows past the old capacity, so
  // reshape the survivors in place and only construct the tail.
  auto Reshape = [NumVRegs](std::vector<BitVector> &V, unsigned Count) {
    if (V.size() > Count)
      V.resize(Count);
    for (BitVector &B : V)
      B.resetUniverse(NumVRegs);
    V.reserve(Count);
    while (V.size() < Count)
      V.emplace_back(NumVRegs);
  };
  Reshape(Before, N + 1);
  Reshape(After, N);
  BitVector Live;
  MaxLive = 0;
  for (unsigned B = 0, E = G.numBlocks(); B != E; ++B) {
    const BasicBlock &BB = G.block(B);
    Live = Out[B];
    // The live count follows the transfer function's bit flips, so a block
    // costs one popcount rather than one per position.
    unsigned Count = Live.count();
    for (unsigned P = BB.End; P-- > BB.Begin;) {
      const Instr *I = Code.Instrs[P];
      After[P] = Live;
      if (I->hasDef() && Live.test(I->Dst)) {
        Live.reset(I->Dst);
        --Count;
      }
      for (Reg R : I->Src)
        if (!Live.test(R)) {
          Live.set(R);
          ++Count;
        }
      Before[P] = Live;
      MaxLive = std::max(MaxLive, Count);
    }
    assert(Live == In[B] && "per-instruction refinement disagrees with "
                            "block-level dataflow");
  }
}

bool Liveness::sameShape(const Liveness &Prev, const Cfg &G) const {
  if (Prev.Succs.size() != G.numBlocks())
    return false;
  for (unsigned B = 0, E = G.numBlocks(); B != E; ++B)
    if (Prev.Succs[B] != G.block(B).Succs)
      return false;
  return true;
}

Liveness::Liveness(const LinearCode &Code, const Cfg &G, unsigned NumVRegs) {
  computeBlockSets(Code, G, NumVRegs);
  In.assign(G.numBlocks(), BitVector(NumVRegs));
  Out.assign(G.numBlocks(), BitVector(NumVRegs));
  solve(G);
  refine(Code, G, NumVRegs);
}

Liveness::Liveness(const LinearCode &Code, const Cfg &G, unsigned NumVRegs,
                   Liveness *Prev) {
  computeBlockSets(Code, G, NumVRegs);
  unsigned NumBlocks = G.numBlocks();
  if (Prev && sameShape(*Prev, G)) {
    // Liveness is independent per register bit: a register whose use/def
    // bits are identical in every block (over unchanged CFG edges) has the
    // same equations as before, so its old In/Out bits are already the
    // least fixpoint. Only registers with changed equations — including
    // every register created since Prev, whose old bits are zero — restart
    // from bottom; the fixpoint then re-converges in O(changed) work.
    BitVector ChangedRegs(NumVRegs);
    for (unsigned B = 0; B != NumBlocks; ++B) {
      ChangedRegs.unionWithXorOf(Use[B], Prev->Use[B]);
      ChangedRegs.unionWithXorOf(Def[B], Prev->Def[B]);
    }
    In = std::move(Prev->In);
    Out = std::move(Prev->Out);
    for (unsigned B = 0; B != NumBlocks; ++B) {
      In[B].growTo(NumVRegs);
      Out[B].growTo(NumVRegs);
      In[B].subtract(ChangedRegs);
      Out[B].subtract(ChangedRegs);
    }
    WarmStarted = true;
  } else {
    In.assign(NumBlocks, BitVector(NumVRegs));
    Out.assign(NumBlocks, BitVector(NumVRegs));
  }
  if (Prev) {
    // Scavenge the consumed solution's per-position buffers; refine()'s
    // assign() then mostly reuses their heap storage instead of
    // reallocating ~2 bitsets per instruction on every spill round.
    Before = std::move(Prev->Before);
    After = std::move(Prev->After);
  }
  solve(G);
  refine(Code, G, NumVRegs);

  if (WarmStarted && verifyLivenessEnv()) {
    Liveness Cold(Code, G, NumVRegs);
    if (!(*this == Cold)) {
      assert(false && "incremental liveness diverged from cold recompute");
      std::abort(); // keep the check meaningful even if NDEBUG sneaks in
    }
  }
}
