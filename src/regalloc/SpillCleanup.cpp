//===- regalloc/SpillCleanup.cpp - Spill load/store cleanup -----------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/SpillCleanup.h"

#include "regalloc/AllocError.h"

#include "cfg/Cfg.h"
#include "ir/Linearize.h"
#include "support/BitVector.h"
#include "support/Stats.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

using namespace rap;

namespace {

/// Forward availability state, register-major: row R holds one bit per
/// spill slot, set when register R holds that slot's current value. A
/// register definition clears one row and a copy duplicates one, so both
/// are word fills over ceil(NumSlots / 64) words; the padding bits past
/// NumSlots in each row's last word stay zero.
class AvailState {
public:
  AvailState(unsigned NumSlots, unsigned K)
      : RowWords((NumSlots + 63) / 64), Words(size_t(K) * RowWords, 0) {}

  static AvailState top(unsigned NumSlots, unsigned K) {
    AvailState S(NumSlots, K);
    std::fill(S.Words.begin(), S.Words.end(), ~uint64_t(0));
    if (unsigned Tail = NumSlots % 64)
      for (unsigned R = 0; R != K; ++R)
        S.row(R)[S.RowWords - 1] = (uint64_t(1) << Tail) - 1;
    return S;
  }

  bool has(int Slot, Reg R) const {
    return (row(R)[Slot / 64] >> (Slot % 64)) & 1;
  }
  void add(int Slot, Reg R) { row(R)[Slot / 64] |= uint64_t(1) << (Slot % 64); }

  void killReg(Reg R) { std::fill_n(row(R), RowWords, 0); }
  void killSlot(int Slot) {
    for (size_t W = Slot / 64; W < Words.size(); W += RowWords)
      Words[W] &= ~(uint64_t(1) << (Slot % 64));
  }

  /// Copy `Dst = Src`: Dst now holds whatever slots Src holds.
  void copy(Reg Dst, Reg Src) {
    if (Dst != Src)
      std::copy_n(row(Src), RowWords, row(Dst));
  }

  void meet(const AvailState &Other) {
    for (size_t W = 0; W != Words.size(); ++W)
      Words[W] &= Other.Words[W];
  }
  bool operator==(const AvailState &O) const { return Words == O.Words; }

  /// Applies \p I's effect.
  void transfer(const Instr *I) {
    switch (I->Op) {
    case Opcode::LdSpill:
      killReg(I->Dst);
      add(I->Slot, I->Dst);
      return;
    case Opcode::StSpill:
      killSlot(I->Slot);
      add(I->Slot, I->Src[0]);
      return;
    case Opcode::Mv:
      copy(I->Dst, I->Src[0]);
      return;
    default:
      if (I->hasDef())
        killReg(I->Dst);
      return;
    }
  }

private:
  uint64_t *row(Reg R) { return Words.data() + size_t(R) * RowWords; }
  const uint64_t *row(Reg R) const {
    return Words.data() + size_t(R) * RowWords;
  }

  size_t RowWords;
  std::vector<uint64_t> Words;
};

/// Block entry facts of the forward availability dataflow: a register holds
/// a slot's value on entry to a block if it does at the end of every
/// predecessor. Nothing is available at function entry.
std::vector<AvailState> availableAtEntry(const LinearCode &Code, const Cfg &G,
                                         unsigned NumSlots, unsigned K) {
  unsigned NB = G.numBlocks();
  std::vector<AvailState> In(NB, AvailState::top(NumSlots, K));
  std::vector<AvailState> Out(NB, AvailState::top(NumSlots, K));
  In[0] = AvailState(NumSlots, K);

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = 0; B != NB; ++B) {
      if (B != 0) {
        const std::vector<unsigned> &Preds = G.block(B).Preds;
        AvailState NewIn =
            Preds.empty() ? AvailState(NumSlots, K) : Out[Preds.front()];
        for (size_t I = 1; I < Preds.size(); ++I)
          NewIn.meet(Out[Preds[I]]);
        if (!(NewIn == In[B])) {
          In[B] = std::move(NewIn);
          Changed = true;
        }
      }
      AvailState S = In[B];
      for (unsigned P = G.block(B).Begin; P != G.block(B).End; ++P)
        S.transfer(Code.Instrs[P]);
      if (!(S == Out[B])) {
        Out[B] = std::move(S);
        Changed = true;
      }
    }
  }
  return In;
}

/// Deletes reloads of values already held in registers, turns reloads of
/// values held elsewhere into copies, and deletes stores of values the slot
/// already holds. With \p Local every block starts from "nothing
/// available" (Figure 6's scope); otherwise from the dataflow entry facts.
SpillCleanupResult availableReloadPass(IlocFunction &F, bool Local) {
  SpillCleanupResult Res;
  unsigned NumSlots = static_cast<unsigned>(F.numSpillSlots());
  unsigned K = F.numPhysRegs();
  if (NumSlots == 0)
    return Res;

  LinearCode Code = linearize(F);
  if (Code.Instrs.empty())
    return Res;
  Cfg G(Code);
  std::vector<AvailState> In;
  if (!Local)
    In = availableAtEntry(Code, G, NumSlots, K);

  std::set<Instr *> Dead;
  for (unsigned B = 0; B != G.numBlocks(); ++B) {
    AvailState S = Local ? AvailState(NumSlots, K) : In[B];
    for (unsigned P = G.block(B).Begin; P != G.block(B).End; ++P) {
      Instr *I = Code.Instrs[P];
      if (I->Op == Opcode::LdSpill) {
        if (S.has(I->Slot, I->Dst)) {
          Dead.insert(I);
          ++Res.RemovedLoads;
          continue; // no transfer: the load was a no-op on the state
        }
        for (unsigned R = 0; R != K; ++R)
          if (S.has(I->Slot, R)) {
            I->Op = Opcode::Mv;
            I->Src = {R};
            I->Slot = -1;
            ++Res.LoadsToCopies;
            break;
          }
      } else if (I->Op == Opcode::StSpill &&
                 S.has(I->Slot, I->Src[0])) {
        Dead.insert(I);
        ++Res.RemovedStores;
        continue;
      }
      S.transfer(I);
    }
  }
  F.root()->eraseInstrs(Dead);
  return Res;
}

/// Deletes stores to spill slots that are never read again (slots die with
/// the activation frame).
unsigned deadStorePass(IlocFunction &F) {
  unsigned NumSlots = static_cast<unsigned>(F.numSpillSlots());
  if (NumSlots == 0)
    return 0;
  LinearCode Code = linearize(F);
  if (Code.Instrs.empty())
    return 0;
  Cfg G(Code);
  unsigned NB = G.numBlocks();

  // Backward liveness of slots.
  std::vector<BitVector> LiveIn(NB, BitVector(NumSlots));
  std::vector<BitVector> LiveOut(NB, BitVector(NumSlots));
  std::vector<BitVector> Use(NB, BitVector(NumSlots));
  std::vector<BitVector> Def(NB, BitVector(NumSlots));
  for (unsigned B = 0; B != NB; ++B) {
    for (unsigned P = G.block(B).Begin; P != G.block(B).End; ++P) {
      const Instr *I = Code.Instrs[P];
      if (I->Op == Opcode::LdSpill && !Def[B].test(I->Slot))
        Use[B].set(I->Slot);
      else if (I->Op == Opcode::StSpill)
        Def[B].set(I->Slot);
    }
  }
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = NB; B-- > 0;) {
      BitVector NewOut(NumSlots);
      for (unsigned S : G.block(B).Succs)
        NewOut.unionWith(LiveIn[S]);
      BitVector NewIn = NewOut;
      NewIn.subtract(Def[B]);
      NewIn.unionWith(Use[B]);
      if (NewOut != LiveOut[B] || NewIn != LiveIn[B]) {
        LiveOut[B] = std::move(NewOut);
        LiveIn[B] = std::move(NewIn);
        Changed = true;
      }
    }
  }

  std::set<Instr *> Dead;
  for (unsigned B = 0; B != NB; ++B) {
    BitVector Live = LiveOut[B];
    for (unsigned P = G.block(B).End; P-- > G.block(B).Begin;) {
      Instr *I = Code.Instrs[P];
      if (I->Op == Opcode::StSpill) {
        if (!Live.test(I->Slot))
          Dead.insert(I);
        Live.reset(I->Slot);
      } else if (I->Op == Opcode::LdSpill) {
        Live.set(I->Slot);
      }
    }
  }

  F.root()->eraseInstrs(Dead);
  return static_cast<unsigned>(Dead.size());
}

} // namespace

SpillCleanupResult rap::peepholeSpillCleanup(IlocFunction &F,
                                             telemetry::FunctionScope *Scope) {
  telemetry::ScopedPhase Phase(Scope, "peephole");
  allocCheck(F.isAllocated(), AllocErrorKind::InvariantViolation,
             "peephole runs on physical code");
  SpillCleanupResult Res = availableReloadPass(F, /*Local=*/true);
  if (Scope) {
    Scope->add("peephole.removed_loads", Res.RemovedLoads);
    Scope->add("peephole.removed_stores", Res.RemovedStores);
    Scope->add("peephole.loads_to_copies", Res.LoadsToCopies);
  }
  return Res;
}

SpillCleanupResult rap::globalSpillCleanup(IlocFunction &F,
                                           telemetry::FunctionScope *Scope) {
  telemetry::ScopedPhase Phase(Scope, "cleanup");
  allocCheck(F.isAllocated(), AllocErrorKind::InvariantViolation,
             "cleanup runs on physical code");
  SpillCleanupResult Total;
  // Each pass can expose work for the other (a deleted dead store frees a
  // reload; a deleted reload kills a store's last reader). Iterate to a
  // fixpoint; each iteration strictly removes instructions, so this
  // terminates.
  for (;;) {
    SpillCleanupResult R = availableReloadPass(F, /*Local=*/false);
    unsigned DeadStores = deadStorePass(F);
    Total.RemovedLoads += R.RemovedLoads;
    Total.LoadsToCopies += R.LoadsToCopies;
    Total.RemovedStores += R.RemovedStores + DeadStores;
    if (Scope)
      Scope->add("cleanup.fixpoint_iterations");
    if (R.RemovedLoads + R.LoadsToCopies + R.RemovedStores + DeadStores == 0)
      break;
  }
  if (Scope) {
    Scope->add("cleanup.removed_loads", Total.RemovedLoads);
    Scope->add("cleanup.loads_to_copies", Total.LoadsToCopies);
    Scope->add("cleanup.removed_stores", Total.RemovedStores);
  }
  return Total;
}
