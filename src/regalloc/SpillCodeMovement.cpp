//===- regalloc/SpillCodeMovement.cpp - RAP phase 2 --------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/SpillCodeMovement.h"

#include "support/Env.h"
#include "support/Stats.h"

#include <cassert>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

using namespace rap;

namespace {

struct SlotOps {
  std::vector<Instr *> Loads;
  std::vector<Instr *> Stores;
  std::set<Reg> Regs; ///< registers moving through the slot inside the loop
};

class Mover {
public:
  Mover(IlocFunction &F, const InterferenceGraph &Final,
        const std::map<const PdgNode *, InterferenceGraph> &SavedGraphs)
      : F(F), Final(Final), SavedGraphs(SavedGraphs) {}

  MovementResult run() {
    walk(F.root());
    return Res;
  }

private:
  void walk(PdgNode *N) {
    if (N->isRegion() && N->IsLoop) {
      processLoop(N); // recurses into the body after moving what it can
      return;
    }
    if (N->isPredicate()) {
      if (N->TrueRegion)
        walk(N->TrueRegion);
      if (N->FalseRegion)
        walk(N->FalseRegion);
      return;
    }
    if (N->isRegion())
      for (PdgNode *C : N->Children)
        walk(C);
  }

  void processLoop(PdgNode *L) {
    std::map<int, SlotOps> Ops = collectOps(L);
    const InterferenceGraph *LG = nullptr;
    auto It = SavedGraphs.find(L);
    if (It != SavedGraphs.end())
      LG = &It->second;

    static const bool Debug = env::flag("RAP_DEBUG");
    for (auto &[Slot, SO] : Ops) {
      if (!LG) {
        if (Debug)
          std::fprintf(stderr, "[move] L=R%d s%d: no loop graph\n", L->Id,
                       Slot);
        continue;
      }

      // All in-loop accessors of the slot are renamed pieces of one
      // original virtual register (paper §3.2 / Figure 7: "a single load
      // for a may be placed prior to the entrance ... and the two loads
      // within the region can be eliminated"). They may move together when
      // they all received the same physical register and that register
      // belongs to them alone inside the loop — the precise form of the
      // paper's "was not combined with another virtual register" condition,
      // checked against the final assignment.
      Reg VL = *SO.Regs.begin();
      int Color = Final.colorOf(VL);
      if (Color < 0)
        continue;
      const char *Reject = nullptr;
      for (Reg R : SO.Regs) {
        if (Final.colorOf(R) != Color) {
          Reject = "color mismatch among accessors";
          break;
        }
      }
      if (!Reject && !colorExclusiveInLoop(L, SO.Regs, Color))
        Reject = "physical register not exclusive in loop";
      if (Reject) {
        if (Debug)
          std::fprintf(stderr, "[move] L=R%d s%d (%zu regs): %s\n", L->Id,
                       Slot, SO.Regs.size(), Reject);
        continue;
      }

      // Move: rewrite every accessor to one name, delete the in-loop
      // traffic, load once before the head, store once after the exit.
      renameAccessors(L, SO, VL);
      bool HadStore = !SO.Stores.empty();
      deleteOps(L, SO);
      insertPreLoopLoad(L, VL, Slot);
      ++Res.HoistedLoads;
      if (HadStore) {
        insertPostLoopStore(L, VL, Slot);
        ++Res.SunkStores;
      }
    }

    // Inner loops may still have movable traffic of other slots.
    unsigned PredIdx = L->loopPredicateIndex();
    walk(L->Children[PredIdx]->TrueRegion);
  }

  std::map<int, SlotOps> collectOps(PdgNode *L) {
    std::map<int, SlotOps> Ops;
    L->forEachInstr([&](Instr *I) {
      if (I->Op == Opcode::LdSpill) {
        SlotOps &SO = Ops[I->Slot];
        SO.Loads.push_back(I);
        SO.Regs.insert(I->Dst);
      } else if (I->Op == Opcode::StSpill) {
        SlotOps &SO = Ops[I->Slot];
        SO.Stores.push_back(I);
        SO.Regs.insert(I->Src[0]);
      }
    });
    return Ops;
  }

  bool colorExclusiveInLoop(PdgNode *L, const std::set<Reg> &Owners,
                            int Color) const {
    bool Exclusive = true;
    L->forEachInstr([&](Instr *I) {
      auto Check = [&](Reg R) {
        if (!Owners.count(R) && Final.colorOf(R) == Color)
          Exclusive = false;
      };
      for (Reg R : I->Src)
        Check(R);
      if (I->hasDef())
        Check(I->Dst);
    });
    return Exclusive;
  }

  /// Rewrites every in-loop reference of the slot's renamed pieces to one
  /// canonical register. Safe because all pieces share one physical
  /// register that is exclusively theirs inside the loop.
  void renameAccessors(PdgNode *L, const SlotOps &SO, Reg VL) {
    L->forEachInstr([&](Instr *I) {
      for (Reg &R : I->Src)
        if (R != VL && SO.Regs.count(R))
          R = VL;
      if (I->hasDef() && I->Dst != VL && SO.Regs.count(I->Dst))
        I->Dst = VL;
    });
  }

  void deleteOps(PdgNode *L, const SlotOps &SO) {
    std::set<Instr *> Dead(SO.Loads.begin(), SO.Loads.end());
    Dead.insert(SO.Stores.begin(), SO.Stores.end());
    Res.RemovedLoads += static_cast<unsigned>(SO.Loads.size());
    Res.RemovedStores += static_cast<unsigned>(SO.Stores.size());
    L->eraseInstrs(Dead);
  }

  /// A fresh spill node immediately before the loop head: after any
  /// existing pre-loop children (region-entry stores must stay first).
  void insertPreLoopLoad(PdgNode *L, Reg VL, int Slot) {
    Instr *Ld = F.createInstr(Opcode::LdSpill);
    Ld->Dst = VL;
    Ld->Slot = Slot;
    PdgNode *SN = F.createNode(PdgNodeKind::Statement);
    SN->Parent = L;
    SN->Code.push_back(Ld);
    unsigned PredIdx = L->loopPredicateIndex();
    L->Children.insert(L->Children.begin() + PredIdx, SN);
  }

  /// A fresh spill node immediately after the loop exit: before any
  /// existing post-loop children (region-exit loads must stay last).
  void insertPostLoopStore(PdgNode *L, Reg VL, int Slot) {
    Instr *St = F.createInstr(Opcode::StSpill);
    St->Slot = Slot;
    St->Src = {VL};
    PdgNode *SN = F.createNode(PdgNodeKind::Statement);
    SN->Parent = L;
    SN->Code.push_back(St);
    unsigned PredIdx = L->loopPredicateIndex();
    L->Children.insert(L->Children.begin() + PredIdx + 1, SN);
  }

  IlocFunction &F;
  const InterferenceGraph &Final;
  const std::map<const PdgNode *, InterferenceGraph> &SavedGraphs;
  MovementResult Res;
};

} // namespace

MovementResult rap::moveSpillCodeOutOfLoops(
    IlocFunction &F, const InterferenceGraph &Final,
    const std::map<const PdgNode *, InterferenceGraph> &SavedGraphs,
    telemetry::FunctionScope *Scope) {
  telemetry::ScopedPhase Phase(Scope, "movement");
  MovementResult Res = Mover(F, Final, SavedGraphs).run();
  if (Scope) {
    Scope->add("movement.hoisted_loads", Res.HoistedLoads);
    Scope->add("movement.sunk_stores", Res.SunkStores);
    Scope->add("movement.removed_loads", Res.RemovedLoads);
    Scope->add("movement.removed_stores", Res.RemovedStores);
    Phase.arg("hoisted_loads", Res.HoistedLoads);
    Phase.arg("sunk_stores", Res.SunkStores);
  }
  return Res;
}
