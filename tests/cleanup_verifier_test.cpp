//===- tests/cleanup_verifier_test.cpp - Cleanup passes + verifier ------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the dataflow spill cleanup (cross-block reload removal,
/// dead spill-store elimination), the block-local scope of the same engine,
/// and the independent assignment verifier.
///
//===----------------------------------------------------------------------===//

#include "ir/Linearize.h"
#include "regalloc/AssignmentVerifier.h"
#include "regalloc/SpillCleanup.h"

#include "gtest/gtest.h"

using namespace rap;

namespace {

/// Builds a function with an if-diamond:
///   entry: <Entry code>; cbr c -> then, join
///   then:  <Then code>
///   join:  <Join code>; ret
/// With \p Loop the branch heads a while loop instead: then is the body,
/// which jumps back to the branch, and join follows the loop exit.
struct DiamondBuilder {
  IlocFunction F{"test"};
  PdgNode *Entry, *Then, *Join;
  PdgNode *Pred;

  explicit DiamondBuilder(int NumSlots = 4, bool Loop = false) {
    PdgNode *Root = F.createNode(PdgNodeKind::Region);
    F.setRoot(Root);
    Entry = addStmt(Root);
    PdgNode *PredParent = Root;
    if (Loop) {
      PredParent = F.createNode(PdgNodeKind::Region);
      PredParent->IsLoop = true;
      PredParent->Parent = Root;
      Root->Children.push_back(PredParent);
    }
    Pred = F.createNode(PdgNodeKind::Predicate);
    Pred->Parent = PredParent;
    PredParent->Children.push_back(Pred);
    if (Loop) {
      Pred->JoinLabel = F.newLabel();
      Pred->Jump = F.createInstr(Opcode::Jmp);
      Pred->Jump->Label0 = Pred->JoinLabel;
    }
    Pred->TrueLabel = F.newLabel();
    Pred->FalseLabel = F.newLabel();
    Instr *Br = F.createInstr(Opcode::Cbr);
    Br->Src = {0};
    Br->Label0 = Pred->TrueLabel;
    Br->Label1 = Pred->FalseLabel;
    Pred->Branch = Br;
    Pred->TrueRegion = F.createNode(PdgNodeKind::Region);
    Pred->TrueRegion->Parent = Pred;
    Then = addStmt(Pred->TrueRegion);
    Join = addStmt(Root);
    for (int I = 0; I < NumSlots; ++I)
      F.newSpillSlot();
    // Register namespace for the hand-written code below (the verifier's
    // liveness needs the universe size).
    for (int I = 0; I < 16; ++I)
      F.newVReg();
  }

  PdgNode *addStmt(PdgNode *Region) {
    PdgNode *S = F.createNode(PdgNodeKind::Statement);
    S->Parent = Region;
    Region->Children.push_back(S);
    return S;
  }

  Instr *emit(PdgNode *S, Opcode Op, Reg Dst, std::vector<Reg> Src,
              int Slot = -1) {
    Instr *I = F.createInstr(Op);
    I->Dst = Dst;
    I->Src = std::move(Src);
    I->Slot = Slot;
    S->Code.push_back(I);
    return I;
  }

  unsigned countOps(Opcode Op) {
    unsigned N = 0;
    for (Instr *I : linearize(F).Instrs)
      N += I->Op == Op;
    return N;
  }
};

TEST(GlobalCleanup, CrossBlockRedundantReloadRemoved) {
  DiamondBuilder B;
  // entry: r1 = ldm s0 ; cbr r0
  B.emit(B.Entry, Opcode::LdSpill, 1, {}, 0);
  // then: r2 = r1 + r1 (no redef of r1, no store to s0)
  B.emit(B.Then, Opcode::Add, 2, {1, 1});
  // join: r1 = ldm s0  <- redundant on BOTH paths
  B.emit(B.Join, Opcode::LdSpill, 1, {}, 0);
  B.emit(B.Join, Opcode::Ret, NoReg, {1});
  B.F.setAllocated(4);
  SpillCleanupResult R = globalSpillCleanup(B.F);
  EXPECT_EQ(R.RemovedLoads, 1u);
  EXPECT_EQ(B.countOps(Opcode::LdSpill), 1u);
}

TEST(GlobalCleanup, PeepholeKeepsCrossBlockReload) {
  // The same input as CrossBlockRedundantReloadRemoved: the Figure 6 scope
  // starts every block from "nothing available", so the join reload stays.
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::LdSpill, 1, {}, 0);
  B.emit(B.Then, Opcode::Add, 2, {1, 1});
  B.emit(B.Join, Opcode::LdSpill, 1, {}, 0);
  B.emit(B.Join, Opcode::Ret, NoReg, {1});
  B.F.setAllocated(4);
  SpillCleanupResult R = peepholeSpillCleanup(B.F);
  EXPECT_EQ(R.RemovedLoads, 0u);
  EXPECT_EQ(R.LoadsToCopies, 0u);
  EXPECT_EQ(B.countOps(Opcode::LdSpill), 2u);
}

TEST(GlobalCleanup, ReloadKeptWhenOnePathInvalidates) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::LdSpill, 1, {}, 0);
  // then: stm s0, r2 — the slot changes on this path
  B.emit(B.Then, Opcode::StSpill, NoReg, {2}, 0);
  B.emit(B.Join, Opcode::LdSpill, 1, {}, 0); // must stay
  B.emit(B.Join, Opcode::Ret, NoReg, {1});
  B.F.setAllocated(4);
  SpillCleanupResult R = globalSpillCleanup(B.F);
  EXPECT_EQ(R.RemovedLoads, 0u);
  EXPECT_EQ(B.countOps(Opcode::LdSpill), 2u);
}

TEST(GlobalCleanup, ReloadKeptWhenRegisterClobberedOnOnePath) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::LdSpill, 1, {}, 0);
  // then: r1 = r2 + r2 clobbers r1
  B.emit(B.Then, Opcode::Add, 1, {2, 2});
  B.emit(B.Join, Opcode::LdSpill, 1, {}, 0); // must stay
  B.emit(B.Join, Opcode::Ret, NoReg, {1});
  B.F.setAllocated(4);
  SpillCleanupResult R = globalSpillCleanup(B.F);
  EXPECT_EQ(R.RemovedLoads, 0u);
}

TEST(GlobalCleanup, DeadStoreRemoved) {
  DiamondBuilder B;
  // A store whose slot is never read again is dead (slots die with the
  // frame).
  B.emit(B.Entry, Opcode::StSpill, NoReg, {1}, 2);
  B.emit(B.Join, Opcode::Ret, NoReg, {1});
  B.F.setAllocated(4);
  SpillCleanupResult R = globalSpillCleanup(B.F);
  EXPECT_EQ(R.RemovedStores, 1u);
  EXPECT_EQ(B.countOps(Opcode::StSpill), 0u);
}

TEST(GlobalCleanup, StoreKeptWhenAnyPathReads) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::StSpill, NoReg, {1}, 2);
  B.emit(B.Entry, Opcode::LoadI, 1, {}); // clobber r1: no forwarding
  B.emit(B.Then, Opcode::LdSpill, 3, {}, 2); // reads on the then path
  B.emit(B.Join, Opcode::Ret, NoReg, {1});
  B.F.setAllocated(4);
  SpillCleanupResult R = globalSpillCleanup(B.F);
  EXPECT_EQ(B.countOps(Opcode::StSpill), 1u);
  EXPECT_EQ(B.countOps(Opcode::LdSpill), 1u);
  (void)R;
}

TEST(GlobalCleanup, OverwrittenStoreIsDead) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::StSpill, NoReg, {1}, 2);
  B.emit(B.Entry, Opcode::StSpill, NoReg, {2}, 2); // kills the first
  B.emit(B.Join, Opcode::LdSpill, 3, {}, 2);
  B.emit(B.Join, Opcode::Ret, NoReg, {3});
  B.F.setAllocated(4);
  SpillCleanupResult R = globalSpillCleanup(B.F);
  // The first store dies; the second feeds the load... which then makes r3
  // a copy of r2 (the value is still in a register), freeing the second
  // store too on the next fixpoint round. Net: at most one spill op left.
  EXPECT_GE(R.RemovedStores, 1u);
  EXPECT_LE(B.countOps(Opcode::StSpill), 1u);
}

TEST(GlobalCleanup, LoadBecomesCopyWhenValueInOtherRegister) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::StSpill, NoReg, {2}, 1);
  B.emit(B.Join, Opcode::LdSpill, 3, {}, 1); // value still in r2
  B.emit(B.Join, Opcode::Ret, NoReg, {3});
  B.F.setAllocated(4);
  SpillCleanupResult R = globalSpillCleanup(B.F);
  EXPECT_EQ(R.LoadsToCopies, 1u);
  EXPECT_EQ(B.countOps(Opcode::Mv), 1u);
}

//===----------------------------------------------------------------------===//
// Availability rows past 64 slots
//===----------------------------------------------------------------------===//

// The availability state keeps one row of slot bits per register, so 131
// slots take three words per row, the last one holding three slots.
constexpr int ManySlots = 131;

TEST(CleanupPast64Slots, RegisterDefinitionForgetsSlotsInEveryWord) {
  DiamondBuilder B(ManySlots);
  // r1 holds slots 3 (word 0) and 100 (word 1) until it is redefined; r2
  // keeps slot 101.
  B.emit(B.Entry, Opcode::StSpill, NoReg, {1}, 3);
  B.emit(B.Entry, Opcode::StSpill, NoReg, {1}, 100);
  B.emit(B.Entry, Opcode::StSpill, NoReg, {2}, 101);
  B.emit(B.Entry, Opcode::Add, 1, {2, 2});
  B.emit(B.Join, Opcode::LdSpill, 3, {}, 3);   // stays: r1 was redefined
  B.emit(B.Join, Opcode::LdSpill, 3, {}, 100); // stays: r1 was redefined
  B.emit(B.Join, Opcode::LdSpill, 3, {}, 101); // becomes mv r3, r2
  B.emit(B.Join, Opcode::Ret, NoReg, {3});
  B.F.setAllocated(4);
  SpillCleanupResult R = globalSpillCleanup(B.F);
  EXPECT_EQ(R.RemovedLoads, 0u);
  EXPECT_EQ(R.LoadsToCopies, 1u);
  EXPECT_EQ(B.countOps(Opcode::LdSpill), 2u);
}

TEST(CleanupPast64Slots, CopyCarriesSlot70) {
  DiamondBuilder B(ManySlots);
  // r2 = r1 copies r1's row, then r1 is redefined: only r2 holds slot 70.
  B.emit(B.Entry, Opcode::LdSpill, 1, {}, 70);
  B.emit(B.Entry, Opcode::Mv, 2, {1});
  B.emit(B.Entry, Opcode::LoadI, 1, {});
  B.emit(B.Join, Opcode::LdSpill, 2, {}, 70); // deleted: r2 holds it
  B.emit(B.Join, Opcode::LdSpill, 3, {}, 70); // becomes mv r3, r2
  B.emit(B.Join, Opcode::Add, 3, {1, 3});
  B.emit(B.Join, Opcode::Ret, NoReg, {3});
  B.F.setAllocated(4);
  SpillCleanupResult R = globalSpillCleanup(B.F);
  EXPECT_EQ(R.RemovedLoads, 1u);
  EXPECT_EQ(R.LoadsToCopies, 1u);
  EXPECT_EQ(B.countOps(Opcode::LdSpill), 1u);
}

TEST(CleanupPast64Slots, JoinKeepsSlot65OnlyWhenBothPathsHoldIt) {
  {
    DiamondBuilder B(ManySlots);
    B.emit(B.Entry, Opcode::LdSpill, 1, {}, 65);
    B.emit(B.Then, Opcode::Add, 2, {1, 1});
    B.emit(B.Join, Opcode::LdSpill, 1, {}, 65); // available on both paths
    B.emit(B.Join, Opcode::Ret, NoReg, {1});
    B.F.setAllocated(4);
    EXPECT_EQ(globalSpillCleanup(B.F).RemovedLoads, 1u);
    EXPECT_EQ(B.countOps(Opcode::LdSpill), 1u);
  }
  {
    DiamondBuilder B(ManySlots);
    B.emit(B.Entry, Opcode::LdSpill, 1, {}, 65);
    B.emit(B.Then, Opcode::StSpill, NoReg, {2}, 65); // r2 on this path only
    B.emit(B.Join, Opcode::LdSpill, 1, {}, 65);      // must stay
    B.emit(B.Join, Opcode::Ret, NoReg, {1});
    B.F.setAllocated(4);
    SpillCleanupResult R = globalSpillCleanup(B.F);
    EXPECT_EQ(R.RemovedLoads, 0u);
    EXPECT_EQ(R.LoadsToCopies, 0u);
    EXPECT_EQ(B.countOps(Opcode::LdSpill), 2u);
  }
}

TEST(CleanupPast64Slots, LoopHeadKeepsTheLastSlotOfAPaddedRow) {
  // On the first visit of the loop head its back edge still carries the
  // "everything available" start state. Slot 130 sits in the partial last
  // word of each row, next to the masked padding bits: unless that start
  // state holds it, the head loses r1's copy of the slot for good, since
  // the body never reloads r1.
  DiamondBuilder B(ManySlots, /*Loop=*/true);
  B.emit(B.Entry, Opcode::LdSpill, 1, {}, 130);
  B.emit(B.Then, Opcode::LdSpill, 2, {}, 130); // becomes mv r2, r1
  B.emit(B.Join, Opcode::LdSpill, 3, {}, 130); // becomes mv r3, r1
  B.emit(B.Join, Opcode::Add, 3, {2, 3});
  B.emit(B.Join, Opcode::Ret, NoReg, {3});
  B.F.setAllocated(4);
  SpillCleanupResult R = globalSpillCleanup(B.F);
  EXPECT_EQ(R.RemovedLoads, 0u);
  EXPECT_EQ(R.LoadsToCopies, 2u);
  EXPECT_EQ(B.countOps(Opcode::LdSpill), 1u);
}

//===----------------------------------------------------------------------===//
// Assignment verifier
//===----------------------------------------------------------------------===//

TEST(Verifier, AcceptsAValidColoring) {
  DiamondBuilder B;
  // r10 = r11 + r11 with distinct colors; nothing overlaps.
  B.emit(B.Entry, Opcode::LoadI, 10, {});
  B.emit(B.Entry, Opcode::Add, 11, {10, 10});
  B.emit(B.Join, Opcode::Ret, NoReg, {11});
  InterferenceGraph G;
  G.getOrCreateNode(10);
  G.getOrCreateNode(11);
  G.addEdge(10, 11);
  G.node(0).Color = 0;
  G.node(1).Color = 1;
  EXPECT_TRUE(verifyAssignment(B.F, G).empty());
}

TEST(Verifier, FlagsClobberingDefinition) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::LoadI, 10, {});
  B.emit(B.Entry, Opcode::LoadI, 11, {}); // defined while r10 live
  B.emit(B.Join, Opcode::Add, 12, {10, 11});
  B.emit(B.Join, Opcode::Ret, NoReg, {12});
  InterferenceGraph G;
  G.getOrCreateNode(10);
  G.getOrCreateNode(11);
  G.getOrCreateNode(12);
  G.node(0).Color = 0;
  G.node(1).Color = 0; // WRONG: same color, simultaneously live
  G.node(2).Color = 1;
  auto V = verifyAssignment(B.F, G);
  ASSERT_FALSE(V.empty());
  EXPECT_EQ(V[0].Clobbered, 10u);
  EXPECT_EQ(V[0].Defined, 11u);
}

TEST(Verifier, CopySourceMayShareColor) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::LoadI, 10, {});
  B.emit(B.Entry, Opcode::Mv, 11, {10});
  B.emit(B.Join, Opcode::Ret, NoReg, {11});
  InterferenceGraph G;
  G.getOrCreateNode(10);
  G.getOrCreateNode(11);
  G.node(0).Color = 2;
  G.node(1).Color = 2; // legal: copy source exception
  EXPECT_TRUE(verifyAssignment(B.F, G).empty());
}

} // namespace
