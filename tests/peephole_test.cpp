//===- tests/peephole_test.cpp - Figure 6 patterns -----------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One test per Figure 6 pattern, on hand-built physical code, plus the
/// invalidation cases ("no redef of r2" / intervening stores) that must
/// block the rewrite.
///
//===----------------------------------------------------------------------===//

#include "ir/Linearize.h"
#include "regalloc/SpillCleanup.h"

#include "gtest/gtest.h"

using namespace rap;

namespace {

/// Builds a one-block function from a list of instructions.
struct FuncBuilder {
  IlocFunction F{"test"};
  PdgNode *Stmt = nullptr;

  FuncBuilder() {
    PdgNode *Root = F.createNode(PdgNodeKind::Region);
    F.setRoot(Root);
    Stmt = F.createNode(PdgNodeKind::Statement);
    Stmt->Parent = Root;
    Root->Children.push_back(Stmt);
    // Slots used by the tests.
    F.newSpillSlot();
    F.newSpillSlot();
  }

  Instr *ldm(Reg Dst, int Slot) {
    Instr *I = F.createInstr(Opcode::LdSpill);
    I->Dst = Dst;
    I->Slot = Slot;
    Stmt->Code.push_back(I);
    return I;
  }
  Instr *stm(int Slot, Reg Src) {
    Instr *I = F.createInstr(Opcode::StSpill);
    I->Slot = Slot;
    I->Src = {Src};
    Stmt->Code.push_back(I);
    return I;
  }
  Instr *mv(Reg Dst, Reg Src) {
    Instr *I = F.createInstr(Opcode::Mv);
    I->Dst = Dst;
    I->Src = {Src};
    Stmt->Code.push_back(I);
    return I;
  }
  Instr *add(Reg Dst, Reg A, Reg B) {
    Instr *I = F.createInstr(Opcode::Add);
    I->Dst = Dst;
    I->Src = {A, B};
    Stmt->Code.push_back(I);
    return I;
  }
  Instr *ret(Reg R) {
    Instr *I = F.createInstr(Opcode::Ret);
    I->Src = {R};
    Stmt->Code.push_back(I);
    return I;
  }

  SpillCleanupResult finish() {
    F.setAllocated(4);
    return peepholeSpillCleanup(F);
  }

  std::vector<Opcode> opcodes() {
    std::vector<Opcode> Out;
    for (Instr *I : linearize(F).Instrs)
      Out.push_back(I->Op);
    return Out;
  }
};

TEST(PeepholeFig6, Pattern1DuplicateLoadRemoved) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.add(3, 2, 2); // uses r2, no redef
  B.ldm(2, 0);    // redundant
  B.ret(2);
  SpillCleanupResult R = B.finish();
  EXPECT_EQ(R.RemovedLoads, 1u);
  EXPECT_EQ(B.opcodes(), (std::vector<Opcode>{Opcode::LdSpill, Opcode::Add,
                                              Opcode::Ret}));
}

TEST(PeepholeFig6, Pattern2LoadToOtherRegisterBecomesCopy) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.ldm(3, 0); // same slot, different register -> mv r3, r2
  B.add(1, 2, 3);
  B.ret(1);
  SpillCleanupResult R = B.finish();
  EXPECT_EQ(R.LoadsToCopies, 1u);
  auto Ops = B.opcodes();
  ASSERT_EQ(Ops.size(), 4u);
  EXPECT_EQ(Ops[1], Opcode::Mv);
}

TEST(PeepholeFig6, Pattern3StoreBackRemoved) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.add(3, 2, 2);
  B.stm(0, 2); // stores the value the slot already has
  B.ret(3);
  SpillCleanupResult R = B.finish();
  EXPECT_EQ(R.RemovedStores, 1u);
}

TEST(PeepholeFig6, Pattern4ReloadAfterStoreRemoved) {
  FuncBuilder B;
  B.stm(0, 2);
  B.add(3, 2, 2);
  B.ldm(2, 0); // r2 still holds the stored value
  B.ret(2);
  SpillCleanupResult R = B.finish();
  EXPECT_EQ(R.RemovedLoads, 1u);
}

TEST(PeepholeFig6, Pattern5StoreThroughCopyRemoved) {
  FuncBuilder B;
  B.stm(0, 2);
  B.mv(3, 2); // r3 = r2: both hold the slot's value
  B.stm(0, 3);
  B.ret(3);
  SpillCleanupResult R = B.finish();
  EXPECT_EQ(R.RemovedStores, 1u);
}

TEST(PeepholeFig6, RedefinitionBlocksLoadRemoval) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.add(2, 2, 2); // redefines r2
  B.ldm(2, 0);    // must stay
  B.ret(2);
  SpillCleanupResult R = B.finish();
  EXPECT_EQ(R.RemovedLoads, 0u);
  EXPECT_EQ(R.LoadsToCopies, 0u);
}

TEST(PeepholeFig6, InterveningStoreBlocksRemoval) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.stm(0, 3); // the slot changes; r2 is stale
  B.ldm(2, 0); // must stay
  B.ret(2);
  SpillCleanupResult R = B.finish();
  EXPECT_EQ(R.RemovedLoads, 0u);
}

TEST(PeepholeFig6, DifferentSlotsDoNotAlias) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.ldm(3, 1); // a different slot: no rewrite possible
  B.add(1, 2, 3);
  B.ret(1);
  SpillCleanupResult R = B.finish();
  EXPECT_EQ(R.RemovedLoads + R.LoadsToCopies + R.RemovedStores, 0u);
}

TEST(PeepholeFig6, CopyChainPropagatesEquivalence) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.mv(3, 2);
  B.mv(1, 3);
  B.ldm(1, 0); // r1 already holds the value via the copy chain
  B.ret(1);
  SpillCleanupResult R = B.finish();
  EXPECT_EQ(R.RemovedLoads, 1u);
}

} // namespace
