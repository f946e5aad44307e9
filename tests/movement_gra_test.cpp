//===- tests/movement_gra_test.cpp - Phase 2 movement and GRA details ---------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "regalloc/Allocator.h"

#include "gtest/gtest.h"

using namespace rap;
using rap::test::compile;

namespace {

/// High register pressure around a loop that references a value spilled
/// outside it: the canonical spill-code-movement scenario (paper §3.2).
const char *HoistSource = R"(
  int out;
  int main() {
    int k1 = 11; int k2 = 22; int k3 = 33; int k4 = 44; int k5 = 55;
    int acc = 0;
    for (int i = 0; i < 50; i = i + 1) {
      acc = acc + k1;         /* k1 is hot inside the loop */
    }
    out = acc + k1 + k2 + k3 + k4 + k5;
    return out;
  }
)";

TEST(SpillMovement, LoopTrafficLeavesTheLoop) {
  // Run RAP with and without phase 2 at a small k; movement must not
  // increase executed spill operations, and the result must be identical.
  int64_t Want = 0;
  {
    CompileOptions Ref;
    RunResult R = compileAndRun(HoistSource, Ref);
    ASSERT_TRUE(R.Ok);
    Want = R.ReturnValue.asInt();
  }
  uint64_t SpillOps[2];
  for (int WithMove = 0; WithMove <= 1; ++WithMove) {
    CompileOptions O;
    O.Allocator = AllocatorKind::Rap;
    O.Alloc.K = 3;
    O.Alloc.SpillMovement = WithMove;
    O.Alloc.Peephole = false;
    O.Alloc.GlobalCleanup = false;
    RunResult R = compileAndRun(HoistSource, O);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.ReturnValue.asInt(), Want);
    SpillOps[WithMove] = R.Stats.SpillLoads + R.Stats.SpillStores;
  }
  EXPECT_LE(SpillOps[1], SpillOps[0])
      << "movement never adds executed spill traffic";
}

TEST(SpillMovement, AllBenchConfigsStayCorrectWithoutLaterPhases) {
  // Phase 2 in isolation (no cleanup phases to mask bugs).
  for (const char *Src : {HoistSource}) {
    CompileOptions Ref;
    RunResult RefRun = compileAndRun(Src, Ref);
    ASSERT_TRUE(RefRun.Ok);
    for (unsigned K : {3u, 4u, 5u}) {
      CompileOptions O;
      O.Allocator = AllocatorKind::Rap;
      O.Alloc.K = K;
      O.Alloc.Peephole = false;
      O.Alloc.GlobalCleanup = false;
      RunResult R = compileAndRun(Src, O);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.ReturnValue.asInt(), RefRun.ReturnValue.asInt())
          << "k=" << K;
    }
  }
}

//===----------------------------------------------------------------------===//
// GRA specifics
//===----------------------------------------------------------------------===//

TEST(Gra, NoSpillsWhenRegistersSuffice) {
  auto Prog = compile("int main() { int a = 1; int b = 2; return a + b; }");
  ASSERT_NE(Prog, nullptr);
  AllocOptions AO;
  AO.K = 8;
  AllocStats S = allocateGra(*Prog->function(0), AO);
  EXPECT_EQ(S.SpilledVRegs, 0u);
  EXPECT_TRUE(Prog->function(0)->isAllocated());
  EXPECT_EQ(Prog->function(0)->numPhysRegs(), 8u);
}

TEST(Gra, SpillsUnderPressureAndStaysCorrect) {
  const char *Src = R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4; int e = 5; int f = 6;
      int x = a*b + c*d + e*f;
      int y = a + b + c + d + e + f;
      return x * 1000 + y;
    }
  )";
  CompileOptions Ref;
  RunResult RefRun = compileAndRun(Src, Ref);
  ASSERT_TRUE(RefRun.Ok);

  CompileOptions O;
  O.Allocator = AllocatorKind::Gra;
  O.Alloc.K = 3;
  CompileResult CR = compileMiniC(Src, O);
  EXPECT_GT(CR.Alloc.SpilledVRegs, 0u);
  RunResult R = Interpreter(*CR.Prog).run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.asInt(), RefRun.ReturnValue.asInt());
  EXPECT_GT(R.Stats.SpillLoads, 0u);
}

TEST(Gra, ParamValueParkedWhenSpilled) {
  // Three params plus pressure at k=3 forces a parameter spill; the value
  // must survive (the park store at entry).
  const char *Src = R"(
    int f(int a, int b, int c) {
      int t1 = a * b; int t2 = b * c; int t3 = a * c;
      return t1 + t2 + t3 + a + b + c;
    }
    int main() { return f(3, 5, 7); }
  )";
  CompileOptions Ref;
  RunResult RefRun = compileAndRun(Src, Ref);
  ASSERT_TRUE(RefRun.Ok);
  CompileOptions O;
  O.Allocator = AllocatorKind::Gra;
  O.Alloc.K = 3;
  RunResult R = compileAndRun(Src, O);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), RefRun.ReturnValue.asInt());
}

TEST(Gra, TrivialCopiesDeletedAfterAssignment) {
  // x = y with x and y allocatable to one register: the copy disappears
  // (the paper's copy-statement accounting).
  const char *Src = R"(
    int main() {
      int y = 41;
      int x = y;
      return x + 1;
    }
  )";
  CompileOptions O;
  O.Allocator = AllocatorKind::Gra;
  O.Alloc.K = 4;
  CompileResult CR = compileMiniC(Src, O);
  ASSERT_TRUE(CR.ok());
  RunResult R = Interpreter(*CR.Prog).run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.asInt(), 42);
  EXPECT_GT(CR.Alloc.CopiesDeleted, 0u)
      << "first-fit aligns copy operands here";
}

TEST(Gra, AllocationIsDeterministic) {
  const char *Src = R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4;
      return a*b + c*d + a + d;
    }
  )";
  CompileOptions O;
  O.Allocator = AllocatorKind::Gra;
  O.Alloc.K = 3;
  CompileResult A = compileMiniC(Src, O);
  CompileResult B = compileMiniC(Src, O);
  EXPECT_EQ(A.Prog->function(0)->str(), B.Prog->function(0)->str());
}

TEST(Rap, AllocationIsDeterministic) {
  const char *Src = R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4;
      int s = 0;
      for (int i = 0; i < 3; i = i + 1) { s = s + a*b + c*d; }
      return s;
    }
  )";
  CompileOptions O;
  O.Allocator = AllocatorKind::Rap;
  O.Alloc.K = 3;
  CompileResult A = compileMiniC(Src, O);
  CompileResult B = compileMiniC(Src, O);
  EXPECT_EQ(A.Prog->function(0)->str(), B.Prog->function(0)->str());
}

TEST(Allocator, KindFromString) {
  EXPECT_EQ(allocatorKindFromString("gra"), AllocatorKind::Gra);
  EXPECT_EQ(allocatorKindFromString("rap"), AllocatorKind::Rap);
  EXPECT_EQ(allocatorKindFromString("none"), AllocatorKind::None);
  EXPECT_EQ(allocatorKindFromString("bogus"), AllocatorKind::None);
}

TEST(Allocator, ProgramLevelAllocatesEveryFunction) {
  auto Prog = compile(R"(
    int h(int x) { return x * 2; }
    int main() { return h(21); }
  )");
  ASSERT_NE(Prog, nullptr);
  AllocOptions AO;
  AO.K = 4;
  allocateProgramChecked(*Prog, AllocatorKind::Rap, AO);
  for (const auto &F : Prog->functions())
    EXPECT_TRUE(F->isAllocated()) << F->name();
  RunResult R = Interpreter(*Prog).run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.asInt(), 42);
}

} // namespace
