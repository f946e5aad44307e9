//===- tests/pdg_analysis_test.cpp - Control/data dependence ------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The general PDG substrate: Ferrante/Ottenstein/Warren control dependence
/// cross-checked against the structured region tree, reaching-definitions
/// flow dependence (including Figure 1's loop-carried self-dependence of
/// i = i + 1), the sparse per-register flow dependences RAP's spill fixup
/// reads, checked against the whole-function solve, and the DOT export.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "oracles/ControlDependence.h"
#include "oracles/Dominators.h"

#include "benchprogs/BenchPrograms.h"
#include "cfg/Cfg.h"
#include "fuzz/ScaleProgram.h"
#include "ir/Linearize.h"
#include "pdg/DataDependence.h"
#include "pdg/Dot.h"
#include "regalloc/AllocSupport.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <ostream>

using namespace rap;
using rap::test::compile;

namespace rap {
void PrintTo(const FlowDep &D, std::ostream *OS) {
  *OS << "%" << D.R << ": " << D.DefPos << " -> " << D.UsePos;
}
} // namespace rap

namespace {

/// The definition positions reaching the use of \p R at \p UsePos.
std::vector<unsigned> reachingDefs(const DataDependence &DD, unsigned UsePos,
                                   Reg R) {
  std::vector<unsigned> Out;
  for (const FlowDep &F : DD.flowDeps())
    if (F.UsePos == UsePos && F.R == R)
      Out.push_back(F.DefPos);
  return Out;
}

/// The sparse flow dependences of \p R, fed from RefInfo's def/use index
/// as RAP's spill fixup feeds them.
std::vector<FlowDep> sparseFlowDeps(const Cfg &G, const RefInfo &Refs,
                                    Reg R) {
  return DataDependence::flowDepsFor(G, R, Refs.defPositions(R),
                                     Refs.usePositions(R));
}

/// For every register of \p Code, the sparse flow dependences equal the
/// whole-function solve filtered to that register.
void expectSparseMatchesDense(const LinearCode &Code, unsigned NumVRegs,
                              const std::string &What) {
  if (Code.Instrs.empty())
    return;
  Cfg G(Code);
  DataDependence DD(Code, G, NumVRegs);
  std::vector<std::vector<FlowDep>> Dense(NumVRegs);
  for (const FlowDep &D : DD.flowDeps())
    Dense[D.R].push_back(D);
  RefInfo Refs(Code, NumVRegs);
  for (Reg R = 0; R != NumVRegs; ++R)
    ASSERT_EQ(sparseFlowDeps(G, Refs, R), Dense[R]) << What << ", %" << R;
}

/// Runs expectSparseMatchesDense over every function of \p Source, as
/// lowered (virtual registers) and after RAP at k=5 (physical registers,
/// each defined many times).
void expectSparseMatchesDenseOnProgram(const std::string &Source,
                                       const std::string &What) {
  for (AllocatorKind A : {AllocatorKind::None, AllocatorKind::Rap}) {
    CompileOptions Options;
    Options.Allocator = A;
    Options.Alloc.K = 5;
    CompileResult CR = compileMiniC(Source, Options);
    ASSERT_TRUE(CR.ok()) << What << ":\n" << CR.Errors;
    for (const auto &F : CR.Prog->functions()) {
      std::string Where = What + (A == AllocatorKind::Rap ? " rap " : " ") +
                          F->name();
      expectSparseMatchesDense(linearize(*F), F->numVRegs(), Where);
      if (testing::Test::HasFatalFailure())
        return;
    }
  }
}

/// Which categories of register the RefInfo range checks have met.
struct RangeCoverage {
  unsigned UsedNotDefined = 0, DefinedNotUsed = 0, Unreferenced = 0;
};

/// RefInfo's range queries against a brute-force scan, for every register
/// of \p F and every region span of its tree (plus the empty span at each
/// region's start and the whole function).
void expectRangeQueriesMatchScan(IlocFunction &F, RangeCoverage &Cov,
                                 const std::string &What) {
  LinearCode Code = linearize(F);
  const unsigned E = static_cast<unsigned>(Code.Instrs.size());
  const unsigned NumVRegs = F.numVRegs();
  RefInfo Refs(Code, NumVRegs);

  std::vector<std::pair<unsigned, unsigned>> Spans = {{0, E}};
  F.root()->forEachNode([&](const PdgNode *N) {
    if (!N->isRegion())
      return;
    Spans.push_back({N->LinBegin, N->LinEnd});
    Spans.push_back({N->LinBegin, N->LinBegin});
  });

  // The distinct registers each position references.
  std::vector<std::vector<Reg>> RefsAt(E);
  std::vector<unsigned> Total(NumVRegs, 0), NumUses(NumVRegs, 0),
      NumDefs(NumVRegs, 0);
  for (unsigned P = 0; P != E; ++P) {
    const Instr *I = Code.Instrs[P];
    std::vector<Reg> &At = RefsAt[P];
    At.assign(I->Src.begin(), I->Src.end());
    for (Reg R : I->Src)
      ++NumUses[R];
    if (I->hasDef()) {
      At.push_back(I->Dst);
      ++NumDefs[I->Dst];
    }
    std::sort(At.begin(), At.end());
    At.erase(std::unique(At.begin(), At.end()), At.end());
    for (Reg R : At)
      ++Total[R];
  }
  for (Reg R = 0; R != NumVRegs; ++R) {
    Cov.UsedNotDefined += NumUses[R] && !NumDefs[R];
    Cov.DefinedNotUsed += NumDefs[R] && !NumUses[R];
    Cov.Unreferenced += !NumUses[R] && !NumDefs[R];
  }

  for (auto [Begin, End] : Spans) {
    std::vector<char> Used(NumVRegs, 0), Defined(NumVRegs, 0);
    std::vector<unsigned> Inside(NumVRegs, 0);
    for (unsigned P = Begin; P != End; ++P) {
      const Instr *I = Code.Instrs[P];
      for (Reg R : I->Src)
        Used[R] = 1;
      if (I->hasDef())
        Defined[I->Dst] = 1;
      for (Reg R : RefsAt[P])
        ++Inside[R];
    }
    for (Reg R = 0; R != NumVRegs; ++R) {
      bool AllWithin = Inside[R] == Total[R];
      if (Refs.usedWithin(R, Begin, End) != static_cast<bool>(Used[R]) ||
          Refs.definedWithin(R, Begin, End) != static_cast<bool>(Defined[R]) ||
          Refs.allRefsWithin(R, Begin, End) != AllWithin)
        FAIL() << What << ", %" << R << " in [" << Begin << ", " << End
               << "): used " << int(Used[R]) << " defined " << int(Defined[R])
               << " all-within " << AllWithin;
    }
  }
}

/// Runs expectRangeQueriesMatchScan over every function of \p Source, as
/// lowered and after RAP at k=5.
void expectRangeQueriesMatchScanOnProgram(const std::string &Source,
                                          const std::string &What,
                                          RangeCoverage &Cov) {
  for (AllocatorKind A : {AllocatorKind::None, AllocatorKind::Rap}) {
    CompileOptions Options;
    Options.Allocator = A;
    Options.Alloc.K = 5;
    CompileResult CR = compileMiniC(Source, Options);
    ASSERT_TRUE(CR.ok()) << What << ":\n" << CR.Errors;
    for (const auto &F : CR.Prog->functions()) {
      expectRangeQueriesMatchScan(
          *F, Cov,
          What + (A == AllocatorKind::Rap ? " rap " : " ") + F->name());
      if (testing::Test::HasFatalFailure())
        return;
    }
  }
}

/// A linear instruction stream written by hand, for control flow the
/// structured lowering never emits (unreachable blocks, paths without a
/// def).
struct HandCode {
  IlocFunction F{"hand"};
  LinearCode Code;

  unsigned emit(Opcode Op, Reg Dst, std::vector<Reg> Src, int L0 = -1,
                int L1 = -1) {
    Instr *I = F.createInstr(Op);
    I->Dst = Dst;
    I->Src = std::move(Src);
    I->Label0 = L0;
    I->Label1 = L1;
    Code.Instrs.push_back(I);
    return static_cast<unsigned>(Code.Instrs.size()) - 1;
  }
  int label() {
    Code.LabelPos.push_back(0);
    return static_cast<int>(Code.LabelPos.size()) - 1;
  }
  void bind(int L) {
    Code.LabelPos[L] = static_cast<unsigned>(Code.Instrs.size());
  }

  /// Sparse flow dependences of \p R; also checks every register against
  /// the whole-function solve.
  std::vector<FlowDep> flowDeps(Reg R, unsigned NumVRegs = 8) {
    expectSparseMatchesDense(Code, NumVRegs, "hand-built");
    Cfg G(Code);
    return sparseFlowDeps(G, RefInfo(Code, NumVRegs), R);
  }
};

struct Analysis {
  std::unique_ptr<IlocProgram> Prog;
  IlocFunction *F = nullptr;
  LinearCode Code;

  explicit Analysis(const std::string &Src)
      : Prog(compile(Src, RegionGranularity::Merged)) {
    if (Prog) {
      F = Prog->function(0);
      Code = linearize(*F);
    }
  }
};

TEST(ControlDependence, StraightLineHasNone) {
  Analysis A("int main() { int a = 1; return a + 2; }");
  Cfg G(A.Code);
  DominatorTree Post(G, true);
  ControlDependence CD(G, Post);
  for (unsigned B = 0; B != G.numBlocks(); ++B)
    EXPECT_TRUE(CD.depsOf(B).empty());
}

TEST(ControlDependence, BranchArmsDependOnTheBranch) {
  Analysis A(R"(
    int main() {
      int a = 1;
      if (a > 0) { a = 2; } else { a = 3; }
      return a;
    }
  )");
  Cfg G(A.Code);
  DominatorTree Post(G, true);
  ControlDependence CD(G, Post);
  // Blocks: 0 entry+cond, 1 then, 2 else, 3 join.
  ASSERT_EQ(G.numBlocks(), 4u);
  ASSERT_EQ(CD.depsOf(1).size(), 1u);
  EXPECT_EQ(CD.depsOf(1)[0].Controller, 0u);
  ASSERT_EQ(CD.depsOf(2).size(), 1u);
  EXPECT_EQ(CD.depsOf(2)[0].Controller, 0u);
  EXPECT_TRUE(CD.depsOf(3).empty()) << "the join always executes";
  EXPECT_NE(CD.depsOf(1)[0].EdgeTarget, CD.depsOf(2)[0].EdgeTarget)
      << "arms hang off different branch edges";
}

TEST(ControlDependence, LoopHeadDependsOnItself) {
  Analysis A(R"(
    int main() {
      int i = 0;
      while (i < 5) { i = i + 1; }
      return i;
    }
  )");
  Cfg G(A.Code);
  DominatorTree Post(G, true);
  ControlDependence CD(G, Post);
  // Blocks: 0 entry, 1 head, 2 body, 3 exit. Head and body are control
  // dependent on the head's branch (the classic loop self-dependence).
  auto DependsOnHead = [&](unsigned B) {
    for (const ControlDep &D : CD.depsOf(B))
      if (D.Controller == 1)
        return true;
    return false;
  };
  EXPECT_TRUE(DependsOnHead(1));
  EXPECT_TRUE(DependsOnHead(2));
  EXPECT_TRUE(CD.depsOf(3).empty());
  EXPECT_TRUE(CD.depsOf(0).empty());
}

TEST(ControlDependence, AgreesWithRegionTreeNesting) {
  // Structural cross-check (DESIGN.md): an instruction nested under N
  // predicates in the region tree has exactly N control dependences.
  Analysis A(R"(
    int main() {
      int a = 1;
      if (a > 0) {
        if (a > 1) { a = 5; }
      }
      return a;
    }
  )");
  Cfg G(A.Code);
  DominatorTree Post(G, true);
  ControlDependence CD(G, Post);

  // Control dependence is not transitive: a statement depends directly on
  // its innermost governing predicate only; deeper nesting shows up as a
  // chain through the predicates' own dependences.
  A.F->root()->forEachNode([&](const PdgNode *N) {
    if (!N->isStatement() || N->Code.empty())
      return;
    const PdgNode *Governing = nullptr;
    for (const PdgNode *P = N->Parent; P; P = P->Parent)
      if (P->isPredicate()) {
        Governing = P;
        break;
      }
    unsigned Block = G.blockOf(N->Code.front()->LinPos);
    if (!Governing) {
      EXPECT_TRUE(CD.depsOf(Block).empty());
      return;
    }
    unsigned CtrlBlock = G.blockOf(Governing->Branch->LinPos);
    ASSERT_EQ(CD.depsOf(Block).size(), 1u);
    EXPECT_EQ(CD.depsOf(Block)[0].Controller, CtrlBlock)
        << "controller is the innermost governing predicate";
  });
}

TEST(DataDependence, StraightLineDefUse) {
  Analysis A("int main() { int a = 1; int b = a + 2; return b; }");
  Cfg G(A.Code);
  DataDependence DD(A.Code, G, A.F->numVRegs());
  // Every use position must see exactly the def that precedes it.
  for (const FlowDep &D : DD.flowDeps())
    EXPECT_LT(D.DefPos, D.UsePos);
  EXPECT_FALSE(DD.flowDeps().empty());
}

TEST(DataDependence, LoopCarriedSelfDependence) {
  // Figure 1's "self dependence due to the increment of scalar variable i
  // ... represented by the cyclic edge on node 7".
  Analysis A(R"(
    int main() {
      int i = 0;
      while (i < 5) { i = i + 1; }
      return i;
    }
  )");
  Cfg G(A.Code);
  DataDependence DD(A.Code, G, A.F->numVRegs());
  // The increment's definition of i reaches the use of i in the next
  // iteration: a flow dependence whose definition sits at a higher linear
  // position than its use, i.e. it travels the back edge.
  bool FoundCyclic = false;
  for (const FlowDep &D : DD.flowDeps())
    if (D.DefPos > D.UsePos)
      FoundCyclic = true;
  EXPECT_TRUE(FoundCyclic);
}

TEST(DataDependence, BothBranchDefsReachTheJoin) {
  Analysis A(R"(
    int main() {
      int a = 1;
      if (a > 0) { a = 2; } else { a = 3; }
      return a;
    }
  )");
  Cfg G(A.Code);
  DataDependence DD(A.Code, G, A.F->numVRegs());
  // The use of `a` at the return is reached by the defs in both arms (and
  // not by the initial def, which both arms kill).
  unsigned RetPos = 0;
  for (unsigned P = 0; P != A.Code.Instrs.size(); ++P)
    if (A.Code.Instrs[P]->Op == Opcode::Ret)
      RetPos = P;
  Reg AVar = A.Code.Instrs[RetPos]->Src[0];
  std::vector<unsigned> Defs = reachingDefs(DD, RetPos, AVar);
  EXPECT_EQ(Defs.size(), 2u);
}

TEST(DataDependence, KilledDefinitionDoesNotReach) {
  Analysis A(R"(
    int main() {
      int a = 1;
      a = 2;
      return a;
    }
  )");
  Cfg G(A.Code);
  DataDependence DD(A.Code, G, A.F->numVRegs());
  unsigned RetPos = static_cast<unsigned>(A.Code.Instrs.size()) - 1;
  Reg AVar = A.Code.Instrs[RetPos]->Src[0];
  std::vector<unsigned> Defs = reachingDefs(DD, RetPos, AVar);
  ASSERT_EQ(Defs.size(), 1u) << "the first definition is killed";
}

TEST(SparseFlowDeps, MatchesDenseOnTable1) {
  for (const BenchProgram &P : benchPrograms()) {
    expectSparseMatchesDenseOnProgram(P.Source, P.Name);
    if (HasFatalFailure())
      return;
  }
}

TEST(SparseFlowDeps, MatchesDenseOnDeepFunctions) {
  for (unsigned Seed = 1; Seed <= 3; ++Seed) {
    fuzz::ScaleProgramConfig C;
    C.Seed = Seed;
    C.DeepDepth = 3;
    C.DeepFanout = 3;
    expectSparseMatchesDenseOnProgram(
        fuzz::ScaleProgramBuilder(C).buildDeepFunction(),
        "deep seed " + std::to_string(Seed));
    if (HasFatalFailure())
      return;
  }
}

TEST(SparseFlowDeps, MatchesDenseOnScaleModule) {
  fuzz::ScaleProgramConfig C;
  C.Seed = 1;
  C.NumFunctions = 40;
  expectSparseMatchesDenseOnProgram(fuzz::ScaleProgramBuilder(C).buildModule(),
                                    "module seed 1");
}

TEST(RefInfoRanges, MatchBruteForce) {
  RangeCoverage Cov;
  for (const BenchProgram &P : benchPrograms()) {
    expectRangeQueriesMatchScanOnProgram(P.Source, P.Name, Cov);
    if (HasFailure())
      return;
  }
  fuzz::ScaleProgramConfig C;
  C.Seed = 1;
  C.DeepDepth = 3;
  C.DeepFanout = 3;
  expectRangeQueriesMatchScanOnProgram(
      fuzz::ScaleProgramBuilder(C).buildDeepFunction(), "deep seed 1", Cov);
  // The inputs must reach the edge cases: an empty use or def list.
  EXPECT_GT(Cov.UsedNotDefined, 0u);
  EXPECT_GT(Cov.DefinedNotUsed, 0u);
  EXPECT_GT(Cov.Unreferenced, 0u);
}

TEST(SparseFlowDeps, LoopCarriedUseAndDefInOneInstruction) {
  // i = i + 1 alone in a self-loop: the instruction's own def does not reach
  // its use in the same execution, only in the next iteration.
  HandCode H;
  const Reg I = 1, One = 2;
  int Loop = H.label(), Exit = H.label();
  unsigned Init = H.emit(Opcode::LoadI, I, {});
  H.emit(Opcode::LoadI, One, {});
  H.bind(Loop);
  unsigned Inc = H.emit(Opcode::Add, I, {I, One});
  H.emit(Opcode::Cbr, NoReg, {I}, Loop, Exit);
  H.bind(Exit);
  unsigned Ret = H.emit(Opcode::Ret, NoReg, {I});
  std::vector<FlowDep> Want = {{Init, Inc, I},
                               {Inc, Inc, I},
                               {Inc, Inc + 1, I},
                               {Inc, Ret, I}};
  EXPECT_EQ(H.flowDeps(I), Want);
}

TEST(SparseFlowDeps, DefInAnUnreachableBlockStillReachesItsSuccessor) {
  // The block after the jump has no predecessor. Its use of x sees no def;
  // its def of x falls through to the join like any other.
  HandCode H;
  const Reg X = 1, Y = 2;
  int Join = H.label();
  unsigned D0 = H.emit(Opcode::LoadI, X, {});
  H.emit(Opcode::Jmp, NoReg, {}, Join);
  H.emit(Opcode::Add, Y, {X, X});
  unsigned D1 = H.emit(Opcode::LoadI, X, {});
  H.bind(Join);
  unsigned Ret = H.emit(Opcode::Ret, NoReg, {X});
  std::vector<FlowDep> Want = {{D0, Ret, X}, {D1, Ret, X}};
  EXPECT_EQ(H.flowDeps(X), Want);
}

TEST(SparseFlowDeps, ParameterUsesWithoutADef) {
  // q is read and never written; p is written on one arm only, so the use
  // before the branch and the path through the other arm contribute none.
  HandCode H;
  const Reg P = 0, Q = 1, Y = 2;
  int Then = H.label(), Else = H.label(), Join = H.label();
  H.emit(Opcode::Add, Y, {P, Q});
  H.emit(Opcode::Cbr, NoReg, {Q}, Then, Else);
  H.bind(Then);
  H.emit(Opcode::Jmp, NoReg, {}, Join);
  H.bind(Else);
  unsigned Def = H.emit(Opcode::LoadI, P, {});
  H.bind(Join);
  unsigned Ret = H.emit(Opcode::Ret, NoReg, {P});
  EXPECT_TRUE(H.flowDeps(Q).empty());
  std::vector<FlowDep> Want = {{Def, Ret, P}};
  EXPECT_EQ(H.flowDeps(P), Want);
}

TEST(SparseFlowDeps, TwoDefsInOneBlock) {
  // A use pairs with the nearest earlier def in its block; a successor
  // block sees only the block's last def.
  HandCode H;
  const Reg X = 1, Y = 2;
  int Next = H.label();
  unsigned D0 = H.emit(Opcode::LoadI, X, {});
  unsigned U0 = H.emit(Opcode::Add, Y, {X, X});
  unsigned D1 = H.emit(Opcode::LoadI, X, {});
  H.emit(Opcode::Jmp, NoReg, {}, Next);
  H.bind(Next);
  unsigned Ret = H.emit(Opcode::Ret, NoReg, {X});
  std::vector<FlowDep> Want = {{D0, U0, X}, {D1, Ret, X}};
  EXPECT_EQ(H.flowDeps(X), Want);
}

TEST(Dot, EmitsNodesAndBothEdgeKinds) {
  Analysis A(R"(
    int main() {
      int i = 1;
      while (i < 10) {
        int j = i + 1;
        if (j == 7) { j = j + 2; } else { j = j - 1; }
        i = i + j;
      }
      return i;
    }
  )");
  std::string Dot = pdgToDot(*A.F);
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos)
      << "control dependence edges";
  EXPECT_NE(Dot.find("color=blue"), std::string::npos)
      << "data dependence edges";
  EXPECT_NE(Dot.find("(loop)"), std::string::npos) << "loop region marked";
  EXPECT_NE(Dot.find("label=\"T\""), std::string::npos)
      << "labeled true edge from the predicate";
}

TEST(Dot, RegionTreeTextShowsHierarchy) {
  Analysis A(R"(
    int main() {
      int i = 0;
      while (i < 3) { i = i + 1; }
      return i;
    }
  )");
  std::string Text = regionTreeToText(*A.F);
  EXPECT_NE(Text.find("region"), std::string::npos);
  EXPECT_NE(Text.find("loop"), std::string::npos);
  EXPECT_NE(Text.find("predicate"), std::string::npos);
  EXPECT_NE(Text.find("stmt"), std::string::npos);
}

} // namespace
