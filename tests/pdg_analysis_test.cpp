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
/// i = i + 1), and the DOT export.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "oracles/ControlDependence.h"
#include "oracles/Dominators.h"

#include "cfg/Cfg.h"
#include "ir/Linearize.h"
#include "pdg/DataDependence.h"
#include "pdg/Dot.h"

#include "gtest/gtest.h"

using namespace rap;
using rap::test::compile;

namespace {

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
  std::vector<unsigned> Defs = DD.reachingDefs(RetPos, AVar);
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
  std::vector<unsigned> Defs = DD.reachingDefs(RetPos, AVar);
  ASSERT_EQ(Defs.size(), 1u) << "the first definition is killed";
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
