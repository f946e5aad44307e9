//===- tests/interference_dense_test.cpp - Dense graph cross-check ----------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests for the bit-matrix InterferenceGraph: a naive
/// map/set-based reference model replays the same operation sequence, and
/// every query (node membership, interfere, adjacency-as-set, alive counts,
/// effective degree) must agree after each mutation. Sequences come from a
/// seeded random op generator and from real liveness-derived interference
/// over generated MiniC programs.
///
//===----------------------------------------------------------------------===//

#include "regalloc/InterferenceGraph.h"

#include "cfg/Cfg.h"
#include "cfg/Liveness.h"
#include "driver/Pipeline.h"
#include "ir/Linearize.h"

#include "fuzz/RandomProgram.h"

#include "gtest/gtest.h"

#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

using namespace rap;

namespace {

/// Naive reference model mirroring InterferenceGraph's contract with
/// ordinary containers: O(n) everywhere, trivially auditable.
class RefGraph {
public:
  struct Node {
    std::set<Reg> VRegs;
    bool Global = false;
    bool Alive = true;
  };

  unsigned getOrCreateNode(Reg R) {
    auto It = NodeOf.find(R);
    if (It != NodeOf.end())
      return It->second;
    Nodes.push_back(Node{{R}, false, true});
    unsigned Id = static_cast<unsigned>(Nodes.size() - 1);
    NodeOf[R] = Id;
    return Id;
  }

  int nodeOf(Reg R) const {
    auto It = NodeOf.find(R);
    return It == NodeOf.end() ? -1 : static_cast<int>(It->second);
  }

  void addEdgeNodes(unsigned N1, unsigned N2) {
    if (N1 != N2)
      Edges.insert(key(N1, N2));
  }

  void addEdge(Reg A, Reg B) {
    addEdgeNodes(NodeOf.at(A), NodeOf.at(B));
  }

  unsigned mergeNodes(unsigned N1, unsigned N2) {
    for (Reg R : Nodes[N2].VRegs) {
      Nodes[N1].VRegs.insert(R);
      NodeOf[R] = N1;
    }
    Nodes[N1].Global = Nodes[N1].Global || Nodes[N2].Global;
    // Move N2's edges to N1, then kill N2.
    std::vector<unsigned> Neighbors;
    for (unsigned X = 0; X != Nodes.size(); ++X)
      if (X != N2 && Edges.count(key(X, N2)))
        Neighbors.push_back(X);
    for (unsigned X : Neighbors) {
      Edges.erase(key(X, N2));
      if (X != N1)
        Edges.insert(key(X, N1));
    }
    Nodes[N2].Alive = false;
    Nodes[N2].VRegs.clear();
    return N1;
  }

  void renameReg(Reg OldReg, Reg NewReg) {
    auto It = NodeOf.find(OldReg);
    if (It == NodeOf.end())
      return;
    unsigned Id = It->second;
    NodeOf.erase(It);
    Nodes[Id].VRegs.erase(OldReg);
    Nodes[Id].VRegs.insert(NewReg);
    NodeOf[NewReg] = Id;
  }

  void addRegToNode(unsigned Id, Reg R) {
    Nodes[Id].VRegs.insert(R);
    NodeOf[R] = Id;
  }

  bool interfere(unsigned N1, unsigned N2) const {
    return N1 != N2 && Edges.count(key(N1, N2)) != 0;
  }

  std::set<unsigned> aliveNeighbors(unsigned Id) const {
    std::set<unsigned> Out;
    for (unsigned X = 0; X != Nodes.size(); ++X)
      if (X != Id && Nodes[X].Alive && Edges.count(key(X, Id)))
        Out.insert(X);
    return Out;
  }

  unsigned effectiveDegree(unsigned Id) const {
    std::set<unsigned> Neighbors = aliveNeighbors(Id);
    unsigned Degree = static_cast<unsigned>(Neighbors.size());
    if (Nodes[Id].Global)
      for (unsigned X = 0; X != Nodes.size(); ++X)
        if (X != Id && Nodes[X].Alive && Nodes[X].Global &&
            !Neighbors.count(X))
          ++Degree;
    return Degree;
  }

  unsigned numAliveNodes() const {
    unsigned N = 0;
    for (const Node &Nd : Nodes)
      N += Nd.Alive;
    return N;
  }

  std::vector<Node> Nodes;

private:
  static std::pair<unsigned, unsigned> key(unsigned A, unsigned B) {
    return A < B ? std::make_pair(A, B) : std::make_pair(B, A);
  }

  std::set<std::pair<unsigned, unsigned>> Edges;
  std::map<Reg, unsigned> NodeOf;
};

/// Full-state comparison after a mutation. Plain comparisons with a single
/// EXPECT on mismatch: the pairwise sweep runs millions of times across the
/// random sequences and per-comparison gtest bookkeeping dominates
/// otherwise.
void expectEqual(const InterferenceGraph &G, const RefGraph &R,
                 unsigned MaxReg) {
  ASSERT_EQ(G.numNodesTotal(), R.Nodes.size());
  EXPECT_EQ(G.numAliveNodes(), R.numAliveNodes());

  for (Reg V = 0; V <= MaxReg; ++V)
    if (G.nodeOf(V) != R.nodeOf(V))
      FAIL() << "nodeOf(%" << V << "): " << G.nodeOf(V) << " vs "
             << R.nodeOf(V);

  std::vector<unsigned> AliveVec = G.aliveNodes();
  std::set<unsigned> Alive(AliveVec.begin(), AliveVec.end());
  for (unsigned Id = 0; Id != G.numNodesTotal(); ++Id) {
    EXPECT_EQ(G.node(Id).Alive, R.Nodes[Id].Alive) << "node " << Id;
    EXPECT_EQ(Alive.count(Id) != 0, R.Nodes[Id].Alive) << "node " << Id;
    if (!R.Nodes[Id].Alive)
      continue;
    // Members are kept sorted, and each maps back to its node.
    std::vector<Reg> Sorted(R.Nodes[Id].VRegs.begin(), R.Nodes[Id].VRegs.end());
    EXPECT_EQ(G.node(Id).VRegs, Sorted) << "node " << Id;
    for (Reg V : G.node(Id).VRegs)
      EXPECT_EQ(G.nodeOf(V), static_cast<int>(Id)) << "%" << V;
    std::set<unsigned> AdjSet(G.adjacency(Id).begin(),
                              G.adjacency(Id).end());
    EXPECT_EQ(AdjSet.size(), G.adjacency(Id).size())
        << "duplicate neighbor in node " << Id;
    EXPECT_EQ(AdjSet, R.aliveNeighbors(Id)) << "node " << Id;
    EXPECT_EQ(G.effectiveDegree(Id), R.effectiveDegree(Id))
        << "node " << Id;
    for (unsigned Other = 0; Other != G.numNodesTotal(); ++Other)
      if (R.Nodes[Other].Alive &&
          G.interfere(Id, Other) != R.interfere(Id, Other))
        FAIL() << "interfere(" << Id << "," << Other << ") disagrees";
  }
}

/// Colors the alive nodes of \p G greedily from a random start color (so
/// adjacent nodes differ and several nodes share a color), then checks
/// combinedByColor against a naive model built from \p R: one node per
/// used color in order of the color's first alive node, members unioned
/// and sorted, Global or-ed, and colors adjacent when any members were.
void expectCombinedMatches(InterferenceGraph &G, const RefGraph &R,
                           std::mt19937 &Rng) {
  std::vector<unsigned> Alive = G.aliveNodes();
  for (unsigned N : Alive)
    G.node(N).Color = -1;
  for (unsigned N : Alive) {
    std::set<int> Taken;
    for (unsigned M : G.adjacency(N))
      Taken.insert(G.node(M).Color);
    int C = static_cast<int>(Rng() % 3);
    while (Taken.count(C))
      ++C;
    G.node(N).Color = C;
  }
  InterferenceGraph Out = G.combinedByColor();

  std::vector<int> Colors;
  std::map<int, unsigned> IndexOf;
  std::vector<std::set<Reg>> Members;
  std::vector<bool> Global;
  for (unsigned N : Alive) {
    auto [It, New] = IndexOf.try_emplace(G.node(N).Color,
                                         static_cast<unsigned>(Colors.size()));
    if (New) {
      Colors.push_back(G.node(N).Color);
      Members.emplace_back();
      Global.push_back(false);
    }
    Members[It->second].insert(R.Nodes[N].VRegs.begin(),
                               R.Nodes[N].VRegs.end());
    Global[It->second] = Global[It->second] || R.Nodes[N].Global;
  }
  std::vector<std::set<unsigned>> Adj(Colors.size());
  for (unsigned N : Alive)
    for (unsigned M : R.aliveNeighbors(N))
      Adj[IndexOf.at(G.node(N).Color)].insert(IndexOf.at(G.node(M).Color));

  ASSERT_EQ(Out.numNodesTotal(), Colors.size());
  ASSERT_EQ(Out.numAliveNodes(), Colors.size());
  for (unsigned I = 0; I != Colors.size(); ++I) {
    EXPECT_EQ(Out.node(I).Color, Colors[I]) << "combined node " << I;
    std::vector<Reg> Want(Members[I].begin(), Members[I].end());
    EXPECT_EQ(Out.node(I).VRegs, Want) << "combined node " << I;
    EXPECT_EQ(Out.node(I).Global, Global[I]) << "combined node " << I;
    for (Reg V : Want)
      EXPECT_EQ(Out.nodeOf(V), static_cast<int>(I)) << "%" << V;
    std::set<unsigned> AdjSet(Out.adjacency(I).begin(),
                              Out.adjacency(I).end());
    EXPECT_EQ(AdjSet, Adj[I]) << "combined node " << I;
  }
}

TEST(InterferenceDense, RandomOpSequences) {
  for (unsigned Seed = 0; Seed != 20; ++Seed) {
    std::mt19937 Rng(Seed);
    InterferenceGraph G;
    RefGraph R;
    const unsigned MaxReg = 40;
    Reg NextFresh = MaxReg + 1; // renameReg targets, outside the pool
    unsigned MaxSeen = MaxReg;

    for (unsigned Step = 0; Step != 120; ++Step) {
      unsigned Op = Rng() % 10;
      if (Op < 3 || G.numNodesTotal() == 0) {
        Reg V = Rng() % (MaxReg + 1);
        ASSERT_EQ(G.getOrCreateNode(V), R.getOrCreateNode(V));
      } else if (Op < 6) {
        // Edge between two random alive nodes.
        std::vector<unsigned> Alive = G.aliveNodes();
        unsigned N1 = Alive[Rng() % Alive.size()];
        unsigned N2 = Alive[Rng() % Alive.size()];
        if (Rng() % 2) {
          G.addEdgeNodes(N1, N2);
          R.addEdgeNodes(N1, N2);
        } else {
          Reg A = *R.Nodes[N1].VRegs.begin();
          Reg B = *R.Nodes[N2].VRegs.begin();
          G.addEdge(A, B);
          R.addEdge(A, B);
        }
      } else if (Op == 6) {
        // Merge two distinct, non-interfering alive nodes.
        std::vector<unsigned> Alive = G.aliveNodes();
        if (Alive.size() >= 2) {
          unsigned N1 = Alive[Rng() % Alive.size()];
          unsigned N2 = Alive[Rng() % Alive.size()];
          if (N1 != N2 && !R.interfere(N1, N2)) {
            ASSERT_EQ(G.mergeNodes(N1, N2), R.mergeNodes(N1, N2));
          }
        }
      } else if (Op == 7) {
        // Rename a random in-graph register to a fresh one.
        std::vector<unsigned> Alive = G.aliveNodes();
        unsigned N = Alive[Rng() % Alive.size()];
        Reg Old = *R.Nodes[N].VRegs.begin();
        Reg Fresh = NextFresh++;
        MaxSeen = Fresh;
        G.renameReg(Old, Fresh);
        R.renameReg(Old, Fresh);
      } else if (Op == 8) {
        // Import a register not yet in the graph into an existing node:
        // one from the pool when a probe finds it absent (so it lands
        // mid-list), otherwise a fresh one (appended at the end).
        std::vector<unsigned> Alive = G.aliveNodes();
        unsigned N = Alive[Rng() % Alive.size()];
        Reg New = Rng() % (MaxReg + 1);
        if (G.hasReg(New)) {
          New = NextFresh++;
          MaxSeen = New;
        }
        G.addRegToNode(N, New);
        R.addRegToNode(N, New);
      } else {
        // Toggle a Global flag (kept mirrored by hand).
        std::vector<unsigned> Alive = G.aliveNodes();
        unsigned N = Alive[Rng() % Alive.size()];
        bool Flag = Rng() % 2;
        G.node(N).Global = Flag;
        R.Nodes[N].Global = Flag;
      }
      expectEqual(G, R, MaxSeen);
      EXPECT_GT(G.memoryBytes(), 0u);
      if (Step % 4 == 3)
        expectCombinedMatches(G, R, Rng);
      if (HasFatalFailure())
        return;
    }
  }
}

/// Builds interference the standard way — each definition interferes with
/// everything live after it — over real (generated) programs, in both the
/// dense graph and the reference, then compares all queries. Exercises the
/// dense layout on realistic degree distributions rather than uniform
/// random edges.
TEST(InterferenceDense, LivenessDerivedGraphs) {
  for (unsigned Seed = 100; Seed != 108; ++Seed) {
    std::string Source = rap::fuzz::RandomProgramBuilder(Seed).build();
    CompileOptions Options; // Allocator = None
    CompileResult CR = compileMiniC(Source, Options);
    ASSERT_TRUE(CR.ok()) << CR.Errors;
    for (const auto &F : CR.Prog->functions()) {
      LinearCode Code = linearize(*F);
      Cfg Graph(Code);
      Liveness Live(Code, Graph, F->numVRegs());

      InterferenceGraph G;
      RefGraph R;
      unsigned MaxSeen = 0;
      for (unsigned P = 0; P != Code.Instrs.size(); ++P) {
        const Instr *I = Code.Instrs[P];
        if (!I->hasDef())
          continue;
        G.getOrCreateNode(I->Dst);
        R.getOrCreateNode(I->Dst);
        MaxSeen = std::max(MaxSeen, I->Dst);
        Live.liveAfter(P).forEach([&](unsigned L) {
          G.getOrCreateNode(L);
          R.getOrCreateNode(L);
          G.addEdge(I->Dst, L);
          R.addEdge(I->Dst, L);
          MaxSeen = std::max(MaxSeen, L);
        });
      }
      expectEqual(G, R, MaxSeen);
    }
  }
}

} // namespace
