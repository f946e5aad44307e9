//===- tests/oracles/Dominators.cpp - (Post)dominator trees ---------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "oracles/Dominators.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace rap;

DominatorTree::DominatorTree(const Cfg &G, bool Post) : Post(Post) {
  unsigned N = G.numBlocks();
  unsigned Total = Post ? N + 1 : N;
  Root = Post ? N : 0;

  // Analysis-direction adjacency. For postdominators the graph is the
  // reverse CFG rooted at a virtual exit node with id N.
  std::vector<std::vector<unsigned>> Succ(Total), Pred(Total);
  for (unsigned B = 0; B != N; ++B) {
    for (unsigned S : G.block(B).Succs) {
      if (Post) {
        Succ[S].push_back(B);
        Pred[B].push_back(S);
      } else {
        Succ[B].push_back(S);
        Pred[S].push_back(B);
      }
    }
  }
  if (Post) {
    for (unsigned E : G.exitBlocks()) {
      Succ[Root].push_back(E);
      Pred[E].push_back(Root);
    }
  }

  // Reverse postorder from the root.
  std::vector<int> PostOrderIdx(Total, -1);
  std::vector<unsigned> Order; // postorder
  {
    std::vector<char> Visited(Total, 0);
    // Iterative DFS with explicit stack of (node, next child index).
    std::vector<std::pair<unsigned, size_t>> Stack;
    Stack.push_back({Root, 0});
    Visited[Root] = 1;
    while (!Stack.empty()) {
      auto &[Node, Child] = Stack.back();
      if (Child < Succ[Node].size()) {
        unsigned Next = Succ[Node][Child++];
        if (!Visited[Next]) {
          Visited[Next] = 1;
          Stack.push_back({Next, 0});
        }
        continue;
      }
      PostOrderIdx[Node] = static_cast<int>(Order.size());
      Order.push_back(Node);
      Stack.pop_back();
    }
  }

  std::vector<int> IdomAll(Total, -1);
  IdomAll[Root] = static_cast<int>(Root); // temporarily self, per CHK

  auto Intersect = [&](int A, int B) {
    while (A != B) {
      while (PostOrderIdx[A] < PostOrderIdx[B])
        A = IdomAll[A];
      while (PostOrderIdx[B] < PostOrderIdx[A])
        B = IdomAll[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Reverse postorder = reverse of Order, skipping the root.
    for (auto It = Order.rbegin(), E = Order.rend(); It != E; ++It) {
      unsigned B = *It;
      if (B == Root)
        continue;
      int NewIdom = -1;
      for (unsigned P : Pred[B]) {
        if (PostOrderIdx[P] < 0 || IdomAll[P] < 0)
          continue; // unreachable or not yet processed
        NewIdom = NewIdom < 0 ? static_cast<int>(P)
                              : Intersect(NewIdom, static_cast<int>(P));
      }
      if (NewIdom >= 0 && IdomAll[B] != NewIdom) {
        IdomAll[B] = NewIdom;
        Changed = true;
      }
    }
  }
  IdomAll[Root] = -1;

  Idom.assign(N, -1);
  for (unsigned B = 0; B != N; ++B)
    Idom[B] = IdomAll[B];

  // Depths for dominates() queries; the virtual root has depth 0.
  Depth.assign(N, -1);
  std::function<int(unsigned)> DepthOf = [&](unsigned B) -> int {
    if (Depth[B] >= 0)
      return Depth[B];
    int Parent = Idom[B];
    if (Parent < 0)
      return Depth[B] = (B == Root) ? 0 : (PostOrderIdx[B] >= 0 ? 1 : -1);
    if (static_cast<unsigned>(Parent) == Root)
      return Depth[B] = 1;
    int PD = DepthOf(static_cast<unsigned>(Parent));
    return Depth[B] = PD < 0 ? -1 : PD + 1;
  };
  for (unsigned B = 0; B != N; ++B)
    if (PostOrderIdx[B] >= 0)
      DepthOf(B);
}

bool DominatorTree::dominates(unsigned A, unsigned B) const {
  unsigned N = static_cast<unsigned>(Idom.size());
  auto DepthOf = [&](unsigned Node) {
    return Node == Root ? 0 : Depth[Node];
  };
  if (A == B)
    return true;
  if (A == Root)
    return B == Root || (B < N && Depth[B] >= 0);
  if (B == Root)
    return false;
  assert(A < N && B < N && "block id out of range");
  if (Depth[A] < 0 || Depth[B] < 0)
    return false;
  unsigned Cur = B;
  while (DepthOf(Cur) > DepthOf(A)) {
    int Next = Cur == Root ? -1 : Idom[Cur];
    if (Next < 0)
      return false;
    Cur = static_cast<unsigned>(Next);
  }
  return Cur == A;
}
