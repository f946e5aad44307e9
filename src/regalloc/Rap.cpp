//===- regalloc/Rap.cpp - Hierarchical PDG allocator -------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Rap.h"

#include "pdg/DataDependence.h"
#include "pdg/SeriesParallel.h"
#include "regalloc/AssignmentVerifier.h"
#include "regalloc/Coalesce.h"
#include "regalloc/Coloring.h"
#include "regalloc/PhysicalRewrite.h"
#include "regalloc/SpillCleanup.h"
#include "regalloc/SpillCodeMovement.h"
#include "support/Env.h"
#include "support/ShardPool.h"
#include "support/Stats.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

using namespace rap;

namespace {
double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

bool rapDebug() {
  static const bool On = env::flag("RAP_DEBUG");
  return On;
}

} // namespace

namespace {
constexpr double LocalOrSpilledCost = 999999.0; // paper Figure 5
constexpr double InfiniteCost = 1e18;           // atomic spill temporaries
constexpr unsigned MaxSpillActions = 50000;

/// Summary of a set of region-global origins: NoReg when empty, the origin
/// when it has one element, ManyGlobals for more.
constexpr Reg ManyGlobals = NoReg - 1;
Reg unionGlobals(Reg A, Reg B) {
  if (A == NoReg || A == B)
    return B;
  if (B == NoReg)
    return A;
  return ManyGlobals;
}
} // namespace

RapAllocator::RapAllocator(IlocFunction &F, const AllocOptions &Options)
    : F(F), Options(Options),
      Injector(Options.Faults.empty() ? envFaultPlan() : Options.Faults,
               F.name()),
      StartTime(std::chrono::steady_clock::now()) {
  refresh();
}

void RapAllocator::checkTimeBudget(int Region) {
  // One unified guard: MaxAllocSeconds and the request's cancel token
  // (deadline / drain) share the same round-boundary check points.
  checkAllocBudget(Options, StartTime, F.name(), Region);
}

void RapAllocator::refresh() {
  // Hand the stale CodeInfo to the new one so liveness warm-starts from the
  // previous block solution (exact; see Liveness).
  CI = std::make_unique<CodeInfo>(F, CI.get());
  Stats.LivenessSeconds += CI->LivenessSeconds;
  Refs = std::make_unique<RefInfo>(CI->Code, F.numVRegs());
}

bool RapAllocator::isGlobalTo(Reg R, const PdgNode *V) const {
  return !Refs->allRefsWithin(R, V->LinBegin, V->LinEnd);
}

int RapAllocator::slotOf(Reg V) {
  Reg Origin = originOf(V);
  if (!hasSlot(Origin)) {
    if (Origin >= SlotOf.size())
      SlotOf.resize(Origin + 1, -1);
    SlotOf[Origin] = F.newSpillSlot();
  }
  return SlotOf[Origin];
}

Reg RapAllocator::newPieceOf(Reg V, bool Atomic) {
  Reg Origin = originOf(V);
  Reg T = F.newVReg();
  if (T >= OriginOf.size())
    OriginOf.resize(T + 1, NoReg);
  OriginOf[T] = Origin;
  if (Atomic)
    NoSpill.insert(T);
  return T;
}

CodeEditor &RapAllocator::editor() {
  if (!Editor)
    Editor = std::make_unique<CodeEditor>(F);
  return *Editor;
}

//===----------------------------------------------------------------------===//
// Phase 1a: building the region interference graph (paper §3.1.1)
//===----------------------------------------------------------------------===//

InterferenceGraph RapAllocator::buildRegionGraph(PdgNode *V) {
  return buildRegionGraphImpl(V, [this](const PdgNode *S) {
    auto It = SavedGraphs.find(S);
    return It == SavedGraphs.end() ? nullptr : &It->second;
  });
}

InterferenceGraph RapAllocator::buildRegionGraphImpl(
    PdgNode *V,
    const std::function<const InterferenceGraph *(const PdgNode *)>
        &SubGraph) {
  allocCheck(V->isRegion(), AllocErrorKind::InvariantViolation,
             "allocation works on region nodes");
  InterferenceGraph G;

  std::vector<Instr *> PC = V->parentCode();
  // Membership tests run inside the per-liveness-bit loop below, so keep
  // the reference sets as bit vectors; the sorted lists reproduce the
  // ascending iteration order node creation depends on.
  unsigned NumVRegs = F.numVRegs();
  BitVector RefsPC(NumVRegs);
  for (const Instr *I : PC) {
    for (Reg R : I->Src)
      RefsPC.set(R);
    if (I->hasDef())
      RefsPC.set(I->Dst);
  }

  BitVector Vars = RefsPC; // parent code is part of the subtree walk below
  V->forEachInstr([&](Instr *I) {
    for (Reg R : I->Src)
      Vars.set(R);
    if (I->hasDef())
      Vars.set(I->Dst);
  });

  //--- add_region_conflicts -----------------------------------------------
  RefsPC.forEach([&](unsigned R) { G.getOrCreateNode(R); });

  // Definition points: the defined register interferes with every register
  // that is live after the instruction (minus the source of a copy). Live
  // registers referenced only in subregions get a node now and are merged
  // with the subregion import below; registers referenced entirely outside
  // this region are live-in and handled by the Figure 4 rules.
  for (const Instr *I : PC) {
    if (!I->hasDef())
      continue;
    Reg D = I->Dst;
    CI->Live.liveAfter(I->LinPos).forEachCommon(Vars, [&](unsigned L) {
      if (L == D)
        return;
      if (I->Op == Opcode::Mv && L == I->Src[0])
        return;
      G.getOrCreateNode(L);
      G.addEdge(D, static_cast<Reg>(L));
    });
  }

  // Registers live on entrance to the region and referenced here coexist.
  const BitVector &LiveInV = CI->Live.liveInOf(*V);
  std::vector<Reg> LiveRefs;
  RefsPC.forEachCommon(LiveInV, [&](unsigned R) { LiveRefs.push_back(R); });
  for (size_t A = 0; A != LiveRefs.size(); ++A)
    for (size_t B = A + 1; B != LiveRefs.size(); ++B)
      G.addEdge(LiveRefs[A], LiveRefs[B]);

  //--- add_subregion_conflicts (Figure 4) ----------------------------------
  // Live-in registers not referenced at this level conflict with every node
  // referenced here (Figure 3's virtual register d).
  std::vector<unsigned> PreNodes = G.aliveNodes();
  Vars.forEachCommon(LiveInV, [&](unsigned VK) {
    if (RefsPC.test(VK))
      return;
    unsigned N = G.getOrCreateNode(VK);
    for (unsigned M : PreNodes)
      G.addEdgeNodes(N, M);
  });

  // Per-subregion import tables, reused across subregions: the alive
  // subregion nodes in ascending order, the node each one landed in (by
  // position), and the landing node by subregion node id.
  std::vector<unsigned> AliveS, Targets, TargetOf;
  std::vector<Reg> Fresh;
  for (PdgNode *S : V->subregions()) {
    const InterferenceGraph *GSPtr = SubGraph(S);
    allocCheck(GSPtr != nullptr, AllocErrorKind::InvariantViolation,
               "subregion must be allocated before its parent");
    const InterferenceGraph &GS = *GSPtr;

    // Import each combined subregion node, merging with existing nodes that
    // name the same virtual register.
    AliveS = GS.aliveNodes();
    Targets.clear();
    TargetOf.assign(GS.numNodesTotal(), 0);
    for (unsigned NS : AliveS) {
      int Target = -1;
      Fresh.clear();
      for (Reg R : GS.node(NS).VRegs) {
        int Existing = G.nodeOf(R);
        if (Existing < 0) {
          Fresh.push_back(R);
          continue;
        }
        if (Target < 0)
          Target = Existing;
        else if (Target != Existing)
          Target = static_cast<int>(G.mergeNodes(
              static_cast<unsigned>(Target), static_cast<unsigned>(Existing)));
      }
      size_t FirstFresh = 0;
      if (Target < 0) {
        allocCheck(!Fresh.empty(), AllocErrorKind::InvariantViolation,
                   "empty subregion node");
        Target = static_cast<int>(G.getOrCreateNode(Fresh.front()));
        FirstFresh = 1;
      }
      for (size_t J = FirstFresh; J < Fresh.size(); ++J)
        G.addRegToNode(static_cast<unsigned>(Target), Fresh[J]);
      Targets.push_back(static_cast<unsigned>(Target));
      TargetOf[NS] = static_cast<unsigned>(Target);
    }
    for (unsigned NS : AliveS)
      for (unsigned MS : GS.adjacency(NS))
        if (MS > NS)
          G.addEdgeNodes(TargetOf[NS], TargetOf[MS]);

    // Registers live across (but unreferenced in) the subregion conflict
    // with everything allocated inside it.
    const BitVector &LiveInS = CI->Live.liveInOf(*S);
    Vars.forEachCommon(LiveInS, [&](unsigned VK) {
      if (Refs->referencedWithin(VK, S->LinBegin, S->LinEnd))
        return;
      unsigned N = G.getOrCreateNode(VK);
      for (unsigned NG : Targets)
        G.addEdgeNodes(N, NG);
    });
  }

  // Pieces of one split register represent the same virtual register
  // (paper §3.1.1); merge their nodes when they do not interfere so they
  // allocate — and later move — as a unit.
  mergeSplitPieces(G, V);

  // A node's region-global origins, folded to one value: NoReg for none,
  // the origin for exactly one, ManyGlobals for two or more (pieces of one
  // origin count once).
  auto GlobalsOf = [&](unsigned N, Reg Acc) {
    for (Reg R : G.node(N).VRegs)
      if (isGlobalTo(R, V))
        Acc = unionGlobals(Acc, originOf(R));
    return Acc;
  };
  if (Options.Coalesce)
    coalesceConservatively(G, PC, Options.K, [&](unsigned A, unsigned B) {
      return GlobalsOf(B, GlobalsOf(A, NoReg)) != ManyGlobals;
    });

  // Classify nodes and check the single-global invariant implied by the
  // global-global coloring rule (pieces of one origin count once: they
  // never coexist, so sharing a color is always sound for them).
  for (unsigned N : G.aliveNodes()) {
    Reg Globals = GlobalsOf(N, NoReg);
    G.node(N).Global = Globals != NoReg;
    if (Globals == ManyGlobals)
      throwAllocError(AllocErrorKind::InvariantViolation,
                      "combined node holds two region-global virtual "
                      "registers",
                      F.name(), V->Id);
  }
  return G;
}

void RapAllocator::mergeSplitPieces(InterferenceGraph &G,
                                    const PdgNode *V) const {
  // Each node's region-global origins and number of mergeable pieces,
  // computed once: merging adds them up.
  const unsigned NumNodes = G.numNodesTotal();
  std::vector<Reg> Globals(NumNodes, NoReg);
  std::vector<unsigned> Pieces(NumNodes, 0);
  Reg MaxOrigin = 0;
  unsigned NumPieces = 0;
  for (unsigned N = 0; N != NumNodes; ++N) {
    if (!G.node(N).Alive)
      continue;
    for (Reg R : G.node(N).VRegs) {
      Reg Origin = originOf(R);
      if (isGlobalTo(R, V))
        Globals[N] = unionGlobals(Globals[N], Origin);
      if (mergesAsPiece(R, Origin)) {
        ++Pieces[N];
        ++NumPieces;
        MaxOrigin = std::max(MaxOrigin, Origin);
      }
    }
  }
  if (NumPieces < 2)
    return;

  // The scan pairs each piece with the first node (in ascending id order)
  // holding a piece of the same origin. FirstNode[Origin] is that node, or
  // -1; Seen lists the recorded origins in scan order, so node ids along it
  // never decrease.
  std::vector<int> FirstNode(static_cast<size_t>(MaxOrigin) + 1, -1);
  std::vector<Reg> Seen;
  unsigned N = 0;
  while (N != NumNodes) {
    if (!G.node(N).Alive || Pieces[N] == 0) {
      ++N; // a node without pieces neither records nor merges
      continue;
    }
    int Survivor = -1;
    for (Reg R : G.node(N).VRegs) {
      Reg Origin = originOf(R);
      if (!mergesAsPiece(R, Origin))
        continue; // never split, or merging proved uncolorable earlier
      int &First = FirstNode[Origin];
      if (First < 0) {
        First = static_cast<int>(N);
        Seen.push_back(Origin);
        continue;
      }
      unsigned M = static_cast<unsigned>(First);
      if (M == N || G.interfere(N, M))
        continue; // overlapping pieces (e.g. two loads at one instr)
      // Keep the global-global invariant: the union may cover at most one
      // global origin.
      Reg Union = unionGlobals(Globals[M], Globals[N]);
      if (Union == ManyGlobals)
        continue;
      G.mergeNodes(M, N);
      Globals[M] = Union;
      Pieces[M] += Pieces[N];
      Survivor = First;
      break;
    }
    if (Survivor < 0) {
      ++N;
      continue;
    }
    // Nodes before the survivor kept their registers, edges and global
    // origins, so rescanning them would decide exactly as before: resume at
    // the survivor, forgetting what was recorded from it onward.
    while (!Seen.empty() && FirstNode[Seen.back()] >= Survivor) {
      FirstNode[Seen.back()] = -1;
      Seen.pop_back();
    }
    N = static_cast<unsigned>(Survivor);
  }
}

//===----------------------------------------------------------------------===//
// Phase 1b: spill costs (paper Figure 5)
//===----------------------------------------------------------------------===//

void RapAllocator::calcSpillCosts(PdgNode *V, InterferenceGraph &G) {
  std::vector<PdgNode *> Subs = V->subregions();
  std::vector<Instr *> PC = V->parentCode();

  // Positions covered by parent-level code, for counting uses and defs "in
  // the parent region".
  BitVector PCPos(static_cast<unsigned>(CI->Code.Instrs.size()));
  for (const Instr *I : PC)
    PCPos.set(I->LinPos);

  // find, not operator[]: this runs concurrently during the speculative
  // region-parallel phase (where the map is empty and must stay that way).
  static const std::set<Reg> NoneSpilled;
  auto SpilledIt = SpilledIn.find(V);
  const std::set<Reg> &Spilled =
      SpilledIt == SpilledIn.end() ? NoneSpilled : SpilledIt->second;

  for (unsigned N : G.aliveNodes()) {
    auto &Node = G.node(N);

    // Classify the members. Combining can put unspillable atomic spill
    // ranges into the same node as an ordinary register; what matters is
    // whether spilling *some* member can still relieve pressure.
    unsigned NumSpillable = 0;
    bool AnyProfitable = false;
    for (Reg R : Node.VRegs) {
      if (NoSpill.test(R) || GloballySpilled.test(R) || Spilled.count(R))
        continue;
      ++NumSpillable;
      // Paper Figure 5: a register whose references all live inside one
      // subregion spills without removing interference at this level (the
      // rewrite is a deferred spill inside the subregion) — unprofitable
      // but still able to make progress.
      bool LocalToSub = false;
      for (PdgNode *S : Subs)
        if (Refs->allRefsWithin(R, S->LinBegin, S->LinEnd)) {
          LocalToSub = true;
          break;
        }
      AnyProfitable |= !LocalToSub;
    }

    if (NumSpillable == 0) {
      Node.SpillCost = InfiniteCost;
      continue;
    }
    if (!AnyProfitable) {
      Node.SpillCost = LocalOrSpilledCost;
      continue;
    }

    // Uses + defs at this level: one load per using instruction, one store
    // per definition.
    double Cost = 0;
    for (Reg R : Node.VRegs) {
      for (unsigned P : Refs->usePositions(R))
        Cost += PCPos.test(P);
      for (unsigned P : Refs->defPositions(R))
        Cost += PCPos.test(P);
    }

    // Boundary loads/stores for subregions (Figure 5's Livein/Liveout
    // increments).
    for (PdgNode *S : Subs) {
      const BitVector &LiveInS = CI->Live.liveInOf(*S);
      const BitVector &LiveOutS = CI->Live.liveOutOf(*S);
      bool In = false, Out = false;
      for (Reg R : Node.VRegs) {
        In |= LiveInS.test(R) && Refs->usedWithin(R, S->LinBegin, S->LinEnd);
        Out |= LiveOutS.test(R) &&
               Refs->definedWithin(R, S->LinBegin, S->LinEnd);
      }
      Cost += In;
      Cost += Out;
    }

    unsigned Deg = G.effectiveDegree(N);
    Node.SpillCost = Cost / (Deg == 0 ? 1 : Deg);
  }
}

//===----------------------------------------------------------------------===//
// Phase 1c: the per-region driver (paper Figure 2)
//===----------------------------------------------------------------------===//

InterferenceGraph RapAllocator::allocRegion(PdgNode *V) {
  Injector.hit(FaultSite::RegionAlloc);
  InProgress.insert(V);
  for (PdgNode *S : V->subregions())
    allocRegion(S);

  telemetry::FunctionScope *TS = Options.Scope;
  for (unsigned Round = 0; Round != Options.MaxSpillRounds; ++Round) {
    checkTimeBudget(V->Id);
    telemetry::ScopedPhase Phase(TS, "rap_region", V->Id);
    auto BuildStart = std::chrono::steady_clock::now();
    InterferenceGraph G = buildRegionGraph(V);
    Stats.GraphBuildSeconds += secondsSince(BuildStart);
    ++Stats.GraphBuilds;
    Stats.MaxGraphNodes = std::max(Stats.MaxGraphNodes, G.numAliveNodes());
    Stats.PeakGraphBytes = std::max(Stats.PeakGraphBytes, G.memoryBytes());
    if (TS) {
      TS->add("rap.graph_builds");
      TS->maxOf("graph.max_nodes", G.numAliveNodes());
    }
    if (Options.MaxGraphBytes && G.memoryBytes() > Options.MaxGraphBytes)
      throwAllocError(AllocErrorKind::ResourceLimit,
                      "interference graph needs " +
                          std::to_string(G.memoryBytes()) +
                          " bytes (limit " +
                          std::to_string(Options.MaxGraphBytes) + ")",
                      F.name(), V->Id);
    calcSpillCosts(V, G);
    Injector.hit(FaultSite::Coloring);
    ColorResult CR = colorGraph(G, Options.K, TS);
    Phase.arg("round", Round);
    Phase.arg("nodes", G.numAliveNodes());
    Phase.arg("spill_candidates", CR.SpillList.size());
    if (rapDebug()) {
      std::fprintf(stderr, "[rap] region R%d round %u nodes=%u spills=%zu\n",
                   V->Id, Round, G.numAliveNodes(), CR.SpillList.size());
      if (!CR.SpillList.empty()) {
        std::fprintf(stderr, "%s", G.str().c_str());
        std::fprintf(stderr, "%s", CI->Code.str().c_str());
      }
    }
    if (CR.fullyColored()) {
      SavedGraphs[V] = G.combinedByColor();
      for (PdgNode *S : V->subregions())
        if (!S->IsLoop)
          SavedGraphs.erase(S);
      ++Stats.RegionsProcessed;
      if (TS)
        TS->add("rap.regions_processed");
      InProgress.erase(V);
      return G;
    }
    ++Stats.SpillRounds;
    if (TS)
      TS->add("rap.spill_rounds");
    std::vector<std::pair<Reg, PdgNode *>> Queue;
    bool SplitProgress = false;
    for (unsigned N : CR.SpillList) {
      if (G.node(N).SpillCost >= InfiniteCost) {
        // Nothing in the node can spill. If it is a merged-origin unit,
        // give up on allocating those pieces as one register and retry
        // with them separate.
        for (Reg R : G.node(N).VRegs) {
          Reg Origin = originOf(R);
          if (isPiece(R, Origin) && NoMergeOrigins.insert(Origin))
            SplitProgress = true;
        }
        continue;
      }
      for (Reg R : G.node(N).VRegs)
        Queue.push_back({R, V});
    }
    if (Queue.empty() && !SplitProgress)
      throwAllocError(AllocErrorKind::Unallocatable,
                      "unspillable pressure (k=" +
                          std::to_string(Options.K) + " too small)",
                      F.name(), V->Id);
    spillQueueRun(std::move(Queue));
  }
  throwAllocError(AllocErrorKind::NonConvergence,
                  "region allocation did not converge within " +
                      std::to_string(Options.MaxSpillRounds) + " rounds",
                  F.name(), V->Id);
}

void RapAllocator::spillQueueRun(std::vector<std::pair<Reg, PdgNode *>> Queue) {
  // Spill code may land inside subregions that were already allocated and
  // combined (deferred spills and everywhere-spills). Their summaries no
  // longer describe the edited code, so those subtrees are re-allocated
  // bottom-up once the queue drains.
  std::set<PdgNode *> Dirty;
  // FIFO: entries are read in order and deferred spills append at the back.
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    auto [V, R] = Queue[Head];
    if (++TotalSpillActions > MaxSpillActions)
      throwAllocError(AllocErrorKind::ResourceLimit,
                      "spill storm: more than " +
                          std::to_string(MaxSpillActions) + " spill actions",
                      F.name(), R->Id);
    checkTimeBudget(R->Id);
    // Spill rewrites edit only the spilled register's references (plus
    // fresh temporaries that never re-enter this queue), so the analysis
    // snapshot stays exact for every other register. Refresh lazily: only
    // when this entry's register was itself edited since the snapshot.
    if (EditedSinceRefresh.count(V)) {
      refresh();
      EditedSinceRefresh.clear();
    }
    std::vector<std::pair<Reg, PdgNode *>> Deferred;
    bool Changed = trySpill(V, R, Deferred);
    if (Changed) {
      EditedSinceRefresh.insert(V);
      // Note: spillEverywhere and the outside-the-region fixups only insert
      // code that references the spilled register itself, which existing
      // summaries already contain (its ranges only shrink), so they never
      // dirty a region. Fresh atomic temporaries do: mark the outermost
      // completed region containing the edit (deferred spills can land
      // several levels below regions whose summaries were already folded
      // into an ancestor).
      PdgNode *Top = nullptr;
      for (PdgNode *P = R; P && !InProgress.count(P); P = P->Parent)
        if (P->isRegion() && SavedGraphs.count(P))
          Top = P;
      if (Top)
        Dirty.insert(Top);
    }
    for (auto &D : Deferred)
      Queue.push_back(D);
  }

  // The loop above may leave the snapshot stale; callers (the allocRegion
  // coloring loop and the dirty re-allocation below) need a fresh one.
  if (!EditedSinceRefresh.empty()) {
    refresh();
    EditedSinceRefresh.clear();
  }

  // Keep only the outermost dirty regions; re-allocating them rebuilds
  // everything beneath.
  for (PdgNode *D : std::vector<PdgNode *>(Dirty.begin(), Dirty.end())) {
    for (PdgNode *P = D->Parent; P; P = P->Parent)
      if (Dirty.count(P)) {
        Dirty.erase(D);
        break;
      }
  }
  // Re-allocate in region-id order, not std::set's pointer order: the
  // subtrees are disjoint so any order gives the same code, but telemetry
  // records the visit sequence and must not vary with heap layout.
  std::vector<PdgNode *> Order(Dirty.begin(), Dirty.end());
  std::sort(Order.begin(), Order.end(),
            [](const PdgNode *A, const PdgNode *B) { return A->Id < B->Id; });
  for (PdgNode *D : Order)
    allocRegion(D);
}

//===----------------------------------------------------------------------===//
// Phase 1d: spill-code insertion (paper §3.1.4)
//===----------------------------------------------------------------------===//

void RapAllocator::renameInSubtree(PdgNode *S, Reg OldReg, Reg NewReg) {
  S->forEachInstr([&](Instr *I) {
    for (Reg &R : I->Src)
      if (R == OldReg)
        R = NewReg;
    if (I->hasDef() && I->Dst == OldReg)
      I->Dst = NewReg;
  });
  // Keep the saved graphs of nested (loop) regions and still-live subregion
  // graphs naming the new register (paper: "the virtual register is then
  // renamed", §3.1.4 — the loop graphs feed spill-code movement).
  S->forEachNode([&](const PdgNode *N) {
    auto It = SavedGraphs.find(N);
    if (It != SavedGraphs.end())
      It->second.renameReg(OldReg, NewReg);
  });
}

bool RapAllocator::trySpill(Reg V, PdgNode *R,
                            std::vector<std::pair<Reg, PdgNode *>> &Deferred) {
  allocCheck(R->isRegion(), AllocErrorKind::InvariantViolation,
             "spills target regions");
  if (NoSpill.test(V))
    return false; // an atomic spill range cannot be spilled again
  if (!Refs->referencedWithin(V, R->LinBegin, R->LinEnd) ||
      SpilledIn[R].count(V)) {
    // Live across the region (or already locally spilled) with the pressure
    // still unresolved: interrupt the live range at its references instead.
    return spillEverywhere(V);
  }

  std::vector<Instr *> PC = R->parentCode();
  auto ParkIt = ParamStores.find(V);
  Instr *Park = ParkIt == ParamStores.end() ? nullptr : ParkIt->second;
  std::vector<Instr *> PCUses, PCDefs;
  for (Instr *I : PC) {
    if (I != Park &&
        std::find(I->Src.begin(), I->Src.end(), V) != I->Src.end())
      PCUses.push_back(I);
    if (I->hasDef() && I->Dst == V)
      PCDefs.push_back(I);
  }

  struct SubAction {
    PdgNode *S;
    bool Load;
    bool Store;
  };
  std::vector<SubAction> SubActions;
  for (PdgNode *S : R->subregions()) {
    if (!Refs->referencedWithin(V, S->LinBegin, S->LinEnd))
      continue;
    bool Load = CI->Live.liveInOf(*S).test(V);
    bool Store = CI->Live.liveOutOf(*S).test(V) &&
                 Refs->definedWithin(V, S->LinBegin, S->LinEnd);
    SubActions.push_back(SubAction{S, Load, Store});
  }

  // The outside-the-region fixup (paper §3.1.4): definitions outside R
  // whose value flows into R must store it to the slot, uses outside R
  // reached by definitions inside R must reload it, and definitions
  // reaching those reloaded uses must store as well (the paper's
  // recursion, collapsed to its one-step fixpoint). V's flow dependences
  // come from its def/use positions in the snapshot, which are exact: the
  // spill queue refreshes before handling a register edited since then.
  std::vector<FlowDep> VDeps = DataDependence::flowDepsFor(
      CI->Graph, V, Refs->defPositions(V), Refs->usePositions(V));
  auto InsideR = [&](unsigned Pos) {
    return Pos >= R->LinBegin && Pos < R->LinEnd;
  };
  std::set<unsigned> LoadedUses;  // positions outside R
  for (const FlowDep &D : VDeps)
    if (InsideR(D.DefPos) && !InsideR(D.UsePos))
      LoadedUses.insert(D.UsePos);
  std::set<unsigned> StoredDefs; // positions outside R
  for (const FlowDep &D : VDeps) {
    if (InsideR(D.DefPos))
      continue;
    if (InsideR(D.UsePos) || LoadedUses.count(D.UsePos))
      StoredDefs.insert(D.DefPos);
  }
  bool NeedParamStore =
      V < F.numParams() && !ParamStoreDone.count(V);

  bool AnyCode = !PCUses.empty() || !PCDefs.empty() || !LoadedUses.empty() ||
                 !StoredDefs.empty();
  for (const SubAction &A : SubActions)
    AnyCode |= A.Load || A.Store;

  if (!AnyCode) {
    // Pure rename: the register's live ranges are confined to subregions
    // with no value traffic across their boundaries. Spill inside the
    // owning subregions instead so the spill makes progress. With no
    // subregions either (e.g. only the park store remains), fall through to
    // the everywhere-spill so the register is at least reclassified as
    // fully spilled.
    if (SubActions.empty())
      return spillEverywhere(V);
    for (const SubAction &A : SubActions)
      Deferred.push_back({V, A.S});
    return false;
  }

  Injector.hit(FaultSite::SpillInsert);
  SpilledIn[R].insert(V);
  ++Stats.SpilledVRegs;
  int Slot = slotOf(V);
  if (rapDebug())
    std::fprintf(stderr,
                 "[spill] %%%u at R%d (pcuses=%zu pcdefs=%zu subs=%zu "
                 "loadedU=%zu storedD=%zu)\n",
                 V, R->Id, PCUses.size(), PCDefs.size(), SubActions.size(),
                 LoadedUses.size(), StoredDefs.size());
  CodeEditor &Editor = editor();

  // Parameter values arrive in a register; park them in the slot once.
  if (NeedParamStore) {
    ParamStoreDone.insert(V);
    Instr *St = F.createInstr(Opcode::StSpill);
    St->Slot = Slot;
    St->Src = {V};
    Editor.insertAtRegionEntry(F.root(), St);
    ParamStores[V] = St;
    ++Stats.SpillStoresInserted;
  }

  // Parent-level references go through fresh atomic live ranges...
  for (Instr *User : PCUses) {
    Reg T = newPieceOf(V, /*Atomic=*/true);
    Instr *Ld = F.createInstr(Opcode::LdSpill);
    Ld->Dst = T;
    Ld->Slot = Slot;
    Editor.insertBefore(User, Ld);
    ++Stats.SpillLoadsInserted;
    for (Reg &Op : User->Src)
      if (Op == V)
        Op = T;
  }
  for (Instr *Def : PCDefs) {
    Reg D = newPieceOf(V, /*Atomic=*/true);
    Def->Dst = D;
    Instr *St = F.createInstr(Opcode::StSpill);
    St->Slot = Slot;
    St->Src = {D};
    Editor.insertAfter(Def, St);
    ++Stats.SpillStoresInserted;
  }

  // ...each referencing subregion loads the value on entry, stores escaping
  // definitions on exit, and renames the register so it becomes local
  // (paper §3.1.4)...
  for (const SubAction &A : SubActions) {
    Reg VS = newPieceOf(V, /*Atomic=*/false);
    if (A.Load) {
      Instr *Ld = F.createInstr(Opcode::LdSpill);
      Ld->Dst = VS;
      Ld->Slot = Slot;
      Editor.insertAtRegionEntry(A.S, Ld);
      ++Stats.SpillLoadsInserted;
    }
    if (A.Store) {
      Instr *St = F.createInstr(Opcode::StSpill);
      St->Slot = Slot;
      St->Src = {VS};
      Editor.insertAtRegionExit(A.S, St);
      ++Stats.SpillStoresInserted;
    }
    renameInSubtree(A.S, V, VS);
  }

  // ...and the outside world synchronizes through the slot.
  for (unsigned Pos : StoredDefs) {
    Instr *Def = CI->Code.Instrs[Pos];
    allocCheck(Def->Dst == V, AllocErrorKind::InvariantViolation,
               "stale reaching-definition information");
    Instr *St = F.createInstr(Opcode::StSpill);
    St->Slot = Slot;
    St->Src = {V};
    Editor.insertAfter(Def, St);
    ++Stats.SpillStoresInserted;
  }
  for (unsigned Pos : LoadedUses) {
    Instr *User = CI->Code.Instrs[Pos];
    Instr *Ld = F.createInstr(Opcode::LdSpill);
    Ld->Dst = V;
    Ld->Slot = Slot;
    Editor.insertBefore(User, Ld);
    ++Stats.SpillLoadsInserted;
  }
  return true;
}

bool RapAllocator::spillEverywhere(Reg V) {
  if (GloballySpilled.test(V))
    return false;
  Injector.hit(FaultSite::SpillInsert);
  GloballySpilled.insert(V);
  ++Stats.SpilledVRegs;
  int Slot = slotOf(V);
  if (rapDebug())
    std::fprintf(stderr, "[spill] %%%u everywhere (uses=%zu defs=%zu)\n", V,
                 Refs->usePositions(V).size(), Refs->defPositions(V).size());
  CodeEditor &Editor = editor();

  if (V < F.numParams() && !ParamStoreDone.count(V)) {
    ParamStoreDone.insert(V);
    Instr *St = F.createInstr(Opcode::StSpill);
    St->Slot = Slot;
    St->Src = {V};
    Editor.insertAtRegionEntry(F.root(), St);
    ParamStores[V] = St;
    ++Stats.SpillStoresInserted;
  }
  Instr *Park = ParamStores.count(V) ? ParamStores[V] : nullptr;

  // Reload the value just before every use and park it just after every
  // definition. References inside already-allocated subregions keep the
  // same register name, so their saved interference summaries stay valid
  // (the ranges only shrink).
  for (unsigned Pos : Refs->usePositions(V)) {
    Instr *User = CI->Code.Instrs[Pos];
    if (User == Park)
      continue;
    Instr *Ld = F.createInstr(Opcode::LdSpill);
    Ld->Dst = V;
    Ld->Slot = Slot;
    Editor.insertBefore(User, Ld);
    ++Stats.SpillLoadsInserted;
  }
  for (unsigned Pos : Refs->defPositions(V)) {
    Instr *Def = CI->Code.Instrs[Pos];
    Instr *St = F.createInstr(Opcode::StSpill);
    St->Slot = Slot;
    St->Src = {V};
    Editor.insertAfter(Def, St);
    ++Stats.SpillStoresInserted;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Phase 1e: speculative region-parallel first round (DESIGN.md §14)
//===----------------------------------------------------------------------===//
//
// Determinism argument, in brief: before the first spill, all the state the
// sequential walk consults (SpilledIn, SlotOf, NoSpill, GloballySpilled,
// OriginOf, NoMergeOrigins) is empty and the analysis snapshot (CodeInfo /
// RefInfo / liveness) is read-only, so a region's first build/cost/color
// round depends only on the code and its subregions' combined graphs —
// both of which are schedule-invariant. If every region's first round
// colors completely, the sequential walk would have executed exactly those
// rounds in postorder and never edited code; committing the speculative
// results in postorder therefore reproduces it bit for bit (ILOC untouched,
// same colors, same stats, same telemetry slice order). The moment anything
// deviates from that script — a spill candidate, a resource guard, an
// injected fault — the speculation is discarded wholesale (no code was
// edited; the only consumed state, fault-injection countdowns, is re-armed)
// and the classic walk reruns from scratch.

bool RapAllocator::runRegionParallelPhase1(InterferenceGraph &Final) {
  // Round 0 colors every region only if no point has more than K registers
  // live (registers live together interfere). Past that a spill is certain
  // and the speculation could only be discarded, so skip building it; the
  // classic walk below produces the same output either way.
  if (CI->Live.maxLive() > Options.K)
    return false;

  SeriesParallelDecomposition SPD(F.root());
  const unsigned RootIdx = SPD.root().Index;

  // Task grain: a subtree earns its own pool task only when it carries
  // enough instructions to amortize dispatch; lighter subtrees run inline
  // in their closest task-owning ancestor. Heaviness is upward-closed (a
  // subtree's weight includes its children's), so task owners form a
  // connected subtree containing the root.
  const unsigned Grain = std::max(1u, Options.RegionGrain);
  std::vector<char> Heavy(SPD.size(), 0);
  unsigned NumHeavy = 0;
  for (unsigned I = 0; I != SPD.size(); ++I) {
    Heavy[I] = I == RootIdx || SPD.node(I).SubtreeInstrs >= Grain;
    NumHeavy += Heavy[I];
  }
  if (NumHeavy < 2)
    return false; // nothing to overlap; the classic walk is strictly cheaper

  ShardPool &Pool = *Options.Pool;
  telemetry::FunctionScope *TS = Options.Scope;
  struct SpecSlot {
    InterferenceGraph Combined;
    std::unique_ptr<telemetry::FunctionScope> Scratch;
    unsigned MaxGraphNodes = 0;
    size_t PeakGraphBytes = 0;
    double GraphBuildSeconds = 0;
  };
  std::vector<SpecSlot> Slots(SPD.size());
  if (TS)
    for (SpecSlot &S : Slots)
      S.Scratch =
          std::make_unique<telemetry::FunctionScope>(TS->epoch());

  InterferenceGraph RootFull;
  std::atomic<bool> Failed{false};
  std::mutex InjectorM; // countdowns are shared across region tasks

  // One region's speculative first round: the exact body the sequential
  // walk runs on a spill-free region, with subregion graphs resolved from
  // the speculative slots and stats/telemetry going to scratch storage.
  auto RunNode = [&](unsigned Idx) -> bool {
    const SPNode &N = SPD.node(Idx);
    PdgNode *V = N.Region;
    SpecSlot &Slot = Slots[Idx];
    {
      std::lock_guard<std::mutex> Lock(InjectorM);
      Injector.hit(FaultSite::RegionAlloc);
    }
    checkTimeBudget(V->Id);
    telemetry::FunctionScope *ScratchTS = Slot.Scratch.get();
    telemetry::ScopedPhase Phase(ScratchTS, "rap_region", V->Id);
    auto BuildStart = std::chrono::steady_clock::now();
    InterferenceGraph G = buildRegionGraphImpl(
        V, [&](const PdgNode *S) -> const InterferenceGraph * {
          for (unsigned C : N.Children)
            if (SPD.node(C).Region == S)
              return &Slots[C].Combined;
          return nullptr;
        });
    Slot.GraphBuildSeconds += secondsSince(BuildStart);
    Slot.MaxGraphNodes = std::max(Slot.MaxGraphNodes, G.numAliveNodes());
    Slot.PeakGraphBytes = std::max(Slot.PeakGraphBytes, G.memoryBytes());
    if (ScratchTS) {
      ScratchTS->add("rap.graph_builds");
      ScratchTS->maxOf("graph.max_nodes", G.numAliveNodes());
    }
    if (Options.MaxGraphBytes && G.memoryBytes() > Options.MaxGraphBytes)
      return false; // the classic rerun reproduces the structured error
    calcSpillCosts(V, G);
    {
      std::lock_guard<std::mutex> Lock(InjectorM);
      Injector.hit(FaultSite::Coloring);
    }
    ColorResult CR = colorGraph(G, Options.K, ScratchTS);
    Phase.arg("round", 0);
    Phase.arg("nodes", G.numAliveNodes());
    Phase.arg("spill_candidates", CR.SpillList.size());
    if (!CR.fullyColored())
      return false; // a spill is off the no-spill script; rerun classic
    Slot.Combined = G.combinedByColor();
    if (ScratchTS)
      ScratchTS->add("rap.regions_processed");
    if (Idx == RootIdx)
      RootFull = std::move(G);
    return true;
  };

  // Inline postorder over a light subtree (owned by one task; bottom-up so
  // subregion graphs exist before their parent builds).
  std::function<bool(unsigned)> RunSubtree = [&](unsigned Idx) -> bool {
    for (unsigned C : SPD.node(Idx).Children)
      if (!RunSubtree(C))
        return false;
    return RunNode(Idx);
  };

  // Series edges between task owners run as a countdown DAG: a task owner
  // is submitted once its last task-owning child completes; initial tasks
  // are the owners with none. Completed tasks submit their parent from the
  // worker — their own pending done() keeps the barrier open, and the
  // failure flag only short-circuits work, never the countdown, so wait()
  // always drains.
  // An owner's parent is itself an owner (heaviness is upward-closed), so
  // the decomposition's Parent link is the owner DAG's series edge.
  std::vector<std::atomic<unsigned>> Pending(SPD.size());
  std::vector<unsigned> HeavyKids(SPD.size(), 0);
  for (unsigned I = 0; I != SPD.size(); ++I) {
    for (unsigned C : SPD.node(I).Children)
      HeavyKids[I] += Heavy[C];
    Pending[I].store(HeavyKids[I], std::memory_order_relaxed);
  }

  TaskGroup Group;
  std::function<void(unsigned)> RunOwner = [&](unsigned Idx) {
    if (!Failed.load(std::memory_order_relaxed)) {
      bool Ok = true;
      try {
        for (unsigned C : SPD.node(Idx).Children)
          if (Ok && !Heavy[C])
            Ok = RunSubtree(C);
        if (Ok)
          Ok = RunNode(Idx);
      } catch (...) {
        Ok = false; // errors are re-raised (identically) by the classic rerun
      }
      if (!Ok)
        Failed.store(true, std::memory_order_relaxed);
    }
    int P = SPD.node(Idx).Parent;
    if (P >= 0 &&
        Pending[static_cast<unsigned>(P)].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      Group.expect();
      Pool.submit(static_cast<size_t>(P),
                  [&RunOwner, P] { RunOwner(static_cast<unsigned>(P)); },
                  &Group);
    }
  };
  // Initial tasks are decided from the *static* child counts, never the
  // live countdown: workers are already draining Pending while this loop
  // runs, and a parent whose last heavy child finished early would read as
  // zero here after the child's own fetch_sub already submitted it —
  // a double submission racing two copies of the same region.
  for (unsigned I = 0; I != SPD.size(); ++I)
    if (Heavy[I] && HeavyKids[I] == 0) {
      Group.expect();
      Pool.submit(I, [&RunOwner, I] { RunOwner(I); }, &Group);
    }
  Group.wait();

  if (Failed.load()) {
    // Discard wholesale. Nothing outside this frame changed except the
    // fault-injection countdowns consumed by speculative hits; re-arm them
    // so the classic rerun counts from zero, exactly like a serial run.
    Injector = FaultInjector(
        Options.Faults.empty() ? envFaultPlan() : Options.Faults, F.name());
    return false;
  }

  // Commit in the sequential postorder (ascending speculative index).
  for (unsigned I = 0; I != SPD.size(); ++I) {
    SpecSlot &Slot = Slots[I];
    ++Stats.GraphBuilds;
    ++Stats.RegionsProcessed;
    Stats.MaxGraphNodes = std::max(Stats.MaxGraphNodes, Slot.MaxGraphNodes);
    Stats.PeakGraphBytes =
        std::max(Stats.PeakGraphBytes, Slot.PeakGraphBytes);
    Stats.GraphBuildSeconds += Slot.GraphBuildSeconds;
    if (TS && Slot.Scratch) {
      for (const auto &[K, V] : Slot.Scratch->Counters) {
        uint64_t &Fold = TS->Counters[K];
        Fold = K.find("max") != std::string::npos ? std::max(Fold, V)
                                                  : Fold + V;
      }
      for (const auto &[K, V] : Slot.Scratch->TimerSeconds)
        TS->TimerSeconds[K] += V;
      for (telemetry::PhaseSlice &S : Slot.Scratch->Slices)
        TS->record(std::move(S));
    }
    // The sequential walk's end state keeps the root's and every loop
    // region's combined graph (non-loop children are erased when their
    // parent completes); reproduce exactly that.
    if (I == RootIdx || SPD.node(I).IsLoop)
      SavedGraphs[SPD.node(I).Region] = std::move(Slot.Combined);
  }
  Final = std::move(RootFull);
  return true;
}

//===----------------------------------------------------------------------===//
// The three-phase driver
//===----------------------------------------------------------------------===//

AllocStats RapAllocator::run() {
  telemetry::FunctionScope *TS = Options.Scope;
  InterferenceGraph Final;
  if (!Options.Pool || Options.RegionThreads <= 1 ||
      !runRegionParallelPhase1(Final))
    Final = allocRegion(F.root());

  if (Options.SpillMovement) {
    refresh();
    MovementResult MR = moveSpillCodeOutOfLoops(F, Final, SavedGraphs, TS);
    Stats.HoistedLoads = MR.HoistedLoads;
    Stats.SunkStores = MR.SunkStores;
    Stats.MovementRemovedLoads = MR.RemovedLoads;
    Stats.MovementRemovedStores = MR.RemovedStores;
  }

  // Checked mode: vet the final coloring (after movement, which is the last
  // pass to run on virtual code) with the independent oracle.
  if (Options.VerifyAssignments) {
    telemetry::ScopedPhase Phase(TS, "verify");
    std::vector<AssignmentViolation> Violations = verifyAssignment(F, Final);
    if (!Violations.empty())
      throwAllocError(AllocErrorKind::VerifierReject,
                      std::to_string(Violations.size()) +
                          " assignment violation(s); first: " +
                          Violations[0].Text,
                      F.name());
  }

  Injector.hit(FaultSite::PhysicalRewrite);
  Stats.CopiesDeleted = rewriteToPhysical(F, Final, Options.K, TS);

  if (Options.Peephole) {
    SpillCleanupResult PR = peepholeSpillCleanup(F, TS);
    Stats.PeepholeRemovedLoads = PR.RemovedLoads;
    Stats.PeepholeRemovedStores = PR.RemovedStores;
    Stats.PeepholeLoadsToCopies = PR.LoadsToCopies;
  }
  if (Options.GlobalCleanup) {
    SpillCleanupResult GR = globalSpillCleanup(F, TS);
    Stats.CleanupRemovedLoads = GR.RemovedLoads + GR.LoadsToCopies;
    Stats.CleanupRemovedStores = GR.RemovedStores;
  }
  return Stats;
}

AllocStats rap::allocateRap(IlocFunction &F, const AllocOptions &Options) {
  try {
    allocCheck(!F.isAllocated(), AllocErrorKind::InvariantViolation,
               "function already allocated");
    allocCheck(Options.K >= 3, AllocErrorKind::Unallocatable,
               "need at least 3 registers for a load/store ISA");
    return RapAllocator(F, Options).run();
  } catch (AllocError &E) {
    E.setFunction(F.name()); // fill in throw sites below the allocator
    throw;
  }
}
