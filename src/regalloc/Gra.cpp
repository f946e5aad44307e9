//===- regalloc/Gra.cpp - Baseline Chaitin/Briggs allocator -----------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GRA, the paper's comparison allocator (§4): Chaitin's global graph
/// coloring over the whole procedure with the Briggs optimistic-coloring
/// enhancement, no coalescing, no rematerialization. Spill cost of a node is
/// the number of its uses and definitions in the entire procedure divided by
/// its degree. Spilling inserts a load before every use and a store after
/// every definition with fresh atomic live ranges, then the graph is rebuilt
/// until it colors.
///
//===----------------------------------------------------------------------===//

#include "regalloc/Allocator.h"

#include "ir/Clone.h"
#include "regalloc/AllocSupport.h"
#include "regalloc/AssignmentVerifier.h"
#include "regalloc/Coalesce.h"
#include "regalloc/Coloring.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/PhysicalRewrite.h"
#include "regalloc/SpillCleanup.h"
#include "regalloc/SpillEverything.h"
#include "support/ShardPool.h"
#include "support/Stats.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <set>

using namespace rap;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

constexpr double InfiniteCost = 1e18;

class GraAllocator {
public:
  GraAllocator(IlocFunction &F, const AllocOptions &Options)
      : F(F), Options(Options),
        Injector(Options.Faults.empty() ? envFaultPlan() : Options.Faults,
                 F.name()),
        StartTime(std::chrono::steady_clock::now()) {}

  AllocStats run() {
    telemetry::FunctionScope *TS = Options.Scope;
    std::unique_ptr<CodeInfo> CI;
    for (unsigned Round = 0; Round != Options.MaxSpillRounds; ++Round) {
      // Unified guard: wall-clock budget + request cancel token (deadline /
      // drain), checked once per spill/color round.
      checkAllocBudget(Options, StartTime, F.name());
      telemetry::ScopedPhase RoundPhase(TS, "gra_round");
      // Warm-start liveness from the previous round's solution.
      CI = std::make_unique<CodeInfo>(F, CI.get());
      Stats.LivenessSeconds += CI->LivenessSeconds;
      RefInfo Refs(CI->Code, F.numVRegs());
      auto BuildStart = std::chrono::steady_clock::now();
      InterferenceGraph G = buildGraph(*CI, Refs);
      Stats.GraphBuildSeconds += secondsSince(BuildStart);
      if (Options.Coalesce)
        coalesceConservatively(G, CI->Code.Instrs, Options.K);
      ++Stats.GraphBuilds;
      Stats.MaxGraphNodes =
          std::max(Stats.MaxGraphNodes, G.numAliveNodes());
      Stats.PeakGraphBytes = std::max(Stats.PeakGraphBytes, G.memoryBytes());
      if (Options.MaxGraphBytes && G.memoryBytes() > Options.MaxGraphBytes)
        throwAllocError(AllocErrorKind::ResourceLimit,
                        "interference graph needs " +
                            std::to_string(G.memoryBytes()) +
                            " bytes (limit " +
                            std::to_string(Options.MaxGraphBytes) + ")",
                        F.name());
      setSpillCosts(G, Refs);
      Injector.hit(FaultSite::Coloring);
      ColorResult CR = colorGraph(G, Options.K, TS);
      if (TS) {
        RoundPhase.arg("round", Round);
        RoundPhase.arg("nodes", G.numAliveNodes());
        RoundPhase.arg("spill_candidates", CR.SpillList.size());
        TS->add("gra.rounds");
        TS->maxOf("graph.max_nodes", G.numAliveNodes());
      }
      if (CR.fullyColored()) {
        if (Options.VerifyAssignments) {
          std::vector<AssignmentViolation> Violations =
              verifyAssignment(F, G);
          if (!Violations.empty())
            throwAllocError(AllocErrorKind::VerifierReject,
                            std::to_string(Violations.size()) +
                                " assignment violation(s); first: " +
                                Violations[0].Text,
                            F.name());
        }
        Injector.hit(FaultSite::PhysicalRewrite);
        RoundPhase.finish();
        Stats.CopiesDeleted = rewriteToPhysical(F, G, Options.K, TS);
        if (Options.PeepholeForGra) {
          SpillCleanupResult PR = peepholeSpillCleanup(F, TS);
          Stats.PeepholeRemovedLoads = PR.RemovedLoads;
          Stats.PeepholeRemovedStores = PR.RemovedStores;
          Stats.PeepholeLoadsToCopies = PR.LoadsToCopies;
        }
        return Stats;
      }
      ++Stats.SpillRounds;
      spillRound(G, CR, *CI, Refs);
    }
    throwAllocError(AllocErrorKind::NonConvergence,
                    "spill loop did not converge within " +
                        std::to_string(Options.MaxSpillRounds) + " rounds",
                    F.name());
  }

private:
  /// Chaitin-style construction: at every definition point the defined
  /// register interferes with everything live after the instruction (minus
  /// the source of a copy), plus pairwise interference among the registers
  /// live at function entry (the parameters).
  InterferenceGraph buildGraph(const CodeInfo &CI, const RefInfo &Refs) {
    InterferenceGraph G;
    for (Reg R = 0; R != F.numVRegs(); ++R)
      if (Refs.isReferenced(R))
        G.getOrCreateNode(R);

    for (unsigned P = 0, E = static_cast<unsigned>(CI.Code.Instrs.size());
         P != E; ++P) {
      const Instr *I = CI.Code.Instrs[P];
      if (!I->hasDef())
        continue;
      Reg D = I->Dst;
      CI.Live.liveAfter(P).forEach([&](unsigned L) {
        if (L == D)
          return;
        if (I->Op == Opcode::Mv && L == I->Src[0])
          return; // copy source may share the register
        if (G.hasReg(L))
          G.addEdge(D, static_cast<Reg>(L));
      });
    }

    // Values live on entry (parameters) coexist without a defining
    // instruction in the body.
    std::vector<unsigned> EntryLive = CI.Live.liveBefore(0).toVector();
    for (size_t A = 0; A != EntryLive.size(); ++A)
      for (size_t B = A + 1; B != EntryLive.size(); ++B)
        if (G.hasReg(EntryLive[A]) && G.hasReg(EntryLive[B]))
          G.addEdge(EntryLive[A], EntryLive[B]);
    return G;
  }

  void setSpillCosts(InterferenceGraph &G, const RefInfo &Refs) {
    for (unsigned N : G.aliveNodes()) {
      auto &Node = G.node(N);
      // Coalescing can merge several registers into one node; the node's
      // cost is the sum over members, and any unspillable member makes the
      // whole node unspillable.
      double Cost = 0;
      bool Atomic = false;
      for (Reg R : Node.VRegs) {
        Atomic |= NoSpill.count(R) != 0;
        Cost += static_cast<double>(Refs.usePositions(R).size() +
                                    Refs.defPositions(R).size());
      }
      if (Atomic) {
        Node.SpillCost = InfiniteCost;
        continue;
      }
      unsigned Deg = G.effectiveDegree(N);
      Node.SpillCost = Cost / (Deg == 0 ? 1 : Deg);
    }
  }

  void spillRound(const InterferenceGraph &G, const ColorResult &CR,
                  const CodeInfo &CI, const RefInfo &Refs) {
    CodeEditor Editor(F);
    bool Progress = false;
    for (unsigned N : CR.SpillList) {
      for (Reg V : G.node(N).VRegs) {
        if (NoSpill.count(V))
          continue; // an atomic spill range cannot be spilled again
        Progress = true;
        spillEverywhere(V, CI, Refs, Editor);
      }
    }
    if (!Progress)
      throwAllocError(AllocErrorKind::Unallocatable,
                      "only unspillable nodes left (k=" +
                          std::to_string(Options.K) + " too small)",
                      F.name());
  }

  void spillEverywhere(Reg V, const CodeInfo &CI, const RefInfo &Refs,
                       CodeEditor &Editor) {
    Injector.hit(FaultSite::SpillInsert);
    ++Stats.SpilledVRegs;
    NoSpill.insert(V);
    int Slot = slotOf(V);

    // A parameter's value arrives in a register; park it in the slot at
    // function entry.
    if (V < F.numParams() && CI.Live.liveBefore(0).test(V)) {
      Instr *St = F.createInstr(Opcode::StSpill);
      St->Slot = Slot;
      St->Src = {V};
      Editor.insertAtRegionEntry(F.root(), St);
      ++Stats.SpillStoresInserted;
    }

    // Load before every use.
    for (unsigned P : Refs.usePositions(V)) {
      Instr *User = CI.Code.Instrs[P];
      Reg T = F.newVReg();
      NoSpill.insert(T);
      Instr *Ld = F.createInstr(Opcode::LdSpill);
      Ld->Dst = T;
      Ld->Slot = Slot;
      Editor.insertBefore(User, Ld);
      ++Stats.SpillLoadsInserted;
      for (Reg &R : User->Src)
        if (R == V)
          R = T;
    }

    // Store after every definition.
    for (unsigned P : Refs.defPositions(V)) {
      Instr *Def = CI.Code.Instrs[P];
      Reg D = F.newVReg();
      NoSpill.insert(D);
      Def->Dst = D;
      Instr *St = F.createInstr(Opcode::StSpill);
      St->Slot = Slot;
      St->Src = {D};
      Editor.insertAfter(Def, St);
      ++Stats.SpillStoresInserted;
    }
  }

  int slotOf(Reg V) {
    auto It = SlotOf.find(V);
    if (It != SlotOf.end())
      return It->second;
    int Slot = F.newSpillSlot();
    SlotOf[V] = Slot;
    return Slot;
  }

  IlocFunction &F;
  const AllocOptions &Options;
  AllocStats Stats;
  FaultInjector Injector;
  std::chrono::steady_clock::time_point StartTime;
  std::set<Reg> NoSpill;
  std::map<Reg, int> SlotOf;
};

} // namespace

AllocStats rap::allocateGra(IlocFunction &F, const AllocOptions &Options) {
  try {
    allocCheck(!F.isAllocated(), AllocErrorKind::InvariantViolation,
               "function already allocated");
    allocCheck(Options.K >= 3, AllocErrorKind::Unallocatable,
               "need at least 3 registers for a load/store ISA");
    return GraAllocator(F, Options).run();
  } catch (AllocError &E) {
    E.setFunction(F.name()); // fill in throw sites below the allocator
    throw;
  }
}

AllocOutcome rap::allocateFunctionChecked(IlocProgram &Prog, unsigned I,
                                          AllocatorKind Kind,
                                          const AllocOptions &Options) {
  IlocFunction *F = Prog.functions()[I].get();
  AllocOutcome Out;
  Out.Function = F->name();

  // With a registry attached, this function records into its own scope
  // (lock-free: one writer) and commits keyed by function index below, so
  // the registry's aggregate does not depend on thread scheduling.
  telemetry::FunctionScope Scope(Options.Telem ? Options.Telem->epoch()
                                               : telemetry::Clock::now());
  AllocOptions Opts = Options;
  if (Options.Telem)
    Opts.Scope = &Scope;
  struct Committer {
    const AllocOptions &Options;
    telemetry::FunctionScope &Scope;
    unsigned Index;
    std::string Name;
    ~Committer() {
      if (Options.Telem)
        Options.Telem->commit(Index, std::move(Name),
                              ShardPool::currentShard(), std::move(Scope));
    }
  } Commit{Options, Scope, I, Out.Function};

  std::unique_ptr<IlocFunction> Backup;
  if (Options.FallbackOnError)
    Backup = cloneFunction(*F);

  try {
    telemetry::ScopedPhase Phase(Opts.Scope, "allocate_function");
    Out.Stats = Kind == AllocatorKind::Gra ? allocateGra(*F, Opts)
                                           : allocateRap(*F, Opts);
    return Out;
  } catch (const AllocError &E) {
    if (!Options.FallbackOnError)
      throw;
    Out.ErrorKind = E.kind();
    Out.Error = E.what();
  } catch (const std::exception &E) {
    if (!Options.FallbackOnError)
      throw;
    Out.ErrorKind = AllocErrorKind::Internal;
    Out.Error = std::string(allocErrorKindName(AllocErrorKind::Internal)) +
                " in '" + Out.Function + "': " + E.what();
  }

  Out.Status = AllocStatus::Fallback;
  if (Opts.Scope)
    Opts.Scope->add("alloc.fallbacks");
  F = Prog.replaceFunction(I, std::move(Backup));
  telemetry::ScopedPhase Phase(Opts.Scope, "fallback_spill_everything");
  Out.Stats = allocateSpillEverything(*F, Opts);
  return Out;
}

ProgramAllocResult rap::allocateProgramChecked(IlocProgram &Prog,
                                               AllocatorKind Kind,
                                               const AllocOptions &Options) {
  ProgramAllocResult Res;
  auto &Funcs = Prog.functions();
  unsigned N = static_cast<unsigned>(Funcs.size());
  Res.Outcomes.resize(N);
  for (unsigned I = 0; I != N; ++I)
    Res.Outcomes[I].Function = Funcs[I]->name();
  if (Kind == AllocatorKind::None)
    return Res;

  // One pool carries both levels of parallelism: with Threads > 1, Threads
  // tasks pulling function indices from a shared counter, and RAP's region
  // tasks, nested inside them (a waiting task runs queued tasks, so the
  // nesting cannot deadlock). Each function's run owns its state and
  // region slots.
  unsigned Threads = std::max(1u, std::min(Options.Threads, N));
  unsigned Workers = std::max(
      Threads, Kind == AllocatorKind::Rap ? Options.RegionThreads : 1u);
  AllocOptions ProgOptions = Options;
  std::unique_ptr<ShardPool> OwnPool;
  if (!ProgOptions.Pool && Workers > 1) {
    WatchdogConfig Quiet;
    Quiet.Factor = 0; // allocation has no deadline budget to watch
    OwnPool = std::make_unique<ShardPool>(Workers, Quiet);
    ProgOptions.Pool = OwnPool.get();
  }

  // Outcomes and exceptions (strict mode, or a failing fallback) land in
  // per-function slots; after the barrier stats fold and the lowest-index
  // error is rethrown in function order, independent of scheduling.
  std::vector<std::exception_ptr> Errors(N);
  std::atomic<unsigned> Next{0};
  auto Drain = [&] {
    for (unsigned I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
         I = Next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        Res.Outcomes[I] = allocateFunctionChecked(Prog, I, Kind, ProgOptions);
      } catch (...) {
        Res.Outcomes[I].Status = AllocStatus::Failed;
        Errors[I] = std::current_exception();
      }
    }
  };
  if (Threads == 1) {
    // One function at a time runs on the calling thread: a pool worker
    // would gain no overlap and would hold the function's memory in a
    // second malloc arena, raising peak RSS.
    Drain();
  } else {
    TaskGroup Group;
    Group.expect(Threads);
    for (unsigned T = 0; T != Threads; ++T)
      ProgOptions.Pool->submit(T, Drain, &Group);
    Group.wait();
  }

  for (unsigned I = 0; I != N; ++I)
    if (Errors[I])
      std::rethrow_exception(Errors[I]);
  for (const AllocOutcome &O : Res.Outcomes)
    Res.Total.accumulate(O.Stats);
  return Res;
}

AllocatorKind rap::allocatorKindFromString(const std::string &Name) {
  if (Name == "gra")
    return AllocatorKind::Gra;
  if (Name == "rap")
    return AllocatorKind::Rap;
  return AllocatorKind::None;
}
