//===- perfbench/CompileWorkloads.cpp - table1, scale_module, deep_function -===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// The three workloads that compile a program and run its main():
//
//   table1         the paper's 37 routines x k in {3,5,7,9} x {gra, rap},
//                  one job per (routine, k, allocator), serial
//   scale_module   one generated ~200-function module at k=8; a job builds
//                  it with GRA and then RAP, with function-level Threads=2
//   deep_function  a pool of generated single deep functions at k=12; a job
//                  builds one with GRA and then RAP, with RegionThreads=2
//
// Untraced passes call compileMiniC and the interpreter as a user would.
// Traced passes call the stages compileMiniC calls, in its order, with one
// span each, and must produce byte-identical programs.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "benchprogs/BenchPrograms.h"
#include "driver/Pipeline.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "fuzz/ScaleProgram.h"
#include "server/CompileService.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>

using namespace rap;
using namespace rapbench;

uint64_t rapbench::countInstrs(const IlocProgram &Prog) {
  uint64_t N = 0;
  for (const auto &F : Prog.functions())
    F->root()->forEachInstr([&](Instr *) { ++N; });
  return N;
}

namespace {

struct Program {
  std::string Name;
  std::string Source;
  RtValue RefReturn{}; ///< main()'s checksum, unallocated
  uint64_t RefCycles = 0;
  uint64_t RefInstrs = 0; ///< static instructions before allocation
};

/// One job: program \p Prog at \p K under each allocator in \p Allocs
/// (GRA first).
struct JobSpec {
  unsigned Prog;
  unsigned K;
  unsigned Allocs;
};

/// One allocator's compile and run inside a job. The interpreter is
/// declared after the program it reads, so it is destroyed first.
struct Half {
  std::unique_ptr<IlocProgram> Prog;
  std::unique_ptr<Interpreter> Interp;
  AllocStats Alloc;
  bool Degraded = false;
  std::string Error;
  RunResult Run;
  uint64_t Tokens = 0;
};

/// The user's path: compileMiniC, then decode and run main().
void runUntraced(const Program &Pr, const CompileOptions &O, Half &H,
                 double &CompileS) {
  Clock::time_point T0 = Clock::now();
  CompileResult CR = compileMiniC(Pr.Source, O);
  CompileS = secondsBetween(T0, Clock::now());
  if (!CR.ok()) {
    H.Error = CR.Errors;
    return;
  }
  H.Alloc = CR.Alloc;
  H.Degraded = CR.degraded();
  H.Prog = std::move(CR.Prog);
  H.Interp = std::make_unique<Interpreter>(*H.Prog);
  H.Run = H.Interp->run("main", O.InterpFuel);
}

/// The same work, one span per layer call, in compileMiniC's order.
JobTrace runTraced(Tracer &T, const Program &Pr, const CompileOptions &O,
                   unsigned A, Half &H) {
  int32_t Root = T.beginJob();
  try {
    DiagnosticEngine Diags;
    std::vector<Token> Toks = T.span(Root, "frontend.lex", [&] {
      return Lexer(Pr.Source, Diags).lexAll();
    });
    H.Tokens = Toks.size();
    TranslationUnit TU = T.span(Root, "frontend.parse", [&] {
      return Parser(std::move(Toks), Diags).parseTranslationUnit();
    });
    if (Diags.hasErrors())
      throw BenchError(Diags.str());
    if (!T.span(Root, "frontend.sema", [&] { return analyze(TU, Diags); }))
      throw BenchError(Diags.str());
    std::unique_ptr<IlocProgram> Prog = T.span(Root, "lower", [&] {
      return lowerToIloc(TU, O.Granularity, O.Copies, &Diags);
    });
    if (!Prog)
      throw BenchError("lowering failed");
    ProgramAllocResult AR =
        T.span(Root, A == GRA ? "regalloc.gra" : "regalloc.rap", [&] {
          return allocateProgramChecked(*Prog, O.Allocator, O.Alloc);
        });
    H.Alloc = AR.Total;
    H.Degraded = !AR.allClean();
    H.Prog = std::move(Prog);
    H.Interp = T.span(Root, "interp.decode", [&] {
      return std::make_unique<Interpreter>(*H.Prog);
    });
    H.Run = T.span(Root, "interp.run",
                   [&] { return H.Interp->run("main", O.InterpFuel); });
  } catch (const std::exception &E) {
    H.Error = E.what();
  }
  return T.endJob(Root);
}

class CompileWorkload : public Workload {
public:
  CompileWorkload(uint64_t Seed, const char *Layer, unsigned ClaimAlloc)
      : Seed(Seed), Layer(Layer), ClaimAlloc(ClaimAlloc) {}

  void setup() override {
    Programs = generate();
    Jobs = makeJobs();
    for (Program &Pr : Programs) {
      CompileResult CR = compileMiniC(Pr.Source, CompileOptions());
      if (!CR.ok())
        throw BenchError(Pr.Name + ": reference compile failed: " +
                         CR.Errors);
      Pr.RefInstrs = countInstrs(*CR.Prog);
      RunResult R = Interpreter(*CR.Prog).run("main");
      if (!R.Ok)
        throw BenchError(Pr.Name + ": reference run failed: " + R.Error);
      Pr.RefReturn = R.ReturnValue;
      Pr.RefCycles = R.Stats.Cycles;
    }
  }

  void runPass(PassRecord &P, Tracer *T) override {
    // (program, k) -> cycles per allocator, for RAP's gain per cell.
    std::map<std::pair<unsigned, unsigned>, std::array<uint64_t, 2>> Cells;
    for (const JobSpec &J : Jobs) {
      const Program &Pr = Programs[J.Prog];
      JobRecord Rec;
      Rec.Allocs = J.Allocs;
      Half Halves[2];
      Clock::time_point Start = Clock::now();
      for (unsigned A : {GRA, RAP}) {
        if (!(J.Allocs & (1u << A)))
          continue;
        CompileOptions O;
        O.Allocator = allocatorKind(A);
        O.Alloc.K = J.K;
        O.Alloc.Threads = Threads;
        O.Alloc.RegionThreads = RegionThreads;
        Rec.SourceKB[A] = Pr.Source.size() / 1024.0;
        if (T) {
          Rec.Trace[A] = runTraced(*T, Pr, O, A, Halves[A]);
          Rec.WallS += Rec.Trace[A].WallS;
        } else {
          runUntraced(Pr, O, Halves[A], Rec.CompileS[A]);
        }
      }
      if (!T)
        Rec.WallS = secondsBetween(Start, Clock::now());

      // Checks and counting, outside the timed region.
      for (unsigned A : {GRA, RAP}) {
        if (!(J.Allocs & (1u << A)))
          continue;
        Half &H = Halves[A];
        std::string Where = Pr.Name + " k=" + std::to_string(J.K) + " " +
                            AllocName[A];
        std::string Failure;
        if (!H.Error.empty())
          Failure = "compile failed: " + H.Error;
        else if (H.Degraded)
          Failure = "allocation degraded to the fallback";
        else if (!H.Run.Ok)
          Failure = "run failed: " + H.Run.Error;
        else if (H.Run.ReturnValue != Pr.RefReturn)
          Failure = "checksum " + H.Run.ReturnValue.str() + " != reference " +
                    Pr.RefReturn.str();
        if (!Failure.empty()) {
          Rec.Failed = true;
          P.Failures.push_back(Where + ": " + Failure);
          P.Det.JobHashes.push_back(0);
          continue;
        }
        uint64_t Cycles = H.Run.Stats.Cycles;
        P.Det.Cycles[A] += Cycles;
        P.Det.RefCycles[A] += Pr.RefCycles;
        P.Det.Instrs += countInstrs(*H.Prog);
        P.Det.RefInstrs += Pr.RefInstrs;
        P.Det.addAlloc(H.Alloc);
        P.Det.JobHashes.push_back(server::hashProgramOutput(*H.Prog));
        Cells[{J.Prog, J.K}][A] = Cycles;
        if (!T)
          continue;
        LayerCounters &C = P.Counters;
        C.Tokens += H.Tokens;
        C.LexedBytes += Pr.Source.size();
        C.LowerInstrs += Pr.RefInstrs;
        C.GraphBuildS += H.Alloc.GraphBuildSeconds;
        C.LivenessS += H.Alloc.LivenessSeconds;
        C.PeakGraphBytes = std::max<uint64_t>(C.PeakGraphBytes,
                                              H.Alloc.PeakGraphBytes);
        C.FusedOps += H.Interp->fusedCmpCbr() + H.Interp->fusedLoadIOp() +
                      H.Interp->fusedSpillTriples() +
                      H.Interp->fusedPairs();
        C.DecodeBytes += H.Interp->decodeBytes();
        Rec.ExecCycles += Cycles;
        char Row[160];
        std::snprintf(Row, sizeof(Row), "%-12s k=%-2u %s %12llu %10llu %10llu",
                      Pr.Name.c_str(), J.K, AllocName[A],
                      static_cast<unsigned long long>(Cycles),
                      static_cast<unsigned long long>(H.Run.Stats.SpillLoads),
                      static_cast<unsigned long long>(H.Run.Stats.SpillStores));
        P.Rows.push_back(Row);
      }
      P.Jobs.push_back(std::move(Rec));
    }
    for (const auto &[Key, Cyc] : Cells)
      if (Cyc[GRA] && Cyc[RAP])
        P.Det.addCell(Cyc[GRA], Cyc[RAP]);
    if (T)
      std::sort(P.Rows.begin(), P.Rows.end());
  }

  StressReport stress(const std::vector<PassRecord> &Passes) const override {
    StressReport R;
    R.Layer = Layer;
    R.Jobs = std::string(AllocName[ClaimAlloc]) + " compile+run halves";
    std::map<std::string, double> ByLayer;
    double Wall = 0;
    for (const PassRecord &P : Passes) {
      if (!P.Traced)
        continue;
      for (const JobRecord &J : P.Jobs) {
        if (!(J.Allocs & (1u << ClaimAlloc)))
          continue;
        const JobTrace &Tr = J.Trace[ClaimAlloc];
        Wall += Tr.WallS;
        for (const auto &[Name, Sec] : Tr.Layer)
          ByLayer[Name.substr(0, Name.find('.'))] += Sec;
      }
    }
    for (const auto &[Name, Sec] : ByLayer)
      R.SharePct.push_back({Name, Wall > 0 ? 100.0 * Sec / Wall : 0.0});
    return R;
  }

protected:
  virtual std::vector<Program> generate() = 0;
  virtual std::vector<JobSpec> makeJobs() = 0;

  uint64_t Seed;
  unsigned Threads = 1;
  unsigned RegionThreads = 1;

private:
  const char *Layer;
  unsigned ClaimAlloc;
  std::vector<Program> Programs;
  std::vector<JobSpec> Jobs;
};

class Table1 : public CompileWorkload {
public:
  explicit Table1(uint64_t Seed) : CompileWorkload(Seed, "interp", GRA) {}

private:
  std::vector<Program> generate() override {
    std::vector<Program> Out;
    for (const BenchProgram &B : benchPrograms())
      Out.push_back({B.Name, B.Source});
    return Out;
  }

  /// Every (routine, k, allocator) once, in an order drawn from the seed.
  std::vector<JobSpec> makeJobs() override {
    std::vector<JobSpec> Out;
    for (unsigned P = 0; P != benchPrograms().size(); ++P)
      for (unsigned K : {3u, 5u, 7u, 9u})
        for (unsigned A : {GRA, RAP})
          Out.push_back({P, K, 1u << A});
    SeedRng Rng(Seed);
    for (size_t I = Out.size(); I > 1; --I)
      std::swap(Out[I - 1], Out[Rng.below(static_cast<unsigned>(I))]);
    return Out;
  }
};

class ScaleModule : public CompileWorkload {
public:
  explicit ScaleModule(uint64_t Seed)
      : CompileWorkload(Seed, "regalloc", RAP) {
    Threads = 2;
  }

  /// About ten passes of two jobs fit in a run: too few for percentiles
  /// over every job run.
  bool latencyByJob() const override { return true; }

private:
  /// Two modules per pass: one module's cost varies by about 5% between
  /// seeds, and a pass of two halves that variation.
  static constexpr unsigned NumModules = 2;

  std::vector<Program> generate() override {
    std::vector<Program> Out;
    for (unsigned I = 0; I != NumModules; ++I) {
      fuzz::ScaleProgramConfig C;
      C.Seed = static_cast<unsigned>(Seed * NumModules + I);
      C.NumFunctions = 200;
      Out.push_back({"module" + std::to_string(I),
                     fuzz::ScaleProgramBuilder(C).buildModule()});
    }
    return Out;
  }
  std::vector<JobSpec> makeJobs() override {
    std::vector<JobSpec> Out;
    for (unsigned I = 0; I != NumModules; ++I)
      Out.push_back({I, 8, (1u << GRA) | (1u << RAP)});
    return Out;
  }
};

class DeepFunction : public CompileWorkload {
public:
  explicit DeepFunction(uint64_t Seed)
      : CompileWorkload(Seed, "regalloc", RAP) {
    RegionThreads = 2;
  }

private:
  static constexpr unsigned PoolSize = 96;

  std::vector<Program> generate() override {
    std::vector<Program> Out;
    for (unsigned I = 0; I != PoolSize; ++I) {
      fuzz::ScaleProgramConfig C;
      C.Seed = static_cast<unsigned>(Seed * PoolSize + I);
      C.DeepDepth = 3;
      C.DeepFanout = 3;
      C.PressureVars = 8;
      Out.push_back({"deep" + std::to_string(I),
                     fuzz::ScaleProgramBuilder(C).buildDeepFunction()});
    }
    return Out;
  }
  std::vector<JobSpec> makeJobs() override {
    std::vector<JobSpec> Out;
    for (unsigned I = 0; I != PoolSize; ++I)
      Out.push_back({I, 12, (1u << GRA) | (1u << RAP)});
    return Out;
  }
};

} // namespace

std::unique_ptr<Workload> rapbench::makeTable1(uint64_t Seed) {
  return std::make_unique<Table1>(Seed);
}
std::unique_ptr<Workload> rapbench::makeScaleModule(uint64_t Seed) {
  return std::make_unique<ScaleModule>(Seed);
}
std::unique_ptr<Workload> rapbench::makeDeepFunction(uint64_t Seed) {
  return std::make_unique<DeepFunction>(Seed);
}
