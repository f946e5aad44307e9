//===- bench/alloc_scale.cpp - Parallel allocation driver scaling ------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scaling harness for the parallel per-function allocation driver. All 37
/// Table 1 routines are concatenated into one many-function program (the
/// paper's per-procedure independence argument: each function's region tree,
/// liveness, and interference graphs are private, so functions allocate in
/// parallel with no shared state). Benchmarks time allocateProgramChecked at
/// several thread counts; before any timing, one verification pass checks
/// that a parallel run produces byte-identical per-function output and
/// structurally equal stats versus a serial run.
///
/// Each iteration rebuilds the unallocated program outside the clock
/// (manual timing), so only the allocation phase is measured. On a
/// single-core host the thread variants cannot beat serial wall clock; the
/// point of the sweep there is the determinism guarantee, which the
/// verification pass enforces regardless of core count.
///
//===----------------------------------------------------------------------===//

#include "benchprogs/BenchPrograms.h"
#include "driver/Pipeline.h"

#include "benchmark/benchmark.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace rap;

namespace {

/// Compiles every Table 1 routine to unallocated ILOC and moves all of the
/// functions into one program. Call-site Callee indices are left unmapped
/// (see IlocProgram::adoptFunction): the result is allocated, never
/// interpreted.
std::unique_ptr<IlocProgram> buildCombinedProgram() {
  CompileOptions FrontendOpts; // Allocator = None
  auto Combined = std::make_unique<IlocProgram>();
  for (const BenchProgram &P : benchPrograms()) {
    CompileResult CR = compileMiniC(P.Source, FrontendOpts);
    if (!CR.ok()) {
      std::fprintf(stderr, "alloc_scale: failed to compile %s:\n%s\n", P.Name,
                   CR.Errors.c_str());
      return nullptr;
    }
    for (std::unique_ptr<IlocFunction> &F : CR.Prog->takeFunctions())
      Combined->adoptFunction(std::move(F));
  }
  return Combined;
}

/// Allocates a fresh copy of the combined program and returns the printed
/// form of every function plus the aggregated stats.
bool allocateAndPrint(AllocatorKind Kind, const AllocOptions &Options,
                      std::vector<std::string> &Printed, AllocStats &Stats) {
  std::unique_ptr<IlocProgram> Prog = buildCombinedProgram();
  if (!Prog)
    return false;
  Stats = allocateProgramChecked(*Prog, Kind, Options).Total;
  Printed.clear();
  for (const auto &F : Prog->functions())
    Printed.push_back(F->str());
  return true;
}

/// One-shot determinism check: serial and 4-thread runs must produce
/// byte-identical code for every function and structurally equal stats.
bool verifyParallelMatchesSerial(AllocatorKind Kind, unsigned K) {
  AllocOptions Serial;
  Serial.K = K;
  Serial.Threads = 1;
  AllocOptions Parallel = Serial;
  Parallel.Threads = 4;

  std::vector<std::string> SerialOut, ParallelOut;
  AllocStats SerialStats, ParallelStats;
  if (!allocateAndPrint(Kind, Serial, SerialOut, SerialStats) ||
      !allocateAndPrint(Kind, Parallel, ParallelOut, ParallelStats))
    return false;

  const char *Name = Kind == AllocatorKind::Rap ? "rap" : "gra";
  if (SerialOut.size() != ParallelOut.size()) {
    std::fprintf(stderr, "alloc_scale: %s/k%u function count mismatch\n",
                 Name, K);
    return false;
  }
  for (size_t I = 0; I != SerialOut.size(); ++I)
    if (SerialOut[I] != ParallelOut[I]) {
      std::fprintf(stderr,
                   "alloc_scale: %s/k%u function %zu differs between serial "
                   "and 4-thread runs\n",
                   Name, K, I);
      return false;
    }
  if (!SerialStats.structuralEq(ParallelStats)) {
    std::fprintf(stderr, "alloc_scale: %s/k%u stats differ between serial "
                         "and 4-thread runs\n",
                 Name, K);
    return false;
  }
  std::fprintf(stderr,
               "alloc_scale: %s/k%u serial == 4-thread across %zu "
               "functions (byte-identical code, equal stats)\n",
               Name, K, SerialOut.size());
  return true;
}

void scaleBench(benchmark::State &State, AllocatorKind Kind, unsigned K,
                unsigned Threads) {
  AllocOptions Options;
  Options.K = K;
  Options.Threads = Threads;
  unsigned NumFunctions = 0;
  for (auto _ : State) {
    std::unique_ptr<IlocProgram> Prog = buildCombinedProgram();
    if (!Prog) {
      State.SkipWithError("compilation failed");
      return;
    }
    NumFunctions = static_cast<unsigned>(Prog->functions().size());
    auto Start = std::chrono::steady_clock::now();
    AllocStats S = allocateProgramChecked(*Prog, Kind, Options).Total;
    auto End = std::chrono::steady_clock::now();
    State.SetIterationTime(
        std::chrono::duration<double>(End - Start).count());
    benchmark::DoNotOptimize(S);
    benchmark::DoNotOptimize(Prog.get());
  }
  State.counters["functions"] = NumFunctions;
}

void registerAll() {
  for (AllocatorKind Kind : {AllocatorKind::Gra, AllocatorKind::Rap}) {
    const char *Name = Kind == AllocatorKind::Rap ? "rap" : "gra";
    for (unsigned Threads : {1u, 2u, 4u}) {
      benchmark::RegisterBenchmark(
          (std::string(Name) + "/all37/k3/t" + std::to_string(Threads))
              .c_str(),
          [Kind, Threads](benchmark::State &S) {
            scaleBench(S, Kind, 3, Threads);
          })
          ->UseManualTime();
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  for (AllocatorKind Kind : {AllocatorKind::Gra, AllocatorKind::Rap})
    for (unsigned K : {3u, 9u})
      if (!verifyParallelMatchesSerial(Kind, K))
        return 1;
  registerAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
