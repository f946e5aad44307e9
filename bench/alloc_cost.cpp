//===- bench/alloc_cost.cpp - Allocator compile-time and space ---------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark harness for the paper's introduction claims about the
/// allocators themselves: RAP builds many *small* interference graphs
/// ("smaller interference graphs ... than one interference graph for the
/// whole program"), trading allocation time for space.
///
/// Only the allocation phase is measured: each iteration compiles the MiniC
/// source to unallocated ILOC outside the clock (manual timing), then times
/// allocateProgramChecked alone. Counters break the allocator's cost down
/// into graph construction time, liveness time, and peak adjacency memory.
///
//===----------------------------------------------------------------------===//

#include "benchprogs/BenchPrograms.h"
#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "support/Json.h"

#include "benchmark/benchmark.h"

#include <chrono>
#include <cstring>

using namespace rap;

namespace {

void allocBench(benchmark::State &State, const char *Program,
                AllocatorKind Kind, unsigned K) {
  const BenchProgram *P = findBenchProgram(Program);
  if (!P) {
    State.SkipWithError("unknown benchmark program");
    return;
  }
  CompileOptions FrontendOpts; // Allocator = None: virtual-register ILOC
  AllocOptions Alloc;
  Alloc.K = K;
  unsigned MaxNodes = 0;
  double GraphSeconds = 0, LivenessSeconds = 0;
  size_t PeakGraphBytes = 0;
  for (auto _ : State) {
    CompileResult CR = compileMiniC(P->Source, FrontendOpts);
    if (!CR.ok()) {
      State.SkipWithError("compilation failed");
      return;
    }
    auto Start = std::chrono::steady_clock::now();
    AllocStats S = allocateProgramChecked(*CR.Prog, Kind, Alloc).Total;
    auto End = std::chrono::steady_clock::now();
    State.SetIterationTime(
        std::chrono::duration<double>(End - Start).count());
    benchmark::DoNotOptimize(CR.Prog.get());
    MaxNodes = std::max(MaxNodes, S.MaxGraphNodes);
    GraphSeconds = S.GraphBuildSeconds;
    LivenessSeconds = S.LivenessSeconds;
    PeakGraphBytes = std::max(PeakGraphBytes, S.PeakGraphBytes);
  }
  State.counters["max_graph_nodes"] = MaxNodes;
  State.counters["graph_build_s"] = GraphSeconds;
  State.counters["liveness_s"] = LivenessSeconds;
  State.counters["peak_graph_bytes"] =
      static_cast<double>(PeakGraphBytes);
}

void registerAll() {
  const char *Programs[] = {"loop7", "loop21", "queens", "hsort", "intmm"};
  for (const char *Prog : Programs) {
    for (unsigned K : {3u, 9u}) {
      benchmark::RegisterBenchmark(
          (std::string("gra/") + Prog + "/k" + std::to_string(K)).c_str(),
          [Prog, K](benchmark::State &S) {
            allocBench(S, Prog, AllocatorKind::Gra, K);
          })
          ->UseManualTime();
      benchmark::RegisterBenchmark(
          (std::string("rap/") + Prog + "/k" + std::to_string(K)).c_str(),
          [Prog, K](benchmark::State &S) {
            allocBench(S, Prog, AllocatorKind::Rap, K);
          })
          ->UseManualTime();
    }
  }
}

/// --json mode: one single-shot measurement per (allocator, program, k)
/// emitted as "rap-bench-v1" rows — the machine-readable counterpart of the
/// google-benchmark counters (timings are single runs; treat as smoke data).
int runJsonMode() {
  const char *Programs[] = {"loop7", "loop21", "queens", "hsort", "intmm"};
  json::Array Rows;
  for (const char *Prog : Programs) {
    const BenchProgram *P = findBenchProgram(Prog);
    if (!P) {
      std::fprintf(stderr, "alloc_cost: unknown program '%s'\n", Prog);
      return 1;
    }
    for (unsigned K : {3u, 9u}) {
      for (AllocatorKind Kind : {AllocatorKind::Gra, AllocatorKind::Rap}) {
        CompileOptions FrontendOpts;
        CompileResult CR = compileMiniC(P->Source, FrontendOpts);
        if (!CR.ok()) {
          std::fprintf(stderr, "alloc_cost: %s failed to compile\n", Prog);
          return 1;
        }
        AllocOptions Alloc;
        Alloc.K = K;
        auto Start = std::chrono::steady_clock::now();
        AllocStats S =
            allocateProgramChecked(*CR.Prog, Kind, Alloc).Total;
        double Seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          Start)
                .count();
        json::Object Row;
        Row["benchmark"] = Prog;
        Row["allocator"] = Kind == AllocatorKind::Rap ? "rap" : "gra";
        Row["k"] = K;
        Row["alloc_s"] = Seconds;
        Row["alloc"] = allocStatsJson(S);
        Rows.push_back(json::Value(std::move(Row)));
      }
    }
  }
  json::Object Root;
  Root["schema"] = "rap-bench-v1";
  Root["bench"] = "alloc_cost";
  Root["rows"] = json::Value(std::move(Rows));
  std::printf("%s\n", json::Value(std::move(Root)).str(2).c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I != argc; ++I)
    if (std::strcmp(argv[I], "--json") == 0)
      return runJsonMode();
  registerAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
