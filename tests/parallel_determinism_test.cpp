//===- tests/parallel_determinism_test.cpp - Parallel driver checks ---------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel per-function allocation driver must be invisible in the
/// output: any thread count produces byte-identical allocated code and
/// structurally equal stats versus a serial run. These tests compile a
/// multi-function program once per configuration and diff the results.
///
/// The whole binary additionally runs with RAP_VERIFY_LIVENESS set (see the
/// file-scope initializer), so every incremental liveness solve performed by
/// the allocators here is cross-checked against a cold recompute.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/BenchPrograms.h"
#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "fuzz/ScaleProgram.h"
#include "ir/Linearize.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Stats.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

using namespace rap;

namespace {

// Latch the liveness verification env flag before any Liveness is built in
// this process (the flag is read once and cached).
const int EnvSetter = []() {
  setenv("RAP_VERIFY_LIVENESS", "1", 1);
  return 0;
}();

/// Several functions with loop nests and enough simultaneously-live scalars
/// to force spilling at small k, so the parallel runs cover the full spill /
/// refresh machinery, not just coloring.
const char *MultiFunctionSource = R"(
int ga[16];

int fill(int n) {
  int i;
  int acc = 1;
  for (i = 0; i < n; i = i + 1) {
    acc = acc * 3 + i;
    ga[i] = acc;
  }
  return acc;
}

int pressure(int n) {
  int a = 1; int b = 2; int c = 3; int d = 4;
  int e = 5; int f = 6; int g = 7; int h = 8;
  int i;
  for (i = 0; i < n; i = i + 1) {
    a = a + b; b = b + c; c = c + d; d = d + e;
    e = e + f; f = f + g; g = g + h; h = h + a;
    if (a > 1000) { a = a - 1000; }
  }
  return a + b + c + d + e + f + g + h;
}

int nested(int n) {
  int i; int j; int s = 0;
  for (i = 0; i < n; i = i + 1) {
    for (j = 0; j < n; j = j + 1) {
      s = s + ga[(i + j) - ((i + j) / 16) * 16];
    }
  }
  return s;
}

int main() {
  int x = fill(16);
  int y = pressure(20);
  int z = nested(8);
  return x + y + z;
}
)";

struct AllocRun {
  std::vector<std::string> Functions; ///< printed allocated code, in order
  AllocStats Stats;
};

AllocRun runAllocation(const std::string &Source, AllocatorKind Kind,
                       unsigned K, unsigned Threads) {
  CompileOptions Options;
  Options.Allocator = Kind;
  Options.Alloc.K = K;
  Options.Alloc.Threads = Threads;
  CompileResult CR = compileMiniC(Source, Options);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  AllocRun Run;
  if (!CR.ok())
    return Run;
  for (const auto &F : CR.Prog->functions())
    Run.Functions.push_back(F->str());
  Run.Stats = CR.Alloc;
  return Run;
}

void expectIdenticalRuns(const std::string &Source, AllocatorKind Kind,
                         unsigned K) {
  AllocRun Serial = runAllocation(Source, Kind, K, 1);
  for (unsigned Threads : {2u, 4u}) {
    AllocRun Parallel = runAllocation(Source, Kind, K, Threads);
    ASSERT_EQ(Serial.Functions.size(), Parallel.Functions.size());
    for (size_t I = 0; I != Serial.Functions.size(); ++I)
      EXPECT_EQ(Serial.Functions[I], Parallel.Functions[I])
          << "function " << I << " differs at threads=" << Threads;
    EXPECT_TRUE(Serial.Stats.structuralEq(Parallel.Stats))
        << "stats differ at threads=" << Threads;
  }
}

TEST(ParallelDeterminism, RapMatchesSerial) {
  for (unsigned K : {3u, 5u})
    expectIdenticalRuns(MultiFunctionSource, AllocatorKind::Rap, K);
}

TEST(ParallelDeterminism, GraMatchesSerial) {
  for (unsigned K : {3u, 5u})
    expectIdenticalRuns(MultiFunctionSource, AllocatorKind::Gra, K);
}

TEST(ParallelDeterminism, BenchProgramsUnderRap) {
  // Spill-heavy Table 1 programs through RAP at k=3: many refresh rounds,
  // each incremental liveness solve verified against a cold recompute by
  // the RAP_VERIFY_LIVENESS latch above.
  for (const char *Name : {"loop7", "hsort", "queens"}) {
    const BenchProgram *P = findBenchProgram(Name);
    ASSERT_NE(P, nullptr);
    expectIdenticalRuns(P->Source, AllocatorKind::Rap, 3);
  }
}

//===----------------------------------------------------------------------===//
// Telemetry determinism: the stats document and the trace content must be
// invariant under the thread count. Wall clocks can't be: the stats JSON is
// compared after erasing exactly its "timing"/"timers" sections, the trace
// after dropping per-lane metadata and zeroing ts/dur/tid. Everything else
// — counters, slice names, regions, args, per-function rows — must match
// byte for byte.
//===----------------------------------------------------------------------===//

/// rap-stats-v1 text with the documented non-deterministic sections erased.
std::string normalizedStatsJson(const std::string &Source, unsigned Threads) {
  telemetry::Telemetry Telem;
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = 3;
  Options.Alloc.Threads = Threads;
  Options.Alloc.Telem = &Telem;
  CompileResult CR = compileMiniC(Source, Options);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  ReportMeta Meta;
  Meta.Allocator = "rap";
  Meta.K = 3;
  Meta.Threads = 1; // pin the metadata so only real divergence can differ
  json::Value Doc = statsJson(CR, Meta);
  Doc.asObject().erase("timing");
  Doc.asObject().erase("timers");
  return Doc.str(2);
}

/// Chrome trace with wall clocks and lane assignment normalized away:
/// metadata events dropped, ts/dur/tid zeroed. Slice names, order, regions,
/// and deterministic args all survive normalization.
std::string normalizedTrace(const std::string &Source, unsigned Threads) {
  telemetry::Telemetry Telem;
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = 3;
  Options.Alloc.Threads = Threads;
  Options.Alloc.Telem = &Telem;
  CompileResult CR = compileMiniC(Source, Options);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  std::ostringstream OS;
  Telem.writeChromeTrace(OS);
  json::Value Doc;
  std::string Error;
  EXPECT_TRUE(json::parse(OS.str(), Doc, &Error)) << Error;
  json::Array Kept;
  for (json::Value &E : Doc.asObject()["traceEvents"].asArray()) {
    if (E["ph"].asString() != "X")
      continue;
    E.asObject()["ts"] = 0;
    E.asObject()["dur"] = 0;
    E.asObject()["tid"] = 0;
    Kept.push_back(std::move(E));
  }
  Doc.asObject()["traceEvents"] = json::Value(std::move(Kept));
  return Doc.str(2);
}

TEST(ParallelDeterminism, StatsJsonThreadInvariant) {
  std::string Serial = normalizedStatsJson(MultiFunctionSource, 1);
  // The document must actually carry telemetry before invariance means
  // anything.
  EXPECT_NE(Serial.find("rap.graph_builds"), std::string::npos);
  for (unsigned Threads : {2u, 4u})
    EXPECT_EQ(Serial, normalizedStatsJson(MultiFunctionSource, Threads))
        << "stats JSON diverged at threads=" << Threads;
}

TEST(ParallelDeterminism, TraceThreadInvariant) {
  std::string Serial = normalizedTrace(MultiFunctionSource, 1);
  EXPECT_NE(Serial.find("rap_region"), std::string::npos);
  for (unsigned Threads : {2u, 4u})
    EXPECT_EQ(Serial, normalizedTrace(MultiFunctionSource, Threads))
        << "trace content diverged at threads=" << Threads;
}

TEST(ParallelDeterminism, StatsJsonStableAcrossRepeatedRuns) {
  std::string First = normalizedStatsJson(MultiFunctionSource, 4);
  for (int Run = 0; Run != 3; ++Run)
    EXPECT_EQ(First, normalizedStatsJson(MultiFunctionSource, 4))
        << "run " << Run;
}

//===----------------------------------------------------------------------===//
// Region-level parallelism (the speculative first round over the
// series-parallel decomposition, DESIGN.md §14): any RegionThreads value
// must be invisible in the output — byte-identical ILOC, equal stats, same
// FNV output hash, same interpreted checksum as the serial region walk.
//===----------------------------------------------------------------------===//

struct RegionRun {
  std::vector<std::string> Functions; ///< printed allocated code
  uint64_t OutputHash = 0;            ///< FNV over linearized ILOC
  int64_t Checksum = 0;
  AllocStats Stats;
};

RegionRun runWithRegionThreads(const std::string &Source, unsigned K,
                               unsigned RegionThreads, unsigned Grain) {
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = K;
  Options.Alloc.RegionThreads = RegionThreads;
  Options.Alloc.RegionGrain = Grain;
  CompileResult CR = compileMiniC(Source, Options);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  RegionRun Run;
  if (!CR.ok())
    return Run;
  Hasher H;
  for (const auto &F : CR.Prog->functions()) {
    Run.Functions.push_back(F->str());
    H.str(linearize(*F).str());
  }
  Run.OutputHash = H.value();
  Run.Stats = CR.Alloc;
  RunResult R = Interpreter(*CR.Prog).run();
  EXPECT_TRUE(R.Ok) << R.Error;
  if (R.Ok)
    Run.Checksum = R.ReturnValue.asInt();
  return Run;
}

void expectRegionThreadInvariance(const std::string &Source, unsigned K,
                                  unsigned Grain) {
  RegionRun Serial = runWithRegionThreads(Source, K, 1, Grain);
  for (unsigned RT : {2u, 8u}) {
    RegionRun Parallel = runWithRegionThreads(Source, K, RT, Grain);
    ASSERT_EQ(Serial.Functions.size(), Parallel.Functions.size());
    for (size_t I = 0; I != Serial.Functions.size(); ++I)
      EXPECT_EQ(Serial.Functions[I], Parallel.Functions[I])
          << "function " << I << " differs at region threads=" << RT;
    EXPECT_EQ(Serial.OutputHash, Parallel.OutputHash)
        << "output hash differs at region threads=" << RT;
    EXPECT_EQ(Serial.Checksum, Parallel.Checksum)
        << "checksum differs at region threads=" << RT;
    EXPECT_TRUE(Serial.Stats.structuralEq(Parallel.Stats))
        << "stats differ at region threads=" << RT;
  }
}

/// Asserts that every function of \p Source passes RAP's MaxLive gate at
/// \p K, so the speculative round is attempted for all of them.
void expectSpeculationAttempted(const std::string &Source, unsigned K) {
  for (const auto &[Name, MaxLive] : test::maxLiveByFunction(Source))
    EXPECT_LE(MaxLive, K) << Name << " would skip the speculative round";
}

TEST(ParallelDeterminism, RegionThreadsBitIdenticalOnDeepFunction) {
  // The bench workload: spill-free at k=12, so the speculative parallel
  // round engages and commits rather than falling back to the classic walk.
  fuzz::ScaleProgramConfig C;
  C.Seed = 7;
  C.DeepDepth = 4;
  C.DeepFanout = 3;
  C.PressureVars = 2;
  std::string Src = fuzz::ScaleProgramBuilder(C).buildDeepFunction();
  expectSpeculationAttempted(Src, 12);
  expectRegionThreadInvariance(Src, 12, /*Grain=*/16);
}

TEST(ParallelDeterminism, RegionThreadsBitIdenticalWhenSpilling) {
  // Under pressure (k=3) more registers are live at some point than there
  // are colors, so the MaxLive gate skips the speculative round and the
  // classic walk runs alone — bit-identical at every region thread count.
  fuzz::ScaleProgramConfig C;
  C.Seed = 7;
  C.DeepDepth = 4;
  C.DeepFanout = 2;
  C.PressureVars = 4;
  std::string Src = fuzz::ScaleProgramBuilder(C).buildDeepFunction();
  EXPECT_GT(test::maxLiveByFunction(Src).at("deep"), 3u);
  expectRegionThreadInvariance(Src, 3, /*Grain=*/8);
}

TEST(ParallelDeterminism, RegionThreadsBitIdenticalWhenSpillingUnderMaxLive) {
  // The discard path: module seed 6 has a function (f27) that needs spills
  // at k=12 although no point has more than 12 registers live. The gate
  // lets its speculative round start (grain 1 makes every region a task),
  // the round meets a spill candidate and is discarded, and the classic
  // walk reruns — bit-identical at every region thread count.
  fuzz::ScaleProgramConfig C;
  C.Seed = 6;
  C.NumFunctions = 30;
  std::string Src = fuzz::ScaleProgramBuilder(C).buildModule();
  EXPECT_LE(test::maxLiveByFunction(Src).at("f27"), 12u);
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = 12;
  CompileResult CR = compileMiniC(Src, Options);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  bool Spilled = false;
  for (const AllocOutcome &O : CR.AllocOutcomes)
    if (O.Function == "f27")
      Spilled = O.Stats.SpilledVRegs > 0;
  EXPECT_TRUE(Spilled) << "f27 no longer spills at k=12: pick another input";
  expectRegionThreadInvariance(Src, 12, /*Grain=*/1);
}

TEST(ParallelDeterminism, RegionThreadsComposeWithFunctionThreads) {
  // Both parallel axes at once: the per-function pool is shared with the
  // region phase (AllocOptions::Pool) and the result must still match
  // the fully serial run on a generated multi-function module.
  fuzz::ScaleProgramConfig C;
  C.Seed = 21;
  C.NumFunctions = 6;
  C.StmtsPerFunction = 5;
  C.PressureVars = 2;
  std::string Src = fuzz::ScaleProgramBuilder(C).buildModule();

  CompileOptions Serial;
  Serial.Allocator = AllocatorKind::Rap;
  Serial.Alloc.K = 8;
  CompileResult Base = compileMiniC(Src, Serial);
  ASSERT_TRUE(Base.ok()) << Base.Errors;

  CompileOptions Both = Serial;
  Both.Alloc.Threads = 4;
  Both.Alloc.RegionThreads = 4;
  Both.Alloc.RegionGrain = 8;
  CompileResult CR = compileMiniC(Src, Both);
  ASSERT_TRUE(CR.ok()) << CR.Errors;

  ASSERT_EQ(Base.Prog->functions().size(), CR.Prog->functions().size());
  for (size_t I = 0; I != Base.Prog->functions().size(); ++I)
    EXPECT_EQ(Base.Prog->functions()[I]->str(),
              CR.Prog->functions()[I]->str());
  EXPECT_TRUE(Base.Alloc.structuralEq(CR.Alloc));
}

TEST(ParallelDeterminism, RegionStatsJsonAndTraceInvariant) {
  // Telemetry must splice speculative per-region scratch scopes back in the
  // sequential order: normalized stats JSON and trace content may not vary
  // with the region thread count.
  fuzz::ScaleProgramConfig C;
  C.Seed = 7;
  C.DeepDepth = 3;
  C.DeepFanout = 3;
  C.PressureVars = 2;
  std::string Src = fuzz::ScaleProgramBuilder(C).buildDeepFunction();
  expectSpeculationAttempted(Src, 12);

  auto Normalized = [&](unsigned RegionThreads,
                        std::string &StatsOut, std::string &TraceOut) {
    telemetry::Telemetry Telem;
    CompileOptions Options;
    Options.Allocator = AllocatorKind::Rap;
    Options.Alloc.K = 12;
    Options.Alloc.RegionThreads = RegionThreads;
    Options.Alloc.RegionGrain = 8;
    Options.Alloc.Telem = &Telem;
    CompileResult CR = compileMiniC(Src, Options);
    ASSERT_TRUE(CR.ok()) << CR.Errors;
    ReportMeta Meta;
    Meta.Allocator = "rap";
    Meta.K = 12;
    Meta.Threads = 1;
    json::Value Doc = statsJson(CR, Meta);
    Doc.asObject().erase("timing");
    Doc.asObject().erase("timers");
    StatsOut = Doc.str(2);

    std::ostringstream OS;
    Telem.writeChromeTrace(OS);
    json::Value Trace;
    std::string Error;
    ASSERT_TRUE(json::parse(OS.str(), Trace, &Error)) << Error;
    json::Array Kept;
    for (json::Value &E : Trace.asObject()["traceEvents"].asArray()) {
      if (E["ph"].asString() != "X")
        continue;
      E.asObject()["ts"] = 0;
      E.asObject()["dur"] = 0;
      E.asObject()["tid"] = 0;
      Kept.push_back(std::move(E));
    }
    Trace.asObject()["traceEvents"] = json::Value(std::move(Kept));
    TraceOut = Trace.str(2);
  };

  std::string SerialStats, SerialTrace;
  Normalized(1, SerialStats, SerialTrace);
  EXPECT_NE(SerialTrace.find("rap_region"), std::string::npos);
  for (unsigned RT : {2u, 8u}) {
    std::string Stats, Trace;
    Normalized(RT, Stats, Trace);
    EXPECT_EQ(SerialStats, Stats)
        << "stats JSON diverged at region threads=" << RT;
    EXPECT_EQ(SerialTrace, Trace)
        << "trace content diverged at region threads=" << RT;
  }
}

TEST(ParallelDeterminism, MoreThreadsThanFunctions) {
  // Thread count far above the function count must clamp, not misbehave.
  AllocRun Serial = runAllocation(MultiFunctionSource, AllocatorKind::Rap,
                                  3, 1);
  AllocRun Wide = runAllocation(MultiFunctionSource, AllocatorKind::Rap,
                                3, 64);
  ASSERT_EQ(Serial.Functions.size(), Wide.Functions.size());
  for (size_t I = 0; I != Serial.Functions.size(); ++I)
    EXPECT_EQ(Serial.Functions[I], Wide.Functions[I]);
  EXPECT_TRUE(Serial.Stats.structuralEq(Wide.Stats));
}

} // namespace
