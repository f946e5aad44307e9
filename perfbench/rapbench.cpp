//===- perfbench/rapbench.cpp - The repository's benchmark ------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// rapbench --workload W --seed N --seconds S --trace 0|1 --state-dir DIR
//          [--trace-out FILE]
//
// Runs passes of the workload's jobs until S seconds have gone, at least
// two passes, each after a fresh set-up (setup_s is the median of at least
// five set-ups). With --trace 0 every pass calls the program's public entry
// points untraced and the last line is the end-to-end metrics; with
// --trace 1 untraced and traced passes alternate and the last line is the
// per-layer metrics. The line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
//
// Deterministic totals (run-time cycles, code size, RAP's gain, hit rate,
// graph builds, spill rounds and every output hash) must repeat exactly in
// every pass and in every run of one seed; DIR keeps them between runs. If
// they do not, rapbench exits with status 3 and prints no result.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Hash.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

using namespace rapbench;

std::string DetTotals::str() const {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "cycles=%" PRIu64 ",%" PRIu64 " ref_cycles=%" PRIu64
                ",%" PRIu64 " instrs=%" PRIu64 " ref_instrs=%" PRIu64
                " graph_builds=%" PRIu64 " spill_rounds=%" PRIu64
                " spilled_vregs=%" PRIu64 " regions=%" PRIu64
                " hits=%" PRIu64 " misses=%" PRIu64
                " miss_requests=%" PRIu64 " gain=%.17g/%" PRIu64,
                Cycles[GRA], Cycles[RAP], RefCycles[GRA], RefCycles[RAP],
                Instrs, RefInstrs, GraphBuilds, SpillRounds, SpilledVRegs,
                RegionsProcessed, Hits, Misses, MissRequests, GainSum,
                GainCells);
  return Buf;
}

namespace {

constexpr unsigned NumSetups = 5;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string StateDir;
  std::string TraceOut;
};

bool parseArgs(int argc, char **argv, Options &O) {
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Key = argv[I];
    const char *Val = argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      O.Workload = Val;
    } else if (Key == "--seed") {
      O.Seed = std::strtoull(Val, &End, 10);
      if (*End)
        return false;
    } else if (Key == "--seconds") {
      O.Seconds = std::strtod(Val, &End);
      if (*End || O.Seconds <= 0)
        return false;
    } else if (Key == "--trace") {
      if (std::strcmp(Val, "0") && std::strcmp(Val, "1"))
        return false;
      O.Trace = Val[0] == '1';
    } else if (Key == "--state-dir") {
      O.StateDir = Val;
    } else if (Key == "--trace-out") {
      O.TraceOut = Val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !O.Workload.empty() && !O.StateDir.empty();
}

/// Linear interpolation between closest ranks; \p V need not be sorted.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return percentile(V, 0.5); }

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Ordered name -> (value, unit) list printed as the result's "metrics".
struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> Items;
  void add(const std::string &Name, double Value, const char *Unit) {
    Items.emplace_back(Name, Value, Unit);
  }
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const Metrics &M) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != M.Items.size(); ++I) {
    const auto &[Name, Value, Unit] = M.Items[I];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Name.c_str(), Value, Unit.c_str());
  }
  std::printf("}}\n");
}

/// The process's resident high-water mark. VmHWM, unlike ru_maxrss, starts
/// afresh at exec, so the launching process's size does not leak into it.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Hash of this executable's bytes, in hex.
std::string executableHash() {
  std::ifstream In("/proc/self/exe", std::ios::binary);
  rap::Hasher H;
  char Buf[1 << 16];
  while (In.read(Buf, sizeof(Buf)) || In.gcount())
    H.bytes(Buf, static_cast<size_t>(In.gcount()));
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, H.value());
  return Hex;
}

/// Compares every pass with the first and this run with earlier runs of
/// the same seed. Returns a description of the first difference, if any.
std::string checkDeterminism(const std::vector<PassRecord> &Passes,
                             const Options &O) {
  const DetTotals &First = Passes.front().Det;
  for (size_t I = 1; I != Passes.size(); ++I) {
    const DetTotals &D = Passes[I].Det;
    if (D == First)
      continue;
    std::string Msg = "pass " + std::to_string(I) + " differs from pass 0";
    if (D.str() != First.str())
      return Msg + ":\n  " + First.str() + "\n  " + D.str();
    for (size_t J = 0; J != std::min(D.JobHashes.size(),
                                     First.JobHashes.size());
         ++J)
      if (D.JobHashes[J] != First.JobHashes[J])
        return Msg + ": output hash of job " + std::to_string(J);
    return Msg + ": job count";
  }
  rap::Hasher H;
  for (uint64_t V : First.JobHashes)
    H.u64(V);
  std::string Ledger =
      First.str() + " outputs=" + std::to_string(H.value()) + "\n";
  // Keyed by this build of the program as well, so a rebuilt program with
  // different allocation decisions starts a fresh ledger.
  std::string Path = O.StateDir + "/det-" + O.Workload + "-" +
                     std::to_string(O.Seed) + "-" + executableHash() + ".txt";
  std::ifstream In(Path);
  if (In) {
    std::stringstream SS;
    SS << In.rdbuf();
    if (SS.str() != Ledger)
      return "differs from an earlier run of seed " + std::to_string(O.Seed) +
             ":\n  " + SS.str() + "  " + Ledger;
    return "";
  }
  std::string Tmp = Path + ".tmp";
  std::ofstream(Tmp) << Ledger;
  std::filesystem::rename(Tmp, Path);
  return "";
}

/// The latency samples job_ms is taken over: every job run, or, for a
/// workload that sets Workload::latencyByJob, each job of the pass list at
/// its median over the run's passes. Prints the sample count.
std::vector<double> latencySamplesMs(const std::vector<PassRecord> &Passes,
                                     const Workload &W) {
  std::vector<double> Out;
  if (!W.latencyByJob()) {
    for (const PassRecord &P : Passes)
      for (const JobRecord &J : P.Jobs)
        Out.push_back(J.WallS * 1e3);
    std::printf("job_ms: %zu jobs\n", Out.size());
    return Out;
  }
  for (size_t I = 0; I != Passes.front().Jobs.size(); ++I) {
    std::vector<double> PerPass;
    for (const PassRecord &P : Passes)
      PerPass.push_back(P.Jobs[I].WallS * 1e3);
    Out.push_back(median(PerPass));
  }
  std::printf("job_ms: %zu jobs, each the median of %zu passes\n",
              Out.size(), Passes.size());
  return Out;
}

void endToEndMetrics(const std::vector<PassRecord> &Passes, const Workload &W,
                     double SetupS, double RssMb, Metrics &M) {
  std::vector<double> LatMs = latencySamplesMs(Passes, W);
  double KB[2] = {0, 0}, Sec[2] = {0, 0};
  for (const PassRecord &P : Passes)
    for (const JobRecord &J : P.Jobs)
      for (unsigned A : {GRA, RAP}) {
        KB[A] += J.SourceKB[A];
        Sec[A] += J.CompileS[A];
      }
  const DetTotals &D = Passes.front().Det;
  M.add("setup_s", SetupS, "s");
  M.add("job_ms.p50", percentile(LatMs, 0.50), "ms");
  M.add("job_ms.p95", percentile(LatMs, 0.95), "ms");
  M.add("compile_kb_per_s.gra", ratio(KB[GRA], Sec[GRA]), "KB/s");
  M.add("compile_kb_per_s.rap", ratio(KB[RAP], Sec[RAP]), "KB/s");
  M.add("exec_cycle_ratio.gra", ratio(D.Cycles[GRA], D.RefCycles[GRA]), "x");
  M.add("exec_cycle_ratio.rap", ratio(D.Cycles[RAP], D.RefCycles[RAP]), "x");
  M.add("code_size_ratio", ratio(D.Instrs, D.RefInstrs), "x");
  M.add("peak_rss_mb", RssMb, "MB");
}

void perLayerMetrics(const std::vector<PassRecord> &Passes, const Workload &W,
                     Metrics &M) {
  // Per traced pass: seconds per span name, summed over its jobs.
  std::vector<std::map<std::string, double>> PassSpan;
  std::vector<double> TracedWall, UntracedWall, Uncovered, HitReq, MissReq;
  double Lexed = 0, LexS = 0, Exec = 0, RunS = 0;
  std::map<std::string, double> LayerS;
  double Wall = 0;
  const PassRecord *FirstTraced = nullptr;
  for (const PassRecord &P : Passes) {
    double PassWall = 0;
    for (const JobRecord &J : P.Jobs)
      PassWall += J.WallS;
    (P.Traced ? TracedWall : UntracedWall).push_back(PassWall);
    if (!P.Traced)
      continue;
    if (!FirstTraced)
      FirstTraced = &P;
    std::map<std::string, double> Sums;
    for (const JobRecord &J : P.Jobs) {
      for (const JobTrace &T : J.Trace) {
        if (T.WallS <= 0)
          continue;
        Uncovered.push_back(100.0 * (T.WallS - T.covered()) / T.WallS);
        for (const auto &[Name, S] : T.Layer) {
          Sums[Name] += S;
          LayerS[Name.substr(0, Name.find('.'))] += S;
        }
        Wall += T.WallS;
        double Req = T.get("server.request");
        if (Req > 0)
          (J.AllHit ? HitReq : MissReq).push_back(Req * 1e3);
      }
      Exec += static_cast<double>(J.ExecCycles);
    }
    Lexed += static_cast<double>(P.Counters.LexedBytes);
    LexS += Sums["frontend.lex"];
    RunS += Sums["interp.run"];
    PassSpan.push_back(std::move(Sums));
  }
  auto SpanS = [&](const char *Name) {
    std::vector<double> V;
    for (auto &S : PassSpan)
      V.push_back(S[Name]);
    return median(V);
  };
  auto Counter = [&](auto Field) {
    std::vector<double> V;
    for (const PassRecord &P : Passes)
      if (P.Traced)
        V.push_back(static_cast<double>(P.Counters.*Field));
    return median(V);
  };
  const LayerCounters &C = FirstTraced->Counters;
  const DetTotals &D = Passes.front().Det;

  M.add("frontend.lex_s", SpanS("frontend.lex"), "s");
  M.add("frontend.parse_s", SpanS("frontend.parse"), "s");
  M.add("frontend.sema_s", SpanS("frontend.sema"), "s");
  M.add("frontend.lex_mb_per_s", ratio(Lexed / 1e6, LexS), "MB/s");
  M.add("frontend.tokens", static_cast<double>(C.Tokens), "count");
  M.add("lower.s", SpanS("lower"), "s");
  M.add("lower.instrs", static_cast<double>(C.LowerInstrs), "count");

  double GraS = SpanS("regalloc.gra"), RapS = SpanS("regalloc.rap");
  M.add("regalloc.gra_s", GraS, "s");
  M.add("regalloc.rap_s", RapS, "s");
  M.add("regalloc.rap_gra_ratio", ratio(RapS, GraS), "x");
  M.add("regalloc.graph_builds", static_cast<double>(D.GraphBuilds), "count");
  M.add("regalloc.spill_rounds", static_cast<double>(D.SpillRounds), "count");
  M.add("regalloc.spilled_vregs", static_cast<double>(D.SpilledVRegs),
        "count");
  M.add("regalloc.regions_processed",
        static_cast<double>(D.RegionsProcessed), "count");
  M.add("regalloc.graph_build_s", Counter(&LayerCounters::GraphBuildS), "s");
  M.add("regalloc.liveness_s", Counter(&LayerCounters::LivenessS), "s");
  M.add("regalloc.peak_graph_bytes", static_cast<double>(C.PeakGraphBytes),
        "bytes");
  M.add("regalloc.rap_gain_pct", D.rapGainPct(), "%");

  M.add("interp.decode_s", SpanS("interp.decode"), "s");
  M.add("interp.run_s", SpanS("interp.run"), "s");
  M.add("interp.minstr_per_s", ratio(Exec / 1e6, RunS), "Minstr/s");
  M.add("interp.fused_ops", static_cast<double>(C.FusedOps), "count");
  M.add("interp.decode_bytes", static_cast<double>(C.DecodeBytes), "bytes");

  uint64_t Classified = D.Hits + D.Misses;
  M.add("server.request_s", SpanS("server.request"), "s");
  M.add("server.hit_request_ms", median(HitReq), "ms");
  M.add("server.miss_request_ms", median(MissReq), "ms");
  M.add("server.fingerprint_s", SpanS("server.fingerprint"), "s");
  M.add("server.hash_s", SpanS("server.hash"), "s");
  M.add("server.hit_pct", ratio(100.0 * D.Hits, Classified), "%");
  M.add("server.misses", static_cast<double>(D.Misses), "count");
  M.add("server.miss_request_pct",
        Classified ? ratio(100.0 * D.MissRequests,
                           static_cast<double>(Passes.front().Jobs.size()))
                   : 0,
        "%");
  M.add("server.evictions", Counter(&LayerCounters::Evictions), "count");
  M.add("server.tasks_stolen", Counter(&LayerCounters::TasksStolen), "count");
  M.add("server.queue_depth_max", Counter(&LayerCounters::QueueDepthMax),
        "count");
  M.add("server.journal_appends", Counter(&LayerCounters::JournalAppends),
        "count");

  for (const char *L : {"frontend", "lower", "regalloc", "interp", "server"})
    M.add(std::string("share.") + L + "_pct",
          ratio(100.0 * LayerS[L], Wall), "%");
  double Untraced = median(UntracedWall);
  M.add("trace.overhead_pct",
        ratio(100.0 * (median(TracedWall) - Untraced), Untraced), "%");
  M.add("trace.uncovered_pct", median(Uncovered), "%");

  StressReport S = W.stress(Passes);
  double Claimed = 0, Largest = 0;
  std::string LargestName;
  std::printf("stress: %s, layer shares:", S.Jobs.c_str());
  for (const auto &[Name, Pct] : S.SharePct) {
    std::printf(" %s %.1f%%", Name.c_str(), Pct);
    if (Name == S.Layer)
      Claimed = Pct;
    if (Pct > Largest) {
      Largest = Pct;
      LargestName = Name;
    }
  }
  bool IsLargest = LargestName == S.Layer;
  std::printf("\nstress: %s is %sthe largest layer (%.1f%%)%s\n",
              S.Layer.c_str(), IsLargest ? "" : "NOT ", Claimed,
              IsLargest ? "" : ("; largest is " + LargestName).c_str());
  M.add("stress.layer_pct", Claimed, "%");
  M.add("stress.is_largest", IsLargest ? 1 : 0, "bool");
}

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "table1")
    return makeTable1(O.Seed);
  if (O.Workload == "scale_module")
    return makeScaleModule(O.Seed);
  if (O.Workload == "deep_function")
    return makeDeepFunction(O.Seed);
  if (O.Workload == "rapd_edit")
    return makeRapdEdit(O.Seed, O.StateDir);
  return nullptr;
}

int run(const Options &O) {
  std::unique_ptr<Workload> W = makeWorkload(O);
  if (!W) {
    std::fprintf(stderr, "rapbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 64;
  }
  std::filesystem::create_directories(O.StateDir);

  // One set-up before every pass, so that setup_s samples the host in the
  // same states as the passes do; a run of fewer passes than NumSetups sets
  // up again after its last pass.
  std::vector<double> SetupS;
  auto Setup = [&] {
    Clock::time_point T0 = Clock::now();
    W->setup();
    SetupS.push_back(secondsBetween(T0, Clock::now()));
  };
  std::vector<std::string> Failures;
  Tracer T;
  std::vector<PassRecord> Passes;
  double RssMb = 0;
  Clock::time_point Start = Clock::now();
  while (Passes.size() < 2 ||
         secondsBetween(Start, Clock::now()) < O.Seconds) {
    Setup();
    if (Passes.empty())
      W->verifySetup(Failures);
    PassRecord P;
    P.Traced = O.Trace && Passes.size() % 2 == 1;
    W->runPass(P, P.Traced ? &T : nullptr);
    Passes.push_back(std::move(P));
    // Measured after a fixed amount of work: later passes only add the
    // benchmark's own records, whose number depends on speed.
    if (Passes.size() == 2)
      RssMb = peakRssMb();
  }
  while (SetupS.size() < NumSetups)
    Setup();
  W->finish(Failures);

  uint64_t Attempted = 0, Failed = Failures.size();
  for (const PassRecord &P : Passes) {
    Attempted += P.Jobs.size();
    for (const JobRecord &J : P.Jobs)
      Failed += J.Failed;
    Failures.insert(Failures.end(), P.Failures.begin(), P.Failures.end());
  }
  for (size_t I = 0; I != std::min<size_t>(Failures.size(), 20); ++I)
    std::fprintf(stderr, "rapbench: FAILED %s\n", Failures[I].c_str());

  std::string Drift = checkDeterminism(Passes, O);
  if (!Drift.empty()) {
    std::fprintf(stderr, "rapbench: deterministic totals %s\n",
                 Drift.c_str());
    return 3;
  }

  Metrics M;
  if (O.Trace) {
    for (const PassRecord &P : Passes)
      if (P.Traced && !P.Rows.empty()) {
        std::printf("%-12s %-4s %s %12s %10s %10s\n", "program", "k", "alloc",
                    "cycles", "spill_lds", "spill_sts");
        for (const std::string &R : P.Rows)
          std::printf("%s\n", R.c_str());
        break;
      }
    perLayerMetrics(Passes, *W, M);
    if (!O.TraceOut.empty() && !T.writeChromeTrace(O.TraceOut))
      std::fprintf(stderr, "rapbench: cannot write %s\n", O.TraceOut.c_str());
  } else {
    endToEndMetrics(Passes, *W, median(SetupS), RssMb, M);
  }
  std::fflush(stdout);
  printResult(Failed == 0, Attempted, Failed, M);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  if (!parseArgs(argc, argv, O)) {
    std::fprintf(stderr,
                 "usage: rapbench --workload table1|scale_module|"
                 "deep_function|rapd_edit --seed N --seconds S --trace 0|1 "
                 "--state-dir DIR [--trace-out FILE]\n");
    return 64;
  }
  try {
    return run(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "rapbench: %s\n", E.what());
    return 2;
  }
}
