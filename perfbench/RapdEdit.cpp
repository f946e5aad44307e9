//===- perfbench/RapdEdit.cpp - An edit session against CompileService ------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// rapd_edit: an in-process CompileService (2 shards, in-memory cache, a
// journal under a scratch cache directory that is never fsynced) serves a
// seeded edit session over a module of 48 pressure-heavy functions at k=3,
// the shape of bench/server_load. One client, closed loop: each step may
// edit one function body, then the client asks for a GRA build and a RAP
// build of the new source. Most requests are all cache hits (the read
// path: front end, lowering, fingerprints, lookups, clones, output hash);
// an edit adds one miss per allocator (allocation, cache insert, journal
// append), and the misses set the tail.
//
// Every pass replays the same session on a fresh service filled by the
// same cold pass (built by setup, which runs before every pass), so hits,
// misses and output hashes repeat exactly.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Pipeline.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "server/CompileService.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

using namespace rap;
using namespace rap::server;
using namespace rapbench;

namespace {

constexpr unsigned NumFunctions = 48;
constexpr unsigned NumSteps = 120;

// How many steps edit a function. The share of requests that miss the cache
// decides which path each percentile measures: job_ms.p50 falls on an
// all-hit request only while fewer than 50% of requests miss, and job_ms.p95
// falls on a miss only while more than 5% do. An edit makes both requests
// of its step miss (the edited function's fingerprint is new under either
// allocator) and leaves the other steps all hits, so the miss share is the
// share of editing steps. It is set to the middle of that range, 27.5%,
// 22.5 points from either edge, and the editing steps are an exact count
// drawn from the seed, so every seed has the same share. (bench/server_load's
// default, 10% of the functions edited before every request, makes every
// request a miss and would put p50 on the miss path.)
constexpr unsigned NumEditSteps = NumSteps * 275 / 1000; // 33
constexpr double MinMissPct = 5, MaxMissPct = 50;

constexpr unsigned NumSamples = 6;
constexpr unsigned K = 3;

/// A pressure-heavy function whose literals carry an edit version: bumping
/// the version changes the lowered code and so the function's fingerprint.
std::string functionSource(unsigned Index, unsigned Version) {
  char Buf[1536];
  std::snprintf(
      Buf, sizeof(Buf),
      "int work%u(int n, int seed) {\n"
      "  int a = seed + %u;\n"
      "  int b = seed * 3 + %u;\n"
      "  int c = a - b + 11;\n"
      "  int d = a * b %% 9973;\n"
      "  int e = c + d;\n"
      "  int f = e * 2 - a;\n"
      "  int g = f + b - c;\n"
      "  int h = g * d %% 7919;\n"
      "  for (int i = 0; i < n; i = i + 1) {\n"
      "    int t = a * i + b;\n"
      "    if (t %% 2 == 0) {\n"
      "      a = a + c * i - d;\n"
      "      b = b + e %% 4099;\n"
      "      c = c + t - f;\n"
      "    } else {\n"
      "      d = d + g * 2 - t;\n"
      "      e = e + h %% 3671;\n"
      "      f = f + a - i;\n"
      "    }\n"
      "    g = g + (a + b) %% 2753;\n"
      "    h = h + (c - d) * 3;\n"
      "    for (int j = 0; j < 4; j = j + 1) {\n"
      "      a = a + j * b %% 1021;\n"
      "      e = e - j + c %% 769;\n"
      "    }\n"
      "  }\n"
      "  return a + b + c + d + e + f + g + h;\n"
      "}\n",
      Index, Version * 7 + Index, Version * 13 + 5);
  return Buf;
}

std::string moduleSource(const std::vector<unsigned> &Versions) {
  std::string S;
  for (unsigned I = 0; I != Versions.size(); ++I)
    S += functionSource(I, Versions[I]);
  S += "int main() {\n  int acc = 0;\n";
  for (unsigned I = 0; I != Versions.size(); ++I)
    S += "  acc = acc + work" + std::to_string(I) + "(6, " +
         std::to_string(I + 1) + ");\n";
  S += "  return acc;\n}\n";
  return S;
}

RequestOptions requestOptions(unsigned A) {
  RequestOptions O;
  O.Allocator = allocatorKind(A);
  O.K = K;
  return O;
}

/// Unallocated reference of one sampled step's source.
struct Reference {
  RtValue Return;
  uint64_t Cycles = 0;
  uint64_t Instrs = 0;
};

class RapdEdit : public Workload {
public:
  RapdEdit(uint64_t Seed, const std::string &StateDir)
      : Seed(Seed), StateDir(StateDir) {}

  ~RapdEdit() override { dropService(); }

  void setup() override {
    SeedRng Rng(Seed);
    std::vector<char> Edits(NumSteps, 0);
    for (unsigned I = 0; I != NumEditSteps; ++I)
      Edits[I] = 1;
    for (unsigned I = NumSteps; I > 1; --I)
      std::swap(Edits[I - 1], Edits[Rng.below(I)]);
    std::vector<unsigned> Versions(NumFunctions, 0);
    Sources.assign(1, moduleSource(Versions));
    for (unsigned S = 0; S != NumSteps; ++S) {
      if (Edits[S])
        ++Versions[Rng.below(NumFunctions)];
      Sources.push_back(moduleSource(Versions));
    }
    Samples.clear();
    while (Samples.size() != NumSamples) {
      unsigned S = 1 + Rng.below(NumSteps);
      if (std::find(Samples.begin(), Samples.end(), S) == Samples.end())
        Samples.push_back(S);
    }
    std::sort(Samples.begin(), Samples.end());
    Refs.clear();
    for (unsigned S : Samples) {
      CompileResult CR = compileMiniC(Sources[S], CompileOptions());
      if (!CR.ok())
        throw BenchError("reference compile failed: " + CR.Errors);
      RunResult R = Interpreter(*CR.Prog).run("main");
      if (!R.Ok)
        throw BenchError("reference run failed: " + R.Error);
      Refs.push_back({R.ReturnValue, R.Stats.Cycles,
                      countInstrs(*CR.Prog)});
    }
    freshService();
  }

  /// The cold fill must equal a cold compileMiniC of the same source.
  void verifySetup(std::vector<std::string> &Failures) override {
    for (unsigned A : {GRA, RAP}) {
      uint64_t Cold = coldHash(Sources[0], A);
      if (Cold != FillHash[A])
        Failures.push_back(std::string("cold fill ") + AllocName[A] +
                           ": service hash differs from compileMiniC");
    }
  }

  void runPass(PassRecord &P, Tracer *T) override {
    ServiceCounters Before = Service->counters();
    std::vector<uint64_t> SampleCycles(2 * NumSamples, 0);
    for (unsigned S = 1; S <= NumSteps; ++S) {
      auto Sample = std::find(Samples.begin(), Samples.end(), S);
      for (unsigned A : {GRA, RAP}) {
        JobRecord Rec;
        Rec.Allocs = 1u << A;
        Rec.SourceKB[A] = Sources[S].size() / 1024.0;
        ServiceResult Res;
        size_t FailuresBefore = P.Failures.size();
        if (T) {
          Res = tracedRequest(*T, Sources[S], A, Rec.Trace[A], P.Counters,
                              P.Failures);
          Rec.WallS = Rec.Trace[A].WallS;
        } else {
          Clock::time_point T0 = Clock::now();
          Res = Service->compile(Sources[S], requestOptions(A));
          Rec.WallS = Rec.CompileS[A] = secondsBetween(T0, Clock::now());
        }

        // Checks, outside the timed region.
        std::string Where = "step " + std::to_string(S) + " " + AllocName[A];
        if (!Res.Ok || Res.Status != ServiceStatus::Ok)
          P.Failures.push_back(Where + ": status " +
                               serviceStatusName(Res.Status) + " " +
                               Res.Errors);
        else if (Res.degraded())
          P.Failures.push_back(Where + ": degraded allocation");
        Rec.AllHit = Res.CacheMisses == 0;
        P.Det.MissRequests += !Rec.AllHit;
        P.Det.Hits += Res.CacheHits;
        P.Det.Misses += Res.CacheMisses;
        P.Det.addAlloc(Res.Alloc);
        P.Det.JobHashes.push_back(Res.OutputHash);
        if (Sample != Samples.end() && Res.Prog) {
          size_t I = Sample - Samples.begin();
          SampleCycles[2 * I + A] = checkSample(Res, I, A, P, Where);
          if (FirstPassHashes.size() < 2 * NumSamples)
            FirstPassHashes.push_back(Res.OutputHash);
        }
        Rec.Failed = P.Failures.size() != FailuresBefore;
        P.Jobs.push_back(std::move(Rec));
      }
    }
    for (unsigned I = 0; I != NumSamples; ++I)
      if (SampleCycles[2 * I] && SampleCycles[2 * I + 1])
        P.Det.addCell(SampleCycles[2 * I], SampleCycles[2 * I + 1]);
    double MissPct = 100.0 * P.Det.MissRequests / P.Jobs.size();
    if (MissPct <= MinMissPct || MissPct >= MaxMissPct)
      P.Failures.push_back("miss-request share " + std::to_string(MissPct) +
                           "% is outside (5%, 50%): job_ms.p50 and .p95 "
                           "no longer measure the hit and miss paths");
    ServiceCounters After = Service->counters();
    P.Counters.Evictions = After.CacheEvictions - Before.CacheEvictions;
    P.Counters.TasksStolen = After.TasksStolen - Before.TasksStolen;
    P.Counters.QueueDepthMax = After.QueueDepthMax;
    P.Counters.JournalAppends = After.JournalAppends - Before.JournalAppends;
  }

  /// A seeded sample of warm responses must equal a cold compileMiniC.
  void finish(std::vector<std::string> &Failures) override {
    for (unsigned I = 0; I != FirstPassHashes.size(); ++I) {
      unsigned A = I % 2;
      if (coldHash(Sources[Samples[I / 2]], A) != FirstPassHashes[I])
        Failures.push_back("step " + std::to_string(Samples[I / 2]) + " " +
                           AllocName[A] +
                           ": warm hash differs from cold compileMiniC");
    }
    dropService();
  }

  StressReport stress(const std::vector<PassRecord> &Passes) const override {
    // The request whose server.request time is the median; shares are of
    // that request's time inside the service.
    std::vector<const JobTrace *> Traces;
    for (const PassRecord &P : Passes)
      if (P.Traced)
        for (const JobRecord &J : P.Jobs)
          Traces.push_back(&J.Trace[J.Allocs & (1u << RAP) ? RAP : GRA]);
    StressReport R;
    R.Layer = "server";
    R.Jobs = "the median request (server.request minus the front end and "
             "lowering it repeats)";
    if (Traces.empty())
      return R;
    std::sort(Traces.begin(), Traces.end(), [](auto *X, auto *Y) {
      return X->get("server.request") < Y->get("server.request");
    });
    const JobTrace &M = *Traces[Traces.size() / 2];
    double Req = M.get("server.request");
    if (Req <= 0) // the request failed before the service answered
      return R;
    double Front = M.get("frontend.lex") + M.get("frontend.parse") +
                   M.get("frontend.sema");
    double Lower = M.get("lower");
    R.SharePct = {{"frontend", 100 * Front / Req},
                  {"lower", 100 * Lower / Req},
                  {"server", 100 * (Req - Front - Lower) / Req}};
    return R;
  }

private:
  uint64_t coldHash(const std::string &Source, unsigned A) const {
    CompileOptions O;
    O.Allocator = allocatorKind(A);
    O.Alloc.K = K;
    CompileResult CR = compileMiniC(Source, O);
    return CR.ok() ? hashProgramOutput(*CR.Prog) : 0;
  }

  /// Runs a sampled response, adds it to the pass's run-time totals and
  /// returns its cycles (0 when it does not match the reference).
  uint64_t checkSample(const ServiceResult &Res, size_t I, unsigned A,
                       PassRecord &P, const std::string &Where) {
    RunResult R = Interpreter(*Res.Prog).run("main");
    if (!R.Ok || R.ReturnValue != Refs[I].Return) {
      P.Failures.push_back(Where + ": sampled response does not match the "
                                   "unallocated reference run");
      return 0;
    }
    P.Det.Cycles[A] += R.Stats.Cycles;
    P.Det.RefCycles[A] += Refs[I].Cycles;
    P.Det.Instrs += countInstrs(*Res.Prog);
    P.Det.RefInstrs += Refs[I].Instrs;
    return R.Stats.Cycles;
  }

  /// One request with its layers called from outside: the front end and
  /// lowering the service is about to repeat, the fingerprints it will
  /// compute, the request itself, the output hash and the counters.
  ServiceResult tracedRequest(Tracer &T, const std::string &Source,
                              unsigned A, JobTrace &Out, LayerCounters &C,
                              std::vector<std::string> &Failures) {
    int32_t Root = T.beginJob();
    ServiceResult Res;
    std::vector<uint64_t> Prints;
    uint64_t Hash = 0;
    try {
      // The outside copies of the front end and lowering are freed before
      // the request, so the service sees the heap an untraced request sees.
      {
        DiagnosticEngine Diags;
        std::vector<Token> Toks = T.span(Root, "frontend.lex", [&] {
          return Lexer(Source, Diags).lexAll();
        });
        C.Tokens += Toks.size();
        C.LexedBytes += Source.size();
        TranslationUnit TU = T.span(Root, "frontend.parse", [&] {
          return Parser(std::move(Toks), Diags).parseTranslationUnit();
        });
        if (Diags.hasErrors() || !T.span(Root, "frontend.sema", [&] {
              return analyze(TU, Diags);
            }))
          throw BenchError(Diags.str());
        std::unique_ptr<IlocProgram> Prog = T.span(Root, "lower", [&] {
          return lowerToIloc(TU, RegionGranularity::PerStatement,
                             CopyStyle::Naive, &Diags);
        });
        if (!Prog)
          throw BenchError("lowering failed");
        C.LowerInstrs += countInstrs(*Prog);
        T.span(Root, "server.fingerprint", [&] {
          AllocOptions AO;
          AO.K = K;
          for (const auto &F : Prog->functions())
            Prints.push_back(fingerprintFunction(*F, allocatorKind(A), AO));
        });
      }
      Res = T.span(Root, "server.request", [&] {
        return Service->compile(Source, requestOptions(A));
      });
      if (Res.Prog)
        Hash = T.span(Root, "server.hash",
                      [&] { return hashProgramOutput(*Res.Prog); });
      T.span(Root, "server.counters", [&] { return Service->counters(); });
    } catch (const std::exception &E) {
      Failures.push_back(std::string("traced request: ") + E.what());
    }
    Out = T.endJob(Root);
    if (Res.Prog) {
      bool Same = Hash == Res.OutputHash &&
                  Prints.size() == Res.Functions.size();
      for (size_t I = 0; Same && I != Prints.size(); ++I)
        Same = Prints[I] == Res.Functions[I].Fingerprint;
      if (!Same)
        Failures.push_back("traced request: fingerprints or hash called "
                           "from outside differ from the service's");
    }
    return Res;
  }

  /// Replaces the service with a fresh one over an empty cache directory
  /// and fills it with the session's first source under both allocators.
  void freshService() {
    dropService();
    CacheDir = StateDir + "/rapd-" + std::to_string(getpid()) + "-" +
               std::to_string(NextService++);
    std::filesystem::remove_all(CacheDir);
    ServiceConfig C;
    C.Shards = 2;
    C.CacheDir = CacheDir;
    C.CacheFsync = FsyncMode::Never;
    Service = std::make_unique<CompileService>(C);
    for (unsigned A : {GRA, RAP}) {
      ServiceResult R = Service->compile(Sources[0], requestOptions(A));
      if (!R.Ok)
        throw BenchError("cold fill failed: " + R.Errors);
      FillHash[A] = R.OutputHash;
    }
  }

  void dropService() {
    Service.reset();
    if (!CacheDir.empty())
      std::filesystem::remove_all(CacheDir);
    CacheDir.clear();
  }

  uint64_t Seed;
  std::string StateDir;
  std::vector<std::string> Sources; ///< [0] the cold fill, then each step
  std::vector<unsigned> Samples;    ///< sampled steps, ascending
  std::vector<Reference> Refs;      ///< per sampled step
  std::vector<uint64_t> FirstPassHashes; ///< sampled responses, pass 0
  std::unique_ptr<CompileService> Service;
  std::string CacheDir;
  unsigned NextService = 0;
  uint64_t FillHash[2] = {0, 0};
};

} // namespace

std::unique_ptr<Workload> rapbench::makeRapdEdit(uint64_t Seed,
                                                 const std::string &StateDir) {
  return std::make_unique<RapdEdit>(Seed, StateDir);
}
