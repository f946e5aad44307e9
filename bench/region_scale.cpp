//===- bench/region_scale.cpp - Region-parallel RAP scaling ------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scaling harness for the region-parallel speculative first round
/// (DESIGN.md §14): one generated deep/wide function — exactly the shape
/// whose sibling regions the series-parallel schedule can overlap — is
/// allocated repeatedly at several RegionThreads settings, timing only the
/// allocation phase. The workload is chosen spill-free (k=12 over a
/// two-scalar pressure band) so the speculative path engages and commits on
/// every run rather than falling back to the classic walk.
///
/// Before any timing, a verification pass requires every thread count to
/// produce byte-identical ILOC (FNV content hash), structurally equal
/// stats, and the same interpreted checksum as the serial walk — the
/// bit-identical-output invariant is a precondition for publishing numbers,
/// not a separate experiment.
///
/// On a single-core host the thread variants cannot beat serial wall clock
/// (the sweep still proves determinism); on multi-core hosts the row's
/// speedup column reports real overlap. Either way the rows record the
/// host's core count so consumers can interpret the ratios honestly.
///
//===----------------------------------------------------------------------===//

#include "Table1Support.h"

#include "fuzz/ScaleProgram.h"
#include "ir/Linearize.h"
#include "support/Hash.h"

#include <chrono>
#include <thread>

using namespace rap;
using namespace rap::bench;

namespace {

struct RunOutcome {
  uint64_t OutputHash = 0; ///< FNV hash of every function's linearized ILOC
  int64_t Checksum = 0;    ///< interpreted return value
  AllocStats Alloc;
  double AllocSeconds = 0;
  bool Ok = false;
};

/// Compiles \p Src with RAP at \p RegionThreads, timing only allocation
/// (frontend + lowering run outside the clock via a two-step pipeline:
/// compile unallocated, then allocate the program in place).
RunOutcome runOnce(const std::string &Src, unsigned K,
                   unsigned RegionThreads) {
  RunOutcome R;
  CompileOptions Front; // Allocator = None
  CompileResult CR = compileMiniC(Src, Front);
  if (!CR.ok()) {
    std::fprintf(stderr, "region_scale: frontend failed:\n%s\n",
                 CR.Errors.c_str());
    return R;
  }
  AllocOptions Opts;
  Opts.K = K;
  Opts.RegionThreads = RegionThreads;
  auto Start = std::chrono::steady_clock::now();
  R.Alloc =
      allocateProgramChecked(*CR.Prog, AllocatorKind::Rap, Opts).Total;
  R.AllocSeconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  Hasher H;
  for (const auto &F : CR.Prog->functions())
    H.str(linearize(*F).str());
  R.OutputHash = H.value();

  Interpreter Interp(*CR.Prog);
  RunResult RR = Interp.run();
  if (!RR.Ok) {
    std::fprintf(stderr, "region_scale: run failed: %s\n", RR.Error.c_str());
    return R;
  }
  R.Checksum = RR.ReturnValue.asInt();
  R.Ok = true;
  return R;
}

} // namespace

int main(int argc, char **argv) {
  BenchFlags Flags = parseBenchFlags(argc, argv);
  if (!Flags.Ok) {
    std::fprintf(stderr, "%s\n", Flags.Error.c_str());
    std::fprintf(stderr,
                 "usage: region_scale [--csv|--json] [--k=12,16,...]\n");
    return 2;
  }

  // Spill-free by construction (probed: the deep workload stays spill-free
  // at k=12 with a 2-scalar pressure band), so the speculative first round
  // commits and the rows measure the parallel path, not the fallback.
  std::vector<unsigned> Ks = Flags.Ks.empty()
                                 ? std::vector<unsigned>{12}
                                 : Flags.Ks;
  const unsigned Threads[] = {1, 2, 4, 8};
  const unsigned Reps = 5;

  fuzz::ScaleProgramConfig Config;
  Config.Seed = 7;
  Config.DeepDepth = 5;
  Config.DeepFanout = 3;
  Config.PressureVars = 2;
  std::string Src = fuzz::ScaleProgramBuilder(Config).buildDeepFunction();

  json::Array Rows;
  bool TableHeader = false;
  for (unsigned K : Ks) {
    // Verification pass: every thread count must reproduce the serial
    // walk's output bit for bit before any timing is published.
    RunOutcome Serial = runOnce(Src, K, 1);
    if (!Serial.Ok)
      return 1;
    if (Serial.Alloc.SpillRounds != 0) {
      std::fprintf(stderr,
                   "region_scale: k=%u workload spills (%llu rounds); "
                   "choose a spill-free k so the speculative path engages\n",
                   K, (unsigned long long)Serial.Alloc.SpillRounds);
      return 1;
    }
    for (unsigned T : Threads) {
      RunOutcome O = runOnce(Src, K, T);
      if (!O.Ok)
        return 1;
      if (O.OutputHash != Serial.OutputHash ||
          O.Checksum != Serial.Checksum ||
          !O.Alloc.structuralEq(Serial.Alloc)) {
        std::fprintf(stderr,
                     "region_scale: k=%u t=%u diverges from serial "
                     "(hash %016llx vs %016llx)\n",
                     K, T, (unsigned long long)O.OutputHash,
                     (unsigned long long)Serial.OutputHash);
        return 1;
      }
    }
    std::fprintf(stderr,
                 "region_scale: k=%u output bit-identical across region "
                 "threads {1,2,4,8} (hash %016llx, %llu regions)\n",
                 K, (unsigned long long)Serial.OutputHash,
                 (unsigned long long)Serial.Alloc.RegionsProcessed);

    // Timing sweep: best-of-Reps allocation seconds per thread count.
    double SerialBest = 0;
    for (unsigned T : Threads) {
      double Best = 0;
      RunOutcome Last;
      for (unsigned R = 0; R != Reps; ++R) {
        RunOutcome O = runOnce(Src, K, T);
        if (!O.Ok)
          return 1;
        if (R == 0 || O.AllocSeconds < Best)
          Best = O.AllocSeconds;
        Last = O;
      }
      if (T == 1)
        SerialBest = Best;
      double Speedup = Best > 0 ? SerialBest / Best : 0;

      if (Flags.Json) {
        json::Object Row;
        Row["workload"] = "deep/seed7/d5xf3/pv2";
        Row["k"] = static_cast<int64_t>(K);
        Row["region_threads"] = static_cast<int64_t>(T);
        Row["host_cores"] = static_cast<int64_t>(
            std::thread::hardware_concurrency());
        Row["alloc_seconds"] = Best;
        Row["speedup_vs_serial"] = Speedup;
        Row["regions"] = static_cast<int64_t>(Last.Alloc.RegionsProcessed);
        Row["graph_builds"] = static_cast<int64_t>(Last.Alloc.GraphBuilds);
        Row["spill_rounds"] = static_cast<int64_t>(Last.Alloc.SpillRounds);
        Row["output_hash"] = std::to_string(Last.OutputHash);
        Row["checksum"] = Last.Checksum;
        Rows.push_back(json::Value(std::move(Row)));
      } else if (Flags.Csv) {
        if (!TableHeader) {
          std::printf("workload,k,region_threads,host_cores,alloc_seconds,"
                      "speedup_vs_serial,regions,output_hash\n");
          TableHeader = true;
        }
        std::printf("deep/seed7/d5xf3/pv2,%u,%u,%u,%.6f,%.2f,%llu,%016llx\n",
                    K, T, std::thread::hardware_concurrency(), Best, Speedup,
                    (unsigned long long)Last.Alloc.RegionsProcessed,
                    (unsigned long long)Last.OutputHash);
      } else {
        if (!TableHeader) {
          std::printf("Region-parallel RAP scaling, generated deep function "
                      "(%u host cores)\n",
                      std::thread::hardware_concurrency());
          std::printf("%3s %8s | %12s %8s | %8s %12s\n", "k", "rthreads",
                      "alloc sec", "speedup", "regions", "output hash");
          TableHeader = true;
        }
        std::printf("%3u %8u | %12.6f %7.2fx | %8llu %12llx\n", K, T, Best,
                    Speedup,
                    (unsigned long long)Last.Alloc.RegionsProcessed,
                    (unsigned long long)Last.OutputHash);
      }
    }
  }

  if (Flags.Json)
    std::printf("%s\n", benchDoc("region-scale", std::move(Rows)).str(2).c_str());
  return 0;
}
