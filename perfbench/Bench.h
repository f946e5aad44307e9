//===- perfbench/Bench.h - Workload interface and pass records --*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload shares. A workload builds its inputs from the
/// seed (setup), then runs passes: one pass is a fixed list of jobs, the
/// same in every pass of a run. The runner times each job, keeps the
/// deterministic totals of each pass and requires them to repeat exactly,
/// and turns the records into the end-to-end metrics (untraced passes) or
/// the per-layer metrics (traced passes).
///
//===----------------------------------------------------------------------===//

#ifndef RAP_PERFBENCH_BENCH_H
#define RAP_PERFBENCH_BENCH_H

#include "Trace.h"

#include "regalloc/AllocOutcome.h"
#include "regalloc/Allocator.h"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace rap {
class IlocProgram;
}

namespace rapbench {

/// Index of an allocator in the per-allocator arrays below.
enum Alloc : unsigned { GRA = 0, RAP = 1 };
constexpr const char *AllocName[] = {"gra", "rap"};

inline rap::AllocatorKind allocatorKind(unsigned A) {
  return A == GRA ? rap::AllocatorKind::Gra : rap::AllocatorKind::Rap;
}

/// One job: what a single client waits for.
struct JobRecord {
  double WallS = 0;             ///< latency of the whole job
  double CompileS[2] = {0, 0};  ///< wall time in the compile entry point
  double SourceKB[2] = {0, 0};  ///< source compiled, per allocator
  unsigned Allocs = 0;          ///< bit A set when allocator A ran
  bool Failed = false;
  JobTrace Trace[2];            ///< traced passes: spans per allocator
  bool AllHit = false;          ///< rapd_edit: every function was a hit
  uint64_t ExecCycles = 0;      ///< traced compile jobs: cycles interpreted
};

/// Counters that must repeat exactly between passes and between runs of
/// one seed. Output hashes are kept per job, in job order.
struct DetTotals {
  uint64_t Cycles[2] = {0, 0};    ///< executed cycles of allocated code
  uint64_t RefCycles[2] = {0, 0}; ///< same programs before allocation
  uint64_t Instrs = 0;            ///< static instructions after allocation
  uint64_t RefInstrs = 0;         ///< the same before allocation
  uint64_t GraphBuilds = 0;
  uint64_t SpillRounds = 0;
  uint64_t SpilledVRegs = 0;
  uint64_t RegionsProcessed = 0;
  uint64_t Hits = 0;        ///< functions served from the cache
  uint64_t Misses = 0;      ///< functions allocated by the service
  uint64_t MissRequests = 0; ///< requests with at least one miss
  double GainSum = 0; ///< sum over (program, k) cells of RAP's % gain
  uint64_t GainCells = 0;
  std::vector<uint64_t> JobHashes;

  bool operator==(const DetTotals &) const = default;

  void addAlloc(const rap::AllocStats &S) {
    GraphBuilds += S.GraphBuilds;
    SpillRounds += S.SpillRounds;
    SpilledVRegs += S.SpilledVRegs;
    RegionsProcessed += S.RegionsProcessed;
  }
  void addCell(uint64_t GraCycles, uint64_t RapCycles) {
    GainSum += 100.0 * (static_cast<double>(GraCycles) -
                        static_cast<double>(RapCycles)) /
               static_cast<double>(GraCycles);
    ++GainCells;
  }
  double rapGainPct() const { return GainCells ? GainSum / GainCells : 0; }

  /// Every counter except the hashes, as one line (the ledger kept between
  /// runs of one seed).
  std::string str() const;
};

/// Work counters of the traced passes that are not deterministic or only
/// exist on the traced path.
struct LayerCounters {
  uint64_t Tokens = 0;
  uint64_t LexedBytes = 0;
  uint64_t LowerInstrs = 0;
  double GraphBuildS = 0;
  double LivenessS = 0;
  uint64_t PeakGraphBytes = 0;
  uint64_t FusedOps = 0;
  uint64_t DecodeBytes = 0;
  uint64_t Evictions = 0;
  uint64_t TasksStolen = 0;
  uint64_t QueueDepthMax = 0;
  uint64_t JournalAppends = 0;
};

struct PassRecord {
  bool Traced = false;
  std::vector<JobRecord> Jobs;
  DetTotals Det;
  LayerCounters Counters;
  std::vector<std::string> Failures; ///< one line per failed check
  std::vector<std::string> Rows;     ///< per-program rows (traced only)
};

/// Whether a workload stresses the layer it exists for: every layer's
/// share of the jobs the claim is about, from the traced passes.
struct StressReport {
  std::string Layer; ///< the layer the workload claims to stress
  std::string Jobs;  ///< which jobs the shares are taken over
  std::vector<std::pair<std::string, double>> SharePct;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds every input and reference from the seed, and whatever state a
  /// pass starts from. Called before every pass, and again after the last
  /// pass of a run with fewer passes than set-ups; setup_s is the median.
  virtual void setup() = 0;

  /// Checks on the set-up state, run once outside any timed region.
  virtual void verifySetup(std::vector<std::string> &Failures) {
    (void)Failures;
  }

  /// Runs one pass of jobs. \p T is null on untraced passes.
  virtual void runPass(PassRecord &P, Tracer *T) = 0;

  /// Checks after the last pass, outside the timed region.
  virtual void finish(std::vector<std::string> &Failures) { (void)Failures; }

  virtual StressReport stress(const std::vector<PassRecord> &Passes) const = 0;

  /// Whether a run holds too few jobs for a 95th percentile over every job
  /// run. job_ms then takes each job of the pass list at its median over
  /// the run's passes, so it does not depend on how many passes fit in.
  virtual bool latencyByJob() const { return false; }
};

/// Thrown when the benchmark cannot produce a valid result at all (bad
/// set-up, a reference that does not run).
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::unique_ptr<Workload> makeTable1(uint64_t Seed);
std::unique_ptr<Workload> makeScaleModule(uint64_t Seed);
std::unique_ptr<Workload> makeDeepFunction(uint64_t Seed);
std::unique_ptr<Workload> makeRapdEdit(uint64_t Seed,
                                       const std::string &StateDir);

/// Static instruction count of every function of \p Prog.
uint64_t countInstrs(const rap::IlocProgram &Prog);

/// Deterministic 64-bit generator for inputs derived from the seed.
struct SeedRng {
  uint64_t State;
  explicit SeedRng(uint64_t Seed) : State(Seed * 0x9e3779b97f4a7c15ull + 1) {
    if (State == 0)
      State = 1; // xorshift never leaves zero
  }
  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545f4914f6cdd1dull;
  }
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
};

} // namespace rapbench

#endif // RAP_PERFBENCH_BENCH_H
