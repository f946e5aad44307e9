//===- driver/Pipeline.h - Source-to-stats pipeline -------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experimental pipeline of the paper's §4: MiniC source -> PDG + ILOC
/// (virtual registers) -> register allocation (GRA or RAP, k registers) ->
/// interpreted execution with cycle/load/store/copy counts.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_DRIVER_PIPELINE_H
#define RAP_DRIVER_PIPELINE_H

#include "interp/Interpreter.h"
#include "ir/IlocProgram.h"
#include "lower/AstLowering.h"
#include "regalloc/Allocator.h"
#include "support/Stats.h"

#include <memory>
#include <string>

namespace rap {

struct CompileOptions {
  AllocatorKind Allocator = AllocatorKind::None;
  /// Passed through to allocateProgramChecked; Alloc.Threads > 1 allocates
  /// the program's functions on a worker pool with output identical to a
  /// serial run (see AllocOptions::Threads).
  AllocOptions Alloc;
  RegionGranularity Granularity = RegionGranularity::PerStatement;
  CopyStyle Copies = CopyStyle::Naive;
  /// Instruction budget for compileAndRun's interpretation (the crash-free
  /// contract's defence against non-terminating inputs; rapcc --fuel=N and
  /// the fuzzer lower it).
  uint64_t InterpFuel = 500'000'000;
};

struct CompileResult {
  std::unique_ptr<IlocProgram> Prog;
  AllocStats Alloc; ///< aggregated over all functions

  /// Per-function allocation outcomes (empty until allocation runs). With
  /// Alloc.FallbackOnError, degraded functions show up here with
  /// Status == Fallback while the program as a whole stays runnable; their
  /// summary is also appended to Errors, so callers that only look at
  /// Errors still see the degradation.
  std::vector<AllocOutcome> AllocOutcomes;

  /// Deterministic telemetry aggregate (counters/timers over all functions).
  /// Empty unless Options.Alloc.Telem pointed at a registry during
  /// compilation; the registry itself (for traces and per-function records)
  /// stays with the caller who owns it.
  telemetry::Aggregate Telemetry;

  std::string Errors; ///< diagnostics when compilation failed or degraded

  bool ok() const { return Prog != nullptr; }
  bool degraded() const {
    for (const AllocOutcome &O : AllocOutcomes)
      if (O.degraded())
        return true;
    return false;
  }
};

/// Compiles MiniC source and (optionally) allocates registers.
CompileResult compileMiniC(const std::string &Source,
                           const CompileOptions &Options);

/// Compiles, allocates, and runs main(). The Error field of the result is
/// set when compilation fails.
RunResult compileAndRun(const std::string &Source,
                        const CompileOptions &Options);

} // namespace rap

#endif // RAP_DRIVER_PIPELINE_H
