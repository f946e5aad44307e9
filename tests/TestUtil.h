//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#ifndef RAP_TESTS_TESTUTIL_H
#define RAP_TESTS_TESTUTIL_H

#include "cfg/Cfg.h"
#include "cfg/Liveness.h"
#include "driver/Pipeline.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/Linearize.h"
#include "lower/AstLowering.h"

#include "gtest/gtest.h"

#include <map>
#include <memory>
#include <string>

namespace rap::test {

/// Compiles MiniC source to an unallocated IlocProgram, failing the current
/// test on any diagnostic.
inline std::unique_ptr<IlocProgram>
compile(const std::string &Source,
        RegionGranularity G = RegionGranularity::PerStatement) {
  DiagnosticEngine Diags;
  Lexer Lex(Source, Diags);
  Parser P(Lex.lexAll(), Diags);
  TranslationUnit TU = P.parseTranslationUnit();
  if (Diags.hasErrors()) {
    ADD_FAILURE() << "compile errors:\n" << Diags.str();
    return nullptr;
  }
  if (!analyze(TU, Diags)) {
    ADD_FAILURE() << "sema errors:\n" << Diags.str();
    return nullptr;
  }
  return lowerToIloc(TU, G);
}

/// Parses and type-checks, returning the diagnostics text ("" on success).
inline std::string diagnose(const std::string &Source) {
  DiagnosticEngine Diags;
  Lexer Lex(Source, Diags);
  Parser P(Lex.lexAll(), Diags);
  TranslationUnit TU = P.parseTranslationUnit();
  if (!Diags.hasErrors())
    analyze(TU, Diags);
  return Diags.str();
}

/// Liveness::maxLive of each function of \p Source as the pipeline lowers
/// it, before allocation, by function name. RAP runs its speculative
/// region-parallel round only on a function whose value is at most k.
inline std::map<std::string, unsigned>
maxLiveByFunction(const std::string &Source) {
  std::map<std::string, unsigned> Out;
  CompileResult CR = compileMiniC(Source, CompileOptions());
  if (!CR.ok()) {
    ADD_FAILURE() << "compile failed:\n" << CR.Errors;
    return Out;
  }
  for (const auto &F : CR.Prog->functions()) {
    LinearCode Code = linearize(*F);
    Cfg G(Code);
    Out[F->name()] = Liveness(Code, G, F->numVRegs()).maxLive();
  }
  return Out;
}

} // namespace rap::test

#endif // RAP_TESTS_TESTUTIL_H
