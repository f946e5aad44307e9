//===- tests/interp_superinstr_test.cpp - Superinstruction fusion tests ---===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the threaded engine's superinstruction fusion (DESIGN.md
/// §11). Each test compiles a source shape known to decode into the
/// superinstruction under test, asserts the fusion actually happened
/// (decodedOpCount — a test that silently stopped exercising its pattern
/// would be worthless), and then checks the fused execution against the
/// reference switch engine: identical results, identical counters,
/// identical traps, and identical outcomes at every fuel value, so that a
/// budget expiring or a trap firing in the middle of a fused stretch is
/// indistinguishable from the unfused sequence. The adjacent indexed-memory
/// programs run the same sweep without a fused-shape precondition.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"

#include "gtest/gtest.h"

#include <string>

using namespace rap;

namespace {

/// Both engines over the same program; constructed together so every check
/// compares the same allocation of the same source.
struct EnginePair {
  CompileResult CR;
  std::unique_ptr<Interpreter> Sw, Th;

  explicit EnginePair(const std::string &Source,
                      AllocatorKind Alloc = AllocatorKind::None,
                      unsigned K = 5) {
    CompileOptions Options;
    Options.Allocator = Alloc;
    Options.Alloc.K = K;
    CR = compileMiniC(Source, Options);
    if (!CR.ok()) {
      ADD_FAILURE() << "compile failed:\n" << CR.Errors;
      return;
    }
    InterpOptions SwOpts, ThOpts;
    SwOpts.Dispatch = DispatchKind::Switch;
    ThOpts.Dispatch = DispatchKind::Threaded;
    Sw = std::make_unique<Interpreter>(*CR.Prog, SwOpts);
    Th = std::make_unique<Interpreter>(*CR.Prog, ThOpts);
  }
};

void expectSameRun(const RunResult &S, const RunResult &T,
                   const std::string &What) {
  EXPECT_EQ(S.Ok, T.Ok) << What;
  EXPECT_EQ(S.Error, T.Error) << What;
  EXPECT_EQ(S.TrapInfo.Kind, T.TrapInfo.Kind) << What;
  EXPECT_EQ(S.TrapInfo.PC, T.TrapInfo.PC) << What;
  EXPECT_EQ(S.TrapInfo.Function, T.TrapInfo.Function) << What;
  EXPECT_EQ(S.TrapInfo.Detail, T.TrapInfo.Detail) << What;
  EXPECT_EQ(S.ReturnValue, T.ReturnValue) << What;
  EXPECT_EQ(S.Stats.Cycles, T.Stats.Cycles) << What;
  EXPECT_EQ(S.Stats.Loads, T.Stats.Loads) << What;
  EXPECT_EQ(S.Stats.Stores, T.Stats.Stores) << What;
  EXPECT_EQ(S.Stats.SpillLoads, T.Stats.SpillLoads) << What;
  EXPECT_EQ(S.Stats.SpillStores, T.Stats.SpillStores) << What;
  EXPECT_EQ(S.Stats.Copies, T.Stats.Copies) << What;
  EXPECT_EQ(S.Stats.Calls, T.Stats.Calls) << What;
  EXPECT_EQ(S.Stats.MaxCallDepth, T.Stats.MaxCallDepth) << What;
  ASSERT_EQ(S.PerFunction.size(), T.PerFunction.size()) << What;
  for (size_t I = 0; I != S.PerFunction.size(); ++I) {
    EXPECT_EQ(S.PerFunction[I].first, T.PerFunction[I].first) << What;
    EXPECT_EQ(S.PerFunction[I].second.Cycles, T.PerFunction[I].second.Cycles)
        << What << " fn " << S.PerFunction[I].first;
  }
}

/// The core property: the threaded engine is observationally identical to
/// the reference — for the unlimited run, and at EVERY fuel value up to just
/// past the full run's cost, which walks a fuel boundary through every
/// stretch of the program (including the interior of every superinstruction).
void checkAgainstReference(const EnginePair &E, const std::string &What) {
  RunResult S = E.Sw->run("main", 500'000'000, /*CollectPerFunction=*/true);
  RunResult T = E.Th->run("main", 500'000'000, /*CollectPerFunction=*/true);
  expectSameRun(S, T, "full run of " + What);

  const uint64_t Full = S.Stats.Cycles;
  ASSERT_LT(Full, 20000u) << "keep the fuel sweep cheap";
  for (uint64_t Fuel = 1; Fuel <= Full + 1; ++Fuel) {
    RunResult FS = E.Sw->run("main", Fuel);
    RunResult FT = E.Th->run("main", Fuel);
    expectSameRun(FS, FT, What + " at fuel " + std::to_string(Fuel));
  }
}

/// checkAgainstReference on a source that must decode to \p Mnemonic.
void checkPattern(const std::string &Source, const char *Mnemonic,
                  AllocatorKind Alloc = AllocatorKind::None, unsigned K = 5) {
  EnginePair E(Source, Alloc, K);
  if (!E.Th)
    return;
  ASSERT_GT(E.Th->decodedOpCount(Mnemonic), 0u)
      << "source no longer decodes to '" << Mnemonic
      << "' — the test is not exercising its pattern:\n"
      << Source;
  EXPECT_EQ(E.Sw->decodedOpCount(Mnemonic), 0u)
      << "the switch engine must not decode";
  checkAgainstReference(E, Mnemonic);
}

/// checkAgainstReference on a source with no required fused shape.
void checkProgram(const std::string &Source, const std::string &What) {
  EnginePair E(Source);
  if (E.Th)
    checkAgainstReference(E, What);
}

// ---- pair and triple patterns ------------------------------------------

TEST(InterpSuperinstr, CmpCbr) {
  checkPattern(R"(
    int main() {
      int i = 0; int n = 9; int s = 0;
      while (i < n) { s = s + 2; i = i + 1; }
      return s;
    }
  )",
               "cmp_lt_cbr");
}

TEST(InterpSuperinstr, LoadICmpCbr) {
  checkPattern(R"(
    int main() {
      int i = 0; int s = 0;
      while (i < 9) { s = s + i; i = i + 1; }
      return s;
    }
  )",
               "loadi_cmp_lt_cbr");
}

TEST(InterpSuperinstr, LoadIOp) {
  checkPattern("int main() { int x = 3; int y = x * 7; return y + x; }",
               "loadi_mul");
}

TEST(InterpSuperinstr, LoadIDivByZeroTrapsMidPair) {
  // The div component of a fused loadI+div traps; kind, PC, and message
  // must name the div, not the pair. (The add keeps the greedy fuser from
  // stealing an earlier loadI into a different pair.)
  checkPattern(R"(
    int main() {
      int q = 7;
      int z = q + q;
      return z / 0;
    }
  )",
               "loadi_div");
}

TEST(InterpSuperinstr, SpillTriple) {
  // k=3 under RAP forces spills in a function with many simultaneously
  // live values; the allocator's ldm/op/stm shape fuses to a triple.
  checkPattern(R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
      int f = 6; int g = 7; int h = 8;
      int s = a + b + c + d + e + f + g + h;
      int t = a * b + c * d + e * f + g * h;
      int u = (a + h) * (b + g) + (c + f) * (d + e);
      return s + t + u;
    }
  )",
               "ld_add_st", AllocatorKind::Rap, 3);
}

// ---- adjacent indexed memory ops ----------------------------------------
// These neighbours are not fused (each pair saved under 0.5% of the Table 1
// dispatches; DESIGN.md §11). The programs stay as plain-op sweeps: the
// second op reads operands the first may have written, and the second of
// two stores traps after the first has committed.

TEST(InterpSuperinstr, LdIdxLdIdx) {
  checkProgram(R"(
    int a[8];
    int main() {
      int i = 0;
      while (i < 8) { a[i] = i * 3; i = i + 1; }
      int j = 2; int k = 5;
      return a[j] + a[k];
    }
  )",
               "indexed load pair");
}

TEST(InterpSuperinstr, LdIdxStIdxSwap) {
  checkProgram(R"(
    int a[6];
    int main() {
      int i = 0;
      while (i < 6) { a[i] = i + 10; i = i + 1; }
      int j = 1; int k = 4;
      int t = a[j];
      a[j] = a[k];
      a[k] = t;
      return a[1] * 100 + a[4];
    }
  )",
               "indexed load-store swap");
}

TEST(InterpSuperinstr, StIdxStIdx) {
  checkProgram(R"(
    int a[6];
    int main() {
      int i = 2; int j = 3; int x = 40; int y = 50;
      a[i] = x;
      a[j] = y;
      return a[2] + a[3];
    }
  )",
               "indexed store pair");
}

TEST(InterpSuperinstr, StIdxStIdxSecondStoreTraps) {
  // First store commits, second traps: the trap and counters must match
  // the reference exactly.
  checkProgram(R"(
    int a[4];
    int main() {
      int i = 1; int j = 9; int x = 7; int y = 8;
      a[i] = x;
      a[j] = y;
      return 0;
    }
  )",
               "indexed store pair, second store traps");
}

// ---- chains -------------------------------------------------------------

TEST(InterpSuperinstr, LoadIAddMvJmpLatch) {
  checkPattern(R"(
    int main() {
      int s = 0; int i = 0;
      while (i < 12) { s = s + i; i = i + 1; }
      return s;
    }
  )",
               "loadi_add_mv_jmp");
}

TEST(InterpSuperinstr, MulAddLdIdx) {
  // The indexing expression sits at the top of the loop body, so the mul
  // opens its stretch and nothing earlier can steal it into a pair.
  checkPattern(R"(
    int a[16];
    int main() {
      int n = 4;
      int i = 2; int c = 3;
      int s = 0;
      int k = 0;
      while (k < 2) {
        s = s + a[i * n + c];
        k = k + 1;
      }
      return s;
    }
  )",
               "mul_add_ldx");
}

TEST(InterpSuperinstr, MulAddLdIdxTrapsAtChainEnd) {
  // Same shape, but the array is too small: the chain's load component is
  // out of bounds, and the trap PC is the ldx's own linear position (two
  // past the chain head).
  checkPattern(R"(
    int a[4];
    int main() {
      int n = 4;
      int i = 2; int c = 3;
      int s = 0;
      int k = 0;
      while (k < 2) {
        s = s + a[i * n + c];
        k = k + 1;
      }
      return s;
    }
  )",
               "mul_add_ldx");
}

TEST(InterpSuperinstr, GlobalIncrementChain) {
  checkPattern(R"(
    int g;
    int main() {
      g = 3;
      g = g + 5;
      g = g + 5;
      return g;
    }
  )",
               "ldg_loadi_add_stg");
}

TEST(InterpSuperinstr, GlobalCompareChain) {
  checkPattern(R"(
    int g;
    int main() {
      g = 0;
      int s = 0;
      int n = 7;
      while (g < n) { s = s + g; g = g + 1; }
      return s;
    }
  )",
               "ldg_cmp_lt_cbr");
}

// ---- decode-level invariants -------------------------------------------

TEST(InterpSuperinstr, FusionTelemetryIsConsistent) {
  EnginePair E(R"(
    int a[8];
    int main() {
      int s = 0; int i = 0;
      while (i < 8) { a[i] = i * 2; s = s + a[i]; i = i + 1; }
      return s;
    }
  )");
  ASSERT_TRUE(E.Th);
  EXPECT_GT(E.Th->fusedPairs(), 0u);
  // The switch engine never decodes, so its telemetry is all zero.
  EXPECT_EQ(E.Sw->fusedPairs(), 0u);
  EXPECT_EQ(E.Sw->fusedCmpCbr(), 0u);
  EXPECT_EQ(E.Sw->decodeBytes(), 0u);
  EXPECT_GT(E.Th->decodeBytes(), 0u);
}

TEST(InterpSuperinstr, BranchTargetBlocksFusion) {
  // The loop header is a label target between the compare and the add that
  // would otherwise be fusible with it; the decoded program must still have
  // an op starting exactly at every label target (fusion never swallows
  // one), which the correct looping behavior demonstrates.
  EnginePair E(R"(
    int main() {
      int i = 0;
      int s = 1;
      while (i < 20) {
        s = s + s;
        if (s > 100) { s = s - 100; }
        i = i + 1;
      }
      return s;
    }
  )");
  ASSERT_TRUE(E.Th);
  RunResult S = E.Sw->run();
  RunResult T = E.Th->run();
  expectSameRun(S, T, "label-dense loop");
}

} // namespace
