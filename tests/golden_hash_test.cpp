//===- tests/golden_hash_test.cpp - Pinned RAP output hashes --------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden output hashes for RAP. Each case compiles a generated input with
/// RAP and compares the FNV hash of the linearized allocated ILOC with a
/// pinned value. The matrix covers ScaleProgram modules (seeds 1 and 5, 60
/// functions each) and 3x3 deep functions (seeds 1-3), at k = 3, 8 and 12,
/// with conservative coalescing off and on, at one and two region threads.
/// One region thread and two share an expected hash.
///
/// A change that means to alter allocation decisions updates the table: a
/// failing case prints its hash in the form the table uses.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "fuzz/ScaleProgram.h"
#include "ir/Linearize.h"
#include "support/Hash.h"

#include "gtest/gtest.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>

using namespace rap;

namespace {

enum class Input { Module1, Module5, Deep1, Deep2, Deep3 };

const char *inputName(Input I) {
  switch (I) {
  case Input::Module1:
    return "module1";
  case Input::Module5:
    return "module5";
  case Input::Deep1:
    return "deep1";
  case Input::Deep2:
    return "deep2";
  case Input::Deep3:
    return "deep3";
  }
  return "?";
}

std::string source(Input I) {
  fuzz::ScaleProgramConfig C;
  switch (I) {
  case Input::Module1:
  case Input::Module5:
    C.Seed = I == Input::Module1 ? 1 : 5;
    C.NumFunctions = 60;
    return fuzz::ScaleProgramBuilder(C).buildModule();
  case Input::Deep1:
  case Input::Deep2:
  case Input::Deep3:
    C.Seed = 1 + static_cast<unsigned>(I) - static_cast<unsigned>(Input::Deep1);
    C.DeepDepth = 3;
    C.DeepFanout = 3;
    return fuzz::ScaleProgramBuilder(C).buildDeepFunction();
  }
  return "";
}

/// Expected output hash per "<input>_k<K>_coalesce<0|1>".
const std::map<std::string, uint64_t> &goldenHashes() {
  static const std::map<std::string, uint64_t> Table = {
      {"module1_k3_coalesce0", 0xb9ddc18e5b8cfddbull},
      {"module1_k3_coalesce1", 0x6e70e8ce99ca1636ull},
      {"module1_k8_coalesce0", 0x65d7eb57bfcb5b6dull},
      {"module1_k8_coalesce1", 0x5dab5c9606a47ca7ull},
      {"module1_k12_coalesce0", 0x7cc68441a82dfd89ull},
      {"module1_k12_coalesce1", 0x075d40ffc295b206ull},
      {"module5_k3_coalesce0", 0x58b79698bf7b7ee8ull},
      {"module5_k3_coalesce1", 0x67930907892e4138ull},
      {"module5_k8_coalesce0", 0xdceeea705415a6dfull},
      {"module5_k8_coalesce1", 0xda0bb52304273f45ull},
      {"module5_k12_coalesce0", 0x9696764497376a83ull},
      {"module5_k12_coalesce1", 0x949b5ae13bf230ceull},
      {"deep1_k3_coalesce0", 0xa76195a11a756b6aull},
      {"deep1_k3_coalesce1", 0x1cf27af22c471c70ull},
      {"deep1_k8_coalesce0", 0x82ebdceb3a43d91eull},
      {"deep1_k8_coalesce1", 0xc890f6a159bd8017ull},
      {"deep1_k12_coalesce0", 0xe9d4e39caf9e1e16ull},
      {"deep1_k12_coalesce1", 0xf87366000fefa15cull},
      {"deep2_k3_coalesce0", 0x5dd65cbd4e8400a6ull},
      {"deep2_k3_coalesce1", 0xd63f9b2a70d31b37ull},
      {"deep2_k8_coalesce0", 0xdaa1c9c0aa2a61f2ull},
      {"deep2_k8_coalesce1", 0xeea4a2b82c8cc27cull},
      {"deep2_k12_coalesce0", 0x640e1e986ad593b9ull},
      {"deep2_k12_coalesce1", 0xccfbb8a8b92043c1ull},
      {"deep3_k3_coalesce0", 0xd1193419bedeefecull},
      {"deep3_k3_coalesce1", 0x3ed72bd359c87d7aull},
      {"deep3_k8_coalesce0", 0x2caadc09e2177544ull},
      {"deep3_k8_coalesce1", 0x16ff56c02ba9e1abull},
      {"deep3_k12_coalesce0", 0xbc8a743732266b37ull},
      {"deep3_k12_coalesce1", 0x3e9ece0efd5a619bull},
  };
  return Table;
}

using GoldenParam = std::tuple<Input, unsigned, bool, unsigned>;

class RapGolden : public testing::TestWithParam<GoldenParam> {};

TEST_P(RapGolden, OutputHashMatches) {
  auto [In, K, Coalesce, RegionThreads] = GetParam();
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = K;
  Options.Alloc.Coalesce = Coalesce;
  Options.Alloc.RegionThreads = RegionThreads;
  CompileResult CR = compileMiniC(source(In), Options);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  Hasher H;
  for (const auto &F : CR.Prog->functions())
    H.str(linearize(*F).str());
  uint64_t Got = H.value();

  std::string Key = std::string(inputName(In)) + "_k" + std::to_string(K) +
                    "_coalesce" + (Coalesce ? "1" : "0");
  char Line[96];
  std::snprintf(Line, sizeof(Line), "{\"%s\", 0x%016" PRIx64 "ull},",
                Key.c_str(), Got);
  auto It = goldenHashes().find(Key);
  ASSERT_NE(It, goldenHashes().end()) << "no pinned hash; got " << Line;
  EXPECT_EQ(It->second, Got) << "output changed; got " << Line;
}

std::string paramName(const testing::TestParamInfo<GoldenParam> &Info) {
  auto [In, K, Coalesce, RegionThreads] = Info.param;
  return std::string(inputName(In)) + "_k" + std::to_string(K) +
         (Coalesce ? "_coalesce" : "_plain") + "_rt" +
         std::to_string(RegionThreads);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RapGolden,
    testing::Combine(testing::Values(Input::Module1, Input::Module5,
                                     Input::Deep1, Input::Deep2, Input::Deep3),
                     testing::Values(3u, 8u, 12u), testing::Bool(),
                     testing::Values(1u, 2u)),
    paramName);

} // namespace
