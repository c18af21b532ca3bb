// Cross-engine equivalence: the bitwise oracle, the word reference, the
// BLIS-like CPU engine, and the public API on the simulated GPUs (whose
// counts come from the same engine, written chunk by chunk into gamma)
// must produce identical gamma matrices on randomized workloads, for every
// comparison operation — the end-to-end correctness statement of the
// reproduction.
#include <gtest/gtest.h>

#include "bits/compare.hpp"
#include "core/snpcmp.hpp"
#include "cpu/engine.hpp"
#include "io/datagen.hpp"

namespace snp {
namespace {

using bits::Comparison;

struct CrossCase {
  std::size_t m, n, bits;
  double density;
  std::uint64_t seed;
};

class AllEnginesAgree
    : public ::testing::TestWithParam<std::tuple<CrossCase, Comparison>> {};

TEST_P(AllEnginesAgree, OnRandomWorkloads) {
  const auto& [c, op] = GetParam();
  const auto a = io::random_bitmatrix(c.m, c.bits, c.density, c.seed);
  const auto b = io::random_bitmatrix(c.n, c.bits, 1.0 - c.density,
                                      c.seed + 1);
  const auto expected = bits::compare_reference(a, b, op);

  // CPU BLIS-like engine.
  EXPECT_TRUE(cpu::compare_blocked(a, b, op) == expected) << "cpu engine";

  // Each simulated GPU through the public API, with chunks small enough
  // to force several chunks and edge tiles in both stream directions:
  // (a, b) streams B, (b, a) streams A. AND-NOT also runs pre-negated
  // (Eq. 3), which must not change the counts.
  const auto expected_t = bits::compare_reference(b, a, op);
  for (const char* dev : {"gtx980", "titanv", "vega64"}) {
    Context ctx = Context::gpu(dev);
    for (const bool pre_negate : {false, true}) {
      if (pre_negate && op != Comparison::kAndNot) {
        continue;
      }
      ComputeOptions opts;
      opts.pre_negate = pre_negate;
      opts.chunk_rows = 7;
      EXPECT_TRUE(ctx.compare(a, b, op, opts).counts == expected)
          << dev << " pre_negate=" << pre_negate;
      EXPECT_TRUE(ctx.compare(b, a, op, opts).counts == expected_t)
          << dev << " transposed, pre_negate=" << pre_negate;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllEnginesAgree,
    ::testing::Combine(
        ::testing::Values(CrossCase{1, 1, 33, 0.5, 1000},
                          CrossCase{13, 29, 257, 0.2, 2000},
                          CrossCase{70, 35, 1537, 0.5, 3000},
                          CrossCase{33, 130, 96, 0.8, 4000},
                          CrossCase{128, 128, 512, 0.35, 5000}),
        ::testing::Values(Comparison::kAnd, Comparison::kXor,
                          Comparison::kAndNot)));

TEST(CrossEngine, PublicApiAgreesAcrossBackends) {
  const auto a = io::random_bitmatrix(25, 700, 0.4, 6000);
  const auto b = io::random_bitmatrix(60, 700, 0.5, 6001);
  Context cpu_ctx = Context::cpu();
  const auto cpu_counts =
      cpu_ctx.compare(a, b, Comparison::kXor).counts;
  for (const char* name : {"gtx980", "titanv", "vega64"}) {
    Context gpu_ctx = Context::gpu(name);
    EXPECT_TRUE(gpu_ctx.compare(a, b, Comparison::kXor).counts ==
                cpu_counts)
        << name;
  }
}

TEST(CrossEngine, LdPipelineEndToEnd) {
  // Genotypes -> encoding -> LD counts, CPU vs GPU, same statistics.
  io::PopulationParams p;
  p.seed = 6100;
  p.ld_block_len = 8;
  const auto g = io::generate_genotypes(60, 300, p);
  const auto loci = bits::encode(g, bits::EncodingPlane::kPresence);
  Context cpu_ctx = Context::cpu();
  Context gpu_ctx = Context::gpu("vega64");
  const auto c1 = cpu_ctx.ld(loci).counts;
  const auto c2 = gpu_ctx.ld(loci).counts;
  EXPECT_TRUE(c1 == c2);
}

TEST(CrossEngine, DeepKAccumulationAgrees) {
  // K spanning several k_c panels on every device (k_c 383/512 words).
  const auto a = io::random_bitmatrix(9, 40000, 0.5, 6200);
  const auto b = io::random_bitmatrix(7, 40000, 0.5, 6201);
  const auto expected = bits::compare_reference(a, b, Comparison::kAnd);
  EXPECT_TRUE(cpu::compare_blocked(a, b, Comparison::kAnd) == expected);
  for (const char* dev : {"gtx980", "titanv", "vega64"}) {
    Context ctx = Context::gpu(dev);
    EXPECT_TRUE(ctx.compare(a, b, Comparison::kAnd).counts == expected)
        << dev;
  }
}

}  // namespace
}  // namespace snp
