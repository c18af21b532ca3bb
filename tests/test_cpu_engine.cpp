// BLIS-like CPU engine vs the naive reference, across shapes, ops and
// blocking parameters.
#include "cpu/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "bits/compare.hpp"
#include "io/datagen.hpp"

namespace snp::cpu {
namespace {

using bits::Comparison;

TEST(CpuEngine, RejectsBadInput) {
  const auto a = io::random_bitmatrix(4, 64, 0.5, 1);
  const auto b = io::random_bitmatrix(4, 128, 0.5, 2);
  EXPECT_THROW((void)compare_blocked(a, b, Comparison::kAnd),
               std::invalid_argument);
  CpuBlocking bad;
  bad.m_c = 2;  // < m_r
  EXPECT_THROW((void)compare_blocked(a, a, Comparison::kAnd, bad),
               std::invalid_argument);
}

TEST(CpuEngine, EmptyDimensions) {
  const bits::BitMatrix a(0, 64);
  const bits::BitMatrix b(3, 64);
  const auto c = compare_blocked(a, b, Comparison::kAnd);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 3u);
}

struct EngineCase {
  std::size_t m, n, bits;
};

class CpuEngineVsReference
    : public ::testing::TestWithParam<std::tuple<EngineCase, Comparison>> {};

TEST_P(CpuEngineVsReference, Agree) {
  const auto& [c, op] = GetParam();
  const auto a = io::random_bitmatrix(c.m, c.bits, 0.4, 101);
  const auto b = io::random_bitmatrix(c.n, c.bits, 0.6, 102);
  EXPECT_TRUE(compare_blocked(a, b, op) ==
              bits::compare_reference(a, b, op));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CpuEngineVsReference,
    ::testing::Combine(
        ::testing::Values(EngineCase{1, 1, 64},      // single micro-tile
                          EngineCase{4, 4, 256},     // exact micro-tile
                          EngineCase{5, 7, 130},     // fringe everywhere
                          EngineCase{64, 64, 512},   // one full block
                          EngineCase{65, 63, 1000},  // block + fringe
                          EngineCase{3, 130, 64},    // wide
                          EngineCase{130, 3, 64},    // tall
                          // one m_c block over several n_c blocks
                          EngineCase{1, 4101, 200},
                          EngineCase{3, 4101, 130}),
        ::testing::Values(Comparison::kAnd, Comparison::kXor,
                          Comparison::kAndNot)));

TEST(CpuEngine, DeepKCrossesPanels) {
  // K spans multiple k_c panels; accumulation across panels must be exact.
  CpuBlocking blk;
  blk.k_c = 4;  // 4-word panels force many panel iterations
  const auto a = io::random_bitmatrix(10, 2000, 0.5, 103);
  const auto b = io::random_bitmatrix(12, 2000, 0.5, 104);
  for (const auto op :
       {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
    EXPECT_TRUE(compare_blocked(a, b, op, blk) ==
                bits::compare_reference(a, b, op));
  }
}

TEST(CpuEngine, TinyBlockingStillCorrect) {
  CpuBlocking blk;
  blk.m_c = 4;
  blk.n_c = 4;
  blk.k_c = 1;
  const auto a = io::random_bitmatrix(17, 333, 0.3, 105);
  const auto b = io::random_bitmatrix(19, 333, 0.7, 106);
  EXPECT_TRUE(compare_blocked(a, b, Comparison::kXor, blk) ==
              bits::compare_reference(a, b, Comparison::kXor));
}

TEST(CpuEngine, InPlaceBlockOverwritesOnlyItsWindow) {
  // compare_blocked_into reads row windows of both operands in place and
  // overwrites (beta = 0) exactly its block of a strided output; k_c = 2
  // words forces several panels, so later panels must add onto the first.
  const auto a = io::random_bitmatrix(10, 700, 0.4, 109);
  const auto b = io::random_bitmatrix(9, 700, 0.6, 110);
  CpuBlocking blk;
  blk.k_c = 2;
  constexpr std::size_t kLd = 15;
  constexpr std::uint32_t kSentinel = 0xFFFFFFFFu;
  std::vector<std::uint32_t> c(12 * kLd, kSentinel);
  const std::size_t r0 = 1;
  const std::size_t c0 = 4;
  compare_blocked_into({&a, 2, 5}, {&b, 3, 6}, Comparison::kAndNot,
                       c.data() + r0 * kLd + c0, kLd, blk);
  const auto expected = bits::compare_reference(
      a.row_slice(2, 7), b.row_slice(3, 9), Comparison::kAndNot);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < kLd; ++j) {
      const bool inside = i >= r0 && i < r0 + 5 && j >= c0 && j < c0 + 6;
      EXPECT_EQ(c[i * kLd + j],
                inside ? expected.at(i - r0, j - c0) : kSentinel)
          << i << "," << j;
    }
  }
  EXPECT_THROW(compare_blocked_into({&a, 8, 3}, all_rows(b),
                                    Comparison::kAnd, c.data(), kLd),
               std::out_of_range);
}

TEST(CpuEngine, LdCountsIsSelfAnd) {
  const auto a = io::random_bitmatrix(20, 500, 0.4, 107);
  const auto ld = ld_counts(a);
  EXPECT_TRUE(ld == bits::compare_reference(a, a, Comparison::kAnd));
  // Symmetry and diagonal-marginal invariants survive the blocked path.
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(ld.at(i, i), a.row_popcount(i));
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_EQ(ld.at(i, j), ld.at(j, i));
    }
  }
}

TEST(CpuEngine, DensityExtremes) {
  const auto zeros = bits::BitMatrix(6, 256);
  const auto ones = io::random_bitmatrix(6, 256, 1.0, 108);
  const auto c0 = compare_blocked(zeros, ones, Comparison::kAnd);
  const auto c1 = compare_blocked(ones, ones, Comparison::kAnd);
  const auto cx = compare_blocked(ones, ones, Comparison::kXor);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(c0.at(i, j), 0u);
      EXPECT_EQ(c1.at(i, j), 256u);
      EXPECT_EQ(cx.at(i, j), 0u);
    }
  }
}

}  // namespace
}  // namespace snp::cpu
