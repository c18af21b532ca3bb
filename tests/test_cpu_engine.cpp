// BLIS-like CPU engine vs the naive reference, across shapes, ops and
// blocking parameters.
#include "cpu/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "bits/compare.hpp"
#include "exec/thread_pool.hpp"
#include "io/datagen.hpp"

namespace snp::cpu {
namespace {

using bits::Comparison;

// The micro-tile comes from the build target (4 x 32 with a vector
// popcount, else 4 x 4), so edge shapes are written in terms of it.
constexpr std::size_t kMr = CpuBlocking::m_r;
constexpr std::size_t kNr = CpuBlocking::n_r;
constexpr std::size_t kNc = CpuBlocking{}.n_c;

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
                          EngineCase{3, 4101, 130},
                          // one column short of, and one past, a micro-tile
                          EngineCase{kMr + 1, kNr - 1, 130},
                          EngineCase{2 * kMr + 3, kNr + 1, 200},
                          // an n_c block, a full micro-tile and a fringe
                          EngineCase{kMr - 1, kNc + kNr + 3, 190}),
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
  // The smallest valid blocking: one micro-tile per macro-tile.
  CpuBlocking blk;
  blk.m_c = kMr;
  blk.n_c = kNr;
  blk.k_c = 1;
  const auto a = io::random_bitmatrix(17, 333, 0.3, 105);
  const auto b = io::random_bitmatrix(2 * kNr + 3, 333, 0.7, 106);
  EXPECT_TRUE(compare_blocked(a, b, Comparison::kXor, blk) ==
              bits::compare_reference(a, b, Comparison::kXor));
}

/// Runs compare_blocked_into on rows [a0, a0 + m) of `a` and [b0, b0 + n)
/// of `b`, writing at (r0, c0) of a sentinel-filled output with row stride
/// `ld`, and checks that exactly that window holds the reference counts.
void expect_window(const bits::BitMatrix& a, std::size_t a0, std::size_t m,
                   const bits::BitMatrix& b, std::size_t b0, std::size_t n,
                   Comparison op, std::size_t r0, std::size_t c0,
                   std::size_t ld, const CpuBlocking& blk) {
  constexpr std::uint32_t kSentinel = 0xFFFFFFFFu;
  const std::size_t rows = r0 + m + 2;
  std::vector<std::uint32_t> c(rows * ld, kSentinel);
  compare_blocked_into({&a, a0, m}, {&b, b0, n}, op, c.data() + r0 * ld + c0,
                       ld, blk);
  const auto expected = bits::compare_reference(
      a.row_slice(a0, a0 + m), b.row_slice(b0, b0 + n), op);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < ld; ++j) {
      const bool inside = i >= r0 && i < r0 + m && j >= c0 && j < c0 + n;
      ASSERT_EQ(c[i * ld + j],
                inside ? expected.at(i - r0, j - c0) : kSentinel)
          << i << "," << j;
    }
  }
}

TEST(CpuEngine, InPlaceBlockOverwritesOnlyItsWindow) {
  // compare_blocked_into reads row windows of both operands in place and
  // overwrites (beta = 0) exactly its block of a strided output; k_c = 2
  // words forces several panels, so later panels must add onto the first.
  const auto a = io::random_bitmatrix(10, 700, 0.4, 109);
  const auto b = io::random_bitmatrix(9, 700, 0.6, 110);
  CpuBlocking blk;
  blk.k_c = 2;
  expect_window(a, 2, 5, b, 3, 6, Comparison::kAndNot, 1, 4, 15, blk);
  std::vector<std::uint32_t> c(12 * 15);
  EXPECT_THROW(compare_blocked_into({&a, 8, 3}, all_rows(b),
                                    Comparison::kAnd, c.data(), 15),
               std::out_of_range);
}

TEST(CpuEngine, InPlaceWindowWiderThanAMicroTile) {
  // A window of several micro-tiles plus a fringe in both dimensions, at
  // a non-zero column offset of a wider output, over several k_c panels.
  const std::size_t n = 2 * kNr + 5;
  const auto a = io::random_bitmatrix(12, 700, 0.4, 111);
  const auto b = io::random_bitmatrix(n + 5, 700, 0.6, 112);
  CpuBlocking blk;
  blk.k_c = 3;
  expect_window(a, 1, 2 * kMr + 1, b, 3, n, Comparison::kXor, 2, 7,
                7 + n + 9, blk);
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

TEST(CpuEngine, AsyncAgreesWithReferenceAtAnEdgeShape) {
  // Two m_c and two n_c blocks, the last of each ending in a partial
  // micro-tile, over three k_c panels (more than the two panel
  // generations in flight).
  CpuBlocking blk;
  blk.m_c = 2 * kMr;
  blk.n_c = 2 * kNr;
  blk.k_c = 3;
  const auto a = io::random_bitmatrix(blk.m_c + 3, 500, 0.4, 113);
  const auto b = io::random_bitmatrix(blk.n_c + kNr + 3, 500, 0.6, 114);
  exec::ThreadPool pool(2);
  for (const auto op :
       {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
    EXPECT_TRUE(compare_blocked_async(a, b, op, pool, blk) ==
                bits::compare_reference(a, b, op))
        << bits::to_string(op);
  }
}

}  // namespace
}  // namespace snp::cpu
