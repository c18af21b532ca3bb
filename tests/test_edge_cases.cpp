// Assorted edge cases gathered while hardening: stride shrink semantics,
// buffer accounting, timeline overlap accounting, config grids on tiny
// problems, single-word comparisons through the whole stack.
#include <gtest/gtest.h>

#include "cl/clmini.hpp"
#include "core/snpcmp.hpp"
#include "io/datagen.hpp"
#include "sim/transfer.hpp"

namespace snp {
namespace {

TEST(EdgeCases, WithStrideNeverLosesLogicalBits) {
  // Requesting a stride smaller than the logical width must still cover
  // every bit column (the constructor rounds up).
  const auto m = io::random_bitmatrix(3, 500, 0.5, 1111);  // 8 words wide
  const auto narrow = m.with_stride(1);
  EXPECT_EQ(narrow.words64_per_row(), 8u);
  EXPECT_EQ(narrow, m);
  const auto wide = m.with_stride(16);
  EXPECT_EQ(wide.words64_per_row(), 16u);
  EXPECT_EQ(wide, m);
  EXPECT_TRUE(wide.padding_is_zero());
}

TEST(EdgeCases, BufferAccountingAcrossRelease) {
  cl::Context ctx(cl::Platform::device("titanv"));
  const std::size_t before = ctx.allocated_bytes();
  auto a = ctx.create_buffer(1 << 20);
  auto b = ctx.create_buffer(1 << 21);
  EXPECT_EQ(ctx.allocated_bytes(), before + (1 << 20) + (1 << 21));
  ctx.release_buffer(a);
  EXPECT_EQ(ctx.allocated_bytes(), before + (1 << 21));
  ctx.release_buffer(nullptr);  // no-op
  EXPECT_EQ(ctx.allocated_bytes(), before + (1 << 21));
  ctx.release_buffer(b);
  EXPECT_EQ(ctx.allocated_bytes(), before);
}

TEST(EdgeCases, TimelineOverlapFractionBounds) {
  sim::Timeline empty;
  EXPECT_DOUBLE_EQ(empty.overlap_fraction(), 0.0);
  const auto d = model::titan_v();
  // Pure compute: no transfer to hide.
  const auto compute_only = sim::run_timeline(d, {{0, 0.01, 0}});
  EXPECT_DOUBLE_EQ(compute_only.overlap_fraction(), 0.0);
  // Heavily overlapped stream.
  const std::vector<sim::Chunk> chunks(12, sim::Chunk{1 << 24, 0.05,
                                                      1 << 20});
  const auto tl = sim::run_timeline(d, chunks);
  EXPECT_GE(tl.overlap_fraction(), 0.0);
  EXPECT_LE(tl.overlap_fraction(), 1.0);
  EXPECT_GT(tl.overlap_fraction(), 0.8);
}

TEST(EdgeCases, DomainWrappersRejectDroppedGamma) {
  // identity_search and mixture_analysis read gamma after the compare;
  // keep_counts=false (legal with a chunk_callback) leaves none, so the
  // combination is rejected and the *_streaming variants are named.
  const auto q = io::random_bitmatrix(2, 128, 0.5, 1120);
  const auto db = io::random_bitmatrix(40, 128, 0.5, 1121);
  ComputeOptions opts;
  opts.keep_counts = false;
  opts.chunk_callback = [](const ComputeOptions::ChunkView&) {};
  for (const char* dev : {"cpu", "titanv"}) {
    Context ctx = std::string(dev) == "cpu" ? Context::cpu()
                                             : Context::gpu(dev);
    try {
      (void)ctx.identity_search(q, db, opts);
      FAIL() << dev << ": identity_search accepted keep_counts=false";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("identity_search_streaming"),
                std::string::npos)
          << e.what();
    }
    try {
      (void)ctx.mixture_analysis(db, q, 0, opts);
      FAIL() << dev << ": mixture_analysis accepted keep_counts=false";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("mixture_analysis_streaming"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(EdgeCases, SingleWordProblemEndToEnd) {
  // 1x1 comparison over 1 bit through every backend.
  bits::BitMatrix a(1, 1);
  a.set(0, 0, true);
  bits::BitMatrix b(1, 1);
  for (const char* name : {"gtx980", "titanv", "vega64"}) {
    Context ctx = Context::gpu(name);
    EXPECT_EQ(ctx.compare(a, b, bits::Comparison::kXor).counts.at(0, 0),
              1u)
        << name;
    EXPECT_EQ(ctx.compare(a, a, bits::Comparison::kAndNot)
                  .counts.at(0, 0),
              0u)
        << name;
  }
  Context cpu = Context::cpu();
  EXPECT_EQ(cpu.compare(a, b, bits::Comparison::kAnd).counts.at(0, 0), 0u);
}

TEST(EdgeCases, ChunkRowsOfOne) {
  // Degenerate chunking: one streamed row per chunk still assembles the
  // exact gamma matrix (and exercises maximum pipeline depth).
  Context ctx = Context::gpu("gtx980");
  const auto a = io::random_bitmatrix(3, 96, 0.5, 1112);
  const auto b = io::random_bitmatrix(17, 96, 0.5, 1113);
  ComputeOptions opts;
  opts.chunk_rows = 1;
  const auto r = ctx.compare(a, b, bits::Comparison::kAnd, opts);
  EXPECT_EQ(r.timing.chunks, 17);
  EXPECT_TRUE(r.counts ==
              bits::compare_reference(a, b, bits::Comparison::kAnd));
}

TEST(EdgeCases, EstimateDegenerateShapesRejected) {
  Context ctx = Context::gpu("vega64");
  EXPECT_THROW((void)ctx.estimate(0, 1, 1, bits::Comparison::kAnd),
               std::invalid_argument);
  EXPECT_THROW((void)ctx.estimate(1, 1, 0, bits::Comparison::kAnd),
               std::invalid_argument);
}

TEST(EdgeCases, KernelConfigOverrideOnCpuContextRejected) {
  Context cpu = Context::cpu();
  const auto a = io::random_bitmatrix(2, 64, 0.5, 1114);
  EXPECT_THROW((void)cpu.effective_config(a, a, bits::Comparison::kAnd),
               std::logic_error);
}

}  // namespace
}  // namespace snp
