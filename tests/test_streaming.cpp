// Streaming results: chunk callbacks, keep_counts=false memory bounding,
// and the memory-bounded top-k identity search.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/snpcmp.hpp"
#include "io/datagen.hpp"
#include "stats/forensic.hpp"

namespace snp {
namespace {

using bits::Comparison;

TEST(Streaming, CallbackSeesEveryChunkInOrder) {
  Context ctx = Context::gpu("gtx980");
  const auto a = io::random_bitmatrix(8, 200, 0.4, 970);
  const auto b = io::random_bitmatrix(1000, 200, 0.5, 971);
  ComputeOptions opts;
  opts.chunk_rows = 300;
  std::vector<std::size_t> offsets;
  std::size_t cols_seen = 0;
  opts.chunk_callback = [&](const ComputeOptions::ChunkView& view) {
    EXPECT_TRUE(view.streamed_b);
    EXPECT_EQ(view.part.rows(), 8u);
    offsets.push_back(view.row0);
    cols_seen += view.part.cols();
  };
  const auto r = ctx.compare(a, b, Comparison::kXor, opts);
  EXPECT_EQ(offsets, (std::vector<std::size_t>{0, 300, 600, 900}));
  EXPECT_EQ(cols_seen, 1000u);
  // Counts still assembled since keep_counts defaulted true.
  EXPECT_TRUE(r.counts == bits::compare_reference(a, b, Comparison::kXor));
}

TEST(Streaming, KeepCountsFalseDropsTheMatrix) {
  Context ctx = Context::gpu("vega64");
  const auto a = io::random_bitmatrix(4, 128, 0.4, 972);
  const auto b = io::random_bitmatrix(500, 128, 0.5, 973);
  ComputeOptions opts;
  opts.keep_counts = false;
  opts.chunk_rows = 128;
  std::size_t seen = 0;
  opts.chunk_callback = [&](const ComputeOptions::ChunkView& view) {
    seen += view.part.cols();
  };
  const auto r = ctx.compare(a, b, Comparison::kXor, opts);
  EXPECT_EQ(r.counts.rows(), 0u);
  EXPECT_EQ(seen, 500u);
}

TEST(Streaming, KeepCountsFalseWithoutCallbackRejected) {
  Context ctx = Context::gpu("titanv");
  const auto a = io::random_bitmatrix(2, 64, 0.5, 974);
  ComputeOptions opts;
  opts.keep_counts = false;
  EXPECT_THROW((void)ctx.compare(a, a, Comparison::kAnd, opts),
               std::invalid_argument);
}

TEST(Streaming, CpuBackendDeliversSingleChunk) {
  Context ctx = Context::cpu();
  const auto a = io::random_bitmatrix(5, 96, 0.4, 975);
  const auto b = io::random_bitmatrix(7, 96, 0.5, 976);
  ComputeOptions opts;
  opts.keep_counts = false;
  int calls = 0;
  bits::CountMatrix captured;
  opts.chunk_callback = [&](const ComputeOptions::ChunkView& view) {
    ++calls;
    captured = bits::CountMatrix(view.part.rows(), view.part.cols());
    for (std::size_t i = 0; i < captured.rows(); ++i) {
      for (std::size_t j = 0; j < captured.cols(); ++j) {
        captured.at(i, j) = view.part.at(i, j);
      }
    }
  };
  const auto r = ctx.compare(a, b, Comparison::kAndNot, opts);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(r.counts.rows(), 0u);
  EXPECT_TRUE(captured ==
              bits::compare_reference(a, b, Comparison::kAndNot));
}

TEST(Streaming, TopKSearchMatchesFullSearch) {
  Context ctx = Context::gpu("titanv");
  io::ProfileDbParams params;
  params.seed = 977;
  const auto db = io::generate_profile_db(3000, 256, params);
  const auto queries = io::extract_queries(db, {42, 2048});
  ComputeOptions opts;
  opts.chunk_rows = 700;  // force several chunks with ragged tail
  const auto streamed =
      ctx.identity_search_streaming(queries, db, 5, opts);
  // Reference: full gamma + rank_matches.
  const auto full = ctx.compare(queries, db, Comparison::kXor);
  ASSERT_EQ(streamed.top.size(), 2u);
  for (std::size_t q = 0; q < 2; ++q) {
    const auto expected = stats::rank_matches(
        full.counts.raw().subspan(q * db.rows(), db.rows()),
        db.bit_cols(), 1.0, 5);
    ASSERT_EQ(streamed.top[q].size(), 5u);
    for (std::size_t k = 0; k < 5; ++k) {
      EXPECT_EQ(streamed.top[q][k].reference_index,
                expected[k].reference_index)
          << "q=" << q << " k=" << k;
      EXPECT_EQ(streamed.top[q][k].mismatches, expected[k].mismatches);
    }
  }
  // The planted identities rank first with zero mismatches.
  EXPECT_EQ(streamed.top[0][0].reference_index, 42u);
  EXPECT_EQ(streamed.top[0][0].mismatches, 0u);
  EXPECT_EQ(streamed.top[1][0].reference_index, 2048u);
}

TEST(Streaming, TopKLargerThanDatabase) {
  Context ctx = Context::gpu("gtx980");
  const auto db = io::random_bitmatrix(7, 128, 0.5, 978);
  const auto queries = io::random_bitmatrix(2, 128, 0.5, 979);
  const auto r = ctx.identity_search_streaming(queries, db, 100);
  ASSERT_EQ(r.top.size(), 2u);
  EXPECT_EQ(r.top[0].size(), 7u);  // everything, ranked
  for (std::size_t k = 1; k < 7; ++k) {
    EXPECT_GE(r.top[0][k].mismatches, r.top[0][k - 1].mismatches);
  }
  EXPECT_THROW((void)ctx.identity_search_streaming(queries, db, 0),
               std::invalid_argument);
}

TEST(Streaming, QueriesLargerThanDatabaseStreamsQueries) {
  // More queries than database rows: the query side streams; results must
  // still be per-query correct.
  Context ctx = Context::gpu("vega64");
  const auto db = io::random_bitmatrix(5, 96, 0.5, 980);
  const auto queries = io::random_bitmatrix(900, 96, 0.5, 981);
  ComputeOptions opts;
  opts.chunk_rows = 256;
  const auto streamed =
      ctx.identity_search_streaming(queries, db, 2, opts);
  const auto full = ctx.compare(queries, db, Comparison::kXor);
  ASSERT_EQ(streamed.top.size(), 900u);
  for (const std::size_t q : {0u, 255u, 256u, 899u}) {
    const auto expected = stats::rank_matches(
        full.counts.raw().subspan(q * 5, 5), db.bit_cols(), 1.0, 2);
    EXPECT_EQ(streamed.top[q][0].reference_index,
              expected[0].reference_index)
        << q;
    EXPECT_EQ(streamed.top[q][0].mismatches, expected[0].mismatches);
  }
}


TEST(Streaming, MixtureStreamingMatchesFull) {
  Context ctx = Context::gpu("vega64");
  io::ProfileDbParams params;
  params.seed = 982;
  params.maf_min = 0.02;
  params.maf_max = 0.2;
  const auto db = io::generate_profile_db(2000, 384, params);
  const auto set = io::generate_mixtures(db, 3, 3, 983);
  ComputeOptions opts;
  opts.chunk_rows = 512;
  const auto streamed =
      ctx.mixture_analysis_streaming(db, set.mixtures, 0, opts);
  const auto full = ctx.mixture_analysis(db, set.mixtures, 0);
  ASSERT_EQ(streamed.included.size(), 3u);
  for (std::size_t m = 0; m < 3; ++m) {
    auto expected = full.included[m];
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(streamed.included[m], expected) << "mixture " << m;
    // Every planted contributor is found.
    for (const std::size_t c : set.contributors[m]) {
      EXPECT_TRUE(std::binary_search(streamed.included[m].begin(),
                                     streamed.included[m].end(), c));
    }
  }
  EXPECT_GT(streamed.timing.chunks, 1);
}

TEST(Streaming, MixtureToleranceAdmitsNearMisses) {
  Context ctx = Context::gpu("gtx980");
  bits::BitMatrix profiles(2, 64);
  bits::BitMatrix mixtures(1, 64);
  // Profile 0 fully covered; profile 1 has 2 foreign alleles.
  for (const std::size_t k : {0u, 5u, 9u}) {
    profiles.set(0, k, true);
    mixtures.set(0, k, true);
  }
  profiles.set(1, 5, true);
  profiles.set(1, 20, true);
  profiles.set(1, 21, true);
  const auto strict =
      ctx.mixture_analysis_streaming(profiles, mixtures, 0);
  EXPECT_EQ(strict.included[0], (std::vector<std::size_t>{0}));
  const auto loose =
      ctx.mixture_analysis_streaming(profiles, mixtures, 2);
  EXPECT_EQ(loose.included[0], (std::vector<std::size_t>{0, 1}));
}

}  // namespace
}  // namespace snp
