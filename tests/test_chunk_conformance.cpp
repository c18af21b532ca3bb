// Chunk conformance: compare() on a GPU or CPU context is bit-identical
// to the naive bitwise reference for every operation, shape (including
// ragged K tails and degenerate M/N) and chunk size, and the search
// wrappers rank exactly as the reference counts do. Also pins the
// determinism contract: repeated runs deliver identical bytes, identical
// chunk-callback order and identical virtual timing, and the CPU engine
// counts the same for any OpenMP team size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bits/compare.hpp"
#include "core/snpcmp.hpp"
#include "cpu/engine.hpp"
#include "io/datagen.hpp"
#include "stats/forensic.hpp"

namespace snp {
namespace {

using bits::Comparison;

struct ConfCase {
  std::size_t m, n, bits;
  std::size_t chunk_rows;  ///< 0 = planner default
  double density;
  std::uint64_t seed;
};

class ContextMatchesReference
    : public ::testing::TestWithParam<std::tuple<ConfCase, Comparison>> {};

TEST_P(ContextMatchesReference, CompareOnGpuContext) {
  const auto& [c, op] = GetParam();
  const auto a = io::random_bitmatrix(c.m, c.bits, c.density, c.seed);
  const auto b =
      io::random_bitmatrix(c.n, c.bits, 1.0 - c.density, c.seed + 1);
  const auto expected = bits::compare_reference(a, b, op);

  Context ctx = Context::gpu("gtx980");
  ComputeOptions opts;
  opts.chunk_rows = c.chunk_rows;
  const auto first = ctx.compare(a, b, op, opts);
  EXPECT_TRUE(first.counts == expected) << "chunked compare deviates";
  // A second run replays the same simulated device timeline.
  const auto again = ctx.compare(a, b, op, opts);
  EXPECT_TRUE(again.counts == expected);
  EXPECT_DOUBLE_EQ(again.timing.h2d_s, first.timing.h2d_s);
  EXPECT_DOUBLE_EQ(again.timing.kernel_s, first.timing.kernel_s);
  EXPECT_DOUBLE_EQ(again.timing.d2h_s, first.timing.d2h_s);
  EXPECT_EQ(again.timing.chunks, first.timing.chunks);
}

TEST_P(ContextMatchesReference, CompareOnCpuContext) {
  const auto& [c, op] = GetParam();
  const auto a = io::random_bitmatrix(c.m, c.bits, c.density, c.seed + 2);
  const auto b =
      io::random_bitmatrix(c.n, c.bits, 1.0 - c.density, c.seed + 3);
  const auto expected = bits::compare_reference(a, b, op);

  Context ctx = Context::cpu();
  ComputeOptions opts;
  opts.chunk_rows = c.chunk_rows;
  EXPECT_TRUE(ctx.compare(a, b, op, opts).counts == expected);
}

TEST_P(ContextMatchesReference, IdentitySearchTopMatches) {
  const auto& [c, op] = GetParam();
  (void)op;  // identity search is always XOR
  const auto queries =
      io::random_bitmatrix(c.m, c.bits, c.density, c.seed + 4);
  const auto db =
      io::random_bitmatrix(c.n, c.bits, 1.0 - c.density, c.seed + 5);
  const auto expected =
      bits::compare_reference(queries, db, Comparison::kXor);
  const auto row = [&](std::size_t q) {
    return expected.raw().subspan(q * db.rows(), db.rows());
  };

  Context ctx = Context::gpu("titanv");
  ComputeOptions opts;
  opts.chunk_rows = c.chunk_rows;
  const auto full = ctx.identity_search(queries, db, opts);
  EXPECT_TRUE(full.comparison.counts == expected);
  ASSERT_EQ(full.best_match.size(), queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto best = std::min_element(row(q).begin(), row(q).end());
    EXPECT_EQ(full.best_match[q],
              static_cast<std::size_t>(best - row(q).begin()));
    EXPECT_EQ(full.best_mismatches[q], *best);
  }

  const auto streamed = ctx.identity_search_streaming(queries, db, 3, opts);
  ASSERT_EQ(streamed.top.size(), queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto ranked = stats::rank_matches(row(q), db.bit_cols(), 1.0, 3);
    ASSERT_EQ(streamed.top[q].size(), ranked.size());
    for (std::size_t k = 0; k < ranked.size(); ++k) {
      EXPECT_EQ(streamed.top[q][k].reference_index,
                ranked[k].reference_index);
      EXPECT_EQ(streamed.top[q][k].mismatches, ranked[k].mismatches);
    }
  }
}

// Every op x a spread of shapes (ragged K not a multiple of 64, M/N below
// the micro-tile, chunk sizes forcing ragged tail chunks).
INSTANTIATE_TEST_SUITE_P(
    Sweep, ContextMatchesReference,
    ::testing::Combine(
        ::testing::Values(
            // Multi-chunk with ragged tail chunk (n % chunk_rows != 0).
            ConfCase{5, 300, 512, 64, 0.4, 100},
            ConfCase{7, 129, 96, 10, 0.5, 200},
            // Multi-chunk with n an exact multiple of chunk_rows.
            ConfCase{5, 256, 512, 64, 0.4, 150},
            // Ragged K (not a multiple of 64) and tiny M below m_r.
            ConfCase{3, 250, 130, 32, 0.3, 300},
            ConfCase{1, 100, 65, 16, 0.5, 400},
            ConfCase{2, 77, 33, 9, 0.7, 500},
            // Streamed A (queries outnumber the database).
            ConfCase{200, 6, 512, 31, 0.5, 600},
            ConfCase{150, 3, 257, 20, 0.2, 700},
            // Single chunk (chunk_rows > n) and planner-default chunks.
            ConfCase{4, 40, 512, 0, 0.5, 800},
            ConfCase{8, 64, 1024, 128, 0.6, 900},
            // Square-ish, multiple chunks, K with tail words.
            ConfCase{33, 190, 1537, 48, 0.35, 1000},
            ConfCase{16, 512, 320, 100, 0.45, 1100},
            // Many tiny chunks.
            ConfCase{6, 400, 192, 8, 0.5, 1200},
            ConfCase{4, 50, 256, 1, 0.5, 1250},  // one-row chunks
            ConfCase{12, 96, 64, 5, 0.9, 1300},
            ConfCase{9, 257, 449, 19, 0.15, 1400},
            ConfCase{64, 64, 640, 16, 0.5, 1500}),
        ::testing::Values(Comparison::kAnd, Comparison::kXor,
                          Comparison::kAndNot)));

TEST(ChunkDeterminism, RepeatedRunsAreByteAndOrderIdentical) {
  const auto a = io::random_bitmatrix(6, 384, 0.5, 42);
  const auto b = io::random_bitmatrix(330, 384, 0.5, 43);
  Context ctx = Context::gpu("vega64");

  // Baseline: counts plus the chunk delivery order.
  ComputeOptions first;
  first.chunk_rows = 32;
  std::vector<std::size_t> base_order;
  first.chunk_callback = [&](const ComputeOptions::ChunkView& v) {
    base_order.push_back(v.row0);
  };
  const auto base = ctx.compare(a, b, Comparison::kXor, first);
  ASSERT_GT(base_order.size(), 1u) << "want a multi-chunk workload";

  for (int rep = 0; rep < 5; ++rep) {
    ComputeOptions opts;
    opts.chunk_rows = 32;
    std::vector<std::size_t> order;
    opts.chunk_callback = [&](const ComputeOptions::ChunkView& v) {
      order.push_back(v.row0);
    };
    const auto r = ctx.compare(a, b, Comparison::kXor, opts);
    ASSERT_EQ(r.counts.rows(), base.counts.rows());
    ASSERT_EQ(r.counts.cols(), base.counts.cols());
    const auto raw = r.counts.raw();
    const auto braw = base.counts.raw();
    EXPECT_EQ(0, std::memcmp(raw.data(), braw.data(),
                             braw.size() * sizeof(std::uint32_t)))
        << "rep " << rep;
    EXPECT_EQ(order, base_order) << "delivery order drifted at rep " << rep;
  }
}

// The CPU engine schedules macro-tiles dynamically across OpenMP threads;
// each tile owns a disjoint block of C, so the counts cannot depend on
// the team size.
TEST(ChunkDeterminism, CpuEngineMatchesForAnyOpenMpThreadCount) {
  const auto a = io::random_bitmatrix(70, 1537, 0.5, 7);
  const auto b = io::random_bitmatrix(133, 1537, 0.3, 8);
  cpu::CpuBlocking blk;
  blk.m_c = 2 * cpu::CpuBlocking::m_r;  // many macro-tiles to share out
  blk.n_c = 2 * cpu::CpuBlocking::n_r;
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  const std::vector<int> teams{1, 2, 3, 8};
#else
  const std::vector<int> teams{1};
#endif
  for (const auto op :
       {Comparison::kAnd, Comparison::kXor, Comparison::kAndNot}) {
    const auto expected = bits::compare_reference(a, b, op);
    for (const int team : teams) {
#ifdef _OPENMP
      omp_set_num_threads(team);
#endif
      EXPECT_TRUE(cpu::compare_blocked(a, b, op, blk) == expected)
          << to_string(op) << " with " << team << " threads";
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(ChunkDeterminism, StreamingMixtureMatchesFullAnalysis) {
  const auto profiles = io::random_bitmatrix(260, 320, 0.4, 77);
  const auto mixtures = io::random_bitmatrix(4, 320, 0.8, 78);
  Context ctx = Context::gpu("gtx980");
  ComputeOptions opts;
  opts.chunk_rows = 48;
  const auto streamed =
      ctx.mixture_analysis_streaming(profiles, mixtures, 40, opts);
  const auto full = ctx.mixture_analysis(profiles, mixtures, 40, opts);
  ASSERT_EQ(streamed.included.size(), full.included.size());
  for (std::size_t m = 0; m < full.included.size(); ++m) {
    auto expected = full.included[m];
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(streamed.included[m], expected) << "mixture " << m;
  }
}

TEST(ChunkConformance, ExceptionInChunkCallbackPropagates) {
  const auto a = io::random_bitmatrix(4, 256, 0.5, 9);
  const auto b = io::random_bitmatrix(200, 256, 0.5, 10);
  Context ctx = Context::gpu("gtx980");
  ComputeOptions opts;
  opts.chunk_rows = 32;
  int fired = 0;
  opts.chunk_callback = [&](const ComputeOptions::ChunkView&) {
    if (++fired == 2) {
      throw std::runtime_error("downstream consumer failed");
    }
  };
  EXPECT_THROW(ctx.compare(a, b, bits::Comparison::kXor, opts),
               std::runtime_error);
}

// Telemetry contract for the chunk pipeline: chunk_events arrive in
// stream order (index i at slot i, row ranges tiling the streamed
// operand) and their simulated timestamps are monotone — each engine
// (h2d, kernel, d2h) is an in-order FIFO and every chunk's stages are
// causally ordered. The host stamps must follow the stage order
// (execute -> drain, drains in stream order).
TEST(ChunkConformance, ChunkEventsStreamOrderedWithMonotonicTimestamps) {
  const auto a = io::random_bitmatrix(5, 384, 0.5, 13);
  const auto b = io::random_bitmatrix(310, 384, 0.5, 14);
  Context ctx = Context::gpu("gtx980");
  ComputeOptions opts;
  opts.chunk_rows = 32;
  const auto r = ctx.compare(a, b, Comparison::kXor, opts);
  const auto& evs = r.timing.chunk_events;
  ASSERT_GT(evs.size(), 1u) << "want a multi-chunk workload";
  std::size_t next_row = 0;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const auto& e = evs[i];
    EXPECT_EQ(e.index, i) << "chunk out of stream order";
    EXPECT_EQ(e.row0, next_row) << "row ranges must tile the operand";
    ASSERT_GT(e.rows, 0u);
    next_row += e.rows;

    // Within a chunk the simulated stages are causally ordered.
    EXPECT_LE(e.h2d_start, e.h2d_end);
    EXPECT_LE(e.h2d_end, e.kernel_start) << "kernel before its upload";
    EXPECT_LE(e.kernel_start, e.kernel_end);
    EXPECT_LE(e.kernel_end, e.d2h_start) << "readback before kernel";
    EXPECT_LE(e.d2h_start, e.d2h_end);
    if (i > 0) {
      // Each simulated engine is an in-order FIFO.
      const auto& p = evs[i - 1];
      EXPECT_GE(e.h2d_start, p.h2d_end) << "h2d engine overlap";
      EXPECT_GE(e.kernel_start, p.kernel_end) << "kernel engine overlap";
      EXPECT_GE(e.d2h_start, p.d2h_end) << "d2h engine overlap";
    }
    // Host wall-clock stamps follow the stage order.
    EXPECT_LE(e.host_queued, e.host_exec_start);
    EXPECT_LE(e.host_exec_start, e.host_exec_end);
    EXPECT_LE(e.host_exec_end, e.host_drain_start);
    EXPECT_LE(e.host_drain_start, e.host_drain_end);
    if (i > 0) {
      EXPECT_GE(e.host_drain_start, evs[i - 1].host_drain_end)
          << "drains must run in stream order";
    }
  }
  EXPECT_EQ(next_row, b.rows()) << "chunks must cover every row once";
}

}  // namespace
}  // namespace snp
