// Count-matrix storage: the recycler's reuse and retention bound, the
// overwrite contract of the uninitialized gamma (every path that skips the
// zero fill must still produce counts bit-identical to the reference when
// its storage arrives full of stale bytes), and the page faults a repeated
// same-shape identity search no longer pays.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bits/compare.hpp"
#include "core/snpcmp.hpp"
#include "cpu/engine.hpp"
#include "io/datagen.hpp"
#include "multi/multi_gpu.hpp"
#include "rt/fault.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SNP_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SNP_TEST_SANITIZED 1
#endif
#endif

namespace snp {
namespace {

using bits::BitMatrix;
using bits::Comparison;
using bits::CountMatrix;
namespace storage = bits::count_storage;

constexpr std::uint32_t kStale = 0xFFFFFFFFu;

std::uintptr_t address(const CountMatrix& m) {
  return reinterpret_cast<std::uintptr_t>(m.raw().data());
}

/// Fills a rows x cols block with kStale and releases it to the recycler;
/// returns its address, so a test can check the next gamma reuses it.
std::uintptr_t release_stale_block(std::size_t rows, std::size_t cols) {
  CountMatrix stale(rows, cols);
  std::ranges::fill(stale.raw(), kStale);
  return address(stale);
}

/// Operands whose gamma is large enough to be recycled, with M and N
/// multiples of none of the engine's tiles (m_r = 4, n_r = 32 or 4 by
/// build target, m_c = 64, n_c = 2048) and K not a whole number of words.
struct EdgeShape {
  BitMatrix few = io::random_bitmatrix(37, 130, 0.4, 1301);
  BitMatrix many = io::random_bitmatrix(30011, 130, 0.5, 1302);
};

TEST(CountStorage, ReusesALargeBlockOnlyAtExactlyTheSameSize) {
  const std::size_t cols = storage::kRecycleMinBytes / 4;
  const std::uintptr_t released = release_stale_block(1, cols);
  {
    const CountMatrix other(1, cols + 1, bits::uninitialized);
    EXPECT_NE(address(other), released);
  }
  const CountMatrix same(1, cols, bits::uninitialized);
  EXPECT_EQ(address(same), released);
}

TEST(CountStorage, ZeroFilledConstructorClearsARecycledBlock) {
  const std::size_t cols = storage::kRecycleMinBytes / 4;
  const std::uintptr_t released = release_stale_block(1, cols);
  const CountMatrix zeroed(1, cols);
  EXPECT_EQ(address(zeroed), released);
  EXPECT_TRUE(std::ranges::all_of(zeroed.raw(),
                                  [](std::uint32_t v) { return v == 0; }));
}

TEST(CountStorage, SmallBlocksBypassTheRecycler) {
  const std::size_t before = storage::retained_blocks();
  {
    const CountMatrix small(256, 1024);  // 1 MiB, below the floor
  }
  EXPECT_EQ(storage::retained_blocks(), before);
}

TEST(CountStorage, RetainsAtMostTwoBlocks) {
  static_assert(storage::kMaxRetained == 2);
  const std::size_t cols = storage::kRecycleMinBytes / 4;
  for (std::size_t extra = 0; extra < 5; ++extra) {
    {
      const CountMatrix block(1, cols + extra, bits::uninitialized);
    }
    EXPECT_LE(storage::retained_blocks(), storage::kMaxRetained);
  }
  EXPECT_EQ(storage::retained_blocks(), storage::kMaxRetained);
}

TEST(StaleStorage, EdgeTilesOnEveryOverwritingEngine) {
  const EdgeShape s;
  const CountMatrix want =
      bits::compare_reference(s.few, s.many, Comparison::kXor);

  std::uintptr_t stale = release_stale_block(want.rows(), want.cols());
  Context gpu = Context::gpu("titanv");
  const CountMatrix via_gpu =
      gpu.compare(s.few, s.many, Comparison::kXor).counts;
  EXPECT_EQ(address(via_gpu), stale);
  EXPECT_TRUE(via_gpu == want);

  stale = release_stale_block(want.rows(), want.cols());
  const CountMatrix via_cpu =
      cpu::compare_blocked(s.few, s.many, Comparison::kXor);
  EXPECT_EQ(address(via_cpu), stale);
  EXPECT_TRUE(via_cpu == want);

  stale = release_stale_block(want.rows(), want.cols());
  Context host = Context::cpu();
  const CountMatrix via_context =
      host.compare(s.few, s.many, Comparison::kXor).counts;
  EXPECT_EQ(address(via_context), stale);
  EXPECT_TRUE(via_context == want);
}

TEST(StaleStorage, SeveralChunks) {
  const EdgeShape s;
  const CountMatrix want =
      bits::compare_reference(s.few, s.many, Comparison::kAnd);
  ComputeOptions opts;
  opts.chunk_rows = 5000;  // 7 chunks, the last one ragged
  const std::uintptr_t stale = release_stale_block(want.rows(), want.cols());
  Context ctx = Context::gpu("vega64");
  const CompareResult r = ctx.compare(s.few, s.many, Comparison::kAnd, opts);
  EXPECT_EQ(r.timing.chunks, 7);
  EXPECT_EQ(address(r.counts), stale);
  EXPECT_TRUE(r.counts == want);
}

TEST(StaleStorage, StreamedA) {
  const EdgeShape s;
  const CountMatrix want =
      bits::compare_reference(s.many, s.few, Comparison::kAndNot);
  ComputeOptions opts;
  opts.chunk_rows = 4000;
  const std::uintptr_t stale = release_stale_block(want.rows(), want.cols());
  Context ctx = Context::gpu("gtx980");
  const CompareResult r =
      ctx.compare(s.many, s.few, Comparison::kAndNot, opts);
  EXPECT_EQ(r.timing.chunks, 8);
  EXPECT_EQ(address(r.counts), stale);
  EXPECT_TRUE(r.counts == want);
}

TEST(StaleStorage, DegradeRungAfterAMidStreamFault) {
  const EdgeShape s;
  const CountMatrix want =
      bits::compare_reference(s.few, s.many, Comparison::kXor);
  ComputeOptions opts;
  opts.chunk_rows = 5000;
  opts.recovery.policy = rt::FailPolicy::kDegrade;
  opts.recovery.backoff_base_s = 0.0;
  const std::uintptr_t stale = release_stale_block(want.rows(), want.cols());
  // Every upload of chunk 2 fails, so the device delivers chunks 0-1 and
  // the host rung computes the rest.
  const rt::ScopedFaultPlan plan("h2d:p=1:at=2");
  Context ctx = Context::gpu("titanv");
  const CompareResult r = ctx.compare(s.few, s.many, Comparison::kXor, opts);
  EXPECT_TRUE(r.timing.degraded);
  EXPECT_EQ(address(r.counts), stale);
  EXPECT_TRUE(r.counts == want);
}

TEST(StaleStorage, MultiGpuMergeTarget) {
  const EdgeShape s;
  const CountMatrix want =
      bits::compare_reference(s.few, s.many, Comparison::kXor);
  const std::uintptr_t stale = release_stale_block(want.rows(), want.cols());
  multi::MultiGpuContext multi("titanv", 3);
  const multi::MultiCompareResult r =
      multi.compare(s.few, s.many, Comparison::kXor);
  EXPECT_EQ(address(r.counts), stale);
  EXPECT_TRUE(r.counts == want);
}

TEST(StaleStorage, MultiGpuMergeTargetWithHostThreads) {
  // Shards count concurrently on the exec pool and allocate their own
  // gammas meanwhile; the merge target still overwrites every entry.
  const EdgeShape s;
  const CountMatrix want =
      bits::compare_reference(s.few, s.many, Comparison::kXor);
  const std::uintptr_t stale = release_stale_block(want.rows(), want.cols());
  multi::MultiGpuContext multi("titanv", 3);
  multi::MultiGpuOptions opts;
  opts.host_threads = 3;
  const multi::MultiCompareResult r =
      multi.compare(s.few, s.many, Comparison::kXor, opts);
  EXPECT_EQ(address(r.counts), stale);
  EXPECT_TRUE(r.counts == want);
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(GammaPageFaults, RepeatedSameShapeSearchFaultsInNoGammaPages) {
#ifdef SNP_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer allocators change minor-fault counts";
#endif
  const BitMatrix db = io::random_bitmatrix(262144, 512, 0.5, 1303);
  const BitMatrix queries = io::random_bitmatrix(32, 512, 0.5, 1304);
  Context ctx = Context::gpu("titanv");
  const std::size_t gamma_pages =
      queries.rows() * db.rows() * sizeof(std::uint32_t) / 4096;

  {
    const auto first = ctx.identity_search(queries, db);
  }
  EXPECT_LE(storage::retained_blocks(), storage::kMaxRetained);
  const long before = minor_faults();
  const auto second = ctx.identity_search(queries, db);
  const long faults = minor_faults() - before;
  EXPECT_LE(storage::retained_blocks(), storage::kMaxRetained);
  EXPECT_LT(static_cast<double>(faults),
            0.01 * static_cast<double>(gamma_pages))
      << faults << " minor faults for a " << gamma_pages << "-page gamma";
  EXPECT_EQ(second.best_match.size(), queries.rows());
}

}  // namespace
}  // namespace snp
