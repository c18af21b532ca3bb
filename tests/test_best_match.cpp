// Identity search's best-match scan: with duplicated database rows, equal
// minima fall in different column blocks (and so on different threads),
// and best_match / best_mismatches must still be exactly what a serial
// std::min_element over each gamma row returns — the lowest column among
// equal minima.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/snpcmp.hpp"
#include "io/datagen.hpp"

namespace snp {
namespace {

using bits::BitMatrix;

constexpr std::size_t kSnps = 512;
constexpr std::size_t kFlips = 3;

void copy_row(BitMatrix& m, std::size_t to, std::size_t from) {
  const auto src = m.row64(from);
  std::ranges::copy(src, m.row64(to).begin());
}

/// A query that is database row `row` with kFlips bits flipped, so every
/// copy of that row ties at kFlips mismatches.
BitMatrix near_copy(const BitMatrix& db, std::size_t row, std::size_t salt) {
  BitMatrix q = db.row_slice(row, row + 1);
  for (std::size_t f = 0; f < kFlips; ++f) {
    const std::size_t bit = (salt * 131 + f * 167) % kSnps;
    q.set(0, bit, !q.get(0, bit));
  }
  return q;
}

BitMatrix stack(const std::vector<BitMatrix>& rows) {
  BitMatrix out(rows.size(), kSnps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::ranges::copy(rows[i].row64(0), out.row64(i).begin());
  }
  return out;
}

/// Runs the search and checks every query against a serial scan of its
/// gamma row; also requires each query's minimum to be tied, so the test
/// really exercises the tie rule.
void expect_serial_first_minima(const BitMatrix& queries,
                                const BitMatrix& db) {
  Context ctx = Context::gpu("titanv");
  const IdentitySearchResult r = ctx.identity_search(queries, db);
  const bits::CountMatrix& gamma = r.comparison.counts;
  ASSERT_EQ(r.best_match.size(), queries.rows());
  ASSERT_EQ(r.best_mismatches.size(), queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto row = gamma.raw().subspan(q * gamma.cols(), gamma.cols());
    const auto best = std::min_element(row.begin(), row.end());
    EXPECT_EQ(r.best_match[q], static_cast<std::size_t>(best - row.begin()))
        << "query " << q;
    EXPECT_EQ(r.best_mismatches[q], *best) << "query " << q;
    EXPECT_GE(std::count(row.begin(), row.end(), *best), 2) << "query " << q;
  }
}

/// Plants copies of one source row per query at columns spread over the
/// whole database, then derives each query from its source row.
void search_with_spread_ties(std::size_t queries, std::size_t profiles,
                             std::uint64_t seed) {
  BitMatrix db = io::random_bitmatrix(profiles, kSnps, 0.5, seed);
  std::vector<std::size_t> sources;
  for (std::size_t q = 0; q < queries; ++q) {
    const std::size_t src = (q * 7919 + 12345) % profiles;
    for (std::size_t k = 1; k <= 4; ++k) {
      copy_row(db, (src + k * (profiles / 5 + 977)) % profiles, src);
    }
    sources.push_back(src);
  }
  std::vector<BitMatrix> rows;
  for (std::size_t q = 0; q < queries; ++q) {
    rows.push_back(near_copy(db, sources[q], q));
  }
  expect_serial_first_minima(stack(rows), db);
}

TEST(BestMatch, OneQueryAgainstAnOddLengthDatabase) {
  search_with_spread_ties(1, 100003, 1401);
}

TEST(BestMatch, SearchWorkloadShape) {
  search_with_spread_ties(32, 262144, 1402);
}

TEST(BestMatch, StreamedQueriesAgainstATinyDatabase) {
  BitMatrix db = io::random_bitmatrix(17, kSnps, 0.5, 1403);
  copy_row(db, 11, 3);
  copy_row(db, 16, 3);
  copy_row(db, 6, 5);
  std::vector<BitMatrix> rows;
  for (std::size_t q = 0; q < 300; ++q) {
    rows.push_back(near_copy(db, q % 2 == 0 ? 3 : 5, q));
  }
  const BitMatrix queries = stack(rows);
  ASSERT_GT(queries.rows(), db.rows());  // the queries are streamed
  expect_serial_first_minima(queries, db);
}

}  // namespace
}  // namespace snp
