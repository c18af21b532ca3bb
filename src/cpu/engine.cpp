#include "cpu/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "obs/obs.hpp"

namespace snp::cpu {

namespace {

using bits::Comparison;
using bits::Word64;

/// Packed A panel: m_r-row strips, k-major within a strip, so the
/// micro-kernel streams it with unit stride.
void pack_a(const bits::BitMatrix& a, std::size_t row0, std::size_t rows,
            std::size_t k0, std::size_t kw, std::vector<Word64>& out) {
  constexpr std::size_t m_r = CpuBlocking::m_r;
  const std::size_t strips = bits::ceil_div(rows, m_r);
  out.assign(strips * kw * m_r, 0);
  SNP_OBS_COUNT("cpu.pack_a.words", out.size());
  for (std::size_t s = 0; s < strips; ++s) {
    Word64* dst = out.data() + s * kw * m_r;
    for (std::size_t k = 0; k < kw; ++k) {
      for (std::size_t r = 0; r < m_r; ++r) {
        const std::size_t row = row0 + s * m_r + r;
        dst[k * m_r + r] =
            row < row0 + rows ? a.row64(row)[k0 + k] : Word64{0};
      }
    }
  }
}

/// Packed B panel: n_r-column strips, k-major within a strip.
void pack_b(const bits::BitMatrix& b, std::size_t col0, std::size_t cols,
            std::size_t k0, std::size_t kw, std::vector<Word64>& out) {
  constexpr std::size_t n_r = CpuBlocking::n_r;
  const std::size_t strips = bits::ceil_div(cols, n_r);
  out.assign(strips * kw * n_r, 0);
  SNP_OBS_COUNT("cpu.pack_b.words", out.size());
  for (std::size_t s = 0; s < strips; ++s) {
    Word64* dst = out.data() + s * kw * n_r;
    for (std::size_t k = 0; k < kw; ++k) {
      for (std::size_t c = 0; c < n_r; ++c) {
        const std::size_t col = col0 + s * n_r + c;
        dst[k * n_r + c] =
            col < col0 + cols ? b.row64(col)[k0 + k] : Word64{0};
      }
    }
  }
}

/// The micro-kernel's accumulator lane: the full 64-bit popcount lane
/// where the target has a vector popcount (narrowing it on every k step
/// costs shuffles on the popcount port), else the 32-bit count itself.
/// Counts are narrowed to uint32_t once, at the store; sums wrap mod 2^32
/// either way, so the stored counts are identical.
using Lane =
    std::conditional_t<kVectorPopcount, std::uint64_t, std::uint32_t>;

/// The micro-kernel: an m_r x n_r register block accumulating
/// popcount(op(a, b)) over a k_c-deep packed panel pair, then adding it
/// into C (or storing it, when `overwrite` — the first k_c panel of an
/// in-place block). Each k step broadcasts one A word per row against the
/// n_r contiguous packed B words, so the lane loop vectorizes over
/// columns with no horizontal reduction. `op` is a template parameter so
/// the logical operation is branch-free in the inner loop — the same
/// specialization trick the paper applies inside BLIS.
template <Comparison op>
void micro_kernel(const Word64* a_strip, const Word64* b_strip,
                  std::size_t kw, std::uint32_t* c, std::size_t ldc,
                  bool overwrite) {
  constexpr std::size_t m_r = CpuBlocking::m_r;
  constexpr std::size_t n_r = CpuBlocking::n_r;
  const auto count = [](Word64 x, Word64 y) {
    return static_cast<Lane>(bits::popcount(bits::apply(op, x, y)));
  };
  Lane acc[m_r][n_r] = {};
  for (std::size_t k = 0; k < kw; ++k) {
    const Word64* bv = b_strip + k * n_r;
    for (std::size_t i = 0; i < m_r; ++i) {
      const Word64 ai = a_strip[k * m_r + i];
      if constexpr (kVectorPopcount) {
        // Eight 64-bit lanes, one 512-bit vector: compilers otherwise use
        // their preferred 256-bit width on most AVX-512 targets, which
        // needs 32 accumulator registers and spills half of them.
#pragma omp simd simdlen(8)
        for (std::size_t j = 0; j < n_r; ++j) {
          acc[i][j] += count(ai, bv[j]);
        }
      } else {
        // Left to the compiler, which unrolls the whole 4 x 4 block;
        // forcing this loop to vectorize stops that and halves the rate.
        for (std::size_t j = 0; j < n_r; ++j) {
          acc[i][j] += count(ai, bv[j]);
        }
      }
    }
  }
  for (std::size_t i = 0; i < m_r; ++i) {
    for (std::size_t j = 0; j < n_r; ++j) {
      const auto sum = static_cast<std::uint32_t>(acc[i][j]);
      c[i * ldc + j] = overwrite ? sum : c[i * ldc + j] + sum;
    }
  }
}

using MicroKernelFn = void (*)(const Word64*, const Word64*, std::size_t,
                               std::uint32_t*, std::size_t, bool);

MicroKernelFn select_kernel(Comparison op) {
  switch (op) {
    case Comparison::kAnd:
      return &micro_kernel<Comparison::kAnd>;
    case Comparison::kXor:
      return &micro_kernel<Comparison::kXor>;
    case Comparison::kAndNot:
      return &micro_kernel<Comparison::kAndNot>;
  }
  throw std::invalid_argument("compare_blocked: unknown comparison");
}

/// Loops 2 (n_r) and 1 (m_r) around the micro-kernel for one packed
/// m_c x n_c macro-tile.
void run_macro_tile(MicroKernelFn kernel, const Word64* a_packed,
                    const Word64* b_packed, std::size_t ic, std::size_t mc,
                    std::size_t jc, std::size_t nc, std::size_t kw,
                    std::size_t m, std::size_t n, std::uint32_t* cdata,
                    std::size_t ldc, bool overwrite) {
  constexpr std::size_t m_r = CpuBlocking::m_r;
  constexpr std::size_t n_r = CpuBlocking::n_r;
  const std::size_t col_strips = bits::ceil_div(nc, n_r);
  const std::size_t row_strips = bits::ceil_div(mc, m_r);
  SNP_OBS_COUNT("cpu.macro_tiles", 1);
  // Padded micro-tile work, in 64-bit word-ops (edge strips included —
  // the micro-kernel always runs full m_r x n_r registers).
  SNP_OBS_COUNT("cpu.wordops",
                row_strips * m_r * col_strips * n_r * kw);
  std::uint32_t edge[m_r * n_r];
  for (std::size_t js = 0; js < col_strips; ++js) {
    const Word64* b_strip = b_packed + js * kw * n_r;
    for (std::size_t is = 0; is < row_strips; ++is) {
      const Word64* a_strip = a_packed + is * kw * m_r;
      const std::size_t ci = ic + is * m_r;
      const std::size_t cj = jc + js * n_r;
      const bool interior = ci + m_r <= m && cj + n_r <= n;
      if (interior) {
        kernel(a_strip, b_strip, kw, cdata + ci * ldc + cj, ldc, overwrite);
      } else {
        kernel(a_strip, b_strip, kw, edge, n_r, /*overwrite=*/true);
        for (std::size_t i = 0; i < m_r && ci + i < m; ++i) {
          for (std::size_t j = 0; j < n_r && cj + j < n; ++j) {
            std::uint32_t& dst = cdata[(ci + i) * ldc + cj + j];
            dst = overwrite ? edge[i * n_r + j] : dst + edge[i * n_r + j];
          }
        }
      }
    }
  }
}

/// row_first_minima's column block: 64 KiB of counts, enough blocks to
/// spread one long row over every thread, few enough that merging them is
/// negligible. Scans smaller than kParallelScanMin counts stay serial.
constexpr std::size_t kScanBlockCols = 16384;
constexpr std::size_t kParallelScanMin = std::size_t{1} << 16;

}  // namespace

bits::CountMatrix compare_blocked(const bits::BitMatrix& a,
                                  const bits::BitMatrix& b, Comparison op,
                                  const CpuBlocking& blocking) {
  bits::CountMatrix c(a.rows(), b.rows(), bits::uninitialized);
  compare_blocked_into(all_rows(a), all_rows(b), op, c.raw().data(),
                       c.cols(), blocking);
  return c;
}

void compare_blocked_into(RowBlock a, RowBlock b, Comparison op,
                          std::uint32_t* c, std::size_t ldc,
                          const CpuBlocking& blocking) {
  if (a.matrix->bit_cols() != b.matrix->bit_cols()) {
    throw std::invalid_argument(
        "compare_blocked: operands must share the K dimension");
  }
  if (a.rows > a.matrix->rows() - std::min(a.row0, a.matrix->rows()) ||
      b.rows > b.matrix->rows() - std::min(b.row0, b.matrix->rows())) {
    throw std::out_of_range("compare_blocked: row block outside operand");
  }
  if (!blocking.valid()) {
    throw std::invalid_argument("compare_blocked: invalid blocking");
  }
  SNP_OBS_SPAN("cpu.compare_blocked");
  const MicroKernelFn kernel = select_kernel(op);

  const std::size_t m = a.rows;
  const std::size_t n = b.rows;
  const std::size_t k_words =
      bits::ceil_div(a.matrix->bit_cols(), bits::kBitsPerWord64);
  if (m == 0 || n == 0) {
    return;
  }
  if (k_words == 0) {
    for (std::size_t i = 0; i < m; ++i) {
      std::fill_n(c + i * ldc, n, 0u);
    }
    return;
  }
  const std::size_t m_blocks = bits::ceil_div(m, blocking.m_c);
  const std::size_t tiles = m_blocks * bits::ceil_div(n, blocking.n_c);

  // Loops 5 (n_c) and 3 (m_c) flattened into one parallel loop of
  // macro-tiles, each owning a disjoint block of C; loop 4 (k_c) runs
  // inside the tile, so no synchronization is needed. The first k_c
  // panel stores into C and later ones add, so the block is overwritten
  // without a separate zeroing pass.
#pragma omp parallel default(none) shared(a, b, c, kernel) \
    firstprivate(m, n, k_words, ldc, blocking, m_blocks, tiles)
  {
    std::vector<Word64> a_packed;
    std::vector<Word64> b_packed;
#pragma omp for schedule(dynamic)
    for (std::size_t t = 0; t < tiles; ++t) {
      const std::size_t ic = (t % m_blocks) * blocking.m_c;
      const std::size_t jc = (t / m_blocks) * blocking.n_c;
      const std::size_t mc = std::min(blocking.m_c, m - ic);
      const std::size_t nc = std::min(blocking.n_c, n - jc);
      for (std::size_t pc = 0; pc < k_words; pc += blocking.k_c) {
        const std::size_t kw = std::min(blocking.k_c, k_words - pc);
        pack_b(*b.matrix, b.row0 + jc, nc, pc, kw, b_packed);
        pack_a(*a.matrix, a.row0 + ic, mc, pc, kw, a_packed);
        run_macro_tile(kernel, a_packed.data(), b_packed.data(), ic, mc,
                       jc, nc, kw, m, n, c, ldc, pc == 0);
      }
    }
  }
}

void row_first_minima(const bits::CountMatrix& c,
                      std::vector<std::size_t>& column,
                      std::vector<std::uint32_t>& value) {
  if (c.cols() == 0) {
    throw std::invalid_argument("row_first_minima: no columns");
  }
  const std::size_t rows = c.rows();
  const std::size_t cols = c.cols();
  const std::size_t blocks = bits::ceil_div(cols, kScanBlockCols);
  const std::size_t parts = rows * blocks;
  std::vector<std::uint32_t> part_min(parts);
  std::vector<std::size_t> part_col(parts);
  const std::uint32_t* data = c.raw().data();
  const bool parallel = rows * cols >= kParallelScanMin;
#pragma omp parallel for schedule(static) if (parallel) default(none) \
    shared(part_min, part_col) firstprivate(data, cols, blocks, parts)
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t j0 = (p % blocks) * kScanBlockCols;
    const std::size_t len = std::min(cols, j0 + kScanBlockCols) - j0;
    const std::uint32_t* x = data + (p / blocks) * cols + j0;
    // A branch-free min (vectorized) and then a search for its first
    // position, which stops early and reads a block already in cache.
    std::uint32_t m = x[0];
    for (std::size_t j = 1; j < len; ++j) {
      m = std::min(m, x[j]);
    }
    part_min[p] = m;
    part_col[p] = j0 + static_cast<std::size_t>(std::find(x, x + len, m) - x);
  }
  column.resize(rows);
  value.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    std::size_t best = i * blocks;
    for (std::size_t p = best + 1; p < (i + 1) * blocks; ++p) {
      if (part_min[p] < part_min[best]) {  // strict: earlier block wins ties
        best = p;
      }
    }
    column[i] = part_col[best];
    value[i] = part_min[best];
  }
}

bits::CountMatrix ld_counts(const bits::BitMatrix& a,
                            const CpuBlocking& blocking) {
  return compare_blocked(a, a, Comparison::kAnd, blocking);
}

}  // namespace snp::cpu
