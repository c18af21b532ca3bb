// BLIS-like blocked CPU engine for SNP comparisons (paper Section III).
//
// Alachiotis et al. [11] showed that LD reduces to a matrix-matrix multiply
// whose micro-kernel replaces multiply-add with (logical-op, POPCNT, add)
// on 64-bit words, and that only the BLIS micro-kernel needs to change to
// reach 80-90 % of the CPU's popcount-throughput peak. This module is that
// algorithm: the classic five-loop blocking (n_c -> k_c -> m_c -> n_r ->
// m_r) with packed A/B panels and a register-blocked micro-kernel,
// parallelized with OpenMP. It is both the paper's CPU baseline and the
// functional engine behind every simulated GPU context, whose time comes
// from the simulator instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bits/bitmatrix.hpp"
#include "bits/compare.hpp"

namespace snp::cpu {

/// Whether the build target has a vector 64-bit popcount (AVX-512
/// VPOPCNTDQ). It fixes the micro-tile below; nothing else reads it.
inline constexpr bool kVectorPopcount =
#if defined(__AVX512VPOPCNTDQ__)
    true;
#else
    false;
#endif

/// Cache-blocking parameters in 64-bit words / rows. Defaults target a
/// generic modern x86 core (32 KiB L1D, 256 KiB-1 MiB L2).
///
/// The micro-tile is the host side of the paper's Eq. 4/7 register
/// blocking, fixed by the compile target: the micro-kernel broadcasts one
/// A word and vectorizes over the n_r packed B columns. With a vector
/// popcount, n_r = 32 64-bit lanes (four 512-bit vectors) per row times
/// m_r = 4 rows is 16 independent accumulators, enough to hide the
/// popcount/add latency. Without one, popcount is scalar or emulated and
/// a 4 x 4 block of 32-bit counters is fastest (on AVX2 a 4 x 32 tile
/// ran the ld shape 1.6-2.1x slower).
struct CpuBlocking {
  std::size_t m_c = 64;    ///< A-panel rows per L2 block
  std::size_t k_c = 256;   ///< panel depth in 64-bit words (2 KiB strips)
  std::size_t n_c = 2048;  ///< B columns per L3 block
  static constexpr std::size_t m_r = 4;  ///< micro-tile rows
  /// micro-tile cols
  static constexpr std::size_t n_r = kVectorPopcount ? 32 : 4;

  [[nodiscard]] bool valid() const {
    return m_c >= m_r && n_c >= n_r && k_c > 0 && m_c % m_r == 0 &&
           n_c % n_r == 0;
  }
};

/// gamma[i,j] = sum_k popcount(op(A[i,k], B[j,k])), blocked and packed.
/// A is (M x K bits), B is (N x K bits), both row-major over K.
[[nodiscard]] bits::CountMatrix compare_blocked(
    const bits::BitMatrix& a, const bits::BitMatrix& b, bits::Comparison op,
    const CpuBlocking& blocking = {});

/// Rows [row0, row0 + rows) of an operand, read in place.
struct RowBlock {
  const bits::BitMatrix* matrix = nullptr;
  std::size_t row0 = 0;
  std::size_t rows = 0;
};
[[nodiscard]] inline RowBlock all_rows(const bits::BitMatrix& m) {
  return {&m, 0, m.rows()};
}

/// The engine entry behind compare_blocked and every functional GPU
/// chunk: reads the two row blocks directly (packing only into the
/// per-thread BLIS panels) and overwrites the a.rows x b.rows block at
/// `c` with row stride `ldc` (beta = 0), so a chunk lands at its offset
/// inside a larger gamma matrix. One OpenMP region covers every
/// (n_c block x m_c block) macro-tile; each tile runs its whole k_c
/// chain, so counts are bit-identical for any thread count.
void compare_blocked_into(RowBlock a, RowBlock b, bits::Comparison op,
                          std::uint32_t* c, std::size_t ldc,
                          const CpuBlocking& blocking = {});

/// The first minimum of every row of `c`, exactly as std::min_element
/// finds it: value[i] = min_j c(i, j) and column[i] = the lowest j holding
/// it. Rows and column blocks are scanned in parallel with OpenMP, and the
/// blocks of a row are merged in column order, so ties resolve the same
/// way for any thread count. `c` must have at least one column.
void row_first_minima(const bits::CountMatrix& c,
                      std::vector<std::size_t>& column,
                      std::vector<std::uint32_t>& value);

/// Convenience single-call LD (Eq. 1): C = (A & A)^T-style self-comparison,
/// i.e. compare_blocked(a, a, kAnd).
[[nodiscard]] bits::CountMatrix ld_counts(const bits::BitMatrix& a,
                                          const CpuBlocking& blocking = {});

}  // namespace snp::cpu
