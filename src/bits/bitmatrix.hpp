// BitMatrix: the packed, padded SNP bit matrix of the paper's Fig. 2.
//
// Rows are logical bit vectors (one SNP locus, one profile, ...); columns are
// bit positions (one sample, one SNP site, ...). Rows are padded with zero
// bits up to the row stride so that word-granular kernels never read garbage
// and padding contributes nothing to popcounts. All three comparison
// operations (AND, XOR, AND-NOT) preserve "zero padding in both inputs ->
// zero contribution", which tests assert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "bits/word.hpp"

namespace snp::bits {

class BitMatrix {
 public:
  BitMatrix() = default;

  /// Creates a rows x bit_cols matrix of zero bits. The row stride is the
  /// smallest multiple of `stride_words64` 64-bit words that covers
  /// `bit_cols` (default: 1 word, i.e. padding only to the next 64 bits).
  BitMatrix(std::size_t rows, std::size_t bit_cols,
            std::size_t stride_words64 = 1);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t bit_cols() const { return bit_cols_; }
  [[nodiscard]] std::size_t words64_per_row() const { return stride64_; }
  [[nodiscard]] std::size_t words32_per_row() const { return stride64_ * 2; }
  [[nodiscard]] std::size_t size_bytes() const {
    return rows_ * stride64_ * sizeof(Word64);
  }
  [[nodiscard]] bool empty() const { return rows_ == 0 || bit_cols_ == 0; }

  void set(std::size_t row, std::size_t bit, bool value);
  [[nodiscard]] bool get(std::size_t row, std::size_t bit) const;

  /// Number of set bits in a row (padding is always zero, so this is the
  /// popcount over the full stride too).
  [[nodiscard]] std::size_t row_popcount(std::size_t row) const;

  [[nodiscard]] std::span<const Word64> row64(std::size_t row) const {
    return {data_.data() + row * stride64_, stride64_};
  }
  [[nodiscard]] std::span<Word64> row64(std::size_t row) {
    return {data_.data() + row * stride64_, stride64_};
  }
  [[nodiscard]] std::span<const Word32> row32(std::size_t row) const {
    return {reinterpret_cast<const Word32*>(data_.data() + row * stride64_),
            stride64_ * 2};
  }

  [[nodiscard]] std::span<const Word64> raw64() const {
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::span<const Word32> raw32() const {
    return {reinterpret_cast<const Word32*>(data_.data()), data_.size() * 2};
  }

  /// Returns a copy whose row stride is padded to `stride_words64` 64-bit
  /// words (used to pad the K dimension to a kernel's k_c tile).
  [[nodiscard]] BitMatrix with_stride(std::size_t stride_words64) const;

  /// Returns the bitwise complement restricted to the logical bit columns
  /// (padding stays zero). Used to pre-negate a mixture database (Eq. 3's
  /// r & ~m rewritten as an AND against a stored ~m).
  [[nodiscard]] BitMatrix negated() const;

  /// Returns the submatrix of rows [row_begin, row_end).
  [[nodiscard]] BitMatrix row_slice(std::size_t row_begin,
                                    std::size_t row_end) const;

  [[nodiscard]] bool operator==(const BitMatrix& other) const;

  /// Verifies the zero-padding invariant (all bits at column >= bit_cols are
  /// zero). Cheap enough to call from tests and debug assertions.
  [[nodiscard]] bool padding_is_zero() const;

 private:
  std::size_t rows_ = 0;
  std::size_t bit_cols_ = 0;
  std::size_t stride64_ = 0;  // 64-bit words per row
  std::vector<Word64> data_;
};

/// Count-matrix storage. Blocks of at least kRecycleMinBytes go to a
/// process-wide, mutex-guarded recycler on release instead of back to the
/// heap, and a request of exactly the same size takes the most recently
/// released one, so a same-shape gamma is obtained without fresh pages.
/// At most kMaxRetained blocks are kept; releasing another evicts the
/// oldest. Smaller blocks go straight to operator new/delete.
namespace count_storage {
inline constexpr std::size_t kRecycleMinBytes = std::size_t{4} << 20;
inline constexpr std::size_t kMaxRetained = 2;

[[nodiscard]] void* allocate(std::size_t bytes);
void deallocate(void* block, std::size_t bytes) noexcept;
/// Blocks the recycler currently holds (at most kMaxRetained).
[[nodiscard]] std::size_t retained_blocks();
}  // namespace count_storage

/// Allocator over count_storage whose value-initialization is a default
/// initialization: a vector sized without a fill value is left
/// uninitialized, one given a fill value is filled.
template <class T>
struct CountAllocator {
  using value_type = T;

  CountAllocator() = default;
  template <class U>
  CountAllocator(  // NOLINT(google-explicit-constructor)
      const CountAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(count_storage::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    count_storage::deallocate(p, n * sizeof(T));
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }

  friend bool operator==(const CountAllocator&, const CountAllocator&) {
    return true;
  }
};

/// Tag selecting the CountMatrix constructor that skips the zero fill.
struct Uninitialized {
  explicit Uninitialized() = default;
};
inline constexpr Uninitialized uninitialized{};

/// Dense count matrix produced by SNP comparisons: gamma[i,j] as in Eqs. 1-3.
class CountMatrix {
 public:
  CountMatrix() = default;
  /// All counts zero: for callers that accumulate into the matrix.
  CountMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}
  /// Counts left uninitialized (a recycled block keeps its old bytes): only
  /// for a caller that overwrites every element before anything reads it.
  CountMatrix(std::size_t rows, std::size_t cols, Uninitialized /*tag*/)
      : rows_(rows), cols_(cols), data_(rows * cols) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::uint32_t& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::uint32_t at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::span<const std::uint32_t> raw() const {
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::span<std::uint32_t> raw() {
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::size_t size_bytes() const {
    return data_.size() * sizeof(std::uint32_t);
  }
  [[nodiscard]] bool operator==(const CountMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t, CountAllocator<std::uint32_t>> data_;
};

/// Read-only strided view of a block of counts: element (r, c) is
/// data[r * stride + c]. Lets a consumer read one chunk's block where it
/// already lives inside a larger gamma matrix, without a copy. A
/// CountMatrix converts implicitly (stride = cols).
class CountView {
 public:
  CountView(const std::uint32_t* data, std::size_t rows, std::size_t cols,
            std::size_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {}
  CountView(const CountMatrix& m)  // NOLINT(google-explicit-constructor)
      : CountView(m.raw().data(), m.rows(), m.cols(), m.cols()) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::uint32_t at(std::size_t r, std::size_t c) const {
    return data_[r * stride_ + c];
  }

 private:
  const std::uint32_t* data_;
  std::size_t rows_;
  std::size_t cols_;
  std::size_t stride_;
};

}  // namespace snp::bits
