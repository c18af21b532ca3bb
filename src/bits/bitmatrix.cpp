#include "bits/bitmatrix.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <stdexcept>

namespace snp::bits {

BitMatrix::BitMatrix(std::size_t rows, std::size_t bit_cols,
                     std::size_t stride_words64)
    : rows_(rows), bit_cols_(bit_cols) {
  if (stride_words64 == 0) {
    throw std::invalid_argument("BitMatrix: stride_words64 must be positive");
  }
  const std::size_t min_words = ceil_div(bit_cols, kBitsPerWord64);
  stride64_ = std::max<std::size_t>(round_up(min_words, stride_words64),
                                    stride_words64);
  data_.assign(rows_ * stride64_, 0);
}

void BitMatrix::set(std::size_t row, std::size_t bit, bool value) {
  if (row >= rows_ || bit >= bit_cols_) {
    throw std::out_of_range("BitMatrix::set: index out of range");
  }
  Word64& w = data_[row * stride64_ + bit / kBitsPerWord64];
  const Word64 mask = Word64{1} << (bit % kBitsPerWord64);
  if (value) {
    w |= mask;
  } else {
    w &= ~mask;
  }
}

bool BitMatrix::get(std::size_t row, std::size_t bit) const {
  if (row >= rows_ || bit >= bit_cols_) {
    throw std::out_of_range("BitMatrix::get: index out of range");
  }
  const Word64 w = data_[row * stride64_ + bit / kBitsPerWord64];
  return ((w >> (bit % kBitsPerWord64)) & 1u) != 0;
}

std::size_t BitMatrix::row_popcount(std::size_t row) const {
  std::size_t count = 0;
  for (const Word64 w : row64(row)) {
    count += static_cast<std::size_t>(popcount(w));
  }
  return count;
}

BitMatrix BitMatrix::with_stride(std::size_t stride_words64) const {
  BitMatrix out(rows_, bit_cols_, stride_words64);
  const std::size_t copy_words = std::min(stride64_, out.stride64_);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(data_.data() + r * stride64_, copy_words,
                out.data_.data() + r * out.stride64_);
  }
  return out;
}

BitMatrix BitMatrix::negated() const {
  BitMatrix out(rows_, bit_cols_, stride64_);
  const std::size_t full_words = bit_cols_ / kBitsPerWord64;
  const std::size_t tail_bits = bit_cols_ % kBitsPerWord64;
  for (std::size_t r = 0; r < rows_; ++r) {
    auto src = row64(r);
    auto dst = out.row64(r);
    for (std::size_t w = 0; w < full_words; ++w) {
      dst[w] = ~src[w];
    }
    if (tail_bits != 0) {
      dst[full_words] = ~src[full_words] & low_mask64(tail_bits);
    }
  }
  return out;
}

BitMatrix BitMatrix::row_slice(std::size_t row_begin,
                               std::size_t row_end) const {
  if (row_begin > row_end || row_end > rows_) {
    throw std::out_of_range("BitMatrix::row_slice: invalid range");
  }
  BitMatrix out(row_end - row_begin, bit_cols_, stride64_);
  std::copy_n(data_.data() + row_begin * stride64_,
              (row_end - row_begin) * stride64_, out.data_.data());
  return out;
}

bool BitMatrix::operator==(const BitMatrix& other) const {
  if (rows_ != other.rows_ || bit_cols_ != other.bit_cols_) {
    return false;
  }
  // Strides may differ; compare logical words only.
  const std::size_t words = ceil_div(bit_cols_, kBitsPerWord64);
  for (std::size_t r = 0; r < rows_; ++r) {
    auto a = row64(r);
    auto b = other.row64(r);
    if (!std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(words),
                    b.begin())) {
      return false;
    }
  }
  return true;
}

bool BitMatrix::padding_is_zero() const {
  const std::size_t full_words = bit_cols_ / kBitsPerWord64;
  const std::size_t tail_bits = bit_cols_ % kBitsPerWord64;
  for (std::size_t r = 0; r < rows_; ++r) {
    auto row = row64(r);
    if (tail_bits != 0 && (row[full_words] & ~low_mask64(tail_bits)) != 0) {
      return false;
    }
    for (std::size_t w = full_words + (tail_bits != 0 ? 1 : 0); w < stride64_;
         ++w) {
      if (row[w] != 0) {
        return false;
      }
    }
  }
  return true;
}

namespace count_storage {

namespace {

struct Block {
  void* data = nullptr;
  std::size_t bytes = 0;
};

struct Recycler {
  std::mutex mu;
  std::array<Block, kMaxRetained> blocks{};  ///< oldest first; guarded by mu
  std::size_t count = 0;                     ///< guarded by mu

  /// Removes blocks[i], keeping the rest oldest first; caller holds mu.
  Block take(std::size_t i) {
    const Block taken = blocks[i];
    for (; i + 1 < count; ++i) {
      blocks[i] = blocks[i + 1];
    }
    count--;
    return taken;
  }
};

// Never destroyed: a CountMatrix that outlives static destruction still
// finds the recycler intact. Blocks it holds at exit stay reachable from
// here and are returned with the process.
Recycler& recycler() {
  static auto* const instance = new Recycler;
  return *instance;
}

}  // namespace

void* allocate(std::size_t bytes) {
  if (bytes >= kRecycleMinBytes) {
    Recycler& r = recycler();
    const std::lock_guard lock(r.mu);
    for (std::size_t i = r.count; i-- > 0;) {  // newest first
      if (r.blocks[i].bytes == bytes) {
        return r.take(i).data;
      }
    }
  }
  return ::operator new(bytes);
}

void deallocate(void* block, std::size_t bytes) noexcept {
  if (bytes < kRecycleMinBytes) {
    ::operator delete(block);
    return;
  }
  Recycler& r = recycler();
  Block evicted;
  {
    const std::lock_guard lock(r.mu);
    if (r.count == kMaxRetained) {
      evicted = r.take(0);
    }
    r.blocks[r.count++] = {block, bytes};
  }
  ::operator delete(evicted.data);
}

std::size_t retained_blocks() {
  Recycler& r = recycler();
  const std::lock_guard lock(r.mu);
  return r.count;
}

}  // namespace count_storage

}  // namespace snp::bits
