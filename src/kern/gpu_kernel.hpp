// The parameterized GPU SNP-comparison kernel (paper Sections IV-C and V).
//
// This is the BLIS third loop around the micro-kernel and its contents,
// exactly as the paper's OpenCL kernel implements it: for each m_c x n_r
// tile of C assigned to a compute core, the kernel packs an m_c x k_c tile
// of A into shared memory, then streams B from global memory while the
// thread groups accumulate popcount inner products in registers. Where the
// paper configures the kernel with C macros in a header, we configure it
// with a model::KernelConfig — same four values (m_c, m_r, k_c, n_r) plus
// the core grid.
//
// This class describes the kernel; it does not emulate it. Its counts come
// from the CPU engine (cpu::compare_blocked_into, the same blocked
// popcount-GEMM), its time from sim::estimate_kernel on this config, and
// its loop structure is proven by the dataflow verifier over
// kern::build_kernel_program and by CoreSim.
#pragma once

#include <optional>

#include "bits/bitmatrix.hpp"
#include "bits/compare.hpp"
#include "model/config.hpp"
#include "model/device.hpp"
#include "sim/timing.hpp"

namespace snp::kern {

class GpuSnpKernel {
 public:
  /// Throws std::invalid_argument when `cfg` fails model::validate for
  /// `dev` (the compile-time config check of the paper's header file).
  GpuSnpKernel(model::GpuSpec dev, model::KernelConfig cfg,
               bits::Comparison op);

  [[nodiscard]] const model::GpuSpec& device() const { return dev_; }
  [[nodiscard]] const model::KernelConfig& config() const { return cfg_; }
  [[nodiscard]] bits::Comparison op() const { return op_; }

  /// The comparison the kernel physically executes after the Eq. 3
  /// lowering (AND when the database is pre-negated).
  [[nodiscard]] bits::Comparison lowered_op() const;

  /// Functional result: gamma[i,j] = popc(lowered_op(A[i,:], B[j,:])),
  /// computed by the CPU engine. `c` must be a.rows() x b.rows(); pass
  /// `accumulate = true` to add into it instead of overwriting (beta = 1).
  void execute(const bits::BitMatrix& a, const bits::BitMatrix& b,
               bits::CountMatrix& c, bool accumulate = false) const;

  /// Largest K (in 32-bit words) a single A tile supports: k_c. Problems
  /// deeper than this run multiple packed panels on the device.
  [[nodiscard]] std::size_t max_panel_words() const {
    return static_cast<std::size_t>(cfg_.k_c);
  }

  /// Simulated execution time for this kernel on a given shape.
  [[nodiscard]] sim::KernelTiming timing(const sim::KernelShape& shape)
      const;

 private:
  model::GpuSpec dev_;
  model::KernelConfig cfg_;
  bits::Comparison op_;
};

}  // namespace snp::kern
