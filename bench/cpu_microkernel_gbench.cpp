// google-benchmark harness for the real (natively executed) CPU engine —
// the Section III baseline. Measures the blocked popcount-GEMM throughput
// of this machine for each comparison operation and a packing-cost probe.
// Unlike the figure benches (which model the paper's Xeon), these numbers
// are real wall-clock measurements of the host CPU.
#include <benchmark/benchmark.h>

#include "bits/compare.hpp"
#include "cpu/engine.hpp"
#include "io/datagen.hpp"

namespace {

using snp::bits::Comparison;

/// Times compare_blocked(a, b, op). Gwordops/s counts 32-bit word-ops
/// (M x N x ceil(K / 32)), the unit of perfbench's cpu.gwordops_per_s.
void run_compare(benchmark::State& state, const snp::bits::BitMatrix& a,
                 const snp::bits::BitMatrix& b, Comparison op) {
  for (auto _ : state) {
    auto c = snp::cpu::compare_blocked(a, b, op);
    benchmark::DoNotOptimize(c.raw().data());
    benchmark::ClobberMemory();
  }
  const double wordops = static_cast<double>(a.rows()) *
                         static_cast<double>(b.rows()) *
                         static_cast<double>(a.words32_per_row());
  state.counters["Gwordops/s"] = benchmark::Counter(
      wordops * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void bench_compare(benchmark::State& state, Comparison op) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k_bits = static_cast<std::size_t>(state.range(1));
  const auto a = snp::io::random_bitmatrix(m, k_bits, 0.5, 1);
  const auto b = snp::io::random_bitmatrix(m, k_bits, 0.5, 2);
  run_compare(state, a, b, op);
}

void BM_CpuAnd(benchmark::State& state) {
  bench_compare(state, Comparison::kAnd);
}
void BM_CpuXor(benchmark::State& state) {
  bench_compare(state, Comparison::kXor);
}
void BM_CpuAndNot(benchmark::State& state) {
  bench_compare(state, Comparison::kAndNot);
}

BENCHMARK(BM_CpuAnd)->Args({256, 4096})->Args({512, 8192});
BENCHMARK(BM_CpuXor)->Args({256, 4096});
BENCHMARK(BM_CpuAndNot)->Args({256, 4096});

// The engine at perfbench's two compute shapes, so its host rate can be
// checked for each build target's micro-tile without running perfbench.
void BM_LdShape(benchmark::State& state) {
  // ld: 2048 loci x 4096 samples, self-comparison with AND (Eq. 1).
  const auto a = snp::io::random_bitmatrix(2048, 4096, 0.5, 5);
  run_compare(state, a, a, Comparison::kAnd);
}
BENCHMARK(BM_LdShape)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SearchShape(benchmark::State& state) {
  // search: 32 queries x 262144 profiles x 512 SNPs, XOR (Eq. 2).
  const auto q = snp::io::random_bitmatrix(32, 512, 0.5, 6);
  const auto db = snp::io::random_bitmatrix(262144, 512, 0.5, 7);
  run_compare(state, q, db, Comparison::kXor);
}
BENCHMARK(BM_SearchShape)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ReferenceAnd(benchmark::State& state) {
  // The unblocked reference, to show what the BLIS-like blocking buys.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k_bits = static_cast<std::size_t>(state.range(1));
  const auto a = snp::io::random_bitmatrix(m, k_bits, 0.5, 3);
  const auto b = snp::io::random_bitmatrix(m, k_bits, 0.5, 4);
  for (auto _ : state) {
    auto c = snp::bits::compare_reference(a, b, Comparison::kAnd);
    benchmark::DoNotOptimize(c.raw().data());
  }
}
BENCHMARK(BM_ReferenceAnd)->Args({256, 4096});

void BM_Encode(benchmark::State& state) {
  // Genotype packing cost (the host-side "pack" stage of the pipeline).
  const auto loci = static_cast<std::size_t>(state.range(0));
  snp::io::PopulationParams p;
  const auto g = snp::io::generate_genotypes(loci, 1024, p);
  for (auto _ : state) {
    auto m = snp::bits::encode(g, snp::bits::EncodingPlane::kPresence);
    benchmark::DoNotOptimize(&m);
  }
}
BENCHMARK(BM_Encode)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
