// Context::genotype_ld: the full unphased-LD pipeline (two planes, four
// device comparisons, table recovery, EM) across backends.
#include <gtest/gtest.h>

#include "core/snpcmp.hpp"
#include "io/datagen.hpp"

namespace snp {
namespace {

TEST(GenotypeLd, RejectsBadInput) {
  Context ctx = Context::cpu();
  EXPECT_THROW((void)ctx.genotype_ld(bits::GenotypeMatrix()),
               std::invalid_argument);
  ComputeOptions timing_only;
  timing_only.functional = false;
  const auto g = io::generate_genotypes(4, 50, {});
  EXPECT_THROW((void)ctx.genotype_ld(g, timing_only),
               std::invalid_argument);
  ComputeOptions no_gamma;  // the EM step needs the four gamma matrices
  no_gamma.keep_counts = false;
  no_gamma.chunk_callback = [](const ComputeOptions::ChunkView&) {};
  EXPECT_THROW((void)ctx.genotype_ld(g, no_gamma), std::invalid_argument);
}

TEST(GenotypeLd, DiagonalIsPerfectLd) {
  io::PopulationParams p;
  p.seed = 777;
  p.maf_min = 0.1;
  p.maf_max = 0.4;
  const auto g = io::generate_genotypes(12, 800, p);
  Context ctx = Context::cpu();
  const auto ld = ctx.genotype_ld(g);
  ASSERT_EQ(ld.loci, 12u);
  ASSERT_EQ(ld.pairs.size(), 144u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(ld.at(i, i).r2, 1.0, 1e-9) << "locus " << i;
    for (std::size_t j = 0; j < 12; ++j) {
      EXPECT_NEAR(ld.at(i, j).r2, ld.at(j, i).r2, 1e-9);
      EXPECT_GE(ld.at(i, j).r2, -1e-12);
      EXPECT_LE(ld.at(i, j).r2, 1.0 + 1e-9);
    }
  }
}

TEST(GenotypeLd, CpuAndGpuBackendsAgree) {
  io::PopulationParams p;
  p.seed = 778;
  p.ld_block_len = 6;
  p.ld_copy = 0.9;
  const auto g = io::generate_genotypes(18, 600, p);
  Context cpu = Context::cpu();
  Context gpu = Context::gpu("gtx980");
  const auto ld_cpu = cpu.genotype_ld(g);
  const auto ld_gpu = gpu.genotype_ld(g);
  ASSERT_EQ(ld_cpu.pairs.size(), ld_gpu.pairs.size());
  for (std::size_t k = 0; k < ld_cpu.pairs.size(); ++k) {
    EXPECT_NEAR(ld_cpu.pairs[k].r2, ld_gpu.pairs[k].r2, 1e-12);
    EXPECT_NEAR(ld_cpu.pairs[k].d, ld_gpu.pairs[k].d, 1e-12);
  }
  // The GPU timing charges init once across the four launches.
  EXPECT_GT(ld_gpu.timing.init_s, 0.1);
  EXPECT_LT(ld_gpu.timing.init_s, 0.5);
  EXPECT_GE(ld_gpu.timing.chunks, 4);
}

TEST(GenotypeLd, BlockStructureVisible) {
  io::PopulationParams p;
  p.seed = 779;
  p.spectrum = io::MafSpectrum::kFixed;
  p.maf_mean = 0.3;
  p.ld_block_len = 8;
  p.ld_copy = 0.95;
  const auto g = io::generate_genotypes(16, 1500, p);
  Context ctx = Context::gpu("vega64");
  const auto ld = ctx.genotype_ld(g);
  // Within-block neighbours show strong LD; across the block boundary
  // (loci 7 and 8) it collapses.
  EXPECT_GT(ld.at(2, 3).r2, 0.5);
  EXPECT_GT(ld.at(10, 11).r2, 0.5);
  EXPECT_LT(ld.at(7, 8).r2, 0.1);
}

}  // namespace
}  // namespace snp
