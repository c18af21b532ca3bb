// The two closed-loop compute workloads: one client runs operations
// back to back on a simulated titanv context.
//
//   search  FastID identity search (Eq. 2, XOR): 32 queries planted from
//           the database x 262 144 profiles x 512 SNPs, default
//           ComputeOptions. Memory bound with a small A operand, so the
//           copies, buffers and gamma scatter around the kernel dominate.
//   ld      Linkage disequilibrium (Eq. 1, AND): 2048 loci x 4096
//           samples, threads = nproc. Compute bound and square, so the
//           functional kernel and the threading runtime dominate.
#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "analyze/analyzer.hpp"
#include "bench.hpp"
#include "bits/compare.hpp"
#include "core/snpcmp.hpp"
#include "cpu/engine.hpp"
#include "io/datagen.hpp"
#include "io/formats.hpp"
#include "io/rng.hpp"
#include "kern/gpu_kernel.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using snp::bits::BitMatrix;
using snp::bits::Comparison;
using snp::bits::CountMatrix;

constexpr const char* kDevice = "titanv";
constexpr int kSetupReps = 31;

/// Compares one gamma row against bits::compare_reference for a single
/// A row; returns "" or a description of the first difference.
std::string check_row(const std::string& what, const BitMatrix& a_row,
                      const BitMatrix& b, Comparison op,
                      std::span<const std::uint32_t> got) {
  const CountMatrix ref = snp::bits::compare_reference(a_row, b, op);
  const auto want = ref.raw();
  for (std::size_t j = 0; j < want.size(); ++j) {
    if (got[j] != want[j]) {
      return what + ": column " + std::to_string(j) + " is " +
             std::to_string(got[j]) + ", reference " +
             std::to_string(want[j]);
    }
  }
  return {};
}

struct Search {
  static constexpr const char* kName = "search";
  static constexpr Comparison kOp = Comparison::kXor;
  static constexpr std::size_t kQueries = 32;

  BitMatrix db;
  BitMatrix queries;
  std::vector<std::size_t> planted;
  snp::ComputeOptions options;
  snp::IdentitySearchResult last;

  static BitMatrix generate(std::uint64_t seed) {
    snp::io::ProfileDbParams p;
    p.seed = seed;
    return snp::io::generate_profile_db(262144, 512, p);
  }
  void prepare(BitMatrix loaded, std::uint64_t seed) {
    db = std::move(loaded);
    snp::io::Rng rng(seed ^ 0x5ea5c4ull);
    std::set<std::size_t> rows;
    while (rows.size() < kQueries) rows.insert(rng.next_below(db.rows()));
    planted.assign(rows.begin(), rows.end());
    queries = snp::io::extract_queries(db, planted);
  }
  snp::TimingReport run(snp::Context& ctx) {
    last = ctx.identity_search(queries, db, options);
    return last.comparison.timing;
  }
  [[nodiscard]] std::string verify(std::uint64_t op_index) const {
    const CountMatrix& g = last.comparison.counts;
    for (std::size_t q = 0; q < kQueries; ++q) {
      if (g.at(q, planted[q]) != 0 || last.best_mismatches[q] != 0) {
        return "search: planted query " + std::to_string(q) +
               " does not match its row " + std::to_string(planted[q]) +
               " with 0 mismatches";
      }
      const std::size_t best = last.best_match[q];
      if (best != planted[q] &&
          !std::ranges::equal(db.row64(best), db.row64(planted[q]))) {
        return "search: query " + std::to_string(q) + " best match " +
               std::to_string(best) + " is not a copy of its planted row";
      }
    }
    for (std::size_t k = 0; k < 2; ++k) {  // two sampled rows per op
      const std::size_t q = (2 * op_index + k) % kQueries;
      auto bad = check_row("search gamma row " + std::to_string(q),
                           queries.row_slice(q, q + 1), db, kOp,
                           g.raw().subspan(q * g.cols(), g.cols()));
      if (!bad.empty()) return bad;
    }
    return {};
  }
  [[nodiscard]] const BitMatrix& a() const { return queries; }
  [[nodiscard]] const BitMatrix& b() const { return db; }
};

struct Ld {
  static constexpr const char* kName = "ld";
  static constexpr Comparison kOp = Comparison::kAnd;

  BitMatrix loci;
  snp::ComputeOptions options;
  snp::CompareResult last;

  static BitMatrix generate(std::uint64_t seed) {
    return snp::io::random_bitmatrix(2048, 4096, 0.3, seed);
  }
  void prepare(BitMatrix loaded, std::uint64_t /*seed*/) {
    loci = std::move(loaded);
    options.threads = std::max(1u, std::thread::hardware_concurrency());
  }
  snp::TimingReport run(snp::Context& ctx) {
    last = ctx.ld(loci, options);
    return last.timing;
  }
  [[nodiscard]] std::string verify(std::uint64_t op_index) const {
    const CountMatrix& g = last.counts;
    const std::size_t n = loci.rows();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (g.at(i, j) != g.at(j, i)) {
          return "ld: gamma is not symmetric at (" + std::to_string(i) +
                 ", " + std::to_string(j) + ")";
        }
      }
    }
    for (std::size_t k = 0; k < 4; ++k) {  // four sampled rows per op
      const std::size_t i = (op_index * 4 + k) * 977 % n;
      auto bad = check_row("ld gamma row " + std::to_string(i),
                           loci.row_slice(i, i + 1), loci, kOp,
                           g.raw().subspan(i * n, n));
      if (!bad.empty()) return bad;
    }
    return {};
  }
  [[nodiscard]] const BitMatrix& a() const { return loci; }
  [[nodiscard]] const BitMatrix& b() const { return loci; }
};

struct OpRecord {
  double wall_s = 0.0;
  snp::TimingReport timing;
};

/// Runs operations back to back for `seconds` (at least one), verifying
/// each result outside the timed region. A result that fails its check
/// fails the run and is not recorded as a timing sample.
template <class W>
std::vector<OpRecord> closed_loop(W& w, snp::Context& ctx, double seconds,
                                  RunResult& r, std::uint64_t& op_index) {
  std::vector<OpRecord> recs;
  const auto t0 = Clock::now();
  do {
    r.attempted++;
    OpRecord rec;
    try {
      const auto s = Clock::now();
      {
        const BenchSpan span("bench:core.call");
        rec.timing = w.run(ctx);
      }
      rec.wall_s = seconds_since(s);
    } catch (const std::exception& e) {
      r.failed++;
      r.fail(std::string(W::kName) + " operation threw: " + e.what());
      continue;
    }
    const std::string bad = w.verify(op_index++);
    if (!bad.empty()) {
      r.fail(bad);
      continue;
    }
    recs.push_back(std::move(rec));
  } while (seconds_since(t0) < seconds && r.problems.size() < 8);
  return recs;
}

std::vector<double> walls(const std::vector<OpRecord>& recs) {
  std::vector<double> v;
  for (const auto& rec : recs) v.push_back(rec.wall_s);
  return v;
}

double hist_sum(const snp::obs::MetricsSnapshot& s, const std::string& n) {
  const auto it = s.histograms.find(n);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

/// Median wall time of `reps` calls of `fn`.
template <class F>
double time_median(int reps, F&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const auto s = Clock::now();
    fn();
    v.push_back(seconds_since(s));
  }
  return quantile(v, 0.5);
}

/// Virtual-clock and count outputs of one operation, rendered exactly.
std::map<std::string, std::string> exact_values(const snp::TimingReport& t,
                                                const snp::TimingReport& est) {
  return {{"sim.virtual_s", exact(t.end_to_end_s)},
          {"sim.estimate_s", exact(est.end_to_end_s)},
          {"cl.h2d_bytes", std::to_string(t.h2d_bytes)},
          {"cl.d2h_bytes", std::to_string(t.d2h_bytes)},
          {"core.wordops", std::to_string(t.wordops)},
          {"core.chunks", std::to_string(t.chunks)}};
}

/// Per-layer probes: the same operands through the kern, cpu and analyze
/// layers directly, outside the Context pipeline. Returns cpu.compare_s.
template <class W>
double probe_layers(const W& w, const snp::Context& ctx, RunResult& r) {
  const BitMatrix& a = w.a();
  const BitMatrix& b = w.b();
  const snp::model::KernelConfig cfg =
      ctx.effective_config(a, b, W::kOp, w.options);
  const double words = static_cast<double>(a.rows()) *
                       static_cast<double>(b.rows()) *
                       static_cast<double>(a.words32_per_row());
  const snp::kern::GpuSnpKernel kernel(ctx.gpu_spec(), cfg, W::kOp);
  CountMatrix c(a.rows(), b.rows());
  const double kern_s = time_median(3, [&] { kernel.execute(a, b, c); });
  r.layer("kern.execute_s", kern_s, "s");
  r.layer("kern.gwordops_per_s", words / kern_s / 1e9, "Gword/s");
  const double cpu_s = time_median(3, [&] {
    c = snp::cpu::compare_blocked(a, b, W::kOp);
  });
  r.layer("cpu.compare_s", cpu_s, "s");
  r.layer("cpu.gwordops_per_s", words / cpu_s / 1e9, "Gword/s");

  snp::analyze::AnalyzeOptions ao;
  const std::uint64_t k_words = a.words32_per_row();
  const auto unroll = static_cast<std::uint64_t>(ao.unroll);
  ao.k_iterations = std::max<std::uint64_t>(1, (k_words + unroll - 1) / unroll);
  r.layer("analyze.lint_s", time_median(3, [&] {
            (void)snp::analyze::analyze(ctx.gpu_spec(), cfg, W::kOp, ao);
          }),
          "s");
  return cpu_s;
}

template <class W>
RunResult measure(const Args& a) {
  RunResult r;
  W w;
  const std::filesystem::path file =
      a.data_dir / (std::string(W::kName) + "-operand.sbm");
  {
    const BitMatrix generated = W::generate(a.seed);
    snp::io::save_bitmatrix(generated, file);
  }

  // Program-side set-up, repeated so setup_s is a median: load the
  // operand file and build the context. The last instance is measured.
  std::vector<double> setup, load;
  BitMatrix loaded;
  std::optional<snp::Context> ctx;
  for (int i = 0; i < kSetupReps; ++i) {
    ctx.reset();
    loaded = BitMatrix();  // free the previous copy outside the timing
    const auto s = Clock::now();
    loaded = snp::io::load_bitmatrix(file);
    load.push_back(seconds_since(s));
    ctx.emplace(snp::Context::gpu(kDevice));
    setup.push_back(seconds_since(s));
  }
  std::filesystem::remove(file);
  w.prepare(std::move(loaded), a.seed);
  if (a.slow_ms > 0.0) {
    const std::chrono::duration<double, std::milli> delay(a.slow_ms);
    w.options.chunk_callback = [delay](const snp::ComputeOptions::ChunkView& v) {
      if (v.row0 == 0) std::this_thread::sleep_for(delay);
    };
  }

  // Warm-up: first touch of the gamma matrix and pool start-up are paid
  // here, not by the first timed operation.
  std::uint64_t op_index = 0;
  closed_loop(w, *ctx, 0.0, r, op_index);
  if (!r.problems.empty()) return r;
  r.attempted = 0;

  const snp::TimingReport est =
      ctx->estimate(w.a().rows(), w.b().rows(), w.a().bit_cols(), W::kOp,
                    w.options);

  const double phase_s = a.trace ? 0.4 * a.seconds : a.seconds;
  const std::vector<OpRecord> untraced =
      closed_loop(w, *ctx, phase_s, r, op_index);
  const ProcSample peak = proc_sample();
  std::vector<OpRecord> traced;
  std::vector<snp::obs::TraceEvent> events;
  ProcSample p0, p1;
  snp::obs::MetricsSnapshot reg0, reg1;
  if (a.trace) {
    p0 = proc_sample();
    reg0 = snp::obs::MetricsRegistry::global().snapshot();
    trace_begin();
    traced = closed_loop(w, *ctx, phase_s, r, op_index);
    events = trace_end();
    p1 = proc_sample();
    reg1 = snp::obs::MetricsRegistry::global().snapshot();
  }
  if (untraced.empty() || (a.trace && traced.empty())) {
    r.fail(std::string(W::kName) + ": no operation completed");
    return r;
  }

  // Virtual-clock and count outputs repeat exactly, within and between runs.
  const auto first = exact_values(untraced.front().timing, est);
  std::vector<OpRecord> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  for (const auto& rec : all) {
    if (exact_values(rec.timing, est) != first) {
      r.fail(std::string(W::kName) +
             ": virtual/count outputs differ between operations");
      break;
    }
  }
  check_between_runs(r, a, first);

  const snp::TimingReport& t = untraced.front().timing;
  const Summary op = summarize(walls(untraced));
  r.e2e("setup_s", quantile(setup, 0.5), "s", ClockKind::kWall,
        "median of " + std::to_string(kSetupReps) +
            " x (io::load_bitmatrix + Context::gpu)");
  r.e2e("latency_p50_s", op.p50, "s", ClockKind::kWall,
        "per operation, " + op.detail());
  r.e2e("latency_tail_s", op.tail, "s", ClockKind::kWall,
        "per operation, " + op.detail());
  r.e2e("gwordops_per_s", static_cast<double>(t.wordops) / op.p50 / 1e9,
        "Gword/s", ClockKind::kWall, "TimingReport::wordops / p50");
  r.e2e("error_rate",
        static_cast<double>(r.failed) /
            static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)),
        "ratio", ClockKind::kCount);
  r.e2e("peak_rss_mb", peak.maxrss_mb, "MB", ClockKind::kWall,
        "getrusage ru_maxrss");
  r.layer("proc.peak_rss_mb", peak.maxrss_mb, "MB");

  r.layer("io.load_s", quantile(load, 0.5), "s");
  r.layer("cl.h2d_bytes", static_cast<double>(t.h2d_bytes), "bytes",
          ClockKind::kCount, "per operation, computed");
  r.layer("cl.d2h_bytes", static_cast<double>(t.d2h_bytes), "bytes",
          ClockKind::kCount, "per operation, computed");
  r.layer("sim.virtual_s", t.end_to_end_s, "s", ClockKind::kVirtual);
  r.layer("sim.estimate_s", est.end_to_end_s, "s", ClockKind::kVirtual);
  if (!a.trace) return r;

  const std::vector<double> tw = walls(traced);
  const double traced_p50 = quantile(tw, 0.5);
  double traced_sum = 0.0;
  for (const double v : tw) traced_sum += v;
  const LayerTable table = self_time_table(events, "bench:core.call");
  const double mean_wall = traced_sum / static_cast<double>(tw.size());
  r.sections.push_back(render_table(
      table, mean_wall, std::string(W::kName) + ": per-layer self time"));
  const double n_ops = static_cast<double>(traced.size());
  r.layer("core.call_s", traced_p50, "s", ClockKind::kWall,
          "p50 of traced operations");
  r.layer("core.self_s", table.per_root("core.compare_gpu"), "s");
  r.layer("core.lint_s", table.per_root("core.lint"), "s");
  r.layer("core.pack_s", table.per_root("core.chunk.pack"), "s");
  r.layer("core.execute_s", table.per_root("core.chunk.execute"), "s");
  r.layer("core.drain_s", table.per_root("core.chunk.drain"), "s");
  r.layer("exec.pool.wait_s",
          (hist_sum(reg1, "exec.pool.task_wait_seconds") -
           hist_sum(reg0, "exec.pool.task_wait_seconds")) / n_ops,
          "s", ClockKind::kWall, "summed over tasks, per operation");
  r.layer("exec.pool.run_s",
          (hist_sum(reg1, "exec.pool.task_run_seconds") -
           hist_sum(reg0, "exec.pool.task_run_seconds")) / n_ops,
          "s", ClockKind::kWall, "summed over tasks, per operation");
  add_proc_metrics(r, p0, p1, traced.size());
  r.layer("trace.unattributed_pct",
          100.0 * table.unattributed_s() / std::max(mean_wall, 1e-12), "%");
  r.layer("obs.trace_overhead_pct",
          100.0 * (traced_p50 / op.p50 - 1.0), "%", ClockKind::kWall,
          "traced vs untraced p50");
  const double cpu_s = probe_layers(w, *ctx, r);
  r.layer("core.functional_overhead_x", traced_p50 / cpu_s, "x",
          ClockKind::kWall, "core.call_s / cpu.compare_s");
  return r;
}

}  // namespace

RunResult run_search(const Args& a) { return measure<Search>(a); }
RunResult run_ld(const Args& a) { return measure<Ld>(a); }

}  // namespace perfbench
