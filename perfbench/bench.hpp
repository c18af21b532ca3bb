// perfbench — shared types of the repository benchmark.
//
// Each workload returns a RunResult: the metrics it measured (each with a
// unit and the clock it was read from), the outcome counts, and any
// correctness problem. main.cpp prints the report and the JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Self-test fixture: a fixed sleep added inside every timed operation
  /// (closed loop) or before every submit (open loop). 0 = unmodified.
  double slow_ms = 0.0;
  /// Where inputs are written before io::load_bitmatrix reads them back.
  std::filesystem::path data_dir = ".";
};

/// Which clock a metric was read from. Virtual and count metrics must
/// repeat exactly within a run and between runs of the same checkout.
enum class ClockKind { kWall, kVirtual, kCount };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  ClockKind clock = ClockKind::kWall;
  /// Free-form detail printed beside the value (percentile, sample count).
  std::string detail;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness or validity failures; any entry makes "correct" false.
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Pre-rendered report sections (self-time tables, ladders).
  std::vector<std::string> sections;

  void fail(std::string why) { problems.push_back(std::move(why)); }
  void e2e(std::string name, double value, std::string unit,
           ClockKind clock = ClockKind::kWall, std::string detail = {}) {
    end_to_end.push_back({std::move(name), value, std::move(unit), clock,
                          std::move(detail)});
  }
  void layer(std::string name, double value, std::string unit,
             ClockKind clock = ClockKind::kWall, std::string detail = {}) {
    per_layer.push_back({std::move(name), value, std::move(unit), clock,
                         std::move(detail)});
  }
};

// ---- statistics -----------------------------------------------------------

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// A timing summary: the median plus the highest of p99/p95/p90/p75 that
/// has at least ten samples beyond it (the median itself when the sample
/// is too small for any of them), with the sample count.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.5;
  std::size_t n = 0;
  [[nodiscard]] std::string detail() const;
};
[[nodiscard]] Summary summarize(const std::vector<double>& v);

// ---- process counters -----------------------------------------------------

struct ProcSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;
  double maxrss_mb = 0.0;
};
[[nodiscard]] ProcSample proc_sample();
/// Adds proc.user_s_per_op, proc.sys_s_per_op and proc.minflt_per_op.
void add_proc_metrics(RunResult& r, const ProcSample& before,
                      const ProcSample& after, std::uint64_t ops);

// ---- tracing --------------------------------------------------------------

/// Benchmark-side span around one call into a layer's public function.
/// Recorded into the program's own obs::TraceCollector, so benchmark and
/// program spans share one clock; a no-op while the collector is off.
/// Benchmark span names carry the "bench:" prefix.
using BenchSpan = snp::obs::Span;

void trace_begin();
[[nodiscard]] std::vector<snp::obs::TraceEvent> trace_end();

/// Per-layer self time over every span named `root` in `events`: the
/// root's wall interval is cut at every span boundary inside it, and each
/// piece is charged to the innermost layers active in it (split evenly
/// when several threads run the same layer depth at once), or to the
/// root itself when no program span covers it. Rows therefore sum to the
/// roots' total wall time.
struct LayerTable {
  std::size_t roots = 0;
  double root_total_s = 0.0;
  std::map<std::string, double> self_s;  ///< summed over roots
  [[nodiscard]] double per_root(const std::string& layer) const;
  [[nodiscard]] double unattributed_s() const;  ///< the root's own share
  std::string root;
};
[[nodiscard]] LayerTable self_time_table(
    const std::vector<snp::obs::TraceEvent>& events, const std::string& root);
/// Renders a table as "layer  self_s/op  share" rows plus the sum check
/// against `measured_wall_s` (the benchmark's own clock, per root).
[[nodiscard]] std::string render_table(const LayerTable& t,
                                       double measured_wall_s,
                                       const std::string& title);

// ---- exact-repeat bookkeeping ---------------------------------------------

/// Checks that `values` (virtual and count metrics, rendered exactly)
/// equal what the first correct run of this workload with the same build
/// recorded (the record is keyed by a hash of the executable), and records
/// them if this is that first run.
void check_between_runs(RunResult& r, const Args& a,
                        const std::map<std::string, std::string>& values);
[[nodiscard]] std::string exact(double v);

// ---- workloads ------------------------------------------------------------

[[nodiscard]] RunResult run_search(const Args& a);
[[nodiscard]] RunResult run_ld(const Args& a);
[[nodiscard]] RunResult run_serve(const Args& a);
[[nodiscard]] RunResult run_serve_churn(const Args& a);

}  // namespace perfbench
