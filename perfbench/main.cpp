// perfbench — the repository benchmark.
//
//   perfbench --workload search|ld|serve|serve_churn --seed N
//             --seconds S --trace 0|1 [--slow-ms X] [--data-dir DIR]
//
// Prints a human-readable report (every metric with its unit and clock,
// per-layer self-time tables in traced runs) and, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are every end-to-end metric the workload measured;
// with --trace 1 every per-layer one. run.py selects those BENCHMARK.json
// lists. perfbench/README.md documents the workloads and metrics.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

using perfbench::ClockKind;
using perfbench::Metric;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "search|ld|serve|serve_churn --seed N --seconds S "
               "--trace 0|1 [--slow-ms X] [--data-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

double parse_number(std::string_view flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0) {
    usage(std::string(flag) + " needs a non-negative number, got '" + text +
          "'");
  }
  return v;
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const double v = parse_number(flag, value);
      if (v != std::floor(v) || v > 9.0e15) usage("--seed must be an integer");
      a.seed = static_cast<std::uint64_t>(v);
    } else if (flag == "--seconds") {
      a.seconds = parse_number(flag, value);
      if (a.seconds <= 0.0 || a.seconds > 120.0) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--slow-ms") {
      a.slow_ms = parse_number(flag, value);
    } else if (flag == "--data-dir") {
      a.data_dir = value;
    } else {
      usage("unknown option " + std::string(flag));
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

const char* clock_name(ClockKind c) {
  switch (c) {
    case ClockKind::kWall:
      return "wall";
    case ClockKind::kVirtual:
      return "virtual";
    case ClockKind::kCount:
      return "count";
  }
  return "?";
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms) {
    std::printf("  %-28s %16.9g %-8s [%s] %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), clock_name(m.clock), m.detail.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args a = parse(argc, argv);
  perfbench::RunResult r;
  try {
    if (a.workload == "search") {
      r = perfbench::run_search(a);
    } else if (a.workload == "ld") {
      r = perfbench::run_ld(a);
    } else if (a.workload == "serve") {
      r = perfbench::run_serve(a);
    } else if (a.workload == "serve_churn") {
      r = perfbench::run_serve_churn(a);
    } else {
      usage("unknown workload '" + a.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d slow_ms=%g\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, a.slow_ms);
  print_metrics("end-to-end metrics:", r.end_to_end);
  if (a.trace) print_metrics("per-layer metrics:", r.per_layer);
  for (const auto& s : r.sections) std::printf("%s", s.c_str());

  // Every metric of the run's kind; run.py selects and orders the ones
  // BENCHMARK.json lists.
  std::string json;
  for (const Metric& m : a.trace ? r.per_layer : r.end_to_end) {
    if (!std::isfinite(m.value)) {
      r.fail(m.name + " is not finite");
      continue;
    }
    char num[32];
    const auto res = std::to_chars(num, num + sizeof num, m.value);  // shortest
    if (!json.empty()) json += ", ";
    json.append("\"").append(m.name).append("\": {\"value\": ");
    json.append(num, res.ptr).append(", \"unit\": \"").append(m.unit);
    json += "\"}";
  }
  if (r.problems.empty()) {
    std::printf("correctness: ok\n");
  } else {
    for (const auto& p : r.problems) std::printf("correctness: FAILED: %s\n",
                                                 p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed), json.c_str());
  return 0;
}
