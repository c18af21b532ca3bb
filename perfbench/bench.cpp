#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.p50 = quantile(v, 0.5);
  s.tail = s.p50;
  for (const double q : {0.99, 0.95, 0.90, 0.75}) {
    const auto n = static_cast<double>(v.size());
    if (n - std::ceil(q * n - 1e-9) >= 10.0) {
      s.tail_q = q;
      s.tail = quantile(v, q);
      break;
    }
  }
  return s;
}

std::string Summary::detail() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p50, tail=p%g, n=%zu", tail_q * 100.0, n);
  return buf;
}

ProcSample proc_sample() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  ProcSample p;
  p.user_s = tv(ru.ru_utime);
  p.sys_s = tv(ru.ru_stime);
  p.minflt = static_cast<double>(ru.ru_minflt);
  p.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return p;
}

void add_proc_metrics(RunResult& r, const ProcSample& before,
                      const ProcSample& after, std::uint64_t ops) {
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  r.layer("proc.user_s_per_op", (after.user_s - before.user_s) / n, "s");
  r.layer("proc.sys_s_per_op", (after.sys_s - before.sys_s) / n, "s");
  r.layer("proc.minflt_per_op", (after.minflt - before.minflt) / n, "count",
          ClockKind::kCount);
}

// ---- tracing --------------------------------------------------------------

void trace_begin() {
  auto& tc = snp::obs::TraceCollector::global();
  tc.begin_session();
  tc.set_enabled(true);
}

std::vector<snp::obs::TraceEvent> trace_end() {
  auto& tc = snp::obs::TraceCollector::global();
  tc.set_enabled(false);
  auto events = tc.events();
  tc.begin_session();  // release the recorded events
  return events;
}

namespace {

bool is_bench_span(const std::string& name) {
  return name.rfind("bench:", 0) == 0;
}

/// Nesting rank of a program span: a piece of wall time is charged to the
/// highest-ranked spans active in it. Spans on pool threads carry no
/// parent link, so the call structure of the core and svc layers is
/// spelled out here; any other span is treated as a leaf.
int rank_of(const std::string& name) {
  if (name == "svc.batch") return 1;
  if (name == "core.compare_gpu" || name == "core.compare_cpu") return 2;
  return 3;
}

}  // namespace

LayerTable self_time_table(const std::vector<snp::obs::TraceEvent>& events,
                           const std::string& root) {
  LayerTable t;
  t.root = root;
  std::vector<const snp::obs::TraceEvent*> roots;
  std::vector<const snp::obs::TraceEvent*> spans;
  for (const auto& ev : events) {
    if (ev.dur_us <= 0.0) continue;
    if (ev.name == root) {
      roots.push_back(&ev);
    } else if (!is_bench_span(ev.name)) {
      spans.push_back(&ev);
    }
  }
  const auto by_start = [](const auto* x, const auto* y) {
    return x->ts_us < y->ts_us;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  std::sort(spans.begin(), spans.end(), by_start);
  const std::string root_self = root + " (self)";

  for (const auto* r : roots) {
    const double s = r->ts_us;
    const double e = r->ts_us + r->dur_us;
    t.roots++;
    t.root_total_s += r->dur_us * 1e-6;
    struct Piece {
      double b, e;
      const snp::obs::TraceEvent* ev;
    };
    std::vector<Piece> inside;
    auto it = std::lower_bound(
        spans.begin(), spans.end(), s,
        [](const auto* ev, double v) { return ev->ts_us < v; });
    for (; it != spans.end() && (*it)->ts_us < e; ++it) {
      inside.push_back(
          {(*it)->ts_us, std::min(e, (*it)->ts_us + (*it)->dur_us), *it});
    }
    std::vector<double> cuts{s, e};
    for (const auto& p : inside) {
      cuts.push_back(p.b);
      cuts.push_back(p.e);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::vector<const snp::obs::TraceEvent*> leaves;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const double b = cuts[i];
      const double f = cuts[i + 1];
      const double width_s = (f - b) * 1e-6;
      int best = -1;
      leaves.clear();
      for (const auto& p : inside) {
        if (p.b <= b && p.e >= f) {
          const int rk = rank_of(p.ev->name);
          if (rk > best) {
            best = rk;
            leaves.clear();
          }
          if (rk == best) leaves.push_back(p.ev);
        }
      }
      if (leaves.empty()) {
        t.self_s[root_self] += width_s;
        continue;
      }
      const double share = width_s / static_cast<double>(leaves.size());
      for (const auto* l : leaves) {
        t.self_s[l->name] += share;
      }
    }
  }
  return t;
}

double LayerTable::per_root(const std::string& layer) const {
  const auto it = self_s.find(layer);
  if (it == self_s.end() || roots == 0) return 0.0;
  return it->second / static_cast<double>(roots);
}

double LayerTable::unattributed_s() const {
  return per_root(root + " (self)");
}

std::string render_table(const LayerTable& t, double measured_wall_s,
                         const std::string& title) {
  std::ostringstream os;
  char buf[160];
  os << title << " (" << t.roots << " x " << t.root << ", mean per "
     << "root)\n";
  std::vector<std::pair<double, std::string>> rows;
  double sum = 0.0;
  for (const auto& [name, total] : t.self_s) {
    const double per = t.per_root(name);
    rows.emplace_back(per, name);
    sum += per;
  }
  std::sort(rows.rbegin(), rows.rend());
  std::snprintf(buf, sizeof buf, "  %-32s %14s %8s\n", "layer", "self_s",
                "share");
  os << buf;
  for (const auto& [per, name] : rows) {
    std::snprintf(buf, sizeof buf, "  %-32s %14.6f %7.2f%%\n", name.c_str(),
                  per, sum > 0.0 ? 100.0 * per / sum : 0.0);
    os << buf;
  }
  const double diff =
      measured_wall_s > 0.0 ? 100.0 * (sum - measured_wall_s) / measured_wall_s
                            : 0.0;
  std::snprintf(buf, sizeof buf,
                "  %-32s %14.6f  vs measured wall %.6f s (%+.2f%%)\n",
                "sum of rows", sum, measured_wall_s, diff);
  os << buf;
  return os.str();
}

// ---- exact-repeat bookkeeping ---------------------------------------------

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

/// FNV-1a 64 of the running executable, in hex: two runs share it only if
/// they run the same build.
std::string build_id() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  if (!in) throw std::runtime_error("cannot read /proc/self/exe");
  std::uint64_t h = 0xcbf29ce484222325ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ull;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace

void check_between_runs(RunResult& r, const Args& a,
                        const std::map<std::string, std::string>& values) {
  const auto path =
      a.data_dir / ("exact-" + a.workload + "-" + build_id() + ".txt");
  std::map<std::string, std::string> recorded;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const auto eq = line.find('=');
      if (eq != std::string::npos) {
        recorded[line.substr(0, eq)] = line.substr(eq + 1);
      }
    }
  }
  if (recorded.empty()) {
    if (!r.problems.empty()) return;  // record only from a correct run
    std::ofstream out(path);
    for (const auto& [k, v] : values) out << k << '=' << v << '\n';
    return;
  }
  for (const auto& [k, v] : values) {
    const auto it = recorded.find(k);
    if (it == recorded.end() || it->second != v) {
      r.fail(k + " = " + v + " differs from the first run's " +
             (it == recorded.end() ? std::string("(absent)") : it->second) +
             " (" + path.string() + ")");
    }
  }
}

}  // namespace perfbench
