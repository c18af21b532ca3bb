// The two open-loop serving workloads: svc::ServiceEngine on titanv with a
// resident 65 536 x 512 database and the default ServiceConfig. One thread
// submits on a fixed schedule, whether or not earlier requests finished;
// another takes each result as it resolves, records a digest of its row
// and releases it (a gamma row is 256 KiB). The digests are checked
// against bits::compare_reference after the phase, so reference work does
// not compete with the engine. Latency runs from each request's due time,
// so a stall also charges the requests queued behind it.
//
//   serve        XOR, every query unique, so the result cache never hits.
//                A reference rate well below the knee gives the latency
//                metrics; a fixed rate ladder (traced runs) gives
//                capacity_qps.
//   serve_churn  AND-NOT with pre_negate (Eq. 3) at the same reference
//                rate. Queries come from a small hot set, so repeats hit
//                the cache, and update_database() swaps in a freshly
//                derived database at a fixed interval, paying the
//                negation and purging the cache.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "bits/compare.hpp"
#include "io/datagen.hpp"
#include "io/formats.hpp"
#include "io/rng.hpp"
#include "rt/status.hpp"
#include "svc/service.hpp"

namespace perfbench {
namespace {

using snp::bits::BitMatrix;
using snp::bits::Comparison;
using snp::svc::QueryResult;

constexpr std::size_t kDbRows = 65536;
constexpr std::size_t kSnps = 512;
constexpr int kSetupReps = 31;
/// The untraced sample is served by this many freshly constructed engines
/// in turn, each after a warm-up of kWarmupS. Under libgomp's default wait
/// policy the kernel's OpenMP workers spin beside the service threads, and
/// how much that costs differs from one engine's lifetime to the next
/// (README.md, "OpenMP wait policy"); several engines per run make the
/// pooled sample typical of the program rather than of one engine.
constexpr int kEngines = 5;
constexpr double kWarmupS = 0.5;
/// Offered load of the latency metrics. A width-1 batch costs about
/// 10 ms on a 4-core host, so 50 qps keeps the dispatcher about half busy:
/// well below the knee, where batch formation is not yet chaotic.
constexpr double kReferenceQps = 50.0;
/// Latency limit on p99 used by the capacity ladder.
constexpr double kLatencyLimitS = 0.100;
/// A phase whose generator p99 lateness exceeds this share of the latency
/// limit is invalid: its latencies would partly measure the generator.
constexpr double kMaxLatenessShare = 0.25;
/// The generator sleeps until this long before a due time, then spins.
constexpr double kSpinS = 0.0005;
/// Every request carries this deadline, so an expiry counts as an error.
constexpr double kDeadlineMs = 1000.0;
/// Ladder rungs are kReferenceQps * kRungStep^k (at least 15% apart).
constexpr double kRungStep = 1.25;
constexpr int kTopRung = 14;
constexpr double kRungSeconds = 1.5;
/// serve: one result in this many is checked against the reference.
constexpr std::size_t kVerifyEvery = 4;
/// serve_churn: hot-set size and database swap interval. With 50
/// requests per epoch and 8 hot queries, about 84% of requests hit.
constexpr std::size_t kHotQueries = 8;
constexpr double kUpdateIntervalS = 1.0;

/// One resolved request, kept for verification after the phase.
struct Delivered {
  std::size_t index = 0;
  std::uint64_t epoch = 0;
  std::uint64_t digest = 0;
  std::size_t columns = 0;
};

std::uint64_t digest(std::span<const std::uint32_t> row) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint32_t v : row) h = (h ^ v) * 0x100000001b3ull;
  return h;
}

/// Everything one open-loop phase observed.
struct Phase {
  double rate = 0.0;
  // Written by the submitting thread.
  std::vector<double> lateness;  ///< generator wake-up vs due time
  std::vector<double> submit_s;  ///< time inside ServiceEngine::submit
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;
  // Written by the collecting thread.
  std::vector<double> latency;  ///< from due time, completed requests
  std::vector<Delivered> delivered;
  double queue_wait_sum = 0.0;
  double service_sum = 0.0;
  double residual_sum = 0.0;  ///< latency not in lateness/wait/service
  double lateness_sum = 0.0;  ///< submit() start vs due time
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t hits = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::map<std::uint64_t, std::size_t> batch_rows;  ///< batch id -> width
  // serve_churn: the writer's update_database() calls.
  std::vector<double> update_s;

  [[nodiscard]] std::uint64_t errors() const {
    return rejected + expired + failed;
  }
  [[nodiscard]] double error_rate() const {
    return static_cast<double>(errors()) /
           static_cast<double>(std::max<std::uint64_t>(attempted, 1));
  }
  [[nodiscard]] bool generator_valid() const {
    return quantile(lateness, 0.99) <= kMaxLatenessShare * kLatencyLimitS;
  }
  /// Pools another phase at the same rate into this one.
  void append(const Phase& o) {
    const auto cat = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    rate = o.rate;
    cat(lateness, o.lateness);
    cat(submit_s, o.submit_s);
    cat(latency, o.latency);
    cat(delivered, o.delivered);
    cat(update_s, o.update_s);
    attempted += o.attempted;
    rejected += o.rejected;
    queue_wait_sum += o.queue_wait_sum;
    service_sum += o.service_sum;
    residual_sum += o.residual_sum;
    lateness_sum += o.lateness_sum;
    expired += o.expired;
    failed += o.failed;
    hits += o.hits;
    h2d_bytes += o.h2d_bytes;
    d2h_bytes += o.d2h_bytes;
    // Batch ids restart with each engine.
    const std::uint64_t id0 =
        batch_rows.empty() ? 0 : batch_rows.rbegin()->first + 1;
    for (const auto& [id, w] : o.batch_rows) batch_rows[id0 + id] = w;
  }
};

using MakeQuery = std::function<BitMatrix(std::size_t)>;

/// Offers `rate` requests per second for `seconds`; query i is
/// make_query(first + i).
Phase open_loop(snp::svc::ServiceEngine& eng, double rate, double seconds,
                std::size_t first, const MakeQuery& make_query,
                double slow_ms) {
  Phase ph;
  ph.rate = rate;
  struct Pending {
    double due_s = 0.0;     ///< seconds since phase start
    double submit_s = 0.0;  ///< submit() call start, same origin
    std::size_t index = 0;
    std::future<QueryResult> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;

  std::thread collector([&] {
    for (;;) {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return done || !queue.empty(); });
      if (queue.empty()) return;
      Pending p = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      try {
        const QueryResult res = p.fut.get();
        const double late = p.submit_s - p.due_s;
        const double lat = late + res.latency_s;
        const double wait = static_cast<double>(res.cost.queue_wait_ns) * 1e-9;
        const double svc = static_cast<double>(res.cost.service_ns) * 1e-9;
        ph.latency.push_back(lat);
        ph.lateness_sum += late;
        ph.queue_wait_sum += wait;
        ph.service_sum += svc;
        ph.residual_sum += lat - late - wait - svc;
        ph.h2d_bytes += res.cost.h2d_bytes;
        ph.d2h_bytes += res.cost.d2h_bytes;
        if (res.cache_hit) {
          ph.hits++;
        } else {
          ph.batch_rows[res.batch_id] = res.batch_rows;
        }
        if (res.deadline_expired) ph.expired++;
        ph.delivered.push_back(
            {p.index, res.epoch, digest(res.row), res.row.size()});
      } catch (const snp::rt::Error& e) {
        (e.code() == snp::rt::ErrorCode::kDeadline ? ph.expired : ph.failed)++;
      } catch (const std::exception&) {
        ph.failed++;
      }
    }
  });
  const auto finish = [&] {
    {
      const std::lock_guard lock(mu);
      done = true;
    }
    cv.notify_one();
    collector.join();
  };

  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const auto since_t0 = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const std::chrono::duration<double, std::milli> slow(slow_ms);
  snp::svc::SubmitOptions so;
  so.deadline_ms = kDeadlineMs;
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const BitMatrix q = make_query(first + i);
      const double due = static_cast<double>(i) / rate;
      std::this_thread::sleep_until(at(due - kSpinS));
      while (Clock::now() < at(due)) {
      }
      ph.lateness.push_back(since_t0() - due);
      if (slow_ms > 0.0) std::this_thread::sleep_for(slow);
      Pending p;
      p.due_s = due;
      p.index = first + i;
      p.submit_s = since_t0();
      ph.attempted++;
      try {
        const BenchSpan span("bench:svc.submit");
        p.fut = eng.submit(q, so);
      } catch (const snp::rt::Error&) {
        ph.rejected++;  // refused at admission (kOverload or kDeadline)
        continue;
      }
      ph.submit_s.push_back(since_t0() - p.submit_s);
      {
        const std::lock_guard lock(mu);
        queue.push_back(std::move(p));
      }
      cv.notify_one();
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();
  return ph;
}

/// A rung passes when nothing was refused, expired or failed, p99 meets
/// the latency limit, the generator kept its schedule, and the backlog
/// stayed flat (the last quarter's median latency is not far above the
/// first quarter's).
bool rung_passes(const Phase& ph) {
  if (ph.errors() != 0 || ph.latency.size() < 8 || !ph.generator_valid()) {
    return false;
  }
  if (quantile(ph.latency, 0.99) > kLatencyLimitS) return false;
  const auto q = static_cast<std::ptrdiff_t>(ph.latency.size() / 4);
  const std::vector<double> head(ph.latency.begin(), ph.latency.begin() + q);
  const std::vector<double> tail(ph.latency.end() - q, ph.latency.end());
  return quantile(tail, 0.5) <= 2.0 * quantile(head, 0.5) + 0.005;
}

/// A random query row, a pure function of (seed, index).
BitMatrix random_query(std::uint64_t seed, std::size_t index) {
  const snp::io::Rng base(seed);
  snp::io::Rng rng = base.fork(index);
  BitMatrix q(1, kSnps);
  for (auto& w : q.row64(0)) w = rng.next_u64();
  return q;
}

/// The database of epoch `k` of a serve_churn run: the base database with
/// about one bit in eight flipped, a pure function of (base, seed, k).
BitMatrix derive_db(const BitMatrix& base, std::uint64_t seed,
                    std::uint64_t k) {
  BitMatrix db = base;
  snp::io::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ull + k);
  const std::size_t tail = db.bit_cols() % 64;
  const std::uint64_t last_mask = tail == 0 ? ~0ull : (1ull << tail) - 1;
  for (std::size_t r = 0; r < db.rows(); ++r) {
    auto row = db.row64(r);
    for (std::size_t w = 0; w < row.size(); ++w) {
      std::uint64_t flip = sm.next() & sm.next() & sm.next();
      if (w + 1 == row.size()) flip &= last_mask;
      row[w] ^= flip;
    }
  }
  return db;
}

/// Checks delivered rows against reference digests; `want(d)` returns the
/// reference digest for a delivery, or nullopt to skip it.
template <class Want>
void verify(RunResult& r, const std::string& name, const Phase& ph,
            const Want& want) {
  for (const Delivered& d : ph.delivered) {
    if (d.columns != kDbRows) {
      r.fail(name + " request " + std::to_string(d.index) + ": row has " +
             std::to_string(d.columns) + " columns");
      return;
    }
    const std::optional<std::uint64_t> ref = want(d);
    if (ref.has_value() && *ref != d.digest) {
      r.fail(name + " request " + std::to_string(d.index) + " (epoch " +
             std::to_string(d.epoch) + ") differs from the reference row");
      return;
    }
  }
}

struct Served {
  snp::svc::ServiceConfig cfg;
  std::unique_ptr<snp::svc::ServiceEngine> engine;
  BitMatrix base;
  std::vector<double> setup;
  std::vector<double> load;
};

/// Program-side set-up, repeated so setup_s is a median: load the
/// database file and construct the engine (which packs it, negated for
/// Eq. 3). The last engine is measured.
Served set_up(const Args& a, const snp::svc::ServiceConfig& cfg) {
  Served s;
  s.cfg = cfg;
  const std::filesystem::path file = a.data_dir / (a.workload + "-db.sbm");
  {
    snp::io::ProfileDbParams p;
    p.seed = a.seed;
    snp::io::save_bitmatrix(snp::io::generate_profile_db(kDbRows, kSnps, p),
                            file);
  }
  for (int i = 0; i < kSetupReps; ++i) {
    s.engine.reset();
    const auto t = Clock::now();
    BitMatrix db = snp::io::load_bitmatrix(file);
    const double load_s = seconds_since(t);
    s.load.push_back(load_s);
    s.base = db;  // the benchmark's reference copy, not timed
    const auto c = Clock::now();
    s.engine = std::make_unique<snp::svc::ServiceEngine>(std::move(db), cfg);
    s.setup.push_back(load_s + seconds_since(c));
  }
  std::filesystem::remove(file);
  return s;
}

/// Replaces the engine with a freshly constructed one on the base
/// database (epoch numbering restarts with it).
void renew(Served& s) {
  s.engine.reset();
  s.engine = std::make_unique<snp::svc::ServiceEngine>(BitMatrix(s.base),
                                                       s.cfg);
}

/// End-to-end metrics shared by both serving workloads.
void report_phase(RunResult& r, const Phase& ph, const Served& s,
                  double peak_rss_mb) {
  const Summary lat = summarize(ph.latency);
  r.attempted = ph.attempted;
  r.failed = ph.errors();
  if (!ph.generator_valid()) {
    r.fail("generator p99 lateness " + exact(quantile(ph.lateness, 0.99)) +
           " s exceeds " + exact(kMaxLatenessShare * kLatencyLimitS) +
           " s: latencies are invalid");
  }
  const std::string rate =
      "at " + std::to_string(static_cast<int>(ph.rate)) + " qps offered, ";
  r.e2e("setup_s", quantile(s.setup, 0.5), "s", ClockKind::kWall,
        "median of " + std::to_string(kSetupReps) +
            " x (io::load_bitmatrix + ServiceEngine)");
  r.e2e("latency_p50_s", lat.p50, "s", ClockKind::kWall, rate + lat.detail());
  r.e2e("latency_tail_s", lat.tail, "s", ClockKind::kWall,
        rate + lat.detail());
  if (!ph.update_s.empty()) {
    const Summary up = summarize(ph.update_s);
    r.e2e("update_p50_s", up.p50, "s", ClockKind::kWall,
          "update_database() call, " + up.detail());
  }
  r.e2e("error_rate", ph.error_rate(), "ratio", ClockKind::kCount,
        std::to_string(ph.errors()) + " of " + std::to_string(ph.attempted) +
            " refused, expired or failed");
  r.e2e("peak_rss_mb", peak_rss_mb, "MB", ClockKind::kWall,
        "getrusage ru_maxrss");
  r.layer("proc.peak_rss_mb", peak_rss_mb, "MB");
  r.layer("io.load_s", quantile(s.load, 0.5), "s");
}

/// Per-layer metrics of a traced phase.
void report_layers(RunResult& r, const Phase& ph, const Phase& untraced,
                   const std::vector<snp::obs::TraceEvent>& events,
                   const ProcSample& p0, const ProcSample& p1,
                   const std::string& name) {
  const double n =
      static_cast<double>(std::max<std::size_t>(ph.latency.size(), 1));
  double mean_lat = 0.0;
  for (const double v : ph.latency) mean_lat += v / n;
  // Request-level decomposition: rows sum to the mean latency exactly.
  char buf[200];
  std::string req = name + ": per-request latency decomposition (" +
                    std::to_string(ph.latency.size()) + " requests, mean)\n";
  const std::pair<const char*, double> rows[] = {
      {"gen.lateness", ph.lateness_sum / n},
      {"svc.queue_wait", ph.queue_wait_sum / n},
      {"svc.service", ph.service_sum / n},
      {"unattributed", ph.residual_sum / n}};
  double sum = 0.0;
  for (const auto& [label, v] : rows) {
    std::snprintf(buf, sizeof buf, "  %-32s %14.6f %7.2f%%\n", label, v,
                  100.0 * v / std::max(mean_lat, 1e-12));
    req += buf;
    sum += v;
  }
  std::snprintf(buf, sizeof buf,
                "  %-32s %14.6f  vs measured latency %.6f s\n", "sum of rows",
                sum, mean_lat);
  r.sections.push_back(req + buf);

  // Batch-level self time: the dispatcher's svc.batch spans as roots.
  const LayerTable batches = self_time_table(events, "svc.batch");
  const double nb_spans =
      static_cast<double>(std::max<std::size_t>(batches.roots, 1));
  double call_sum = 0.0;
  std::size_t calls = 0;
  for (const auto& ev : events) {
    if (ev.name == "core.compare_gpu") {
      call_sum += ev.dur_us * 1e-6;
      calls++;
    }
  }
  if (batches.roots > 0) {
    r.sections.push_back(render_table(batches,
                                      batches.root_total_s / nb_spans,
                                      name + ": per-layer self time per batch"));
  }
  r.layer("core.call_s",
          calls > 0 ? call_sum / static_cast<double>(calls) : 0.0, "s",
          ClockKind::kWall, "mean core.compare_gpu span per batch");
  r.layer("core.self_s", batches.per_root("core.compare_gpu"), "s");
  r.layer("core.lint_s", batches.per_root("core.lint"), "s");
  r.layer("core.pack_s", batches.per_root("core.chunk.pack"), "s");
  r.layer("core.execute_s", batches.per_root("core.chunk.execute"), "s");
  r.layer("core.drain_s", batches.per_root("core.chunk.drain"), "s");
  r.layer("svc.batch_s", batches.root_total_s / nb_spans, "s",
          ClockKind::kWall, "mean svc.batch span");
  r.layer("svc.batch_self_s", batches.unattributed_s(), "s");
  r.layer("svc.submit_s", quantile(ph.submit_s, 0.5), "s", ClockKind::kWall,
          "p50 time inside submit()");
  r.layer("svc.queue_wait_s", ph.queue_wait_sum / n, "s", ClockKind::kWall,
          "mean QueryResult::cost queue wait");
  r.layer("svc.service_s", ph.service_sum / n, "s", ClockKind::kWall,
          "mean QueryResult::cost service time");
  double rows_sum = 0.0;
  for (const auto& [id, w] : ph.batch_rows) rows_sum += static_cast<double>(w);
  const double nb = static_cast<double>(ph.batch_rows.size());
  r.layer("svc.batches", nb, "count", ClockKind::kCount);
  r.layer("svc.batch_rows_mean", nb > 0 ? rows_sum / nb : 0.0, "rows",
          ClockKind::kCount);
  r.layer("svc.cache_hit_ratio", static_cast<double>(ph.hits) / n, "ratio",
          ClockKind::kCount);
  r.layer("svc.rejected", static_cast<double>(ph.rejected), "count",
          ClockKind::kCount);
  r.layer("svc.failed", static_cast<double>(ph.failed + ph.expired), "count",
          ClockKind::kCount);
  r.layer("cl.h2d_bytes", static_cast<double>(ph.h2d_bytes) / n, "bytes",
          ClockKind::kCount, "mean per request, computed");
  r.layer("cl.d2h_bytes", static_cast<double>(ph.d2h_bytes) / n, "bytes",
          ClockKind::kCount, "mean per request, computed");
  r.layer("gen.lateness_p99_s", quantile(ph.lateness, 0.99), "s");
  r.layer("gen.lateness_max_s", quantile(ph.lateness, 1.0), "s");
  add_proc_metrics(r, p0, p1, ph.attempted);
  r.layer("trace.unattributed_pct",
          100.0 * ph.residual_sum / n / std::max(mean_lat, 1e-12), "%");
  r.layer("obs.trace_overhead_pct",
          100.0 * (quantile(ph.latency, 0.5) /
                       quantile(untraced.latency, 0.5) -
                   1.0),
          "%", ClockKind::kWall, "traced vs untraced latency p50");
  if (!ph.update_s.empty()) {
    r.layer("svc.update_s", quantile(ph.update_s, 0.5), "s", ClockKind::kWall,
            "p50 of update_database() calls");
  }
}

/// Runs the measured phases of a serving workload. `phase(seconds)` runs
/// one open-loop phase at the reference rate; `check(phase)` verifies its
/// deliveries. Untraced runs measure --seconds split over kEngines
/// engines; traced runs measure an untraced phase of 0.4 x --seconds the
/// same way, then a traced phase of 0.4 x --seconds on the last engine.
template <class PhaseFn, class CheckFn>
void measure_phases(RunResult& r, const Args& a, Served& s,
                    const PhaseFn& phase, const CheckFn& check) {
  const double untraced_s = a.trace ? 0.4 * a.seconds : a.seconds;
  Phase untraced;
  for (int k = 0; k < kEngines; ++k) {
    if (k > 0) renew(s);
    check(phase(kWarmupS));  // threads, allocator and caches settle
    const Phase part = phase(untraced_s / kEngines);
    check(part);
    untraced.append(part);
  }
  report_phase(r, untraced, s, proc_sample().maxrss_mb);
  if (!a.trace) return;
  const ProcSample p0 = proc_sample();
  trace_begin();
  const Phase traced = phase(0.4 * a.seconds);
  const auto events = trace_end();
  const ProcSample p1 = proc_sample();
  check(traced);
  report_layers(r, traced, untraced, events, p0, p1, a.workload);
}

}  // namespace

RunResult run_serve(const Args& a) {
  RunResult r;
  const snp::svc::ServiceConfig cfg;  // titanv, XOR, default batching/cache
  Served s = set_up(a, cfg);
  const MakeQuery make = [&](std::size_t i) {
    return random_query(a.seed, i);
  };
  const auto check = [&](const Phase& ph) {
    verify(r, "serve", ph, [&](const Delivered& d) {
      std::optional<std::uint64_t> want;
      if (d.index % kVerifyEvery == 0) {
        want = digest(snp::bits::compare_reference(make(d.index), s.base,
                                                   Comparison::kXor)
                          .raw());
      }
      return want;
    });
  };
  std::size_t next = 0;
  const auto phase_at = [&](double rate, double seconds) {
    Phase ph = open_loop(*s.engine, rate, seconds, next, make, a.slow_ms);
    next += ph.attempted;
    return ph;
  };
  measure_phases(
      r, a, s,
      [&](double seconds) { return phase_at(kReferenceQps, seconds); },
      check);
  if (!a.trace || !r.problems.empty()) return r;

  // Capacity, untraced, after the traced phase: binary search over fixed
  // rungs above the reference rate.
  const auto rung_qps = [](int k) {
    return kReferenceQps * std::pow(kRungStep, k);
  };
  int lo = 0;             // highest rung known to pass (the reference rate)
  int hi = kTopRung + 1;  // lowest rung known to fail
  std::string ladder = "serve: capacity ladder (p99 <= " +
                       exact(kLatencyLimitS) +
                       " s, no refusals, flat backlog)\n";
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const Phase ph = phase_at(rung_qps(mid), kRungSeconds);
    check(ph);
    const bool ok = rung_passes(ph);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "  %8.1f qps  p50 %.6f s  p99 %.6f s  errors %llu  "
                  "lateness p99 %.6f s  %s\n",
                  ph.rate, quantile(ph.latency, 0.5),
                  quantile(ph.latency, 0.99),
                  static_cast<unsigned long long>(ph.errors()),
                  quantile(ph.lateness, 0.99), ok ? "pass" : "FAIL");
    ladder += buf;
    (ok ? lo : hi) = mid;
  }
  r.sections.push_back(ladder);
  r.e2e("capacity_qps", rung_qps(lo), "1/s", ClockKind::kWall,
        hi > kTopRung ? "top rung passed: a lower bound"
                      : "highest passing rung of the ladder");
  return r;
}

RunResult run_serve_churn(const Args& a) {
  RunResult r;
  snp::svc::ServiceConfig cfg;
  cfg.op = Comparison::kAndNot;
  cfg.pre_negate = true;
  Served s = set_up(a, cfg);
  snp::io::ProfileDbParams hp;
  hp.seed = a.seed ^ 0x407ull;
  const BitMatrix hot = snp::io::generate_profile_db(kHotQueries, kSnps, hp);
  const snp::io::Rng pick(a.seed);
  const auto hot_index = [&](std::size_t i) {
    return static_cast<std::size_t>(pick.fork(i).next_below(kHotQueries));
  };
  const MakeQuery make = [&](std::size_t i) {
    const std::size_t h = hot_index(i);
    return hot.row_slice(h, h + 1);
  };
  const std::uint64_t epoch0 = s.engine->epoch();
  const auto db_of_epoch = [&](std::uint64_t e) {
    return e == epoch0 ? s.base : derive_db(s.base, a.seed, e);
  };

  // Every row against the reference of the epoch stamped on it: one
  // reference row per (epoch, hot query), one derived database per epoch.
  const auto check = [&](const Phase& ph) {
    std::map<std::uint64_t, std::map<std::size_t, std::uint64_t>> refs;
    for (const Delivered& d : ph.delivered) refs[d.epoch][hot_index(d.index)];
    for (auto& [epoch, by_hot] : refs) {
      const BitMatrix db = db_of_epoch(epoch);
      for (auto& [h, ref] : by_hot) {
        ref = digest(snp::bits::compare_reference(hot.row_slice(h, h + 1), db,
                                                  Comparison::kAndNot)
                         .raw());
      }
    }
    verify(r, "serve_churn", ph, [&](const Delivered& d) {
      return std::optional<std::uint64_t>(refs[d.epoch][hot_index(d.index)]);
    });
  };

  std::size_t next = 0;
  const auto phase = [&](double seconds) {
    // The writer: swaps in the next epoch's database on a fixed schedule.
    std::mutex stop_mu;
    std::condition_variable stop_cv;
    bool stop = false;
    std::vector<double> updates;
    std::thread writer([&] {
      const auto t0 = Clock::now();
      for (int k = 1;; ++k) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      k * kUpdateIntervalS));
        {
          std::unique_lock lock(stop_mu);
          if (stop_cv.wait_until(lock, due, [&] { return stop; })) return;
        }
        BitMatrix db = db_of_epoch(s.engine->epoch() + 1);
        const auto t = Clock::now();
        {
          const BenchSpan span("bench:svc.update");
          s.engine->update_database(std::move(db));
        }
        updates.push_back(seconds_since(t));
      }
    });
    const auto stop_writer = [&] {
      {
        const std::lock_guard lock(stop_mu);
        stop = true;
      }
      stop_cv.notify_one();
      writer.join();
    };
    Phase ph;
    try {
      ph = open_loop(*s.engine, kReferenceQps, seconds, next, make, a.slow_ms);
    } catch (...) {
      stop_writer();
      throw;
    }
    stop_writer();
    next += ph.attempted;
    ph.update_s = std::move(updates);
    return ph;
  };
  measure_phases(r, a, s, phase, check);
  return r;
}

}  // namespace perfbench
