// snp::obs — always-on flight recorder.
//
// A crash-diagnosis black box: every thread that records events owns a
// lock-free ring of compact fixed-size records (enqueue / batch / chunk
// / fault / retry / cache hit / ...), so the last few thousand events
// per thread are always available for dumping when something goes wrong
// — an exit-4 fault path, an SLO burn-rate breach, or an explicit
// `snpcmp serve --flight-out` request.
//
// Cost model: one append is an enabled-flag load, a thread-local ring
// lookup, one clock read, and six relaxed atomic stores bracketed by a
// per-slot seqlock — tens of nanoseconds, cheap enough to leave on in
// production serving paths. The SNP_OBS_FLIGHT macro call sites compile
// away entirely under SNPCMP_OBS=OFF; set_enabled(false) is the runtime
// kill switch (used by bench/abl_obs_overhead to price the residual).
//
// Concurrency: each ring has exactly one writer (its owning thread);
// dumpers read concurrently through per-slot sequence counters — a slot
// whose sequence is odd or changes across the read is being overwritten
// and is skipped. All shared words are relaxed atomics, so the protocol
// is race-free under TSan by construction, and a dump taken mid-write
// yields only whole records.
//
// Determinism: under a seeded rt::ScopedFaultPlan the recorded event
// *sequence* (kinds, trace ids, codes, payloads, per-thread order) is
// deterministic; only timestamps vary run to run. Golden tests assert
// on the sequence and schema, never on ts.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace snp::obs {

/// Compact event kinds. Stable names (to_string) appear in dumps; add
/// new kinds at the end so recorded numeric values keep meaning (5, the
/// retired chunk-pack stage, stays unused).
enum class FlightKind : std::uint8_t {
  kEnqueue = 1,   ///< request queued          a=queue depth   b=rows
  kCacheHit = 2,  ///< served from result cache a=epoch
  kShed = 3,      ///< rejected by admission    a=queue depth
  kBatch = 4,     ///< batch formed             a=batch id      b=width
  kChunkExec = 6, ///< chunk execute stage done a=chunk index   b=rows
  kChunkDrain = 7,///< chunk drain stage done   a=chunk index   b=rows
  kFault = 8,     ///< non-retryable/final fault code=SNPRT a=chunk b=attempt
  kRetry = 9,     ///< retryable fault, retrying code=SNPRT a=chunk b=attempt
  kResolve = 10,  ///< request future resolved  a=batch id      b=latency_us
  kEpoch = 11,    ///< database epoch bump      a=new epoch     b=rows
  kSloBreach = 12,///< burn-rate trigger tripped a=breaches     b=total
  kDeadlineShed = 13,  ///< expired before launch a=queue depth  b=remaining_us
  kBreaker = 14,  ///< breaker transition       code=new state
  kBrownout = 15, ///< brown-out edge           a=1 enter/0 exit b=shed class
};

[[nodiscard]] const char* to_string(FlightKind kind);

/// One decoded flight record (the in-ring representation is five u64
/// words plus a sequence counter; see FlightRecorder::record).
struct FlightRecord {
  double ts_us = 0.0;          ///< since recorder epoch
  std::uint32_t thread = 0;    ///< dense recording-thread index
  FlightKind kind{};
  std::uint32_t code = 0;      ///< rt error code for fault/retry, else 0
  std::uint64_t trace_id = 0;  ///< originating request (0 = none)
  std::int64_t a = 0;          ///< kind-specific payload
  std::int64_t b = 0;          ///< kind-specific payload
};

/// Process-wide flight recorder (tests may build standalone instances;
/// a recorder must outlive every thread that records into it).
class FlightRecorder {
 public:
  /// Default per-thread ring capacity (records). Overridable at first
  /// use via SNPCMP_FLIGHT_RING (rounded up to a power of two); at 48
  /// bytes per slot the default ring is ~96 KiB per recording thread.
  /// An unparsable or out-of-range value falls back to this default
  /// with a one-line stderr warning (see parse_flight_ring).
  static constexpr std::size_t kDefaultCapacity = 2048;
  /// Largest capacity SNPCMP_FLIGHT_RING may request (per thread; 16M
  /// slots = 768 MiB/thread — past any plausible diagnostic need, and a
  /// guard against a byte count pasted where a record count goes).
  static constexpr std::size_t kMaxCapacity = 1ULL << 24U;

  [[nodiscard]] static FlightRecorder& global();
  FlightRecorder();
  explicit FlightRecorder(std::size_t capacity);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Runtime kill switch (the compile-time one is SNPCMP_OBS=OFF).
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Appends one record to the calling thread's ring (registering the
  /// ring on first use). Dropped while disabled.
  void record(FlightKind kind, std::uint64_t trace_id, std::uint32_t code,
              std::int64_t a, std::int64_t b);

  /// Consistent snapshot of every thread's ring, merged and sorted by
  /// timestamp. Safe to call while writers are appending: torn slots
  /// are skipped, whole records are never mixed.
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;

  /// Total records overwritten before they could be snapshot (sum of
  /// per-ring wraparound losses).
  [[nodiscard]] std::uint64_t dropped() const;

  /// Optional resolver mapping fault/retry `code` values to stable
  /// names ("SNPRT-LAUNCH"); installed by the rt layer so dumps name
  /// codes without obs depending on rt. Dumps print the raw number
  /// when no namer is installed.
  using CodeNamer = std::string_view (*)(std::uint32_t);
  void set_code_namer(CodeNamer namer);

  /// Dump destination for the automatic paths (exit-4 faults, SLO
  /// breaches). Empty = not configured.
  void set_dump_path(std::string path);
  [[nodiscard]] std::string dump_path() const;

  /// Writes the dump document {"flight":1,"reason":...,"events":[...]}.
  void dump_json(std::ostream& os, std::string_view reason) const;
  /// dump_json to `path`; returns false if the file cannot be opened.
  bool dump_to_file(const std::string& path, std::string_view reason) const;
  /// Automatic-dump entry point: writes to the configured dump path
  /// (falling back to $SNPCMP_FLIGHT_OUT) and returns the path written,
  /// or "" when no destination is configured or the write failed.
  std::string auto_dump(std::string_view reason) const;

  /// Drops all recorded events (tests). Rings stay registered.
  void clear();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Ring;
  Ring* ring_for_this_thread();

  std::atomic<bool> enabled_{true};
  /// Never-reused instance id; keys the per-thread ring cache so a
  /// recorder allocated at a destroyed one's address cannot alias it.
  const std::uint64_t id_;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<CodeNamer> namer_{nullptr};
  std::string dump_path_;
};

/// Strict SNPCMP_FLIGHT_RING parser: accepts a base-10 record count in
/// [16, FlightRecorder::kMaxCapacity] with optional surrounding
/// whitespace, and returns it rounded up to a power of two. Everything
/// else — empty/blank text, non-digits, trailing garbage ("4096x",
/// "1e4"), signs, out-of-range or overflowing values — returns nullopt,
/// which the recorder maps to kDefaultCapacity plus a one-line stderr
/// warning (never a throw: a bad env var must not take down a serving
/// process at first record()).
[[nodiscard]] std::optional<std::size_t> parse_flight_ring(
    std::string_view text);

}  // namespace snp::obs
