// snp::rt — structured error taxonomy for the fault-tolerance runtime.
//
// The framework streams multi-gigabyte databases through chunked device
// pipelines (paper Section VI-A) and shards them across DGX-class boxes
// (Section VII) — regimes where transient allocation failures, stuck
// launches, corrupt inputs, and dead devices are operational facts, not
// exceptional surprises. Ad-hoc std::runtime_error strings cannot drive a
// recovery policy: the retry/failover/degrade machinery (rt/recovery.hpp)
// needs to know *which* failure occurred and whether re-executing the
// operation can possibly help. This header is that contract: a small,
// stable set of error codes, a Status value that can cross layers without
// unwinding, and an Error exception that carries the Status through
// layers that still use exceptions.
//
// Code stability: the SNPRT-* strings below are a public interface — the
// CLI prints them on stderr, tests and operators match on them, and
// docs/robustness.md registers them. Never renumber or rename; only
// append.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace snp::rt {

/// Failure classes of the execution stack. Kept deliberately coarse: a
/// recovery policy acts on the class, not the message.
enum class ErrorCode : std::uint8_t {
  kOk = 0,         ///< not an error
  kAlloc,          ///< device/host buffer allocation failed
  kH2d,            ///< host-to-device transfer failed
  kLaunch,         ///< kernel launch / enqueue failed
  kReadback,       ///< device-to-host readback failed
  kTimeout,        ///< operation exceeded its deadline (watchdog)
  kIoCorrupt,      ///< input file truncated/corrupted (offset in Status)
  kShardLost,      ///< a multi-GPU shard's device died mid-run
  kPoolTask,       ///< a host pipeline stage (execute/drain) failed
  kExhausted,      ///< bounded retries (or the op deadline) ran out
  kCancelled,      ///< run abandoned because a sibling failure poisoned it
  kInternal,       ///< invariant violation — a bug, never retried
  kOverload,       ///< admission control shed the request (queue full)
  kDeadline,       ///< the request's end-to-end deadline expired
};

/// The stable wire/CLI name of a code ("SNPRT-ALLOC", "SNPRT-LAUNCH", ...).
[[nodiscard]] std::string_view code_name(ErrorCode code);

/// Whether re-executing the failed operation can succeed (transient
/// classes: alloc, h2d, launch, readback, timeout, pool task). Corruption,
/// lost shards, exhaustion, and internal errors are permanent at the
/// operation level — they escalate to failover/degrade instead.
[[nodiscard]] bool is_retryable(ErrorCode code);

/// A result status. `offset` is meaningful for kIoCorrupt (byte offset at
/// which parsing stopped); `injected` marks faults planted by the
/// deterministic injection framework (rt/fault.hpp) — injected faults are
/// transient by construction, so retry treats them as retryable even when
/// the code class is not.
struct Status {
  ErrorCode code = ErrorCode::kOk;
  std::string message;
  std::uint64_t offset = 0;
  bool injected = false;

  [[nodiscard]] bool ok() const { return code == ErrorCode::kOk; }
  /// "[SNPRT-IO-CORRUPT] truncated header (byte 12)" — the stable render
  /// used by Error::what() and the CLI.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] static Status success() { return {}; }
  [[nodiscard]] static Status failure(ErrorCode code, std::string message,
                                      std::uint64_t offset = 0) {
    Status s;
    s.code = code;
    s.message = std::move(message);
    s.offset = offset;
    return s;
  }
};

/// Whether the retry rung may re-attempt an operation that failed with
/// `s`: transient code classes plus anything the fault injector planted.
[[nodiscard]] inline bool is_retryable(const Status& s) {
  return is_retryable(s.code) || s.injected;
}

/// Exception carrier for layers that unwind. Derives from
/// std::runtime_error so legacy catch sites keep working; what() is
/// Status::to_string(), so the stable SNPRT-* code always reaches stderr.
class Error : public std::runtime_error {
 public:
  explicit Error(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}
  Error(ErrorCode code, std::string message, std::uint64_t offset = 0)
      : Error(Status::failure(code, std::move(message), offset)) {}

  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] ErrorCode code() const { return status_.code; }

 private:
  Status status_;
};

}  // namespace snp::rt
