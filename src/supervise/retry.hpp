#pragma once

// Standalone retry helper for single supervised operations.
//
// StudySupervisor owns the retry/bisect/quarantine machinery for shard
// *fleets*; the serve-mode tailer needs the same transient-vs-permanent
// discipline for one long-lived operation (a WAL poll, a checkpoint write)
// without dragging in shard bookkeeping. run_with_retries() is that slice:
// classify the failure with the shared taxonomy (status.hpp), back off with
// the same capped-exponential seeded-jitter schedule the supervisor uses,
// optionally arm a per-attempt deadline through a CancelToken, and give up
// with a typed Status instead of an exception.
//
// Crash semantics match the supervisor: io::SimulatedCrash is never
// absorbed — it propagates out so chaos harnesses see the process "die".

#include <cstdint>
#include <functional>
#include <string>

#include "supervise/cancellation.hpp"
#include "supervise/status.hpp"
#include "util/rng.hpp"

namespace tl::supervise {

struct RetryPolicy {
  /// Attempts = 1 + max_retries; only retryable Status codes re-attempt.
  int max_retries = 4;
  /// Capped exponential backoff between attempts, scaled by a seeded jitter
  /// in [0.5, 1.5): min(cap, initial * multiplier^(retry-1)).
  std::uint64_t backoff_initial_ms = 5;
  std::uint64_t backoff_cap_ms = 200;
  double backoff_multiplier = 2.0;
  std::uint64_t jitter_seed = 0x5eedULL;
  /// Per-attempt deadline; 0 disables. When set, a watchdog thread cancels
  /// the attempt's token with kDeadlineExceeded after this many ms — the
  /// operation must poll the token to honor it (cooperative, like shards).
  std::uint64_t attempt_deadline_ms = 0;
};

struct RetryReport {
  Status status;       ///< final outcome (ok, or the last failure)
  int attempts = 0;    ///< total attempts made (>= 1 unless max_retries < 0)
  int retries = 0;     ///< attempts beyond the first
  int timeouts = 0;    ///< attempts that ended in kDeadlineExceeded
  /// Extra attempts granted after a kResourceExhausted failure escalated
  /// the global governor to Critical (at most one per run_with_retries).
  int degraded_retries = 0;
  bool ok() const noexcept { return status.is_ok(); }
};

/// Runs `fn` until it succeeds, a permanent failure is classified, or
/// retries are exhausted. `what` labels the operation in Status messages.
/// The token passed to `fn` is fresh per attempt; poll it in long loops.
/// io::SimulatedCrash propagates without being counted as an attempt
/// outcome (the "process" is dead; there is no one left to retry).
RetryReport run_with_retries(const RetryPolicy& policy, const std::string& what,
                             const std::function<void(const CancelToken&)>& fn);

/// The backoff a given retry sleeps (jitter included); exposed for tests.
std::uint64_t retry_backoff_ms(const RetryPolicy& policy, int attempt);

/// The one capped-exponential backoff, shared with the supervisor: 0 before
/// the first attempt, else min(cap, initial * multiplier^(attempt-2))
/// scaled by a jitter factor drawn from `jitter` in [0.5, 1.5). Each caller
/// keys its own jitter stream.
std::uint64_t capped_backoff_ms(std::uint64_t initial_ms, double multiplier,
                                std::uint64_t cap_ms, int attempt,
                                util::Rng jitter);

}  // namespace tl::supervise
