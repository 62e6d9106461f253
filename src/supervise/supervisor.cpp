#include "supervise/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "exec/sharded_runner.hpp"
#include "govern/governor.hpp"
#include "obs/scoped_timer.hpp"
#include "supervise/retry.hpp"

namespace tl::supervise {

using clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Watchdog: one lazily-started thread tracking (token, deadline) pairs and
// firing cancel(kDeadlineExceeded) on the ones that expire. Arm/disarm are
// O(entries) under a mutex — entries number at most a few dozen in-flight
// shard attempts, never the population.
class Watchdog {
 public:
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock{mutex_};
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void arm(CancelToken* token, std::uint64_t timeout_ms) {
    std::lock_guard<std::mutex> lock{mutex_};
    if (!thread_.joinable()) thread_ = std::thread{[this] { loop(); }};
    entries_.push_back({token, clock::now() + std::chrono::milliseconds(timeout_ms)});
    cv_.notify_all();
  }

  /// After disarm returns, the watchdog will never touch `token` again (a
  /// fire in progress holds the mutex, so disarm orders after it).
  void disarm(CancelToken* token) {
    std::lock_guard<std::mutex> lock{mutex_};
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const Entry& e) { return e.token == token; }),
                   entries_.end());
  }

 private:
  struct Entry {
    CancelToken* token;
    clock::time_point deadline;
  };

  void loop() {
    std::unique_lock<std::mutex> lock{mutex_};
    while (!stop_) {
      if (entries_.empty()) {
        cv_.wait(lock, [this] { return stop_ || !entries_.empty(); });
        continue;
      }
      clock::time_point next = entries_.front().deadline;
      for (const Entry& e : entries_) next = std::min(next, e.deadline);
      cv_.wait_until(lock, next);
      const clock::time_point now = clock::now();
      entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                    [&](const Entry& e) {
                                      if (e.deadline > now) return false;
                                      e.token->cancel(StatusCode::kDeadlineExceeded);
                                      return true;
                                    }),
                     entries_.end());
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;
  std::thread thread_;
  bool stop_ = false;
};

namespace {

/// RAII: a deadline armed on entry is disarmed on every exit path.
class DeadlineGuard {
 public:
  DeadlineGuard(Watchdog* watchdog, CancelToken* token,
                std::uint64_t timeout_ms)
      : watchdog_(timeout_ms > 0 ? watchdog : nullptr), token_(token) {
    if (watchdog_ != nullptr) watchdog_->arm(token_, timeout_ms);
  }
  ~DeadlineGuard() {
    if (watchdog_ != nullptr) watchdog_->disarm(token_);
  }
  DeadlineGuard(const DeadlineGuard&) = delete;
  DeadlineGuard& operator=(const DeadlineGuard&) = delete;

 private:
  Watchdog* watchdog_;
  CancelToken* token_;
};

std::size_t live_items(const std::vector<std::uint32_t>& skip, std::size_t first,
                       std::size_t last) {
  const auto lo = std::lower_bound(skip.begin(), skip.end(),
                                   static_cast<std::uint32_t>(first));
  const auto hi = std::lower_bound(skip.begin(), skip.end(),
                                   static_cast<std::uint32_t>(last));
  return (last - first) - static_cast<std::size_t>(hi - lo);
}

void insert_sorted(std::vector<std::uint32_t>& skip, std::uint32_t item) {
  skip.insert(std::lower_bound(skip.begin(), skip.end(), item), item);
}

}  // namespace

struct StudySupervisor::ShardState {
  std::size_t first = 0;
  std::size_t last = 0;
  int attempt = 0;        ///< attempts in the current bisection round
  int total_attempts = 0;
  int bisection_rounds = 0;
  bool degraded_retry_granted = false;  ///< the one post-escalation re-run
  std::vector<ShardAttempt> trail;
  Status round_status;
  std::unique_ptr<CancelToken> token = std::make_unique<CancelToken>();
};

StudySupervisor::StudySupervisor(SupervisorOptions options)
    : options_(std::move(options)), watchdog_(std::make_unique<Watchdog>()) {
  exec::ShardedDayRunner::Options ro;
  ro.threads = options_.threads;
  ro.shards_per_thread = options_.shards_per_thread;
  runner_ = std::make_unique<exec::ShardedDayRunner>(ro);
}

StudySupervisor::~StudySupervisor() = default;

unsigned StudySupervisor::thread_count() const noexcept {
  return runner_->thread_count();
}

std::size_t StudySupervisor::shard_count(std::size_t item_count) const noexcept {
  return runner_->shard_count(item_count);
}

void StudySupervisor::resolve_obs() {
  const std::uint64_t epoch = obs::global_epoch();
  if (epoch == obs_epoch_) return;
  obs_epoch_ = epoch;
  obs::MetricsRegistry* reg = obs::global_registry();
  if (reg == nullptr) {
    obs_attempts_ = obs::Counter{};
    obs_retries_ = obs::Counter{};
    obs_timeouts_ = obs::Counter{};
    obs_probes_ = obs::Counter{};
    obs_quarantined_ = obs::Counter{};
    obs_quarantine_size_ = obs::Gauge{};
    obs_day_seconds_ = obs::Histogram{};
    return;
  }
  obs_attempts_ = reg->counter("tl_supervise_shard_attempts_total",
                               "Shard attempts, including first tries");
  obs_retries_ = reg->counter("tl_supervise_retries_total",
                              "Shard attempts beyond each shard's first");
  obs_timeouts_ = reg->counter("tl_supervise_timeouts_total",
                               "Shard attempts cancelled by the watchdog");
  obs_probes_ = reg->counter("tl_supervise_bisection_probes_total",
                             "Bisection probes run to isolate poison items");
  obs_quarantined_ = reg->counter("tl_supervise_quarantined_total",
                                  "Items condemned to quarantine");
  obs_quarantine_size_ = reg->gauge("tl_supervise_quarantine_size",
                                    "Items in the cumulative quarantine set");
  obs_day_seconds_ =
      reg->histogram("tl_supervise_day_seconds",
                     obs::MetricsRegistry::latency_edges_s(),
                     "Wall time per supervised day");
}

std::uint64_t StudySupervisor::backoff_ms(int day, std::size_t shard,
                                          int attempt) const {
  return capped_backoff_ms(
      options_.backoff_initial_ms, options_.backoff_multiplier,
      options_.backoff_cap_ms, attempt,
      util::Rng::derive(options_.jitter_seed, static_cast<std::uint64_t>(day),
                        static_cast<std::uint64_t>(shard),
                        static_cast<std::uint64_t>(attempt)));
}

std::size_t StudySupervisor::isolate(int day, std::size_t shard,
                                     const ShardState& state,
                                     std::vector<std::uint32_t>& skip,
                                     DayReport& report, const ProbeFn& probe) {
  std::size_t found = 0;
  const auto probe_range = [&](std::size_t first, std::size_t last) -> Status {
    ++report.bisection_probes;
    ++summary_.bisection_probes;
    CancelToken token;
    DeadlineGuard deadline{watchdog_.get(), &token, options_.shard_deadline_ms};
    try {
      probe(first, last, &token, skip);
      return Status::ok();
    } catch (...) {
      return classify_exception(std::current_exception());
    }
  };
  // Depth-first halving. Both halves of a failing range are probed — a shard
  // can hide several poison items. A range that fails while both its halves
  // pass contributes nothing (interaction/flaky), and the caller re-runs the
  // shard instead.
  const std::function<void(std::size_t, std::size_t)> descend =
      [&](std::size_t first, std::size_t last) {
        if (live_items(skip, first, last) == 0) return;
        const Status status = probe_range(first, last);
        if (status.is_ok()) return;
        if (live_items(skip, first, last) == 1) {
          std::uint32_t item = 0;
          for (std::size_t i = first; i < last; ++i) {
            if (!std::binary_search(skip.begin(), skip.end(),
                                    static_cast<std::uint32_t>(i))) {
              item = static_cast<std::uint32_t>(i);
              break;
            }
          }
          insert_sorted(skip, item);
          QuarantinedItem q;
          q.item = item;
          q.day = day;
          q.shard = shard;
          q.status = status;
          q.trail = state.trail;
          report.quarantined.push_back(std::move(q));
          if (options_.on_quarantine) options_.on_quarantine(report.quarantined.back());
          ++found;
          return;
        }
        const std::size_t mid = first + (last - first) / 2;
        descend(first, mid);
        descend(mid, last);
      };
  descend(state.first, state.last);
  return found;
}

DayReport StudySupervisor::run_day(int day, std::size_t item_count,
                                   std::span<const std::uint32_t> quarantined,
                                   const SimulateFn& simulate, const ProbeFn& probe,
                                   const MergeFn& merge) {
  resolve_obs();
  obs::ScopedTimer day_span{obs_day_seconds_};
  const std::uint64_t attempts_before = summary_.shard_attempts;
  DayReport report;
  report.day = day;
  if (item_count == 0) {
    ++summary_.days;
    day_span.cancel();
    return report;
  }

  const std::size_t shards = runner_->shard_count(item_count);
  report.shards = shards;
  std::vector<ShardState> states(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    states[shard].first = shard * item_count / shards;
    states[shard].last = (shard + 1) * item_count / shards;
  }

  std::vector<std::uint32_t> skip(quarantined.begin(), quarantined.end());
  std::sort(skip.begin(), skip.end());
  skip.erase(std::unique(skip.begin(), skip.end()), skip.end());

  std::vector<std::size_t> pending(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) pending[shard] = shard;

  exec::ThreadPool& pool = runner_->pool();
  while (!pending.empty()) {
    // One round: launch every pending shard, then barrier on the round.
    // Failed shards are re-queued for the next round; no merge happens until
    // the pending set drains, so retry scheduling can never reorder output.
    std::vector<std::pair<std::size_t, std::future<void>>> inflight;
    inflight.reserve(pending.size());
    for (const std::size_t shard : pending) {
      ShardState& st = states[shard];
      const int attempt = ++st.attempt;
      ++st.total_attempts;
      ++summary_.shard_attempts;
      if (st.total_attempts > 1) {
        ++report.retries;
        ++summary_.retries;
      }
      inflight.emplace_back(
          shard, pool.submit([this, &st, &simulate, &skip, day, shard, attempt] {
            const std::uint64_t backoff = backoff_ms(day, shard, attempt);
            if (backoff > 0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
            }
            st.token->reset();
            DeadlineGuard deadline{watchdog_.get(), st.token.get(),
                                   options_.shard_deadline_ms};
            try {
              if (options_.injector != nullptr) {
                options_.injector->on_task_begin(day, shard, attempt, st.token.get());
              }
              simulate(shard, st.first, st.last, st.token.get(), skip);
              st.round_status = Status::ok();
            } catch (...) {
              // classify_exception rethrows io::SimulatedCrash, which then
              // parks in the future and unwinds out of run_day below —
              // supervision never absorbs a process death.
              st.round_status = classify_exception(std::current_exception());
            }
          }));
    }
    pending.clear();

    // Round barrier. get() rethrows anything classify refused to absorb.
    std::exception_ptr fatal;
    for (auto& [shard, future] : inflight) {
      try {
        future.get();
      } catch (...) {
        if (fatal == nullptr) fatal = std::current_exception();
      }
    }
    if (fatal != nullptr) std::rethrow_exception(fatal);

    // React in ascending shard order so escalation (and therefore the
    // quarantine report) is deterministic.
    for (auto& [shard, future] : inflight) {
      ShardState& st = states[shard];
      const Status status = st.round_status;
      if (status.is_ok()) continue;

      st.trail.push_back({st.total_attempts, status.code(), status.message()});
      if (status.code() == StatusCode::kDeadlineExceeded) {
        ++report.timeouts;
        ++summary_.timeouts;
      }
      if (status.retryable()) {
        ++summary_.transient_failures;
      } else {
        ++summary_.permanent_failures;
      }

      if (status.retryable() && st.attempt <= options_.max_retries) {
        pending.push_back(shard);
        continue;
      }

      // An allocation failure is not blindly retryable, but when a global
      // governor is installed it earns exactly one re-run after the
      // governor escalates to Critical (so the re-run executes with
      // maximum shedding instead of re-failing the same way). Uncounted
      // against the transient retry budget; recorded in the shard trail.
      if (govern::MemoryBudget* governor = govern::global_governor();
          governor != nullptr && !st.degraded_retry_granted &&
          is_retryable_with_degradation(status.code())) {
        governor->record_allocation_failure();
        st.degraded_retry_granted = true;
        ++report.degraded_retries;
        ++summary_.degraded_retries;
        pending.push_back(shard);
        continue;
      }

      // Deterministic (or retry-exhausted) failure: isolate the culprits.
      if (!options_.quarantine_enabled) {
        throw SupervisionError{"shard " + std::to_string(shard) + " of day " +
                               std::to_string(day) +
                               " failed and quarantine is disabled: " +
                               status.to_string()};
      }
      if (++st.bisection_rounds > options_.max_bisection_rounds) {
        throw SupervisionError{"shard " + std::to_string(shard) + " of day " +
                               std::to_string(day) + " still failing after " +
                               std::to_string(options_.max_bisection_rounds) +
                               " bisection rounds: " + status.to_string()};
      }
      isolate(day, shard, st, skip, report, probe);
      // Whether bisection condemned items or the failure refused to
      // reproduce (flaky beyond the retry budget), re-run the shard over
      // the survivors with a fresh retry budget.
      st.attempt = 0;
      pending.push_back(shard);
    }
    std::sort(pending.begin(), pending.end());
    pending.erase(std::unique(pending.begin(), pending.end()), pending.end());
  }

  // Every shard has a staged result: fold them in, in canonical order.
  for (std::size_t shard = 0; shard < shards; ++shard) merge(shard);

  for (std::size_t shard = 0; shard < shards; ++shard) {
    ShardOutcome outcome;
    outcome.shard = shard;
    outcome.first = states[shard].first;
    outcome.last = states[shard].last;
    outcome.status = Status::ok();
    outcome.attempts = states[shard].total_attempts;
    outcome.trail = std::move(states[shard].trail);
    report.outcomes.push_back(std::move(outcome));
  }
  std::sort(report.quarantined.begin(), report.quarantined.end(),
            [](const QuarantinedItem& a, const QuarantinedItem& b) {
              return a.item < b.item;
            });

  ++summary_.days;
  if (report.degraded()) ++summary_.degraded_days;
  for (const QuarantinedItem& q : report.quarantined) {
    summary_.quarantine.items.push_back(q);
  }
  std::sort(summary_.quarantine.items.begin(), summary_.quarantine.items.end(),
            [](const QuarantinedItem& a, const QuarantinedItem& b) {
              return a.item != b.item ? a.item < b.item : a.day < b.day;
            });

  obs_attempts_.inc(summary_.shard_attempts - attempts_before);
  obs_retries_.inc(report.retries);
  obs_timeouts_.inc(report.timeouts);
  obs_probes_.inc(report.bisection_probes);
  obs_quarantined_.inc(report.quarantined.size());
  obs_quarantine_size_.set(static_cast<double>(summary_.quarantine.items.size()));
  return report;
}

}  // namespace tl::supervise
