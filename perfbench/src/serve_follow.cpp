// The serve-follow workload. Setup records the stream of a small study
// world. Timed, a writer commits it into a WAL at a fixed open-loop rate
// while a WalTailer follows it into StreamAggregates; then fresh tailers
// catch up on a whole WAL, closed loop. Geo, policy and simulation do no
// work in the timed phase.
//
// WAL day k carries recorded day k mod 7, whole: the writer replays the
// recorded week day by day, cycling, so the records of a committed day, and
// their sector, district and vendor skew, are those of a simulated day.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>
#include <mutex>
#include <thread>

#include "serve/wal_tailer.hpp"
#include "telemetry/record_log.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRecordedDays = 7;
constexpr std::size_t kWindowDays = 7;
/// Tailer checkpoint (and retention) cadence: the paper's four-week window.
constexpr std::uint64_t kCheckpointDays = 28;
/// The catch-up WAL: four weeks, the recorded week four times.
constexpr int kCatchupDays = 28;
/// The recorded week of 2,400 UEs holds about 460k records (+-5% by seed).
constexpr std::size_t kRecorderCapacity = 640'000;
/// Open-loop schedule: one WAL day every kIntervalS, for 75% of the run.
/// The interval is the rate at which the engine itself produces this
/// world's days: the median run_day of the recording at 4 workers, 104-122
/// ms over six seeds on a 4-vCPU VM, median 113 ms. The writer thus commits
/// days as fast as a live study of this world would.
constexpr double kIntervalS = 0.113;
constexpr double kFollowShare = 0.75;

using Records = std::vector<tl::telemetry::HandoverRecord>;

/// The recorded stream, split into its days.
struct RecordedWeek {
  Records records;
  std::vector<std::size_t> day_start;  ///< kRecordedDays + 1 offsets
};

/// Keeps the stream as the engine delivers it.
class StreamRecorder final : public tl::telemetry::RecordSink {
 public:
  void consume(const tl::telemetry::HandoverRecord& record) override {
    records_.push_back(record);
  }
  /// Reserved up front: a fixed capacity keeps peak RSS the same for
  /// every seed instead of following the vector's growth steps.
  StreamRecorder() { records_.reserve(kRecorderCapacity); }
  Records take() { return std::move(records_); }

 private:
  Records records_;
};

/// Calls `f` on each record of WAL day `k`: recorded day k mod 7.
template <class F>
void for_each_in_day(const RecordedWeek& week, int k, F&& f) {
  const auto d = static_cast<std::size_t>(k % kRecordedDays);
  for (std::size_t i = week.day_start[d]; i < week.day_start[d + 1]; ++i) f(week.records[i]);
}

/// Records and failures in WAL days [0, days).
std::uint64_t records_in_days(const RecordedWeek& week, int days) {
  std::uint64_t records = 0;
  for (int k = 0; k < days; ++k) {
    const auto d = static_cast<std::size_t>(k % kRecordedDays);
    records += week.day_start[d + 1] - week.day_start[d];
  }
  return records;
}
std::uint64_t failures_in_days(const RecordedWeek& week, int days) {
  std::uint64_t failures = 0;
  for (int k = 0; k < days; ++k) {
    for_each_in_day(week, k, [&](const auto& r) { failures += r.success ? 0 : 1; });
  }
  return failures;
}

/// Runs the engine over the recorded week and splits its stream by day.
RecordedWeek record_week(tl::core::Simulator& sim, const WorldSpec& spec, EngineRun& run) {
  StreamRecorder recorder;
  run = run_engine(sim, spec, "", &recorder);
  RecordedWeek week;
  week.records = recorder.take();
  week.day_start.assign(kRecordedDays + 1, week.records.size());
  int day = -1;
  for (std::size_t i = 0; i < week.records.size(); ++i) {
    const int d = week.records[i].day();
    if (d < day || d >= kRecordedDays) {
      throw std::runtime_error{"recorded stream is not in day order at record " +
                               std::to_string(i)};
    }
    for (; day < d; ++day) week.day_start[static_cast<std::size_t>(day + 1)] = i;
  }
  for (int d = 0; d < kRecordedDays; ++d) {
    const auto i = static_cast<std::size_t>(d);
    if (week.day_start[i] == week.day_start[i + 1]) {
      throw std::runtime_error{"recorded day " + std::to_string(d) + " holds no records"};
    }
  }
  return week;
}

void write_wal(const std::string& dir, const RecordedWeek& week, int days) {
  wal_filesystem().remove_all(dir);
  tl::telemetry::RecordLog::Options opt;
  opt.directory = dir;
  tl::telemetry::RecordLog log{wal_filesystem(), opt};
  log.open();
  for (int k = 0; k < days; ++k) {
    for_each_in_day(week, k, [&](const auto& r) { log.append(r); });
    log.commit_day(k, {});
  }
}

tl::serve::WalTailer::Options tailer_options(const std::string& wal_dir,
                                             const std::string& checkpoint_path,
                                             bool retention) {
  tl::serve::WalTailer::Options opt;
  opt.wal_directory = wal_dir;
  opt.checkpoint_path = checkpoint_path;
  opt.window_days = kWindowDays;
  opt.sketch_k = 128;
  opt.checkpoint_every_days = kCheckpointDays;
  opt.retention = retention;
  return opt;
}

/// True once the tailer has read everything committed; throws on states a
/// healthy WAL never reaches.
bool caught_up(tl::telemetry::TailState state) {
  using tl::telemetry::TailState;
  if (state == TailState::kTorn || state == TailState::kQuarantined) {
    throw std::runtime_error{std::string{"tailer stopped on a "} +
                             tl::telemetry::to_string(state) + " WAL"};
  }
  return state == TailState::kClean || state == TailState::kPending;
}

struct OpenLoop {
  std::vector<double> visible_ms;  ///< per day: sealed by the tailer - due
  std::vector<double> late_ms;     ///< per day: writer start - due
  std::vector<double> committed_ms;  ///< per day: commit_day returned - due
  std::vector<double> commit_ms;     ///< per day: commit_day call
  double commit_day_s = 0;         ///< writer time in commit_day calls
  std::uint64_t polls = 0, empty_polls = 0, days = 0;
  std::uint64_t records = 0, failures = 0;
  tl::serve::StreamAggregates::WindowReport report;
};

/// A writer thread commits day k at t0 + k * interval; this thread follows.
/// A commit and a poll never overlap: appends buffer in memory beside the
/// tailer's reads, but commit_day and poll take turns on `wal_mutex`.
/// RecordLog::follow is not safe against a commit in flight: it sizes a
/// segment file, and by the time it checks for a successor the writer may
/// have rolled past the frame it found incomplete, so a healthy WAL reads
/// as torn (and re-polling can then fail outright). The follower may only
/// observe committed states.
OpenLoop follow_open_loop(const RecordedWeek& week, int days, const std::string& dir,
                          Tracer* tracer) {
  auto& fs = wal_filesystem();
  const std::string wal_dir = dir + "/follow-wal";
  const std::string checkpoint = dir + "/follow.ckpt";
  fs.remove_all(wal_dir);
  fs.remove(checkpoint);
  tl::telemetry::RecordLog::Options log_opt;
  log_opt.directory = wal_dir;
  log_opt.max_segment_bytes = 8ull << 20;
  tl::telemetry::RecordLog log{fs, log_opt};
  log.open();
  tl::serve::WalTailer tailer{fs, tailer_options(wal_dir, checkpoint, true)};
  tailer.open();

  OpenLoop out;
  const auto n = static_cast<std::size_t>(days);
  out.late_ms.resize(n);
  out.committed_ms.resize(n);
  out.commit_ms.resize(n);
  out.visible_ms.resize(n);
  std::vector<double> due(n);
  const double t0 = wall_now() + 0.01;
  for (std::size_t k = 0; k < n; ++k) due[k] = t0 + static_cast<double>(k) * kIntervalS;

  std::mutex wal_mutex;
  std::atomic<bool> writer_done{false};
  std::atomic<bool> stop{false};
  std::exception_ptr writer_error;
  std::thread writer{[&] {
    try {
      for (std::size_t k = 0; k < n && !stop; ++k) {
        while (wall_now() < due[k]) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::max(0.0, due[k] - wall_now() - 0.0002)));
        }
        const double start = wall_now();
        out.late_ms[k] = (start - due[k]) * 1e3;
        for_each_in_day(week, static_cast<int>(k), [&](const auto& r) { log.append(r); });
        const std::lock_guard<std::mutex> lock{wal_mutex};
        const double commit_start = wall_now();
        log.commit_day(static_cast<int>(k), {});
        const double commit_end = wall_now();
        out.commit_day_s += commit_end - commit_start;
        out.commit_ms[k] = (commit_end - commit_start) * 1e3;
        out.committed_ms[k] = (commit_end - due[k]) * 1e3;
      }
    } catch (...) {
      writer_error = std::current_exception();
    }
    writer_done = true;
  }};

  const auto poll = [&] {
    const std::lock_guard<std::mutex> lock{wal_mutex};
    return tailer.poll();
  };
  try {
    int sealed = -1;
    while (sealed < days - 1) {
      const bool writer_finished = writer_done.load();
      const auto result = tracer != nullptr ? tracer->time(Call::kPoll, poll) : poll();
      ++out.polls;
      out.days += result.days_delivered;
      const int last = tailer.aggregates().last_sealed_day();
      const double now = wall_now();
      for (int d = sealed + 1; d <= last; ++d) {
        const auto i = static_cast<std::size_t>(d);
        out.visible_ms[i] = (now - due[i]) * 1e3;
      }
      sealed = last;
      if (result.days_delivered == 0) {
        ++out.empty_polls;
        caught_up(result.state);
        if (writer_finished && sealed < days - 1) {
          throw std::runtime_error{"writer stopped before committing every day"};
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  } catch (...) {
    stop = true;
    writer.join();
    throw;
  }
  writer.join();
  if (writer_error) std::rethrow_exception(writer_error);

  if (tracer != nullptr) {
    tracer->time(Call::kCheckpoint, [&] { tailer.checkpoint(); });
    out.report = tracer->time(Call::kReport, [&] { return tailer.report(); });
  } else {
    out.report = tailer.report();
  }
  out.records = tailer.aggregates().total_records();
  out.failures = tailer.aggregates().total_failures();
  fs.remove_all(wal_dir);
  fs.remove(checkpoint);
  return out;
}

/// Rank of `value` in sorted `xs` must lie within the sketch's certified
/// error of q * n (one rank of slack for discreteness).
bool within_rank_error(const std::vector<double>& xs, double q, double value,
                       double error) {
  const double n = static_cast<double>(xs.size());
  const double below = static_cast<double>(
      std::lower_bound(xs.begin(), xs.end(), value) - xs.begin());
  const double at_or_below = static_cast<double>(
      std::upper_bound(xs.begin(), xs.end(), value) - xs.begin());
  return below <= q * n + error * n + 1 && at_or_below >= q * n - error * n - 1;
}

/// Pins the calling thread to one CPU until destroyed, then restores its
/// mask. Rotating the catch-ups over the CPUs keeps one slow core of a
/// shared host from setting a whole run's single-threaded rate.
class PinToCpu {
 public:
  explicit PinToCpu(unsigned cpu) {
    saved_ok_ = pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) == 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (saved_ok_ && CPU_ISSET(cpu, &saved_)) {
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    }
  }
  ~PinToCpu() {
    if (saved_ok_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool saved_ok_ = false;
};

/// Checks the following tailer against the WAL days it was offered: its
/// record and failure totals, and its window p50/p90/p99 against the exact
/// quantiles of the window's committed records. Counts the offered records
/// as attempted.
void check_follow(const RecordedWeek& week, int days, const OpenLoop& follow,
                  Outcome& out) {
  const std::uint64_t records = records_in_days(week, days);
  out.attempted += records;
  if (follow.records != records || follow.failures != failures_in_days(week, days)) {
    out.failed += records > follow.records ? records - follow.records : 0;
    out.fail("following tailer totals differ from the committed stream");
  }
  std::vector<double> durations;
  for (int k = days - static_cast<int>(kWindowDays); k < days; ++k) {
    for_each_in_day(week, k, [&](const auto& r) {
      if (r.success) durations.push_back(static_cast<double>(r.duration_ms));
    });
  }
  std::sort(durations.begin(), durations.end());
  const auto& report = follow.report;
  if (report.sketch_count != durations.size() ||
      !within_rank_error(durations, 0.50, report.p50_ms, report.quantile_rank_error) ||
      !within_rank_error(durations, 0.90, report.p90_ms, report.quantile_rank_error) ||
      !within_rank_error(durations, 0.99, report.p99_ms, report.quantile_rank_error)) {
    out.fail("window quantiles outside the sketch's certified rank error");
  }
}

}  // namespace

CatchUp catch_up(const std::string& wal_dir, const std::string& checkpoint_path,
                 Tracer* tracer) {
  wal_filesystem().remove(checkpoint_path);
  CatchUp out;
  const double wall_start = wall_now();
  const double cpu_start = cpu_now();
  tl::serve::WalTailer tailer{wal_filesystem(),
                              tailer_options(wal_dir, checkpoint_path, false)};
  tailer.open();
  while (true) {
    const auto poll = [&] { return tailer.poll(); };
    const auto result = tracer != nullptr ? tracer->time(Call::kPoll, poll) : poll();
    ++out.polls;
    out.days += result.days_delivered;
    if (result.days_delivered == 0) ++out.empty_polls;
    if (result.state != tl::telemetry::TailState::kMore && caught_up(result.state)) break;
  }
  if (tracer != nullptr) {
    tracer->time(Call::kCheckpoint, [&] { tailer.checkpoint(); });
    tracer->time(Call::kReport, [&] { return tailer.report(); });
  }
  out.cpu_s = cpu_now() - cpu_start;
  out.wall_s = wall_now() - wall_start;
  out.records = tailer.aggregates().total_records();
  out.failures = tailer.aggregates().total_failures();
  wal_filesystem().remove(checkpoint_path);
  return out;
}

Outcome run_serve_follow(const RunContext& ctx) {
  WorldSpec spec;
  spec.scale = 0.02;
  spec.ues = 2'400;
  spec.days = kRecordedDays;
  spec.threads = std::min(4u, ctx.nproc);
  Outcome out;
  base_manifest(ctx, spec, out);
  const tl::core::StudyConfig config = world_config(spec, ctx.args.seed);
  const int follow_days = std::max(
      20, static_cast<int>(kFollowShare * ctx.args.seconds / kIntervalS));
  out.manifest.set("follow_days", static_cast<double>(follow_days));
  out.manifest.set("follow_interval_ms", kIntervalS * 1e3);

  if (ctx.args.trace) {
    SetupTimes setup;
    auto sim = build_world(config, &setup);
    traced_layers(ctx, spec, setup, *sim, out);
    EngineRun recorded;
    const RecordedWeek week = record_week(*sim, spec, recorded);
    Tracer tracer;
    const OpenLoop follow = follow_open_loop(week, follow_days, ctx.work_dir, &tracer);
    check_follow(week, follow_days, follow, out);
    const auto& poll = tracer.totals(Call::kPoll);
    Metrics& m = out.metrics;
    m.set("serve.poll_calls", static_cast<double>(poll.calls), "count");
    m.set("serve.poll_s", poll.seconds(), "s");
    m.set("serve.empty_poll_ratio",
          static_cast<double>(follow.empty_polls) / static_cast<double>(follow.polls),
          "ratio");
    m.set("serve.days_per_poll",
          static_cast<double>(follow.days) / static_cast<double>(follow.polls), "count");
    m.set("serve.checkpoint_s", tracer.totals(Call::kCheckpoint).seconds(), "s");
    m.set("serve.report_s", tracer.totals(Call::kReport).seconds(), "s");
    m.set("serve.write_commit_s", follow.commit_day_s, "s");
    m.set("bench.writer_late_ms_max", percentile(follow.late_ms, 1.0), "ms");
    return out;
  }

  // Setup, several times: build the world and record its week.
  std::unique_ptr<tl::core::Simulator> sim;
  RecordedWeek week;
  EngineRun recorded;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sim.reset();
    const double start = wall_now();
    sim = build_world(config, nullptr);
    week = record_week(*sim, spec, recorded);
    setups.push_back(wall_now() - start);
  }
  std::cerr << "[perfbench] serve-follow: recorded " << recorded.records
            << " records, median setup " << median(setups) << " s\n";
  // The WAL the catch-ups read, written outside the set-up timer.
  const std::string catchup_wal = ctx.work_dir + "/catchup-wal";
  write_wal(catchup_wal, week, kCatchupDays);

  // Timed phase 1: open-loop writer with a following tailer.
  const auto host_before = host_cpu_ticks();
  const OpenLoop follow = follow_open_loop(week, follow_days, ctx.work_dir, nullptr);

  // Timed phase 2: fresh tailers catch up on the whole catch-up WAL, until
  // the rest of the measuring time is spent (at least twice).
  std::vector<CatchUp> catchups;
  const double catchup_budget = (1.0 - kFollowShare) * ctx.args.seconds;
  double spent = 0;
  while (catchups.size() < 2 || spent < catchup_budget) {
    const PinToCpu pin{static_cast<unsigned>(catchups.size() % ctx.nproc)};
    catchups.push_back(catch_up(catchup_wal, ctx.work_dir + "/catchup.ckpt", nullptr));
    spent += catchups.back().wall_s;
  }
  const auto host_after = host_cpu_ticks();
  wal_filesystem().remove_all(catchup_wal);

  // Checks: the recorded stream is the replay's; every tailer saw every
  // record and failure; the window quantiles are within the certified error.
  Replayer replayer{*sim};
  StreamCrc reference;
  replayer.run(spec.days, reference, nullptr);
  if (reference.crc() != recorded.crc || reference.records() != recorded.records) {
    out.fail("recorded stream (crc " + hex32(recorded.crc) + ") differs from the replay (crc " +
             hex32(reference.crc()) + ")");
  }
  out.manifest.set("stream_crc", hex32(recorded.crc));
  out.manifest.set("stream_records", static_cast<double>(recorded.records));

  check_follow(week, follow_days, follow, out);
  const std::uint64_t catchup_records = records_in_days(week, kCatchupDays);
  const std::uint64_t catchup_failures = failures_in_days(week, kCatchupDays);
  for (const CatchUp& c : catchups) {
    out.attempted += catchup_records;
    if (c.records != catchup_records || c.failures != catchup_failures) {
      out.failed += catchup_records > c.records ? catchup_records - c.records : 0;
      out.fail("catch-up tailer totals differ from the committed stream");
    }
  }

  // Per-catch-up rates, reported as medians: one op is one record.
  std::vector<double> rates, cpu_per_kop;
  for (const CatchUp& c : catchups) {
    rates.push_back(static_cast<double>(catchup_records) / c.wall_s);
    cpu_per_kop.push_back(c.cpu_s * 1e3 / (static_cast<double>(catchup_records) / 1e3));
  }
  out.manifest.set("recorded_day_ms_p50", median(recorded.day_s) * 1e3);
  out.manifest.set("catchups", static_cast<double>(catchups.size()));
  out.manifest.set("writer_late_ms_max", percentile(follow.late_ms, 1.0));
  out.manifest.set("follow_polls", static_cast<double>(follow.polls));
  out.manifest.set("host_steal_pct", host_steal_pct(host_before, host_after));
  out.manifest.set("host_iowait_pct", host_iowait_pct(host_before, host_after));
  out.metrics.set("setup_s", median(setups), "s");
  out.metrics.set("ops_per_s", median(rates), "1/s");
  out.metrics.set("cpu_ms_per_kop", median(cpu_per_kop), "ms");
  out.metrics.set("day_visible_ms_p50", median(follow.visible_ms), "ms");
  out.manifest.set("day_visible_ms_p95", percentile(follow.visible_ms, 0.95));
  out.manifest.set("day_committed_ms_p50", median(follow.committed_ms));
  out.manifest.set("commit_day_ms_p50", median(follow.commit_ms));
  out.manifest.set("days_timed", static_cast<double>(follow.visible_ms.size()));
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
