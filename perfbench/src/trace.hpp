#pragma once

// In-memory span recorder for the traced run. Every timed call adds to its
// layer's totals (calls, nanoseconds); full spans (name, start, end,
// parent) are kept for a deterministic sample of UE-days up to a fixed cap,
// and written out as JSON lines when the run ends.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Call : std::uint8_t {
  kDay,           // one study day of the replay
  kUeDay,         // one UE-day of the replay
  kPlanFor,       // mobility: TraceGenerator::plan_for
  kGenerate,      // mobility: TraceGenerator::generate
  kLocate,        // ran: SectorLocator::locate
  kNearest,       // geo: Deployment::site_index().nearest
  kDecide,        // policy: HandoverPolicy::decide
  kExecute,       // core_network: HandoverProcedure::execute
  kAppend,        // telemetry: RecordLog::append
  kCommit,        // telemetry: RecordLog::commit_day
  kPoll,          // serve: WalTailer::poll
  kCheckpoint,    // serve: WalTailer::checkpoint
  kReport,        // serve: WalTailer::report
  kCount
};

const char* call_name(Call call) noexcept;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  Call name = Call::kDay;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Probe that records nothing: the untraced replay runs the same code with
/// this type and pays no clock reads.
struct NoTrace {
  template <class F>
  decltype(auto) time(Call, F&& f) {
    return std::forward<F>(f)();
  }
  void open(Call) {}
  void close() {}
  void sample(bool) {}
};

class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
    double seconds() const noexcept { return static_cast<double>(ns) * 1e-9; }
  };

  explicit Tracer(std::size_t span_cap = 1u << 18) : span_cap_(span_cap) {
    spans_.reserve(span_cap_);
  }

  /// Whether the calls that follow keep full spans (totals are always kept).
  void sample(bool keep) noexcept { keep_ = keep; }

  /// Times one call into a layer's public function.
  template <class F>
  decltype(auto) time(Call call, F&& f) {
    const std::int64_t start = now_ns();
    struct Finish {
      Tracer& tracer;
      Call call;
      std::int64_t start;
      ~Finish() { tracer.finish(call, start, now_ns()); }
    } finish{*this, call, start};
    return std::forward<F>(f)();
  }

  /// Opens a parent span (a day or a UE-day); close() ends the innermost.
  void open(Call call) { stack_.push_back({call, now_ns(), next_id_++}); }
  void close() {
    const Open top = stack_.back();
    stack_.pop_back();
    finish(top.call, top.start, now_ns(), top.id);
  }

  const Totals& totals(Call call) const noexcept {
    return totals_[static_cast<std::size_t>(call)];
  }
  std::size_t spans_kept() const noexcept { return spans_.size(); }
  std::uint64_t spans_dropped() const noexcept { return dropped_; }

  /// JSON lines, one span per line: {"id","parent","name","start_ns","end_ns"}.
  void write(const std::string& path) const;

 private:
  struct Open {
    Call call;
    std::int64_t start;
    std::uint32_t id;
  };

  void finish(Call call, std::int64_t start, std::int64_t end, std::uint32_t id = 0) {
    Totals& t = totals_[static_cast<std::size_t>(call)];
    ++t.calls;
    t.ns += end - start;
    if (!keep_) return;
    if (spans_.size() >= span_cap_) {
      ++dropped_;
      return;
    }
    Span span;
    span.start_ns = start;
    span.end_ns = end;
    span.id = id != 0 ? id : next_id_++;
    span.parent = stack_.empty() ? 0 : stack_.back().id;
    span.name = call;
    spans_.push_back(span);
  }

  std::size_t span_cap_;
  bool keep_ = false;
  std::uint32_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::array<Totals, static_cast<std::size_t>(Call::kCount)> totals_{};
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
