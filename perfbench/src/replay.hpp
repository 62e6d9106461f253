#pragma once

// UE-day replay from outside the simulator. Calls the layers' public
// functions in the order Simulator::simulate_ue_day does — plan_for,
// generate, the initial locate, per event nearest + decide, execute on a
// HandoverProcedure rebuilt from the public models, the emit, the
// post-fallback locate — so its record stream must equal run_day's byte for
// byte. The traced form times every call (see trace.hpp); the untraced form
// is the same code with no clock reads.

#include <cstdint>
#include <vector>

#include "core/simulator.hpp"
#include "core_network/duration_model.hpp"
#include "core_network/entities.hpp"
#include "core_network/failure_causes.hpp"
#include "core_network/failure_model.hpp"
#include "core_network/ho_state_machine.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/sinks.hpp"
#include "trace.hpp"
#include "util/crc32c.hpp"

namespace perfbench {

/// CRC32C over the WAL wire encoding of every record: the stream identity
/// every correctness gate compares.
class StreamCrc final : public tl::telemetry::RecordSink {
 public:
  void consume(const tl::telemetry::HandoverRecord& record) override;
  std::uint32_t crc() const noexcept { return crc_.value(); }
  std::uint64_t records() const noexcept { return records_; }
  std::uint64_t failures() const noexcept { return failures_; }

 private:
  tl::util::Crc32c crc_;
  std::uint64_t records_ = 0;
  std::uint64_t failures_ = 0;
  std::vector<std::uint8_t> buffer_;
};

struct ReplayCounts {
  std::uint64_t ue_days = 0;  ///< 4G/5G-capable UE-days replayed
  std::uint64_t events = 0;
  std::uint64_t opportunities = 0;  ///< decide() calls
  std::uint64_t handovers = 0;      ///< decisions that executed a HO
  std::uint64_t executes = 0;
  std::uint64_t failed_executes = 0;
};

class Replayer {
 public:
  /// Borrows `sim` (its world, policy and locator); rebuilds the HO
  /// procedure from FailureModel(seed*31+9), CauseCatalog(seed*31+10) and a
  /// default DurationModel. Throws std::invalid_argument for configurations
  /// the replay does not model (post-HOF recovery, fault schedules).
  explicit Replayer(const tl::core::Simulator& sim);

  /// Replays days [0, days) for the whole population into `crc`; with a
  /// `wal`, also appends every record and commits each day to it.
  ReplayCounts run(int days, StreamCrc& crc, tl::telemetry::RecordLog* wal);
  ReplayCounts run_traced(int days, StreamCrc& crc, tl::telemetry::RecordLog* wal,
                          Tracer& tracer, std::uint32_t span_sample_every);

 private:
  template <class Probe>
  ReplayCounts replay(int days, StreamCrc& crc, tl::telemetry::RecordLog* wal,
                      Probe& probe, std::uint32_t span_sample_every);
  template <class Probe>
  void replay_ue_day(const tl::devices::Ue& ue, int day, StreamCrc& crc,
                     tl::telemetry::RecordLog* wal, Probe& probe, ReplayCounts& counts);

  const tl::core::Simulator& sim_;
  tl::corenet::FailureModel failure_model_;
  tl::corenet::CauseCatalog causes_;
  tl::corenet::DurationModel durations_;
  tl::corenet::HandoverProcedure procedure_;
  tl::corenet::CoreNetwork core_;
};

}  // namespace perfbench
