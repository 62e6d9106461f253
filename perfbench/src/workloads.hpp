#pragma once

// The benchmark's workloads and the pieces they share. Each workload builds
// its world from the seed, measures for the requested seconds, checks its
// outputs, and fills one Outcome: end-to-end metrics with tracing off,
// per-layer metrics with tracing on.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "args.hpp"
#include "core/simulator.hpp"
#include "memfs.hpp"
#include "policy/config.hpp"
#include "replay.hpp"
#include "system.hpp"
#include "trace.hpp"

namespace perfbench {

/// World builds per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;
/// Seed of the fixed country, site layout and subscriber base (see
/// world_config).
inline constexpr std::uint64_t kWorldSeed = 42;

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  Manifest manifest;

  /// Marks the run incorrect and reports why on stderr.
  void fail(const std::string& why);
};

struct RunContext {
  Args args;
  std::string work_dir;   ///< scratch directory for WALs, removed at exit
  std::string trace_dir;  ///< where traced runs write their spans
  unsigned nproc = 1;
};

/// One study world: the bench world of the repository's experiments (320
/// districts, 47M census population) at `scale`, with `ues` UEs.
struct WorldSpec {
  double scale = 0.02;
  std::uint32_t ues = 0;
  int days = 1;
  tl::policy::PolicyKind policy = tl::policy::PolicyKind::kCalibratedBaseline;
  unsigned threads = 1;     ///< engine workers (supervisor workers when supervised)
  bool supervised = false;  ///< run days through a StudySupervisor
  bool wal = false;         ///< durable WAL attached to the simulator
};

tl::core::StudyConfig world_config(const WorldSpec& spec, std::uint64_t seed);

/// Wall seconds of each public build function (synthesize_country,
/// Deployment/Catalog/Population/CoverageMap::build), then of the Simulator
/// constructor that repeats them (plus plans and coverage calibration).
struct SetupTimes {
  double country_s = 0, deployment_s = 0, catalog_s = 0, population_s = 0,
         coverage_s = 0, simulator_s = 0;
};
std::unique_ptr<tl::core::Simulator> build_world(const tl::core::StudyConfig& config,
                                                 SetupTimes* stages);

/// One pass of the engine over days [0, days) from a restored day 0.
struct EngineRun {
  std::uint32_t crc = 0;
  std::uint64_t records = 0;
  std::uint64_t ue_days = 0;
  std::vector<double> day_s;  ///< wall seconds per run_day
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t shard_attempts = 0;  ///< supervised runs only
  std::uint64_t retries = 0;
};
/// `wal_dir` empty: no WAL. `extra` (may be null) also receives the stream.
EngineRun run_engine(tl::core::Simulator& sim, const WorldSpec& spec,
                     const std::string& wal_dir, tl::telemetry::RecordSink* extra);

/// A fresh WalTailer reading a whole WAL until it is clean.
struct CatchUp {
  std::uint64_t records = 0;
  std::uint64_t failures = 0;
  std::uint64_t days = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  double wall_s = 0;
  double cpu_s = 0;
};
CatchUp catch_up(const std::string& wal_dir, const std::string& checkpoint_path,
                 Tracer* tracer);

/// Traced-run layers shared by every workload: an untraced and a traced
/// replay (each writing a WAL), an instrumented engine pass whose stream
/// must match both, and a tailer catching up on the traced replay's WAL. Fills the
/// per-layer metrics and checks stream identity.
void traced_layers(const RunContext& ctx, const WorldSpec& spec,
                   const SetupTimes& setup, tl::core::Simulator& sim, Outcome& out);

/// The replay must reproduce run_day's stream on a tiny world under every
/// policy kind. Returns false (after reporting) on any mismatch.
bool self_test(std::uint64_t seed);

Outcome run_study(const RunContext& ctx, const WorldSpec& spec);
Outcome run_serve_follow(const RunContext& ctx);

/// Manifest fields every workload records.
void base_manifest(const RunContext& ctx, const WorldSpec& spec, Outcome& out);

}  // namespace perfbench
