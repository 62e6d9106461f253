// The study workloads: a world simulated day by day through the public
// Simulator API, repeated from day 0 until the measuring time is spent.

#include <cstdlib>
#include <iostream>

#include "geo/census.hpp"
#include "supervise/supervisor.hpp"
#include "telemetry/record_log.hpp"
#include "workloads.hpp"

namespace perfbench {

void Outcome::fail(const std::string& why) {
  correct = false;
  std::cerr << "[perfbench] FAIL: " << why << "\n";
}

tl::core::StudyConfig world_config(const WorldSpec& spec, std::uint64_t seed) {
  tl::core::StudyConfig cfg;
  cfg.scale = spec.scale;
  cfg.days = spec.days;
  cfg.seed = seed;
  cfg.census.districts = 320;
  cfg.census.total_population = 47'000'000;
  cfg.finalize();
  // One fixed country, site layout and subscriber base for every seed: the
  // seed draws the UEs' mobility plans and traces and the RAN/HO
  // randomness. Who lives where sets how dense a grid the lookups walk, and
  // at 10k UEs it moved a run's cost by a fifth from seed to seed.
  cfg.census.seed = kWorldSeed * 31 + 1;
  cfg.deployment.seed = kWorldSeed * 31 + 2;
  cfg.catalog.seed = kWorldSeed * 31 + 3;
  cfg.population.seed = kWorldSeed * 31 + 4;
  cfg.population.count = spec.ues;
  cfg.policy.kind = spec.policy;
  cfg.threads = spec.threads;
  return cfg;
}

std::unique_ptr<tl::core::Simulator> build_world(const tl::core::StudyConfig& config,
                                                 SetupTimes* stages) {
  if (stages != nullptr) {
    double t = wall_now();
    const auto lap = [&t] {
      const double now = wall_now();
      const double elapsed = now - t;
      t = now;
      return elapsed;
    };
    const tl::geo::Country country = tl::geo::synthesize_country(config.census);
    stages->country_s = lap();
    const auto deployment = tl::topology::Deployment::build(country, config.deployment);
    stages->deployment_s = lap();
    const auto catalog = tl::devices::Catalog::build(config.catalog);
    stages->catalog_s = lap();
    const auto population = tl::devices::Population::build(country, catalog, config.population);
    stages->population_s = lap();
    const auto coverage = tl::ran::CoverageMap::build(country, deployment, config.coverage);
    stages->coverage_s = lap();
  }
  const double start = wall_now();
  auto sim = std::make_unique<tl::core::Simulator>(config);
  if (stages != nullptr) stages->simulator_s = wall_now() - start;
  return sim;
}

EngineRun run_engine(tl::core::Simulator& sim, const WorldSpec& spec,
                     const std::string& wal_dir, tl::telemetry::RecordSink* extra) {
  std::unique_ptr<tl::telemetry::RecordLog> log;
  std::unique_ptr<tl::telemetry::DurableRecordSink> durable;
  if (!wal_dir.empty()) {
    wal_filesystem().remove_all(wal_dir);
    tl::telemetry::RecordLog::Options opt;
    opt.directory = wal_dir;
    log = std::make_unique<tl::telemetry::RecordLog>(wal_filesystem(),
                                                     opt);
    log->open();
    durable = std::make_unique<tl::telemetry::DurableRecordSink>(*log);
  }
  std::unique_ptr<tl::supervise::StudySupervisor> supervisor;
  if (spec.supervised) {
    tl::supervise::SupervisorOptions opt;
    opt.threads = spec.threads;
    supervisor = std::make_unique<tl::supervise::StudySupervisor>(opt);
  }

  StreamCrc crc;
  tl::core::DayCheckpoint day0;
  day0.seed = sim.config().seed;
  sim.restore(day0);
  // Detaches everything this pass attached, on every exit path.
  struct Detach {
    tl::core::Simulator& sim;
    std::vector<tl::telemetry::RecordSink*> sinks;
    ~Detach() {
      sim.set_supervisor(nullptr);
      for (auto* sink : sinks) sim.remove_sink(sink);
    }
  } detach{sim, {&crc}};
  sim.add_sink(&crc);
  if (extra != nullptr) {
    sim.add_sink(extra);
    detach.sinks.push_back(extra);
  }
  if (durable != nullptr) {
    sim.attach_durable_log(durable.get());
    detach.sinks.push_back(durable.get());
  }
  sim.set_supervisor(supervisor.get());

  EngineRun run;
  const double wall_start = wall_now();
  const double cpu_start = cpu_now();
  for (int day = 0; day < spec.days; ++day) {
    const double day_start = wall_now();
    sim.run_day(day);
    run.day_s.push_back(wall_now() - day_start);
  }
  run.cpu_s = cpu_now() - cpu_start;
  run.wall_s = wall_now() - wall_start;

  run.crc = crc.crc();
  run.records = crc.records();
  run.ue_days = static_cast<std::uint64_t>(sim.population().size()) *
                static_cast<std::uint64_t>(spec.days);
  if (supervisor != nullptr) {
    run.shard_attempts = supervisor->summary().shard_attempts;
    run.retries = supervisor->summary().retries;
  }
  return run;
}

void base_manifest(const RunContext& ctx, const WorldSpec& spec, Outcome& out) {
  Manifest& m = out.manifest;
  m.set("workload", ctx.args.workload);
  m.set("seed", std::to_string(ctx.args.seed));
  m.set("trace", ctx.args.trace ? 1.0 : 0.0);
  m.set("seconds", static_cast<double>(ctx.args.seconds));
  m.set("build_type", TL_BENCH_BUILD_TYPE);
  m.set("compiler", TL_BENCH_COMPILER);
  m.set("nproc", static_cast<double>(ctx.nproc));
  m.set("scale", spec.scale);
  m.set("ues", static_cast<double>(spec.ues));
  m.set("days", static_cast<double>(spec.days));
  m.set("policy", std::string{tl::policy::to_string(spec.policy)});
  m.set("workers", static_cast<double>(spec.threads));
  m.set("supervised", spec.supervised ? "yes" : "no");
  m.set("wal", spec.wal ? "yes" : "no");
  m.set("wal_filesystem", "memory");  // see memfs.hpp
  // run.py reads the revision with git; "none" outside a git checkout.
  const char* revision = std::getenv("PERFBENCH_GIT_REVISION");
  m.set("git_revision", revision != nullptr && *revision != '\0' ? revision : "none");
  m.set("src_crc32c", tree_crc32c("src"));
}

Outcome run_study(const RunContext& ctx, const WorldSpec& spec) {
  Outcome out;
  base_manifest(ctx, spec, out);
  const tl::core::StudyConfig config = world_config(spec, ctx.args.seed);

  if (ctx.args.trace) {
    SetupTimes setup;
    auto sim = build_world(config, &setup);
    traced_layers(ctx, spec, setup, *sim, out);
    return out;
  }

  // Setup, several times: the median is steadier than one build, and every
  // build is the full public construction path.
  std::vector<double> setups;
  std::unique_ptr<tl::core::Simulator> sim;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sim.reset();
    const double start = wall_now();
    sim = build_world(config, nullptr);
    setups.push_back(wall_now() - start);
  }
  std::cerr << "[perfbench] " << ctx.args.workload << ": world built ("
            << sim->deployment().sectors().size() << " sectors), median setup "
            << median(setups) << " s\n";

  // Timed passes: the whole study from day 0, repeated until the measuring
  // time is spent (at least twice, so the stream's determinism is checked).
  const std::string wal_dir = spec.wal ? ctx.work_dir + "/study-wal" : "";
  std::vector<EngineRun> runs;
  double measured = 0;
  const auto host_before = host_cpu_ticks();
  while (runs.size() < 2 || measured < ctx.args.seconds) {
    runs.push_back(run_engine(*sim, spec, wal_dir, nullptr));
    measured += runs.back().wall_s;
    std::cerr << "[perfbench] pass " << runs.size() << ": "
              << static_cast<double>(runs.back().ue_days) / runs.back().wall_s
              << " UE-days/s, " << runs.back().cpu_s << " s CPU\n";
    if (!wal_dir.empty()) wal_filesystem().remove_all(wal_dir);
  }
  const auto host_after = host_cpu_ticks();

  // Reference stream: the untraced replay of the same seed.
  Replayer replayer{*sim};
  StreamCrc reference;
  replayer.run(spec.days, reference, nullptr);
  out.manifest.set("stream_crc", hex32(reference.crc()));
  out.manifest.set("stream_records", static_cast<double>(reference.records()));
  out.manifest.set("passes", static_cast<double>(runs.size()));
  out.manifest.set("host_steal_pct", host_steal_pct(host_before, host_after));
  out.manifest.set("host_iowait_pct", host_iowait_pct(host_before, host_after));

  // Per-pass rates, reported as medians: a burst of host noise spoils one
  // pass, not the run.
  std::vector<double> rates, cpu_per_kue_day, day_ms;
  for (const EngineRun& run : runs) {
    const double ue_days = static_cast<double>(run.ue_days);
    rates.push_back(ue_days / run.wall_s);
    cpu_per_kue_day.push_back(run.cpu_s * 1e3 / (ue_days / 1e3));
    out.attempted += run.ue_days;
    for (const double s : run.day_s) day_ms.push_back(s * 1e3);
    if (run.crc != reference.crc() || run.records != reference.records()) {
      out.failed += run.ue_days;
      out.fail("engine stream (crc " + hex32(run.crc) + ", " +
               std::to_string(run.records) + " records) differs from the replay's (crc " +
               hex32(reference.crc()) + ", " +
               std::to_string(reference.records()) + " records)");
    }
  }
  out.metrics.set("setup_s", median(setups), "s");
  out.metrics.set("ops_per_s", median(rates), "1/s");
  out.metrics.set("cpu_ms_per_kop", median(cpu_per_kue_day), "ms");
  out.metrics.set("day_visible_ms_p50", median(day_ms), "ms");
  out.manifest.set("day_visible_ms_p95", percentile(day_ms, 0.95));
  out.manifest.set("days_timed", static_cast<double>(day_ms.size()));
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
