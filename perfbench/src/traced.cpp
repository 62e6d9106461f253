// The traced run's per-layer measurements, shared by every workload, and
// the replay self-test.

#include <filesystem>
#include <fstream>
#include <iostream>

#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

const char* call_name(Call call) noexcept {
  switch (call) {
    case Call::kDay: return "replay.day";
    case Call::kUeDay: return "replay.ue_day";
    case Call::kPlanFor: return "mobility.plan_for";
    case Call::kGenerate: return "mobility.generate";
    case Call::kLocate: return "ran.locate";
    case Call::kNearest: return "geo.nearest";
    case Call::kDecide: return "policy.decide";
    case Call::kExecute: return "core_network.execute";
    case Call::kAppend: return "telemetry.append";
    case Call::kCommit: return "telemetry.commit_day";
    case Call::kPoll: return "serve.poll";
    case Call::kCheckpoint: return "serve.checkpoint";
    case Call::kReport: return "serve.report";
    case Call::kCount: break;
  }
  return "?";
}

void Tracer::write(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"name\": \""
        << call_name(s.name) << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  if (!out) throw std::runtime_error{"cannot write spans to " + path};
}

namespace {

tl::telemetry::RecordLog::Options wal_options(const std::string& dir) {
  tl::telemetry::RecordLog::Options opt;
  opt.directory = dir;
  return opt;
}

double ns_per_call(const Tracer::Totals& t) {
  return t.calls ? static_cast<double>(t.ns) / static_cast<double>(t.calls) : 0.0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void traced_layers(const RunContext& ctx, const WorldSpec& spec,
                   const SetupTimes& setup, tl::core::Simulator& sim, Outcome& out) {
  auto& fs = wal_filesystem();
  Replayer replayer{sim};

  // Untraced and traced replays over the same days, each writing its own
  // WAL: the difference of their walls is the tracing overhead.
  const std::string plain_dir = ctx.work_dir + "/replay-plain";
  const std::string traced_dir = ctx.work_dir + "/replay-traced";
  StreamCrc plain_crc;
  double plain_wall = 0;
  {
    tl::telemetry::RecordLog log{fs, wal_options(plain_dir)};
    log.open();
    const double start = wall_now();
    replayer.run(spec.days, plain_crc, &log);
    plain_wall = wall_now() - start;
  }
  fs.remove_all(plain_dir);

  Tracer tracer;
  StreamCrc traced_crc;
  ReplayCounts counts;
  double traced_wall = 0;
  {
    tl::telemetry::RecordLog log{fs, wal_options(traced_dir)};
    log.open();
    const double start = wall_now();
    // Full spans for one UE-day in 64; totals cover every call.
    counts = replayer.run_traced(spec.days, traced_crc, &log, tracer, 64);
    traced_wall = wall_now() - start;
  }
  const std::uint64_t wal_bytes = fs.bytes_under(traced_dir);

  // The serve layer catching up on the traced replay's WAL.
  const CatchUp serve = catch_up(traced_dir, ctx.work_dir + "/serve.ckpt", &tracer);
  fs.remove_all(traced_dir);

  // Instrumented engine passes. The replays ran first: once a registry has
  // been installed the policy's counters point into it, and nothing below
  // calls into the policy after the registry goes out of scope.
  tl::obs::MetricsRegistry registry;
  EngineRun engine;
  double shard_sim_s = 0, merge_s = 0, unsupervised_wall = 0;
  {
    tl::obs::ScopedGlobalRegistry install{&registry};
    const std::string wal_dir = spec.wal ? ctx.work_dir + "/engine-wal" : "";
    engine = run_engine(sim, spec, wal_dir, nullptr);
    if (!wal_dir.empty()) fs.remove_all(wal_dir);
    // The supervised path books its days into tl_supervise_day_seconds,
    // not the shard histograms; the shard stages of a supervised workload
    // come from an unsupervised pass at the same worker count.
    EngineRun unsupervised = engine;
    if (spec.supervised) {
      WorldSpec plain = spec;
      plain.supervised = false;
      unsupervised = run_engine(sim, plain, "", nullptr);
      if (unsupervised.crc != engine.crc) {
        out.fail("unsupervised engine stream differs from the supervised one");
      }
    }
    unsupervised_wall = unsupervised.wall_s;
    const tl::obs::MetricsSnapshot snap = registry.scrape();
    if (const auto* h = snap.find_histogram("tl_exec_shard_sim_seconds")) shard_sim_s = h->sum;
    if (const auto* h = snap.find_histogram("tl_exec_shard_merge_seconds")) merge_s = h->sum;
  }

  const bool selftest_ok = self_test(ctx.args.seed);
  if (!selftest_ok) out.fail("replay self-test failed");

  out.attempted = counts.ue_days + engine.ue_days;
  if (traced_crc.crc() != plain_crc.crc() || traced_crc.records() != plain_crc.records()) {
    out.failed += counts.ue_days;
    out.fail("traced replay stream differs from the untraced replay");
  }
  if (engine.crc != traced_crc.crc() || engine.records != traced_crc.records()) {
    out.failed += engine.ue_days;
    out.fail("engine stream (crc " + hex32(engine.crc) + ") differs from the traced replay (crc " +
             hex32(traced_crc.crc()) + ")");
  }
  if (serve.records != traced_crc.records() || serve.failures != traced_crc.failures()) {
    out.fail("tailer totals differ from the replayed stream");
  }
  out.manifest.set("stream_crc", hex32(traced_crc.crc()));
  out.manifest.set("stream_records", static_cast<double>(traced_crc.records()));
  out.manifest.set("spans_kept", static_cast<double>(tracer.spans_kept()));
  out.manifest.set("spans_dropped", static_cast<double>(tracer.spans_dropped()));
  out.manifest.set("replay_traced_s", traced_wall);
  out.manifest.set("replay_untraced_s", plain_wall);

  std::filesystem::create_directories(ctx.trace_dir);
  const std::string span_path = ctx.trace_dir + "/" + ctx.args.workload + "-seed" +
                                std::to_string(ctx.args.seed) + ".jsonl";
  tracer.write(span_path);
  out.manifest.set("spans_file", span_path);

  Metrics& m = out.metrics;
  const auto& generate = tracer.totals(Call::kGenerate);
  const auto& nearest = tracer.totals(Call::kNearest);
  const auto& locate = tracer.totals(Call::kLocate);
  const auto& decide = tracer.totals(Call::kDecide);
  const auto& execute = tracer.totals(Call::kExecute);
  const auto& append = tracer.totals(Call::kAppend);
  const auto& commit = tracer.totals(Call::kCommit);
  const auto& poll = tracer.totals(Call::kPoll);
  m.set("mobility.generate_calls", static_cast<double>(generate.calls), "count");
  m.set("mobility.generate_s", generate.seconds(), "s");
  m.set("mobility.events_per_ue_day", ratio(counts.events, counts.ue_days), "count");
  m.set("geo.nearest_calls", static_cast<double>(nearest.calls), "count");
  m.set("geo.nearest_s", nearest.seconds(), "s");
  m.set("geo.nearest_ns", ns_per_call(nearest), "ns");
  m.set("ran.locate_calls", static_cast<double>(locate.calls), "count");
  m.set("ran.locate_s", locate.seconds(), "s");
  m.set("ran.locate_ns", ns_per_call(locate), "ns");
  m.set("policy.decide_calls", static_cast<double>(decide.calls), "count");
  m.set("policy.decide_s", decide.seconds(), "s");
  m.set("policy.decide_ns", ns_per_call(decide), "ns");
  m.set("policy.handover_ratio", ratio(counts.handovers, counts.opportunities), "ratio");
  m.set("core_network.execute_calls", static_cast<double>(execute.calls), "count");
  m.set("core_network.execute_s", execute.seconds(), "s");
  m.set("core_network.failure_ratio", ratio(counts.failed_executes, counts.executes),
        "ratio");
  m.set("telemetry.append_s", append.seconds(), "s");
  m.set("telemetry.commit_calls", static_cast<double>(commit.calls), "count");
  m.set("telemetry.commit_s", commit.seconds(), "s");
  m.set("telemetry.bytes_written", static_cast<double>(wal_bytes), "bytes");
  m.set("exec.shard_sim_s", shard_sim_s, "s");
  m.set("exec.merge_s", merge_s, "s");
  m.set("exec.merge_share", unsupervised_wall > 0 ? merge_s / unsupervised_wall : 0.0,
        "ratio");
  m.set("supervise.shard_attempts", static_cast<double>(engine.shard_attempts), "count");
  m.set("supervise.retries", static_cast<double>(engine.retries), "count");
  m.set("core.day_s_p50", median(engine.day_s), "s");
  m.set("core.day_s_max", percentile(engine.day_s, 1.0), "s");
  m.set("setup.country_s", setup.country_s, "s");
  m.set("setup.deployment_s", setup.deployment_s, "s");
  m.set("setup.catalog_s", setup.catalog_s, "s");
  m.set("setup.population_s", setup.population_s, "s");
  m.set("setup.coverage_s", setup.coverage_s, "s");
  m.set("setup.simulator_s", setup.simulator_s, "s");
  m.set("serve.poll_calls", static_cast<double>(poll.calls), "count");
  m.set("serve.poll_s", poll.seconds(), "s");
  m.set("serve.empty_poll_ratio", ratio(serve.empty_polls, serve.polls), "ratio");
  m.set("serve.days_per_poll", ratio(serve.days, serve.polls), "count");
  m.set("serve.checkpoint_s", tracer.totals(Call::kCheckpoint).seconds(), "s");
  m.set("serve.report_s", tracer.totals(Call::kReport).seconds(), "s");
  m.set("serve.write_commit_s", commit.seconds(), "s");
  m.set("bench.writer_late_ms_max", 0.0, "ms");
  m.set("bench.tracing_overhead_pct", (traced_wall - plain_wall) / plain_wall * 100.0, "%");
}

bool self_test(std::uint64_t seed) {
  using tl::policy::PolicyKind;
  bool ok = true;
  for (const PolicyKind kind :
       {PolicyKind::kCalibratedBaseline, PolicyKind::kSignalThreshold,
        PolicyKind::kLoadBalancing, PolicyKind::kRatPreference}) {
    tl::core::StudyConfig config = tl::core::StudyConfig::test_scale();
    config.seed = seed;
    config.days = 1;
    config.finalize();  // re-derives the nested seeds, and the UE count
    config.population.count = 1'000;
    config.policy.kind = kind;
    config.threads = 2;
    WorldSpec spec;
    spec.days = config.days;
    spec.threads = 2;
    tl::core::Simulator sim{config};
    const EngineRun engine = run_engine(sim, spec, "", nullptr);
    Replayer replayer{sim};
    StreamCrc replayed;
    Tracer tracer;
    replayer.run_traced(config.days, replayed, nullptr, tracer, 0);
    const bool match = engine.crc == replayed.crc() && engine.records == replayed.records();
    std::cerr << "[perfbench] self-test " << tl::policy::to_string(kind) << ": "
              << engine.records << " records, run_day crc " << hex32(engine.crc)
              << ", replay crc " << hex32(replayed.crc()) << (match ? " ok" : " MISMATCH")
              << "\n";
    ok = ok && match && engine.records > 0;
  }
  return ok;
}

}  // namespace perfbench
