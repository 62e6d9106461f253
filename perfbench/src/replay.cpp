#include "replay.hpp"

#include <stdexcept>

#include "devices/population.hpp"
#include "mobility/trace_generator.hpp"
#include "policy/policy.hpp"
#include "ran/load.hpp"
#include "ran/sector_locator.hpp"
#include "topology/deployment.hpp"
#include "util/sim_time.hpp"

namespace perfbench {

using tl::topology::kInvalidSector;
using tl::topology::ObservedRat;

void StreamCrc::consume(const tl::telemetry::HandoverRecord& record) {
  buffer_.clear();
  tl::telemetry::RecordLog::encode_record(record, buffer_);
  crc_.update(buffer_.data(), buffer_.size());
  ++records_;
  if (!record.success) ++failures_;
}

namespace {

tl::corenet::FailureModelConfig failure_config(std::uint64_t seed) {
  tl::corenet::FailureModelConfig fm;
  fm.seed = seed * 31 + 9;
  return fm;
}

}  // namespace

Replayer::Replayer(const tl::core::Simulator& sim)
    : sim_(sim),
      failure_model_(failure_config(sim.config().seed)),
      causes_(sim.config().seed * 31 + 10),
      procedure_(failure_model_, durations_, causes_) {
  if (sim.config().recovery.enabled) {
    throw std::invalid_argument{"replay does not model post-HOF recovery"};
  }
  if (sim.fault_schedule() != nullptr) {
    throw std::invalid_argument{"replay does not model fault schedules"};
  }
}

ReplayCounts Replayer::run(int days, StreamCrc& crc, tl::telemetry::RecordLog* wal) {
  NoTrace probe;
  return replay(days, crc, wal, probe, 0);
}

ReplayCounts Replayer::run_traced(int days, StreamCrc& crc,
                                  tl::telemetry::RecordLog* wal, Tracer& tracer,
                                  std::uint32_t span_sample_every) {
  return replay(days, crc, wal, tracer, span_sample_every);
}

template <class Probe>
ReplayCounts Replayer::replay(int days, StreamCrc& crc, tl::telemetry::RecordLog* wal,
                              Probe& probe, std::uint32_t span_sample_every) {
  ReplayCounts counts;
  std::uint64_t ue_day_index = 0;
  for (int day = 0; day < days; ++day) {
    probe.open(Call::kDay);
    for (const auto& ue : sim_.population().ues()) {
      // Legacy-only UEs emit no records at the EPC observation point.
      if (!tl::topology::supports(ue.rat_support, tl::topology::Rat::kG4)) continue;
      probe.sample(span_sample_every != 0 && ue_day_index % span_sample_every == 0);
      ++ue_day_index;
      probe.open(Call::kUeDay);
      replay_ue_day(ue, day, crc, wal, probe, counts);
      probe.close();
    }
    if (wal != nullptr) probe.time(Call::kCommit, [&] { wal->commit_day(day, {}); });
    probe.sample(true);
    probe.close();
  }
  return counts;
}

template <class Probe>
void Replayer::replay_ue_day(const tl::devices::Ue& ue, int day, StreamCrc& crc,
                             tl::telemetry::RecordLog* wal, Probe& probe,
                             ReplayCounts& counts) {
  const tl::core::StudyConfig& config = sim_.config();
  const tl::topology::Deployment& deployment = sim_.deployment();
  const tl::ran::SectorLocator& locator = sim_.locator();
  const tl::policy::HandoverPolicy& policy = sim_.policy();
  const tl::policy::PolicyEnv& env = sim_.policy_env();
  ++counts.ue_days;

  tl::util::Rng rng = tl::util::Rng::derive(config.seed, 0x51e0u, ue.id,
                                            static_cast<std::uint64_t>(day));
  const tl::mobility::UePlan plan =
      probe.time(Call::kPlanFor, [&] { return sim_.traces().plan_for(ue); });
  const tl::mobility::DailyTrace trace =
      probe.time(Call::kGenerate, [&] { return sim_.traces().generate(ue, plan, day); });
  counts.events += trace.size();

  tl::topology::SectorId serving = probe.time(Call::kLocate, [&] {
    return locator.locate(plan.home, ObservedRat::kG45Nsa, ue, day, 0, rng);
  });
  if (serving == kInvalidSector && !trace.empty()) {
    serving = probe.time(Call::kLocate, [&] {
      return locator.locate(trace.front().position, ObservedRat::kG45Nsa, ue, day, 0, rng);
    });
  }

  tl::policy::UeDayState pstate;
  policy.begin_ue_day(env, ue, day, pstate);
  const double voice_share = config.voice_share[static_cast<std::size_t>(ue.type)];

  for (const auto& event : trace) {
    if (serving == kInvalidSector) break;
    const int bin = tl::util::SimCalendar::half_hour_bin(event.time);
    const auto& source = deployment.sector(serving);

    const bool voice_active = rng.chance(voice_share);
    tl::policy::HoOpportunity opp;
    opp.ue = &ue;
    opp.serving = serving;
    opp.position = event.position;
    const tl::topology::SiteId site = probe.time(
        Call::kNearest, [&] { return deployment.site_index().nearest(event.position); });
    opp.postcode = deployment.site(site).postcode;
    opp.time = event.time;
    opp.day = day;
    opp.bin = bin;
    opp.voice_active = voice_active;

    ++counts.opportunities;
    const tl::policy::HoDecision decision =
        probe.time(Call::kDecide, [&] { return policy.decide(env, opp, pstate, rng); });
    if (!decision.handover) continue;
    ++counts.handovers;
    const tl::topology::SectorId target = decision.target;
    const auto& target_sector = deployment.sector(target);

    tl::corenet::HoAttempt attempt;
    attempt.ue = &ue;
    attempt.source_sector = serving;
    attempt.target_sector = target;
    attempt.target_rat = decision.target_rat;
    attempt.source_vendor = source.vendor;
    attempt.area = source.area_type;
    attempt.region = source.region;
    attempt.time = event.time;
    attempt.target_overload = tl::ran::LoadModel::overload_rejection_probability(
        env.load->utilization(target_sector, day, bin));
    attempt.srvcc = decision.srvcc;
    attempt.endc = source.rat == tl::topology::Rat::kG5Nr ||
                   target_sector.rat == tl::topology::Rat::kG5Nr;

    const tl::corenet::HoOutcome outcome =
        probe.time(Call::kExecute, [&] { return procedure_.execute(attempt, core_, rng); });
    ++counts.executes;
    if (!outcome.success) ++counts.failed_executes;

    tl::telemetry::HandoverRecord record;
    record.timestamp = event.time;
    record.success = outcome.success;
    record.duration_ms = static_cast<float>(outcome.duration_ms);
    record.cause = outcome.cause;
    record.anon_user_id = ue.anon_id;
    record.source_sector = serving;
    record.target_sector = target;
    record.source_rat = ObservedRat::kG45Nsa;
    record.target_rat = decision.target_rat;
    record.device_type = ue.type;
    record.manufacturer = ue.manufacturer;
    record.postcode = source.postcode;
    record.district = source.district;
    record.area = source.area_type;
    record.region = source.region;
    record.vendor = source.vendor;
    record.srvcc = decision.srvcc;
    crc.consume(record);
    if (wal != nullptr) probe.time(Call::kAppend, [&] { wal->append(record); });

    policy.on_outcome(env, opp, decision, outcome.success, pstate);
    if (outcome.success) {
      pstate.previous_serving = serving;
      pstate.last_ho_time = event.time;
      serving = target;
      if (decision.target_rat != ObservedRat::kG45Nsa) {
        const tl::topology::SectorId back = probe.time(Call::kLocate, [&] {
          return locator.locate(event.position, ObservedRat::kG45Nsa, ue, day, bin, rng);
        });
        if (back != kInvalidSector) serving = back;
      }
    }
  }
}

}  // namespace perfbench
