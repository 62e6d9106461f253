// Extensions: ping-pong detection & suppression, EN-DC signaling,
// control-plane events, QoS impact, and record sampling.

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/pingpong.hpp"
#include "core/control_plane.hpp"
#include "core/qos_model.hpp"
#include "telemetry/control_events.hpp"
#include "telemetry/sampling.hpp"
#include "telemetry/signaling_dataset.hpp"
#include "test_world.hpp"

namespace tl {
namespace {

using testing::TestWorld;

telemetry::HandoverRecord make_record(std::uint64_t ue, util::TimestampMs t,
                                      topology::SectorId src, topology::SectorId dst,
                                      bool success = true) {
  telemetry::HandoverRecord r;
  r.anon_user_id = ue;
  r.timestamp = t;
  r.source_sector = src;
  r.target_sector = dst;
  r.success = success;
  r.duration_ms = 43.0f;
  return r;
}

// --- Ping-pong ----------------------------------------------------------------

/// Feeds executed hops to the one ping-pong definition and adds up the
/// signaling time of each bounce's returning leg.
struct PingPongProbe final : telemetry::RecordSink {
  explicit PingPongProbe(std::int64_t window_ms) : detector{window_ms} {}
  void consume(const telemetry::HandoverRecord& r) override {
    if (r.success && detector.observe({r.anon_user_id, r.timestamp, r.source_sector,
                                       r.target_sector})) {
      wasted_ms += r.duration_ms;
    }
  }
  analysis::PingPongDetector detector;
  double wasted_ms = 0.0;
};

TEST(PingPong, DetectsReturnWithinWindow) {
  PingPongProbe probe{5'000};
  probe.consume(make_record(1, 1'000, 10, 20));
  probe.consume(make_record(1, 4'000, 20, 10));  // back within 3 s
  EXPECT_EQ(probe.detector.ping_pongs(), 1u);
  EXPECT_EQ(probe.detector.hops(), 2u);
  EXPECT_NEAR(probe.detector.rate(), 0.5, 1e-12);
  EXPECT_GT(probe.wasted_ms, 0.0);
}

TEST(PingPong, IgnoresSlowReturnsAndOtherTargets) {
  PingPongProbe probe{5'000};
  probe.consume(make_record(1, 1'000, 10, 20));
  probe.consume(make_record(1, 10'000, 20, 10));  // too late
  probe.consume(make_record(1, 11'000, 10, 30));  // different target
  probe.consume(make_record(1, 12'000, 30, 40));
  EXPECT_EQ(probe.detector.ping_pongs(), 0u);
}

TEST(PingPong, TracksUesIndependently) {
  PingPongProbe probe{5'000};
  probe.consume(make_record(1, 1'000, 10, 20));
  probe.consume(make_record(2, 1'500, 20, 10));  // different UE: no PP
  EXPECT_EQ(probe.detector.ping_pongs(), 0u);
  probe.consume(make_record(2, 2'000, 10, 20));  // UE 2 returns: PP
  EXPECT_EQ(probe.detector.ping_pongs(), 1u);
}

TEST(PingPong, FailedHosDoNotCount) {
  PingPongProbe probe{5'000};
  probe.consume(make_record(1, 1'000, 10, 20));
  probe.consume(make_record(1, 2'000, 20, 10, /*success=*/false));
  EXPECT_EQ(probe.detector.ping_pongs(), 0u);
  EXPECT_EQ(probe.detector.hops(), 1u);
}

TEST(PingPong, SimulatedWorldHasMeasurablePpRate) {
  // Small dedicated run (the shared world has no PP detector attached).
  core::StudyConfig cfg = core::StudyConfig::test_scale();
  cfg.days = 1;
  cfg.population.count = 2'000;
  core::Simulator sim{cfg};
  PingPongProbe probe{10'000};
  sim.add_sink(&probe);
  sim.run();
  ASSERT_GT(probe.detector.hops(), 1'000u);
  EXPECT_GT(probe.detector.ping_pongs(), 0u);
  EXPECT_LT(probe.detector.rate(), 0.5);
}

TEST(PingPong, SuppressionPolicyReducesPpRate) {
  core::StudyConfig cfg = core::StudyConfig::test_scale();
  cfg.days = 1;
  cfg.population.count = 2'000;
  core::StudyConfig with = cfg;
  with.suppress_ping_pong = true;
  with.ping_pong_window_ms = 10'000;

  core::Simulator baseline{cfg};
  PingPongProbe probe_base{10'000};
  baseline.add_sink(&probe_base);
  baseline.run();

  core::Simulator suppressed{with};
  PingPongProbe probe_supp{10'000};
  suppressed.add_sink(&probe_supp);
  suppressed.run();

  EXPECT_LT(probe_supp.detector.rate(), probe_base.detector.rate());
}

// --- EN-DC ---------------------------------------------------------------------

TEST(EnDc, FiveGAnchoredHoCarriesSgnbLegs) {
  corenet::FailureModel failure_model;
  corenet::DurationModel durations;
  corenet::CauseCatalog causes;
  corenet::HandoverProcedure procedure{failure_model, durations, causes};
  corenet::CoreNetwork core;
  devices::Ue ue;
  ue.hof_multiplier = 0.0f;  // force success
  util::Rng rng{3};

  corenet::HoAttempt attempt;
  attempt.ue = &ue;
  attempt.source_sector = 1;
  attempt.target_sector = 2;
  attempt.endc = true;

  corenet::MessageTrace trace;
  procedure.execute(attempt, core, rng, &trace);
  const auto has = [&](corenet::MessageType t) {
    return std::any_of(trace.begin(), trace.end(),
                       [&](const auto& m) { return m.type == t; });
  };
  EXPECT_TRUE(has(corenet::MessageType::kSgNbReleaseRequest));
  EXPECT_TRUE(has(corenet::MessageType::kSgNbAdditionRequest));
  EXPECT_TRUE(has(corenet::MessageType::kSgNbAdditionRequestAck));
  EXPECT_TRUE(has(corenet::MessageType::kSgNbReconfigurationComplete));

  // Non-EN-DC HOs carry none of this.
  attempt.endc = false;
  trace.clear();
  procedure.execute(attempt, core, rng, &trace);
  EXPECT_FALSE(has(corenet::MessageType::kSgNbReleaseRequest));
}

TEST(EnDc, AddsSignalingTime) {
  corenet::FailureModel failure_model;
  corenet::DurationModel durations;
  corenet::CauseCatalog causes;
  corenet::HandoverProcedure procedure{failure_model, durations, causes};
  corenet::CoreNetwork core;
  devices::Ue ue;
  ue.hof_multiplier = 0.0f;
  util::Rng rng{4};

  corenet::HoAttempt attempt;
  attempt.ue = &ue;
  double plain = 0.0, endc = 0.0;
  for (int i = 0; i < 5'000; ++i) {
    attempt.endc = false;
    plain += procedure.execute(attempt, core, rng).duration_ms;
    attempt.endc = true;
    endc += procedure.execute(attempt, core, rng).duration_ms;
  }
  EXPECT_NEAR(endc / plain, 1.15, 0.03);
}

// --- Control-plane events --------------------------------------------------------

TEST(ControlPlane, GeneratesAllEventTypes) {
  const auto& w = TestWorld::instance();
  const core::ControlPlaneGenerator gen{w.sim->country(), w.sim->activity()};
  telemetry::ControlEventCounter counter;
  int generated_for = 0;
  for (const auto& ue : w.sim->population().ues()) {
    gen.generate_day(ue, 0, 30, counter);
    if (++generated_for >= 500) break;
  }
  EXPECT_GT(counter.count(telemetry::ControlEventType::kAttach), 0u);
  EXPECT_GT(counter.count(telemetry::ControlEventType::kServiceRequest), 0u);
  EXPECT_GT(counter.count(telemetry::ControlEventType::kPaging), 0u);
  EXPECT_GT(counter.count(telemetry::ControlEventType::kTrackingAreaUpdate), 0u);
  // Attach and detach come in cycles.
  EXPECT_EQ(counter.count(telemetry::ControlEventType::kAttach),
            counter.count(telemetry::ControlEventType::kDetach));
}

TEST(ControlPlane, ServiceRequestsFollowTheDiurnalCurve) {
  const auto& w = TestWorld::instance();
  const core::ControlPlaneGenerator gen{w.sim->country(), w.sim->activity()};
  telemetry::ControlEventCounter counter;
  int generated_for = 0;
  for (const auto& ue : w.sim->population().ues()) {
    if (ue.type != devices::DeviceType::kSmartphone) continue;
    gen.generate_day(ue, 0, 30, counter);  // day 0: a Monday
    if (++generated_for >= 800) break;
  }
  // Morning peak hour dwarfs the 03:00 trough.
  EXPECT_GT(counter.count_at(telemetry::ControlEventType::kServiceRequest, 8),
            3 * counter.count_at(telemetry::ControlEventType::kServiceRequest, 3));
}

TEST(ControlPlane, DeterministicPerUeDay) {
  const auto& w = TestWorld::instance();
  const core::ControlPlaneGenerator gen{w.sim->country(), w.sim->activity()};
  telemetry::ControlEventCounter a, b;
  const auto& ue = w.sim->population().ue(0);
  gen.generate_day(ue, 2, 12, a);
  gen.generate_day(ue, 2, 12, b);
  EXPECT_EQ(a.total(), b.total());
  for (int t = 0; t < static_cast<int>(telemetry::kControlEventTypes); ++t) {
    EXPECT_EQ(a.count(static_cast<telemetry::ControlEventType>(t)),
              b.count(static_cast<telemetry::ControlEventType>(t)));
  }
}

TEST(ControlPlane, M2mSignalsFarLessThanSmartphones) {
  const auto& w = TestWorld::instance();
  const core::ControlPlaneGenerator gen{w.sim->country(), w.sim->activity()};
  telemetry::ControlEventCounter phones, meters;
  int n_phones = 0, n_meters = 0;
  for (const auto& ue : w.sim->population().ues()) {
    if (ue.type == devices::DeviceType::kSmartphone && n_phones < 300) {
      gen.generate_day(ue, 0, 30, phones);
      ++n_phones;
    } else if (ue.type == devices::DeviceType::kM2mIot && n_meters < 300) {
      gen.generate_day(ue, 0, 1, meters);
      ++n_meters;
    }
  }
  EXPECT_GT(phones.count(telemetry::ControlEventType::kServiceRequest),
            4 * meters.count(telemetry::ControlEventType::kServiceRequest));
}

// --- QoS impact -------------------------------------------------------------------

TEST(Qos, FailureCostsMoreThanSuccess) {
  const core::QosModel model;
  auto ok = make_record(1, 1'000, 10, 20, true);
  auto bad = make_record(1, 1'000, 10, 20, false);
  bad.duration_ms = ok.duration_ms;
  EXPECT_GT(model.assess(bad).interruption_ms, model.assess(ok).interruption_ms);
  EXPECT_GT(model.assess(bad).lost_mbytes, model.assess(ok).lost_mbytes);
}

TEST(Qos, VerticalSuccessAddsSlowRatPenalty) {
  const core::QosModel model;
  auto intra = make_record(1, 1'000, 10, 20, true);
  auto vertical = intra;
  vertical.target_rat = topology::ObservedRat::kG3;
  vertical.duration_ms = intra.duration_ms;
  EXPECT_GT(model.assess(vertical).lost_mbytes, 10.0 * model.assess(intra).lost_mbytes);
}

TEST(Qos, AggregatorSplitsSuccessAndFailure) {
  core::QosAggregator agg;
  agg.consume(make_record(1, 1'000, 10, 20, true));
  auto bad = make_record(1, 2'000, 20, 30, false);
  bad.duration_ms = 2'000.0f;
  bad.target_rat = topology::ObservedRat::kG3;
  agg.consume(bad);
  EXPECT_EQ(agg.records(), 2u);
  EXPECT_GT(agg.mean_interruption_failure_ms(), agg.mean_interruption_success_ms());
  EXPECT_GT(agg.vertical_share_of_loss(), 0.0);
  EXPECT_LE(agg.vertical_share_of_loss(), 1.0);
}

// --- Sampling ----------------------------------------------------------------------

TEST(Sampling, UniformRateIsRespected) {
  telemetry::SignalingDataset kept;
  telemetry::SamplingSink sampler{kept, telemetry::SamplingPolicy::kUniform, 0.1};
  for (int i = 0; i < 100'000; ++i) {
    sampler.consume(make_record(static_cast<std::uint64_t>(i), i, 1, 2));
  }
  EXPECT_NEAR(sampler.realized_rate(), 0.1, 0.01);
  EXPECT_EQ(kept.size(), sampler.kept());
  EXPECT_NEAR(sampler.weight_of(make_record(0, 0, 1, 2)), 10.0, 1e-12);
}

TEST(Sampling, PerUeKeepsWholeUsers) {
  telemetry::SignalingDataset kept;
  telemetry::SamplingSink sampler{kept, telemetry::SamplingPolicy::kPerUe, 0.2};
  // 500 UEs x 20 records each: every kept UE must have all 20 records.
  for (int ue = 0; ue < 500; ++ue) {
    for (int i = 0; i < 20; ++i) {
      sampler.consume(make_record(static_cast<std::uint64_t>(ue), i, 1, 2));
    }
  }
  std::map<std::uint64_t, int> per_ue;
  for (const auto& r : kept.records()) ++per_ue[r.anon_user_id];
  for (const auto& [ue, count] : per_ue) EXPECT_EQ(count, 20);
  EXPECT_NEAR(sampler.realized_rate(), 0.2, 0.08);
}

TEST(Sampling, StratifiedKeepsAllVerticals) {
  telemetry::SignalingDataset kept;
  telemetry::SamplingSink sampler{kept, telemetry::SamplingPolicy::kStratifiedByTarget,
                                  0.05};
  int verticals = 0;
  for (int i = 0; i < 20'000; ++i) {
    auto r = make_record(static_cast<std::uint64_t>(i), i, 1, 2);
    if (i % 20 == 0) {  // 5% vertical
      r.target_rat = topology::ObservedRat::kG3;
      ++verticals;
    }
    sampler.consume(r);
  }
  int kept_verticals = 0;
  for (const auto& r : kept.records()) {
    if (r.target_rat == topology::ObservedRat::kG3) ++kept_verticals;
  }
  EXPECT_EQ(kept_verticals, verticals);
  auto vertical = make_record(0, 0, 1, 2);
  vertical.target_rat = topology::ObservedRat::kG3;
  EXPECT_EQ(sampler.weight_of(vertical), 1.0);
  EXPECT_NEAR(sampler.weight_of(make_record(0, 0, 1, 2)), 20.0, 1e-12);
}

TEST(Sampling, EstimatesStayUnbiased) {
  // Estimate the vertical share from a 10% uniform sample with HT weights;
  // with constant weights this reduces to the kept-sample share.
  telemetry::SignalingDataset kept;
  telemetry::SamplingSink sampler{kept, telemetry::SamplingPolicy::kUniform, 0.1};
  const double true_share = 0.06;
  util::Rng rng{9};
  for (int i = 0; i < 200'000; ++i) {
    auto r = make_record(static_cast<std::uint64_t>(i), i, 1, 2);
    if (rng.uniform() < true_share) r.target_rat = topology::ObservedRat::kG3;
    sampler.consume(r);
  }
  double weighted_vertical = 0.0, weighted_total = 0.0;
  for (const auto& r : kept.records()) {
    const double w = sampler.weight_of(r);
    weighted_total += w;
    if (r.target_rat == topology::ObservedRat::kG3) weighted_vertical += w;
  }
  EXPECT_NEAR(weighted_vertical / weighted_total, true_share, 0.01);
}

TEST(Sampling, RejectsBadRate) {
  telemetry::SignalingDataset kept;
  EXPECT_THROW(
      telemetry::SamplingSink(kept, telemetry::SamplingPolicy::kUniform, 0.0),
      std::invalid_argument);
  EXPECT_THROW(
      telemetry::SamplingSink(kept, telemetry::SamplingPolicy::kUniform, 1.5),
      std::invalid_argument);
}

}  // namespace
}  // namespace tl
