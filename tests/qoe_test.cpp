// qoe_test — the real-time application QoE suite (src/qoe/ + the fig8
// campaigns in measure/qoe_campaign.hpp).
//
// Covers the pure controllers (AbrLadder's BBA map, the E-model MOS curve,
// LagDetector's step detection), each session model end-to-end on the
// testbed, and the sweep contract every campaign in this repo honours: the
// merged result — including the rendered metrics/trace documents — is
// byte-identical for any --jobs, and the analytic fast-forward paths change
// nothing (--fast-forward=0|1 equivalence) for all three campaigns.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "measure/qoe_campaign.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "qoe/abr.hpp"
#include "qoe/game.hpp"
#include "qoe/vc.hpp"
#include "runner/sweep.hpp"

namespace slp::measure {
namespace {

// ---------------------------------------------------------- pure controllers

TEST(AbrLadder, BbaMapIsMonotoneAndSaturates) {
  const qoe::AbrLadder ladder;
  EXPECT_EQ(ladder.pick(0.0), 0);
  EXPECT_EQ(ladder.pick(ladder.reservoir_s), 0);
  EXPECT_EQ(ladder.pick(ladder.cushion_s), static_cast<int>(ladder.rungs_mbps.size()) - 1);
  EXPECT_EQ(ladder.pick(1000.0), static_cast<int>(ladder.rungs_mbps.size()) - 1);
  int prev = 0;
  for (double b = 0.0; b <= 40.0; b += 0.25) {
    const int rung = ladder.pick(b);
    EXPECT_GE(rung, prev) << "rate ladder must be monotone in buffer level";
    prev = rung;
  }
}

TEST(EModel, CleanCallBeatsLossyAndLateCalls) {
  const double clean = qoe::emodel_mos(145.0, 0.0);
  EXPECT_GT(clean, 4.0);           // short delay, no loss: "good" territory
  EXPECT_LT(qoe::emodel_mos(145.0, 5.0), clean);   // loss hurts
  EXPECT_LT(qoe::emodel_mos(400.0, 0.0), clean);   // delay past 177.3 ms hurts
  EXPECT_GE(qoe::emodel_mos(2000.0, 80.0), 1.0);   // floor is MOS 1
  EXPECT_LE(qoe::emodel_mos(0.0, 0.0), 5.0);
}

TEST(LagDetector, FlagsStepsNotSustainedShifts) {
  qoe::LagDetector det;
  bool warmup_spike = false;
  for (int i = 0; i < 20; ++i) warmup_spike |= det.add(40.0);
  EXPECT_FALSE(warmup_spike) << "steady baseline must not spike";
  EXPECT_TRUE(det.add(400.0)) << "a 10x RTT step is a lag spike";
  // A sustained shift raises the median; after the window turns over the
  // new level stops counting as a spike (players acclimatize, the detector
  // looks for steps).
  bool tail_spike = false;
  for (int i = 0; i < 40; ++i) tail_spike = det.add(400.0);
  EXPECT_FALSE(tail_spike);
}

TEST(LagDetector, MedianMatchesNthElementOverRandomStreams) {
  // The detector keeps a sorted copy of its window; the reference copies the
  // FIFO and runs nth_element at the same (upper-median) rank. Small integer
  // alphabets force duplicates, and 400 samples turn every window over many
  // times.
  std::mt19937_64 gen{2024};
  for (const int window : {1, 2, 4, 33}) {
    for (const int alphabet : {3, 50, 1'000'000}) {
      qoe::LagDetector::Config config;
      config.window = window;
      qoe::LagDetector det{config};
      std::deque<double> ref;
      std::uniform_int_distribution<int> pick{0, alphabet - 1};
      for (int i = 0; i < 400; ++i) {
        const double rtt = 20.0 + 0.5 * pick(gen);
        (void)det.add(rtt);
        ref.push_back(rtt);
        if (static_cast<int>(ref.size()) > window) ref.pop_front();
        std::vector<double> tmp(ref.begin(), ref.end());
        const auto mid = static_cast<std::ptrdiff_t>(tmp.size() / 2);
        std::nth_element(tmp.begin(), tmp.begin() + mid, tmp.end());
        ASSERT_EQ(det.median(), tmp[static_cast<std::size_t>(mid)])
            << "window " << window << ", alphabet " << alphabet << ", sample " << i;
      }
    }
  }
  EXPECT_EQ(qoe::LagDetector{}.median(), 0.0) << "an empty window has median 0";
}

// ---------------------------------------------------- campaign smoke + merge

AbrCampaign::Config abr_config() {
  AbrCampaign::Config config;
  config.seed = 21;
  config.sessions = 1;
  config.session.watch = Duration::seconds(40);
  config.obs.metrics = true;
  return config;
}

VcCampaign::Config vc_config() {
  VcCampaign::Config config;
  config.seed = 22;
  config.calls = 1;
  config.session.duration = Duration::seconds(20);
  config.obs.metrics = true;
  return config;
}

GameCampaign::Config game_config() {
  GameCampaign::Config config;
  config.seed = 23;
  config.matches = 1;
  config.session.duration = Duration::seconds(20);
  config.obs.metrics = true;
  config.obs.provenance = true;
  return config;
}

TEST(AbrCampaign, PlaysTheWholeSessionAndExportsQoe) {
  const auto r = AbrCampaign::run(abr_config());
  EXPECT_EQ(r.sessions_completed, 1);
  EXPECT_EQ(r.segments, 10u);  // 40 s of content in 4 s segments
  ASSERT_EQ(r.startup_s.size(), 1u);
  EXPECT_GT(r.startup_s.values()[0], 0.0);
  EXPECT_GE(r.rebuffer_ratio.values()[0], 0.0);
  EXPECT_LT(r.rebuffer_ratio.values()[0], 1.0);
  EXPECT_FALSE(r.segment_mbps.empty());
  EXPECT_GT(r.mean_rung_mbps.values()[0], 0.0);
}

TEST(VcCampaign, WindowsCarryMosAndPhase) {
  const auto r = VcCampaign::run(vc_config());
  EXPECT_EQ(r.calls_completed, 1);
  EXPECT_GT(r.frames_sent, 0u);
  ASSERT_FALSE(r.mos.empty());
  for (double mos : r.mos.values()) {
    EXPECT_GE(mos, 1.0);
    EXPECT_LE(mos, 5.0);
  }
  EXPECT_FALSE(r.mos_by_phase.empty());
  for (const auto& [phase, group] : r.mos_by_phase.groups()) {
    EXPECT_LT(phase, 15u) << "phase keys live on the 15 s handover grid";
    (void)group;
  }
  // Most frames make a 120 ms jitter buffer over a ~40 ms RTT link.
  EXPECT_GT(r.frames_sent, r.frames_missed * 2);
}

TEST(GameCampaign, TicksResolveAndSpikesCarryStallAttribution) {
  const auto r = GameCampaign::run(game_config());
  EXPECT_EQ(r.matches_completed, 1);
  EXPECT_EQ(r.ticks_sent, 600u);  // 20 s at 30 Hz
  EXPECT_GT(r.rtt_ms.size(), 500u) << "most ticks must be answered";
  for (const auto& [phase, group] : r.spikes_by_phase.groups()) {
    EXPECT_LT(phase, 15u);
    (void)group;
  }
}

template <typename Campaign>
void expect_jobs_invariant(typename Campaign::Config config) {
  config.obs.metrics = true;
  config.obs.trace = true;
  const auto serial = runner::run_merged<Campaign>({2, 1}, config);
  const auto parallel = runner::run_merged<Campaign>({2, 8}, config);
  const std::string metrics = obs::metrics_json(serial.obs);
  EXPECT_EQ(metrics, obs::metrics_json(parallel.obs));
  EXPECT_FALSE(metrics.empty());
  EXPECT_EQ(obs::trace_json(serial.obs.events), obs::trace_json(parallel.obs.events));
}

TEST(QoeDeterminism, AbrExportsAreJobsInvariant) {
  expect_jobs_invariant<AbrCampaign>(abr_config());
}

TEST(QoeDeterminism, VcExportsAreJobsInvariant) {
  expect_jobs_invariant<VcCampaign>(vc_config());
}

TEST(QoeDeterminism, GameExportsAreJobsInvariant) {
  expect_jobs_invariant<GameCampaign>(game_config());
}

TEST(QoeDeterminism, AbrFastForwardChangesNothing) {
  AbrCampaign::Config config = abr_config();
  config.fast_forward = true;
  const auto on = AbrCampaign::run(config);
  config.fast_forward = false;
  const auto off = AbrCampaign::run(config);
  EXPECT_EQ(on.startup_s.values(), off.startup_s.values());
  EXPECT_EQ(on.segment_mbps.values(), off.segment_mbps.values());
  EXPECT_EQ(on.rebuffer_events, off.rebuffer_events);
  EXPECT_EQ(on.quality_switches, off.quality_switches);
}

TEST(QoeDeterminism, VcFastForwardChangesNothing) {
  VcCampaign::Config config = vc_config();
  config.fast_forward = true;
  const auto on = VcCampaign::run(config);
  config.fast_forward = false;
  const auto off = VcCampaign::run(config);
  EXPECT_EQ(on.mos.values(), off.mos.values());
  EXPECT_EQ(on.transit_ms.values(), off.transit_ms.values());
  EXPECT_EQ(on.frames_missed, off.frames_missed);
  EXPECT_EQ(on.datagrams_lost, off.datagrams_lost);
}

TEST(QoeDeterminism, GameFastForwardChangesNothing) {
  GameCampaign::Config config = game_config();
  config.fast_forward = true;
  const auto on = GameCampaign::run(config);
  config.fast_forward = false;
  const auto off = GameCampaign::run(config);
  EXPECT_EQ(on.rtt_ms.values(), off.rtt_ms.values());
  EXPECT_EQ(on.spikes, off.spikes);
  EXPECT_EQ(on.ticks_lost, off.ticks_lost);
  EXPECT_EQ(on.spikes_with_stall, off.spikes_with_stall);
}

}  // namespace
}  // namespace slp::measure
