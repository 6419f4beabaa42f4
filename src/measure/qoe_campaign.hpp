// qoe_campaign.hpp — real-time application QoE campaigns (bench/fig8).
//
// Three campaigns put the src/qoe/ session models on the measurement
// testbed, one per application class:
//
//   AbrCampaign   -> ABR video: startup delay, rebuffer ratio, bitrate
//   VcCampaign    -> videoconferencing: per-window E-model MOS
//   GameCampaign  -> game traffic: tick RTT, lag spikes, handover stalls
//
// Each result carries the distributions plus a *slot-phase* view: QoE
// impairments keyed by `floor((t mod 15 s) / 1 s)` — second-of-slot within
// the 15-second Starlink handover grid. The paper family observes rebuffer
// events, MOS dips, and lag spikes clustering at the slot boundary (phases
// 14/0); these exports make that clustering a first-class, mergeable
// statistic. The usual sweep contract holds: merge() folds cells in id
// order, so any --jobs produces byte-identical results.
#pragma once

#include <cstdint>

#include "measure/testbed.hpp"
#include "obs/recorder.hpp"
#include "qoe/abr.hpp"
#include "qoe/game.hpp"
#include "qoe/vc.hpp"
#include "stats/groupby.hpp"
#include "stats/quantiles.hpp"

namespace slp::measure {

/// Second-of-slot of a sim timestamp within the 15 s handover grid:
/// floor((t mod 15 s) / 1 s), in [0, 14]. Slots are indexed from the sim
/// epoch, matching leo::StarlinkAccess's reconfiguration clock.
[[nodiscard]] std::uint64_t handover_slot_phase(TimePoint t);

// ================================================================ ABR video

struct AbrCampaign {
  /// RunEnv::fleet puts real cell contention under the video downloads
  /// (fig8 uses fleet::named_mix("streaming")).
  struct Config : RunEnv {
    Config() { seed = 8; }
    int sessions = 4;                      ///< sequential watch sessions
    Duration gap = Duration::seconds(10);  ///< idle gap between sessions
    qoe::AbrVideoSession::Config session;
  };

  struct Result {
    stats::Samples startup_s;        ///< per session
    stats::Samples rebuffer_ratio;   ///< per session
    stats::Samples mean_rung_mbps;   ///< per session, segment-weighted
    stats::Samples segment_mbps;     ///< per segment download throughput
    /// Rebuffer-stall onsets keyed by slot phase (value = 1 per event);
    /// counts cluster at the boundary phases when handovers cause stalls.
    stats::KeyedSamples rebuffer_by_phase;
    std::uint64_t rebuffer_events = 0;
    std::uint64_t quality_switches = 0;
    std::uint64_t segments = 0;
    int sessions_completed = 0;
    obs::Snapshot obs;
  };

  static Result run(const Config& config);
};

// ======================================================== videoconferencing

struct VcCampaign {
  struct Config : RunEnv {
    Config() { seed = 9; }
    int calls = 3;                         ///< sequential calls
    Duration gap = Duration::seconds(10);
    qoe::VcSession::Config session;
  };

  struct Result {
    stats::Samples mos;             ///< per window, both directions pooled
    stats::Samples window_loss_pct; ///< per window frames late/missing
    stats::Samples transit_ms;      ///< per playable frame, capture -> arrived
    /// Per-window MOS keyed by the slot phase of the window's capture
    /// midpoint: the boundary phases carry the MOS dips.
    stats::KeyedSamples mos_by_phase;
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_missed = 0;
    std::uint64_t datagrams_lost = 0;
    int calls_completed = 0;
    obs::Snapshot obs;
  };

  static Result run(const Config& config);
};

// ============================================================= game traffic

struct GameCampaign {
  /// Stall buckets for Result::*_high_stall / *_low_stall: the top and
  /// bottom quarters of the combined per-slot beam-penalty range
  /// (2 x uniform(0, 8 ms)); the middle half is left out to sharpen the
  /// contrast.
  static constexpr double kStallHighMs = 12.0;
  static constexpr double kStallLowMs = 4.0;

  /// Turn RunEnv::obs.provenance on for the stall correlation.
  struct Config : RunEnv {
    Config() { seed = 10; }
    int matches = 3;                       ///< sequential matches
    Duration gap = Duration::seconds(5);
    qoe::GameSession::Config session;
  };

  struct Result {
    stats::Samples rtt_ms;          ///< per answered tick
    /// Lag-spike onsets keyed by slot phase (value = 1 per spike).
    stats::KeyedSamples spikes_by_phase;
    /// Per-spike handover-stall attribution (ms, from the snapshot's
    /// provenance tag); all zero unless Config::obs.provenance is on.
    stats::Samples spike_stall_ms;
    /// Answered ticks and spikes bucketed by the handover_stall carried in
    /// their provenance (>= kStallHighMs vs <= kStallLowMs). The slot's beam
    /// penalty shifts every RTT in the slot toward the spike threshold, so
    /// the spike *rate* in high-stall slots sits far above the low-stall
    /// rate — the quantitative form of the spike/handover_stall correlation.
    std::uint64_t ticks_high_stall = 0;
    std::uint64_t ticks_low_stall = 0;
    std::uint64_t spikes_high_stall = 0;
    std::uint64_t spikes_low_stall = 0;
    /// Handover stall of *every* answered tick (ms) — the baseline the
    /// spike attribution is compared against (spikes should sit well above).
    stats::Samples stall_ms;
    std::uint64_t ticks_sent = 0;
    std::uint64_t ticks_lost = 0;
    std::uint64_t spikes = 0;
    /// Spikes whose provenance carried handover stall (the paper-family
    /// correlation: most spikes should land here, not in random loss).
    std::uint64_t spikes_with_stall = 0;
    int matches_completed = 0;
    obs::Snapshot obs;
  };

  static Result run(const Config& config);
};

// ============================================================ sweep support

void merge(AbrCampaign::Result& into, const AbrCampaign::Result& from);
void merge(VcCampaign::Result& into, const VcCampaign::Result& from);
void merge(GameCampaign::Result& into, const GameCampaign::Result& from);

}  // namespace slp::measure
