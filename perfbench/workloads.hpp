// workloads.hpp — the benchmark's workloads as lists of campaign cells.
//
// A workload is a fixed list of cells generated from one seed; each cell is
// one public campaign entry point (measure::*Campaign::run or
// fleet::FleetCampaign::run) with its own derived seed. A round runs every
// cell back to back on the calling thread, checks each cell's output and
// hashes its exported result.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet/campaign.hpp"
#include "measure/campaign.hpp"
#include "measure/qoe_campaign.hpp"
#include "obs/recorder.hpp"

namespace perfbench {

/// Typed per-cell results of one round, kept for the cell-order merge() folds.
struct RoundResults {
  std::vector<slp::measure::SpeedtestCampaign::Result> speedtest;
  std::vector<slp::measure::PingCampaign::Result> ping;
  std::vector<slp::measure::GameCampaign::Result> game;
  std::vector<slp::fleet::FleetCampaign::Result> fleet;
};

/// What one cell reports back besides its typed result.
struct CellOutcome {
  std::uint64_t digest = 0;  ///< hash of the cell's exported result (obs excluded)
  std::int64_t failed = 0;   ///< operations whose correctness check failed
  std::uint64_t events = 0;  ///< sim.events_processed of the cell (0 untraced)
};

struct Cell {
  std::string span;      ///< span name: "<layer>.<Campaign>::run"
  std::int64_t ops = 0;  ///< operations the cell attempts
  /// Runs the campaign with the given observability options, appends its
  /// result to `out` and checks it.
  std::function<CellOutcome(const slp::obs::Options&, RoundResults& out)> run;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  /// Set-up shape: the testbed the workload's cells build (with the fleet
  /// placement when it has one), ready at the instant its traffic starts.
  slp::measure::TestbedConfig testbed;
  slp::TimePoint start;
  /// Testbed of the layer probes: without a fleet, so its capacity queries
  /// reach phy::LoadProcess.
  slp::measure::TestbedConfig probe_testbed;
  /// The workload's last simulated instant (the phy horizon probe).
  slp::TimePoint horizon;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The seed a workload runs with when none is given.
[[nodiscard]] std::uint64_t default_seed(const std::string& name);

/// Builds a workload's cells from its seed. Throws std::invalid_argument for
/// an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// The merged view of one round: every typed result folded in cell order and
/// the cells' obs snapshots folded into one.
struct MergedRound {
  slp::measure::SpeedtestCampaign::Result speedtest;
  slp::measure::PingCampaign::Result ping;
  slp::measure::GameCampaign::Result game;
  slp::fleet::FleetCampaign::Result fleet;
  slp::obs::Snapshot obs;
};

/// Cell-id-ordered merge() folds of a round's results.
[[nodiscard]] MergedRound merge_round(const RoundResults& results);

/// Simulated outputs read off a merged round (medians and counts). A pure
/// speed-up leaves every one of them identical.
struct OutputSummary {
  double goodput_mbps_p50 = 0.0;
  double ping_rtt_ms_p50 = 0.0;
  std::uint64_t game_spikes = 0;
  double checksum = 0.0;  ///< sum of the boxplot quantiles, keeps them live
};

[[nodiscard]] OutputSummary summarize(const MergedRound& merged);

}  // namespace perfbench
