// bench_common.hpp — shared scaffolding for the table/figure regenerators.
//
// Every bench binary prints:
//   * a banner naming the paper asset it regenerates;
//   * the measured rows/series;
//   * the paper's published value next to each measured one, so shape
//     agreement is a one-glance check (EXPERIMENTS.md records the pairs).
//
// Common flags: --seed=N, --scale=F (scales campaign sizes; 1.0 = the
// defaults documented in DESIGN.md, larger = closer to paper scale),
// --seeds=N (independent seed replications per campaign, merged cell-id
// ordered; N >= 1) and --jobs=M (worker threads, 0 = hardware concurrency,
// at most runner::Pool::kMaxWorkers; results are identical for any M). An
// out-of-range count exits 2 like a malformed one.
// --fast-forward=0 disables the analytic fast paths (link express
// serialization, transport scan skipping) and runs the packet-level
// reference; exports are identical either way.
//
// Observability flags (EXPERIMENTS.md "Metrics & tracing"):
//   --metrics=PATH          write the merged metrics JSON document
//   --trace=PATH            write a Chrome trace-event file (.jsonl => JSONL)
//   --sample-interval=DUR   sample gauges (queue depth, cwnd, ...) on a grid
//   --log-level=LEVEL       trace|debug|info|warn|error|off (default warn)
// The merged exports are byte-identical for any --jobs value.
//
// Latency-provenance flags (EXPERIMENTS.md "Latency provenance"):
//   --provenance=0|1        per-packet RTT component tagging (default 0)
//   --breakdown=PATH        write the merged per-flow/component breakdown JSON
//                           (implies --provenance=1)
//   --flight=PATH           write anomaly flight-recorder dumps (implies
//                           --provenance=1; empty document when nothing fired)
//   --profile=0|1           wall-clock subsystem profiling, reported to stderr
//                           as "wall-profile ..." lines (default 0)
//
// Scenario flags (EXPERIMENTS.md "Scenario runs"):
//   --scenario=PATH         replay an environment/fault timeline (scenario.hpp
//                           format; examples/scenarios/*.scn) onto every cell
//   --scenario-offset=DUR   shift the whole timeline later by DUR
// Durations accept unit suffixes: 90s, 15m, 2h (bare numbers = seconds).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "fleet/fleet.hpp"
#include "measure/testbed.hpp"
#include "obs/recorder.hpp"
#include "runner/sweep.hpp"
#include "scenario/scenario.hpp"
#include "stats/quantiles.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

namespace slp::bench {

/// Upper bound of the integer count flags (--seeds, --fleet, --terminals);
/// worker counts (--jobs, --shards) stop at runner::Pool::kMaxWorkers.
inline constexpr int kMaxCount = std::numeric_limits<int>::max();

inline void banner(const std::string& asset, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", asset.c_str(), what.c_str());
  std::printf("  (reproduction of \"A First Look at Starlink Performance\", IMC'22)\n");
  std::printf("==============================================================\n");
}

/// "measured 46.2 (paper 46-52)" helper for prose lines.
inline std::string vs(double measured, const std::string& paper, int precision = 1) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.*f (paper: %s)", precision, measured, paper.c_str());
  return buf;
}

/// Renders one distribution as the boxplot row used across figures.
inline std::vector<std::string> boxplot_row(const std::string& name,
                                            const stats::Samples& samples,
                                            const std::string& paper_median) {
  if (samples.empty()) {
    return {name, "-", "-", "-", "-", "-", "-", paper_median};
  }
  const stats::BoxplotSummary box = boxplot(samples);
  using stats::TextTable;
  return {name,
          TextTable::num(box.min, 1),
          TextTable::num(box.p5, 1),
          TextTable::num(box.p25, 1),
          TextTable::num(box.median, 1),
          TextTable::num(box.p75, 1),
          TextTable::num(box.p95, 1),
          paper_median};
}

/// Typo guard: call after every flag has been read (Flags tracks used keys
/// lazily, so benches with extra flags read them first, then check once).
/// Names every unknown flag and exits 2 if there is any.
inline void reject_unknown_flags(const Flags& flags) {
  const std::vector<std::string> unknown = flags.unused();
  for (const auto& key : unknown) {
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
  }
  if (!unknown.empty()) std::exit(2);
}

/// Shared fleet flags (EXPERIMENTS.md "Continental campaigns"):
///   --fleet=N             simulated neighbour terminals incl. the foreground
///                         (0 = synthetic cell load only, the default)
///   --continental=0|1     continental-Europe placement preset; also turns
///                         idle-cell aggregation on unless --aggregate says
///                         otherwise
///   --aggregate=0|1       analytic idle-cell aggregation (hot cells only)
///   --shards=K            arbiter epoch shards (1 = serial; output is
///                         byte-identical for every K)
///   --supercell-km=F      aggregation supercell edge, converted to a factor
///                         of the cell size (--supercell-factor=K sets it
///                         directly)
///   --fleet-cell-km=F     base cell size for the fleet grid
///   --fleet-mix=NAME      named traffic mix for the neighbour terminals:
///                         default | streaming | realtime | mixed
///                         (fleet::named_mix; "default" is byte-identical to
///                         the pre-mix behaviour)
inline fleet::Fleet::Config parse_fleet(const Flags& flags) {
  fleet::Fleet::Config fc;
  fc.size = flags.get_int("fleet", 0, 0, kMaxCount);
  const std::string mix = flags.get("fleet-mix", "default");
  try {
    fc.demand = fleet::named_mix(mix);
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "error: --fleet-mix=%s (known:", mix.c_str());
    for (const auto name : fleet::mix_names()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
    }
    std::fprintf(stderr, ")\n");
    std::exit(2);
  }
  const bool continental = flags.get_bool("continental", false);
  if (continental) fc.placement = fleet::Placement::continental_europe();
  fc.placement.cell_km = flags.get_double("fleet-cell-km", fc.placement.cell_km);
  fc.aggregate_idle = flags.get_bool("aggregate", continental);
  fc.supercell_factor = flags.get_int("supercell-factor", fc.supercell_factor, 1, kMaxCount);
  const double supercell_km = flags.get_double("supercell-km", 0.0);
  if (supercell_km > 0.0) {
    fc.supercell_factor = std::max(
        1, static_cast<int>(supercell_km / std::max(1.0, fc.placement.cell_km) + 0.5));
  }
  fc.shards = flags.get_int("shards", 1, 0, runner::Pool::kMaxWorkers);
  return fc;
}

struct CommonArgs {
  double scale = 1.0;
  int seeds = 1;  ///< seed replications per campaign (cells of the sweep)
  int jobs = 1;   ///< worker threads; 0 = hardware concurrency
  std::string metrics;          ///< --metrics=PATH; empty = metrics off
  std::string trace;            ///< --trace=PATH; empty = tracing off
  std::string breakdown;        ///< --breakdown=PATH; empty = no export
  std::string flight;           ///< --flight=PATH; empty = no export
  /// The run environment of every cell:
  ///   * seed: --seed, the base the bench offsets per campaign;
  ///   * obs: what the export flags above, --provenance, --profile and
  ///     --sample-interval imply;
  ///   * scenario: --scenario=PATH, already loaded/validated/offset (null =
  ///     clear sky);
  ///   * fast_forward: --fast-forward=0 runs the packet-level reference
  ///     paths (same exports, several times slower; EXPERIMENTS.md
  ///     "Performance baseline");
  ///   * fleet: empty here; benches that take --fleet fill it.
  measure::RunEnv env;

  static CommonArgs parse(int argc, char** argv) {
    const Flags flags = Flags::parse(argc, argv);
    CommonArgs args = parse(flags);
    reject_unknown_flags(flags);
    return args;
  }

  /// Same, from an existing Flags set — for benches with extra flags, which
  /// read theirs afterwards and then call reject_unknown_flags themselves.
  static CommonArgs parse(const Flags& flags) {
    CommonArgs args;
    args.env.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    args.scale = flags.get_double("scale", 1.0);
    args.seeds = flags.get_int("seeds", 1, 1, kMaxCount);
    args.jobs = flags.get_int("jobs", 1, 0, runner::Pool::kMaxWorkers);
    args.metrics = flags.get("metrics", "");
    args.trace = flags.get("trace", "");
    args.breakdown = flags.get("breakdown", "");
    args.flight = flags.get("flight", "");
    obs::Options& obs = args.env.obs;
    obs.metrics = !args.metrics.empty();
    obs.trace = !args.trace.empty();
    obs.provenance = flags.get_bool("provenance", false) || !args.breakdown.empty() ||
                     !args.flight.empty();
    obs.profile = flags.get_bool("profile", false);
    obs.sample_interval =
        std::max(Duration::zero(), flags.get_duration("sample-interval", Duration::zero()));
    args.env.fast_forward = flags.get_bool("fast-forward", true);
    const std::string scenario_path = flags.get("scenario", "");
    const Duration scenario_offset = flags.get_duration("scenario-offset", Duration::zero());
    if (!scenario_path.empty()) {
      try {
        auto scn = scenario::Scenario::load(scenario_path);
        if (scenario_offset != Duration::zero()) scn.shift(scenario_offset);
        args.env.scenario = std::make_shared<const scenario::Scenario>(std::move(scn));
        std::printf("scenario: %s (%zu events) from %s\n", args.env.scenario->name.c_str(),
                    args.env.scenario->events.size(), scenario_path.c_str());
      } catch (const scenario::ScenarioError& e) {
        std::fprintf(stderr, "error: --scenario=%s: %s\n", scenario_path.c_str(), e.what());
        std::exit(2);
      }
    }
    Logger::instance().set_level(
        parse_log_level(flags.get("log-level", "warn"), LogLevel::kWarn));
    return args;
  }

  [[nodiscard]] int scaled(int base) const {
    return std::max(1, static_cast<int>(base * scale));
  }

  [[nodiscard]] runner::SweepConfig sweep() const { return {seeds, jobs}; }
};

inline void write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

/// Writes the --metrics/--trace outputs a bench collected. A snapshot taken
/// with obs off still yields a valid (mostly empty) document, so benches can
/// call this unconditionally.
inline void write_obs(const CommonArgs& args, const obs::Snapshot& snap) {
  if (!args.metrics.empty()) {
    write_text_file(args.metrics, obs::metrics_json(snap));
    std::printf("\nmetrics -> %s (%zu counters, %zu series, %llu cells)\n",
                args.metrics.c_str(), snap.counters.size(), snap.series.size(),
                static_cast<unsigned long long>(snap.cells));
  }
  if (!args.trace.empty()) {
    const bool jsonl = args.trace.size() >= 6 &&
                       args.trace.compare(args.trace.size() - 6, 6, ".jsonl") == 0;
    write_text_file(args.trace,
                    jsonl ? obs::trace_jsonl(snap.events) : obs::trace_json(snap.events));
    std::printf("trace   -> %s (%zu events)\n", args.trace.c_str(), snap.events.size());
  }
  if (!args.breakdown.empty()) {
    write_text_file(args.breakdown, obs::breakdown_json(snap));
    std::printf("breakdown -> %s (%zu flow groups, %llu cells)\n", args.breakdown.c_str(),
                snap.breakdown_flows.groups().size(),
                static_cast<unsigned long long>(snap.cells));
  }
  if (!args.flight.empty()) {
    write_text_file(args.flight, obs::flight_json(snap));
    std::printf("flights -> %s (%zu dumps)\n", args.flight.c_str(), snap.flights.size());
  }
}

/// Runs `config` once per seed cell (runner/sweep.hpp) and folds the results
/// in cell-id order — the drop-in replacement for `Campaign::run(config)`
/// in every regenerator. With --seeds=1 (the default) the output is exactly
/// the single-seed campaign, whatever --jobs says. Every cell runs in the
/// bench's environment (`args.env`) at the config's own seed; the merged
/// Result carries the folded snapshot. Field by field, because
/// fleet::FleetCampaign has the same knobs without deriving from RunEnv.
template <typename Campaign>
[[nodiscard]] typename Campaign::Result run_sweep(const CommonArgs& args,
                                                  typename Campaign::Config config) {
  config.obs = args.env.obs;
  config.scenario = args.env.scenario;
  config.fleet = args.env.fleet;
  config.fast_forward = args.env.fast_forward;
  return runner::run_merged<Campaign>(args.sweep(), config);
}

}  // namespace slp::bench
