// perfbench — the simulator's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out PATH]
//
// Runs one workload (workloads.hpp) on one thread, pinned to one CPU: rounds
// of all its cells back to back until --seconds of rounds are spent, each
// round preceded by set-up samples (a ready testbed at the workload's start
// time). Round 0 runs the workload built from --seed, round r the one built
// from runner::cell_seed(seed, r). Prints every metric by name with its unit,
// the workload's export digest and its failure count, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 reports the end-to-end metrics with observability off: the
// median round (wall_s), the median set-up (setup_s) and peak RSS.
// --trace 1 first runs the layer probes, then spends half the time on
// untraced rounds and half on traced ones (obs metrics on, a span around
// every public call) that replay the untraced rounds' inputs, reports the
// per-layer metrics and writes the spans as Chrome trace-event JSON to
// --trace-out. Exits 1 when any correctness check fails (including a traced
// round whose digest differs from its untraced twin) and 2 on a usage error.
#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "runner/sweep.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace slp;

// ------------------------------------------------------------------- host

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// High-water resident set of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries the resident set the process had
/// before exec into it, so a small workload launched from run.py would
/// report the Python interpreter's peak instead of its own.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return got == 2 ? static_cast<double>(resident) * 4096.0 / (1024.0 * 1024.0) : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Keeps query results observable so the optimizer cannot drop the calls.
volatile double g_sink = 0.0;

// ------------------------------------------------------------------ set-up

struct SetupSample {
  double total_s = 0.0;
  double build_s = 0.0;        ///< measure::Testbed constructor
  double first_query_s = 0.0;  ///< first downlink + uplink capacity query
};

/// One set-up: a ready testbed at the workload's start time.
SetupSample set_up(const Workload& w, SpanRecorder* rec) {
  SetupSample s;
  const auto t0 = Clock::now();
  std::optional<measure::Testbed> bed;
  {
    ScopedSpan span(rec, "measure.Testbed");
    bed.emplace(w.testbed);
  }
  s.build_s = seconds_since(t0);
  const auto t1 = Clock::now();
  {
    ScopedSpan span(rec, "phy.first_capacity_query");
    g_sink = g_sink + bed->starlink().downlink_capacity(w.start).to_mbps() +
             bed->starlink().uplink_capacity(w.start).to_mbps();
  }
  s.first_query_s = seconds_since(t1);
  s.total_s = seconds_since(t0);
  return s;
}

/// Set-up samples taken before each round: one, then more until 0.1 s are
/// spent (at most 500), so set-up is sampled across the whole run like the
/// rounds are, not only in its first second.
void sample_setup(const Workload& w, SpanRecorder* rec, std::vector<SetupSample>& out) {
  const auto t0 = Clock::now();
  std::size_t n = 0;
  do {
    out.push_back(set_up(w, rec));
    ++n;
  } while (seconds_since(t0) < 0.1 && n < 500);
}

// ------------------------------------------------------------------ rounds

struct Round {
  double wall_s = 0.0;  ///< cells + merge folds + summaries + export
  double cpu_s = 0.0;
  std::vector<double> cell_s;
  std::vector<std::uint64_t> digests;  ///< one per cell, 0 when it threw
  std::vector<std::uint64_t> events;   ///< sim events per cell (traced only)
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double merge_s = 0.0;
  double summary_s = 0.0;
  double export_s = 0.0;
  OutputSummary outputs;
  obs::Snapshot obs;  ///< merged over the round's cells (empty untraced)
};

/// Runs every cell once, back to back, then folds and summarizes the round.
/// A cell whose digest differs from `expected` (when given) fails.
Round run_round(const Workload& w, const obs::Options& obs, SpanRecorder* rec,
                const std::vector<std::uint64_t>* expected) {
  Round r;
  const auto t0 = Clock::now();
  const double c0 = cpu_seconds();
  ScopedSpan round_span(rec, "perfbench.round");
  RoundResults results;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    const auto tc = Clock::now();
    CellOutcome outcome;
    bool threw = false;
    try {
      ScopedSpan span(rec, cell.span, round_span.id(), static_cast<int>(i));
      outcome = cell.run(obs, results);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: cell %zu (%s) threw: %s\n", i, cell.span.c_str(), e.what());
      threw = true;
    }
    r.cell_s.push_back(seconds_since(tc));
    r.attempted += cell.ops;
    if (threw) {
      r.failed += cell.ops;
      r.digests.push_back(0);
      r.events.push_back(0);
      continue;
    }
    if (expected != nullptr && (*expected)[i] != outcome.digest) {
      std::fprintf(stderr, "perfbench: cell %zu (%s) digest %016" PRIx64 " != %016" PRIx64 "\n",
                   i, cell.span.c_str(), outcome.digest, (*expected)[i]);
      outcome.failed = cell.ops;
    }
    if (outcome.failed > 0) {
      std::fprintf(stderr, "perfbench: cell %zu (%s) of round seed %" PRIu64
                   ": %" PRId64 " of %" PRId64 " operations failed their check\n",
                   i, cell.span.c_str(), w.testbed.seed, outcome.failed, cell.ops);
    }
    r.failed += std::min(outcome.failed, cell.ops);
    r.digests.push_back(outcome.digest);
    r.events.push_back(outcome.events);
  }

  auto tp = Clock::now();
  MergedRound merged;
  {
    ScopedSpan span(rec, "runner.merge", round_span.id());
    merged = merge_round(results);
  }
  r.merge_s = seconds_since(tp);
  tp = Clock::now();
  {
    ScopedSpan span(rec, "stats.summary", round_span.id());
    r.outputs = summarize(merged);
  }
  r.summary_s = seconds_since(tp);
  tp = Clock::now();
  {
    ScopedSpan span(rec, "obs.metrics_json", round_span.id());
    g_sink = g_sink + static_cast<double>(obs::metrics_json(merged.obs).size());
  }
  r.export_s = seconds_since(tp);
  r.obs = std::move(merged.obs);
  r.wall_s = seconds_since(t0);
  r.cpu_s = cpu_seconds() - c0;
  return r;
}

/// Seed of round `r`: round 0 runs the workload built from the run's seed,
/// later rounds fresh derived seeds, so one run averages over many inputs.
std::uint64_t round_seed(std::uint64_t seed, std::size_t r) { return runner::cell_seed(seed, r); }

/// Rounds until `seconds` of rounds are spent: a new round starts only while
/// the mean round so far still fits, but at least `min_rounds` and at most
/// `max_rounds` run. With `replay` given, round r must reproduce the
/// per-cell digests of replay[r]. `before_round` (untimed) runs before each.
std::vector<Round> run_rounds(const std::string& name, std::uint64_t seed,
                              const obs::Options& obs, SpanRecorder* rec, double seconds,
                              std::size_t min_rounds, std::size_t max_rounds,
                              const std::vector<Round>* replay,
                              const std::function<void()>& before_round = {}) {
  std::vector<Round> rounds;
  double elapsed = 0.0;
  while (rounds.size() < max_rounds &&
         (rounds.size() < min_rounds ||
          elapsed + elapsed / static_cast<double>(rounds.size()) <= seconds)) {
    const std::size_t r = rounds.size();
    if (before_round) before_round();
    const Workload w = make_workload(name, round_seed(seed, r));
    rounds.push_back(run_round(w, obs, rec, replay != nullptr ? &(*replay)[r].digests : nullptr));
    elapsed += rounds.back().wall_s;
  }
  return rounds;
}

template <typename F>
std::vector<double> each(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return v;
}

/// The workload's export digest for its seed: the cells of the first two
/// rounds, which every run executes.
std::uint64_t workload_digest(const std::vector<Round>& rounds) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t r = 0; r < std::min<std::size_t>(2, rounds.size()); ++r) {
    for (std::uint64_t d : rounds[r].digests) {
      for (int b = 0; b < 8; ++b) {
        h ^= (d >> (8 * b)) & 0xff;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

// ------------------------------------------------------------------ probes

struct Probes {
  double horizon_query_s = 0.0;
  double horizon_rss_mb = 0.0;
  double steady_query_ns = 0.0;
  double best_visible_us = 0.0;
};

/// Layer probes on fresh testbeds, run first in the traced process so the
/// resident-set growth of the horizon query is measured on a clean heap.
Probes run_probes(const Workload& w, SpanRecorder* rec) {
  Probes p;
  {
    measure::Testbed bed{w.probe_testbed};
    const double rss0 = current_rss_mb();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(rec, "phy.horizon_capacity_query");
      g_sink = g_sink + bed.starlink().downlink_capacity(w.horizon).to_mbps() +
               bed.starlink().uplink_capacity(w.horizon).to_mbps();
    }
    p.horizon_query_s = seconds_since(t0);
    p.horizon_rss_mb = current_rss_mb() - rss0;
  }
  measure::Testbed bed{w.probe_testbed};
  g_sink = g_sink + bed.starlink().downlink_capacity(w.start).to_mbps();
  {
    // Steady state: 20 s of 1 ms-spaced queries past the warmed-up start.
    constexpr int kQueries = 20000;
    ScopedSpan span(rec, "phy.steady_capacity_query");
    const auto t0 = Clock::now();
    double acc = 0.0;
    for (int i = 0; i < kQueries; ++i) {
      acc += bed.starlink().downlink_capacity(w.start + Duration::millis(i)).to_mbps();
    }
    p.steady_query_ns = seconds_since(t0) * 1e9 / kQueries;
    g_sink = g_sink + acc;
  }
  {
    // Serving-satellite choice at every 15 s slot of the workload's first hour.
    const leo::StarlinkAccess::Config& cfg = w.probe_testbed.starlink;
    const leo::Constellation& constellation = bed.starlink().constellation();
    constexpr int kSlots = 240;
    ScopedSpan span(rec, "leo.best_visible");
    const auto t0 = Clock::now();
    int found = 0;
    for (int i = 0; i < kSlots; ++i) {
      const TimePoint t = w.start + cfg.handover_slot * static_cast<double>(i);
      found += constellation.best_visible(cfg.terminal, t, cfg.terminal_min_elevation_deg)
                   .has_value();
    }
    p.best_visible_us = seconds_since(t0) * 1e6 / kSlots;
    g_sink = g_sink + found;
  }
  return p;
}

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::uint64_t counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// Sums the counters whose name starts with `prefix` and ends with `suffix`.
std::uint64_t counter_sum(const obs::Snapshot& s, const std::string& prefix,
                          const std::string& suffix) {
  std::uint64_t sum = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      sum += v;
    }
  }
  return sum;
}

double gauge(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

std::vector<Metric> layer_metrics(const Workload& w, const std::vector<SetupSample>& setups,
                                  const Probes& probes, const std::vector<Round>& untraced,
                                  const std::vector<Round>& traced) {
  // Counts are exact: those of the first traced round, the seed's own inputs.
  const obs::Snapshot& s = traced.front().obs;
  const double events = static_cast<double>(counter(s, "sim.events_processed"));
  const double packets = static_cast<double>(counter_sum(s, "link.", ".enqueued_packets"));
  const double epochs = static_cast<double>(counter(s, "fleet.epochs"));
  // Per-round ratios of the traced cell spans to that round's own counts.
  // Fleet cells do host work per arbiter epoch but raise few events, so they
  // count towards fleet.us_per_epoch only, never towards sim.ns_per_event.
  std::vector<double> cell_s;
  std::vector<double> ns_per_event;
  std::vector<double> us_per_epoch;
  for (const Round& r : traced) {
    double packet_cells = 0.0;
    double packet_events = 0.0;
    double fleet_cells = 0.0;
    for (std::size_t i = 0; i < r.cell_s.size(); ++i) {
      cell_s.push_back(r.cell_s[i]);
      if (w.cells[i].span.starts_with("fleet.")) {
        fleet_cells += r.cell_s[i];
      } else {
        packet_cells += r.cell_s[i];
        packet_events += static_cast<double>(r.events[i]);
      }
    }
    const auto round_epochs = static_cast<double>(counter(r.obs, "fleet.epochs"));
    if (packet_events > 0) ns_per_event.push_back(packet_cells * 1e9 / packet_events);
    if (round_epochs > 0) us_per_epoch.push_back(fleet_cells * 1e6 / round_epochs);
  }
  const OutputSummary& out = traced.front().outputs;
  // Traced round r replays untraced round r: compare each pair.
  std::vector<double> overhead;
  for (std::size_t r = 0; r < traced.size(); ++r) {
    overhead.push_back(traced[r].wall_s / untraced[r].wall_s - 1.0);
  }
  std::vector<double> build_ms;
  std::vector<double> first_query_ms;
  for (const SetupSample& x : setups) {
    build_ms.push_back(x.build_s * 1e3);
    first_query_ms.push_back(x.first_query_s * 1e3);
  }
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"measure.testbed_build_ms", median(build_ms), "ms"},
      {"measure.cell_s_p50", median(cell_s), "s"},
      {"measure.cell_s_max", *std::max_element(cell_s.begin(), cell_s.end()), "s"},
      {"measure.cells", static_cast<double>(cell_s.size()), "count"},
      {"phy.load_first_query_ms", median(first_query_ms), "ms"},
      {"phy.load_horizon_ms", probes.horizon_query_s * 1e3, "ms"},
      {"phy.load_rss_mb", probes.horizon_rss_mb, "MB"},
      {"phy.load_query_ns", probes.steady_query_ns, "ns"},
      {"phy.ge_bad_periods", count(counter_sum(s, "phy.ge.", ".bad_periods")), "count"},
      {"phy.ge_dropped", count(counter_sum(s, "phy.ge.", ".dropped")), "count"},
      {"phy.outage_windows", count(counter(s, "phy.outage.windows")), "count"},
      {"sim.events", events, "count"},
      {"sim.link_packets", packets, "count"},
      {"sim.link_drops", count(counter_sum(s, "link.", ".dropped_aqm") +
                               counter_sum(s, "link.", ".dropped_medium") +
                               counter_sum(s, "link.", ".dropped_overflow")),
       "count"},
      {"sim.ff_materializations", count(counter(s, "sim.ff.materializations")), "count"},
      {"sim.events_per_packet", packets > 0 ? events / packets : 0.0, "ratio"},
      {"sim.ns_per_event", median(ns_per_event), "ns"},
      {"leo.slots_computed", count(counter(s, "leo.slots_computed")), "count"},
      {"leo.handovers", count(counter(s, "leo.handovers")), "count"},
      {"leo.best_visible_us", probes.best_visible_us, "us"},
      {"tcp.fast_recovery", count(counter(s, "tcp.cc.fast_recovery")), "count"},
      {"geo.pep_flows_split", count(counter(s, "geo.pep.flows_split")), "count"},
      {"apps.goodput_mbps_p50", out.goodput_mbps_p50, "Mbit/s"},
      {"apps.ping_rtt_ms_p50", out.ping_rtt_ms_p50, "ms"},
      {"qoe.game_spikes", count(out.game_spikes), "count"},
      {"fleet.epochs", epochs, "count"},
      {"fleet.reallocations", count(counter(s, "fleet.reallocations")), "count"},
      {"fleet.hot_cells", gauge(s, "fleet.hot_cells"), "count"},
      {"fleet.us_per_epoch", median(us_per_epoch), "us"},
      {"runner.merge_ms", median(each(traced, [](const Round& r) { return r.merge_s * 1e3; })),
       "ms"},
      {"runner.cpu_per_wall",
       median(each(untraced, [](const Round& r) { return r.cpu_s / r.wall_s; })), "ratio"},
      {"stats.summary_ms",
       median(each(traced, [](const Round& r) { return r.summary_s * 1e3; })), "ms"},
      {"obs.export_ms", median(each(traced, [](const Round& r) { return r.export_s * 1e3; })),
       "ms"},
      {"obs.overhead_frac", median(overhead), "ratio"},
  };
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 45.0;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out PATH]\nworkloads:",
               why);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(("missing value for " + key).c_str());
    }
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value);
      else if (key == "--trace-out") a.trace_out = value;
      else usage(("unknown flag " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key + ": " + value).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (std::find(workload_names().begin(), workload_names().end(), a.workload) ==
      workload_names().end()) {
    usage(("unknown workload " + a.workload).c_str());
  }
  if (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    usage("--seconds must be positive and --trace 0 or 1");
  }
  return a;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  // One worker thread, kept on one CPU: no migrations between rounds.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(static_cast<unsigned>(std::max(0, sched_getcpu())), &one_cpu);
  sched_setaffinity(0, sizeof one_cpu, &one_cpu);
  // A fixed mmap threshold: glibc otherwise raises it as large blocks are
  // freed, so which allocations stay resident would depend on the history.
  // peak_rss_mb is thus that of this setting, not of glibc's default (see
  // the README for both).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::uint64_t seed = args.seed.value_or(default_seed(args.workload));
  const Workload w = make_workload(args.workload, seed);
  std::printf("perfbench: workload %s, seed %" PRIu64 ", %zu cells, %.3g s measuring, trace %d\n",
              w.name.c_str(), seed, w.cells.size(), args.seconds, args.trace);

  std::vector<Metric> metrics;
  std::vector<Round> timed;  // the untraced rounds: operation counts, cpu/wall
  std::int64_t failed_extra = 0;
  std::int64_t attempted_extra = 0;

  if (args.trace == 0) {
    std::vector<SetupSample> setups;
    timed = run_rounds(w.name, seed, obs::Options{}, nullptr, args.seconds, 2,
                       SIZE_MAX, nullptr, [&] { sample_setup(w, nullptr, setups); });
    metrics = {
        {"wall_s", median(each(timed, [](const Round& r) { return r.wall_s; })), "s"},
        {"setup_s",
         median([&] {
           std::vector<double> v;
           for (const SetupSample& s : setups) v.push_back(s.total_s);
           return v;
         }()),
         "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("set-up: %zu samples\n", setups.size());
  } else {
    SpanRecorder rec;
    const Probes probes = run_probes(w, &rec);
    std::vector<SetupSample> setups;
    timed = run_rounds(w.name, seed, obs::Options{}, nullptr, args.seconds / 2, 2,
                       SIZE_MAX, nullptr, [&] { sample_setup(w, &rec, setups); });
    // The traced rounds replay the untraced rounds' inputs and must export
    // the same digests: observability on or off never changes the simulation.
    obs::Options traced_obs;
    traced_obs.metrics = true;
    const auto traced = run_rounds(w.name, seed, traced_obs, &rec, args.seconds / 2,
                                   1, timed.size(), &timed);
    for (const Round& r : traced) {
      attempted_extra += r.attempted;
      failed_extra += r.failed;
    }
    metrics = layer_metrics(w, setups, probes, timed, traced);
    const std::string path =
        args.trace_out.empty() ? "perfbench-" + w.name + ".trace.json" : args.trace_out;
    if (!rec.write_chrome_json(path)) {
      std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans (%zu traced rounds) written to %s\n", rec.events().size(),
                traced.size(), path.c_str());
  }

  std::int64_t attempted = attempted_extra;
  std::int64_t failed = failed_extra;
  double wall = 0.0;
  double cpu = 0.0;
  for (const Round& r : timed) {
    attempted += r.attempted;
    failed += r.failed;
    wall += r.wall_s;
    cpu += r.cpu_s;
    std::printf("round: wall %.4f s, cpu %.4f s, cells", r.wall_s, r.cpu_s);
    for (double c : r.cell_s) std::printf(" %.3f", c);
    std::printf("\n");
  }
  std::printf("digest %s %016" PRIx64 "\n", w.name.c_str(), workload_digest(timed));
  std::printf("rounds %zu, cpu_s/wall_s %.4f\n", timed.size(), cpu / wall);
  std::printf("fail_frac %.6g (%" PRId64 " of %" PRId64 " operations failed)\n",
              static_cast<double>(failed) / static_cast<double>(attempted), failed, attempted);
  print_metrics(metrics);
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
