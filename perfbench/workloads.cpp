#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runner/sweep.hpp"

namespace perfbench {
namespace {

using namespace slp;

// ------------------------------------------------------------------ digest

/// FNV-1a over the exact bytes of every exported value, in export order.
class Hasher {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void samples(const stats::Samples& s) {
    u64(s.size());
    for (double v : s.values()) f64(v);
  }
  void summary(const stats::StreamingSummary& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.sum());
    f64(s.min());
    f64(s.max());
  }
  void keyed(const stats::KeyedSamples& ks) {
    u64(ks.size());
    for (const auto& [key, group] : ks.groups()) {
      u64(key);
      summary(group.summary);
      for (std::uint64_t c : group.counts) u64(c);
    }
  }
  void binner(const stats::TimeBinner& tb) {
    u64(tb.bins());
    for (std::size_t i = 0; i < tb.bins(); ++i) samples(tb.bin(i));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t digest(const measure::SpeedtestCampaign::Result& r) {
  Hasher h;
  h.samples(r.mbps);
  return h.value();
}

std::uint64_t digest(const measure::PingCampaign::Result& r) {
  Hasher h;
  for (const auto& a : r.anchors) {
    h.str(a.name);
    h.u64(a.european);
    h.u64(a.local);
    h.samples(a.rtt_ms);
  }
  h.binner(r.eu_timeline);
  for (const auto& hour : r.eu_by_hour) {
    h.u64(hour.size());
    for (double v : hour) h.f64(v);
  }
  h.u64(r.pings_sent);
  h.u64(r.pings_lost);
  return h.value();
}

std::uint64_t digest(const measure::GameCampaign::Result& r) {
  Hasher h;
  h.samples(r.rtt_ms);
  h.keyed(r.spikes_by_phase);
  h.samples(r.spike_stall_ms);
  h.samples(r.stall_ms);
  for (std::uint64_t v : {r.ticks_high_stall, r.ticks_low_stall, r.spikes_high_stall,
                          r.spikes_low_stall, r.ticks_sent, r.ticks_lost, r.spikes,
                          r.spikes_with_stall}) {
    h.u64(v);
  }
  h.u64(static_cast<std::uint64_t>(r.matches_completed));
  return h.value();
}

std::uint64_t digest(const fleet::FleetCampaign::Result& r) {
  Hasher h;
  h.keyed(r.cell_util_down);
  h.keyed(r.cell_util_up);
  h.keyed(r.terminal_down_mbps);
  h.samples(r.foreground_down_mbps);
  h.samples(r.foreground_up_mbps);
  for (std::uint64_t v : {r.terminals, r.cells, r.supercells, r.aggregated_terminals, r.epochs,
                          r.attaches, r.detaches, r.handovers, r.reallocations}) {
    h.u64(v);
  }
  return h.value();
}

// ----------------------------------------------------------------- checks

/// Ops of `expected` that did not complete, never negative.
std::int64_t shortfall(std::int64_t expected, std::int64_t completed) {
  return std::max<std::int64_t>(0, expected - completed);
}

/// Appends a cell running `Campaign` on `config`; `check` returns the number
/// of failed operations given the result.
template <typename Campaign, typename Check>
void add_cell(Workload& w, std::string span, std::int64_t ops,
              std::vector<typename Campaign::Result> RoundResults::*slot,
              typename Campaign::Config config, Check check) {
  w.cells.push_back(Cell{
      std::move(span), ops,
      [config, check, slot](const obs::Options& obs, RoundResults& out) {
        typename Campaign::Config c = config;
        c.obs = obs;
        auto result = Campaign::run(c);
        const auto events = result.obs.counters.find("sim.events_processed");
        CellOutcome outcome{digest(result), check(result),
                            events == result.obs.counters.end() ? 0 : events->second};
        (out.*slot).push_back(std::move(result));
        return outcome;
      }});
}

// -------------------------------------------------------------- workloads
//
// Each add_* appends one cell; cell i of a workload runs with
// runner::cell_seed(seed, i).

std::uint64_t next_cell_seed(const Workload& w, std::uint64_t seed) {
  return runner::cell_seed(seed, w.cells.size());
}

/// Ookla-style 8-connection TCP speedtest(s) of 12 s (Figure 5).
void add_speedtest(Workload& w, std::uint64_t seed, measure::AccessKind access,
                   bool download, int tests) {
  measure::SpeedtestCampaign::Config c;
  c.seed = next_cell_seed(w, seed);
  c.access = access;
  c.download = download;
  c.tests = tests;
  const int n = c.tests;
  add_cell<measure::SpeedtestCampaign>(
      w, "measure.SpeedtestCampaign::run", n, &RoundResults::speedtest, c,
      [n](const measure::SpeedtestCampaign::Result& r) {
        const auto positive = std::count_if(r.mbps.values().begin(), r.mbps.values().end(),
                                            [](double v) { return v > 0.0; });
        return shortfall(n, static_cast<std::int64_t>(positive)) +
               shortfall(static_cast<std::int64_t>(r.mbps.size()), n);
      });
}

/// Six five-minute 30 Hz game matches over UDP.
void add_game(Workload& w, std::uint64_t seed) {
  measure::GameCampaign::Config c;
  c.seed = next_cell_seed(w, seed);
  c.matches = 6;
  c.session.duration = Duration::minutes(5);
  const int n = c.matches;
  add_cell<measure::GameCampaign>(w, "measure.GameCampaign::run", n, &RoundResults::game, c,
                                  [n](const measure::GameCampaign::Result& r) {
                                    return shortfall(n, r.matches_completed);
                                  });
}

/// The 146-day PingCampaign to the 11 anchors, 3 pings each per hour. One
/// operation is one round of pings; a failed check fails them all.
void add_ping(Workload& w, std::uint64_t seed) {
  measure::PingCampaign::Config c;
  c.seed = next_cell_seed(w, seed);
  c.duration = Duration::days(146);
  c.cadence = Duration::hours(1);
  const auto rounds = static_cast<std::int64_t>(c.duration / c.cadence);
  const std::int64_t pings = rounds * 11 * c.pings_per_round;
  add_cell<measure::PingCampaign>(
      w, "measure.PingCampaign::run", rounds, &RoundResults::ping, c,
      [rounds, pings](const measure::PingCampaign::Result& r) -> std::int64_t {
        std::uint64_t answered = 0;
        for (const auto& a : r.anchors) answered += a.rtt_ms.size();
        const bool ok = r.anchors.size() == 11 &&
                        r.pings_sent == static_cast<std::uint64_t>(pings) &&
                        answered + r.pings_lost == r.pings_sent;
        return ok ? 0 : rounds;
      });
}

/// The fleet configuration of the long-horizon cells: one million
/// continental terminals, idle cells aggregated, one arbiter shard.
fleet::Fleet::Config continental_fleet() {
  fleet::Fleet::Config f;
  f.size = 1'000'000;
  f.placement = fleet::Placement::continental_europe();
  f.aggregate_idle = true;
  f.shards = 1;
  return f;
}

/// FleetCampaign over half an hour of arbiter epochs.
void add_fleet(Workload& w, std::uint64_t seed) {
  fleet::FleetCampaign::Config c;
  c.seed = next_cell_seed(w, seed);
  c.fleet = continental_fleet();
  c.duration = Duration::minutes(30);
  // One epoch at construction (t=0), then one per epoch interval.
  const auto epochs = static_cast<std::uint64_t>(c.duration / c.fleet.epoch) + 1;
  const auto terminals = static_cast<std::uint64_t>(c.fleet.size - 1);
  add_cell<fleet::FleetCampaign>(w, "fleet.FleetCampaign::run", 1, &RoundResults::fleet, c,
                                 [epochs, terminals](const fleet::FleetCampaign::Result& r) {
                                   return r.epochs == epochs && r.terminals == terminals ? 0 : 1;
                                 });
}

/// Packet traffic from t=0 with the fleet off: Figure 5's TCP speedtests
/// (Starlink both ways, SatCom uploads through the PEP) for MTU-sized,
/// cwnd-limited packets, and the small fixed-cadence packets of UDP game
/// matches. No QUIC cells: a QUIC handshake whose server reply is lost never
/// completes (README, "Left out"), so any QUIC campaign fails now and then.
Workload packet_mix(std::uint64_t seed) {
  Workload w;
  w.name = "packet_mix";
  add_speedtest(w, seed, measure::AccessKind::kStarlink, true, 1);
  add_speedtest(w, seed, measure::AccessKind::kStarlink, true, 1);
  add_speedtest(w, seed, measure::AccessKind::kStarlink, false, 2);
  add_speedtest(w, seed, measure::AccessKind::kSatCom, false, 2);
  add_game(w, seed);
  add_game(w, seed);
  w.testbed.seed = seed;
  w.testbed.with_satcom = false;
  w.probe_testbed = w.testbed;
  w.start = TimePoint::epoch();
  w.horizon = w.start + Duration::minutes(31);  // the game cells' six matches
  return w;
}

/// Cost that scales with simulated time: the 146-day ping campaign (phy load,
/// loss and outage processes, leo slots, event-loop timers; transport nearly
/// idle) and four continental fleet cells (arbiter epochs, demand,
/// hierarchical grid; no packets at all).
Workload long_horizon(std::uint64_t seed) {
  Workload w;
  w.name = "long_horizon";
  add_ping(w, seed);
  for (int i = 0; i < 4; ++i) add_fleet(w, seed);
  // Set-up includes the fleet's million-terminal placement; the layer probes
  // use the ping cell's testbed, whose capacity queries reach LoadProcess.
  w.testbed.seed = seed;
  w.testbed.with_satcom = false;
  w.testbed.fleet = continental_fleet();
  w.probe_testbed.seed = seed;
  w.probe_testbed.with_satcom = false;
  measure::apply_paper_epochs(w.probe_testbed.starlink);
  w.start = TimePoint::epoch();
  w.horizon = w.start + Duration::days(146);
  return w;
}

template <typename Result>
Result fold(const std::vector<Result>& cells) {
  if (cells.empty()) return Result{};
  Result merged = cells.front();
  for (std::size_t i = 1; i < cells.size(); ++i) merge(merged, cells[i]);
  return merged;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"packet_mix", "long_horizon"};
  return names;
}

std::uint64_t default_seed(const std::string& name) {
  if (name == "packet_mix") return 5;
  if (name == "long_horizon") return 1;
  throw std::invalid_argument("unknown workload: " + name);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "packet_mix") return packet_mix(seed);
  if (name == "long_horizon") return long_horizon(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

MergedRound merge_round(const RoundResults& results) {
  MergedRound m;
  m.speedtest = fold(results.speedtest);
  m.ping = fold(results.ping);
  m.game = fold(results.game);
  m.fleet = fold(results.fleet);
  for (const obs::Snapshot* snap :
       {&m.speedtest.obs, &m.ping.obs, &m.game.obs, &m.fleet.obs}) {
    obs::merge(m.obs, *snap);
  }
  return m;
}

OutputSummary summarize(const MergedRound& m) {
  OutputSummary out;
  const auto median = [](const stats::Samples& s) { return s.empty() ? 0.0 : s.median(); };
  // The figures' boxplot rows: min, p5, p25, p50, p75, p95, max.
  const auto boxplot = [&out](const stats::Samples& s) {
    if (s.empty()) return;
    out.checksum += s.min() + s.max();
    for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) out.checksum += s.quantile(q);
  };

  const stats::Samples& goodput = m.speedtest.mbps;
  stats::Samples ping_rtt;
  for (const auto& a : m.ping.anchors) {
    ping_rtt.add_all(a.rtt_ms.values());
    boxplot(a.rtt_ms);
  }
  boxplot(goodput);
  for (const auto* s : {&m.game.rtt_ms, &m.fleet.foreground_down_mbps}) {
    boxplot(*s);
  }
  out.goodput_mbps_p50 = median(goodput);
  out.ping_rtt_ms_p50 = median(ping_rtt);
  out.game_spikes = m.game.spikes;
  return out;
}

}  // namespace perfbench
