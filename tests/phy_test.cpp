#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "phy/gilbert_elliott.hpp"
#include "phy/load_process.hpp"
#include "phy/outage.hpp"

namespace slp::phy {
namespace {

using namespace slp::literals;
using sim::Packet;

Packet dummy_packet() {
  Packet p;
  p.size_bytes = 1200;
  return p;
}

// ------------------------------------------------------------ GilbertElliott

TEST(GilbertElliott, LosslessWhenAlwaysGood) {
  GilbertElliott::Config cfg;
  cfg.mean_good = Duration::hours(1000);
  cfg.loss_good = 0.0;
  GilbertElliott ge{cfg, Rng{1}};
  const Packet p = dummy_packet();
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_FALSE(ge.should_drop(TimePoint::epoch() + Duration::millis(i), p));
  }
  EXPECT_EQ(ge.stats().dropped, 0u);
}

TEST(GilbertElliott, LongRunLossRateMatchesStationaryChain) {
  GilbertElliott::Config cfg;
  cfg.mean_good = Duration::millis(90);
  cfg.mean_bad = Duration::millis(10);
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  GilbertElliott ge{cfg, Rng{2}};
  const Packet p = dummy_packet();
  std::uint64_t drops = 0;
  const int n = 2'000'000;
  for (int i = 0; i < n; ++i) {
    // one packet every 100us -> samples the chain densely
    if (ge.should_drop(TimePoint::epoch() + Duration::micros(100) * static_cast<double>(i), p)) {
      ++drops;
    }
  }
  // Stationary P[bad] = 10 / (90+10) = 0.10.
  const double rate = static_cast<double>(drops) / n;
  EXPECT_NEAR(rate, 0.10, 0.01);
}

TEST(GilbertElliott, BadStateProducesConsecutiveDrops) {
  GilbertElliott::Config cfg;
  cfg.mean_good = Duration::millis(50);
  cfg.mean_bad = Duration::millis(5);
  cfg.loss_bad = 1.0;
  GilbertElliott ge{cfg, Rng{3}};
  const Packet p = dummy_packet();
  // Count burst lengths of consecutive drops at 100us spacing.
  int max_burst = 0;
  int cur = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    if (ge.should_drop(TimePoint::epoch() + Duration::micros(100) * static_cast<double>(i), p)) {
      max_burst = std::max(max_burst, ++cur);
    } else {
      cur = 0;
    }
  }
  // 5ms bad state at 100us spacing -> bursts of tens of packets must occur.
  EXPECT_GE(max_burst, 10);
}

TEST(GilbertElliott, DeterministicPerSeed) {
  GilbertElliott::Config cfg;
  cfg.mean_good = Duration::millis(10);
  cfg.mean_bad = Duration::millis(10);
  cfg.loss_bad = 0.5;
  GilbertElliott a{cfg, Rng{4}};
  GilbertElliott b{cfg, Rng{4}};
  const Packet p = dummy_packet();
  for (int i = 0; i < 10'000; ++i) {
    const TimePoint t = TimePoint::epoch() + Duration::micros(37) * static_cast<double>(i);
    EXPECT_EQ(a.should_drop(t, p), b.should_drop(t, p));
  }
}

// ------------------------------------------------------------ OutageProcess

TEST(OutageProcess, DropsEverythingInsideWindow) {
  OutageProcess::Config cfg;
  cfg.mean_interarrival = Duration::seconds(30);
  cfg.duration_mu = 0.5;
  cfg.duration_sigma = 0.2;
  OutageProcess outage{cfg, Rng{5}};
  const Packet p = dummy_packet();
  // Scan 10 minutes at 1ms; there must be at least one outage and inside it
  // every packet must drop.
  bool saw_outage = false;
  for (int i = 0; i < 600'000; ++i) {
    const TimePoint t = TimePoint::epoch() + Duration::millis(i);
    const bool in = outage.in_outage(t);
    const bool dropped = outage.should_drop(t, p);
    EXPECT_EQ(in, dropped);
    saw_outage |= in;
  }
  EXPECT_TRUE(saw_outage);
  EXPECT_GT(outage.stats().dropped, 0u);
}

TEST(OutageProcess, OutagesAreRareRelativeToUptime) {
  OutageProcess::Config cfg;
  cfg.mean_interarrival = Duration::hours(2);
  OutageProcess outage{cfg, Rng{6}};
  const Packet p = dummy_packet();
  std::uint64_t drops = 0;
  const int n = 1'000'000;  // one sample per 100ms over ~28 hours
  for (int i = 0; i < n; ++i) {
    if (outage.should_drop(TimePoint::epoch() + Duration::millis(100) * static_cast<double>(i),
                           p)) {
      ++drops;
    }
  }
  // Expected duty cycle ~ 1.4s / 7200s ~ 2e-4.
  EXPECT_LT(static_cast<double>(drops) / n, 0.005);
}

TEST(CompositeLossModel, DropsWhenAnyChildDrops) {
  class Never final : public sim::LossModel {
   public:
    bool should_drop(TimePoint, const Packet&) override { return false; }
  };
  class Always final : public sim::LossModel {
   public:
    bool should_drop(TimePoint, const Packet&) override { return true; }
  };
  Never never;
  Always always;
  CompositeLossModel both{{&never, &always}};
  CompositeLossModel none{{&never, &never}};
  const Packet p = dummy_packet();
  EXPECT_TRUE(both.should_drop(TimePoint::epoch(), p));
  EXPECT_FALSE(none.should_drop(TimePoint::epoch(), p));
}

TEST(CompositeLossModel, AllChildrenAdvanceEvenWhenEarlierChildDrops) {
  // The composite must consult *every* child for every packet — a dropping
  // child earlier in the chain must not short-circuit the ones after it, or
  // their clocks/stats would silently fall behind (scenario gates rely on
  // this to keep the stochastic models advancing through an outage window).
  class Counting final : public sim::LossModel {
   public:
    explicit Counting(bool drop) : drop_{drop} {}
    bool should_drop(TimePoint, const Packet&) override {
      calls++;
      return drop_;
    }
    int calls = 0;

   private:
    bool drop_;
  };
  Counting first{true};   // always drops
  Counting second{false};
  Counting third{true};
  CompositeLossModel chain{{&first, &second, &third}};
  const Packet p = dummy_packet();
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(chain.should_drop(TimePoint::epoch() + Duration::millis(i), p));
  }
  EXPECT_EQ(first.calls, n);
  EXPECT_EQ(second.calls, n);
  EXPECT_EQ(third.calls, n);
}

TEST(CompositeLossModel, StochasticChildStatsUnaffectedByDroppingSibling) {
  // A GE chain composed behind an always-dropping gate must see exactly the
  // packets (and draw exactly the randomness) it would see standing alone.
  GilbertElliott::Config cfg;
  cfg.mean_good = Duration::millis(50);
  cfg.mean_bad = Duration::millis(10);
  cfg.loss_bad = 0.7;
  GilbertElliott alone{cfg, Rng{11}};
  GilbertElliott behind{cfg, Rng{11}};
  GateLoss closed_gate;
  closed_gate.set_open(false);
  CompositeLossModel chain{{&closed_gate, &behind}};
  const Packet p = dummy_packet();
  for (int i = 0; i < 100'000; ++i) {
    const TimePoint t = TimePoint::epoch() + Duration::micros(250) * static_cast<double>(i);
    (void)alone.should_drop(t, p);
    EXPECT_TRUE(chain.should_drop(t, p));  // the gate drops everything
  }
  EXPECT_EQ(alone.stats().dropped, behind.stats().dropped);
  EXPECT_EQ(closed_gate.dropped(), 100'000u);
}

TEST(GateLoss, OpenPassesClosedDrops) {
  GateLoss gate;
  const Packet p = dummy_packet();
  EXPECT_TRUE(gate.is_open());
  EXPECT_FALSE(gate.should_drop(TimePoint::epoch(), p));
  gate.set_open(false);
  EXPECT_TRUE(gate.should_drop(TimePoint::epoch(), p));
  gate.set_open(true);
  EXPECT_FALSE(gate.should_drop(TimePoint::epoch(), p));
  EXPECT_EQ(gate.dropped(), 1u);
}

TEST(BernoulliLoss, MatchesProbability) {
  BernoulliLoss loss{0.2, Rng{7}};
  const Packet p = dummy_packet();
  int drops = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (loss.should_drop(TimePoint::epoch(), p)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.2, 0.01);
}

TEST(OutageProcess, DurationMedianMatchesLognormal) {
  // Outage durations are lognormal(mu, sigma) seconds, so the *median*
  // duration is exp(mu) exactly (the mean would be inflated by the tail).
  OutageProcess::Config cfg;
  cfg.mean_interarrival = Duration::seconds(20);
  cfg.duration_mu = 0.0;  // median = exp(0) = 1 s
  cfg.duration_sigma = 0.4;
  OutageProcess outage{cfg, Rng{21}};
  // Scan several hours on a 5ms grid and measure each contiguous run of
  // in_outage time.
  std::vector<double> durations_s;
  int run = 0;
  const int n = 4 * 3600 * 200;  // 4 hours at 5 ms
  for (int i = 0; i < n; ++i) {
    if (outage.in_outage(TimePoint::epoch() + Duration::millis(5) * static_cast<double>(i))) {
      ++run;
    } else if (run > 0) {
      durations_s.push_back(run * 0.005);
      run = 0;
    }
  }
  ASSERT_GE(durations_s.size(), 100u);
  std::sort(durations_s.begin(), durations_s.end());
  const double median = durations_s[durations_s.size() / 2];
  EXPECT_NEAR(median, 1.0, 0.25);
}

TEST(OutageProcess, InOutageAdvancesLazilyWithoutCountingDrops) {
  OutageProcess::Config cfg;
  cfg.mean_interarrival = Duration::seconds(10);
  OutageProcess outage{cfg, Rng{22}};
  EXPECT_EQ(outage.stats().outages_started, 0u);
  // One distant query advances the window chain past every skipped outage —
  // but querying is not dropping, so the drop counter must stay untouched.
  (void)outage.in_outage(TimePoint::epoch() + Duration::hours(1));
  EXPECT_GT(outage.stats().outages_started, 100u);
  EXPECT_EQ(outage.stats().dropped, 0u);
}

TEST(OutageProcess, TraceEmitsExactlyOneSpanPerWindow) {
  obs::Options opts;
  opts.trace = true;
  opts.metrics = true;
  obs::Recorder rec{opts};
  OutageProcess::Config cfg;
  cfg.mean_interarrival = Duration::seconds(15);
  OutageProcess outage{cfg, Rng{23}};
  outage.set_obs(&rec);
  const Packet p = dummy_packet();
  for (int i = 0; i < 60 * 100; ++i) {
    (void)outage.should_drop(TimePoint::epoch() + Duration::millis(10) * static_cast<double>(i),
                             p);
  }
  std::uint64_t spans = 0;
  for (const auto& ev : rec.trace().events()) {
    if (ev.category == "phy.outage" && ev.phase == 'X') ++spans;
  }
  // One span per drawn window: the constructor's first window (emitted by
  // set_obs) plus one per advance_to() replacement.
  EXPECT_EQ(spans, outage.stats().outages_started + 1);
}

// ------------------------------------------------------------ LoadProcess

TEST(LoadProcess, StaysInBounds) {
  LoadProcess::Config cfg;
  cfg.mean_utilization = 0.3;
  cfg.volatility = 0.2;  // deliberately large to stress the clamp
  LoadProcess load{cfg, Rng{8}};
  for (int i = 0; i < 100'000; ++i) {
    const double u = load.utilization(TimePoint::epoch() + Duration::seconds(i));
    EXPECT_GE(u, cfg.floor);
    EXPECT_LE(u, cfg.ceiling);
  }
}

TEST(LoadProcess, HoversAroundMean) {
  LoadProcess::Config cfg;
  cfg.mean_utilization = 0.25;
  LoadProcess load{cfg, Rng{9}};
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    sum += load.utilization(TimePoint::epoch() + Duration::seconds(10) * static_cast<double>(i));
  }
  EXPECT_NEAR(sum / n, 0.25, 0.05);
}

TEST(LoadProcess, SameTimeSameValue) {
  LoadProcess load{LoadProcess::Config{}, Rng{10}};
  const TimePoint t = TimePoint::epoch() + Duration::hours(3);
  const double u1 = load.utilization(t);
  // Query far ahead, then re-query the old time: cache must be stable.
  (void)load.utilization(t + Duration::hours(10));
  EXPECT_DOUBLE_EQ(load.utilization(t), u1);
}

TEST(LoadProcess, DiurnalComponentCreatesDayNightSwing) {
  LoadProcess::Config flat;
  flat.volatility = 0.0;
  LoadProcess::Config diurnal = flat;
  diurnal.diurnal_amplitude = 0.3;
  LoadProcess flat_load{flat, Rng{11}};
  LoadProcess diurnal_load{diurnal, Rng{11}};
  // Peak of the sine at 1/4 of the period.
  const TimePoint peak = TimePoint::epoch() + Duration::hours(6);
  const TimePoint trough = TimePoint::epoch() + Duration::hours(18);
  EXPECT_NEAR(flat_load.utilization(peak), flat_load.utilization(trough), 1e-12);
  EXPECT_GT(diurnal_load.utilization(peak), diurnal_load.utilization(trough) + 0.4);
}

TEST(LoadProcess, AvailableFractionComplementsUtilization) {
  LoadProcess load{LoadProcess::Config{}, Rng{12}};
  const TimePoint t = TimePoint::epoch() + Duration::minutes(5);
  EXPECT_DOUBLE_EQ(load.utilization(t) + load.available_fraction(t), 1.0);
}

TEST(LoadProcess, OverridePinsUtilizationAndResumesBitIdentically) {
  LoadProcess::Config cfg;
  LoadProcess plain{cfg, Rng{13}};
  LoadProcess surged{cfg, Rng{13}};
  // Surge for an hour, then clear. During the surge the value is pinned;
  // afterwards the trajectory must be *exactly* the unperturbed one, because
  // the AR(1) noise stays a pure function of the step index.
  surged.set_utilization_override(0.9);
  EXPECT_TRUE(surged.overridden());
  for (int i = 0; i < 360; ++i) {
    EXPECT_DOUBLE_EQ(
        surged.utilization(TimePoint::epoch() + Duration::seconds(10) * static_cast<double>(i)),
        0.9);
  }
  surged.clear_override();
  for (int i = 0; i < 2000; ++i) {
    const TimePoint t = TimePoint::epoch() + Duration::hours(1) +
                        Duration::seconds(10) * static_cast<double>(i);
    EXPECT_DOUBLE_EQ(surged.utilization(t), plain.utilization(t));
  }
}

TEST(LoadProcess, OverrideClampsToConfiguredBounds) {
  LoadProcess::Config cfg;
  cfg.floor = 0.1;
  cfg.ceiling = 0.8;
  LoadProcess load{cfg, Rng{14}};
  load.set_utilization_override(1.5);
  EXPECT_DOUBLE_EQ(load.utilization(TimePoint::epoch()), 0.8);
  load.set_utilization_override(0.0);
  EXPECT_DOUBLE_EQ(load.utilization(TimePoint::epoch()), 0.1);
}

// The shared-cell shape StarlinkAccess ships (2 s steps, a = 0.85), with
// the clamp moved out of reach so the tests see the raw AR(1) deviation.
LoadProcess::Config unclamped_cell_load() {
  LoadProcess::Config cfg;
  cfg.mean_utilization = 0.5;
  cfg.volatility = 0.02;
  cfg.reversion = 0.15;
  cfg.step = Duration::seconds(2);
  cfg.floor = 0.0;
  cfg.ceiling = 1.0;
  return cfg;
}

constexpr std::int64_t kStepsPerDay = 86'400 / 2;

TimePoint at_step(std::int64_t step) {
  return TimePoint::epoch() + Duration::seconds(2) * static_cast<double>(step);
}

/// x_n written out from the model's definition: the key is the first draw
/// of the Rng handed to the constructor.
double moving_average_reference(const LoadProcess::Config& cfg, Rng rng, std::int64_t n,
                                int terms) {
  const std::uint64_t key = rng.next();
  const double a = 1.0 - cfg.reversion;
  double weight = cfg.volatility;
  double sum = 0.0;
  for (std::int64_t k = 0; k <= std::min<std::int64_t>(n, terms - 1); ++k) {
    sum += weight * mix_normal(key, static_cast<std::uint64_t>(n - k));
    weight *= a;
  }
  return cfg.mean_utilization + sum;
}

TEST(LoadProcess, TermCountFollowsTheTailBound) {
  // Smallest K with a^(2K) < 1e-9: 64 at the shipped a = 0.85, 1 when the
  // process forgets everything each step.
  EXPECT_EQ((LoadProcess{unclamped_cell_load(), Rng{1}}.terms()), 64);
  LoadProcess::Config memoryless = unclamped_cell_load();
  memoryless.reversion = 1.0;
  EXPECT_EQ((LoadProcess{memoryless, Rng{1}}.terms()), 1);
  LoadProcess::Config stock;  // a = 0.8
  const int k = LoadProcess{stock, Rng{1}}.terms();
  EXPECT_LT(std::pow(0.8, 2 * k), 1e-9);
  EXPECT_GE(std::pow(0.8, 2 * (k - 1)), 1e-9);
}

TEST(LoadProcess, ReversionOutsideUnitIntervalThrows) {
  // 1e-300 is positive but leaves a == 1: a random walk, no finite K.
  for (const double r : {0.0, -0.1, 1.5, 1e-300, std::nan("")}) {
    LoadProcess::Config cfg;
    cfg.reversion = r;
    EXPECT_THROW((LoadProcess{cfg, Rng{1}}), std::invalid_argument) << "reversion " << r;
  }
}

TEST(LoadProcess, MatchesTheTruncatedMovingAverage) {
  const LoadProcess::Config cfg = unclamped_cell_load();
  LoadProcess load{cfg, Rng{21}};
  // Inside the first K steps (the sum is cut at t = 0) and far beyond them.
  for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1}, std::int64_t{63},
                               std::int64_t{64}, std::int64_t{1000}, 140 * kStepsPerDay}) {
    EXPECT_DOUBLE_EQ(load.utilization(at_step(n)),
                     moving_average_reference(cfg, Rng{21}, n, load.terms()))
        << "step " << n;
  }
}

TEST(LoadProcess, StartsAtTheMeanWithOneInnovationOfSpread) {
  // x_0 = volatility * eps_0: one innovation from the mean, not the
  // stationary spread volatility / sqrt(1 - a^2) (1.9x larger at a = 0.85).
  const LoadProcess::Config cfg = unclamped_cell_load();
  const int n = 4000;
  std::vector<double> dev;
  for (int seed = 1; seed <= n; ++seed) {
    LoadProcess load{cfg, Rng{static_cast<std::uint64_t>(seed)}};
    const double u = load.utilization(TimePoint::epoch());
    EXPECT_EQ(u, moving_average_reference(cfg, Rng{static_cast<std::uint64_t>(seed)}, 0, 1));
    dev.push_back(u - cfg.mean_utilization);
  }
  const double mean = std::accumulate(dev.begin(), dev.end(), 0.0) / n;
  double var = 0.0;
  for (const double d : dev) var += (d - mean) * (d - mean);
  const double sd = std::sqrt(var / (n - 1));
  // Five standard errors: sigma / sqrt(n) for the mean, sigma / sqrt(2n)
  // for the sample sd of a normal.
  EXPECT_NEAR(mean, 0.0, 5.0 * cfg.volatility / std::sqrt(n));
  EXPECT_NEAR(sd, cfg.volatility, 5.0 * cfg.volatility / std::sqrt(2.0 * n));
}

TEST(LoadProcess, QueryOrderDoesNotChangeAnyValue) {
  // 146 days of 2 s steps, sampled at a stride that is prime to every
  // period in the model, plus one run of consecutive steps.
  const LoadProcess::Config cfg = unclamped_cell_load();
  std::vector<std::int64_t> steps;
  for (std::int64_t n = 0; n < 146 * kStepsPerDay; n += 631) steps.push_back(n);
  for (std::int64_t n = 140 * kStepsPerDay; n < 140 * kStepsPerDay + 200; ++n) {
    steps.push_back(n);
  }

  LoadProcess forward{cfg, Rng{22}};
  std::vector<double> expected;
  for (const std::int64_t n : steps) expected.push_back(forward.utilization(at_step(n)));

  LoadProcess backward{cfg, Rng{22}};
  for (std::size_t i = steps.size(); i-- > 0;) {
    ASSERT_EQ(backward.utilization(at_step(steps[i])), expected[i]) << "step " << steps[i];
  }

  std::vector<std::size_t> order(steps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng shuffle{23};
  std::shuffle(order.begin(), order.end(), shuffle);
  LoadProcess shuffled{cfg, Rng{22}};
  for (const std::size_t i : order) {
    ASSERT_EQ(shuffled.utilization(at_step(steps[i])), expected[i]) << "step " << steps[i];
  }
  // The forward instance itself, re-read after everything else.
  for (const std::size_t i : order) {
    ASSERT_EQ(forward.utilization(at_step(steps[i])), expected[i]) << "step " << steps[i];
  }
}

TEST(LoadProcess, Day140FirstQueryEqualsTheWalkFromZero) {
  const LoadProcess::Config cfg = unclamped_cell_load();
  const std::int64_t target = 140 * kStepsPerDay + 17;
  LoadProcess cold{cfg, Rng{24}};
  const double first = cold.utilization(at_step(target));

  // Walk from t = 0 hourly, then step by step through the last 2K steps,
  // the window every term of the target's sum reads.
  LoadProcess walked{cfg, Rng{24}};
  std::int64_t n = 0;
  for (; n < target - 2 * walked.terms(); n += 1800) (void)walked.utilization(at_step(n));
  for (n = target - 2 * walked.terms(); n < target; ++n) (void)walked.utilization(at_step(n));
  EXPECT_EQ(walked.utilization(at_step(target)), first);
}

TEST(LoadProcess, StationaryAutocorrelationAndSpreadMatchTheAr1) {
  const LoadProcess::Config cfg = unclamped_cell_load();
  const double a = 1.0 - cfg.reversion;
  LoadProcess load{cfg, Rng{25}};
  // Skip the start-up (the variance reaches its stationary value within
  // K steps), then read n consecutive steps.
  const int n = 200'000;
  const std::int64_t first = 1000;
  std::vector<double> x;
  x.reserve(n);
  for (int i = 0; i < n; ++i) x.push_back(load.utilization(at_step(first + i)));
  const double mean = std::accumulate(x.begin(), x.end(), 0.0) / n;
  double c0 = 0.0;
  double c1 = 0.0;
  for (int i = 0; i < n; ++i) {
    c0 += (x[i] - mean) * (x[i] - mean);
    if (i + 1 < n) c1 += (x[i] - mean) * (x[i + 1] - mean);
  }
  const double rho1 = c1 / c0;
  const double sd = std::sqrt(c0 / n);
  const double stationary_sd = cfg.volatility / std::sqrt(1.0 - a * a);
  // Five standard errors of each AR(1) estimate over n samples:
  // sqrt((1 - a^2) / n) for the lag-1 autocorrelation, and a relative
  // sqrt((1 + a^2) / (2 n (1 - a^2))) for the sample sd.
  EXPECT_NEAR(rho1, a, 5.0 * std::sqrt((1.0 - a * a) / n));
  EXPECT_NEAR(sd, stationary_sd,
              5.0 * stationary_sd * std::sqrt((1.0 + a * a) / (2.0 * n * (1.0 - a * a))));
}

/// Resident set of this process in kB (VmRSS), or -1 where /proc is absent.
long resident_kb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(LoadProcess, ResidentMemoryStaysFlatOverThe146DayHorizon) {
  if (resident_kb() < 0) GTEST_SKIP() << "no /proc/self/status VmRSS";
  // Hourly queries over the paper's five months, both directions of a cell.
  // A process that stored one value per 2 s step would grow by ~50 MB per
  // direction here.
  LoadProcess down{unclamped_cell_load(), Rng{26}};
  LoadProcess up{unclamped_cell_load(), Rng{27}};
  const long before = resident_kb();
  double sum = 0.0;
  for (int hour = 0; hour <= 146 * 24; ++hour) {
    const TimePoint t = TimePoint::epoch() + Duration::hours(hour);
    sum += down.utilization(t) + up.utilization(t);
  }
  const long grown = resident_kb() - before;
  EXPECT_GT(sum, 0.0);
  EXPECT_LT(grown, 1024) << "VmRSS grew by " << grown << " kB";
}

}  // namespace
}  // namespace slp::phy
