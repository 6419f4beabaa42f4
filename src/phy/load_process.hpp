// load_process.hpp — time-varying shared-cell utilization.
//
// Starlink capacity is shared per cell. The paper found *no* diurnal pattern
// ("median throughput varies by less than ±10% with no apparent day-night
// cycle") and attributed this to low infrastructure utilization. We model
// utilization as a mean-reverting AR(1) process sampled on a fixed step,
// optionally with a (disabled-by-default) diurnal component — the ablation
// benches flip it on to show what a loaded network would have looked like.
//
// The AR(1) deviation is stateless: step n reads its truncated
// moving-average form over counter-keyed normals (mix_normal, util/rng.hpp),
//
//   x_n = sum_{k=0}^{min(n, K-1)} a^k * volatility * eps_{n-k},
//   a = 1 - reversion,  eps_j = mix_normal(key, j),  eps_j = 0 for j < 0,
//
// so the process starts at the mean at t = 0, and any step costs O(K) time
// and no memory, whatever its sim time: a day-140 query is as cheap as a
// t = 0 one, and the same step gives the same bits whatever was queried
// before. K is the smallest k with a^(2k) < 1e-9, so the neglected tail
// carries under 1e-9 of the stationary variance (K = 64 at a = 0.85).
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace slp::phy {

class LoadProcess {
 public:
  struct Config {
    double mean_utilization = 0.25;   ///< long-run average share of cell in use
    double volatility = 0.06;         ///< AR(1) innovation std-dev
    double reversion = 0.2;           ///< pull toward the mean per step, in (0, 1]
    Duration step = Duration::seconds(10);
    double diurnal_amplitude = 0.0;   ///< 0 = flat (paper's observation)
    Duration diurnal_period = Duration::hours(24);
    double floor = 0.02;
    double ceiling = 0.95;
  };

  /// The noise key is drawn once from `rng`. Throws std::invalid_argument
  /// when config.reversion is outside (0, 1], or so small that K would not
  /// fit an int.
  LoadProcess(Config config, Rng rng);

  /// Utilization in [floor, ceiling] at time t: a pure function of the step
  /// index of t (and of t itself for the diurnal term).
  [[nodiscard]] double utilization(TimePoint t);

  /// Fraction of nominal capacity available to our user at time t.
  [[nodiscard]] double available_fraction(TimePoint t) { return 1.0 - utilization(t); }

  /// Pins utilization to `target` (clamped to [floor, ceiling]) until
  /// clear_override() — the scenario injector's cell-load-surge hook. Every
  /// step's noise is a pure function of its index, so clearing the override
  /// resumes the unperturbed trajectory.
  void set_utilization_override(double target) {
    override_ = std::clamp(target, config_.floor, config_.ceiling);
    overridden_ = true;
  }
  void clear_override() { overridden_ = false; }
  [[nodiscard]] bool overridden() const { return overridden_; }

  [[nodiscard]] const Config& config() const { return config_; }

  /// K, the number of moving-average terms per step.
  [[nodiscard]] int terms() const { return terms_; }

 private:
  /// x_n above, summed in a fixed order (k ascending).
  [[nodiscard]] double deviation(std::int64_t step) const;

  Config config_;
  std::uint64_t key_;
  int terms_;
  std::int64_t cached_step_ = -1;  ///< one-entry cache for same-step queries
  double cached_deviation_ = 0.0;
  bool overridden_ = false;
  double override_ = 0.0;
};

}  // namespace slp::phy
