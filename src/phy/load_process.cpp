#include "phy/load_process.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace slp::phy {

namespace {

/// Share of the stationary variance the truncated sum may leave out.
constexpr double kTailVariance = 1e-9;

/// Smallest K with a^(2K) < kTailVariance.
int moving_average_terms(double reversion) {
  if (!(reversion > 0.0 && reversion <= 1.0)) {
    throw std::invalid_argument("LoadProcess: reversion must be in (0, 1]");
  }
  const double a = 1.0 - reversion;
  if (a == 0.0) return 1;
  // a^(2K) < tail  <=>  K > log(tail) / (2 log a).
  const double terms = std::floor(std::log(kTailVariance) / (2.0 * std::log(a))) + 1.0;
  if (!(terms >= 1.0 && terms <= std::numeric_limits<int>::max())) {
    throw std::invalid_argument("LoadProcess: reversion too small to truncate the sum");
  }
  return static_cast<int>(terms);
}

}  // namespace

LoadProcess::LoadProcess(Config config, Rng rng)
    : config_{config}, key_{rng.next()}, terms_{moving_average_terms(config.reversion)} {}

double LoadProcess::deviation(std::int64_t step) const {
  const double a = 1.0 - config_.reversion;
  const std::int64_t last = std::min<std::int64_t>(step, terms_ - 1);
  double weight = config_.volatility;
  double sum = 0.0;
  for (std::int64_t k = 0; k <= last; ++k) {
    sum += weight * mix_normal(key_, static_cast<std::uint64_t>(step - k));
    weight *= a;
  }
  return sum;
}

double LoadProcess::utilization(TimePoint t) {
  // Override short-circuits reads; the trajectory underneath is untouched.
  if (overridden_) return override_;
  const std::int64_t step = std::max<std::int64_t>(0, t.ns() / config_.step.ns());
  if (step != cached_step_) {
    cached_deviation_ = deviation(step);
    cached_step_ = step;
  }
  double u = config_.mean_utilization + cached_deviation_;
  if (config_.diurnal_amplitude > 0.0) {
    const double phase =
        2.0 * std::numbers::pi * t.to_seconds() / config_.diurnal_period.to_seconds();
    u += config_.diurnal_amplitude * std::sin(phase);
  }
  return std::clamp(u, config_.floor, config_.ceiling);
}

}  // namespace slp::phy
