// flags.hpp — tiny --key=value command-line parser for benches & examples.
//
// Not a general argument library: benches accept a handful of overrides
// (seed, scale, output verbosity) and anything unknown is reported, so typos
// do not silently fall back to defaults.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace slp {

class Flags {
 public:
  /// Parses argv of the form `--key=value` or bare `--flag` (value "true").
  /// Non-flag positional arguments are collected separately.
  static Flags parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view key) const;

  // The numeric getters return `def` when the key is absent. A present value
  // that is empty, has trailing characters or is out of range prints
  // `error: --KEY=VALUE is not ...` and exits 2, rather than misreading a
  // typo as zero.
  [[nodiscard]] std::string get(std::string_view key, std::string_view def) const;
  [[nodiscard]] std::int64_t get_int(std::string_view key, std::int64_t def) const;
  /// Bounded form: a present value outside [min, max] exits 2 as well, so a
  /// count never narrows silently (`--seeds=4294967298` is not 2 seeds).
  [[nodiscard]] int get_int(std::string_view key, int def, int min, int max) const;
  [[nodiscard]] double get_double(std::string_view key, double def) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool def) const;

  /// Human duration value (`--ramp=90s`, `--window=15m`, `--span=2h`); a bare
  /// number means seconds (parse_duration, units.hpp).
  [[nodiscard]] Duration get_duration(std::string_view key, Duration def) const;

  /// Comma-separated list value (`--grid=leo,geo,wired`); `def` when absent.
  /// Empty elements are dropped, so `--grid=` means "empty list".
  [[nodiscard]] std::vector<std::string> get_list(std::string_view key,
                                                  std::vector<std::string> def) const;
  /// Comma-separated numeric list (`--loads=0.2,0.5,0.9`).
  [[nodiscard]] std::vector<double> get_double_list(std::string_view key,
                                                    std::vector<double> def) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were supplied but never queried; call after all get()s to warn
  /// about typos.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
  mutable std::map<std::string, bool, std::less<>> used_;
  std::vector<std::string> positional_;
};

}  // namespace slp
