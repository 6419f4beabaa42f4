#include "util/flags.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace slp {

namespace {

/// Exits 2 with `error: --KEY=VALUE is not WHAT`, the way benches reject any
/// malformed value.
[[noreturn]] void reject(const std::string& key, const std::string& value, const char* what) {
  std::fprintf(stderr, "error: --%s=%s is not %s\n", key.c_str(), value.c_str(), what);
  std::exit(2);
}

/// True when `end` (from strtoll/strtod over `text`) consumed all of a
/// non-empty value and the number was in range.
bool whole(const std::string& text, const char* end) {
  return end != text.c_str() && *end == '\0' && errno != ERANGE;
}

bool parse_number(const std::string& text, std::int64_t& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtoll(text.c_str(), &end, 10);
  return whole(text, end);
}

bool parse_number(const std::string& text, double& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return whole(text, end);
}

}  // namespace

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (!arg.starts_with("--")) {
      flags.positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq == std::string_view::npos) {
      flags.values_.emplace(std::string{body}, "true");
    } else {
      flags.values_.emplace(std::string{body.substr(0, eq)}, std::string{body.substr(eq + 1)});
    }
  }
  return flags;
}

bool Flags::has(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return false;
  used_[it->first] = true;
  return true;
}

std::string Flags::get(std::string_view key, std::string_view def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::string{def};
  used_[it->first] = true;
  return it->second;
}

std::int64_t Flags::get_int(std::string_view key, std::int64_t def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  used_[it->first] = true;
  std::int64_t value = 0;
  if (!parse_number(it->second, value)) reject(it->first, it->second, "an integer");
  return value;
}

int Flags::get_int(std::string_view key, int def, int min, int max) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::int64_t value = get_int(key, def);
  if (value < min || value > max) {
    const std::string range = "an integer in [" + std::to_string(min) + ", " +
                              std::to_string(max) + "]";
    reject(it->first, it->second, range.c_str());
  }
  return static_cast<int>(value);
}

double Flags::get_double(std::string_view key, double def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  used_[it->first] = true;
  double value = 0.0;
  if (!parse_number(it->second, value)) reject(it->first, it->second, "a number");
  return value;
}

bool Flags::get_bool(std::string_view key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  used_[it->first] = true;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

Duration Flags::get_duration(std::string_view key, Duration def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  used_[it->first] = true;
  Duration parsed;
  if (!parse_duration(it->second, parsed)) {
    reject(it->first, it->second, "a duration (want e.g. 90s, 15m, 2h)");
  }
  return parsed;
}

std::vector<std::string> Flags::get_list(std::string_view key,
                                         std::vector<std::string> def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  used_[it->first] = true;
  std::vector<std::string> out;
  std::string_view rest{it->second};
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    if (!item.empty()) out.emplace_back(item);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return out;
}

std::vector<double> Flags::get_double_list(std::string_view key,
                                           std::vector<double> def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  std::vector<double> out;
  for (const std::string& item : get_list(key, {})) {
    if (!parse_number(item, out.emplace_back())) {
      reject(it->first, it->second, "a list of numbers");
    }
  }
  return out;
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> result;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!used_.contains(key)) result.push_back(key);
  }
  return result;
}

}  // namespace slp
