// spans.hpp — host-clock spans for the traced benchmark run.
//
// The benchmark times each layer from outside, at the public call into it:
// a span is an obs::TraceEvent of phase 'X' with host-clock start and
// duration, its category the layer (the name up to the first '.'), its pid
// the workload cell (0 outside cells) and its id, parent span and cell in
// args. Spans stay in memory and are written once, at exit, with
// obs::trace_json (load the file in Perfetto or chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanRecorder {
 public:
  /// Opens a span and returns its id. `parent` is the id of the enclosing
  /// span (-1 for a root), `cell` the workload cell index (-1 outside cells).
  int begin(std::string name, int parent = -1, int cell = -1) {
    const int id = static_cast<int>(events_.size());
    slp::obs::TraceEvent ev;
    ev.category = name.substr(0, name.find('.'));
    ev.name = std::move(name);
    ev.phase = 'X';
    ev.ts_ns = now_ns();
    ev.args_json = "{\"id\":" + std::to_string(id) + ",\"parent\":" + std::to_string(parent) +
                   ",\"cell\":" + std::to_string(cell) + "}";
    ev.cell = cell >= 0 ? static_cast<std::uint32_t>(cell) : 0;
    events_.push_back(std::move(ev));
    return id;
  }
  void end(int id) {
    slp::obs::TraceEvent& ev = events_[static_cast<std::size_t>(id)];
    ev.dur_ns = now_ns() - ev.ts_ns;
  }

  [[nodiscard]] const std::vector<slp::obs::TraceEvent>& events() const { return events_; }

  /// Writes every span as Chrome trace-event JSON; returns false when the
  /// file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::ofstream f(path);
    f << slp::obs::trace_json(events_);
    f.close();
    return static_cast<bool>(f);
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<slp::obs::TraceEvent> events_;
};

/// RAII span on an optional recorder: a null recorder (the untraced run)
/// records nothing and costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, int parent = -1, int cell = -1)
      : rec_{rec}, id_{rec != nullptr ? rec->begin(std::move(name), parent, cell) : -1} {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
