// pool.hpp — work-stealing thread pool for embarrassingly parallel campaigns.
//
// The simulation kernel is single-threaded by design (sim/simulator.hpp), so
// parallelism lives one level up: each (scenario, seed) cell owns a private
// Simulator and the pool runs many cells concurrently. Workers keep their own
// deques — a worker pushes and pops at the front of its own deque (LIFO, warm
// caches) and steals from the *back* of a victim's deque (FIFO, the oldest and
// therefore usually largest remaining task) when its own runs dry.
//
// Determinism contract: the pool never influences results. Tasks must not
// share mutable state except through their own slot of a pre-sized output
// vector; result *merging* is the caller's job and must happen in task-id
// order (see runner/sweep.hpp), never in completion order.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slp::runner {

class Pool {
 public:
  /// The widest pool a command-line flag may ask for (--jobs, --shards).
  static constexpr int kMaxWorkers = 1024;

  /// Spawns `workers` threads (clamped to >= 1). `workers == 0` picks the
  /// hardware concurrency.
  explicit Pool(int workers = 0);

  /// Drains outstanding tasks, then joins. Pending exceptions are swallowed
  /// here (destructors must not throw) — call drain() first to observe them.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Enqueues one task. Thread-safe; may be called from worker threads
  /// (nested submission lands on the submitting worker's own deque).
  void submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished, then rethrows the first
  /// exception any task raised (remaining tasks still run to completion).
  /// The pool is reusable after drain().
  void drain();

  /// Splits [0, n) into `chunks` contiguous ranges (sizes within one of each
  /// other) and runs `fn(begin, end)` for each on the pool, blocking until
  /// all complete (submit + drain, so it shares drain()'s exception
  /// behaviour). The determinism contract above still applies: `fn` must
  /// write only per-index slots, and folding stays the caller's job, in
  /// index order. Used by the fleet's sharded arbiter epochs.
  void run_ranges(std::size_t n, int chunks,
                  const std::function<void(std::size_t, std::size_t)>& fn);

  [[nodiscard]] int workers() const { return static_cast<int>(threads_.size()); }
  /// Tasks that have finished (successfully or not) since construction.
  [[nodiscard]] std::uint64_t tasks_completed() const;
  /// Tasks executed by a thief rather than their home worker.
  [[nodiscard]] std::uint64_t tasks_stolen() const;
  /// Wall-clock profiling across all finished tasks: summed busy seconds and
  /// the longest single task (the straggler that bounds sweep latency).
  [[nodiscard]] double task_seconds_total() const;
  [[nodiscard]] double task_seconds_max() const;

 private:
  struct Worker {
    std::deque<std::function<void()>> deque;  // guarded by Pool::mutex_
  };

  void run_worker(std::size_t me);
  /// Pops the next task for worker `me` (own front first, then steals from
  /// the back of the most loaded victim). Returns false if nothing runnable.
  bool take(std::size_t me, std::function<void()>& out, bool& stolen);

  std::vector<Worker> queues_;
  std::vector<std::thread> threads_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait here for tasks
  std::condition_variable drain_cv_;  // drain() waits here for quiescence
  std::size_t next_queue_ = 0;        // round-robin target for external submits
  std::uint64_t pending_ = 0;         // submitted, not yet finished
  std::uint64_t completed_ = 0;
  std::uint64_t stolen_ = 0;
  double task_seconds_total_ = 0.0;
  double task_seconds_max_ = 0.0;
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

}  // namespace slp::runner
