#pragma once
// Thread team: a reusable pool of worker threads for running barrier
// episodes, tests, and benchmarks.

#include <functional>

namespace armbar {

/// Spawn @p num_threads threads, run fn(tid) on each, join them all.
/// Exceptions thrown by workers are rethrown (the first one) after join.
void parallel_run(int num_threads, const std::function<void(int)>& fn);

/// A persistent team of worker threads.  run() dispatches fn(tid) to every
/// worker and blocks until all have finished; the team is reusable and
/// avoids per-episode thread spawn costs (used by the native benchmarks).
///
/// Workers block on a condition variable between runs, so an idle team
/// costs nothing even on oversubscribed machines.
class ThreadTeam {
 public:
  explicit ThreadTeam(int num_threads);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int size() const noexcept { return num_threads_; }

  /// Run fn(tid) on all workers; returns when every worker has completed.
  /// Rethrows the first worker exception, if any.
  void run(const std::function<void(int)>& fn);

 private:
  struct Impl;
  Impl* impl_;
  int num_threads_;
};

}  // namespace armbar
