#pragma once
// Native-side phase observability: per-thread barrier enter/exit
// timestamps, decomposed into arrival and notification time.
//
// The simulator gets its phase spans from explicit PhaseScope annotations
// inside each algorithm; native barriers are opaque (we run the real
// libgomp-shaped code), so the native decomposition is inferred from
// timestamps instead.  With every thread's enter instant e_t and exit
// instant x_t for one episode, and A = max_t e_t the instant the last
// thread arrives:
//
//   arrival_t      = A - e_t      (time waiting for stragglers)
//   notification_t = x_t - A      (time from full arrival to release)
//
// This is the same decomposition the paper's Section III cost model uses:
// notification time is what the release topology determines, arrival time
// is what the arrival topology plus skew determines.  Means over threads
// and post-warmup episodes make the numbers comparable with the
// simulator's per-phase span_ns.
//
// Header-only and dependency-free, so native benchmark code can record
// the timestamps it takes around barrier.wait(tid) without a link-time
// dependency on the obs library.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace armbar::obs {

class NativePhaseLog {
 public:
  NativePhaseLog() = default;
  /// Pre-size for @p threads workers and @p episodes barrier episodes per
  /// worker; records beyond @p episodes are counted in dropped().
  NativePhaseLog(int threads, int episodes) { reset(threads, episodes); }

  void reset(int threads, int episodes) {
    threads_ = threads;
    episodes_ = episodes;
    enter_.assign(cells(), 0);
    exit_.assign(cells(), 0);
    next_.assign(static_cast<std::size_t>(threads), 0);
    dropped_ = 0;
  }

  /// Monotonic nanosecond timestamp for record().
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Log one episode on @p tid (its episode index auto-increments).
  /// Thread-safe across distinct tids: each thread only touches its own
  /// cells, which is why there is no atomic in sight.
  void record(int tid, std::uint64_t enter_ns, std::uint64_t exit_ns) {
    const auto t = static_cast<std::size_t>(tid);
    const int ep = next_[t]++;
    if (ep >= episodes_) {
      ++dropped_;
      return;
    }
    const std::size_t i =
        t * static_cast<std::size_t>(episodes_) + static_cast<std::size_t>(ep);
    enter_[i] = enter_ns;
    exit_[i] = exit_ns;
  }

  int threads() const noexcept { return threads_; }
  int episodes() const noexcept { return episodes_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// Episodes fully recorded by every thread.
  int complete_episodes() const noexcept {
    int m = episodes_;
    for (const int n : next_) m = std::min(m, n);
    return threads_ == 0 ? 0 : m;
  }

  std::uint64_t enter_ns(int tid, int episode) const {
    return enter_[cell(tid, episode)];
  }
  std::uint64_t exit_ns(int tid, int episode) const {
    return exit_[cell(tid, episode)];
  }

  struct PhaseBreakdown {
    double arrival_ns = 0.0;       ///< mean over threads
    double notification_ns = 0.0;  ///< mean over threads
  };

  /// Decomposition of one complete episode (see file comment).
  PhaseBreakdown breakdown(int episode) const {
    PhaseBreakdown out;
    if (threads_ <= 0) return out;
    std::uint64_t last_arrival = 0;
    for (int t = 0; t < threads_; ++t)
      last_arrival = std::max(last_arrival, enter_ns(t, episode));
    for (int t = 0; t < threads_; ++t) {
      out.arrival_ns +=
          static_cast<double>(last_arrival - enter_ns(t, episode));
      const std::uint64_t x = exit_ns(t, episode);
      // Clamp: a thread released before the straggler arrived (possible
      // for tree barriers under heavy skew) contributes zero, not a
      // negative duration.
      out.notification_ns +=
          x > last_arrival ? static_cast<double>(x - last_arrival) : 0.0;
    }
    out.arrival_ns /= threads_;
    out.notification_ns /= threads_;
    return out;
  }

  /// Mean decomposition over complete episodes >= @p warmup.
  PhaseBreakdown mean_breakdown(int warmup = 0) const {
    PhaseBreakdown sum;
    const int n = complete_episodes();
    int used = 0;
    for (int ep = warmup; ep < n; ++ep) {
      const PhaseBreakdown b = breakdown(ep);
      sum.arrival_ns += b.arrival_ns;
      sum.notification_ns += b.notification_ns;
      ++used;
    }
    if (used > 0) {
      sum.arrival_ns /= used;
      sum.notification_ns /= used;
    }
    return sum;
  }

 private:
  std::size_t cells() const {
    return static_cast<std::size_t>(threads_) *
           static_cast<std::size_t>(episodes_);
  }
  std::size_t cell(int tid, int episode) const {
    return static_cast<std::size_t>(tid) *
               static_cast<std::size_t>(episodes_) +
           static_cast<std::size_t>(episode);
  }

  int threads_ = 0;
  int episodes_ = 0;
  std::vector<std::uint64_t> enter_;
  std::vector<std::uint64_t> exit_;
  std::vector<int> next_;  ///< per-thread episode cursor
  std::uint64_t dropped_ = 0;
};

}  // namespace armbar::obs
