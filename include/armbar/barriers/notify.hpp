#pragma once
// Notification-phase (wake-up) policies, shared by the tournament-family
// barriers and the optimized barrier (paper Section V-C).
//
//  - kGlobalSense: the champion flips one global generation word; all
//    other threads spin on it.  Cost model eq. (3).
//  - kBinaryTree: per-thread wake flags organized as a binary tree rooted
//    at thread 0; each woken thread forwards to its children.  Eq. (4).
//  - kNumaTree: the paper's NUMA-aware wake-up tree (eq. 5): per-cluster
//    masters form a binary tree across clusters and root local binary
//    trees inside their clusters, cutting cross-cluster edges.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "armbar/barriers/atomics.hpp"
#include "armbar/barriers/shape.hpp"
#include "armbar/util/cacheline.hpp"
#include "armbar/util/generation.hpp"

namespace armbar {

enum class NotifyPolicy {
  kGlobalSense,
  kBinaryTree,
  kNumaTree,
};

/// Human-readable policy name ("global", "binary-tree", "numa-tree").
std::string to_string(NotifyPolicy policy);

namespace site {
inline constexpr Site notify_gen_release = Site::release("notify.gen_release");
inline constexpr Site notify_gen_poll = Site::acquire("notify.gen_poll");
inline constexpr Site notify_wake_set = Site::release("notify.wake_set");
inline constexpr Site notify_wake_poll = Site::acquire("notify.wake_poll");
}  // namespace site

/// Reusable notification stage.  The thread that completes the arrival
/// phase calls release(); every thread (including the releaser) then calls
/// wait_release().  Episodes are identified by a monotonically increasing
/// generation supplied by the caller.
///
/// Tree policies require the releaser to be thread 0 (the static
/// tournament champion); global sense works with any releaser.
template <typename Atomics = NativeAtomics>
class Notifier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  Notifier(NotifyPolicy policy, int num_threads, int cluster_size)
      : policy_(policy), num_threads_(num_threads) {
    if (num_threads < 1)
      throw std::invalid_argument("Notifier: num_threads >= 1");
    if (policy == NotifyPolicy::kNumaTree && cluster_size < 1)
      throw std::invalid_argument("Notifier: NUMA tree needs cluster_size");
    if (policy_ != NotifyPolicy::kGlobalSense) {
      // Padded<atomic> is immovable; build by size and move the vector.
      wake_ = std::vector<util::Padded<Atomic<std::uint64_t>>>(
          static_cast<std::size_t>(num_threads));
      children_.resize(static_cast<std::size_t>(num_threads));
      for (int t = 0; t < num_threads; ++t) {
        children_[static_cast<std::size_t>(t)] =
            policy_ == NotifyPolicy::kBinaryTree
                ? shape::binary_wakeup_children(t, num_threads)
                : shape::numa_wakeup_children(t, num_threads, cluster_size);
      }
    }
  }

  /// Called by the arrival-phase champion (thread 0 for tree policies).
  void release(int tid, std::uint64_t gen) {
    if (policy_ == NotifyPolicy::kGlobalSense) {
      gen_->store(gen, site::notify_gen_release);
      return;
    }
    if (tid != 0)
      throw std::logic_error("Notifier: tree release must come from thread 0");
    forward(0, gen);
  }

  /// Called by every thread; returns once the episode @p gen is released.
  /// Tree policies forward the wake-up to the caller's children.
  void wait_release(int tid, std::uint64_t gen) {
    if (policy_ == NotifyPolicy::kGlobalSense) {
      Atomics::await(*gen_, site::notify_gen_poll, [gen](std::uint64_t v) {
        return util::gen_reached(v, gen);
      });
      return;
    }
    if (tid != 0) {
      Atomics::await(wake_[static_cast<std::size_t>(tid)].value,
                     site::notify_wake_poll, [gen](std::uint64_t v) {
                       return util::gen_reached(v, gen);
                     });
      forward(tid, gen);
    }
    // Thread 0 already forwarded in release().
  }

  NotifyPolicy policy() const noexcept { return policy_; }

 private:
  void forward(int tid, std::uint64_t gen) {
    for (int c : children_[static_cast<std::size_t>(tid)])
      wake_[static_cast<std::size_t>(c)].value.store(gen,
                                                     site::notify_wake_set);
  }

  NotifyPolicy policy_;
  int num_threads_;
  util::Padded<Atomic<std::uint64_t>> gen_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> wake_;
  std::vector<std::vector<int>> children_;
};

}  // namespace armbar
