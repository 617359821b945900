#pragma once
// MCS tree barrier (Mellor-Crummey & Scott 1991, Algorithm 3).
//
// Every thread owns a tree node.  Arrival uses a 4-ary tree: a thread
// waits until its (up to) four arrival children have cleared their slots
// in its `child_not_ready` array, re-arms the array for the next episode,
// and then clears its own slot in its parent.  Wake-up uses a separate
// binary tree of per-thread generation flags.
//
// Faithful detail: the four child_not_ready slots of a node share one
// cacheline, exactly as in the original algorithm (each is one word of a
// packed array).  The paper's Figure 7 analysis — MCS losing to CMB beyond
// 8 threads on clustered ARMv8 parts — depends on this layout and on the
// 4-ary parent links crossing cluster boundaries.

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

namespace site {
inline constexpr Site mcs_child_clear = Site::release("mcs.child_clear");
inline constexpr Site mcs_child_poll = Site::acquire("mcs.child_poll");
inline constexpr Site mcs_wake_set = Site::release("mcs.wake_set");
inline constexpr Site mcs_wake_poll = Site::acquire("mcs.wake_poll");
}  // namespace site

template <typename Atomics = NativeAtomics>
class McsTreeBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  explicit McsTreeBarrier(int num_threads)
      : num_threads_(checked(num_threads)),
        nodes_(static_cast<std::size_t>(num_threads_)),
        wake_(static_cast<std::size_t>(num_threads_)),
        epoch_(static_cast<std::size_t>(num_threads_)),
        wake_children_(static_cast<std::size_t>(num_threads_)) {
    for (int t = 0; t < num_threads; ++t) {
      wake_children_[static_cast<std::size_t>(t)] =
          shape::McsShape::wakeup_children(t, num_threads);
      Node& n = nodes_[static_cast<std::size_t>(t)].value;
      n.num_children = static_cast<int>(
          shape::McsShape::arrival_children(t, num_threads).size());
      for (int s = 0; s < n.num_children; ++s)
        n.child_not_ready[static_cast<std::size_t>(s)].store(
            1, std::memory_order_relaxed);
    }
  }

  void wait(int tid) {
    Node& n = nodes_[static_cast<std::size_t>(tid)].value;
    const std::uint64_t e = ++epoch_[static_cast<std::size_t>(tid)].value;

    // Arrival: wait for all children (in one polling loop natively),
    // re-arm, then notify the parent.
    Atomics::await_all(
        0, n.num_children,
        [&](int s) -> auto& {
          return n.child_not_ready[static_cast<std::size_t>(s)];
        },
        site::mcs_child_poll, [](std::uint32_t v) { return v == 0; });
    // Re-arm may be relaxed: a child can only clear this slot again after
    // observing this episode's wake-up, and the re-arm is ordered before
    // that wake-up — it sits program-order before our release store (the
    // parent notification below, or wake_ fan-out for the root), every
    // arrival hop up the tree is a release/acquire pair, and so is every
    // wake_ hop back down, so the re-arm happens-before the child's next
    // episode-e+1 clear.  (wmc certifies this: mutating mcs.child_clear
    // or mcs.wake_set to relaxed is caught as a barrier escape.)
    for (int s = 0; s < n.num_children; ++s)
      n.child_not_ready[static_cast<std::size_t>(s)].store(
          1, std::memory_order_relaxed);
    if (tid != 0) {
      Node& parent =
          nodes_[static_cast<std::size_t>(shape::McsShape::arrival_parent(tid))]
              .value;
      parent
          .child_not_ready[static_cast<std::size_t>(
              shape::McsShape::arrival_slot(tid))]
          .store(0, site::mcs_child_clear);
      // Wake-up: wait on our own flag in the binary tree.
      Atomics::await(wake_[static_cast<std::size_t>(tid)].value,
                     site::mcs_wake_poll, [e](std::uint64_t v) {
                       return util::gen_reached(v, e);
                     });
    }
    for (int c : wake_children_[static_cast<std::size_t>(tid)])
      wake_[static_cast<std::size_t>(c)].value.store(e, site::mcs_wake_set);
  }

  int num_threads() const noexcept { return num_threads_; }
  std::string name() const { return "MCS"; }

 private:
  static int checked(int num_threads) {
    if (num_threads < 1)
      throw std::invalid_argument("McsTreeBarrier: num_threads >= 1");
    return num_threads;
  }

  struct Node {
    // Packed on one line, as in the original algorithm.  Slots
    // [0, num_children) belong to real arrival children.
    Atomic<std::uint32_t> child_not_ready[shape::McsShape::kArrivalFanin];
    int num_children = 0;
  };

  int num_threads_;
  std::vector<util::Padded<Node>> nodes_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> wake_;
  std::vector<util::Padded<std::uint64_t>> epoch_;
  std::vector<std::vector<int>> wake_children_;  ///< binary wake-up tree
};

}  // namespace armbar
