#pragma once
// Software combining tree barrier (CMB; Yew, Tzeng & Lawrie 1987).
//
// Threads are divided into groups that share a counter, like the
// centralized barrier, but the counters of different groups live at
// different memory locations, forming a tree of hot spots instead of one
// (paper Section II-B2, Figure 4a).  The thread that exhausts a node's
// counter proceeds to the node's parent; the thread that exhausts the root
// releases everyone through a global generation word (global wake-up).

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "armbar/barriers/atomics.hpp"
#include "armbar/barriers/shape.hpp"
#include "armbar/util/cacheline.hpp"

namespace armbar {

namespace site {
inline constexpr Site cmb_arrive = Site::acq_rel("cmb.arrive");
inline constexpr Site cmb_gen_release = Site::release("cmb.gen_release");
inline constexpr Site cmb_gen_poll = Site::acquire("cmb.gen_poll");
}  // namespace site

template <typename Atomics = NativeAtomics>
class CombiningTreeBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  explicit CombiningTreeBarrier(int num_threads, int fanin = 2)
      : num_threads_(num_threads),
        fanin_(fanin),
        tree_(shape::CombiningTree::build(num_threads, fanin)),
        counters_(tree_.nodes.size()) {
    for (std::size_t n = 0; n < tree_.nodes.size(); ++n)
      counters_[n]->store(tree_.nodes[n].fanin, std::memory_order_relaxed);
  }

  void wait(int tid) {
    // Stronger than required, as in CentralSenseBarrier: not a site.
    const std::uint32_t g = gen_->load(std::memory_order_acquire);
    int node = tree_.leaf_of_thread[static_cast<std::size_t>(tid)];
    for (;;) {
      auto& counter = counters_[static_cast<std::size_t>(node)].value;
      if (counter.fetch_sub(1, site::cmb_arrive) != 1) {
        // Not the last at this node: wait for the global release.
        Atomics::await(*gen_, site::cmb_gen_poll,
                       [g](std::uint32_t v) { return v != g; });
        return;
      }
      // Last at this node: re-arm it for the next episode and combine
      // upward.  The relaxed re-arm is safe even though this thread is
      // not (in general) the one that releases gen_: the re-arm is
      // program-order before our fetch_sub on the parent node, each
      // acq_rel fetch_sub up the tree joins its predecessors, so the
      // root winner's gen_ release transitively publishes every node's
      // re-arm; peers acquire gen_ before re-entering, giving re-arm
      // happens-before every episode-e+1 decrement of this node.
      // (wmc: weakening cmb.arrive or cmb.gen_release to relaxed is
      // caught as a barrier escape.)
      counter.store(tree_.nodes[static_cast<std::size_t>(node)].fanin,
                    std::memory_order_relaxed);
      if (node == tree_.root()) {
        gen_->store(g + 1, site::cmb_gen_release);
        return;
      }
      node = tree_.nodes[static_cast<std::size_t>(node)].parent;
    }
  }

  int num_threads() const noexcept { return num_threads_; }
  int fanin() const noexcept { return fanin_; }
  std::string name() const { return "CMB(f=" + std::to_string(fanin_) + ")"; }

 private:
  int num_threads_;
  int fanin_;
  shape::CombiningTree tree_;
  std::vector<util::Padded<Atomic<int>>> counters_;
  util::Padded<Atomic<std::uint32_t>> gen_;
};

}  // namespace armbar
