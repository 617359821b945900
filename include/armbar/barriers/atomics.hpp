#pragma once
// The atomics policy every hand-written native barrier is a template on.
//
// A barrier touches shared memory only through its policy: the atomic
// type, a spin-wait on one flag, and a spin-wait on several flags.  Two
// policies exist:
//
//  - NativeAtomics, the default template argument: std::atomic plus the
//    util::SpinWait loop.  This is the code the library ships and times.
//  - wmc::Atomics (include/armbar/wmc/models.hpp): the weak-memory
//    checker's shadow atomics, so `wmc_check` explores these very headers
//    under every interleaving.
//
// Every load-bearing memory order is a Site: a named, constexpr order
// declared in the header of the barrier that uses it.  NativeAtomics sees
// only the order (Site converts to std::memory_order at compile time); the
// checker resolves the name against the weakening it is testing, which is
// how the mutation suite proves each order is needed.  Orders that are not
// sites (relaxed re-arms, acquires stronger than required) are plain
// std::memory_order values with a comment saying why.

#include <atomic>

#include "armbar/util/backoff.hpp"

namespace armbar {

/// A named load-bearing memory order.  docs/MEMORY_ORDERS.md has one row
/// per Site.  scripts/check_docs.py and tests/test_wmc_mutation.cpp find
/// the sites by their `Site x = Site::release("...")` declarations, which
/// the private constructor makes the only way to declare one.
class Site {
 public:
  static constexpr Site acquire(const char* n) {
    return Site(n, std::memory_order_acquire);
  }
  static constexpr Site release(const char* n) {
    return Site(n, std::memory_order_release);
  }
  static constexpr Site acq_rel(const char* n) {
    return Site(n, std::memory_order_acq_rel);
  }

  constexpr operator std::memory_order() const noexcept { return order; }

  const char* name;
  std::memory_order order;

 private:
  constexpr Site(const char* n, std::memory_order o) : name(n), order(o) {}
};

/// std::atomic with the library's adaptive spin-wait.
struct NativeAtomics {
  template <typename T>
  using Atomic = std::atomic<T>;

  /// Spin until pred(flag.load(order)) holds.
  template <typename T, typename Order, typename Pred>
  static void await(const std::atomic<T>& flag, Order order, Pred pred) {
    util::spin_until([&] { return pred(flag.load(order)); });
  }

  /// Spin until pred(flag_of(i).load(order)) holds for every i in
  /// [begin, end).  All flags are polled in one loop, so the cache misses
  /// to different children's lines overlap instead of queueing; this is
  /// what makes a fan-in-4 group cheaper than a deeper fan-in-2 tree on
  /// real hardware.
  template <typename FlagOf, typename Order, typename Pred>
  static void await_all(int begin, int end, FlagOf flag_of, Order order,
                        Pred pred) {
    util::SpinWait w;
    for (;;) {
      bool all = true;
      for (int i = begin; i < end; ++i)
        all = pred(flag_of(i).load(order)) && all;
      if (all) return;
      w.step();
    }
  }
};

}  // namespace armbar
