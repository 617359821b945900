#pragma once
// Sense-reversing centralized barrier (SENSE).
//
// The algorithm GCC's libgomp uses for `#pragma omp barrier` (paper
// Section II-B1): arriving threads atomically decrement a shared counter;
// the last arrival resets the counter and flips a global generation word
// that everyone else spins on.  We use a monotonically increasing
// generation instead of a 1-bit sense, which is the standard reusable
// formulation (wrap-around after 2^32 episodes is harmless because only
// inequality is tested).
//
// Two layouts are provided:
//  - kPackedGcc: counter and generation share one cacheline, exactly like
//    libgomp's gomp_barrier_t.  Every arrival RMW then invalidates the
//    line all waiters are spinning on — the hot-spot behaviour the paper
//    measures in Figures 6(a)/7(a).
//  - kSeparated: counter and generation on distinct cachelines, the
//    textbook improvement.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "armbar/barriers/atomics.hpp"
#include "armbar/util/cacheline.hpp"

namespace armbar {

enum class SenseLayout {
  kPackedGcc,  ///< counter + generation on one cacheline (libgomp layout)
  kSeparated,  ///< counter and generation on distinct cachelines
};

namespace site {
inline constexpr Site central_arrive = Site::acq_rel("central.arrive");
inline constexpr Site central_gen_release =
    Site::release("central.gen_release");
inline constexpr Site central_gen_poll = Site::acquire("central.gen_poll");
}  // namespace site

template <typename Atomics = NativeAtomics>
class CentralSenseBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  explicit CentralSenseBarrier(int num_threads,
                               SenseLayout layout = SenseLayout::kSeparated)
      : num_threads_(num_threads), layout_(layout) {
    if (num_threads < 1)
      throw std::invalid_argument("CentralSenseBarrier: num_threads >= 1");
    packed_.count.store(num_threads, std::memory_order_relaxed);
    separated_count_->store(num_threads, std::memory_order_relaxed);
  }

  void wait(int /*tid*/) {
    if (layout_ == SenseLayout::kPackedGcc)
      do_wait(packed_.count, packed_.gen);
    else
      do_wait(*separated_count_, *separated_gen_);
  }

  int num_threads() const noexcept { return num_threads_; }
  std::string name() const {
    return layout_ == SenseLayout::kPackedGcc ? "SENSE(gcc-packed)" : "SENSE";
  }

 private:
  void do_wait(Atomic<int>& count, Atomic<std::uint32_t>& gen) {
    // Stronger than required (g is pinned by the episode structure), so
    // not a site.
    const std::uint32_t g = gen.load(std::memory_order_acquire);
    if (count.fetch_sub(1, site::central_arrive) == 1) {
      // Last arrival: re-arm the counter before releasing the waiters.
      // The relaxed re-arm is safe: it is program-order before the gen
      // release below, and waiters acquire gen before re-entering, so the
      // re-arm happens-before every episode-e+1 fetch_sub; a re-entering
      // RMW also reads the latest modification-order value, so it can
      // never observe the pre-reset count.  The acq_rel on the fetch_sub
      // chain is what makes the final release publish *every* arrival,
      // not just the last thread's.  (wmc certifies both: weakening
      // central.arrive or central.gen_release to relaxed is caught.)
      count.store(num_threads_, std::memory_order_relaxed);
      gen.store(g + 1, site::central_gen_release);
    } else {
      Atomics::await(gen, site::central_gen_poll,
                     [g](std::uint32_t v) { return v != g; });
    }
  }

  struct alignas(util::kCachelineBytes) PackedState {
    Atomic<int> count{};
    Atomic<std::uint32_t> gen{};
  };

  int num_threads_;
  SenseLayout layout_;
  PackedState packed_;
  util::Padded<Atomic<int>> separated_count_;
  util::Padded<Atomic<std::uint32_t>> separated_gen_;
};

}  // namespace armbar
