#pragma once
// Adaptive spin-wait.
//
// All native barrier implementations spin on flags.  On a dedicated core a
// raw spin is optimal, but this library must also stay live when threads
// are oversubscribed (CI containers, laptops).  SpinWait spins with a cpu
// relax hint for a bounded number of polls and then starts yielding to the
// scheduler, so a barrier with P > hardware_concurrency threads still
// completes promptly.

#include <cstdint>
#include <thread>

namespace armbar::util {

/// Issue a CPU pause/yield hint appropriate for a polling loop.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // Fallback: compiler barrier only.
  asm volatile("" ::: "memory");
#endif
}

/// Bounded busy-wait that degrades to std::this_thread::yield().
class SpinWait {
 public:
  /// @param spin_limit number of cpu_relax() polls before yielding.
  explicit SpinWait(std::uint32_t spin_limit = kDefaultSpinLimit) noexcept
      : spin_limit_(spin_limit) {}

  /// One back-off step; call once per failed poll of the awaited flag.
  void step() noexcept {
    if (polls_ < spin_limit_) {
      ++polls_;
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }

  /// Restart the spin budget (e.g. after observing forward progress).
  void reset() noexcept { polls_ = 0; }

  std::uint32_t polls() const noexcept { return polls_; }

  static constexpr std::uint32_t kDefaultSpinLimit = 1024;

 private:
  std::uint32_t spin_limit_;
  std::uint32_t polls_ = 0;
};

/// Spin until @p pred returns true, with adaptive back-off.
template <typename Pred>
void spin_until(Pred&& pred, std::uint32_t spin_limit = SpinWait::kDefaultSpinLimit) {
  SpinWait w(spin_limit);
  while (!pred()) w.step();
}

}  // namespace armbar::util
