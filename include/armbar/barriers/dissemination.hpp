#pragma once
// Dissemination barrier (Hensgen, Finkel & Manber 1988).
//
// ceil(log2 P) rounds of pairwise signalling: in round k, thread i sets
// the flag of thread (i + 2^k) mod P and waits for its own flag to be set
// by thread (i - 2^k) mod P.  There is no separate notification phase.
// Reuse follows Mellor-Crummey & Scott's parity + sense-reversal scheme:
// two banks of flags alternate between consecutive episodes, and the value
// written flips every second episode, so no flag is ever reset explicitly.

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
inline constexpr Site dis_signal = Site::release("dis.signal");
inline constexpr Site dis_poll = Site::acquire("dis.poll");
}  // namespace site

template <typename Atomics = NativeAtomics>
class DisseminationBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  explicit DisseminationBarrier(int num_threads)
      : num_threads_(num_threads),
        rounds_(shape::DisseminationShape::num_rounds(num_threads)),
        flags_(static_cast<std::size_t>(num_threads) * 2 *
               static_cast<std::size_t>(rounds_ == 0 ? 1 : rounds_)),
        state_(static_cast<std::size_t>(num_threads)) {
    // Precompute signalling partners: partner_[tid][round].
    partner_.resize(static_cast<std::size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      auto& row = partner_[static_cast<std::size_t>(t)];
      row.resize(static_cast<std::size_t>(rounds_));
      for (int r = 0; r < rounds_; ++r)
        row[static_cast<std::size_t>(r)] =
            shape::DisseminationShape::signal_partner(t, r, num_threads);
    }
  }

  void wait(int tid) {
    ThreadState& st = state_[static_cast<std::size_t>(tid)].value;
    for (int r = 0; r < rounds_; ++r) {
      const int out = partner_[static_cast<std::size_t>(tid)][static_cast<std::size_t>(r)];
      flag(out, st.parity, r).store(st.sense, site::dis_signal);
      const std::uint32_t want = st.sense;
      Atomics::await(flag(tid, st.parity, r), site::dis_poll,
                     [want](std::uint32_t v) { return v == want; });
    }
    if (st.parity == 1) st.sense ^= 1u;
    st.parity ^= 1;
  }

  int num_threads() const noexcept { return num_threads_; }
  std::string name() const { return "DIS"; }

 private:
  struct ThreadState {
    int parity = 0;
    std::uint32_t sense = 1;  // flags start at 0, first episode writes 1
  };

  Atomic<std::uint32_t>& flag(int tid, int parity, int round) {
    const std::size_t idx =
        (static_cast<std::size_t>(tid) * 2 + static_cast<std::size_t>(parity)) *
            static_cast<std::size_t>(rounds_) +
        static_cast<std::size_t>(round);
    return flags_[idx].value;
  }

  int num_threads_;
  int rounds_;
  std::vector<util::Padded<Atomic<std::uint32_t>>> flags_;
  std::vector<util::Padded<ThreadState>> state_;
  std::vector<std::vector<int>> partner_;
};

}  // namespace armbar
