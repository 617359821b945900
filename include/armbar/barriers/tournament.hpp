#pragma once
// Pairwise tournament barrier (TOUR; Hensgen, Finkel & Manber 1988).
//
// log2(P) rounds of statically-paired matches: the loser of each pair
// signals the winner and drops out; winners advance.  The champion
// (thread 0) performs a global-sense wake-up, as in the paper
// (Section II-B2: "The algorithm adopts global wake-up").

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "armbar/barriers/atomics.hpp"
#include "armbar/barriers/notify.hpp"
#include "armbar/barriers/shape.hpp"
#include "armbar/util/cacheline.hpp"
#include "armbar/util/generation.hpp"

namespace armbar {

namespace site {
inline constexpr Site tour_flag_set = Site::release("tour.flag_set");
inline constexpr Site tour_flag_poll = Site::acquire("tour.flag_poll");
}  // namespace site

template <typename Atomics = NativeAtomics>
class TournamentBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  explicit TournamentBarrier(int num_threads)
      : num_threads_(num_threads),
        schedule_(shape::PairTournamentSchedule::build(num_threads)),
        flags_(static_cast<std::size_t>(num_threads) *
               static_cast<std::size_t>(
                   schedule_.num_rounds() == 0 ? 1 : schedule_.num_rounds())),
        epoch_(static_cast<std::size_t>(num_threads)),
        notifier_(NotifyPolicy::kGlobalSense, num_threads,
                  /*cluster_size=*/1) {}

  void wait(int tid) {
    const std::uint64_t e = ++epoch_[static_cast<std::size_t>(tid)].value;
    bool lost = false;
    for (int r = 0; r < schedule_.num_rounds() && !lost; ++r) {
      const shape::TourStep& step =
          schedule_.steps[static_cast<std::size_t>(r)][static_cast<std::size_t>(tid)];
      switch (step.role) {
        case shape::TourRole::kWinner:
          Atomics::await(flag(tid, r), site::tour_flag_poll,
                         [e](std::uint64_t v) {
                           return util::gen_reached(v, e);
                         });
          break;
        case shape::TourRole::kLoser:
          flag(step.partner, r).store(e, site::tour_flag_set);
          lost = true;
          break;
        case shape::TourRole::kBye:
        case shape::TourRole::kIdle:
          break;
      }
    }
    if (!lost) notifier_.release(tid, e);  // champion (thread 0)
    notifier_.wait_release(tid, e);
  }

  int num_threads() const noexcept { return num_threads_; }
  std::string name() const { return "TOUR"; }

 private:
  Atomic<std::uint64_t>& flag(int tid, int round) {
    return flags_[static_cast<std::size_t>(tid) *
                      static_cast<std::size_t>(schedule_.num_rounds()) +
                  static_cast<std::size_t>(round)]
        .value;
  }

  int num_threads_;
  shape::PairTournamentSchedule schedule_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> flags_;
  std::vector<util::Padded<std::uint64_t>> epoch_;
  Notifier<Atomics> notifier_;
};

}  // namespace armbar
