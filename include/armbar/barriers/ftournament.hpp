#pragma once
// Static and dynamic f-way tournament barriers (STOUR / DTOUR; Grunwald &
// Vajracharya 1994) — plus the padded-flag and fixed-fan-in variants the
// paper builds its optimized barrier from (Section V-B).
//
// Arrival is a bottom-up tournament over rounds of groups of f threads.
// In the static variant the lowest-indexed member of a group is the
// pre-determined winner: the losers write per-child arrival flags, the
// winner polls them.  In the dynamic variant the group shares an atomic
// counter and the last arriver advances.
//
// Flag layout (static variant only — the dynamic variant has one counter
// per group by construction):
//  - kPacked32: 32-bit flags packed contiguously, so the flags of a group
//    (and of neighbouring groups) share cachelines.  This is the original
//    STOUR layout of Figure 8(a): one remote read checks a whole group,
//    but stores serialize on the line and sub-trees interfere.
//  - kPaddedLine: each flag alone on a cacheline (Figure 8(b)): stores
//    from different children proceed in parallel and sub-trees never
//    interfere.  This is the paper's first arrival-phase optimization.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "armbar/barriers/atomics.hpp"
#include "armbar/barriers/notify.hpp"
#include "armbar/barriers/shape.hpp"
#include "armbar/util/cacheline.hpp"
#include "armbar/util/generation.hpp"

namespace armbar {

enum class FlagLayout {
  kPacked32,    ///< original 4-byte flags, many per cacheline
  kPaddedLine,  ///< one flag per cacheline
};

struct FwayOptions {
  /// Fixed fan-in for every round; 0 selects the original balanced
  /// per-level fan-in (computed from max_fanin).
  int fanin = 0;
  /// Maximum fan-in for the balanced schedule (original STOUR uses 8:
  /// Section V-B1, "a 32-bit arrival flag ... leads to a fan-in value f of
  /// 2 or 8").
  int max_fanin = 8;
  FlagLayout layout = FlagLayout::kPacked32;
  NotifyPolicy notify = NotifyPolicy::kGlobalSense;
  /// Cluster size N_c for NotifyPolicy::kNumaTree.
  int cluster_size = 4;
};

namespace site {
inline constexpr Site stour_flag_set = Site::release("stour.flag_set");
inline constexpr Site stour_flag_poll = Site::acquire("stour.flag_poll");
inline constexpr Site stour_pad_flag_set = Site::release("stour.pad_flag_set");
inline constexpr Site stour_pad_flag_poll =
    Site::acquire("stour.pad_flag_poll");
inline constexpr Site dtour_arrive = Site::acq_rel("dtour.arrive");
}  // namespace site

template <typename Atomics = NativeAtomics>
class StaticFwayBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  StaticFwayBarrier(int num_threads, FwayOptions options = {})
      : num_threads_(num_threads),
        options_(options),
        schedule_(options.fanin > 0
                      ? shape::TournamentSchedule::fixed(num_threads,
                                                         options.fanin)
                      : shape::TournamentSchedule::balanced(
                            num_threads, options.max_fanin)),
        notifier_(options.notify, num_threads, options.cluster_size) {
    build_plans();
    const std::size_t total = total_positions();
    if (options_.layout == FlagLayout::kPacked32)
      packed_flags_ = std::vector<Atomic<std::uint32_t>>(total);
    else
      padded_flags_ = std::vector<util::Padded<Atomic<std::uint64_t>>>(total);
    epoch_.resize(static_cast<std::size_t>(num_threads));
  }

  void wait(int tid) {
    const std::uint64_t e = ++epoch_[static_cast<std::size_t>(tid)].value;
    bool lost = false;
    for (const RoundPlan& p : plans_[static_cast<std::size_t>(tid)]) {
      if (p.my_pos == p.group_begin) {
        // Winner: poll every child's flag (in one loop natively, so the
        // misses to the padded lines overlap).
        await_children(p, e);
      } else {
        set_flag(p.round, p.my_pos, e);
        lost = true;
        break;
      }
    }
    if (!lost) notifier_.release(schedule_.champion(), e);
    notifier_.wait_release(tid, e);
  }

  int num_threads() const noexcept { return num_threads_; }
  const shape::TournamentSchedule& schedule() const noexcept {
    return schedule_;
  }
  const FwayOptions& options() const noexcept { return options_; }

  std::string name() const {
    std::string n = options_.fanin > 0
                        ? "STOUR(f=" + std::to_string(options_.fanin) + ")"
                        : "STOUR";
    if (options_.layout == FlagLayout::kPaddedLine) n += "+pad";
    if (options_.notify != NotifyPolicy::kGlobalSense)
      n += "+" + to_string(options_.notify);
    return n;
  }

 private:
  struct RoundPlan {
    int round;
    int my_pos;       // position within the round's participant list
    int group_begin;  // first position of my group
    int group_end;    // one past the last position of my group
  };

  void build_plans() {
    plans_.resize(static_cast<std::size_t>(num_threads_));
    round_offset_.resize(static_cast<std::size_t>(schedule_.num_rounds()));
    std::size_t offset = 0;
    for (int r = 0; r < schedule_.num_rounds(); ++r) {
      round_offset_[static_cast<std::size_t>(r)] = offset;
      const shape::TournamentRound& round =
          schedule_.rounds[static_cast<std::size_t>(r)];
      for (int pos = 0; pos < static_cast<int>(round.participants.size());
           ++pos) {
        const int t = round.participants[static_cast<std::size_t>(pos)];
        const int g = round.group_of_position(pos);
        const auto [begin, end] = round.group_range(g);
        plans_[static_cast<std::size_t>(t)].push_back(
            RoundPlan{r, pos, begin, end});
      }
      offset += round.participants.size();
    }
    total_positions_ = offset;
  }

  std::size_t total_positions() const { return total_positions_; }

  std::size_t slot(int round, int pos) const {
    return round_offset_[static_cast<std::size_t>(round)] +
           static_cast<std::size_t>(pos);
  }

  void set_flag(int round, int pos, std::uint64_t e) {
    if (options_.layout == FlagLayout::kPacked32)
      packed_flags_[slot(round, pos)].store(static_cast<std::uint32_t>(e),
                                            site::stour_flag_set);
    else
      padded_flags_[slot(round, pos)].value.store(e,
                                                  site::stour_pad_flag_set);
  }

  void await_children(const RoundPlan& p, std::uint64_t e) {
    if (options_.layout == FlagLayout::kPacked32) {
      // Equality is wrap-safe: a child's flag is always e-1 or e (mod
      // 2^32) relative to the polling winner's epoch, so truncating e to
      // 32 bits cannot alias a stale value onto the expected one.
      const auto want = static_cast<std::uint32_t>(e);
      Atomics::await_all(
          p.group_begin + 1, p.group_end,
          [&](int j) -> auto& { return packed_flags_[slot(p.round, j)]; },
          site::stour_flag_poll, [want](std::uint32_t v) { return v == want; });
    } else {
      Atomics::await_all(
          p.group_begin + 1, p.group_end,
          [&](int j) -> auto& { return padded_flags_[slot(p.round, j)].value; },
          site::stour_pad_flag_poll,
          [e](std::uint64_t v) { return util::gen_reached(v, e); });
    }
  }

  int num_threads_;
  FwayOptions options_;
  shape::TournamentSchedule schedule_;
  Notifier<Atomics> notifier_;
  std::vector<std::vector<RoundPlan>> plans_;
  std::vector<std::size_t> round_offset_;
  std::size_t total_positions_ = 0;
  std::vector<Atomic<std::uint32_t>> packed_flags_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> padded_flags_;
  std::vector<util::Padded<std::uint64_t>> epoch_;
};

/// Dynamic f-way tournament: same grouping as the static variant, but the
/// *last* thread to decrement a group's counter advances.  The champion is
/// therefore dynamic, so the wake-up is the global sense (any thread may
/// release it).
template <typename Atomics = NativeAtomics>
class DynamicFwayBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  explicit DynamicFwayBarrier(int num_threads, int fanin = 0,
                              int max_fanin = 8)
      : num_threads_(num_threads),
        schedule_(fanin > 0
                      ? shape::TournamentSchedule::fixed(num_threads, fanin)
                      : shape::TournamentSchedule::balanced(num_threads,
                                                            max_fanin)),
        epoch_(static_cast<std::size_t>(num_threads)),
        notifier_(NotifyPolicy::kGlobalSense, num_threads, 1) {
    // One padded counter per (round, group).
    group_offset_.resize(static_cast<std::size_t>(schedule_.num_rounds()));
    std::size_t total = 0;
    for (int r = 0; r < schedule_.num_rounds(); ++r) {
      group_offset_[static_cast<std::size_t>(r)] = total;
      total += static_cast<std::size_t>(
          schedule_.rounds[static_cast<std::size_t>(r)].num_groups());
    }
    counters_ = std::vector<util::Padded<Atomic<std::uint64_t>>>(total);
  }

  void wait(int tid) {
    const std::uint64_t e = ++epoch_[static_cast<std::size_t>(tid)].value;
    int pos = tid;  // position within round 0's participant list
    bool champion = true;
    for (int r = 0; r < schedule_.num_rounds(); ++r) {
      const shape::TournamentRound& round =
          schedule_.rounds[static_cast<std::size_t>(r)];
      const int g = round.group_of_position(pos);
      const auto [begin, end] = round.group_range(g);
      const auto group_size = static_cast<std::uint64_t>(end - begin);
      auto& counter =
          counters_[group_offset_[static_cast<std::size_t>(r)] +
                    static_cast<std::size_t>(g)]
              .value;
      // Cumulative counter: epoch e is complete at exactly e * group_size
      // arrivals.  The equality is exact mod 2^64, so wrap-around is
      // harmless (unlike an ordered >= comparison).
      const std::uint64_t arrivals =
          counter.fetch_add(1, site::dtour_arrive) + 1;
      if (arrivals != e * group_size) {
        champion = false;
        break;
      }
      pos = g;  // the group's survivor occupies position g next round
    }
    if (champion) notifier_.release(tid, e);
    notifier_.wait_release(tid, e);
  }

  int num_threads() const noexcept { return num_threads_; }
  const shape::TournamentSchedule& schedule() const noexcept {
    return schedule_;
  }
  std::string name() const { return "DTOUR"; }

 private:
  int num_threads_;
  shape::TournamentSchedule schedule_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> counters_;
  std::vector<std::size_t> group_offset_;
  std::vector<util::Padded<std::uint64_t>> epoch_;
  Notifier<Atomics> notifier_;
};

}  // namespace armbar
