#pragma once
// Hypercube-embedded tree barrier — the LLVM OpenMP runtime's default
// "hyper" barrier shape with branching factor 4 (paper Section IV-A).
//
// Gather phase: at level l, threads whose id is a multiple of 4^(l+1)
// poll per-child padded arrival flags of children id + k*4^l; other
// threads report to their parent at their first non-parent level.
// Release phase mirrors the gather top-down: each thread, once woken,
// wakes the children it gathered, highest level first.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "armbar/barriers/atomics.hpp"
#include "armbar/barriers/shape.hpp"
#include "armbar/util/cacheline.hpp"
#include "armbar/util/generation.hpp"

namespace armbar {

namespace site {
inline constexpr Site hyper_arrive_set = Site::release("hyper.arrive_set");
inline constexpr Site hyper_arrive_poll = Site::acquire("hyper.arrive_poll");
inline constexpr Site hyper_release_set = Site::release("hyper.release_set");
inline constexpr Site hyper_release_poll = Site::acquire("hyper.release_poll");
}  // namespace site

template <typename Atomics = NativeAtomics>
class HypercubeBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  explicit HypercubeBarrier(int num_threads, int branch_factor = 4)
      : num_threads_(num_threads),
        shape_(num_threads, branch_factor),
        arrive_(static_cast<std::size_t>(num_threads)),
        release_(static_cast<std::size_t>(num_threads)),
        epoch_(static_cast<std::size_t>(num_threads)) {
    // Precompute each thread's per-level children and its report level.
    children_.resize(static_cast<std::size_t>(num_threads));
    report_level_.resize(static_cast<std::size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      report_level_[static_cast<std::size_t>(t)] = shape_.report_level(t);
      auto& per_level = children_[static_cast<std::size_t>(t)];
      per_level.resize(
          static_cast<std::size_t>(report_level_[static_cast<std::size_t>(t)]));
      for (int l = 0; l < report_level_[static_cast<std::size_t>(t)]; ++l)
        per_level[static_cast<std::size_t>(l)] = shape_.children_at(t, l);
    }
  }

  void wait(int tid) {
    const std::uint64_t e = ++epoch_[static_cast<std::size_t>(tid)].value;
    const int levels = report_level_[static_cast<std::size_t>(tid)];

    // Gather: collect children level by level (one polling loop per
    // level, so misses to the children's padded flags overlap).
    for (int l = 0; l < levels; ++l) {
      const auto& kids =
          children_[static_cast<std::size_t>(tid)][static_cast<std::size_t>(l)];
      Atomics::await_all(
          0, static_cast<int>(kids.size()),
          [&](int k) -> auto& {
            return arrive_[static_cast<std::size_t>(
                               kids[static_cast<std::size_t>(k)])]
                .value;
          },
          site::hyper_arrive_poll,
          [e](std::uint64_t v) { return util::gen_reached(v, e); });
    }
    if (tid != 0) {
      arrive_[static_cast<std::size_t>(tid)].value.store(
          e, site::hyper_arrive_set);
      Atomics::await(release_[static_cast<std::size_t>(tid)].value,
                     site::hyper_release_poll, [e](std::uint64_t v) {
                       return util::gen_reached(v, e);
                     });
    }
    // Release: wake our gathered children, highest level first so remote
    // sub-trees start waking earliest.
    for (int l = levels - 1; l >= 0; --l) {
      for (int c : children_[static_cast<std::size_t>(tid)][static_cast<std::size_t>(l)])
        release_[static_cast<std::size_t>(c)].value.store(
            e, site::hyper_release_set);
    }
  }

  int num_threads() const noexcept { return num_threads_; }
  std::string name() const {
    return "HYPER(b=" + std::to_string(shape_.branch_factor()) + ")";
  }

 private:
  int num_threads_;
  shape::HypercubeShape shape_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> arrive_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> release_;
  std::vector<util::Padded<std::uint64_t>> epoch_;
  std::vector<std::vector<std::vector<int>>> children_;
  std::vector<int> report_level_;
};

}  // namespace armbar
