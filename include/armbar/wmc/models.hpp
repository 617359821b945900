#pragma once
// The shipped native barriers, instantiated for the checker.
//
// Every hand-written barrier in include/armbar/barriers/ (and the
// optimized barrier in core/) is a class template on an atomics policy
// (barriers/atomics.hpp).  wmc::Atomics is the checker's policy: its
// atomics are wmc::Atomic, and its spin-waits are wmc::await, so the
// exploration runs the headers themselves, access for access.  A
// multi-flag poll becomes one await per flag, in index order; natively
// the flags are polled in one loop, which orders no access differently.
//
// The load-bearing orders are the armbar::Site constants declared in the
// headers.  Checking with Options::mutate = "<site>" weakens that one
// site to relaxed, which is how the mutation suite proves the checker
// notices a regression at exactly that access.  Orders that are
// deliberately stronger or weaker than a site are not sites; the header
// comment at the access and docs/MEMORY_ORDERS.md say why.

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "armbar/barriers/barrier.hpp"
#include "armbar/wmc/engine.hpp"

namespace armbar::wmc {

/// The checker's atomics policy.
struct Atomics {
  template <typename T>
  using Atomic = wmc::Atomic<T>;

  template <typename T, typename Pred>
  static void await(const Atomic<T>& flag, const Site& site, Pred pred) {
    wmc::await(flag, site, pred);
  }

  template <typename FlagOf, typename Pred>
  static void await_all(int begin, int end, FlagOf flag_of, const Site& site,
                        Pred pred) {
    for (int i = begin; i < end; ++i) wmc::await(flag_of(i), site, pred);
  }
};

/// One checked configuration: a real barrier under wmc::Atomics at a
/// reduced geometry small enough to enumerate every interleaving.
struct ModelInfo {
  std::string name;  ///< factory algorithm id ("sense", "cmb", ...) or a
                     ///< named variant ("stour-tree")
  int threads;       ///< default reduced-instance thread count (2..4)
  int episodes;      ///< default episodes per execution (>= 2 where
                     ///< feasible, to exercise re-arm / sense reuse)
  std::function<Barrier(int num_threads)> make;  ///< called per execution
};

/// Registry of all checked configurations, in stable order.
const std::vector<ModelInfo>& all_models();

/// Lookup by name; nullptr if unknown.
const ModelInfo* find_model(std::string_view name);

}  // namespace armbar::wmc
