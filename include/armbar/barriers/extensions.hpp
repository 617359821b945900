#pragma once
// Extension barriers from the paper's related-work section, implemented to
// the same standard as the seven core algorithms so they can be compared
// on the simulated platforms (bench/ext_algorithms):
//
//  - HybridBarrier (Rodchenko et al., Euro-Par'15): a sense-reversing
//    centralized barrier within each core cluster plus a dissemination
//    barrier across cluster representatives.
//  - NWayDisseminationBarrier (Hoefler et al., IPDPS'06): dissemination
//    with n partners per round, shortening the round count to
//    ceil(log_{n+1} P).
//  - RingBarrier (after Aravind, IPDPSW'18): neighbour-only signalling —
//    an arrival token travels the ring (each hop touches only the next
//    core, which is intra-cluster for all but one hop per cluster) and
//    the last thread performs a global release.  Minimal remote
//    references, O(P) critical path.
//  - ClusterAmoBarrier (cf. bsg_barrier_amoadd, 1024-core RISC-V
//    manycore): cluster-local atomic-add arrival, one atomic-add per
//    cluster champion on a root counter, and a NUMA-aware wake-up TREE
//    release — the hybrid the >64-core hierarchical regime rewards.
//  - CentralTwoLevelBarrier: the depth-2 hierarchical CENTRAL barrier
//    (per-cluster counter + root counter, two-level generation
//    broadcast), the crossover foil for ClusterAmoBarrier in
//    bench/fig_hier.

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
inline constexpr Site hybrid_arrive = Site::acq_rel("hybrid.arrive");
inline constexpr Site hybrid_flag_set = Site::release("hybrid.flag_set");
inline constexpr Site hybrid_flag_poll = Site::acquire("hybrid.flag_poll");
inline constexpr Site hybrid_gen_release = Site::release("hybrid.gen_release");
inline constexpr Site hybrid_gen_poll = Site::acquire("hybrid.gen_poll");
inline constexpr Site nway_signal = Site::release("nway.signal");
inline constexpr Site nway_poll = Site::acquire("nway.poll");
inline constexpr Site ring_token_set = Site::release("ring.token_set");
inline constexpr Site ring_token_poll = Site::acquire("ring.token_poll");
inline constexpr Site ring_gen_release = Site::release("ring.gen_release");
inline constexpr Site ring_gen_poll = Site::acquire("ring.gen_poll");
inline constexpr Site amo_cluster_add = Site::acq_rel("amo.cluster_add");
inline constexpr Site amo_super_add = Site::acq_rel("amo.super_add");
inline constexpr Site amo_wake_root = Site::release("amo.wake_root");
inline constexpr Site amo_wake_set = Site::release("amo.wake_set");
inline constexpr Site amo_wake_poll = Site::acquire("amo.wake_poll");
inline constexpr Site c2_cluster_add = Site::acq_rel("c2.cluster_add");
inline constexpr Site c2_root_add = Site::acq_rel("c2.root_add");
inline constexpr Site c2_root_gen_release =
    Site::release("c2.root_gen_release");
inline constexpr Site c2_root_gen_poll = Site::acquire("c2.root_gen_poll");
inline constexpr Site c2_gen_release = Site::release("c2.gen_release");
inline constexpr Site c2_gen_poll = Site::acquire("c2.gen_poll");
}  // namespace site

/// Hybrid barrier: centralized within a cluster, dissemination across
/// clusters.  The LAST thread to arrive in a cluster becomes the cluster's
/// representative and runs the inter-cluster dissemination on its behalf
/// (the dissemination flags are indexed by cluster, so any member can act
/// for it); it then releases its cluster mates through a per-cluster
/// generation word.
template <typename Atomics = NativeAtomics>
class HybridBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  HybridBarrier(int num_threads, int cluster_size)
      : num_threads_(checked(num_threads)),
        cluster_size_(checked_cluster(cluster_size)),
        num_clusters_((num_threads + cluster_size - 1) / cluster_size),
        rounds_(shape::DisseminationShape::num_rounds(num_clusters_)),
        counters_(static_cast<std::size_t>(num_clusters_)),
        gens_(static_cast<std::size_t>(num_clusters_)),
        flags_(static_cast<std::size_t>(num_clusters_) *
               static_cast<std::size_t>(std::max(rounds_, 1))),
        epoch_(static_cast<std::size_t>(num_threads)) {
    for (int cl = 0; cl < num_clusters_; ++cl)
      counters_[static_cast<std::size_t>(cl)]->store(
          members_of(cl), std::memory_order_relaxed);
  }

  void wait(int tid) {
    const std::uint64_t e = ++epoch_[static_cast<std::size_t>(tid)].value;
    const int cl = tid / cluster_size_;
    auto& counter = counters_[static_cast<std::size_t>(cl)].value;
    auto& gen = gens_[static_cast<std::size_t>(cl)].value;
    if (counter.fetch_sub(1, site::hybrid_arrive) == 1) {
      // Cluster representative: re-arm, synchronize across clusters,
      // release the cluster.  The relaxed re-arm is safe: cluster mates
      // can only re-enter (and decrement again) after observing the
      // episode-e gen release below, which is program-order after the
      // re-arm on this thread, so re-arm happens-before every episode-e+1
      // decrement; and the representative's own acq_rel fetch_sub reads
      // the latest modification-order value, so a pre-re-arm count can
      // never complete an episode early.  (wmc: mutating
      // hybrid.gen_release to relaxed is caught as a barrier escape.)
      counter.store(members_of(cl), std::memory_order_relaxed);
      for (int r = 0; r < rounds_; ++r) {
        const int out =
            shape::DisseminationShape::signal_partner(cl, r, num_clusters_);
        flag(out, r).store(e, site::hybrid_flag_set);
        Atomics::await(flag(cl, r), site::hybrid_flag_poll,
                       [e](std::uint64_t v) {
                         return util::gen_reached(v, e);
                       });
      }
      gen.store(e, site::hybrid_gen_release);
    } else {
      Atomics::await(gen, site::hybrid_gen_poll, [e](std::uint64_t v) {
        return util::gen_reached(v, e);
      });
    }
  }

  int num_threads() const noexcept { return num_threads_; }
  std::string name() const {
    return "HYBRID(Nc=" + std::to_string(cluster_size_) + ")";
  }

 private:
  static int checked(int n) {
    if (n < 1) throw std::invalid_argument("HybridBarrier: num_threads >= 1");
    return n;
  }
  static int checked_cluster(int n) {
    if (n < 1)
      throw std::invalid_argument("HybridBarrier: cluster_size >= 1");
    return n;
  }
  int members_of(int cluster) const {
    return std::min(cluster_size_,
                    num_threads_ - cluster * cluster_size_);
  }
  Atomic<std::uint64_t>& flag(int cluster, int round) {
    return flags_[static_cast<std::size_t>(cluster) *
                      static_cast<std::size_t>(std::max(rounds_, 1)) +
                  static_cast<std::size_t>(round)]
        .value;
  }

  int num_threads_;
  int cluster_size_;
  int num_clusters_;
  int rounds_;
  std::vector<util::Padded<Atomic<int>>> counters_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> gens_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> flags_;
  std::vector<util::Padded<std::uint64_t>> epoch_;
};

/// n-way dissemination: in round j (step s = (n+1)^j) thread i signals
/// partners (i + k*s) mod P and awaits n incoming flags, finishing in
/// ceil(log_{n+1} P) rounds.
template <typename Atomics = NativeAtomics>
class NWayDisseminationBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  explicit NWayDisseminationBarrier(int num_threads, int ways = 3)
      : num_threads_(checked(num_threads)), ways_(ways) {
    if (ways < 1) throw std::invalid_argument("NWayDissemination: ways >= 1");
    // rounds = ceil(log_{ways+1} P)
    rounds_ = 0;
    std::uint64_t reach = 1;
    while (reach < static_cast<std::uint64_t>(num_threads)) {
      reach *= static_cast<std::uint64_t>(ways_) + 1;
      ++rounds_;
    }
    flags_ = std::vector<util::Padded<Atomic<std::uint64_t>>>(
        static_cast<std::size_t>(num_threads) *
        static_cast<std::size_t>(std::max(rounds_, 1)) *
        static_cast<std::size_t>(ways_));
    epoch_.resize(static_cast<std::size_t>(num_threads));
  }

  void wait(int tid) {
    const std::uint64_t e = ++epoch_[static_cast<std::size_t>(tid)].value;
    const auto p = static_cast<std::uint64_t>(num_threads_);
    std::uint64_t step = 1;
    for (int r = 0; r < rounds_; ++r) {
      for (int k = 1; k <= ways_; ++k) {
        const auto out = (static_cast<std::uint64_t>(tid) +
                          static_cast<std::uint64_t>(k) * step) %
                         p;
        flag(static_cast<int>(out), r, k - 1).store(e, site::nway_signal);
      }
      // Await all n incoming flags (in one polling loop natively).
      Atomics::await_all(
          0, ways_, [&](int k) -> auto& { return flag(tid, r, k); },
          site::nway_poll,
          [e](std::uint64_t v) { return util::gen_reached(v, e); });
      step *= static_cast<std::uint64_t>(ways_) + 1;
    }
  }

  int num_threads() const noexcept { return num_threads_; }
  int ways() const noexcept { return ways_; }
  int rounds() const noexcept { return rounds_; }
  std::string name() const {
    return "NWAY-DIS(n=" + std::to_string(ways_) + ")";
  }

 private:
  static int checked(int n) {
    if (n < 1)
      throw std::invalid_argument("NWayDissemination: num_threads >= 1");
    return n;
  }
  Atomic<std::uint64_t>& flag(int tid, int round, int slot) {
    const std::size_t idx =
        (static_cast<std::size_t>(tid) *
             static_cast<std::size_t>(std::max(rounds_, 1)) +
         static_cast<std::size_t>(round)) *
            static_cast<std::size_t>(ways_) +
        static_cast<std::size_t>(slot);
    return flags_[idx].value;
  }

  int num_threads_;
  int ways_;
  int rounds_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> flags_;
  std::vector<util::Padded<std::uint64_t>> epoch_;
};

/// Ring barrier: an arrival token travels thread 0 -> 1 -> ... -> P-1;
/// thread P-1 then flips the global generation.  Every signal touches
/// only the next core on the ring.
template <typename Atomics = NativeAtomics>
class RingBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  explicit RingBarrier(int num_threads)
      : num_threads_(checked(num_threads)),
        token_(static_cast<std::size_t>(num_threads)),
        epoch_(static_cast<std::size_t>(num_threads)) {}

  void wait(int tid) {
    const std::uint64_t e = ++epoch_[static_cast<std::size_t>(tid)].value;
    if (tid != 0) {
      // Wait for the token: all threads 0..tid-1 have arrived.
      Atomics::await(token_[static_cast<std::size_t>(tid)].value,
                     site::ring_token_poll, [e](std::uint64_t v) {
                       return util::gen_reached(v, e);
                     });
    }
    if (tid + 1 < num_threads_) {
      token_[static_cast<std::size_t>(tid) + 1].value.store(
          e, site::ring_token_set);
      Atomics::await(*gen_, site::ring_gen_poll, [e](std::uint64_t v) {
        return util::gen_reached(v, e);
      });
    } else {
      gen_->store(e, site::ring_gen_release);
    }
  }

  int num_threads() const noexcept { return num_threads_; }
  std::string name() const { return "RING"; }

 private:
  static int checked(int n) {
    if (n < 1) throw std::invalid_argument("RingBarrier: num_threads >= 1");
    return n;
  }

  int num_threads_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> token_;
  util::Padded<Atomic<std::uint64_t>> gen_;
  std::vector<util::Padded<std::uint64_t>> epoch_;
};

/// Cluster-local atomic-add arrival feeding a NUMA-aware wake-up tree.
///
/// Arrival mirrors the manycore amo-add idiom, one level per topology
/// tier: every thread adds 1 to its cluster's counter; the arrival that
/// completes the cluster adds 1 to its supergroup's counter (a supergroup
/// is Nc consecutive clusters — the die tier on the synthetic
/// hierarchical machines); the arrival that completes the supergroup adds
/// 1 to the root.  Counters are cumulative — epoch e is complete at
/// e * population arrivals, so they are never reset and there is no
/// re-arm race.  A flat root would serialize every cluster champion on
/// one line (P/Nc contenders at 1024 cores); the supergroup tier caps
/// contention at Nc adds per counter at every level.  The root completion
/// releases thread 0's wake flag, and release fans out over
/// shape::numa_wakeup_children: cluster masters first (remote hops start
/// early), then the local binary tree.
template <typename Atomics = NativeAtomics>
class ClusterAmoBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  ClusterAmoBarrier(int num_threads, int cluster_size)
      : num_threads_(checked(num_threads)),
        cluster_size_(checked_cluster(cluster_size)),
        num_clusters_((num_threads + cluster_size - 1) / cluster_size),
        num_supergroups_((num_clusters_ + cluster_size - 1) / cluster_size),
        counters_(static_cast<std::size_t>(num_clusters_)),
        supers_(static_cast<std::size_t>(num_supergroups_)),
        wake_(static_cast<std::size_t>(num_threads)),
        epoch_(static_cast<std::size_t>(num_threads)),
        children_(static_cast<std::size_t>(num_threads)) {
    for (int t = 0; t < num_threads; ++t)
      children_[static_cast<std::size_t>(t)] =
          shape::numa_wakeup_children(t, num_threads, cluster_size_);
  }

  void wait(int tid) {
    const std::uint64_t e = ++epoch_[static_cast<std::size_t>(tid)].value;
    const int cl = tid / cluster_size_;
    auto& counter = counters_[static_cast<std::size_t>(cl)].value;
    if (counter.fetch_add(1, site::amo_cluster_add) + 1 ==
        e * static_cast<std::uint64_t>(cluster_members(cl))) {
      // Cluster champion: one amo-add on the supergroup counter.
      const int sg = cl / cluster_size_;
      auto& super = supers_[static_cast<std::size_t>(sg)].value;
      if (super.fetch_add(1, site::amo_super_add) + 1 ==
          e * static_cast<std::uint64_t>(super_members(sg))) {
        // Supergroup champion: one amo-add on the root.  Not a site: a
        // checkable geometry has one supergroup, so one add per episode
        // reaches the root and the chain is already complete through
        // amo.super_add (docs/MEMORY_ORDERS.md).
        if (root_.value.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            e * static_cast<std::uint64_t>(num_supergroups_))
          wake_[0].value.store(e, site::amo_wake_root);
      }
    }
    Atomics::await(wake_[static_cast<std::size_t>(tid)].value,
                   site::amo_wake_poll,
                   [e](std::uint64_t v) { return util::gen_reached(v, e); });
    for (int c : children_[static_cast<std::size_t>(tid)])
      wake_[static_cast<std::size_t>(c)].value.store(e, site::amo_wake_set);
  }

  int num_threads() const noexcept { return num_threads_; }
  std::string name() const {
    return "AMO(Nc=" + std::to_string(cluster_size_) + ")+numa-tree";
  }

 private:
  static int checked(int n) {
    if (n < 1)
      throw std::invalid_argument("ClusterAmoBarrier: num_threads >= 1");
    return n;
  }
  static int checked_cluster(int n) {
    if (n < 1)
      throw std::invalid_argument("ClusterAmoBarrier: cluster_size >= 1");
    return n;
  }
  int cluster_members(int cluster) const {
    return std::min(cluster_size_, num_threads_ - cluster * cluster_size_);
  }
  int super_members(int sg) const {
    return std::min(cluster_size_, num_clusters_ - sg * cluster_size_);
  }

  int num_threads_;
  int cluster_size_;
  int num_clusters_;
  int num_supergroups_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> counters_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> supers_;
  util::Padded<Atomic<std::uint64_t>> root_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> wake_;
  std::vector<util::Padded<std::uint64_t>> epoch_;
  std::vector<std::vector<int>> children_;
};

/// Depth-2 hierarchical central barrier: the centralized design scaled one
/// level — per-cluster counters gather members, a root counter gathers
/// cluster champions, and release is a two-level generation broadcast
/// (root gen polled by champions only, per-cluster gens polled by
/// members only).  Counters are cumulative (see ClusterAmoBarrier).
template <typename Atomics = NativeAtomics>
class CentralTwoLevelBarrier {
  template <typename T>
  using Atomic = typename Atomics::template Atomic<T>;

 public:
  CentralTwoLevelBarrier(int num_threads, int cluster_size)
      : num_threads_(checked(num_threads)),
        cluster_size_(checked_cluster(cluster_size)),
        num_clusters_((num_threads + cluster_size - 1) / cluster_size),
        counters_(static_cast<std::size_t>(num_clusters_)),
        gens_(static_cast<std::size_t>(num_clusters_)),
        epoch_(static_cast<std::size_t>(num_threads)) {}

  void wait(int tid) {
    const std::uint64_t e = ++epoch_[static_cast<std::size_t>(tid)].value;
    const int cl = tid / cluster_size_;
    const auto members = static_cast<std::uint64_t>(members_of(cl));
    auto& counter = counters_[static_cast<std::size_t>(cl)].value;
    auto& gen = gens_[static_cast<std::size_t>(cl)].value;
    if (counter.fetch_add(1, site::c2_cluster_add) + 1 == e * members) {
      // Cluster champion: arrive at the root, await the root release,
      // then release the cluster.
      if (root_.value.fetch_add(1, site::c2_root_add) + 1 ==
          e * static_cast<std::uint64_t>(num_clusters_)) {
        root_gen_.value.store(e, site::c2_root_gen_release);
      } else {
        Atomics::await(root_gen_.value, site::c2_root_gen_poll,
                       [e](std::uint64_t v) {
                         return util::gen_reached(v, e);
                       });
      }
      gen.store(e, site::c2_gen_release);
    } else {
      Atomics::await(gen, site::c2_gen_poll, [e](std::uint64_t v) {
        return util::gen_reached(v, e);
      });
    }
  }

  int num_threads() const noexcept { return num_threads_; }
  std::string name() const {
    return "CENTRAL2(Nc=" + std::to_string(cluster_size_) + ")";
  }

 private:
  static int checked(int n) {
    if (n < 1)
      throw std::invalid_argument("CentralTwoLevelBarrier: num_threads >= 1");
    return n;
  }
  static int checked_cluster(int n) {
    if (n < 1)
      throw std::invalid_argument("CentralTwoLevelBarrier: cluster_size >= 1");
    return n;
  }
  int members_of(int cluster) const {
    return std::min(cluster_size_, num_threads_ - cluster * cluster_size_);
  }

  int num_threads_;
  int cluster_size_;
  int num_clusters_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> counters_;
  std::vector<util::Padded<Atomic<std::uint64_t>>> gens_;
  util::Padded<Atomic<std::uint64_t>> root_;
  util::Padded<Atomic<std::uint64_t>> root_gen_;
  std::vector<util::Padded<std::uint64_t>> epoch_;
};

}  // namespace armbar
