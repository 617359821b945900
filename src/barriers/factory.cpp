#include "armbar/barriers/factory.hpp"

#include <stdexcept>

#include "armbar/barriers/central_sense.hpp"
#include "armbar/barriers/combining_tree.hpp"
#include "armbar/barriers/dissemination.hpp"
#include "armbar/barriers/extensions.hpp"
#include "armbar/barriers/ftournament.hpp"
#include "armbar/barriers/hypercube.hpp"
#include "armbar/barriers/mcs_tree.hpp"
#include "armbar/barriers/std_wrappers.hpp"
#include "armbar/barriers/tournament.hpp"
#include "armbar/core/optimized.hpp"

namespace armbar {

std::string to_string(NotifyPolicy policy) {
  switch (policy) {
    case NotifyPolicy::kGlobalSense: return "global";
    case NotifyPolicy::kBinaryTree: return "binary-tree";
    case NotifyPolicy::kNumaTree: return "numa-tree";
  }
  return "?";
}

Barrier make_barrier(Algo algo, int num_threads, const MakeOptions& options) {
  switch (algo) {
    case Algo::kSense:
      return Barrier::make<CentralSenseBarrier<>>(num_threads,
                                                SenseLayout::kSeparated);
    case Algo::kGccSense:
      return Barrier::make<CentralSenseBarrier<>>(num_threads,
                                                SenseLayout::kPackedGcc);
    case Algo::kDissemination:
      return Barrier::make<DisseminationBarrier<>>(num_threads);
    case Algo::kCombiningTree:
      return Barrier::make<CombiningTreeBarrier<>>(
          num_threads, options.fanin > 0 ? options.fanin : 2);
    case Algo::kMcsTree:
      return Barrier::make<McsTreeBarrier<>>(num_threads);
    case Algo::kTournament:
      return Barrier::make<TournamentBarrier<>>(num_threads);
    case Algo::kStaticFway:
      return Barrier::make<StaticFwayBarrier<>>(
          num_threads, FwayOptions{.fanin = options.fanin,
                                   .layout = FlagLayout::kPacked32});
    case Algo::kStaticFwayPadded:
      return Barrier::make<StaticFwayBarrier<>>(
          num_threads, FwayOptions{.fanin = options.fanin,
                                   .layout = FlagLayout::kPaddedLine});
    case Algo::kStatic4WayPadded:
      return Barrier::make<StaticFwayBarrier<>>(
          num_threads, FwayOptions{.fanin = 4,
                                   .layout = FlagLayout::kPaddedLine});
    case Algo::kDynamicFway:
      return Barrier::make<DynamicFwayBarrier<>>(num_threads, options.fanin);
    case Algo::kHypercube:
      return Barrier::make<HypercubeBarrier<>>(num_threads);
    case Algo::kOptimized:
      return Barrier::make<OptimizedBarrier<>>(
          num_threads,
          OptimizedConfig{
              .fanin = options.fanin > 0 ? options.fanin : 4,
              .notify = options.notify,
              .cluster_size = options.cluster_size > 0 ? options.cluster_size
                                                       : 4});
    case Algo::kStdBarrier:
      return Barrier::make<StdBarrier>(num_threads);
    case Algo::kPthread:
      return Barrier::make<PthreadBarrier>(num_threads);
    case Algo::kHybrid:
      return Barrier::make<HybridBarrier<>>(
          num_threads,
          options.cluster_size > 0 ? options.cluster_size : 4);
    case Algo::kNWayDissemination:
      return Barrier::make<NWayDisseminationBarrier<>>(
          num_threads, options.fanin > 0 ? options.fanin : 3);
    case Algo::kRing:
      return Barrier::make<RingBarrier<>>(num_threads);
    case Algo::kClusterAmo:
      return Barrier::make<ClusterAmoBarrier<>>(
          num_threads,
          options.cluster_size > 0 ? options.cluster_size : 4);
    case Algo::kCentral2:
      return Barrier::make<CentralTwoLevelBarrier<>>(
          num_threads,
          options.cluster_size > 0 ? options.cluster_size : 4);
  }
  throw std::invalid_argument("make_barrier: unknown algorithm");
}

std::string to_string(Algo algo) {
  switch (algo) {
    case Algo::kSense: return "sense";
    case Algo::kGccSense: return "gcc-sense";
    case Algo::kDissemination: return "dis";
    case Algo::kCombiningTree: return "cmb";
    case Algo::kMcsTree: return "mcs";
    case Algo::kTournament: return "tour";
    case Algo::kStaticFway: return "stour";
    case Algo::kStaticFwayPadded: return "stour-pad";
    case Algo::kStatic4WayPadded: return "stour-pad4";
    case Algo::kDynamicFway: return "dtour";
    case Algo::kHypercube: return "hyper";
    case Algo::kOptimized: return "opt";
    case Algo::kStdBarrier: return "std";
    case Algo::kPthread: return "pthread";
    case Algo::kHybrid: return "hybrid";
    case Algo::kNWayDissemination: return "nway-dis";
    case Algo::kRing: return "ring";
    case Algo::kClusterAmo: return "amo";
    case Algo::kCentral2: return "central2";
  }
  return "?";
}

Algo algo_from_string(const std::string& name) {
  for (Algo a : all_algos())
    if (to_string(a) == name) return a;
  throw std::invalid_argument("unknown barrier algorithm '" + name + "'");
}

std::vector<Algo> paper_seven() {
  return {Algo::kSense,      Algo::kDissemination, Algo::kCombiningTree,
          Algo::kMcsTree,    Algo::kTournament,    Algo::kStaticFway,
          Algo::kDynamicFway};
}

std::vector<Algo> all_algos() {
  return {Algo::kSense,           Algo::kGccSense,
          Algo::kDissemination,   Algo::kCombiningTree,
          Algo::kMcsTree,         Algo::kTournament,
          Algo::kStaticFway,      Algo::kStaticFwayPadded,
          Algo::kStatic4WayPadded, Algo::kDynamicFway,
          Algo::kHypercube,       Algo::kOptimized,
          Algo::kStdBarrier,      Algo::kPthread,
          Algo::kHybrid,          Algo::kNWayDissemination,
          Algo::kRing,            Algo::kClusterAmo,
          Algo::kCentral2};
}

}  // namespace armbar
