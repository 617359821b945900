// One row per checked configuration: the shipped barrier templates on
// wmc::Atomics, at a reduced geometry that keeps every row exhaustive
// (fan-in and cluster size 2, unless the factory algorithm fixes them).

#include "armbar/barriers/central_sense.hpp"
#include "armbar/barriers/combining_tree.hpp"
#include "armbar/barriers/dissemination.hpp"
#include "armbar/barriers/extensions.hpp"
#include "armbar/barriers/ftournament.hpp"
#include "armbar/barriers/hypercube.hpp"
#include "armbar/barriers/mcs_tree.hpp"
#include "armbar/barriers/tournament.hpp"
#include "armbar/core/optimized.hpp"
#include "armbar/wmc/models.hpp"

namespace armbar::wmc {
namespace {

/// A constructor of B<wmc::Atomics>(num_threads, args...).
template <template <typename> class B, typename... Args>
std::function<Barrier(int)> make(Args... args) {
  return [=](int n) { return Barrier::make<B<Atomics>>(n, args...); };
}

FwayOptions fway(int fanin, FlagLayout layout,
                 NotifyPolicy notify = NotifyPolicy::kGlobalSense) {
  return FwayOptions{.fanin = fanin, .layout = layout, .notify = notify};
}

}  // namespace

const std::vector<ModelInfo>& all_models() {
  using enum FlagLayout;
  static const std::vector<ModelInfo> kModels = {
      {"sense", 3, 2, make<CentralSenseBarrier>(SenseLayout::kSeparated)},
      {"gcc-sense", 3, 2, make<CentralSenseBarrier>(SenseLayout::kPackedGcc)},
      {"cmb", 3, 2, make<CombiningTreeBarrier>(2)},
      {"dis", 3, 2, make<DisseminationBarrier>()},
      {"tour", 3, 2, make<TournamentBarrier>()},
      {"stour", 3, 2, make<StaticFwayBarrier>(fway(2, kPacked32))},
      {"stour-pad", 3, 2, make<StaticFwayBarrier>(fway(0, kPaddedLine))},
      {"stour-pad4", 3, 2, make<StaticFwayBarrier>(fway(4, kPaddedLine))},
      {"stour-tree", 3, 2,
       make<StaticFwayBarrier>(
           fway(2, kPaddedLine, NotifyPolicy::kBinaryTree))},
      {"opt", 3, 2,
       make<OptimizedBarrier>(OptimizedConfig{
           .fanin = 4, .notify = NotifyPolicy::kNumaTree, .cluster_size = 2})},
      {"dtour", 3, 2, make<DynamicFwayBarrier>(2)},
      {"mcs", 3, 2, make<McsTreeBarrier>()},
      {"hyper", 3, 2, make<HypercubeBarrier>(2)},
      {"ring", 3, 2, make<RingBarrier>()},
      {"nway-dis", 3, 2, make<NWayDisseminationBarrier>(2)},
      {"hybrid", 3, 2, make<HybridBarrier>(2)},
      {"amo", 3, 2, make<ClusterAmoBarrier>(2)},
      {"central2", 3, 2, make<CentralTwoLevelBarrier>(2)},
  };
  return kModels;
}

const ModelInfo* find_model(std::string_view name) {
  for (const ModelInfo& info : all_models())
    if (info.name == name) return &info;
  return nullptr;
}

}  // namespace armbar::wmc
