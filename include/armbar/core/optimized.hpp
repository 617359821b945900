#pragma once
// The paper's optimized barrier (Section V) — the primary contribution.
//
// Arrival phase: a static f-way tournament with
//   * one arrival flag per cacheline (no packed-flag interference,
//     parallel child stores — Section V-B1), and
//   * a fixed power-of-two fan-in, default 4, derived from the cost model
//     T(f) = ceil(log_f P)(f+1)L whose continuous optimum lies in
//     [2.718, 3.591] for any α in [0,1] (Section V-B2).
//
// Notification phase: pluggable wake-up —
//   * global sense where reader contention is cheap (Kunpeng920),
//   * binary tree where it is not (Phytium 2000+, ThunderX2),
//   * the NUMA-aware tree of eq. (5), which rewires the binary tree so
//     that almost all wake-up edges stay inside a core cluster.
//
// OptimizedConfig::for_machine() encodes the paper's per-platform choice.

#include <string>

#include "armbar/barriers/ftournament.hpp"
#include "armbar/barriers/notify.hpp"
#include "armbar/topo/machine.hpp"

namespace armbar {

struct OptimizedConfig {
  int fanin = 4;
  NotifyPolicy notify = NotifyPolicy::kNumaTree;
  int cluster_size = 4;  ///< N_c of the target machine

  /// The paper's tuned configuration for a machine: fan-in 4 everywhere;
  /// NUMA-aware tree wake-up on machines where reader contention is
  /// significant, global sense where it is not (Section VI-B: global wins
  /// on Kunpeng920).  The decision is made from the machine's calibrated
  /// model parameters, not its name, so custom topologies work too.
  static OptimizedConfig for_machine(const topo::Machine& machine);
};

/// The optimized barrier.  A thin, documented facade over the fully
/// parameterized StaticFwayBarrier: the contribution is the configuration
/// (padded flags + fixed fan-in 4 + machine-matched wake-up tree), and
/// keeping one implementation guarantees the ablation variants measured in
/// Figures 11-13 differ from the shipped barrier only in the parameter
/// under study.
template <typename Atomics = NativeAtomics>
class OptimizedBarrier {
 public:
  explicit OptimizedBarrier(int num_threads, OptimizedConfig config = {})
      : impl_(num_threads, FwayOptions{
                               .fanin = config.fanin,
                               .max_fanin = config.fanin,
                               .layout = FlagLayout::kPaddedLine,
                               .notify = config.notify,
                               .cluster_size = config.cluster_size,
                           }),
        config_(config) {}

  OptimizedBarrier(int num_threads, const topo::Machine& machine)
      : OptimizedBarrier(num_threads, OptimizedConfig::for_machine(machine)) {}

  void wait(int tid) { impl_.wait(tid); }

  int num_threads() const noexcept { return impl_.num_threads(); }
  const OptimizedConfig& config() const noexcept { return config_; }
  std::string name() const {
    return "OPT(f=" + std::to_string(config_.fanin) + "," +
           to_string(config_.notify) + ")";
  }

 private:
  StaticFwayBarrier<Atomics> impl_;
  OptimizedConfig config_;
};

}  // namespace armbar
