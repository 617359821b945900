// Figure 12: notification-phase comparison — global sense vs binary-tree
// vs NUMA-aware tree wake-up on the padded static 4-way arrival base.

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);

  std::cout << "== Figure 12: wake-up methods (us) ==\n\n";

  auto opts = [](NotifyPolicy policy, const topo::Machine& m) {
    return MakeOptions{.fanin = 4, .notify = policy,
                       .cluster_size = m.cluster_size()};
  };

  const auto machines = topo::armv8_machines();
  bench::SimCache cache;
  for (const auto& m : machines)
    for (int p : bench::thread_sweep())
      for (NotifyPolicy policy : {NotifyPolicy::kGlobalSense,
                                  NotifyPolicy::kBinaryTree,
                                  NotifyPolicy::kNumaTree})
        cache.queue(m, Algo::kOptimized, p, opts(policy, m));
  cache.run();

  std::vector<bench::ShapeCheck> checks;
  for (const auto& m : machines) {
    util::Table t("Figure 12 (" + m.name() + ")");
    t.set_header({"threads", "global", "binary tree", "NUMA-aware tree"});
    for (int p : bench::thread_sweep()) {
      t.add_row(
          {std::to_string(p),
           util::Table::num(cache.us(
                                m, Algo::kOptimized, p,
                                opts(NotifyPolicy::kGlobalSense, m)),
                            3),
           util::Table::num(cache.us(
                                m, Algo::kOptimized, p,
                                opts(NotifyPolicy::kBinaryTree, m)),
                            3),
           util::Table::num(cache.us(
                                m, Algo::kOptimized, p,
                                opts(NotifyPolicy::kNumaTree, m)),
                            3)});
    }
    bench::emit(t, args);

    const double global = cache.us(
        m, Algo::kOptimized, 64, opts(NotifyPolicy::kGlobalSense, m));
    const double binary = cache.us(
        m, Algo::kOptimized, 64, opts(NotifyPolicy::kBinaryTree, m));
    const double numa = cache.us(
        m, Algo::kOptimized, 64, opts(NotifyPolicy::kNumaTree, m));
    if (m.name() == "Kunpeng920") {
      checks.push_back({m.name() + ": global wake-up wins (paper VI-B)",
                        global < binary && global < numa});
    } else {
      checks.push_back({m.name() + ": tree wake-up beats global at 64",
                        binary < global});
      checks.push_back(
          {m.name() + ": NUMA-aware tree no worse than binary at 64",
           numa <= binary * 1.02});
    }
    // Small thread counts: the methods are near-equivalent.
    const double g4 = cache.us(
        m, Algo::kOptimized, 4, opts(NotifyPolicy::kGlobalSense, m));
    const double b4 = cache.us(
        m, Algo::kOptimized, 4, opts(NotifyPolicy::kBinaryTree, m));
    checks.push_back(
        {m.name() + ": global and tree meet at small thread counts",
         std::abs(g4 - b4) <= 0.35 * std::max(g4, b4)});
  }
  const int failures = bench::report_checks(checks);

  // --trace=<file> / --metrics=<file>: observe the fully optimized
  // barrier (padded 4-way arrival + NUMA-aware wake-up) at full scale.
  bench::emit_observability(args, machines[0], Algo::kOptimized, 64,
                            opts(NotifyPolicy::kNumaTree, machines[0]));
  return failures == 0 ? 0 : 1;
}
