// Ablation: thread-to-core placement.
//
// The paper pins thread i to core i ("compact"), aligning the fan-in-4
// arrival groups and the wake-up trees with the hardware clusters.  This
// ablation re-runs with two adversarial layouts:
//   - scatter: round-robin across clusters (adjacent threads in
//     different clusters);
//   - random: a seeded shuffle destroying all structure.
//
// Finding (encoded in the shape checks): the optimized barrier is largely
// placement-ROBUST — with fan-in 4 on 4-core-cluster machines a scatter
// merely permutes which tree level pays which latency layer — while MCS,
// whose 4-ary arrival tree bakes thread ids into the topology, suffers
// heavily.  Robustness itself is a design property worth measuring.

#include "armbar/topo/placement.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);
  const int threads = static_cast<int>(args.get_int_or("threads", 64));

  std::cout << "== Ablation: compact vs scatter vs random placement, "
            << threads << " threads (us) ==\n\n";

  const std::vector<Algo> algos = {Algo::kOptimized, Algo::kStaticFway,
                                   Algo::kTournament, Algo::kMcsTree};
  std::vector<bench::ShapeCheck> checks;
  for (const auto& m : topo::armv8_machines()) {
    util::Table t("Placement (" + m.name() + ")");
    t.set_header({"algorithm", "compact (us)", "scatter (us)", "random (us)",
                  "worst penalty"});
    double opt_penalty = 0, mcs_penalty = 0;
    for (Algo a : algos) {
      const int p = std::min(threads, m.num_cores());
      auto measure = [&](std::vector<int> placement) {
        auto cfg = bench::sim_cfg(p);
        cfg.core_of_thread = std::move(placement);
        return simbar::measure_barrier(m, simbar::sim_factory(a), cfg)
                   .mean_overhead_ns /
               1000.0;
      };
      const double compact = measure({});
      const double scatter = measure(topo::scatter_placement(m, p));
      const double random = measure(topo::random_placement(m, p, 1));
      const double penalty = std::max(scatter, random) / compact;
      t.add_row({to_string(a), util::Table::num(compact, 3),
                 util::Table::num(scatter, 3), util::Table::num(random, 3),
                 util::Table::num(penalty, 2) + "x"});
      if (a == Algo::kOptimized) opt_penalty = penalty;
      if (a == Algo::kMcsTree) mcs_penalty = penalty;
    }
    bench::emit(t, args);

    checks.push_back(
        {m.name() + ": MCS pays a real placement penalty (>= 1.15x)",
         mcs_penalty >= 1.15});
    checks.push_back(
        {m.name() + ": the optimized barrier is more placement-robust "
                    "than MCS",
         opt_penalty < mcs_penalty});
  }
  return bench::report_checks(checks) == 0 ? 0 : 1;
}
