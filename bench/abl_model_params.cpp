// Ablation: sensitivity of the design decisions to the calibrated model
// parameters alpha (RFO weight) and c (reader contention).
//
// The paper derives two decisions from its cost model: fan-in 4 for the
// arrival tree (eq. 1-2, robust across alpha in [0,1]) and the per-machine
// wake-up policy (eqs. 3-4, which flip between global and tree as alpha/c
// grow).  This ablation sweeps alpha and c on a Kunpeng-like topology and
// shows where the choices flip — demonstrating they are properties of the
// parameter regime, not accidents of one calibration.

#include "armbar/model/cost_model.hpp"
#include "armbar/topo/platforms.hpp"
#include "common.hpp"

namespace {

armbar::topo::Machine kunpeng_like(double alpha, double contention) {
  // Same geometry and latencies as Kunpeng 920, parameterized alpha/c.
  return armbar::topo::make_hierarchical(
      "kp-like(a=" + armbar::util::Table::num(alpha, 2) +
          ",c=" + armbar::util::Table::num(contention, 1) + ")",
      {4, 8, 2}, {14.2, 44.2, 75.0}, /*epsilon_ns=*/1.15,
      /*cluster_size=*/4, /*cacheline_bytes=*/128, alpha, contention);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);

  std::cout << "== Ablation: model-parameter sensitivity ==\n\n";

  // 1. Optimal fan-in across the full alpha range (eq. 2): always 4.
  {
    util::Table t("Recommended fan-in vs alpha (eq. 2)");
    t.set_header({"alpha", "continuous f*", "power-of-two pick"});
    for (double a : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0})
      t.add_row({util::Table::num(a, 2),
                 util::Table::num(model::optimal_fanin_continuous(a), 3),
                 std::to_string(model::recommended_fanin(a))});
    bench::emit(t, args);
  }

  // 2. Wake-up policy regime map over (alpha, c) at P=64, via the
  //    topology-aware eqs. (3)-(4) AND the simulator.
  util::Table t("Wake-up winner at P=64 on a Kunpeng-like topology");
  t.set_header({"alpha", "c (ns)", "model winner", "sim winner"});
  std::vector<bench::ShapeCheck> checks;
  int agreements = 0, cases = 0;
  bool low_corner_global = false, high_corner_tree = false;
  for (double a : {0.02, 0.10, 0.30}) {
    for (double c : {0.2, 2.0, 6.0}) {
      const auto m = kunpeng_like(a, c);
      const double mg = model::global_wakeup_cost_topo_ns(m, 64);
      const double mt = model::tree_wakeup_cost_topo_ns(m, 64);
      const std::string model_winner = mg <= mt ? "global" : "tree";

      const MakeOptions global{.fanin = 4,
                               .notify = NotifyPolicy::kGlobalSense};
      const MakeOptions tree{.fanin = 4, .notify = NotifyPolicy::kNumaTree,
                             .cluster_size = m.cluster_size()};
      const double sg = bench::sim_overhead_us(m, Algo::kOptimized, 64, global);
      const double st = bench::sim_overhead_us(m, Algo::kOptimized, 64, tree);
      const std::string sim_winner = sg <= st ? "global" : "tree";

      t.add_row({util::Table::num(a, 2), util::Table::num(c, 1),
                 model_winner, sim_winner});
      ++cases;
      if (model_winner == sim_winner) ++agreements;
      if (a <= 0.02 && c <= 0.2 && sim_winner == "global")
        low_corner_global = true;
      if (a >= 0.30 && c >= 6.0 && sim_winner == "tree")
        high_corner_tree = true;
    }
  }
  bench::emit(t, args);

  checks.push_back({"cheap-contention corner picks the global wake-up "
                    "(the Kunpeng920 regime)",
                    low_corner_global});
  checks.push_back({"expensive-contention corner picks the tree wake-up "
                    "(the Phytium/TX2 regime)",
                    high_corner_tree});
  checks.push_back(
      {"model and simulator agree on most of the regime map (>= 6/9)",
       agreements >= 6});
  return bench::report_checks(checks) == 0 ? 0 : 1;
}
