// Analytical-model predictions (Section III / V): the optimal fan-in
// window of eq. (2) and the global-vs-tree wake-up crossovers of
// eqs. (3)-(4), evaluated with each machine's calibrated parameters.

#include "armbar/model/cost_model.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);

  std::cout << "== Analytical model predictions ==\n\n";

  // Eq. (1): arrival cost vs fan-in at P=64 (unit L).
  {
    util::Table t("Arrival-phase cost T(f) = ceil(log_f P)(f+1)L, P=64, L=1");
    t.set_header({"fan-in", "T(f)"});
    for (int f : {2, 3, 4, 5, 6, 8, 16})
      t.add_row({std::to_string(f),
                 util::Table::num(model::arrival_cost_ns(64, f, 1.0), 1)});
    bench::emit(t, args);
  }

  // Eq. (2): continuous optimum per alpha.
  {
    util::Table t("Continuous optimal fan-in: (ln f - 1) f = alpha");
    t.set_header({"alpha", "f*", "recommended (pow2)"});
    for (double a : {0.0, 0.05, 0.3, 0.4, 1.0})
      t.add_row({util::Table::num(a, 2),
                 util::Table::num(model::optimal_fanin_continuous(a), 3),
                 std::to_string(model::recommended_fanin(a))});
    bench::emit(t, args);
  }

  // Eqs. (3)/(4) per machine.
  util::Table t(
      "Wake-up costs at P=64 (ns, topology-aware eqs. 3-4) and crossover");
  t.set_header({"machine", "T_global", "T_tree", "winner",
                "crossover P"});
  std::vector<bench::ShapeCheck> checks;
  for (const auto& m : topo::armv8_machines()) {
    const double g = model::global_wakeup_cost_topo_ns(m, 64);
    const double tr = model::tree_wakeup_cost_topo_ns(m, 64);
    double worst = 0;
    for (int i = 0; i < m.num_layers(); ++i)
      worst = std::max(worst, m.layer_info(i).ns);
    const int cross = model::wakeup_crossover_threads(
        worst, m.alpha(), m.contention_ns(), m.num_cores());
    t.add_row({m.name(), util::Table::num(g, 0), util::Table::num(tr, 0),
               g <= tr ? "global" : "tree",
               cross < 0 ? "none <= 64" : std::to_string(cross)});
    if (m.name() == "Kunpeng920")
      checks.push_back({"model picks global wake-up on Kunpeng920", g <= tr});
    else
      checks.push_back({"model picks tree wake-up on " + m.name(), tr < g});
  }
  bench::emit(t, args);

  checks.push_back(
      {"eq.(2) window: 2.718 <= f* <= 3.591 over alpha in [0,1]",
       model::optimal_fanin_continuous(0.0) >= 2.718 - 1e-3 &&
           model::optimal_fanin_continuous(1.0) <= 3.592});
  return bench::report_checks(checks) == 0 ? 0 : 1;
}
