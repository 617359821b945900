// Table IV: speedup of the optimized barrier over the GCC implementation,
// the LLVM implementation, and the best prior algorithm (state of the
// art), at 64 threads on the three ARMv8 machines, with the geometric
// mean — the paper's headline 12.6x / 4.7x / 1.6x row.

#include "armbar/core/optimized.hpp"
#include "armbar/util/stats.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);
  const int threads = static_cast<int>(args.get_int_or("threads", 64));

  std::cout << "== Table IV: performance improvement of the optimized "
               "barrier, "
            << threads << " threads ==\n\n";

  struct Row {
    std::string machine;
    double vs_gcc, vs_llvm, vs_sota;
  };
  std::vector<Row> rows;

  // "State of the art" = the best prior algorithm on each machine among
  // the seven of Section IV (the paper identifies the tournament family).
  const std::vector<Algo> prior = {Algo::kSense,      Algo::kDissemination,
                                   Algo::kCombiningTree, Algo::kMcsTree,
                                   Algo::kTournament, Algo::kStaticFway,
                                   Algo::kDynamicFway};

  const auto machines = topo::armv8_machines();
  bench::SimCache cache;
  for (const auto& m : machines) {
    const auto cfg = OptimizedConfig::for_machine(m);
    cache.queue(m, Algo::kOptimized, threads,
                MakeOptions{.fanin = cfg.fanin, .notify = cfg.notify,
                            .cluster_size = cfg.cluster_size});
    cache.queue(m, Algo::kGccSense, threads);
    cache.queue(m, Algo::kHypercube, threads);
    for (Algo a : prior) cache.queue(m, a, threads);
  }
  cache.run();

  for (const auto& m : machines) {
    const auto cfg = OptimizedConfig::for_machine(m);
    const MakeOptions opt{.fanin = cfg.fanin, .notify = cfg.notify,
                          .cluster_size = cfg.cluster_size};
    const double ours = cache.us(m, Algo::kOptimized, threads, opt);
    const double gcc = cache.us(m, Algo::kGccSense, threads);
    const double llvm = cache.us(m, Algo::kHypercube, threads);
    double best_prior = gcc;
    for (Algo a : prior)
      best_prior = std::min(best_prior, cache.us(m, a, threads));
    rows.push_back(
        {m.name(), gcc / ours, llvm / ours, best_prior / ours});
  }

  util::Table t;
  t.set_header({"", "Phytium 2000+", "ThunderX2", "Kunpeng920", "Geomean"});
  auto add = [&](const std::string& label, auto getter, double paper) {
    std::vector<double> vals;
    for (const auto& r : rows) vals.push_back(getter(r));
    std::vector<std::string> row{label};
    for (double v : vals) row.push_back(util::Table::num(v, 1) + "x");
    row.push_back(util::Table::num(util::geomean(vals), 1) + "x  (paper " +
                  util::Table::num(paper, 1) + "x)");
    t.add_row(std::move(row));
  };
  add("GCC", [](const Row& r) { return r.vs_gcc; }, 12.6);
  add("LLVM", [](const Row& r) { return r.vs_llvm; }, 4.7);
  add("state-of-the-art", [](const Row& r) { return r.vs_sota; }, 1.6);
  bench::emit(t, args);

  std::vector<double> g_gcc, g_llvm, g_sota;
  for (const auto& r : rows) {
    g_gcc.push_back(r.vs_gcc);
    g_llvm.push_back(r.vs_llvm);
    g_sota.push_back(r.vs_sota);
  }
  std::vector<bench::ShapeCheck> checks;
  for (const auto& r : rows) {
    checks.push_back({r.machine + ": optimized beats GCC", r.vs_gcc > 1.0});
    checks.push_back({r.machine + ": optimized beats LLVM", r.vs_llvm > 1.0});
    checks.push_back(
        {r.machine + ": optimized beats the best prior algorithm",
         r.vs_sota > 1.0});
  }
  checks.push_back({"geomean speedup over GCC is large (paper: 12.6x)",
                    util::geomean(g_gcc) > 4.0});
  checks.push_back({"geomean speedup over LLVM is moderate (paper: 4.7x)",
                    util::geomean(g_llvm) > 1.5});
  checks.push_back(
      {"geomean speedup over state-of-the-art is modest (paper: 1.6x)",
       util::geomean(g_sota) > 1.1 && util::geomean(g_sota) < 4.0});
  return bench::report_checks(checks) == 0 ? 0 : 1;
}
