// Ablation: barrier interval vs synchronization efficiency.
//
// The paper's introduction argues that partitioning work across more
// cores shrinks the interval between barriers, so barrier overhead
// increasingly dominates.  This bench quantifies that: for several
// per-episode compute grains (think time), what fraction of each episode
// is synchronization overhead under the GCC barrier vs the optimized
// barrier, at 64 threads?

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);
  const int threads = static_cast<int>(args.get_int_or("threads", 64));

  std::cout << "== Ablation: barrier overhead share vs compute grain, "
            << threads << " threads ==\n\n";

  std::vector<bench::ShapeCheck> checks;
  for (const auto& m : topo::armv8_machines()) {
    util::Table t("Overhead share (" + m.name() + ")");
    t.set_header({"grain (us)", "GCC share", "OPT share", "OPT speedup "
                  "(end-to-end)"});
    double prev_gcc_share = 1.0;
    double first_gcc_share = 0.0, last_gcc_share = 0.0;
    bool monotone = true;
    double speedup_small = 0, speedup_large = 0;
    const std::vector<double> grains_us = {0.5, 2.0, 8.0, 32.0};
    for (double grain : grains_us) {
      auto cfg = bench::sim_cfg(threads);
      cfg.think_ps = util::ns_to_ps(grain * 1000.0);
      const double gcc_ovh =
          simbar::measure_barrier(m, simbar::sim_factory(Algo::kGccSense),
                                  cfg)
              .mean_overhead_ns /
          1000.0;
      const double opt_ovh =
          simbar::measure_barrier(m, simbar::sim_factory(Algo::kOptimized),
                                  cfg)
              .mean_overhead_ns /
          1000.0;
      const double gcc_share = gcc_ovh / (gcc_ovh + grain);
      const double opt_share = opt_ovh / (opt_ovh + grain);
      const double speedup = (gcc_ovh + grain) / (opt_ovh + grain);
      t.add_row({util::Table::num(grain, 1),
                 util::Table::num(100.0 * gcc_share, 1) + "%",
                 util::Table::num(100.0 * opt_share, 1) + "%",
                 util::Table::num(speedup, 2) + "x"});
      if (gcc_share > prev_gcc_share + 1e-9) monotone = false;
      prev_gcc_share = gcc_share;
      if (grain == grains_us.front()) {
        first_gcc_share = gcc_share;
        speedup_small = speedup;
      }
      if (grain == grains_us.back()) {
        last_gcc_share = gcc_share;
        speedup_large = speedup;
      }
    }
    bench::emit(t, args);

    checks.push_back(
        {m.name() + ": barrier share shrinks as the grain grows",
         monotone});
    checks.push_back(
        {m.name() + ": the optimized barrier matters most at fine grain "
                    "(end-to-end speedup larger at 0.5us than at 32us)",
         speedup_small > speedup_large});
    checks.push_back(
        {m.name() + ": at 0.5us grain the GCC barrier dominates the "
                    "episode (>50% share) but not at 32us (<50%)",
         first_gcc_share > 0.5 && last_gcc_share < 0.5});
  }
  return bench::report_checks(checks) == 0 ? 0 : 1;
}
