// Extension study: the related-work barriers (hybrid, n-way dissemination,
// ring) against the paper's seven and the optimized barrier, across the
// three simulated ARMv8 machines.

#include "armbar/core/optimized.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);

  std::cout << "== Extensions: related-work barriers at scale (us) ==\n\n";

  const std::vector<Algo> algos = {
      Algo::kSense,         Algo::kDissemination,     Algo::kCombiningTree,
      Algo::kMcsTree,       Algo::kTournament,        Algo::kStaticFway,
      Algo::kDynamicFway,   Algo::kHybrid,            Algo::kNWayDissemination,
      Algo::kRing,          Algo::kOptimized};

  std::vector<bench::ShapeCheck> checks;
  for (const auto& m : topo::armv8_machines()) {
    const auto cfg = OptimizedConfig::for_machine(m);
    const MakeOptions opt{.fanin = cfg.fanin, .notify = cfg.notify,
                          .cluster_size = cfg.cluster_size};
    util::Table t("Extensions (" + m.name() + ")");
    t.set_header({"algorithm", "16 threads (us)", "64 threads (us)"});
    double ours64 = 0, hybrid64 = 0, ring64 = 0, nway64 = 0, dis64 = 0;
    for (Algo a : algos) {
      const MakeOptions o =
          a == Algo::kOptimized ? opt
                                : MakeOptions{.cluster_size = m.cluster_size()};
      const double at16 = bench::sim_overhead_us(m, a, 16, o);
      const double at64 = bench::sim_overhead_us(m, a, 64, o);
      t.add_row({to_string(a), util::Table::num(at16, 3),
                 util::Table::num(at64, 3)});
      if (a == Algo::kOptimized) ours64 = at64;
      if (a == Algo::kHybrid) hybrid64 = at64;
      if (a == Algo::kRing) ring64 = at64;
      if (a == Algo::kNWayDissemination) nway64 = at64;
      if (a == Algo::kDissemination) dis64 = at64;
    }
    bench::emit(t, args);

    checks.push_back({m.name() + ": the optimized barrier beats the ring "
                                 "and n-way dissemination at 64 threads",
                      ours64 < ring64 && ours64 < nway64});
    // Extension finding: the hybrid barrier (cluster-centralized arrival
    // + dissemination across representatives) stays competitive with the
    // paper's optimized barrier on the SMALL-cluster machines, where its
    // centralized phase spans only 4 cores.  On ThunderX2 the "cluster"
    // is a whole 32-core socket, the centralized phase becomes a hot spot
    // and the optimized barrier wins clearly.
    if (m.cluster_size() <= 8) {
      checks.push_back(
          {m.name() + ": hybrid is competitive with the optimized barrier "
                      "(small clusters; within 1.25x either way)",
           hybrid64 < ours64 * 1.25 && ours64 < hybrid64 * 1.25});
    } else {
      checks.push_back(
          {m.name() + ": the optimized barrier clearly beats hybrid "
                      "(socket-sized clusters make its centralized phase a "
                      "hot spot)",
           ours64 * 1.25 < hybrid64});
    }
    checks.push_back(
        {m.name() + ": the O(P) ring is the worst non-centralized choice "
                    "at 64 threads",
         ring64 > hybrid64 && ring64 > nway64 && ring64 > dis64});
  }
  return bench::report_checks(checks) == 0 ? 0 : 1;
}
