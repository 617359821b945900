// Figure 7: overhead (us) of the seven barrier algorithms over 1..64
// threads on the three ARMv8 machines.  7(a) isolates SENSE (much more
// expensive); 7(b)-(d) compare the remaining six per machine.

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);

  std::cout << "== Figure 7: the seven barrier algorithms (us) ==\n\n";

  const auto machines = topo::armv8_machines();

  const std::vector<Algo> six = {Algo::kDissemination, Algo::kCombiningTree,
                                 Algo::kMcsTree,       Algo::kTournament,
                                 Algo::kStaticFway,    Algo::kDynamicFway};
  bench::SimCache cache;
  for (const auto& m : machines)
    for (int p : bench::thread_sweep()) {
      cache.queue(m, Algo::kSense, p);
      for (Algo a : six) cache.queue(m, a, p);
    }
  cache.queue(machines[0], Algo::kDissemination, 17);
  cache.run();

  // 7(a): SENSE on the three machines.
  {
    util::Table t("Figure 7(a): SENSE");
    t.set_header({"threads", machines[0].name(), machines[1].name(),
                  machines[2].name()});
    for (int p : bench::thread_sweep()) {
      std::vector<std::string> row{std::to_string(p)};
      for (const auto& m : machines)
        row.push_back(
            util::Table::num(cache.us(m, Algo::kSense, p), 3));
      t.add_row(std::move(row));
    }
    bench::emit(t, args);
  }

  // 7(b)-(d): the other six algorithms per machine.
  for (const auto& m : machines) {
    util::Table t("Figure 7 (" + m.name() + ")");
    std::vector<std::string> header{"threads"};
    for (Algo a : six) header.push_back(to_string(a));
    t.set_header(std::move(header));
    for (int p : bench::thread_sweep()) {
      std::vector<std::string> row{std::to_string(p)};
      for (Algo a : six)
        row.push_back(util::Table::num(cache.us(m, a, p), 3));
      t.add_row(std::move(row));
    }
    bench::emit(t, args);
  }

  std::vector<bench::ShapeCheck> checks;
  for (const auto& m : machines) {
    const double sense = cache.us(m, Algo::kSense, 64);
    double worst_other = 0;
    for (Algo a : six)
      worst_other = std::max(worst_other, cache.us(m, a, 64));
    checks.push_back({m.name() + ": SENSE is the most expensive at 64",
                      sense > worst_other});
    const double family_best =
        std::min({cache.us(m, Algo::kTournament, 64),
                  cache.us(m, Algo::kStaticFway, 64),
                  cache.us(m, Algo::kDynamicFway, 64)});
    checks.push_back(
        {m.name() + ": tournament family beats DIS at 64 (paper: DIS "
                    "scales poorly on-chip)",
         family_best < cache.us(m, Algo::kDissemination, 64)});
    checks.push_back(
        {m.name() + ": tournament family beats CMB at 64",
         family_best < cache.us(m, Algo::kCombiningTree, 64)});
  }
  // Figures 7(c)/(d): MCS loses to CMB on the small-cluster Kunpeng920.
  checks.push_back(
      {"Kunpeng920: MCS costs more than CMB at 64 (paper Fig 7d)",
       cache.us(machines[2], Algo::kMcsTree, 64) >
           cache.us(machines[2], Algo::kCombiningTree, 64)});
  // DIS spike at the round boundary.
  checks.push_back(
      {"Phytium: DIS steps up when P crosses 16 (rounds increase)",
       cache.us(machines[0], Algo::kDissemination, 17) >
           cache.us(machines[0], Algo::kDissemination, 16)});
  const int failures = bench::report_checks(checks);

  // --trace=<file> / --metrics=<file>: phase-resolved observability for
  // the figure's headline configuration (STOUR at 64 threads on the
  // Phytium 2000+).
  bench::emit_observability(args, machines[0], Algo::kStaticFway, 64);
  return failures == 0 ? 0 : 1;
}
