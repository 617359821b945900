// Figure 6: GCC and LLVM OpenMP barrier overhead (us) over 1..64 threads
// on the three ARMv8 machines.

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);

  std::cout << "== Figure 6: GCC / LLVM barrier scaling (us) ==\n\n";

  const auto machines = topo::armv8_machines();

  bench::SimCache cache;
  for (const auto& m : machines)
    for (int p : bench::thread_sweep()) {
      cache.queue(m, Algo::kGccSense, p);
      cache.queue(m, Algo::kHypercube, p);
    }
  cache.run();
  std::vector<bench::ShapeCheck> checks;

  for (const char* impl : {"GCC", "LLVM"}) {
    const Algo algo =
        std::string(impl) == "GCC" ? Algo::kGccSense : Algo::kHypercube;
    util::Table t(std::string("Figure 6 (") + impl + ")");
    t.set_header({"threads", machines[0].name(), machines[1].name(),
                  machines[2].name()});
    for (int p : bench::thread_sweep()) {
      std::vector<std::string> row{std::to_string(p)};
      for (const auto& m : machines)
        row.push_back(
            util::Table::num(cache.us(m, algo, p), 3));
      t.add_row(std::move(row));
    }
    bench::emit(t, args);
  }

  for (const auto& m : machines) {
    const double gcc8 = cache.us(m, Algo::kGccSense, 8);
    const double gcc64 = cache.us(m, Algo::kGccSense, 64);
    const double llvm64 = cache.us(m, Algo::kHypercube, 64);
    checks.push_back(
        {m.name() + ": GCC overhead grows steeply with threads",
         gcc64 > 4.0 * gcc8});
    checks.push_back(
        {m.name() + ": LLVM tree barrier much cheaper than GCC at 64",
         gcc64 / llvm64 > 2.0});
  }
  // Paper: 3x on Phytium 2000+, 10x on ThunderX2 at 64 threads.
  checks.push_back(
      {"ThunderX2 LLVM-vs-GCC gap exceeds Phytium's (paper: 10x vs 3x)",
       cache.us(machines[1], Algo::kGccSense, 64) /
               cache.us(machines[1], Algo::kHypercube, 64) >
           cache.us(machines[0], Algo::kGccSense, 64) /
               cache.us(machines[0], Algo::kHypercube, 64)});
  return bench::report_checks(checks) == 0 ? 0 : 1;
}
