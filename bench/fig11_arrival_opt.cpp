// Figure 11: arrival-phase optimizations.  Compares the original static
// f-way tournament (packed 32-bit flags, balanced fan-in) against "padding
// static f-way" (one flag per cacheline) and "padding static 4-way"
// (padded + fixed fan-in 4) over 1..64 threads on the three machines.

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);

  std::cout << "== Figure 11: arrival-phase optimizations (us) ==\n\n";

  const auto machines = topo::armv8_machines();
  bench::SimCache cache;
  for (const auto& m : machines)
    for (int p : bench::thread_sweep()) {
      cache.queue(m, Algo::kStaticFway, p);
      cache.queue(m, Algo::kStaticFwayPadded, p);
      cache.queue(m, Algo::kStatic4WayPadded, p);
    }
  cache.run();

  std::vector<bench::ShapeCheck> checks;
  for (const auto& m : machines) {
    util::Table t("Figure 11 (" + m.name() + ")");
    t.set_header({"threads", "static f-way", "padding f-way",
                  "padding 4-way"});
    for (int p : bench::thread_sweep()) {
      t.add_row({std::to_string(p),
                 util::Table::num(
                     cache.us(m, Algo::kStaticFway, p), 3),
                 util::Table::num(
                     cache.us(m, Algo::kStaticFwayPadded, p), 3),
                 util::Table::num(
                     cache.us(m, Algo::kStatic4WayPadded, p),
                     3)});
    }
    bench::emit(t, args);

    const double packed = cache.us(m, Algo::kStaticFway, 64);
    const double padded =
        cache.us(m, Algo::kStaticFwayPadded, 64);
    const double padded4 =
        cache.us(m, Algo::kStatic4WayPadded, 64);
    checks.push_back(
        {m.name() + ": padding the arrival flags does not hurt at 64",
         padded <= packed * 1.02});
    checks.push_back(
        {m.name() + ": padded 4-way no worse than padded f-way at 64",
         padded4 <= padded * 1.05});
  }
  // Kunpeng920 has the widest effective line (32 packed flags): padding
  // must pay off most there (paper: up to 1.35x).
  const auto kp = topo::kunpeng920();
  const double kp_speedup =
      cache.us(kp, Algo::kStaticFway, 64) /
      cache.us(kp, Algo::kStaticFwayPadded, 64);
  checks.push_back(
      {"Kunpeng920 padding speedup exceeds 1.1x (paper: up to 1.35x)",
       kp_speedup > 1.1});
  const int failures = bench::report_checks(checks);

  // --trace=<file> / --metrics=<file>: observe the arrival-optimized
  // variant (padded f-way) at full scale on the Phytium 2000+.
  bench::emit_observability(args, machines[0], Algo::kStaticFwayPadded, 64);
  return failures == 0 ? 0 : 1;
}
