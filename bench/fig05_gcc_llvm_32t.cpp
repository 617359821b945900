// Figure 5: OpenMP barrier overhead (us) of the GCC (sense-reversing
// centralized, packed libgomp layout) and LLVM (hypercube tree)
// implementations at 32 threads on the Intel reference and the three
// ARMv8 machines.

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);
  const int threads = static_cast<int>(args.get_int_or("threads", 32));

  std::cout << "== Figure 5: GCC vs LLVM barrier overhead (us), " << threads
            << " threads ==\n\n";

  util::Table t;
  t.set_header({"machine", "GCC (us)", "LLVM (us)", "GCC/LLVM"});
  struct Row {
    std::string name;
    double gcc, llvm;
  };
  std::vector<Row> rows;
  for (const auto& machine : topo::all_machines()) {
    const int p = std::min(threads, machine.num_cores());
    Row r{machine.name(),
          bench::sim_overhead_us(machine, Algo::kGccSense, p),
          bench::sim_overhead_us(machine, Algo::kHypercube, p)};
    t.add_row({r.name, util::Table::num(r.gcc, 2),
               util::Table::num(r.llvm, 2),
               util::Table::num(r.gcc / r.llvm, 1) + "x"});
    rows.push_back(r);
  }
  bench::emit(t, args);

  // rows: phytium, tx2, kunpeng, xeon
  const double xeon_gcc = rows[3].gcc;
  std::vector<bench::ShapeCheck> checks;
  for (int i = 0; i < 3; ++i) {
    checks.push_back({rows[static_cast<std::size_t>(i)].name +
                          " GCC slower than Xeon GCC (paper: ARMv8 barriers "
                          "several times slower)",
                      rows[static_cast<std::size_t>(i)].gcc > xeon_gcc});
    checks.push_back({rows[static_cast<std::size_t>(i)].name +
                          " LLVM cheaper than GCC (paper: tree barrier wins)",
                      rows[static_cast<std::size_t>(i)].llvm <
                          rows[static_cast<std::size_t>(i)].gcc});
  }
  checks.push_back({"ThunderX2 is the worst GCC case (paper: ~8x Xeon)",
                    rows[1].gcc > rows[0].gcc && rows[1].gcc / xeon_gcc > 3});
  return bench::report_checks(checks) == 0 ? 0 : 1;
}
