// Ablation: coherence-granule (cacheline) size vs the packed-flag penalty.
//
// Section V-B1 argues the packed 32-bit arrival flags hurt more on
// Kunpeng920 because its effective line holds 32 flags instead of 16.
// This ablation generalizes the claim: on otherwise-identical machines
// with 32/64/128/256-byte granules, the padding speedup of the static
// f-way tournament must grow monotonically-ish with the granule size.

#include "armbar/topo/platforms.hpp"
#include "common.hpp"

namespace {

armbar::topo::Machine with_line_size(int bytes) {
  // Kunpeng-like geometry; only the coherence granule varies.
  return armbar::topo::make_hierarchical(
      "kp-like/" + std::to_string(bytes) + "B", {4, 8, 2},
      {14.2, 44.2, 75.0}, /*epsilon_ns=*/1.15, /*cluster_size=*/4, bytes,
      /*alpha=*/0.02, /*contention_ns=*/0.4);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace armbar;
  const util::Args args(argc, argv);
  const int threads = static_cast<int>(args.get_int_or("threads", 64));

  std::cout << "== Ablation: packed-flag penalty vs cacheline size, "
            << threads << " threads ==\n\n";

  util::Table t;
  t.set_header({"line bytes", "flags/line", "packed (us)", "padded (us)",
                "padding speedup"});
  std::vector<double> speedups;
  for (int bytes : {32, 64, 128, 256}) {
    const auto m = with_line_size(bytes);
    const double packed =
        bench::sim_overhead_us(m, Algo::kStaticFway, threads);
    const double padded =
        bench::sim_overhead_us(m, Algo::kStaticFwayPadded, threads);
    speedups.push_back(packed / padded);
    t.add_row({std::to_string(bytes), std::to_string(bytes / 4),
               util::Table::num(packed, 3), util::Table::num(padded, 3),
               util::Table::num(packed / padded, 2) + "x"});
  }
  bench::emit(t, args);

  std::vector<bench::ShapeCheck> checks;
  checks.push_back({"padding always helps (speedup >= 1x at every size)",
                    *std::min_element(speedups.begin(), speedups.end()) >=
                        1.0});
  checks.push_back(
      {"wider lines make packing costlier (256B speedup > 32B speedup; "
       "the paper's Kunpeng920 argument, generalized)",
       speedups.back() > speedups.front()});
  checks.push_back(
      {"the 128B/64B ordering matches the paper's KP920-vs-others claim",
       speedups[2] >= speedups[1]});
  return bench::report_checks(checks) == 0 ? 0 : 1;
}
