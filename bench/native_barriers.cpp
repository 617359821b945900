// google-benchmark microbenchmarks of the NATIVE barrier library on this
// host.  These measure the real implementation with real threads; on a
// machine with fewer cores than threads the numbers reflect scheduler
// behaviour, not barrier quality (see DESIGN.md §2) — the simulated
// figure binaries are the performance oracle for the paper's machines.

#include <benchmark/benchmark.h>

#include <memory>
#include <thread>

#include "armbar/barriers/factory.hpp"
#include "armbar/barriers/team.hpp"

namespace {

using armbar::Algo;
using armbar::Barrier;
using armbar::make_barrier;

void run_episodes(benchmark::State& state, Algo algo, int threads) {
  Barrier barrier = make_barrier(algo, threads);
  armbar::ThreadTeam team(threads);
  for (auto _ : state) {
    team.run([&](int tid) {
      for (int i = 0; i < 16; ++i) barrier.wait(tid);
    });
  }
  state.SetItemsProcessed(state.iterations() * 16);
}

void BM_Barrier(benchmark::State& state) {
  const auto algo = static_cast<Algo>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  run_episodes(state, algo, threads);
  state.SetLabel(armbar::to_string(algo) + "/p" + std::to_string(threads));
}

int max_bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  // Oversubscribe at most 4x so the suite stays fast on small hosts.
  return static_cast<int>(hw == 0 ? 4 : std::min(hw * 4, 8u));
}

void register_all() {
  for (Algo algo : armbar::all_algos()) {
    for (int threads : {2, 4, max_bench_threads()}) {
      benchmark::RegisterBenchmark(
          ("BM_Barrier/" + armbar::to_string(algo) + "/p" +
           std::to_string(threads))
              .c_str(),
          [algo, threads](benchmark::State& s) {
            run_episodes(s, algo, threads);
          })
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
