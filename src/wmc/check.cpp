#include "armbar/wmc/check.hpp"

#include <memory>
#include <stdexcept>

namespace armbar::wmc {
namespace {

// Location names for the side-band "arrived" words (Env keeps the
// pointer, so they must outlive the exploration).
constexpr const char* kArrivedNames[Env::kMaxThreads] = {
    "arrived0", "arrived1", "arrived2", "arrived3"};

}  // namespace

Result check_barrier(const ModelInfo& info, const CheckConfig& config) {
  const int threads = config.threads > 0 ? config.threads : info.threads;
  const int episodes = config.episodes > 0 ? config.episodes : info.episodes;
  if (threads < 1 || threads > Env::kMaxThreads)
    throw std::invalid_argument("check_barrier: threads must be in [1, 4]");
  if (episodes < 1)
    throw std::invalid_argument("check_barrier: episodes must be >= 1");

  const Program make = [&info, threads, episodes](Env& env) -> ThreadFn {
    // Per-execution state shared by all fibers.  The shared_ptr keeps it
    // alive for as long as any fiber body does.
    struct State {
      Barrier barrier;
      std::vector<Atomic<std::uint64_t>> arrived;
    };
    auto state = std::make_shared<State>();
    state->barrier = info.make(threads);
    state->arrived.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
      state->arrived.emplace_back(env, kArrivedNames[t]);

    Env* envp = &env;
    const std::string model_name = info.name;
    return [state, envp, threads, episodes, model_name](int tid) {
      for (int ep = 1; ep <= episodes; ++ep) {
        // Side-band announcement.  Deliberately relaxed: the barrier's
        // own release/acquire edges must make it visible to everyone who
        // leaves this episode.
        state->arrived[static_cast<std::size_t>(tid)].store(
            static_cast<std::uint64_t>(ep), std::memory_order_relaxed,
            "litmus.announce");
        state->barrier.wait(tid);
        for (int j = 0; j < threads; ++j) {
          if (j == tid) continue;
          const std::uint64_t seen =
              state->arrived[static_cast<std::size_t>(j)].load(
                  std::memory_order_relaxed, "litmus.check");
          if (seen < static_cast<std::uint64_t>(ep)) {
            envp->fail(
                "barrier-escape",
                "thread " + std::to_string(tid) + " left episode " +
                    std::to_string(ep) + " of " + model_name +
                    " while thread " + std::to_string(j) +
                    "'s announcement still reads " + std::to_string(seen));
          }
        }
      }
    };
  };

  return explore(threads, make, config.engine);
}

std::vector<MutationOutcome> mutation_suite(const ModelInfo& info,
                                            const CheckConfig& config) {
  CheckConfig clean = config;
  clean.engine.mutate.clear();
  const Result baseline = check_barrier(info, clean);
  std::vector<MutationOutcome> out;
  out.reserve(baseline.sites.size());
  for (const std::string& site : baseline.sites) {
    CheckConfig mutated = clean;
    mutated.engine.mutate = site;
    const Result r = check_barrier(info, mutated);
    out.push_back(MutationOutcome{site, !r.ok(), r.executions});
  }
  return out;
}

}  // namespace armbar::wmc
