// Exhaustive model-checking of the shipped barrier headers under the
// checker's atomics policy: every checked configuration must show zero
// violations over all interleavings of its default reduced geometry, and
// smaller geometries as well.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "armbar/barriers/factory.hpp"
#include "armbar/wmc/check.hpp"

namespace wmc = armbar::wmc;

namespace {

TEST(WmcBarriers, RegistryCoversAllNativeAlgorithms) {
  // std and pthread wrap library barriers: no atomics of ours to check.
  const std::set<std::string> excluded = {"std", "pthread"};
  for (armbar::Algo algo : armbar::all_algos()) {
    const std::string name = armbar::to_string(algo);
    if (excluded.count(name) != 0)
      EXPECT_EQ(wmc::find_model(name), nullptr) << name;
    else
      EXPECT_NE(wmc::find_model(name), nullptr) << name;
  }
  EXPECT_EQ(wmc::find_model("nonesuch"), nullptr);
}

TEST(WmcBarriers, AllModelsCleanAtDefaultGeometry) {
  for (const wmc::ModelInfo& info : wmc::all_models()) {
    SCOPED_TRACE(info.name);
    const wmc::Result r = wmc::check_barrier(info);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.violations[0].kind + ": " +
                                              r.violations[0].detail);
    EXPECT_TRUE(r.exhaustive)
        << "blew the DFS budget; shrink the model or raise max_executions";
    EXPECT_GT(r.executions, 0u);
  }
}

TEST(WmcBarriers, AllModelsCleanAtTwoThreads) {
  wmc::CheckConfig config;
  config.threads = 2;
  for (const wmc::ModelInfo& info : wmc::all_models()) {
    SCOPED_TRACE(info.name);
    const wmc::Result r = wmc::check_barrier(info, config);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.violations[0].detail);
    EXPECT_TRUE(r.exhaustive);
  }
}

TEST(WmcBarriers, CentralCleanAtFourThreadsSingleEpisode) {
  // One model at the kMaxThreads geometry to exercise the widest fan-in.
  wmc::CheckConfig config;
  config.threads = 4;
  config.episodes = 1;
  const wmc::ModelInfo* info = wmc::find_model("sense");
  ASSERT_NE(info, nullptr);
  const wmc::Result r = wmc::check_barrier(*info, config);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.violations[0].detail);
  EXPECT_TRUE(r.exhaustive);
}

TEST(WmcBarriers, ThreeEpisodesExerciseReuse) {
  // Sense reuse / parity flips need more than two episodes.  Restricted
  // to models whose episode-3 state space stays exhaustively explorable
  // in seconds (the central counter models blow the DFS budget there).
  wmc::CheckConfig config;
  config.episodes = 3;
  for (const char* name : {"tour", "ring", "dis"}) {
    SCOPED_TRACE(name);
    const wmc::ModelInfo* info = wmc::find_model(name);
    ASSERT_NE(info, nullptr);
    const wmc::Result r = wmc::check_barrier(*info, config);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.violations[0].detail);
    EXPECT_TRUE(r.exhaustive);
  }
}

}  // namespace
