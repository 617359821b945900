// Correctness tests for the native barrier library, run with real threads.
//
// The central property, checked for every algorithm under parameter sweep:
// no thread may observe episode k+1 state before every thread has entered
// episode k.  We detect violations with a shared phase counter array: each
// thread increments its slot before the barrier and verifies all slots
// reached the episode count after it.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>
#include <vector>

#include "armbar/barriers/barrier.hpp"
#include "armbar/barriers/central_sense.hpp"
#include "armbar/barriers/factory.hpp"
#include "armbar/barriers/ftournament.hpp"
#include "armbar/barriers/team.hpp"
#include "armbar/core/optimized.hpp"
#include "armbar/topo/platforms.hpp"
#include "armbar/util/backoff.hpp"
#include "armbar/util/prng.hpp"

namespace armbar {
namespace {

/// Run @p episodes barrier episodes over @p threads threads, verifying the
/// synchronization property at every episode.  Random micro-delays before
/// arrival shake out ordering assumptions.
void check_barrier_synchronizes(Barrier& barrier, int threads, int episodes,
                                std::uint64_t seed) {
  std::vector<std::atomic<std::uint64_t>> arrived(
      static_cast<std::size_t>(threads));
  for (auto& a : arrived) a.store(0);
  std::atomic<int> violations{0};

  parallel_run(threads, [&](int tid) {
    util::Xoshiro256 rng(seed + static_cast<std::uint64_t>(tid));
    for (int ep = 1; ep <= episodes; ++ep) {
      // Jitter: make arrival order vary across episodes.
      const int spin = static_cast<int>(rng.below(200));
      for (int i = 0; i < spin; ++i) util::cpu_relax();
      arrived[static_cast<std::size_t>(tid)].fetch_add(
          1, std::memory_order_release);
      barrier.wait(tid);
      // After the barrier, every thread must have arrived at least ep
      // times (exactly ep is not guaranteed: fast threads may already be
      // in episode ep+1).
      for (int t = 0; t < threads; ++t) {
        const auto seen =
            arrived[static_cast<std::size_t>(t)].load(std::memory_order_acquire);
        if (seen < static_cast<std::uint64_t>(ep)) {
          violations.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(violations.load(), 0) << barrier.name();
}

// --- parameterized sweep over every algorithm and thread count ---------------

class BarrierSweep
    : public ::testing::TestWithParam<std::tuple<Algo, int>> {};

TEST_P(BarrierSweep, SynchronizesAcrossEpisodes) {
  const auto [algo, threads] = GetParam();
  Barrier b = make_barrier(algo, threads);
  check_barrier_synchronizes(b, threads, /*episodes=*/25, /*seed=*/42);
}

TEST_P(BarrierSweep, ReportsThreadCountAndName) {
  const auto [algo, threads] = GetParam();
  Barrier b = make_barrier(algo, threads);
  EXPECT_EQ(b.num_threads(), threads);
  EXPECT_FALSE(b.name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgos, BarrierSweep,
    ::testing::Combine(
        ::testing::ValuesIn(all_algos()),
        ::testing::Values(1, 2, 3, 4, 5, 7, 8)),
    [](const ::testing::TestParamInfo<std::tuple<Algo, int>>& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_p" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// --- notification policies ----------------------------------------------------

class NotifySweep
    : public ::testing::TestWithParam<std::tuple<NotifyPolicy, int, int>> {};

TEST_P(NotifySweep, OptimizedBarrierSynchronizes) {
  const auto [policy, threads, cluster] = GetParam();
  Barrier b = Barrier::make<OptimizedBarrier<>>(
      threads,
      OptimizedConfig{.fanin = 4, .notify = policy, .cluster_size = cluster});
  check_barrier_synchronizes(b, threads, 20, 7);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, NotifySweep,
    ::testing::Combine(::testing::Values(NotifyPolicy::kGlobalSense,
                                         NotifyPolicy::kBinaryTree,
                                         NotifyPolicy::kNumaTree),
                       ::testing::Values(1, 2, 5, 8),
                       ::testing::Values(2, 4)));

// --- f-way options --------------------------------------------------------------

class FwaySweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FwaySweep, PackedAndPaddedLayoutsSynchronize) {
  const auto [threads, fanin] = GetParam();
  for (FlagLayout layout : {FlagLayout::kPacked32, FlagLayout::kPaddedLine}) {
    Barrier b = Barrier::make<StaticFwayBarrier<>>(
        threads, FwayOptions{.fanin = fanin, .layout = layout});
    check_barrier_synchronizes(b, threads, 15, 11);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, FwaySweep,
                         ::testing::Combine(::testing::Values(1, 3, 6, 8),
                                            ::testing::Values(0, 2, 3, 4)));

// --- targeted behaviours ----------------------------------------------------------

TEST(CentralSense, PackedAndSeparatedBothWork) {
  for (auto layout : {SenseLayout::kPackedGcc, SenseLayout::kSeparated}) {
    CentralSenseBarrier b(4, layout);
    std::atomic<int> counter{0};
    parallel_run(4, [&](int tid) {
      for (int ep = 0; ep < 50; ++ep) {
        counter.fetch_add(1);
        b.wait(tid);
        EXPECT_EQ(counter.load() % 4, 0) << b.name();
        b.wait(tid);
      }
    });
  }
}

TEST(Barrier, TypeErasureForwardsCalls) {
  Barrier b = Barrier::make<CentralSenseBarrier<>>(2);
  EXPECT_EQ(b.num_threads(), 2);
  EXPECT_EQ(b.name(), "SENSE");
  EXPECT_TRUE(static_cast<bool>(b));
  Barrier empty;
  EXPECT_FALSE(static_cast<bool>(empty));
}

TEST(Barrier, FacadeValidatesThreadIds) {
  Barrier b = make_barrier(Algo::kOptimized, 3);
  EXPECT_THROW(b.wait(-1), std::out_of_range);
  EXPECT_THROW(b.wait(3), std::out_of_range);
  // A failed wait must not poison the barrier for valid callers.
  parallel_run(3, [&](int tid) {
    for (int ep = 0; ep < 5; ++ep) b.wait(tid);
  });
}

TEST(Factory, RoundTripsNames) {
  for (Algo a : all_algos()) {
    EXPECT_EQ(algo_from_string(to_string(a)), a);
  }
  EXPECT_THROW(algo_from_string("nope"), std::invalid_argument);
}

TEST(Factory, PaperSevenAreTheSectionFourSet) {
  const auto seven = paper_seven();
  ASSERT_EQ(seven.size(), 7u);
  EXPECT_EQ(to_string(seven[0]), "sense");
  EXPECT_EQ(to_string(seven[1]), "dis");
  EXPECT_EQ(to_string(seven[2]), "cmb");
  EXPECT_EQ(to_string(seven[3]), "mcs");
  EXPECT_EQ(to_string(seven[4]), "tour");
  EXPECT_EQ(to_string(seven[5]), "stour");
  EXPECT_EQ(to_string(seven[6]), "dtour");
}

TEST(Factory, RejectsInvalidThreadCounts) {
  EXPECT_THROW(make_barrier(Algo::kSense, 0), std::invalid_argument);
  EXPECT_THROW(make_barrier(Algo::kMcsTree, -3), std::invalid_argument);
}

TEST(OptimizedConfigTest, ForMachineMatchesPaperChoices) {
  // Section VI-B: tree wake-up on Phytium 2000+/ThunderX2, global on
  // Kunpeng920; fan-in 4 everywhere.
  const auto phy = OptimizedConfig::for_machine(topo::phytium2000());
  const auto tx2 = OptimizedConfig::for_machine(topo::thunderx2());
  const auto kp = OptimizedConfig::for_machine(topo::kunpeng920());
  EXPECT_EQ(phy.fanin, 4);
  EXPECT_EQ(tx2.fanin, 4);
  EXPECT_EQ(kp.fanin, 4);
  EXPECT_EQ(phy.notify, NotifyPolicy::kNumaTree);
  EXPECT_EQ(phy.cluster_size, 4);
  EXPECT_EQ(tx2.notify, NotifyPolicy::kNumaTree);
  EXPECT_EQ(tx2.cluster_size, 32);
  EXPECT_EQ(kp.notify, NotifyPolicy::kGlobalSense);
}

TEST(ThreadTeamTest, RunsAndReusable) {
  ThreadTeam team(4);
  std::atomic<int> sum{0};
  for (int round = 0; round < 5; ++round) {
    team.run([&](int tid) { sum.fetch_add(tid + 1); });
  }
  EXPECT_EQ(sum.load(), 5 * (1 + 2 + 3 + 4));
}

TEST(ThreadTeamTest, PropagatesWorkerException) {
  ThreadTeam team(3);
  EXPECT_THROW(team.run([](int tid) {
                 if (tid == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // Team must remain usable after an exception: the next run() is a
  // complete episode, every worker running once and meeting at a barrier.
  Barrier b = make_barrier(Algo::kOptimized, 3);
  std::atomic<int> ran[3] = {0, 0, 0};
  team.run([&](int tid) {
    ran[tid].fetch_add(1);
    b.wait(tid);
  });
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
  // Destroying a team right after run() returns must not hang: here after
  // a run that threw, and at scope exit after one that did not.
  for (int i = 0; i < 20; ++i) {
    ThreadTeam short_lived(3);
    EXPECT_THROW(short_lived.run([](int tid) {
                   if (tid == 2) throw std::runtime_error("late");
                 }),
                 std::runtime_error);
  }
}

TEST(ParallelRun, PropagatesException) {
  EXPECT_THROW(
      parallel_run(2, [](int tid) { if (tid == 0) throw std::logic_error("x"); }),
      std::logic_error);
  EXPECT_THROW(parallel_run(0, [](int) {}), std::invalid_argument);
}

// Stress: one longer mixed-episode run on the optimized barrier.
TEST(Stress, OptimizedBarrierManyEpisodes) {
  constexpr int kThreads = 6;
  Barrier b = Barrier::make<OptimizedBarrier<>>(
      kThreads, OptimizedConfig{.fanin = 4,
                                .notify = NotifyPolicy::kNumaTree,
                                .cluster_size = 2});
  check_barrier_synchronizes(b, kThreads, 200, 1234);
}

}  // namespace
}  // namespace armbar
