// Unit tests for the utility substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string_view>
#include <thread>

#include "armbar/util/args.hpp"
#include "armbar/util/backoff.hpp"
#include "armbar/util/bits.hpp"
#include "armbar/util/cacheline.hpp"
#include "armbar/util/generation.hpp"
#include "armbar/util/prng.hpp"
#include "armbar/util/stats.hpp"
#include "armbar/util/table.hpp"
#include "armbar/util/vtime.hpp"

namespace armbar::util {
namespace {

// --- cacheline -------------------------------------------------------------

TEST(Cacheline, PaddedIsLineSizedAndAligned) {
  EXPECT_EQ(sizeof(Padded<int>), kCachelineBytes);
  EXPECT_EQ(alignof(Padded<int>), kCachelineBytes);
  EXPECT_EQ(sizeof(Padded<char[48]>), kCachelineBytes);
}

TEST(Cacheline, PaddedArrayElementsOnDistinctLines) {
  std::vector<Padded<int>> v(8);
  for (std::size_t i = 1; i < v.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&v[i - 1].value);
    const auto b = reinterpret_cast<std::uintptr_t>(&v[i].value);
    EXPECT_GE(b - a, kCachelineBytes);
  }
}

TEST(Cacheline, PaddedAccessors) {
  Padded<int> p(7);
  EXPECT_EQ(*p, 7);
  *p = 9;
  EXPECT_EQ(p.value, 9);
}

// --- bits --------------------------------------------------------------------

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(Bits, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(4), 2u);
  EXPECT_EQ(log2_ceil(5), 3u);
  EXPECT_EQ(log2_ceil(64), 6u);
  EXPECT_EQ(log2_ceil(65), 7u);
}

TEST(Bits, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(64), 6u);
  EXPECT_EQ(log2_floor(127), 6u);
}

TEST(Bits, LogCeilMatchesDefinition) {
  for (std::uint64_t base = 2; base <= 9; ++base) {
    for (std::uint64_t x = 1; x <= 600; ++x) {
      // smallest k with base^k >= x
      unsigned k = 0;
      std::uint64_t reach = 1;
      while (reach < x) {
        reach *= base;
        ++k;
      }
      EXPECT_EQ(log_ceil(x, base), k) << "x=" << x << " base=" << base;
    }
  }
}

TEST(Bits, DivCeil) {
  EXPECT_EQ(div_ceil(0, 4), 0u);
  EXPECT_EQ(div_ceil(1, 4), 1u);
  EXPECT_EQ(div_ceil(4, 4), 1u);
  EXPECT_EQ(div_ceil(5, 4), 2u);
}

TEST(Bits, IrootCeilMatchesDefinition) {
  for (unsigned k = 1; k <= 5; ++k) {
    for (std::uint64_t x = 1; x <= 300; ++x) {
      const std::uint64_t f = iroot_ceil(x, k);
      EXPECT_GE(ipow(f, k), x);
      if (f > 1) EXPECT_LT(ipow(f - 1, k), x);
    }
  }
}

// --- prng --------------------------------------------------------------------

TEST(Prng, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Prng, BelowIsInRange) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Prng, Uniform01InRange) {
  Xoshiro256 rng(7);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

// --- stats -------------------------------------------------------------------

TEST(Stats, WelfordBasics) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(Stats, WelfordSingleSample) {
  Welford w;
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
}

TEST(Stats, MedianOddEven) {
  const double odd[] = {5, 1, 3};
  const double even[] = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  EXPECT_DOUBLE_EQ(median(even), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, SummarizeAgreesWithWelford) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(Stats, QuantileNearestRank) {
  const double xs[] = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 60.0);  // upper-of-two convention
  EXPECT_DOUBLE_EQ(quantile(xs, 0.95), 100.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 30.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_THROW(quantile(xs, 1.5), std::invalid_argument);
  const double odd[] = {3, 1, 2};
  EXPECT_DOUBLE_EQ(quantile(odd, 0.5), median(odd));
}

TEST(Stats, Geomean) {
  const double xs[] = {1.0, 10.0, 100.0};
  EXPECT_NEAR(geomean(xs), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  // The paper's Table IV row: 8x, 23x, 11x -> 12.6x geomean.
  const double gcc[] = {8.0, 23.0, 11.0};
  EXPECT_NEAR(geomean(gcc), 12.66, 0.05);
}

// --- table -------------------------------------------------------------------

TEST(Table, TextRenderingAligns) {
  Table t("Demo");
  t.set_header({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "2"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("Demo"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, HeaderAfterRowsThrows) {
  Table t;
  t.add_row({"x"});
  EXPECT_THROW(t.set_header({"a"}), std::logic_error);
}

TEST(Table, CsvEscaping) {
  Table t;
  t.set_header({"k", "v"});
  t.add_row({"a,b", "quote\"inside"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

// --- args --------------------------------------------------------------------

TEST(Args, ParsesAllForms) {
  const char* argv[] = {"prog",       "--alpha=0.3", "--threads", "64",
                        "positional", "--csv"};
  Args a(6, argv);
  EXPECT_EQ(a.program(), "prog");
  EXPECT_TRUE(a.has("csv"));
  EXPECT_FALSE(a.has("missing"));
  EXPECT_EQ(a.get_or("alpha", ""), "0.3");
  EXPECT_EQ(a.get_int_or("threads", 0), 64);
  EXPECT_DOUBLE_EQ(a.get_double_or("alpha", 0.0), 0.3);
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "positional");
}

TEST(Args, BareFlagSwallowsFollowingPositional) {
  // Documented limitation of the "--key value" form: a bare flag followed
  // by a non-option word takes it as its value.
  const char* argv[] = {"prog", "--csv", "word"};
  Args a(3, argv);
  EXPECT_TRUE(a.has("csv"));
  EXPECT_EQ(a.get_or("csv", ""), "word");
  EXPECT_TRUE(a.positional().empty());
}

TEST(Args, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Args a(1, argv);
  EXPECT_EQ(a.get_int_or("threads", 8), 8);
  EXPECT_EQ(a.get_or("machine", "phytium"), "phytium");
}

TEST(Args, BadIntegerThrows) {
  const char* argv[] = {"prog", "--threads=abc"};
  Args a(2, argv);
  EXPECT_THROW(a.get_int_or("threads", 0), std::invalid_argument);
}

TEST(Args, DuplicateOptionThrows) {
  // "--x 1 --x 2" is a typo, not an override: silently keeping the first
  // (the old std::map::emplace behaviour) hid the mistake.
  const char* twice[] = {"prog", "--threads", "1", "--threads", "2"};
  EXPECT_THROW(Args(5, twice), std::invalid_argument);
  const char* mixed[] = {"prog", "--threads=1", "--threads", "2"};
  EXPECT_THROW(Args(4, mixed), std::invalid_argument);
  const char* flags[] = {"prog", "--csv", "--csv"};
  EXPECT_THROW(Args(3, flags), std::invalid_argument);
}

TEST(Args, EmptyOptionNameThrows) {
  const char* bare[] = {"prog", "--"};
  EXPECT_THROW(Args(2, bare), std::invalid_argument);
  const char* eq[] = {"prog", "--=value"};
  EXPECT_THROW(Args(2, eq), std::invalid_argument);
}

TEST(Args, ValuelessTypedFlagThrows) {
  // A bare "--iterations" is a mistake for a numeric option (the caller
  // meant to pass a value), but a bare string flag like "--trace" is a
  // legitimate use-the-default request — get/get_or treat it as absent.
  const char* argv[] = {"prog", "--iterations", "--trace"};
  Args a(3, argv);
  EXPECT_THROW(a.get_int_or("iterations", 5), std::invalid_argument);
  EXPECT_THROW(a.get_double_or("iterations", 5.0), std::invalid_argument);
  EXPECT_TRUE(a.has("trace"));
  EXPECT_EQ(a.get_or("trace", "default.json"), "default.json");
}

TEST(Args, RejectUnknownThrowsOnFlagsNotListed) {
  constexpr std::string_view known[] = {"machine", "csv", "threads"};
  const char* ok[] = {"prog", "--machine=tx2", "--csv", "pos"};
  EXPECT_NO_THROW(Args(4, ok).reject_unknown(known));
  const char* none[] = {"prog", "pos"};
  EXPECT_NO_THROW(Args(2, none).reject_unknown(known));
  // Bare, "--key value" and "--key=value" forms are all checked; the
  // message names the flag.
  for (const char* flag : {"--bogus-flag", "--bogus-flag=1"}) {
    const char* argv[] = {"prog", "--csv", flag, "1"};
    try {
      Args(4, argv).reject_unknown(known);
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "unknown option --bogus-flag");
    }
  }
  const char* bare[] = {"prog", "--max-attempts"};
  EXPECT_THROW(Args(2, bare).reject_unknown(known), std::invalid_argument);
  // Names match whole: neither a prefix nor an extension of a known name
  // passes.
  const char* prefix[] = {"prog", "--thread", "4"};
  EXPECT_THROW(Args(3, prefix).reject_unknown(known), std::invalid_argument);
  const char* longer[] = {"prog", "--csvx"};
  EXPECT_THROW(Args(2, longer).reject_unknown(known), std::invalid_argument);
}

// --- backoff -----------------------------------------------------------------

TEST(Backoff, SpinUntilCompletes) {
  std::atomic<bool> flag{false};
  std::thread setter([&] { flag.store(true, std::memory_order_release); });
  spin_until([&] { return flag.load(std::memory_order_acquire); });
  setter.join();
  EXPECT_TRUE(flag.load());
}

TEST(Backoff, StepCountsPolls) {
  SpinWait w(4);
  for (int i = 0; i < 10; ++i) w.step();
  EXPECT_EQ(w.polls(), 4u);  // capped at the spin limit, then yields
  w.reset();
  EXPECT_EQ(w.polls(), 0u);
}

// --- vtime -------------------------------------------------------------------

TEST(VTime, Conversions) {
  EXPECT_EQ(ns_to_ps(1.0), 1000u);
  EXPECT_EQ(ns_to_ps(1.15), 1150u);
  EXPECT_EQ(ns_to_ps(140.7), 140700u);
  EXPECT_DOUBLE_EQ(ps_to_ns(1150), 1.15);
  EXPECT_DOUBLE_EQ(ps_to_us(2'000'000), 2.0);
}

// --- generation ------------------------------------------------------------

TEST(Generation, ReachedIsWrapSafe) {
  EXPECT_TRUE(gen_reached(5, 5));
  EXPECT_TRUE(gen_reached(6, 5));
  EXPECT_FALSE(gen_reached(4, 5));
  // Around the 2^64 boundary: current = target and current = target + 1
  // must still read as reached, current = target - 1 as not yet.
  const std::uint64_t max = ~std::uint64_t{0};
  EXPECT_TRUE(gen_reached(max, max));
  EXPECT_TRUE(gen_reached(0, max));       // wrapped past the target
  EXPECT_FALSE(gen_reached(max - 1, max));
  EXPECT_FALSE(gen_reached(max, 0));      // target already wrapped ahead

  const std::uint32_t max32 = ~std::uint32_t{0};
  EXPECT_TRUE(gen_reached32(max32, max32));
  EXPECT_TRUE(gen_reached32(0, max32));
  EXPECT_FALSE(gen_reached32(max32 - 1, max32));
}

}  // namespace
}  // namespace armbar::util
