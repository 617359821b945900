// Sensitivity of the checker: weakening any load-bearing memory order to
// relaxed must produce a violation.  This is what makes a clean run
// meaningful — the checker demonstrably notices the class of bug it
// exists to catch, at the exact sites the implementations rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <string>

#include "armbar/wmc/check.hpp"

namespace wmc = armbar::wmc;

namespace {

bool consulted(const wmc::Result& r, const std::string& site) {
  return std::find(r.sites.begin(), r.sites.end(), site) != r.sites.end();
}

/// Every armbar::Site declared in the shipped barrier headers, read from
/// the headers themselves.
std::set<std::string> declared_sites() {
  const std::regex decl(
      R"(Site\s+\w+\s*=\s*Site::\w+\(\"([a-z0-9]+\.[a-z0-9_]+)\"\))");
  std::set<std::string> sites;
  for (const char* dir : {"include/armbar/barriers", "include/armbar/core"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(ARMBAR_SOURCE_DIR) / dir)) {
      std::ifstream in(entry.path());
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      for (std::sregex_iterator m(text.begin(), text.end(), decl), end;
           m != end; ++m)
        sites.insert((*m)[1].str());
    }
  }
  return sites;
}

TEST(WmcMutation, EverySeededWeakeningIsDetected) {
  // Every site a row consults must be declared in a header and caught
  // when weakened, and every declared site must be consulted by some row
  // at its default geometry.
  const std::set<std::string> declared = declared_sites();
  ASSERT_FALSE(declared.empty());
  std::set<std::string> covered;
  for (const wmc::ModelInfo& info : wmc::all_models()) {
    const auto outcomes = wmc::mutation_suite(info);
    EXPECT_FALSE(outcomes.empty()) << info.name << " consults no site";
    for (const wmc::MutationOutcome& o : outcomes) {
      SCOPED_TRACE(info.name + " / " + o.site);
      EXPECT_EQ(declared.count(o.site), 1u)
          << "no barrier header declares this site";
      EXPECT_TRUE(o.detected) << "weakened order survived exploration";
      covered.insert(o.site);
    }
  }
  for (const std::string& site : declared)
    EXPECT_EQ(covered.count(site), 1u)
        << site << ": no registry row consults it";
}

TEST(WmcMutation, UnknownSiteIsInert) {
  // A mutation naming no real site must change nothing: clean result,
  // and the site is never consulted.
  const wmc::ModelInfo* info = wmc::find_model("sense");
  ASSERT_NE(info, nullptr);
  wmc::CheckConfig config;
  config.engine.mutate = "central.not_a_site";
  const wmc::Result r = wmc::check_barrier(*info, config);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(consulted(r, config.engine.mutate));
  EXPECT_TRUE(consulted(r, "central.gen_release"));
}

TEST(WmcMutation, ViolationTraceNamesTheBarrier) {
  wmc::CheckConfig config;
  config.engine.mutate = "central.gen_release";
  const wmc::ModelInfo* info = wmc::find_model("sense");
  ASSERT_NE(info, nullptr);
  const wmc::Result r = wmc::check_barrier(*info, config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, "barrier-escape");
  EXPECT_NE(r.violations[0].detail.find("sense"), std::string::npos);
  EXPECT_FALSE(r.violations[0].trace.empty());
}

}  // namespace
