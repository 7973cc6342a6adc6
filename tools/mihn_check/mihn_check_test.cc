// Self-test for mihn-check: every rule (D1-D9) must both fire on its bad
// fixture and stay silent on its good fixture (which exercises the
// suppression annotation). A checker that silently stops firing is worse
// than no checker — CI would keep reporting a clean tree forever.

#include "tools/mihn_check/checker.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/mihn_check/include_graph.h"

namespace mihn::check {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(MIHN_CHECK_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Findings for a fixture, checked under its own filename as the
// repo-relative path (so D5 expects a MIHN_<FILENAME>_ guard).
std::vector<Finding> Check(const std::string& name) {
  return CheckFile(name, ReadFixture(name));
}

size_t CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<size_t>(std::count_if(
      findings.begin(), findings.end(), [&](const Finding& f) { return f.rule == rule; }));
}

TEST(MihnCheckTest, D1FiresOnUnorderedContainer) {
  const auto findings = Check("d1_unordered_bad.cc");
  EXPECT_EQ(CountRule(findings, "D1:unordered-container"), 1u);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(MihnCheckTest, D1HonorsSuppressionAndIgnoresComments) {
  EXPECT_TRUE(Check("d1_unordered_good.cc").empty());
}

TEST(MihnCheckTest, D2FiresOnNondeterminismSources) {
  const auto findings = Check("d2_nondet_bad.cc");
  EXPECT_EQ(CountRule(findings, "D2:nondet-source"), 2u);  // std::rand + system_clock lines.
  EXPECT_EQ(findings.size(), 2u);
}

TEST(MihnCheckTest, D2HonorsSuppression) {
  EXPECT_TRUE(Check("d2_nondet_good.cc").empty());
}

TEST(MihnCheckTest, D2ExemptsTheSeededSources) {
  // The same banned content is legal inside the deterministic time/random
  // implementation files themselves.
  const std::string content = ReadFixture("d2_nondet_bad.cc");
  EXPECT_TRUE(CheckFile("src/sim/random.cc", content).empty());
  EXPECT_TRUE(CheckFile("src/sim/time.cc", content).empty());
  EXPECT_FALSE(CheckFile("src/sim/simulation.cc", content).empty());
}

TEST(MihnCheckTest, D3FiresOnRawUnitParamsInHeaders) {
  const auto findings = Check("d3_units_bad.h");
  EXPECT_EQ(CountRule(findings, "D3:raw-unit-param"), 3u);  // gbps, delay_ns, bytes.
  EXPECT_EQ(findings.size(), 3u);
}

TEST(MihnCheckTest, D3IgnoresMembersAndHonorsSuppression) {
  EXPECT_TRUE(Check("d3_units_good.h").empty());
}

TEST(MihnCheckTest, D3OnlyAppliesToHeaders) {
  // The same text as a .cc file is out of scope: implementation internals
  // may stage raw doubles; the rule polices API surfaces.
  EXPECT_TRUE(CheckFile("d3_units_bad.cc", ReadFixture("d3_units_bad.h")).empty());
}

TEST(MihnCheckTest, D4FiresOnFloatAndFloatEquality) {
  const auto findings = Check("d4_float_bad.cc");
  EXPECT_EQ(CountRule(findings, "D4:float-type"), 2u);  // Declaration + static_cast.
  EXPECT_EQ(CountRule(findings, "D4:float-eq"), 2u);    // == 0.5 and 1.0 !=.
  EXPECT_EQ(findings.size(), 4u);
}

TEST(MihnCheckTest, D4HonorsSuppressionsAndAllowsIntEquality) {
  EXPECT_TRUE(Check("d4_float_good.cc").empty());
}

TEST(MihnCheckTest, D5FiresOnBadGuardAndUsingNamespace) {
  const auto findings = Check("d5_header_bad.h");
  EXPECT_EQ(CountRule(findings, "D5:include-guard"), 1u);
  EXPECT_EQ(CountRule(findings, "D5:using-namespace"), 1u);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(MihnCheckTest, D5AcceptsPathDerivedGuard) {
  EXPECT_TRUE(Check("d5_header_good.h").empty());
}

TEST(MihnCheckTest, D5FlagsMissingGuard) {
  const auto findings = CheckFile("nak.h", "namespace fixture {}\n");
  EXPECT_EQ(CountRule(findings, "D5:include-guard"), 1u);
}

TEST(MihnCheckTest, SuppressionRequiresAReason) {
  // A bare tag without the "(<reason>" opening does not suppress.
  const auto findings =
      CheckFile("bare.cc", "std::unordered_map<int, int> m;  // mihn-check: unordered-ok\n");
  EXPECT_EQ(CountRule(findings, "D1:unordered-container"), 1u);
}

TEST(MihnCheckTest, FindingsCarryFileLineAndSuppressionHint) {
  const auto findings = Check("d1_unordered_bad.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "d1_unordered_bad.cc");
  EXPECT_GT(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("unordered-ok"), std::string::npos);
}

TEST(MihnCheckTest, D7FiresOnEveryMutableStatePosition) {
  const auto findings = Check("d7_state_bad.cc");
  EXPECT_EQ(CountRule(findings, "D7:namespace-scope-state"), 2u);
  EXPECT_EQ(CountRule(findings, "D7:static-local"), 1u);
  EXPECT_EQ(CountRule(findings, "D7:static-member"), 1u);
  EXPECT_EQ(findings.size(), 4u);
}

TEST(MihnCheckTest, D7AllowsConstantsLocalsAndSuppressions) {
  EXPECT_TRUE(Check("d7_state_good.cc").empty());
}

TEST(MihnCheckTest, D8FiresOnBannedSymbolAndInclude) {
  const auto findings = Check("d8_drift_bad.cc");
  EXPECT_EQ(CountRule(findings, "D8:api-drift"), 2u);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(MihnCheckTest, D8AllowsReferenceSolverAndSuppression) {
  EXPECT_TRUE(Check("d8_drift_good.cc").empty());
}

TEST(MihnCheckTest, D8BansAreUnconditionalAcrossSurfaces) {
  // Both migrations are finished, so the allowlists are empty: the bans
  // fire even at the former definition sites (the solver translation unit
  // and the deleted header's old home) and nothing can quietly revive a
  // retired surface.
  const std::string content = ReadFixture("d8_drift_bad.cc");
  for (const char* rel : {"src/fabric/max_min.cc", "src/diagnose/tools.cc"}) {
    EXPECT_EQ(CountRule(CheckFile(rel, content), "D8:api-drift"), 2u) << rel;
  }
}

TEST(MihnCheckTest, D8FlagsSnapshotExportersUnderSrcOutsideFabric) {
  const std::string bad = ReadFixture("d8_snapshot_bad.cc");
  for (const char* rel : {"src/fleet/fleet.cc", "src/telemetry/collector.cc",
                          "src/anomaly/root_cause.cc"}) {
    const auto findings = CheckFile(rel, bad);
    EXPECT_EQ(CountRule(findings, "D8:api-drift"), 2u) << rel;
    EXPECT_EQ(findings.size(), 2u) << rel;
  }
  EXPECT_TRUE(CheckFile("src/fleet/fleet.cc", ReadFixture("d8_snapshot_good.cc")).empty());
}

TEST(MihnCheckTest, D8SnapshotScopeExemptsFabricTestsAndBenches) {
  // The fabric defines the exporters; tests, tools and benchmarks export
  // on purpose.
  const std::string bad = ReadFixture("d8_snapshot_bad.cc");
  for (const char* rel : {"src/fabric/fabric.cc", "tests/fabric/link_view_test.cc",
                          "bench/bench_monitoring_overhead.cpp",
                          "perfbench/fleet_workload.cc", "d8_snapshot_bad.cc"}) {
    EXPECT_TRUE(CheckFile(rel, bad).empty()) << rel;
  }
}

TEST(MihnCheckTest, D8FiresOnOwningClockConstructions) {
  const auto findings = Check("d8_clock_bad.cc");
  EXPECT_EQ(CountRule(findings, "D8:owned-clock"), 3u);
  EXPECT_EQ(findings.size(), 3u);
}

TEST(MihnCheckTest, D8AllowsInjectedClocksTypePositionsAndSuppression) {
  EXPECT_TRUE(Check("d8_clock_good.cc").empty());
}

TEST(MihnCheckTest, D8OwnedClockExemptsWrapperDefinitionSites) {
  // The owning wrappers have to construct themselves somewhere, and the
  // equivalence test deliberately exercises them.
  const std::string content = ReadFixture("d8_clock_bad.cc");
  EXPECT_TRUE(CheckFile("src/host/host_network.cc", content).empty());
  EXPECT_TRUE(CheckFile("tests/host/host_network_test.cc", content).empty());
}

TEST(MihnCheckTest, D9FiresOnUnguardedMembersOfAnnotatedClass) {
  // Two in the core::Mutex monitor, one in the core::SyncMutex monitor (a
  // SyncMutex member opts a class in exactly like Mutex).
  const auto findings = Check("d9_guarded_bad.h");
  EXPECT_EQ(CountRule(findings, "D9:guarded-by"), 3u);
  EXPECT_EQ(findings.size(), 3u);
}

TEST(MihnCheckTest, D9ExemptsConstAtomicSuppressedAndUnannotated) {
  EXPECT_TRUE(Check("d9_guarded_good.h").empty());
}

TEST(MihnCheckTest, RulesFilterLimitsFamilies) {
  const std::string content = ReadFixture("d1_unordered_bad.cc");
  Options only_d4;
  only_d4.rules = {"D4"};
  EXPECT_TRUE(CheckFile("d1_unordered_bad.cc", content, only_d4).empty());
  Options only_d1;
  only_d1.rules = {"D1"};
  EXPECT_EQ(CheckFile("d1_unordered_bad.cc", content, only_d1).size(), 1u);
}

// -- D6: layering over the mini include trees --------------------------------

Options D6Options() {
  Options options;
  options.rules = {"D6"};
  options.layering_file = std::string(MIHN_CHECK_TESTDATA_DIR) + "/d6/layering.txt";
  return options;
}

std::vector<Finding> CheckD6Tree(const std::string& tree) {
  return CheckTree(std::string(MIHN_CHECK_TESTDATA_DIR) + "/d6/" + tree, {"src"},
                   D6Options());
}

TEST(MihnCheckTest, D6AcceptsDownwardIncludes) {
  EXPECT_TRUE(CheckD6Tree("clean").empty());
}

TEST(MihnCheckTest, D6FiresOnUpwardInclude) {
  const auto findings = CheckD6Tree("upward");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "D6:layering");
  EXPECT_EQ(findings[0].file, "src/core/base.h");
  EXPECT_NE(findings[0].message.find("upward include"), std::string::npos);
}

TEST(MihnCheckTest, D6FiresOnIncludeCycle) {
  const auto findings = CheckD6Tree("cycle");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "D6:include-cycle");
  EXPECT_NE(findings[0].message.find("->"), std::string::npos);
}

TEST(MihnCheckTest, D6FiresOnUndeclaredModule) {
  const auto findings = CheckD6Tree("unknown");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "D6:layering");
  EXPECT_NE(findings[0].message.find("src/mystery"), std::string::npos);
}

TEST(MihnCheckTest, D6HonorsSuppression) {
  EXPECT_TRUE(CheckD6Tree("suppressed").empty());
}

TEST(MihnCheckTest, D6ReportsUnreadableManifest) {
  Options options;
  options.rules = {"D6"};
  options.layering_file = std::string(MIHN_CHECK_TESTDATA_DIR) + "/d6/no_such_manifest.txt";
  const auto findings =
      CheckTree(std::string(MIHN_CHECK_TESTDATA_DIR) + "/d6/clean", {"src"}, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("unreadable"), std::string::npos);
}

TEST(MihnCheckTest, LayeringManifestMatchesSourceTree) {
  // The real manifest and the real src/ must agree in both directions:
  // a module missing from the manifest would dodge D6, and a stale entry
  // would let dead layers linger.
  const std::string root = MIHN_CHECK_REPO_ROOT;
  const Layering layering = LoadLayering(root + "/tools/mihn_check/layering.txt");
  ASSERT_TRUE(layering.ok());
  const std::set<std::string> declared(layering.modules.begin(), layering.modules.end());
  std::set<std::string> present;
  for (const auto& entry : std::filesystem::directory_iterator(root + "/src")) {
    if (entry.is_directory()) {
      present.insert(entry.path().filename().string());
    }
  }
  EXPECT_EQ(declared, present);
}

TEST(MihnCheckTest, FormatFindingsSummarizes) {
  EXPECT_NE(FormatFindings({}).find("clean"), std::string::npos);
  const auto findings = Check("d5_header_bad.h");
  const std::string report = FormatFindings(findings);
  EXPECT_NE(report.find("d5_header_bad.h:"), std::string::npos);
  EXPECT_NE(report.find("2 unsuppressed"), std::string::npos);
}

}  // namespace
}  // namespace mihn::check
