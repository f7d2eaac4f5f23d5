// Golden tests for kk-lint: each fixture under tools/kk-lint/testdata/
// seeds violations of exactly one rule; the waived fixture must be clean.
// The fixture tree mirrors the repo layout (testdata/src/engine/...), so
// path-scoped rules fire exactly as they would on real sources.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/kk-lint/lint.h"

namespace kklint {
namespace {

#if !defined(KK_LINT_TESTDATA_DIR) || !defined(KK_LINT_BIN)
#error "KK_LINT_TESTDATA_DIR and KK_LINT_BIN must be defined by the build"
#endif

std::string ReadFixture(const std::string& rel) {
  std::string path = std::string(KK_LINT_TESTDATA_DIR) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::set<std::string> RuleIds(const std::vector<Finding>& findings) {
  std::set<std::string> ids;
  for (const auto& f : findings) {
    ids.insert(f.rule);
  }
  return ids;
}

// Lints a fixture with its testdata-relative path (which mirrors the repo
// layout, so scoping behaves identically).
std::vector<Finding> LintFixture(const std::string& rel) {
  return LintContent(rel, ReadFixture(rel));
}

TEST(KkLintTest, Kk001AmbientRandomnessFixture) {
  auto findings = LintFixture("src/apps/kk001_ambient.cc");
  // time(nullptr) is dual-claimed by design: it is both seed material (KK001)
  // and an ambient clock read (KK006); src/apps/ is in both scopes.
  EXPECT_EQ(RuleIds(findings), (std::set<std::string>{"KK001", "KK006"}));
  EXPECT_GE(findings.size(), 5u);  // time(nullptr) x2, random_device, mt19937, rand
}

TEST(KkLintTest, Kk002RawSeedFixture) {
  auto findings = LintFixture("src/engine/kk002_raw_seed.cc");
  EXPECT_EQ(RuleIds(findings), std::set<std::string>{"KK002"});
  EXPECT_EQ(findings.size(), 2u);  // literal ctor + literal Seed()
}

TEST(KkLintTest, Kk003UnorderedIterationFixture) {
  auto findings = LintFixture("src/engine/kk003_unordered_iter.cc");
  EXPECT_EQ(RuleIds(findings), std::set<std::string>{"KK003"});
  EXPECT_EQ(findings.size(), 2u);  // range-for + iterator loop
}

// The container is declared in one header and walked in another: the
// walking file alone shows no unordered type, so KK003 fires only when the
// tree's declarations are collected first (as the tree driver does).
TEST(KkLintTest, Kk003SeesDeclarationsFromOtherFiles) {
  const std::string decl =
      "#include <unordered_map>\n"
      "struct NodeState {\n"
      "  std::unordered_map<int, Move> in_flight;\n"
      "};\n";
  const std::string loop =
      "void Retransmit(NodeState& node) {\n"
      "  for (auto& [id, move] : node.in_flight) {\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(LintContent("src/engine/retransmit.h", loop).empty());
  std::set<std::string> names;
  AddUnorderedNames(decl, &names);
  EXPECT_EQ(names, std::set<std::string>{"in_flight"});
  auto findings = LintContentFull("src/engine/retransmit.h", loop, names).findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "KK003");
  EXPECT_EQ(findings[0].line, 2u);
}

// Runs the kk-lint binary with --root at the fixture tree; returns its
// output and sets *exit_code to its exit status.
std::string RunKkLint(const std::string& args, int* exit_code) {
  const std::string cmd =
      std::string(KK_LINT_BIN) + " --root " + KK_LINT_TESTDATA_DIR + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  std::string out;
  char buf[256];
  while (pipe != nullptr && std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    out += buf;
  }
  const int status = pipe != nullptr ? pclose(pipe) : -1;
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

// The driver's file-selecting modes (explicit files, and CI's lint pre-gate's
// --changed-only) still read the whole tree for KK003's names: a selected
// file that walks a container declared in an unselected header is flagged.
TEST(KkLintTest, Kk003SeesTreeDeclarationsWhenLintingSelectedFiles) {
  const std::string loop = "src/engine/kk003_cross_file_loop.cc";
  const std::string list = testing::TempDir() + "kk_lint_cross_file_changed.txt";
  std::ofstream(list) << loop << "\n";
  for (const std::string& args :
       {std::string(KK_LINT_TESTDATA_DIR) + "/" + loop, "--changed-only " + list}) {
    SCOPED_TRACE(args);
    int exit_code = -1;
    std::string out = RunKkLint(args, &exit_code);
    EXPECT_EQ(exit_code, 1) << out;
    EXPECT_NE(out.find(loop + ":8: [KK003]"), std::string::npos) << out;
    EXPECT_NE(out.find("kk-lint: 1 file(s)"), std::string::npos) << out;
  }
}

TEST(KkLintTest, Kk004SamplingNarrowingFixture) {
  auto findings = LintFixture("src/sampling/kk004_narrowing.cc");
  EXPECT_EQ(RuleIds(findings), std::set<std::string>{"KK004"});
  EXPECT_EQ(findings.size(), 2u);  // float fold + integer truncation
}

TEST(KkLintTest, Kk005UncheckedReadFixture) {
  auto findings = LintFixture("src/engine/kk005_unchecked_read.cc");
  EXPECT_EQ(RuleIds(findings), std::set<std::string>{"KK005"});
  EXPECT_EQ(findings.size(), 2u);  // two unguarded variable-index reads
}

TEST(KkLintTest, Kk005UncheckedAllocFixture) {
  auto findings = LintFixture("src/engine/kk005_unchecked_alloc.cc");
  EXPECT_EQ(RuleIds(findings), std::set<std::string>{"KK005"});
  EXPECT_EQ(findings.size(), 2u);  // wire-sized resize + reserve; literal exempt
}

// The hardened-reader idiom counts as a bounds guard: a deserialization
// function that validates via BinaryFileReader/CanConsume needs no waiver.
TEST(KkLintTest, Kk005HardenedReaderIdiomIsGuarded) {
  std::string guarded =
      "bool ReadBlock(const std::string& p, std::vector<uint32_t>* out) {\n"
      "  knightking::BinaryFileReader r(p);\n"
      "  uint64_t count = 0;\n"
      "  if (!r.Read(&count) || !r.CanConsume(count, 4)) return false;\n"
      "  out->resize(count);\n"
      "  return true;\n"
      "}\n";
  EXPECT_TRUE(LintContent("src/engine/read_block.cc", guarded).empty());
  std::string unguarded =
      "bool ReadBlock(uint64_t count, std::vector<uint32_t>* out) {\n"
      "  out->resize(count);\n"
      "  return true;\n"
      "}\n";
  auto findings = LintContent("src/engine/read_block.cc", unguarded);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(std::string(findings[0].rule), "KK005");
}

TEST(KkLintTest, Kk006AmbientTimeFixture) {
  auto findings = LintFixture("src/engine/kk006_ambient_time.cc");
  EXPECT_EQ(RuleIds(findings), std::set<std::string>{"KK006"});
  EXPECT_EQ(findings.size(), 2u);  // steady_clock::now + clock_gettime
}

TEST(KkLintTest, Kk007RawMutexFixture) {
  auto findings = LintFixture("src/engine/kk007_raw_mutex.cc");
  EXPECT_EQ(RuleIds(findings), std::set<std::string>{"KK007"});
  EXPECT_EQ(findings.size(), 3u);  // mutex + condition_variable + lock_guard
}

TEST(KkLintTest, Kk008FpReductionFixture) {
  auto findings = LintFixture("src/engine/kk008_fp_reduction.cc");
  EXPECT_EQ(RuleIds(findings), std::set<std::string>{"KK008"});
  // Exactly the shared-double reduction: the body-local accumulator, the
  // sequential merge, and the integer count must all stay silent.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("total +="), std::string::npos);
}

TEST(KkLintTest, Kk009UncheckedWriterFixture) {
  auto findings = LintFixture("src/engine/kk009_unchecked_writer.cc");
  EXPECT_EQ(RuleIds(findings), std::set<std::string>{"KK009"});
  // Unchecked+uncommitted, and checked-but-in-place; the tmp+CommitFile
  // function is silent.
  EXPECT_EQ(findings.size(), 2u);
}

TEST(KkLintTest, Kk010RawThreadFixture) {
  auto findings = LintFixture("src/engine/kk010_raw_thread.cc");
  EXPECT_EQ(RuleIds(findings), std::set<std::string>{"KK010"});
  EXPECT_EQ(findings.size(), 2u);  // std::thread construction + .detach()
}

TEST(KkLintTest, Kk011CacheGeometryLiteralFixture) {
  auto findings = LintFixture("src/engine/kk011_cache_literal.cc");
  EXPECT_EQ(RuleIds(findings), std::set<std::string>{"KK011"});
  // Hardcoded bucket count + ring size; the geometry-derived count, the
  // named-constant default, and the 0/1 neutral values all stay silent.
  EXPECT_EQ(findings.size(), 2u);
}

TEST(KkLintTest, WaiversSilenceEveryRule) {
  FileLint lint = LintContentFull("src/engine/waived.cc", ReadFixture("src/engine/waived.cc"));
  EXPECT_TRUE(lint.findings.empty())
      << lint.findings.size() << " unexpected finding(s), first: "
      << (lint.findings.empty() ? "" : lint.findings[0].message);
  // Every waiver in the fixture silences a live finding — none are stale.
  EXPECT_TRUE(lint.unused_waivers.empty())
      << "first stale: " << (lint.unused_waivers.empty() ? "" : lint.unused_waivers[0].tag);
}

// The same violating content is legal outside the rule's path scope.
TEST(KkLintTest, ScopingDisablesRulesOutsideTheirDirs) {
  std::string engine_content = ReadFixture("src/engine/kk003_unordered_iter.cc");
  EXPECT_TRUE(LintContent("bench/kk003_unordered_iter.cc", engine_content).empty());
  std::string sampling_content = ReadFixture("src/sampling/kk004_narrowing.cc");
  EXPECT_TRUE(LintContent("src/graph/kk004_narrowing.cc", sampling_content).empty());
  std::string seed_content = ReadFixture("src/engine/kk002_raw_seed.cc");
  EXPECT_TRUE(LintContent("tests/kk002_raw_seed.cc", seed_content).empty());
  // The concurrency/time rules stop at the src/ boundary and at their
  // sanctioned homes inside it.
  std::string time_content = ReadFixture("src/engine/kk006_ambient_time.cc");
  EXPECT_TRUE(LintContent("bench/kk006_ambient_time.cc", time_content).empty());
  EXPECT_TRUE(LintContent("src/obs/kk006_ambient_time.cc", time_content).empty());
  EXPECT_TRUE(LintContent("src/testing/kk006_ambient_time.cc", time_content).empty());
  EXPECT_TRUE(LintContent("src/util/timer.h", time_content).empty());
  std::string mutex_content = ReadFixture("src/engine/kk007_raw_mutex.cc");
  EXPECT_TRUE(LintContent("src/util/mutex.h", mutex_content).empty());
  EXPECT_TRUE(LintContent("tools/kk-bench/kk007_raw_mutex.cc", mutex_content).empty());
  std::string thread_content = ReadFixture("src/engine/kk010_raw_thread.cc");
  EXPECT_TRUE(LintContent("src/util/thread_pool.cc", thread_content).empty());
  EXPECT_TRUE(LintContent("src/testing/kk010_raw_thread.cc", thread_content).empty());
  // Cache-geometry literals are legal outside src/ and in their home header.
  std::string cache_content = ReadFixture("src/engine/kk011_cache_literal.cc");
  EXPECT_TRUE(LintContent("bench/kk011_cache_literal.cc", cache_content).empty());
  EXPECT_TRUE(LintContent("src/util/cache_geometry.h", cache_content).empty());
}

// KK001 applies tree-wide but the primitives' home file is exempt.
TEST(KkLintTest, RngHeaderIsExemptFromKk001) {
  std::string content = "#include <random>\nstd::mt19937 gen;\n";
  EXPECT_FALSE(LintContent("src/other/rng_like.h", content).empty());
  EXPECT_TRUE(LintContent("src/util/rng.h", content).empty());
}

TEST(KkLintTest, TokensInCommentsAndStringsDoNotFire) {
  std::string content =
      "// std::mt19937 is banned, as is time(nullptr)\n"
      "const char* kDoc = \"never use std::rand or random_device\";\n"
      "/* block comment: srand(time(0)) */\n";
  EXPECT_TRUE(LintContent("src/engine/comments.cc", content).empty());
}

TEST(KkLintTest, WaiverOnPrecedingLineWorks) {
  std::string content =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "void F() {\n"
      "  // kk-lint: nondeterministic-order-ok\n"
      "  for (const auto& [k, v] : m) {\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(LintContent("src/engine/waiver_above.cc", content).empty());
}

TEST(KkLintTest, FindingsCarryLineNumbersAndWaiverTags) {
  auto findings = LintFixture("src/engine/kk002_raw_seed.cc");
  ASSERT_EQ(findings.size(), 2u);
  std::vector<size_t> lines;
  for (const auto& f : findings) {
    EXPECT_EQ(f.waiver, "raw-seed-ok");
    EXPECT_EQ(f.path, "src/engine/kk002_raw_seed.cc");
    lines.push_back(f.line);
  }
  EXPECT_TRUE(std::is_sorted(lines.begin(), lines.end()));
  EXPECT_GT(lines.front(), 1u);  // points at the violation, not the file head
}

TEST(KkLintTest, ParseCompileCommandsExtractsFiles) {
  std::string json =
      "[{\"directory\": \"/b\", \"command\": \"c++ -c x.cc\", "
      "\"file\": \"/repo/src/a.cc\"},\n"
      " {\"directory\": \"/b\", \"file\": \"/repo/tests/b_test.cc\"}]";
  auto files = ParseCompileCommands(json);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/repo/src/a.cc");
  EXPECT_EQ(files[1], "/repo/tests/b_test.cc");
}

TEST(KkLintTest, RuleCatalogIsCompleteAndStable) {
  const auto& rules = Rules();
  ASSERT_EQ(rules.size(), 11u);
  EXPECT_STREQ(rules[0].id, "KK001");
  EXPECT_STREQ(rules[4].id, "KK005");
  EXPECT_STREQ(rules[5].id, "KK006");
  EXPECT_STREQ(rules[9].id, "KK010");
  EXPECT_STREQ(rules[10].id, "KK011");
  std::set<std::string> tags;
  for (const auto& r : rules) {
    EXPECT_NE(std::string(r.waiver_tag), "");
    EXPECT_NE(std::string(r.remediation), "");
    tags.insert(r.waiver_tag);
  }
  EXPECT_EQ(tags.size(), rules.size());  // waiver tags are unique per rule
}

// A waiver comment that silences nothing is stale — reported for src/
// files, where the gated rules and all real waivers live; prose mentions of
// tags elsewhere (docs, this test file) are not suppressions.
TEST(KkLintTest, UnusedWaiversAreReported) {
  std::string stale =
      "void F() {\n"
      "  int x = 0;  // kk-lint: raw-seed-ok\n"
      "  (void)x;\n"
      "}\n";
  FileLint lint = LintContentFull("src/engine/stale.cc", stale);
  EXPECT_TRUE(lint.findings.empty());
  ASSERT_EQ(lint.unused_waivers.size(), 1u);
  EXPECT_EQ(lint.unused_waivers[0].tag, "raw-seed-ok");
  EXPECT_EQ(lint.unused_waivers[0].line, 2u);

  // The identical content outside src/ is not reported.
  EXPECT_TRUE(LintContentFull("tools/kk-x/stale.cc", stale).unused_waivers.empty());

  // An unknown tag is prose, not a stale waiver.
  std::string unknown = "int y = 0;  // kk-lint: not-a-real-tag\n";
  EXPECT_TRUE(LintContentFull("src/engine/unknown.cc", unknown).unused_waivers.empty());
}

TEST(KkLintTest, UsedWaiverIsNotStale) {
  std::string content =
      "#include \"src/util/rng.h\"\n"
      "knightking::Rng MakeRng() {\n"
      "  knightking::Rng rng(7);  // kk-lint: raw-seed-ok\n"
      "  return rng;\n"
      "}\n";
  FileLint lint = LintContentFull("src/engine/used.cc", content);
  EXPECT_TRUE(lint.findings.empty());
  EXPECT_TRUE(lint.unused_waivers.empty());
}

}  // namespace
}  // namespace kklint
