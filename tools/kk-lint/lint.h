// kk-lint: KnightKing-specific static analysis.
//
// A token/AST-lite checker over the source tree that enforces the
// determinism and concurrency invariants the deterministic-simulation
// harness (docs/TESTING.md) relies on at runtime. Rules are path-scoped:
// the same source line can be legal in bench/ and a violation in
// src/engine/. Each rule has a stable ID, a one-line remediation, and a
// waiver comment that silences it at a specific site:
//
//   KK001 ambient-randomness     waiver: // kk-lint: ambient-randomness-ok
//   KK002 raw-seed               waiver: // kk-lint: raw-seed-ok
//   KK003 unordered-iteration    waiver: // kk-lint: nondeterministic-order-ok
//   KK004 sampling-narrowing     waiver: // kk-lint: narrow-ok
//   KK005 unchecked-read         waiver: // kk-lint: unchecked-read-ok
//   KK006 ambient-time           waiver: // kk-lint: ambient-time-ok
//   KK007 raw-mutex              waiver: // kk-lint: raw-mutex-ok
//   KK008 nondet-fp-reduction    waiver: // kk-lint: nondeterministic-reduction-ok
//   KK009 unchecked-writer       waiver: // kk-lint: unchecked-write-ok
//   KK010 raw-thread             waiver: // kk-lint: raw-thread-ok
//   KK011 cache-geometry-literal waiver: // kk-lint: cache-geometry-ok
//
// Checks always *emit*; waivers are applied centrally after all checks run.
// That split is what lets the driver report stale waiver comments
// (--report-unused-waivers): a waiver is "used" exactly when a finding with
// its tag landed on its line or the line below.
//
// See docs/STATIC_ANALYSIS.md for the full catalog and rationale.
#ifndef TOOLS_KK_LINT_LINT_H_
#define TOOLS_KK_LINT_LINT_H_

#include <set>
#include <string>
#include <vector>

namespace kklint {

struct Finding {
  std::string rule;     // e.g. "KK003"
  std::string path;     // path as given to the linter
  size_t line = 0;      // 1-based
  std::string message;  // what is wrong at this site
  std::string waiver;   // comment tag that would silence it
};

// A `// kk-lint: <tag>` comment that silenced nothing: no finding with that
// tag exists on its line or the line below. Stale waivers are dead
// suppressions — the code they excused has moved or been fixed — and the
// tree gate asserts there are none.
struct UnusedWaiver {
  std::string tag;
  std::string path;
  size_t line = 0;  // 1-based
};

// Full per-file lint output: findings that survived waiver filtering, plus
// waiver comments that matched nothing.
struct FileLint {
  std::vector<Finding> findings;
  std::vector<UnusedWaiver> unused_waivers;
};

struct RuleInfo {
  const char* id;
  const char* name;
  const char* waiver_tag;
  const char* scope;  // human-readable path scope
  const char* remediation;
};

// The rule catalog, in ID order.
const std::vector<RuleInfo>& Rules();

// Adds every identifier `content` declares with an unordered container type
// (KK003's container names) to *names. The tree driver collects them over
// every linted file first, so KK003 sees a loop over a member whose
// declaration lives in another header.
void AddUnorderedNames(const std::string& content, std::set<std::string>* names);

// AddUnorderedNames over a file on disk; false (with `error` set) if it
// cannot be read.
bool AddUnorderedNamesFromFile(const std::string& abs_path, std::set<std::string>* names,
                               std::string* error);

// Lints one file. `rel_path` is the path relative to the repo root and
// drives rule scoping; `content` is the file's full text;
// `unordered_names` are unordered container names declared elsewhere in
// the tree (the file's own are always collected).
FileLint LintContentFull(const std::string& rel_path, const std::string& content,
                         const std::set<std::string>& unordered_names = {});

// Findings-only convenience wrapper around LintContentFull.
std::vector<Finding> LintContent(const std::string& rel_path, const std::string& content);

// Reads and lints one file on disk, appending into *out. Returns false (and
// sets `error`) if the file cannot be read.
bool LintFile(const std::string& abs_path, const std::string& rel_path, FileLint* out,
              std::string* error, const std::set<std::string>& unordered_names = {});

// Extracts the translation-unit list from a compile_commands.json blob
// (minimal parser: every "file": "..." entry).
std::vector<std::string> ParseCompileCommands(const std::string& json);

}  // namespace kklint

#endif  // TOOLS_KK_LINT_LINT_H_
