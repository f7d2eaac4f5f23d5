// kk-lint driver.
//
// Usage:
//   kk-lint --root <repo> [--compile-commands <json>] [--fix-list]
//           [--report-unused-waivers] [file...]
//   kk-lint --root <repo> --changed-only <listfile>
//   kk-lint --list-rules
//
// With explicit files, lints exactly those (scoped by their path relative
// to --root). With --changed-only, lints the files named in <listfile> (one
// path per line, as produced by `git diff --name-only`), silently skipping
// deleted files and non-C++ paths — the fast pre-gate for incremental CI.
// Otherwise lints the tree: the translation units from compile_commands.json
// that live under the root, plus every source under src/, tests/, bench/,
// examples/ and tools/. The tree is read in every mode for KK003's container
// names, so a file linted alone still sees declarations made elsewhere.
//
// Exit-code contract (asserted by the lint golden tests, relied on by CI):
//   0  clean — no findings, and (with --report-unused-waivers) no stale
//      waiver comments
//   1  findings (or stale waivers when reporting them)
//   2  tool or usage error: bad flags, unreadable --root / file / listfile
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/kk-lint/lint.h"

namespace fs = std::filesystem;

namespace {

// Directories under the root whose sources are linted in tree mode.
const char* const kLintDirs[] = {"src", "tests", "bench", "examples", "tools"};

bool IsExcluded(const std::string& rel) {
  return rel.find("testdata/") != std::string::npos ||
         rel.find("build") == 0 || rel.find(".git/") != std::string::npos;
}

bool HasSourceExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".cxx" || ext == ".h" || ext == ".hpp";
}

std::string RelativeTo(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty()) {
    return p.generic_string();
  }
  return rel.generic_string();
}

int Usage() {
  std::fprintf(stderr,
               "usage: kk-lint [--root DIR] [--compile-commands FILE] [--fix-list]\n"
               "               [--report-unused-waivers] [--changed-only LISTFILE]\n"
               "               [--list-rules] [file...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string compile_commands;
  std::string changed_list;
  bool fix_list = false;
  bool report_unused_waivers = false;
  std::vector<std::string> explicit_files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--compile-commands" && i + 1 < argc) {
      compile_commands = argv[++i];
    } else if (arg == "--changed-only" && i + 1 < argc) {
      changed_list = argv[++i];
    } else if (arg == "--fix-list") {
      fix_list = true;
    } else if (arg == "--report-unused-waivers") {
      report_unused_waivers = true;
    } else if (arg == "--list-rules") {
      for (const auto& r : kklint::Rules()) {
        std::printf("%s %-22s scope: %-60s waiver: // kk-lint: %s\n", r.id, r.name, r.scope,
                    r.waiver_tag);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      explicit_files.push_back(arg);
    }
  }
  if (!changed_list.empty() && !explicit_files.empty()) {
    std::fprintf(stderr, "kk-lint: --changed-only and explicit files are exclusive\n");
    return 2;
  }

  std::error_code ec;
  root = fs::canonical(root, ec);
  if (ec) {
    std::fprintf(stderr, "kk-lint: bad --root: %s\n", ec.message().c_str());
    return 2;
  }

  // (abs, rel) pairs, each rel once.
  using FileList = std::vector<std::pair<std::string, std::string>>;
  auto add = [&](const fs::path& p, FileList* list, std::set<std::string>* seen) {
    std::error_code add_ec;
    fs::path abs = fs::canonical(p, add_ec);
    if (add_ec) {
      return;
    }
    std::string rel = RelativeTo(root, abs);
    if (IsExcluded(rel) || !seen->insert(rel).second) {
      return;
    }
    list->emplace_back(abs.string(), rel);
  };

  // The files to lint: the change list, the explicit args, or (neither
  // given) the whole tree below.
  FileList files;
  std::set<std::string> seen;
  if (!changed_list.empty()) {
    std::ifstream in(changed_list, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "kk-lint: cannot read %s\n", changed_list.c_str());
      return 2;
    }
    // Change lists are advisory: a renamed or deleted file still appears in
    // the diff, and non-C++ paths (docs, CMake, YAML) are routine — skip
    // both silently instead of failing the pre-gate.
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      if (line.empty()) {
        continue;
      }
      fs::path p(line);
      if (!p.is_absolute()) {
        p = root / p;
      }
      if (!fs::exists(p) || !HasSourceExtension(p)) {
        continue;
      }
      add(p, &files, &seen);
    }
    if (files.empty()) {
      std::printf("kk-lint: 0 file(s), 0 finding(s) (no lintable changes)\n");
      return 0;
    }
  } else if (!explicit_files.empty()) {
    for (const std::string& f : explicit_files) {
      fs::path p(f);
      if (!p.is_absolute()) {
        p = fs::current_path() / p;
      }
      if (!fs::exists(p)) {
        std::fprintf(stderr, "kk-lint: no such file: %s\n", f.c_str());
        return 2;
      }
      add(p, &files, &seen);
    }
  }

  // The tree: compile_commands translation units plus every source under
  // the standard lint directories. Walked in every mode, because KK003 must
  // see a container declared outside the selected files (a loop over
  // NodeState::in_flight in one file, its declaration in another).
  FileList tree;
  std::set<std::string> tree_seen;
  if (!compile_commands.empty()) {
    std::ifstream in(compile_commands, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "kk-lint: cannot read %s\n", compile_commands.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    for (const std::string& f : kklint::ParseCompileCommands(buf.str())) {
      fs::path p(f);
      if (p.is_absolute() && fs::exists(p)) {
        add(p, &tree, &tree_seen);
      }
    }
  }
  for (const char* dir : kLintDirs) {
    fs::path d = root / dir;
    if (!fs::exists(d)) {
      continue;
    }
    for (auto it = fs::recursive_directory_iterator(d, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (it->is_regular_file() && HasSourceExtension(it->path())) {
        add(it->path(), &tree, &tree_seen);
      }
    }
  }
  if (changed_list.empty() && explicit_files.empty()) {
    if (tree.empty()) {
      std::fprintf(stderr, "kk-lint: no files to lint (bad --root or --compile-commands?)\n");
      return 2;
    }
    files = tree;
  }

  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  // KK003 knows every unordered container declared in the tree, not only
  // the ones declared in the file it checks.
  std::set<std::string> unordered_names;
  for (const auto& [abs, rel] : tree) {
    std::string error;
    if (!kklint::AddUnorderedNamesFromFile(abs, &unordered_names, &error)) {
      std::fprintf(stderr, "kk-lint: %s\n", error.c_str());
      return 2;
    }
  }

  kklint::FileLint all;
  for (const auto& [abs, rel] : files) {
    std::string error;
    if (!kklint::LintFile(abs, rel, &all, &error, unordered_names)) {
      std::fprintf(stderr, "kk-lint: %s\n", error.c_str());
      return 2;
    }
  }

  for (const auto& f : all.findings) {
    std::printf("%s:%zu: [%s] %s (waive with // kk-lint: %s)\n", f.path.c_str(), f.line,
                f.rule.c_str(), f.message.c_str(), f.waiver.c_str());
  }
  size_t stale = 0;
  if (report_unused_waivers) {
    for (const auto& w : all.unused_waivers) {
      std::printf("%s:%zu: [stale-waiver] '// kk-lint: %s' silences nothing; delete it\n",
                  w.path.c_str(), w.line, w.tag.c_str());
    }
    stale = all.unused_waivers.size();
  }

  if (fix_list && !all.findings.empty()) {
    std::map<std::string, std::vector<const kklint::Finding*>> by_rule;
    for (const auto& f : all.findings) {
      by_rule[f.rule].push_back(&f);
    }
    std::printf("\n== fix list ==\n");
    for (const auto& r : kklint::Rules()) {
      auto it = by_rule.find(r.id);
      if (it == by_rule.end()) {
        continue;
      }
      std::printf("%s %s — %zu site(s). Fix: %s\n", r.id, r.name, it->second.size(),
                  r.remediation);
      for (const auto* f : it->second) {
        std::printf("    %s:%zu\n", f->path.c_str(), f->line);
      }
    }
  }

  std::printf("kk-lint: %zu file(s), %zu finding(s)", files.size(), all.findings.size());
  if (report_unused_waivers) {
    std::printf(", %zu stale waiver(s)", stale);
  }
  std::printf("\n");
  return all.findings.empty() && stale == 0 ? 0 : 1;
}
