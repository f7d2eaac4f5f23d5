// kk-metrics: validate and summarize observability JSON artifacts.
//
// Usage:
//   kk-metrics FILE...           summarize each document (fails if invalid)
//   kk-metrics --check FILE...   validate only; prints one status line per
//                                file and exits non-zero on any violation
//   kk-metrics --diff OLD NEW    per-metric delta table (markdown) between
//                                two same-kind documents; CI appends it to
//                                the job summary for bench-vs-baseline runs
//
// Accepts metrics snapshots (MetricsRegistry::ToJson) and bench_hotpath
// reports (BENCH_hotpath*.json). CI runs --check over every uploaded
// artifact. See docs/OBSERVABILITY.md.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "tools/kk-metrics/check.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int Usage() {
  std::fprintf(stderr, "usage: kk-metrics [--check] FILE...\n");
  std::fprintf(stderr, "       kk-metrics --diff OLD NEW\n");
  return 2;
}

// Parses one file or reports why it couldn't; used by both modes.
bool LoadDocument(const std::string& path, knightking::obs::JsonValue* doc) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "kk-metrics: cannot read %s\n", path.c_str());
    return false;
  }
  std::string parse_error;
  if (!knightking::obs::JsonValue::Parse(text, doc, &parse_error)) {
    std::fprintf(stderr, "%s: FAIL (parse error: %s)\n", path.c_str(), parse_error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_only = false;
  bool diff_mode = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check_only = true;
    } else if (std::strcmp(argv[i], "--diff") == 0) {
      diff_mode = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return Usage();
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "kk-metrics: unknown flag %s\n", argv[i]);
      return Usage();
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.empty()) {
    return Usage();
  }
  if (diff_mode) {
    if (check_only || files.size() != 2) {
      return Usage();
    }
    knightking::obs::JsonValue old_doc;
    knightking::obs::JsonValue new_doc;
    if (!LoadDocument(files[0], &old_doc) || !LoadDocument(files[1], &new_doc)) {
      return 1;
    }
    std::string diff = knightking::metrics::DiffDocuments(old_doc, new_doc);
    std::fputs(diff.c_str(), diff.rfind("error:", 0) == 0 ? stderr : stdout);
    return diff.rfind("error:", 0) == 0 ? 1 : 0;
  }

  int failures = 0;
  for (const std::string& path : files) {
    knightking::obs::JsonValue doc;
    if (!LoadDocument(path, &doc)) {
      ++failures;
      continue;
    }
    knightking::metrics::CheckResult result = knightking::metrics::CheckDocument(doc);
    if (!result.ok) {
      std::fprintf(stderr, "%s: FAIL (%s)\n", path.c_str(), result.error.c_str());
      ++failures;
      continue;
    }
    if (check_only) {
      std::printf("%s: OK (%s)\n", path.c_str(), result.kind.c_str());
    } else {
      std::printf("== %s\n%s", path.c_str(), knightking::metrics::Summarize(doc).c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}
