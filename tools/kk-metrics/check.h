// Schema validation and summarization for the repo's observability JSON.
//
// Two document kinds are understood (both schema_version 1):
//   - metrics snapshots (MetricsRegistry::ToJson, kind "kk-metrics-snapshot")
//   - hotpath bench reports (bench_hotpath's BENCH_hotpath.json)
// CI runs `kk-metrics --check` over every emitted artifact so a schema drift
// fails the build instead of silently breaking downstream consumers, and
// `kk-metrics --diff old new` renders per-metric deltas between two valid
// documents as a markdown table for the perf-smoke job summary. Built as
// a library so tests/obs_test.cc exercises the checker directly.
#ifndef TOOLS_KK_METRICS_CHECK_H_
#define TOOLS_KK_METRICS_CHECK_H_

#include <string>
#include <string_view>

#include "src/obs/json.h"

namespace knightking {
namespace metrics {

struct CheckResult {
  bool ok = false;
  std::string kind;   // "kk-metrics-snapshot" or "hotpath"
  std::string error;  // first violation, empty when ok
};

// Validates a parsed document against whichever schema its headers claim.
CheckResult CheckDocument(const obs::JsonValue& doc);

// Parses and validates raw JSON text (parse errors become check failures).
CheckResult CheckJsonText(std::string_view text);

// Human-readable digest of a *valid* document (one line per metric or
// workload). Returns an error string prefixed with "error:" if invalid.
std::string Summarize(const obs::JsonValue& doc);

// Markdown table of per-metric deltas between two documents of the same kind
// (baseline first). Numeric leaves are flattened to dotted paths — array
// elements keyed by their "name" field when present, by index otherwise —
// so workload rows line up even if ordering changes. Metrics that appear in
// only one document are listed as added/removed. Returns an error string
// prefixed with "error:" if either document is invalid or the kinds
// disagree.
std::string DiffDocuments(const obs::JsonValue& old_doc,
                          const obs::JsonValue& new_doc);

}  // namespace metrics
}  // namespace knightking

#endif  // TOOLS_KK_METRICS_CHECK_H_
