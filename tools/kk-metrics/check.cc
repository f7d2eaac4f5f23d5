#include "tools/kk-metrics/check.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace knightking {
namespace metrics {
namespace {

using obs::JsonValue;

// Appends one failed-check message; only the first is reported.
void Fail(CheckResult* r, const std::string& msg) {
  if (r->error.empty()) {
    r->error = msg;
  }
  r->ok = false;
}

bool RequireNumber(const JsonValue& obj, const char* key, CheckResult* r,
                   const std::string& where) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->IsNumber()) {
    Fail(r, where + ": missing numeric field \"" + key + "\"");
    return false;
  }
  return true;
}

// Fields introduced after a report format shipped are optional (older
// checked-in reports lack them) but must be numeric when present.
bool OptionalNumber(const JsonValue& obj, const char* key, CheckResult* r,
                    const std::string& where) {
  const JsonValue* v = obj.Find(key);
  if (v != nullptr && !v->IsNumber()) {
    Fail(r, where + ": field \"" + key + "\" must be numeric when present");
    return false;
  }
  return true;
}

bool RequireBool(const JsonValue& obj, const char* key, CheckResult* r,
                 const std::string& where) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->IsBool()) {
    Fail(r, where + ": missing boolean field \"" + key + "\"");
    return false;
  }
  return true;
}

bool RequireString(const JsonValue& obj, const char* key, CheckResult* r,
                   const std::string& where) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->IsString()) {
    Fail(r, where + ": missing string field \"" + key + "\"");
    return false;
  }
  return true;
}

// Canonical sort key mirroring MetricsRegistry: name, then "k=v" label pairs
// joined by a separator that sorts below any printable character.
std::string MetricSortKey(const JsonValue& metric) {
  std::string key = metric.Find("name")->AsString();
  for (const auto& [k, v] : metric.Find("labels")->AsObject()) {
    key += '\x1f';
    key += k;
    key += '=';
    key += v.AsString();
  }
  return key;
}

void CheckSnapshot(const JsonValue& doc, CheckResult* r) {
  r->kind = "kk-metrics-snapshot";
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->IsArray()) {
    Fail(r, "snapshot: missing \"metrics\" array");
    return;
  }
  std::string prev_key;
  for (size_t i = 0; i < metrics->AsArray().size(); ++i) {
    const JsonValue& m = metrics->AsArray()[i];
    std::string where = "metrics[" + std::to_string(i) + "]";
    if (!m.IsObject()) {
      Fail(r, where + ": not an object");
      return;
    }
    if (!RequireString(m, "name", r, where) || !RequireBool(m, "stable", r, where) ||
        !RequireNumber(m, "value", r, where)) {
      return;
    }
    if (m.Find("name")->AsString().empty()) {
      Fail(r, where + ": empty metric name");
      return;
    }
    const JsonValue* labels = m.Find("labels");
    if (labels == nullptr || !labels->IsObject()) {
      Fail(r, where + ": missing \"labels\" object");
      return;
    }
    for (const auto& [k, v] : labels->AsObject()) {
      if (k.empty() || !v.IsString()) {
        Fail(r, where + ": labels must map non-empty keys to strings");
        return;
      }
    }
    std::string key = MetricSortKey(m);
    if (i > 0 && !(prev_key < key)) {
      Fail(r, where + ": metrics not in canonical (name, labels) order");
      return;
    }
    prev_key = std::move(key);
  }
}

void CheckHotpath(const JsonValue& doc, CheckResult* r) {
  r->kind = "hotpath";
  const JsonValue* config = doc.Find("config");
  if (config == nullptr || !config->IsObject()) {
    Fail(r, "hotpath: missing \"config\" object");
    return;
  }
  if (!RequireBool(*config, "small", r, "config") ||
      !RequireBool(*config, "sort_batches", r, "config") ||
      !RequireNumber(*config, "num_nodes", r, "config") ||
      !RequireNumber(*config, "workers_per_node", r, "config") ||
      !RequireNumber(*config, "graph_vertices", r, "config") ||
      !RequireNumber(*config, "graph_edges", r, "config") ||
      !OptionalNumber(*config, "checkpoint_every", r, "config")) {
    return;
  }
  for (const char* key : {"usable_cpus", "l1d_bytes", "l2_bytes", "llc_bytes"}) {
    if (!OptionalNumber(*config, key, r, "config")) {
      return;
    }
  }
  const JsonValue* workloads = doc.Find("workloads");
  if (workloads == nullptr || !workloads->IsArray() || workloads->AsArray().empty()) {
    Fail(r, "hotpath: missing non-empty \"workloads\" array");
    return;
  }
  for (size_t i = 0; i < workloads->AsArray().size(); ++i) {
    const JsonValue& w = workloads->AsArray()[i];
    std::string where = "workloads[" + std::to_string(i) + "]";
    if (!w.IsObject()) {
      Fail(r, where + ": not an object");
      return;
    }
    if (!RequireString(w, "name", r, where)) {
      return;
    }
    for (const char* key : {"walkers", "seconds", "walks_per_sec", "steps_per_sec", "steps",
                            "iterations", "edges_per_step", "cross_node_messages",
                            "cross_node_bytes"}) {
      if (!RequireNumber(w, key, r, where)) {
        return;
      }
    }
    const JsonValue* phases = w.Find("phase_seconds");
    if (phases == nullptr || !phases->IsObject()) {
      Fail(r, where + ": missing \"phase_seconds\" object");
      return;
    }
    for (const char* key : {"sample", "respond", "resolve", "exchange"}) {
      if (!RequireNumber(*phases, key, r, where + ".phase_seconds")) {
        return;
      }
    }
    for (const char* key : {"prepare", "deploy", "spec_build_s"}) {
      if (!OptionalNumber(*phases, key, r, where + ".phase_seconds")) {
        return;
      }
    }
    for (const char* key : {"checkpoints", "checkpoint_bytes", "checkpoint_micros",
                            "effective_workers", "batch_sorts"}) {
      if (!OptionalNumber(w, key, r, where)) {
        return;
      }
    }
    if (w.Find("seconds")->AsNumber() < 0 || w.Find("walks_per_sec")->AsNumber() < 0) {
      Fail(r, where + ": negative timing");
      return;
    }
  }
}

void CheckService(const JsonValue& doc, CheckResult* r) {
  r->kind = "service";
  const JsonValue* config = doc.Find("config");
  if (config == nullptr || !config->IsObject()) {
    Fail(r, "service: missing \"config\" object");
    return;
  }
  if (!RequireBool(*config, "small", r, "config") ||
      !RequireBool(*config, "faults", r, "config") ||
      !RequireNumber(*config, "workers_per_node", r, "config") ||
      !RequireNumber(*config, "segments_per_vertex", r, "config") ||
      !RequireNumber(*config, "cache_capacity", r, "config") ||
      !RequireNumber(*config, "users", r, "config") ||
      !RequireNumber(*config, "zipf_theta", r, "config") ||
      !RequireNumber(*config, "graph_vertices", r, "config") ||
      !RequireNumber(*config, "graph_edges", r, "config")) {
    return;
  }
  const JsonValue* results = doc.Find("results");
  if (results == nullptr || !results->IsObject()) {
    Fail(r, "service: missing \"results\" object");
    return;
  }
  for (const char* key :
       {"queries", "seconds", "qps", "p50_ms", "p99_ms", "mean_ms", "cache_hit_rate",
        "segments_stitched", "live_walks", "rejected", "peak_queue_depth", "index_segments",
        "index_bytes", "index_build_seconds"}) {
    if (!RequireNumber(*results, key, r, "results")) {
      return;
    }
  }
  if (results->Find("queries")->AsNumber() <= 0) {
    Fail(r, "results: no queries served");
    return;
  }
  if (results->Find("seconds")->AsNumber() < 0 || results->Find("qps")->AsNumber() < 0) {
    Fail(r, "results: negative timing");
    return;
  }
  double p50 = results->Find("p50_ms")->AsNumber();
  double p99 = results->Find("p99_ms")->AsNumber();
  if (p50 < 0 || p99 < 0 || p99 < p50) {
    Fail(r, "results: latency percentiles inconsistent (need 0 <= p50 <= p99)");
    return;
  }
  double hit_rate = results->Find("cache_hit_rate")->AsNumber();
  if (hit_rate < 0.0 || hit_rate > 1.0) {
    Fail(r, "results: cache_hit_rate outside [0, 1]");
    return;
  }
}

void CheckMutation(const JsonValue& doc, CheckResult* r) {
  r->kind = "mutation";
  const JsonValue* config = doc.Find("config");
  if (config == nullptr || !config->IsObject()) {
    Fail(r, "mutation: missing \"config\" object");
    return;
  }
  if (!RequireBool(*config, "small", r, "config") ||
      !RequireBool(*config, "faults", r, "config") ||
      !RequireNumber(*config, "num_nodes", r, "config") ||
      !RequireNumber(*config, "workers_per_node", r, "config") ||
      !RequireNumber(*config, "merge_threshold", r, "config") ||
      !RequireNumber(*config, "graph_vertices", r, "config") ||
      !RequireNumber(*config, "graph_edges", r, "config")) {
    return;
  }
  // Part 1: incremental-vs-rebuild update microbenchmark, one row per degree.
  const JsonValue* updates = doc.Find("update_cost");
  if (updates == nullptr || !updates->IsArray() || updates->AsArray().empty()) {
    Fail(r, "mutation: missing non-empty \"update_cost\" array");
    return;
  }
  for (size_t i = 0; i < updates->AsArray().size(); ++i) {
    const JsonValue& u = updates->AsArray()[i];
    std::string where = "update_cost[" + std::to_string(i) + "]";
    if (!u.IsObject()) {
      Fail(r, where + ": not an object");
      return;
    }
    for (const char* key : {"degree", "updates", "incremental_ns_per_update",
                            "rebuild_ns_per_update", "speedup"}) {
      if (!RequireNumber(u, key, r, where)) {
        return;
      }
    }
    if (u.Find("incremental_ns_per_update")->AsNumber() < 0 ||
        u.Find("rebuild_ns_per_update")->AsNumber() < 0) {
      Fail(r, where + ": negative timing");
      return;
    }
  }
  // Part 2: end-to-end walk workloads under churn (static baseline, churn,
  // and optionally churn + injected faults).
  const JsonValue* workloads = doc.Find("workloads");
  if (workloads == nullptr || !workloads->IsArray() || workloads->AsArray().empty()) {
    Fail(r, "mutation: missing non-empty \"workloads\" array");
    return;
  }
  for (size_t i = 0; i < workloads->AsArray().size(); ++i) {
    const JsonValue& w = workloads->AsArray()[i];
    std::string where = "workloads[" + std::to_string(i) + "]";
    if (!w.IsObject()) {
      Fail(r, where + ": not an object");
      return;
    }
    if (!RequireString(w, "name", r, where)) {
      return;
    }
    for (const char* key :
         {"walkers", "seconds", "walks_per_sec", "steps_per_sec", "steps", "mutation_batches",
          "mutations_applied", "mutations_rejected", "rows_materialized", "sampler_full_builds",
          "sampler_incremental_updates", "merges", "recoveries"}) {
      if (!RequireNumber(w, key, r, where)) {
        return;
      }
    }
    // Lazy-sampler and merge-attribution fields (post-format-shipped).
    if (!OptionalNumber(w, "sampler_bucket_builds", r, where) ||
        !OptionalNumber(w, "merge_micros", r, where)) {
      return;
    }
    if (w.Find("seconds")->AsNumber() < 0 || w.Find("walks_per_sec")->AsNumber() < 0) {
      Fail(r, where + ": negative timing");
      return;
    }
    if (w.Find("mutations_applied")->AsNumber() < 0 ||
        w.Find("mutations_rejected")->AsNumber() < 0) {
      Fail(r, where + ": negative mutation counters");
      return;
    }
  }
}

std::string FormatNumber(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

}  // namespace

CheckResult CheckDocument(const JsonValue& doc) {
  CheckResult r;
  r.ok = true;
  if (!doc.IsObject()) {
    Fail(&r, "document root is not an object");
    return r;
  }
  const JsonValue* version = doc.Find("schema_version");
  if (version == nullptr || !version->IsNumber() || version->AsNumber() != 1) {
    Fail(&r, "missing or unsupported \"schema_version\" (expected 1)");
    return r;
  }
  const JsonValue* kind = doc.Find("kind");
  const JsonValue* bench = doc.Find("bench");
  if (kind != nullptr && kind->IsString() && kind->AsString() == "kk-metrics-snapshot") {
    CheckSnapshot(doc, &r);
  } else if (bench != nullptr && bench->IsString() && bench->AsString() == "hotpath") {
    CheckHotpath(doc, &r);
  } else if (bench != nullptr && bench->IsString() && bench->AsString() == "service") {
    CheckService(doc, &r);
  } else if (bench != nullptr && bench->IsString() && bench->AsString() == "mutation") {
    CheckMutation(doc, &r);
  } else {
    Fail(&r, "unrecognized document: expected kind \"kk-metrics-snapshot\" or bench "
             "\"hotpath\" / \"service\" / \"mutation\"");
  }
  return r;
}

CheckResult CheckJsonText(std::string_view text) {
  JsonValue doc;
  std::string error;
  if (!JsonValue::Parse(text, &doc, &error)) {
    CheckResult r;
    r.error = "parse error: " + error;
    return r;
  }
  return CheckDocument(doc);
}

std::string Summarize(const JsonValue& doc) {
  CheckResult r = CheckDocument(doc);
  if (!r.ok) {
    return "error: " + r.error + "\n";
  }
  std::string out;
  if (r.kind == "kk-metrics-snapshot") {
    const auto& metrics = doc.Find("metrics")->AsArray();
    size_t stable = 0;
    for (const JsonValue& m : metrics) {
      if (m.Find("stable")->AsBool()) {
        ++stable;
      }
    }
    out += "kk-metrics-snapshot: " + std::to_string(metrics.size()) + " metrics (" +
           std::to_string(stable) + " stable)\n";
    for (const JsonValue& m : metrics) {
      out += "  " + m.Find("name")->AsString();
      const auto& labels = m.Find("labels")->AsObject();
      if (!labels.empty()) {
        out += "{";
        for (size_t i = 0; i < labels.size(); ++i) {
          out += (i == 0 ? "" : ",") + labels[i].first + "=" + labels[i].second.AsString();
        }
        out += "}";
      }
      out += " = " + FormatNumber(m.Find("value")->AsNumber());
      if (!m.Find("stable")->AsBool()) {
        out += "  (unstable)";
      }
      out += "\n";
    }
  } else if (r.kind == "service") {
    const JsonValue* results = doc.Find("results");
    out += "service bench: " + FormatNumber(results->Find("queries")->AsNumber()) +
           " queries, " + FormatNumber(results->Find("qps")->AsNumber()) + " qps\n";
    out += "  latency p50 " + FormatNumber(results->Find("p50_ms")->AsNumber()) +
           " ms, p99 " + FormatNumber(results->Find("p99_ms")->AsNumber()) + " ms, mean " +
           FormatNumber(results->Find("mean_ms")->AsNumber()) + " ms\n";
    out += "  cache hit rate " + FormatNumber(results->Find("cache_hit_rate")->AsNumber()) +
           ", stitched " + FormatNumber(results->Find("segments_stitched")->AsNumber()) +
           ", live walks " + FormatNumber(results->Find("live_walks")->AsNumber()) +
           ", rejected " + FormatNumber(results->Find("rejected")->AsNumber()) + "\n";
  } else if (r.kind == "mutation") {
    const auto& updates = doc.Find("update_cost")->AsArray();
    const auto& workloads = doc.Find("workloads")->AsArray();
    out += "mutation bench: " + std::to_string(updates.size()) + " update-cost rows, " +
           std::to_string(workloads.size()) + " workloads\n";
    for (const JsonValue& u : updates) {
      out += "  degree " + FormatNumber(u.Find("degree")->AsNumber()) + ": " +
             FormatNumber(u.Find("incremental_ns_per_update")->AsNumber()) +
             " ns/update incremental vs " +
             FormatNumber(u.Find("rebuild_ns_per_update")->AsNumber()) + " ns rebuild (" +
             FormatNumber(u.Find("speedup")->AsNumber()) + "x)\n";
    }
    for (const JsonValue& w : workloads) {
      out += "  " + w.Find("name")->AsString() + ": " +
             FormatNumber(w.Find("walks_per_sec")->AsNumber()) + " walks/s, " +
             FormatNumber(w.Find("mutations_applied")->AsNumber()) + " mutations applied, " +
             FormatNumber(w.Find("merges")->AsNumber()) + " merges, " +
             FormatNumber(w.Find("recoveries")->AsNumber()) + " recoveries\n";
    }
  } else {
    const auto& workloads = doc.Find("workloads")->AsArray();
    out += "hotpath bench: " + std::to_string(workloads.size()) + " workloads\n";
    for (const JsonValue& w : workloads) {
      out += "  " + w.Find("name")->AsString() + ": " +
             FormatNumber(w.Find("steps_per_sec")->AsNumber()) + " steps/s, " +
             FormatNumber(w.Find("walks_per_sec")->AsNumber()) + " walks/s over " +
             FormatNumber(w.Find("seconds")->AsNumber()) + "s (" +
             FormatNumber(w.Find("iterations")->AsNumber()) + " iterations)\n";
    }
  }
  return out;
}

namespace {

// Flattens every numeric leaf of a document into "path -> value". Array
// elements are keyed by their "name" (workloads) or "degree" (update_cost
// rows) so rows pair up across documents even if ordering changes; metrics
// snapshot entries additionally fold their labels into the path.
void FlattenNumericLeaves(const JsonValue& v, const std::string& prefix,
                          std::vector<std::pair<std::string, double>>* out) {
  if (v.IsNumber()) {
    out->emplace_back(prefix, v.AsNumber());
    return;
  }
  if (v.IsObject()) {
    for (const auto& [key, child] : v.AsObject()) {
      FlattenNumericLeaves(child, prefix.empty() ? key : prefix + "." + key, out);
    }
    return;
  }
  if (v.IsArray()) {
    const auto& arr = v.AsArray();
    for (size_t i = 0; i < arr.size(); ++i) {
      std::string seg;
      if (arr[i].IsObject()) {
        const JsonValue* name = arr[i].Find("name");
        if (name != nullptr && name->IsString()) {
          seg = name->AsString();
          const JsonValue* labels = arr[i].Find("labels");
          if (labels != nullptr && labels->IsObject() && !labels->AsObject().empty()) {
            seg += "{";
            const auto& obj = labels->AsObject();
            for (size_t j = 0; j < obj.size(); ++j) {
              seg += (j == 0 ? "" : ",") + obj[j].first + "=" + obj[j].second.AsString();
            }
            seg += "}";
          }
        } else {
          const JsonValue* degree = arr[i].Find("degree");
          if (degree != nullptr && degree->IsNumber()) {
            seg = "degree_" + FormatNumber(degree->AsNumber());
          }
        }
      }
      if (seg.empty()) {
        seg = std::to_string(i);
      }
      FlattenNumericLeaves(arr[i], prefix.empty() ? seg : prefix + "." + seg, out);
    }
  }
}

std::string FormatDelta(double old_v, double new_v) {
  double delta = new_v - old_v;
  std::string out = (delta >= 0 ? "+" : "") + FormatNumber(delta);
  if (old_v != 0) {
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%+.1f%%", 100.0 * delta / old_v);
    out += " (";
    out += pct;
    out += ")";
  }
  return out;
}

}  // namespace

std::string DiffDocuments(const JsonValue& old_doc, const JsonValue& new_doc) {
  CheckResult old_r = CheckDocument(old_doc);
  if (!old_r.ok) {
    return "error: baseline document invalid: " + old_r.error + "\n";
  }
  CheckResult new_r = CheckDocument(new_doc);
  if (!new_r.ok) {
    return "error: new document invalid: " + new_r.error + "\n";
  }
  if (old_r.kind != new_r.kind) {
    return "error: kind mismatch: baseline is \"" + old_r.kind + "\", new is \"" + new_r.kind +
           "\"\n";
  }
  std::vector<std::pair<std::string, double>> old_flat;
  std::vector<std::pair<std::string, double>> new_flat;
  FlattenNumericLeaves(old_doc, "", &old_flat);
  FlattenNumericLeaves(new_doc, "", &new_flat);
  // Index each side by path once — the pairing below is then O(n) instead of
  // the O(n²) linear rescans per row. First occurrence wins, matching the
  // old scans' behavior on (ill-formed) duplicate paths.
  std::unordered_map<std::string_view, double> old_by_path;
  old_by_path.reserve(old_flat.size());
  for (const auto& [path, v] : old_flat) {
    old_by_path.emplace(path, v);
  }
  std::unordered_set<std::string_view> new_paths;
  new_paths.reserve(new_flat.size());
  for (const auto& [path, v] : new_flat) {
    new_paths.insert(path);
  }

  std::string out;
  out += "### " + new_r.kind + " diff\n\n";
  out += "| metric | baseline | new | delta |\n";
  out += "| --- | ---: | ---: | ---: |\n";
  // Iterate in new-document order so the table reads like the fresh report;
  // baseline-only metrics trail at the end as removals.
  for (const auto& [path, new_v] : new_flat) {
    auto it = old_by_path.find(path);
    if (it == old_by_path.end()) {
      out += "| " + path + " | — | " + FormatNumber(new_v) + " | added |\n";
    } else if (it->second == new_v) {
      out += "| " + path + " | " + FormatNumber(it->second) + " | " + FormatNumber(new_v) +
             " | — |\n";
    } else {
      out += "| " + path + " | " + FormatNumber(it->second) + " | " + FormatNumber(new_v) +
             " | " + FormatDelta(it->second, new_v) + " |\n";
    }
  }
  for (const auto& [path, old_v] : old_flat) {
    if (new_paths.find(path) == new_paths.end()) {
      out += "| " + path + " | " + FormatNumber(old_v) + " | — | removed |\n";
    }
  }
  return out;
}

std::string GateRatio(const JsonValue& old_doc, const JsonValue& new_doc,
                      const std::string& num_path, const std::string& den_path,
                      double floor) {
  CheckResult old_r = CheckDocument(old_doc);
  if (!old_r.ok) {
    return "error: baseline document invalid: " + old_r.error + "\n";
  }
  CheckResult new_r = CheckDocument(new_doc);
  if (!new_r.ok) {
    return "error: new document invalid: " + new_r.error + "\n";
  }
  std::vector<std::pair<std::string, double>> old_flat;
  std::vector<std::pair<std::string, double>> new_flat;
  FlattenNumericLeaves(old_doc, "", &old_flat);
  FlattenNumericLeaves(new_doc, "", &new_flat);
  auto lookup = [](const std::vector<std::pair<std::string, double>>& flat,
                   const std::string& path, const char* which) {
    for (const auto& [p, v] : flat) {
      if (p == path) {
        return std::make_pair(v, std::string());
      }
    }
    return std::make_pair(0.0, "error: " + std::string(which) + " document has no metric \"" +
                                   path + "\"\n");
  };
  double values[4];
  size_t i = 0;
  for (const auto& [doc_flat, which] :
       {std::make_pair(&old_flat, "baseline"), std::make_pair(&new_flat, "new")}) {
    for (const std::string& path : {num_path, den_path}) {
      auto [v, err] = lookup(*doc_flat, path, which);
      if (!err.empty()) {
        return err;
      }
      if (v <= 0.0) {
        return "error: metric \"" + path + "\" in " + which +
               " document is not positive (" + FormatNumber(v) + ")\n";
      }
      values[i++] = v;
    }
  }
  const double baseline_ratio = values[0] / values[1];
  const double new_ratio = values[2] / values[3];
  const double relative = new_ratio / baseline_ratio;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s / %s: baseline ratio %.4f, new ratio %.4f (%.2fx, floor %.2fx)\n",
                num_path.c_str(), den_path.c_str(), baseline_ratio, new_ratio, relative,
                floor);
  if (relative < floor) {
    return "error: ratio regression: " + std::string(line);
  }
  return line;
}

}  // namespace metrics
}  // namespace knightking
