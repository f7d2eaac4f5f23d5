#include "tools/kk-lint/lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

namespace kklint {

namespace {

const std::vector<RuleInfo> kRules = {
    {"KK001", "ambient-randomness", "ambient-randomness-ok",
     "everywhere except src/util/rng.h",
     "derive randomness from Rng/CounterRng seeded via Rng::SeedStream; never "
     "std::rand, std::random_device, mt19937, or wall-clock seeds"},
    {"KK002", "raw-seed", "raw-seed-ok", "src/engine/, src/apps/",
     "seed engine RNGs with Rng::SeedStream(master, stream) counter blocks, "
     "not raw integer literals"},
    {"KK003", "unordered-iteration", "nondeterministic-order-ok",
     "src/engine/, src/apps/, src/testing/, src/obs/",
     "iterate a sorted copy, use an ordered container, or waive with a "
     "justification if downstream order is canonicalized"},
    {"KK004", "sampling-narrowing", "narrow-ok", "src/sampling/",
     "keep transition-probability math in double; narrow to real_t/float "
     "only at storage boundaries, with a comment"},
    {"KK005", "unchecked-read", "unchecked-read-ok",
     "src/engine/ deserialization functions (Read*/Deserialize*/Decode*/Parse*/Unpack*)",
     "bounds-guard raw indexing and size-driven resize/reserve with KK_CHECK, "
     "or validate declared sizes against the input first "
     "(BinaryFileReader::CanConsume)"},
    {"KK006", "ambient-time", "ambient-time-ok",
     "src/ except src/util/timer.h, src/obs/, src/testing/",
     "route wall-clock reads through Timer (src/util/timer.h) or the "
     "observability layer; ambient clocks in engine logic leak scheduling "
     "into results"},
    {"KK007", "raw-mutex", "raw-mutex-ok", "src/ except src/util/mutex.h",
     "use knightking::Mutex/MutexLock/CondVar (src/util/mutex.h); raw std "
     "primitives are invisible to the clang thread-safety analysis"},
    {"KK008", "nondet-fp-reduction", "nondeterministic-reduction-ok",
     "ParallelOver/ParallelFor/ParallelFill lambda bodies in src/",
     "accumulate floating-point per-worker (or per-node under a lock) and "
     "merge in a canonical order; += on a shared double inside a parallel "
     "body reorders rounding with the schedule"},
    {"KK009", "unchecked-writer", "unchecked-write-ok",
     "src/ functions that construct a BinaryFileWriter",
     "check the writer's Close() result and publish via "
     "CommitFile(tmp, final) so a failed or interrupted write never leaves a "
     "truncated file at the final path"},
    {"KK010", "raw-thread", "raw-thread-ok",
     "src/ except src/util/thread_pool.*, src/testing/",
     "run parallel work on the engine's ThreadPool; raw std::thread (and "
     "detach) escapes the pool's lifecycle, determinism, and shutdown "
     "guarantees"},
    {"KK011", "cache-geometry-literal", "cache-geometry-ok",
     "src/ except src/util/cache_geometry.h",
     "derive bucket counts, batch thresholds, prefetch distances, and cache "
     "sizes from src/util/cache_geometry.h constants or CacheGeometry::Detect; "
     "hardcoded cache-shaped literals silently mistune on other hardware"},
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Blanks comments, string literals, and char literals while preserving the
// line structure, so token rules cannot fire inside them. Raw lines are kept
// for waiver detection.
std::vector<std::string> StripCommentsAndStrings(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  bool in_block_comment = false;
  for (const std::string& line : raw) {
    std::string code;
    code.reserve(line.size());
    for (size_t i = 0; i < line.size();) {
      if (in_block_comment) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block_comment = false;
          i += 2;
        } else {
          ++i;
        }
        continue;
      }
      char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        break;  // rest of line is a comment
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == '"' || c == '\'') {
        char quote = c;
        code.push_back(quote);
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\' && i + 1 < line.size()) {
            i += 2;
            continue;
          }
          if (line[i] == quote) {
            ++i;
            break;
          }
          ++i;
        }
        code.push_back(quote);
        continue;
      }
      code.push_back(c);
      ++i;
    }
    out.push_back(std::move(code));
  }
  return out;
}

// Checks emit unconditionally; waivers are applied by LintContentFull after
// every check has run (the split powers unused-waiver reporting).
void Emit(std::vector<Finding>* findings, const char* rule, const std::string& path,
          size_t line0, std::string message, const char* tag) {
  findings->push_back(Finding{rule, path, line0 + 1, std::move(message), tag});
}

// ---------------------------------------------------------------------------
// KK001: ambient randomness / wall-clock seeding.
// ---------------------------------------------------------------------------
void CheckAmbientRandomness(const std::string& path, const std::vector<std::string>& code,
                            std::vector<Finding>* findings) {
  if (path == "src/util/rng.h") {
    return;  // the one place allowed to define the primitives
  }
  static const std::regex kBanned(
      R"((std\s*::\s*|\b)(rand|srand|drand48|lrand48|random_device|mt19937(_64)?|minstd_rand0?|default_random_engine|knuth_b|ranlux(24|48)(_base)?)\b)");
  static const std::regex kWallClockSeed(R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\)|\bgettimeofday\b)");
  for (size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(code[i], m, kBanned)) {
      Emit(findings, "KK001", path, i,
           "ambient randomness source '" + m.str(0) +
               "'; all engine randomness must flow from src/util/rng.h streams",
           "ambient-randomness-ok");
      continue;
    }
    if (std::regex_search(code[i], m, kWallClockSeed)) {
      Emit(findings, "KK001", path, i,
           "wall-clock value '" + m.str(0) +
               "' (non-reproducible seed material); use an explicit seed",
           "ambient-randomness-ok");
    }
  }
}

// ---------------------------------------------------------------------------
// KK002: Rng construction/seeding from raw integer literals in engine code.
// ---------------------------------------------------------------------------
void CheckRawSeed(const std::string& path, const std::vector<std::string>& code,
                  std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/engine/") && !StartsWith(path, "src/apps/")) {
    return;
  }
  // `Rng r(7)`, `Rng r{7}`, `Rng(0xBEEF)` temporaries, and `.Seed(7)`.
  static const std::regex kRawCtor(
      R"(\bRng\s+\w+\s*[({]\s*(0[xX][0-9a-fA-F']+|[0-9][0-9']*)\s*[)}])");
  static const std::regex kRawTemp(R"(\bRng\s*[({]\s*(0[xX][0-9a-fA-F']+|[0-9][0-9']*)\s*[)}])");
  static const std::regex kRawSeedCall(R"(\.Seed\s*\(\s*(0[xX][0-9a-fA-F']+|[0-9][0-9']*)\s*\))");
  for (size_t i = 0; i < code.size(); ++i) {
    if (std::regex_search(code[i], kRawCtor) || std::regex_search(code[i], kRawTemp) ||
        std::regex_search(code[i], kRawSeedCall)) {
      Emit(findings, "KK002", path, i,
           "Rng seeded from a raw literal; walker/worker streams must come from "
           "Rng::SeedStream counter blocks",
           "raw-seed-ok");
    }
  }
}

// ---------------------------------------------------------------------------
// KK003: iteration over unordered containers on deterministic paths.
// ---------------------------------------------------------------------------

// Identifier immediately before `pos` in `s` (the tail of a possibly
// qualified expression like node.pending or state->in_flight).
std::string TailIdentifierBefore(const std::string& s, size_t pos) {
  size_t end = pos;
  while (end > 0 && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  size_t begin = end;
  while (begin > 0 && (std::isalnum(static_cast<unsigned char>(s[begin - 1])) ||
                       s[begin - 1] == '_')) {
    --begin;
  }
  return s.substr(begin, end - begin);
}

// Every identifier declared (or returned) with an unordered container type
// in `code` (comment- and string-stripped lines), added to *names.
void CollectUnorderedNames(const std::vector<std::string>& code, std::set<std::string>* names) {
  static const std::regex kDecl(R"(\bunordered_(?:map|set|multimap|multiset)\s*<)");
  for (const std::string& line : code) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      // Walk the template argument list to its matching '>'.
      size_t pos = static_cast<size_t>(it->position(0) + it->length(0));
      int depth = 1;
      while (pos < line.size() && depth > 0) {
        if (line[pos] == '<') {
          ++depth;
        } else if (line[pos] == '>') {
          --depth;
        }
        ++pos;
      }
      if (depth != 0) {
        continue;  // declaration spans lines; the loop checks below still
                   // catch iteration over well-known member names
      }
      static const std::regex kName(R"(^\s*&?\s*([A-Za-z_]\w*))");
      std::string rest = line.substr(pos);
      std::smatch m;
      if (std::regex_search(rest, m, kName)) {
        names->insert(m.str(1));
      }
    }
  }
}

// `tree_names` are the unordered names declared anywhere in the linted
// tree, so a loop over a member declared in another header is still seen.
void CheckUnorderedIteration(const std::string& path, const std::vector<std::string>& code,
                             const std::set<std::string>& tree_names,
                             std::vector<Finding>* findings) {
  // src/obs/ is in scope: snapshot export promises canonical ordering, so an
  // unordered-container walk there is exactly the bug the rule exists for.
  if (!StartsWith(path, "src/engine/") && !StartsWith(path, "src/apps/") &&
      !StartsWith(path, "src/testing/") && !StartsWith(path, "src/obs/")) {
    return;
  }
  // Pass 1: the file's own unordered names plus the tree's.
  std::set<std::string> unordered_names = tree_names;
  CollectUnorderedNames(code, &unordered_names);
  if (unordered_names.empty()) {
    return;
  }
  // Pass 2: range-for over, or iterator loops beginning at, those names.
  static const std::regex kRangeFor(R"(\bfor\s*\([^;:]*:\s*([^)]+)\))");
  static const std::regex kBeginLoop(R"(\bfor\s*\([^;]*=\s*([\w.\->]+)\s*\.\s*c?begin\s*\()");
  for (size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    std::smatch m;
    std::string container;
    if (std::regex_search(line, m, kRangeFor)) {
      std::string expr = m.str(1);
      container = TailIdentifierBefore(expr, expr.size());
    } else if (std::regex_search(line, m, kBeginLoop)) {
      std::string expr = m.str(1);
      container = TailIdentifierBefore(expr, expr.size());
    }
    if (container.empty() || unordered_names.find(container) == unordered_names.end()) {
      continue;
    }
    Emit(findings, "KK003", path, i,
         "iteration over unordered container '" + container +
             "' on a deterministic path; order depends on hashing/layout",
         "nondeterministic-order-ok");
  }
}

// ---------------------------------------------------------------------------
// KK004: double -> float / integer truncation in sampling probability math.
// ---------------------------------------------------------------------------

// True when `expr` looks like floating-point valued: a floating literal, a
// double-named identifier, or an Rng double draw.
bool LooksFloating(const std::string& expr) {
  static const std::regex kFloaty(
      R"(\d\.\d|\bdouble\b|\breal_t\b|\bfloat\b|NextDouble|TotalWeight|total_weight)");
  return std::regex_search(expr, kFloaty);
}

void CheckSamplingNarrowing(const std::string& path, const std::vector<std::string>& code,
                            std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/sampling/")) {
    return;
  }
  static const std::regex kFloatCast(
      R"(static_cast\s*<\s*(?:float|real_t)\s*>|\(\s*(?:float|real_t)\s*\)\s*[\w(])");
  static const std::regex kIntCast(
      R"(static_cast\s*<\s*(?:u?int(?:8|16|32|64)?_?t?|long|size_t|unsigned|vertex_id_t|edge_index_t|walker_id_t)\s*>\s*\()");
  for (size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    std::smatch m;
    if (std::regex_search(line, m, kFloatCast)) {
      Emit(findings, "KK004", path, i,
           "narrowing to float/real_t in sampling code; transition-probability "
           "math must stay in double until a storage boundary",
           "narrow-ok");
      continue;
    }
    if (std::regex_search(line, m, kIntCast)) {
      // Only flag when the cast argument is plausibly floating-valued;
      // index/iterator narrowing is KK-legal here.
      size_t open = static_cast<size_t>(m.position(0) + m.length(0)) - 1;
      int depth = 0;
      size_t end = open;
      while (end < line.size()) {
        if (line[end] == '(') {
          ++depth;
        } else if (line[end] == ')') {
          if (--depth == 0) {
            break;
          }
        }
        ++end;
      }
      std::string arg = line.substr(open + 1, end > open ? end - open - 1 : 0);
      if (LooksFloating(arg)) {
        Emit(findings, "KK004", path, i,
             "float-to-integer truncation in sampling code; round explicitly or "
             "waive with a comment if the truncation is the algorithm",
             "narrow-ok");
      }
    }
  }
}

// Finds the brace-delimited body starting at the first '{' at or after line
// `i`, returning [body_begin, body_end] line indices (inclusive). Used by
// the function/lambda-scoped checks below.
void FindBraceBody(const std::vector<std::string>& code, size_t i, size_t* body_begin,
                   size_t* body_end) {
  int depth = 0;
  bool entered = false;
  size_t j = i;
  *body_begin = i;
  for (; j < code.size(); ++j) {
    for (char c : code[j]) {
      if (c == '{') {
        if (!entered) {
          entered = true;
          *body_begin = j;
        }
        ++depth;
      } else if (c == '}') {
        --depth;
      }
    }
    if (entered && depth == 0) {
      break;
    }
  }
  *body_end = j < code.size() ? j : code.size() - 1;
}

// ---------------------------------------------------------------------------
// KK005: unchecked raw indexing or size-driven allocation in deserialization
// code.
// ---------------------------------------------------------------------------
void CheckUncheckedRead(const std::string& path, const std::vector<std::string>& code,
                        std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/engine/")) {
    return;
  }
  static const std::regex kDeserialFn(
      R"(\b(?:Read|Deserialize|Decode|Parse|Unpack)\w*\s*\([^;]*$|\b(?:Read|Deserialize|Decode|Parse|Unpack)\w*\s*\(.*\)\s*(?:const\s*)?\{)");
  static const std::regex kSubscript(R"(([A-Za-z_][\w.\->]*)\s*\[\s*([^\]]+)\])");
  static const std::regex kSizedAlloc(R"((?:\.|->)\s*(resize|reserve)\s*\(\s*([^)]*)\))");
  static const std::regex kLiteralIndex(R"(^\s*\d+\s*$)");

  size_t i = 0;
  while (i < code.size()) {
    if (!std::regex_search(code[i], kDeserialFn)) {
      ++i;
      continue;
    }
    size_t body_begin = 0;
    size_t body_end = 0;
    FindBraceBody(code, i, &body_begin, &body_end);
    // A body that validates — explicitly via KK_CHECK/KK_DCHECK, or through
    // the hardened-reader idiom (BinaryFileReader's declared counts are
    // checked against the remaining input before any allocation) — is
    // considered guarded.
    bool has_check = false;
    for (size_t k = body_begin; k <= body_end; ++k) {
      if (code[k].find("KK_CHECK") != std::string::npos ||
          code[k].find("KK_DCHECK") != std::string::npos ||
          code[k].find("CanConsume") != std::string::npos ||
          code[k].find("BinaryFileReader") != std::string::npos) {
        has_check = true;
        break;
      }
    }
    if (!has_check) {
      for (size_t k = body_begin; k <= body_end; ++k) {
        auto begin = std::sregex_iterator(code[k].begin(), code[k].end(), kSubscript);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
          std::string index = it->str(2);
          if (std::regex_match(index, kLiteralIndex)) {
            continue;  // fixed-offset field reads are fine
          }
          Emit(findings, "KK005", path, k,
               "raw variable-index read '" + it->str(0) +
                   "' in a deserialization function with no KK_CHECK bounds guard",
               "unchecked-read-ok");
        }
        // Sizing a container from an unvalidated wire value is the
        // allocation-blowup twin of the unchecked read: a corrupt count
        // becomes a multi-GB resize before the payload read even fails.
        auto alloc_begin =
            std::sregex_iterator(code[k].begin(), code[k].end(), kSizedAlloc);
        for (auto it = alloc_begin; it != std::sregex_iterator(); ++it) {
          std::string arg = it->str(2);
          if (std::regex_match(arg, kLiteralIndex) || arg.empty()) {
            continue;  // fixed-size scratch is fine
          }
          Emit(findings, "KK005", path, k,
               "container " + it->str(1) + "('" + arg +
                   "') sized from an unvalidated value in a deserialization "
                   "function; validate against the input size first",
               "unchecked-read-ok");
        }
      }
    }
    i = body_end + 1;
  }
}

// ---------------------------------------------------------------------------
// KK006: ambient wall-clock reads in engine logic.
// ---------------------------------------------------------------------------
void CheckAmbientTime(const std::string& path, const std::vector<std::string>& code,
                      std::vector<Finding>* findings) {
  // Timer owns the clock; observability and test harnesses measure by
  // design. Everywhere else in src/, a clock read is scheduling leaking into
  // engine state — the deterministic-simulation harness cannot replay it.
  if (!StartsWith(path, "src/") || path == "src/util/timer.h" ||
      StartsWith(path, "src/obs/") || StartsWith(path, "src/testing/")) {
    return;
  }
  static const std::regex kClock(
      R"(\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b|\bclock_gettime\b|\bgettimeofday\b|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\))");
  for (size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(code[i], m, kClock)) {
      Emit(findings, "KK006", path, i,
           "ambient clock read '" + m.str(0) +
               "'; measure through Timer or the observability layer so engine "
               "logic never branches on wall-clock state",
           "ambient-time-ok");
    }
  }
}

// ---------------------------------------------------------------------------
// KK007: raw std synchronization primitives outside the annotated wrapper.
// ---------------------------------------------------------------------------
void CheckRawMutex(const std::string& path, const std::vector<std::string>& code,
                   std::vector<Finding>* findings) {
  // src/util/mutex.h is the annotated wrapper's home and the one file
  // allowed to name the std primitives it wraps.
  if (!StartsWith(path, "src/") || path == "src/util/mutex.h") {
    return;
  }
  static const std::regex kRawSync(
      R"(\bstd\s*::\s*(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|shared_lock)\b)");
  for (size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(code[i], m, kRawSync)) {
      Emit(findings, "KK007", path, i,
           "raw '" + m.str(0) +
               "'; use knightking::Mutex/MutexLock/CondVar so the clang "
               "thread-safety analysis can see the lock",
           "raw-mutex-ok");
    }
  }
}

// ---------------------------------------------------------------------------
// KK008: floating-point reduction into shared state inside parallel bodies.
// ---------------------------------------------------------------------------
void CheckNondetFpReduction(const std::string& path, const std::vector<std::string>& code,
                            std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/")) {
    return;
  }
  static const std::regex kParCall(R"(\b(?:ParallelOver|ParallelFor|ParallelFill)\s*\()");
  static const std::regex kFpDecl(R"(\b(?:double|float|real_t)\s+([A-Za-z_]\w*)\b)");
  static const std::regex kCompound(R"(([A-Za-z_][\w.\->\[\]]*)\s*[+\-]=(?!=))");
  static const std::regex kFloatyLine(
      R"(\d\.\d|\bdouble\b|\bfloat\b|\breal_t\b|NextDouble|seconds|weight|prob|score)");

  // File-wide floating-typed identifiers (members, captures, parameters).
  std::set<std::string> fp_names;
  for (const std::string& line : code) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kFpDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      fp_names.insert(it->str(1));
    }
  }

  size_t i = 0;
  while (i < code.size()) {
    if (!std::regex_search(code[i], kParCall)) {
      ++i;
      continue;
    }
    size_t body_begin = 0;
    size_t body_end = 0;
    FindBraceBody(code, i, &body_begin, &body_end);
    // FP accumulators declared inside the body are per-invocation state:
    // each chunk sums its own copy deterministically. Only reductions into
    // state that outlives the lambda reorder rounding with the schedule.
    std::set<std::string> local_fp;
    for (size_t k = body_begin; k <= body_end; ++k) {
      auto begin = std::sregex_iterator(code[k].begin(), code[k].end(), kFpDecl);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        local_fp.insert(it->str(1));
      }
    }
    for (size_t k = body_begin; k <= body_end; ++k) {
      auto begin = std::sregex_iterator(code[k].begin(), code[k].end(), kCompound);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        std::string target = it->str(1);
        std::string tail = TailIdentifierBefore(target, target.size());
        if (local_fp.count(tail) != 0) {
          continue;  // per-chunk accumulator, deterministic
        }
        bool floating = fp_names.count(tail) != 0 ||
                        std::regex_search(code[k], kFloatyLine);
        if (!floating) {
          continue;  // integer counters commute exactly
        }
        Emit(findings, "KK008", path, k,
             "floating-point reduction '" + it->str(0) +
                 "' into shared state inside a parallel body; summation order "
                 "follows the schedule, so results drift across runs",
             "nondeterministic-reduction-ok");
      }
    }
    i = body_end + 1;
  }
}

// ---------------------------------------------------------------------------
// KK009: BinaryFileWriter published without a checked Close + CommitFile.
// ---------------------------------------------------------------------------
void CheckUncheckedWriter(const std::string& path, const std::vector<std::string>& code,
                          std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/")) {
    return;
  }
  // Construction by value only — `BinaryFileWriter& w` parameters are
  // helpers writing into someone else's transaction.
  static const std::regex kCtor(R"(\bBinaryFileWriter\s+([A-Za-z_]\w*)\s*[({])");
  static const std::regex kCheckyClose(R"([=!]|\breturn\b|\bif\b|KK_CHECK|&&|\|\|)");
  for (size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(code[i], m, kCtor)) {
      continue;
    }
    std::string name = m.str(1);
    // Scan to the end of the enclosing scope: the first point where brace
    // depth drops below the construction line's level.
    bool checked_close = false;
    bool committed = false;
    int depth = 0;
    size_t scope_end = code.size();
    for (size_t j = i; j < code.size() && depth >= 0; ++j) {
      for (char c : code[j]) {
        if (c == '{') {
          ++depth;
        } else if (c == '}') {
          --depth;
        }
      }
      if (code[j].find(name + ".Close") != std::string::npos &&
          std::regex_search(code[j], kCheckyClose)) {
        checked_close = true;
      }
      if (code[j].find("CommitFile") != std::string::npos) {
        committed = true;
      }
      if (depth < 0) {
        scope_end = j;
        break;
      }
    }
    // The canonical idiom closes the writer in a nested block (so its
    // destructor runs before the rename) and commits just outside it — give
    // CommitFile a short leash past the scope end to recognize that.
    for (size_t j = scope_end + 1; !committed && j < code.size() && j <= scope_end + 10;
         ++j) {
      for (char c : code[j]) {
        if (c == '{') {
          ++depth;
        } else if (c == '}') {
          --depth;
        }
      }
      if (depth < -2) {
        break;
      }
      if (code[j].find("CommitFile") != std::string::npos) {
        committed = true;
      }
    }
    if (!checked_close || !committed) {
      std::string missing =
          !checked_close && !committed
              ? "Close() result is unchecked and the file is never CommitFile'd"
          : !checked_close ? "Close() result is unchecked"
                           : "the file is never CommitFile'd";
      Emit(findings, "KK009", path, i,
           "BinaryFileWriter '" + name + "': " + missing +
               "; write to <path>.tmp, check Close(), then CommitFile(tmp, path)",
           "unchecked-write-ok");
    }
  }
}

// ---------------------------------------------------------------------------
// KK010: raw std::thread outside the pool and the test harness.
// ---------------------------------------------------------------------------
void CheckRawThread(const std::string& path, const std::vector<std::string>& code,
                    std::vector<Finding>* findings) {
  // ThreadPool owns worker lifecycles; the deterministic-simulation harness
  // (src/testing/) spawns scenario threads by design.
  if (!StartsWith(path, "src/") || StartsWith(path, "src/util/thread_pool") ||
      StartsWith(path, "src/testing/")) {
    return;
  }
  static const std::regex kThread(R"(\bstd\s*::\s*j?thread\b|\.detach\s*\(\s*\))");
  for (size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(code[i], m, kThread)) {
      Emit(findings, "KK010", path, i,
           "raw thread use '" + m.str(0) +
               "'; parallel work belongs on ThreadPool (detached threads also "
               "break clean shutdown and checkpoint quiescence)",
           "raw-thread-ok");
    }
  }
}

// ---------------------------------------------------------------------------
// KK011: hardcoded cache-geometry literals outside the sanctioned header.
// ---------------------------------------------------------------------------
void CheckCacheGeometryLiteral(const std::string& path, const std::vector<std::string>& code,
                               std::vector<Finding>* findings) {
  // cache_geometry.h is the single home for cache-flavored magic numbers;
  // everything else under src/ must consume its named constants.
  if (!StartsWith(path, "src/") || path == "src/util/cache_geometry.h") {
    return;
  }
  // A cache-flavored identifier (bucket / interleave / prefetch-distance /
  // cache-line / cache-size naming) initialized or assigned from a bare
  // integer literal. 0 and 1 are neutral ("off" / "single"), anything larger
  // is a tuning decision that belongs in cache_geometry.h.
  static const std::regex kCacheLiteral(
      R"rx(\b(\w*(?:[Bb]ucket|[Ii]nterleave|[Pp]refetch_?[Dd]ist|[Cc]ache_?[Ll]ine|[Cc]ache_?[Ss]ize|[Ll]lc|[Ll]1d?_bytes|[Ll]2_bytes)\w*)\s*(?:=|\{|\()\s*([0-9]+)\b)rx");
  for (size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(code[i], m, kCacheLiteral)) {
      unsigned long long value = std::stoull(m.str(2));
      if (value <= 1) {
        continue;
      }
      Emit(findings, "KK011", path, i,
           "cache-geometry literal '" + m.str(1) + " = " + m.str(2) +
               "'; size it from src/util/cache_geometry.h (named constant or "
               "CacheGeometry::Detect) so tuning stays in one reviewable place",
           "cache-geometry-ok");
    }
  }
}

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

bool ReadFile(const std::string& abs_path, std::string* content, std::string* error) {
  std::ifstream in(abs_path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + abs_path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *content = buf.str();
  return true;
}

}  // namespace

const std::vector<RuleInfo>& Rules() { return kRules; }

void AddUnorderedNames(const std::string& content, std::set<std::string>* names) {
  CollectUnorderedNames(StripCommentsAndStrings(SplitLines(content)), names);
}

bool AddUnorderedNamesFromFile(const std::string& abs_path, std::set<std::string>* names,
                               std::string* error) {
  std::string content;
  if (!ReadFile(abs_path, &content, error)) {
    return false;
  }
  AddUnorderedNames(content, names);
  return true;
}

FileLint LintContentFull(const std::string& rel_path, const std::string& content,
                         const std::set<std::string>& unordered_names) {
  std::vector<std::string> raw = SplitLines(content);
  std::vector<std::string> code = StripCommentsAndStrings(raw);
  std::vector<Finding> emitted;
  CheckAmbientRandomness(rel_path, code, &emitted);
  CheckRawSeed(rel_path, code, &emitted);
  CheckUnorderedIteration(rel_path, code, unordered_names, &emitted);
  CheckSamplingNarrowing(rel_path, code, &emitted);
  CheckUncheckedRead(rel_path, code, &emitted);
  CheckAmbientTime(rel_path, code, &emitted);
  CheckRawMutex(rel_path, code, &emitted);
  CheckNondetFpReduction(rel_path, code, &emitted);
  CheckUncheckedWriter(rel_path, code, &emitted);
  CheckRawThread(rel_path, code, &emitted);
  CheckCacheGeometryLiteral(rel_path, code, &emitted);

  // Central waiver pass. A `// kk-lint: <tag>` comment on line w silences
  // findings with that tag on w and w+1, and counts as used exactly when it
  // silenced at least one. Only catalog tags participate: other kk-lint:
  // mentions (prose, docs) are neither waivers nor stale.
  std::set<std::string> known_tags;
  for (const RuleInfo& r : kRules) {
    known_tags.insert(r.waiver_tag);
  }
  static const std::regex kWaiverComment(R"(kk-lint:\s*([A-Za-z0-9-]+))");
  struct WaiverSite {
    size_t line0;
    std::string tag;
    bool used = false;
  };
  std::vector<WaiverSite> sites;
  for (size_t i = 0; i < raw.size(); ++i) {
    auto begin = std::sregex_iterator(raw[i].begin(), raw[i].end(), kWaiverComment);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      if (known_tags.count(it->str(1)) != 0) {
        sites.push_back(WaiverSite{i, it->str(1)});
      }
    }
  }

  FileLint out;
  for (Finding& f : emitted) {
    size_t line0 = f.line - 1;
    bool waived = false;
    for (WaiverSite& s : sites) {
      if (s.tag == f.waiver && (s.line0 == line0 || s.line0 + 1 == line0)) {
        s.used = true;
        waived = true;
      }
    }
    if (!waived) {
      out.findings.push_back(std::move(f));
    }
  }
  // Staleness is only reported under src/ — that is where the gated rules
  // (and every real waiver) live. Outside it, tag text is routinely *about*
  // waivers (the rule catalog doc, lint-test fixture strings) rather than a
  // suppression, and flagging those as stale would gate on prose.
  if (StartsWith(rel_path, "src/")) {
    for (const WaiverSite& s : sites) {
      if (!s.used) {
        out.unused_waivers.push_back(UnusedWaiver{s.tag, rel_path, s.line0 + 1});
      }
    }
  }
  std::stable_sort(out.findings.begin(), out.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line != b.line ? a.line < b.line : a.rule < b.rule;
                   });
  return out;
}

std::vector<Finding> LintContent(const std::string& rel_path, const std::string& content) {
  return LintContentFull(rel_path, content).findings;
}

bool LintFile(const std::string& abs_path, const std::string& rel_path, FileLint* out,
              std::string* error, const std::set<std::string>& unordered_names) {
  std::string content;
  if (!ReadFile(abs_path, &content, error)) {
    return false;
  }
  FileLint file = LintContentFull(rel_path, content, unordered_names);
  out->findings.insert(out->findings.end(), file.findings.begin(), file.findings.end());
  out->unused_waivers.insert(out->unused_waivers.end(), file.unused_waivers.begin(),
                             file.unused_waivers.end());
  return true;
}

std::vector<std::string> ParseCompileCommands(const std::string& json) {
  std::vector<std::string> files;
  static const std::regex kFileEntry(R"rx("file"\s*:\s*"([^"]+)")rx");
  auto begin = std::sregex_iterator(json.begin(), json.end(), kFileEntry);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    files.push_back(it->str(1));
  }
  return files;
}

}  // namespace kklint
