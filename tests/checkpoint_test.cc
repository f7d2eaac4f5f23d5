// Checkpoint/restore and node-crash recovery tests.
//
// The acceptance bar is the same bit-identical standard the fault-injection
// suite holds the reliability protocol to: a run that crashes at superstep k
// and is restored from the last committed snapshot must produce path logs
// byte-identical to an uninterrupted run under the same seed — across worker
// counts, first- and second-order walks, and with message faults layered on
// top of the crash. Snapshot integrity is tested separately: every corrupt
// mutation of a valid snapshot (bad magic, truncated header, oversized
// declared counts, truncated payload, flipped payload byte, trailing
// garbage) must be rejected cleanly by both InspectCheckpoint and
// LoadCheckpoint, with no allocation blow-up and no engine state touched;
// checksum-valid content with out-of-range ids, vertices, edge indices or
// node ranks, or repeated per-walker keys, must be rejected by the loader.
//
// The CI deterministic-sim job re-runs this binary under TSan with
// KK_SIM_WORKERS=4.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/deepwalk.h"
#include "src/apps/node2vec.h"
#include "src/engine/checkpoint.h"
#include "src/engine/walk_engine.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/testing/fault_injector.h"
#include "tools/kk-metrics/check.h"

namespace knightking {
namespace {

constexpr uint64_t kSeed = 91;

size_t WorkersFromEnv() {
  const char* env = std::getenv("KK_SIM_WORKERS");
  return env != nullptr ? static_cast<size_t>(std::atoi(env)) : 0;
}

std::string SnapshotPath(const std::string& tag) {
  return testing::TempDir() + "kk_ckpt_" + tag + ".bin";
}

WalkEngineOptions BaseOptions(node_rank_t num_nodes, size_t workers) {
  WalkEngineOptions opts;
  opts.num_nodes = num_nodes;
  opts.workers_per_node = workers;
  opts.collect_paths = true;
  opts.seed = kSeed;
  return opts;
}

struct CrashSpec {
  node_rank_t rank = 0;
  uint64_t epoch = 0;
};

// Reference run (fault-free, no checkpointing) vs a run that checkpoints
// every `checkpoint_every` supersteps and suffers the scheduled crashes.
// Paths and total steps must match exactly; every scheduled crash must
// actually fire and be recovered from.
template <typename EdgeData, typename WalkerState, typename QueryResponse,
          typename SpecFn, typename WalkerSpecT>
void ExpectCrashedRunMatchesUninterrupted(
    const EdgeList<EdgeData>& edges, const SpecFn& make_spec, const WalkerSpecT& walkers,
    const FaultPolicy& policy, const std::vector<CrashSpec>& crashes,
    uint64_t checkpoint_every, node_rank_t num_nodes, size_t workers,
    const std::string& tag) {
  using EngineT = WalkEngine<EdgeData, WalkerState, QueryResponse>;
  std::vector<PathEntry> reference;
  SamplingStats clean_stats;
  {
    EngineT engine(Csr<EdgeData>::FromEdgeList(edges), BaseOptions(num_nodes, workers));
    clean_stats = engine.Run(make_spec(engine.graph()), walkers);
    reference = engine.TakePathEntries();
  }
  ASSERT_FALSE(reference.empty());

  FaultInjector injector(policy);
  for (const CrashSpec& c : crashes) {
    injector.CrashNode(c.rank, c.epoch);
  }
  WalkEngineOptions opts = BaseOptions(num_nodes, workers);
  opts.fault_injector = &injector;
  opts.checkpoint_every = checkpoint_every;
  opts.checkpoint_path = SnapshotPath(tag);
  EngineT engine(Csr<EdgeData>::FromEdgeList(edges), opts);
  SamplingStats stats = engine.Run(make_spec(engine.graph()), walkers);
  std::vector<PathEntry> crashed = engine.TakePathEntries();

  EXPECT_EQ(crashed, reference) << "recovered walk diverged from uninterrupted walk";
  EXPECT_EQ(stats.steps, clean_stats.steps);
  EXPECT_EQ(engine.checkpoint_stats().recoveries, crashes.size());
  EXPECT_EQ(injector.counters().crashes, crashes.size());
  EXPECT_EQ(injector.pending_crashes(), 0u);
  EXPECT_GT(engine.checkpoint_stats().checkpoints, 0u);
  EXPECT_GT(engine.checkpoint_stats().checkpoint_bytes, 0u);
  std::remove(opts.checkpoint_path.c_str());
}

FaultPolicy NoMessageFaults() { return FaultPolicy{}; }

FaultPolicy DropAndDelay() {
  FaultPolicy policy;
  policy.drop = 0.1;
  policy.delay = 0.1;
  return policy;
}

// The acceptance matrix: crash epoch x worker count, first-order lockstep
// (deepwalk) with and without message faults layered on the crash.
TEST(CheckpointRecoveryTest, DeepWalkCrashMatrix) {
  auto edges = GenerateUniformDegree(200, 8, 301);
  DeepWalkParams params{.walk_length = 16};
  int variant = 0;
  for (size_t workers : {size_t{0}, size_t{4}}) {
    for (uint64_t epoch : {uint64_t{1}, uint64_t{5}}) {
      for (bool faulty : {false, true}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) + " epoch=" +
                     std::to_string(epoch) + " faulty=" + std::to_string(faulty));
        ExpectCrashedRunMatchesUninterrupted<EmptyEdgeData, EmptyWalkerState, uint8_t>(
            edges, [](const auto&) { return DeepWalkTransition<EmptyEdgeData>(); },
            DeepWalkWalkers(120, params), faulty ? DropAndDelay() : NoMessageFaults(),
            {{2, epoch}}, /*checkpoint_every=*/3, /*num_nodes=*/4, workers,
            "deepwalk_" + std::to_string(variant++));
      }
    }
  }
}

// Second-order walks park trials with partially-consumed RNG streams and
// keep in-flight query state — exactly the state a naive checkpoint would
// lose. Crash mid-walk with faults on every mailbox.
TEST(CheckpointRecoveryTest, Node2VecCrashMatrix) {
  auto edges = GenerateUniformDegree(180, 8, 302);
  Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 12};
  int variant = 0;
  for (size_t workers : {size_t{0}, size_t{4}}) {
    for (uint64_t epoch : {uint64_t{2}, uint64_t{6}}) {
      for (bool faulty : {false, true}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) + " epoch=" +
                     std::to_string(epoch) + " faulty=" + std::to_string(faulty));
        ExpectCrashedRunMatchesUninterrupted<EmptyEdgeData, EmptyWalkerState, uint8_t>(
            edges, [&](const auto& g) { return Node2VecTransition(g, params); },
            Node2VecWalkers(100, params), faulty ? DropAndDelay() : NoMessageFaults(),
            {{1, epoch}}, /*checkpoint_every=*/2, /*num_nodes=*/4, workers,
            "node2vec_" + std::to_string(variant++));
      }
    }
  }
}

// Two crashes, the second landing inside the supersteps replayed after the
// first recovery — consume-once crash scheduling must not wedge the run.
TEST(CheckpointRecoveryTest, DoubleCrashIncludingReplayedEpoch) {
  auto edges = GenerateUniformDegree(180, 8, 303);
  Node2VecParams params{.p = 2.0, .q = 0.5, .walk_length = 12};
  ExpectCrashedRunMatchesUninterrupted<EmptyEdgeData, EmptyWalkerState, uint8_t>(
      edges, [&](const auto& g) { return Node2VecTransition(g, params); },
      Node2VecWalkers(90, params), DropAndDelay(), {{0, 4}, {3, 5}},
      /*checkpoint_every=*/3, /*num_nodes=*/4, WorkersFromEnv(), "double_crash");
}

// Checkpointing with no crash must be output-invisible: identical paths to a
// run that never touches the filesystem, snapshots committed, no recoveries.
TEST(CheckpointRecoveryTest, CheckpointingAloneDoesNotChangeWalks) {
  auto edges = GenerateUniformDegree(200, 8, 304);
  DeepWalkParams params{.walk_length = 16};
  std::vector<PathEntry> reference;
  {
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges),
                                     BaseOptions(4, WorkersFromEnv()));
    engine.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(120, params));
    reference = engine.TakePathEntries();
  }
  WalkEngineOptions opts = BaseOptions(4, WorkersFromEnv());
  opts.checkpoint_every = 2;
  opts.checkpoint_path = SnapshotPath("no_crash");
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(120, params));
  EXPECT_EQ(engine.TakePathEntries(), reference);
  EXPECT_GT(engine.checkpoint_stats().checkpoints, 0u);
  EXPECT_EQ(engine.checkpoint_stats().recoveries, 0u);
  std::remove(opts.checkpoint_path.c_str());
}

// A committed snapshot passes the generic traversal (the same validation
// kk-ckpt performs), reports the header the engine wrote, and loads back
// into a matching engine.
TEST(CheckpointFormatTest, SnapshotIsInspectableAndLoadable) {
  auto edges = GenerateUniformDegree(150, 8, 305);
  DeepWalkParams params{.walk_length = 12};
  WalkEngineOptions opts = BaseOptions(2, 0);
  opts.checkpoint_every = 1;  // leave a snapshot from a late superstep behind
  opts.checkpoint_path = SnapshotPath("inspect");
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(80, params));

  CheckpointInfo info;
  std::string error;
  ASSERT_TRUE(InspectCheckpoint(opts.checkpoint_path, &info, &error)) << error;
  EXPECT_EQ(info.header.num_nodes, 2u);
  EXPECT_EQ(info.header.seed, kSeed);
  EXPECT_EQ(info.header.num_walkers, 80u);
  EXPECT_EQ(info.header.version, kCheckpointVersion);
  EXPECT_GT(info.header.superstep, 0u);
  EXPECT_GT(info.file_bytes, 0u);
  EXPECT_GT(info.path_entries, 0u);
  // Fault-free run: no dedup table, no parked or in-flight protocol state.
  EXPECT_EQ(info.progress_entries, 0u);
  EXPECT_EQ(info.pending_trials, 0u);
  EXPECT_EQ(info.in_flight_moves, 0u);

  EXPECT_TRUE(engine.LoadCheckpoint(opts.checkpoint_path));
  std::remove(opts.checkpoint_path.c_str());
}

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string data;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);
  return data;
}

void WriteAll(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  ASSERT_EQ(std::fclose(f), 0);
}

template <typename T>
T LoadAt(const std::string& data, size_t at) {
  T value;
  std::memcpy(&value, data.data() + at, sizeof(T));
  return value;
}

template <typename T>
void StoreAt(std::string* data, size_t at, const T& value) {
  std::memcpy(data->data() + at, &value, sizeof(T));
}

// One record section of a snapshot: a u64 count, then `count` records.
struct RecordSection {
  size_t count_at = 0;  // file offset of the count
  uint64_t count = 0;
  size_t record_bytes = 0;

  size_t Record(uint64_t i) const { return count_at + sizeof(uint64_t) + i * record_bytes; }
};

struct NodeSections {
  RecordSection active, parked, unacked, path_log;
};

// Walks the snapshot layout SaveCheckpoint writes: the 72-byte header
// (record sizes at offsets 40..55), the walker-progress (u32) and
// active-history (u64) vectors, then per node a sized stats blob and the
// active, parked, in-flight and path-log sections.
std::vector<NodeSections> LocateNodeSections(const std::string& snap) {
  const size_t record_bytes[4] = {LoadAt<uint32_t>(snap, 40), LoadAt<uint32_t>(snap, 44),
                                  LoadAt<uint32_t>(snap, 48), LoadAt<uint32_t>(snap, 52)};
  size_t at = 72;
  at += sizeof(uint64_t) + LoadAt<uint64_t>(snap, at) * sizeof(uint32_t);
  at += sizeof(uint64_t) + LoadAt<uint64_t>(snap, at) * sizeof(uint64_t);
  std::vector<NodeSections> nodes(LoadAt<uint32_t>(snap, 12));
  for (NodeSections& node : nodes) {
    at += sizeof(uint64_t) + LoadAt<uint64_t>(snap, at);
    RecordSection* sections[4] = {&node.active, &node.parked, &node.unacked, &node.path_log};
    for (size_t k = 0; k < 4; ++k) {
      RecordSection& section = *sections[k];
      section.count_at = at;
      section.count = LoadAt<uint64_t>(snap, at);
      section.record_bytes = record_bytes[k];
      at = section.Record(section.count);
    }
  }
  return nodes;
}

void AppendRecord(std::string* snap, const RecordSection& section, const std::string& record) {
  ASSERT_EQ(record.size(), section.record_bytes);
  snap->insert(section.Record(section.count), record);
  StoreAt<uint64_t>(snap, section.count_at, section.count + 1);
}

// Recomputes the FNV-1a 64 trailer over everything before it, so only the
// loader's content checks stand between an edited snapshot and the engine.
void Reseal(std::string* snap) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i + sizeof(uint64_t) < snap->size(); ++i) {
    hash ^= static_cast<unsigned char>((*snap)[i]);
    hash *= 0x100000001b3ULL;
  }
  StoreAt<uint64_t>(snap, snap->size() - sizeof(uint64_t), hash);
}

// Every tested mutation of a valid snapshot must fail cleanly — false from
// both the generic traversal and the engine loader, no crash, no multi-GB
// allocation from a corrupt declared count.
TEST(CheckpointFormatTest, CorruptSnapshotsAreRejected) {
  auto edges = GenerateUniformDegree(150, 8, 306);
  DeepWalkParams params{.walk_length = 12};
  WalkEngineOptions opts = BaseOptions(2, 0);
  opts.checkpoint_every = 1;
  opts.checkpoint_path = SnapshotPath("corrupt_base");
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
  const walker_id_t num_walkers = 80;
  engine.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(num_walkers, params));
  std::string valid = ReadAll(opts.checkpoint_path);
  ASSERT_GT(valid.size(), 64u);

  struct Mutation {
    const char* name;
    std::string data;
  };
  std::string huge_count = valid;
  // The walker_progress count (u64) sits right after the 56-byte header;
  // declare ~2^56 entries and let the reader validate it against file size.
  for (size_t i = 0; i < 8; ++i) {
    huge_count[56 + i] = static_cast<char>(0xff);
  }
  std::string flipped = valid;
  flipped[valid.size() / 2] = static_cast<char>(flipped[valid.size() / 2] ^ 0x5a);
  std::string bad_magic = valid;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x01);
  const Mutation mutations[] = {
      {"bad_magic", bad_magic},
      {"truncated_header", valid.substr(0, 20)},
      {"huge_declared_count", huge_count},
      {"truncated_payload", valid.substr(0, valid.size() - 16)},
      {"flipped_payload_byte", flipped},
      {"trailing_garbage", valid + "extra"},
      {"empty_file", std::string()},
  };
  for (const Mutation& m : mutations) {
    SCOPED_TRACE(m.name);
    std::string path = SnapshotPath(std::string("corrupt_") + m.name);
    WriteAll(path, m.data);
    CheckpointInfo info;
    std::string error;
    EXPECT_FALSE(InspectCheckpoint(path, &info, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(engine.LoadCheckpoint(path));
    std::remove(path.c_str());
  }

  // Checksum-valid content no engine could have written: one edited field
  // or spliced record each, trailer recomputed. The generic traversal
  // accepts every one; the loader must refuse all but the control before it
  // touches any state. Parked and in-flight records are spliced in as a
  // walker followed by the u32 that comes next in PendingTrial (candidate)
  // and InFlightMove (dst), rest zero.
  using W = Walker<>;
  const NodeSections base = LocateNodeSections(valid)[0];
  ASSERT_GT(base.active.count, 0u);
  ASSERT_GT(base.path_log.count, 0u);
  const W first = LoadAt<W>(valid, base.active.Record(0));
  const vertex_id_t num_vertices = engine.graph().num_vertices();
  struct Spliced {
    bool parked;  // else in-flight
    walker_id_t id;
    vertex_id_t cur;
    uint32_t after_walker;
  };
  auto splice = [&](std::initializer_list<Spliced> records) {
    std::string snap = valid;
    for (const Spliced& r : records) {
      const NodeSections node = LocateNodeSections(snap)[0];
      const RecordSection& section = r.parked ? node.parked : node.unacked;
      W w = first;
      w.id = r.id;
      w.cur = r.cur;
      std::string bytes(section.record_bytes, '\0');
      std::memcpy(bytes.data(), &w, sizeof(W));
      std::memcpy(bytes.data() + sizeof(W), &r.after_walker, sizeof(uint32_t));
      AppendRecord(&snap, section, bytes);
    }
    Reseal(&snap);
    return snap;
  };
  auto edit_active = [&](walker_id_t new_id, vertex_id_t new_cur) {
    std::string snap = valid;
    W w = first;
    w.id = new_id;
    w.cur = new_cur;
    StoreAt(&snap, base.active.Record(0), w);
    Reseal(&snap);
    return snap;
  };
  std::string path_walker = valid;
  PathEntry entry = LoadAt<PathEntry>(valid, base.path_log.Record(0));
  entry.walker = num_walkers;
  StoreAt(&path_walker, base.path_log.Record(0), entry);
  Reseal(&path_walker);
  const walker_id_t id = first.id;
  const vertex_id_t cur = first.cur;
  const uint32_t degree = engine.graph().OutDegree(cur);
  struct ContentCase {
    const char* name;
    std::string data;
    bool loads;
  };
  const ContentCase content_cases[] = {
      {"control", splice({{true, id, cur, 0}, {false, id, cur, 0}}), true},
      {"parked_repeats_walker", splice({{true, id, cur, 0}, {true, id, cur, 0}}), false},
      {"parked_walker_id_out_of_range", splice({{true, num_walkers, cur, 0}}), false},
      {"parked_cur_out_of_range", splice({{true, id, num_vertices, 0}}), false},
      {"parked_candidate_out_of_range", splice({{true, id, cur, degree}}), false},
      {"unacked_repeats_walker", splice({{false, id, cur, 0}, {false, id, cur, 0}}), false},
      {"unacked_walker_id_out_of_range", splice({{false, num_walkers, cur, 0}}), false},
      {"unacked_dst_out_of_range", splice({{false, id, cur, 2}}), false},
      {"active_walker_id_out_of_range", edit_active(num_walkers, cur), false},
      {"active_cur_out_of_range", edit_active(id, num_vertices), false},
      {"path_log_walker_out_of_range", path_walker, false},
  };
  for (const ContentCase& c : content_cases) {
    SCOPED_TRACE(c.name);
    std::string path = SnapshotPath(std::string("content_") + c.name);
    WriteAll(path, c.data);
    CheckpointInfo info;
    std::string error;
    EXPECT_TRUE(InspectCheckpoint(path, &info, &error)) << error;
    EXPECT_EQ(engine.LoadCheckpoint(path), c.loads);
    std::remove(path.c_str());
  }

  // The untouched original still validates and loads.
  CheckpointInfo info;
  std::string error;
  EXPECT_TRUE(InspectCheckpoint(opts.checkpoint_path, &info, &error)) << error;
  EXPECT_TRUE(engine.LoadCheckpoint(opts.checkpoint_path));
  std::remove(opts.checkpoint_path.c_str());
}

// A snapshot from a mismatched configuration (different cluster size) must
// be refused by the loader even though it is structurally valid.
TEST(CheckpointFormatTest, MismatchedConfigurationIsRefused) {
  auto edges = GenerateUniformDegree(150, 8, 307);
  DeepWalkParams params{.walk_length = 12};
  WalkEngineOptions opts = BaseOptions(2, 0);
  opts.checkpoint_every = 1;
  opts.checkpoint_path = SnapshotPath("mismatch");
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(80, params));

  WalkEngine<EmptyEdgeData> other(Csr<EmptyEdgeData>::FromEdgeList(edges),
                                  BaseOptions(4, 0));
  other.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(80, params));
  EXPECT_FALSE(other.LoadCheckpoint(opts.checkpoint_path));
  std::remove(opts.checkpoint_path.c_str());
}

// Scheduling a crash without enabling checkpointing is a configuration
// error the engine refuses up front.
TEST(CheckpointRecoveryTest, CrashWithoutCheckpointingDies) {
  auto edges = GenerateUniformDegree(100, 6, 308);
  DeepWalkParams params{.walk_length = 8};
  FaultInjector injector(FaultPolicy{});
  injector.CrashNode(0, 1);
  WalkEngineOptions opts = BaseOptions(2, 0);
  opts.fault_injector = &injector;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
  EXPECT_DEATH(engine.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(50, params)),
               "crash");
}

// Both checkpoint preconditions are admission-time rules: ValidateRun
// reports them, so a long-lived caller can refuse the config instead of
// aborting inside Run.
TEST(ValidateRunTest, RejectsCheckpointMisconfiguration) {
  auto edges = GenerateUniformDegree(100, 6, 308);
  auto engine_with = [&](const WalkEngineOptions& opts) {
    return std::make_unique<WalkEngine<EmptyEdgeData>>(Csr<EmptyEdgeData>::FromEdgeList(edges),
                                                       opts);
  };
  const auto transition = DeepWalkTransition<EmptyEdgeData>();

  WalkEngineOptions no_path = BaseOptions(2, 0);
  no_path.checkpoint_every = 2;
  std::string err = engine_with(no_path)->ValidateRun(transition);
  EXPECT_NE(err.find("checkpoint_path"), std::string::npos) << err;

  FaultInjector node_crash(FaultPolicy{});
  node_crash.CrashNode(0, 1);
  FaultInjector batch_crash(FaultPolicy{});
  batch_crash.CrashOnMutationBatch(0, 1);
  for (FaultInjector* injector : {&node_crash, &batch_crash}) {
    WalkEngineOptions opts = BaseOptions(2, 0);
    opts.fault_injector = injector;
    err = engine_with(opts)->ValidateRun(transition);
    EXPECT_NE(err.find("checkpoint_every"), std::string::npos) << err;
    opts.checkpoint_every = 1;
    opts.checkpoint_path = SnapshotPath("validate_run");
    EXPECT_EQ(engine_with(opts)->ValidateRun(transition), "");
  }
}

// Exported metrics carry the checkpoint counters and still satisfy the
// kk-metrics snapshot schema; the trace records checkpoint/recover spans.
TEST(CheckpointObservabilityTest, MetricsAndTraceCoverCheckpointing) {
  auto edges = GenerateUniformDegree(150, 8, 309);
  DeepWalkParams params{.walk_length = 12};
  FaultInjector injector(FaultPolicy{});
  injector.CrashNode(1, 2);
  obs::TraceRecorder trace;
  WalkEngineOptions opts = BaseOptions(2, 0);
  opts.fault_injector = &injector;
  opts.checkpoint_every = 2;
  opts.checkpoint_path = SnapshotPath("obs");
  opts.trace = &trace;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
  engine.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(80, params));

  obs::MetricsRegistry reg;
  engine.ExportMetrics(reg, {{"workload", "deepwalk"}});
  std::string json = reg.ToJson();
  metrics::CheckResult check = metrics::CheckJsonText(json);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_NE(json.find("engine.checkpoints"), std::string::npos);
  EXPECT_NE(json.find("engine.checkpoint_bytes"), std::string::npos);
  EXPECT_NE(json.find("engine.recoveries"), std::string::npos);
  // checkpoint_micros is wall-clock: present in the full snapshot, excluded
  // from the stable (run-to-run comparable) one.
  EXPECT_NE(json.find("engine.checkpoint_micros"), std::string::npos);
  std::string stable = reg.ToJson(obs::MetricsRegistry::Snapshot::kStableOnly);
  EXPECT_EQ(stable.find("engine.checkpoint_micros"), std::string::npos);
  EXPECT_NE(stable.find("engine.checkpoints"), std::string::npos);

  std::string chrome = trace.ToChromeJson();
  EXPECT_NE(chrome.find("\"checkpoint\""), std::string::npos);
  EXPECT_NE(chrome.find("\"recover\""), std::string::npos);
  std::remove(opts.checkpoint_path.c_str());
}

}  // namespace
}  // namespace knightking
