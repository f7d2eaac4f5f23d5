// Walk-path assembly tests.
//
// The engine assembles paths with one counting scatter over its per-node
// path logs (WalkEngine::TakeFlatPaths); TakePaths, TakePathEntries, and
// WalkService::BuildIndex are views over that flat form. The reference here
// is the sort-based reassembly the scatter replaced, kept verbatim: it
// concatenates the raw node logs, sorts the entries by (walker, step), and
// appends each vertex to its walker's own vector. Every view must equal it
// across cluster sizes, worker pools, message faults (which deliver entries
// to the node logs out of step order) and early-terminating PPR walks of
// uneven length.
//
// The contiguity guard is tested through hand-edited checkpoint path_log
// sections: a log missing a step or holding one twice must abort assembly.
//
// The CI deterministic-sim job also runs this binary under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/deepwalk.h"
#include "src/apps/ppr.h"
#include "src/engine/checkpoint.h"
#include "src/engine/walk_engine.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/service/segment_index.h"
#include "src/service/walk_service.h"
#include "src/testing/fault_injector.h"
#include "src/util/rng.h"

namespace knightking {
namespace {

using Engine = WalkEngine<EmptyEdgeData>;
using Paths = std::vector<std::vector<vertex_id_t>>;

constexpr uint64_t kSeed = 613;
constexpr walker_id_t kWalkers = 300;

std::string TempPath(const std::string& tag) {
  return testing::TempDir() + "kk_paths_" + tag + ".bin";
}

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string data;
  if (f == nullptr) {
    return data;
  }
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);
  return data;
}

// The former TakePathEntries: every node log concatenated, then sorted by
// (walker, step).
std::vector<PathEntry> ReferenceEntries(const Engine& engine, node_rank_t num_nodes) {
  std::vector<PathEntry> all;
  for (node_rank_t n = 0; n < num_nodes; ++n) {
    const std::vector<PathEntry>& log = engine.node_path_log(n);
    all.insert(all.end(), log.begin(), log.end());
  }
  std::sort(all.begin(), all.end(), [](const PathEntry& a, const PathEntry& b) {
    return a.walker != b.walker ? a.walker < b.walker : a.step < b.step;
  });
  return all;
}

// The former TakePaths: one push_back per sorted entry, refusing a walker
// whose steps are not 0, 1, 2, ... in order.
Paths ReferencePaths(const std::vector<PathEntry>& sorted, walker_id_t num_walkers) {
  Paths paths(num_walkers);
  for (const PathEntry& entry : sorted) {
    if (entry.walker >= paths.size() || paths[entry.walker].size() != entry.step) {
      ADD_FAILURE() << "reference: non-contiguous log at walker " << entry.walker
                    << " step " << entry.step;
      return {};
    }
    paths[entry.walker].push_back(entry.vertex);
  }
  return paths;
}

Paths FlatToNested(const FlatPaths& flat) {
  Paths paths;
  for (size_t w = 0; w < flat.num_paths(); ++w) {
    std::span<const vertex_id_t> path = flat.Path(w);
    paths.emplace_back(path.begin(), path.end());
  }
  return paths;
}

// True when some node log records a walker's step after a later step of
// another walker: entries reached the log out of step order.
bool AnyLogOutOfStepOrder(const Engine& engine, node_rank_t num_nodes) {
  for (node_rank_t n = 0; n < num_nodes; ++n) {
    const std::vector<PathEntry>& log = engine.node_path_log(n);
    for (size_t i = 1; i < log.size(); ++i) {
      if (log[i].step < log[i - 1].step) {
        return true;
      }
    }
  }
  return false;
}

struct RunCase {
  const char* name;
  node_rank_t nodes = 1;
  size_t workers = 0;
  bool faults = false;
  bool ppr = false;  // early-terminating PPR instead of fixed-length DeepWalk
};

FaultPolicy ReorderingFaults() {
  FaultPolicy policy;
  policy.drop = 0.1;
  policy.delay = 0.2;
  policy.duplicate = 0.1;
  policy.reorder = true;
  return policy;
}

// One engine run of `c` with its path log still in place.
struct CaseRun {
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<Engine> engine;
};

CaseRun RunCaseOnce(const RunCase& c, walker_id_t walkers) {
  CaseRun run;
  WalkEngineOptions opts;
  opts.num_nodes = c.nodes;
  opts.workers_per_node = c.workers;
  opts.collect_paths = true;
  opts.seed = kSeed;
  if (c.faults) {
    run.injector = std::make_unique<FaultInjector>(ReorderingFaults());
    opts.fault_injector = run.injector.get();
  }
  run.engine = std::make_unique<Engine>(
      Csr<EmptyEdgeData>::FromEdgeList(GenerateTruncatedPowerLaw(240, 2.2, 1, 30, 11)),
      opts);
  if (c.ppr) {
    run.engine->Run(PprTransition<EmptyEdgeData>(),
                    PprWalkers(walkers, PprParams{.terminate_prob = 0.1}));
  } else {
    run.engine->Run(DeepWalkTransition<EmptyEdgeData>(),
                    DeepWalkWalkers(walkers, DeepWalkParams{.walk_length = 20}));
  }
  return run;
}

const RunCase kCases[] = {
    {"deepwalk_n1_w0", 1, 0},
    {"deepwalk_n1_w4", 1, 4},
    {"deepwalk_n4_w0", 4, 0},
    {"deepwalk_n4_w4", 4, 4},
    {"deepwalk_faults_w0", 4, 0, true},
    {"deepwalk_faults_w4", 4, 4, true},
    {"ppr_n1_w0", 1, 0, false, true},
    {"ppr_n4_w4", 4, 4, false, true},
    {"ppr_faults", 4, 4, true, true},
};

// Each view empties the log, so every view gets its own (deterministic)
// run and is compared with the reference assembled from that run's log.
TEST(PathAssemblyTest, EveryViewEqualsSortedReassembly) {
  for (const RunCase& c : kCases) {
    SCOPED_TRACE(c.name);
    std::vector<PathEntry> first_reference;
    for (int view = 0; view < 3; ++view) {
      CaseRun run = RunCaseOnce(c, kWalkers);
      Engine& engine = *run.engine;
      const std::vector<PathEntry> entries = ReferenceEntries(engine, c.nodes);
      const Paths paths = ReferencePaths(entries, kWalkers);
      ASSERT_EQ(paths.size(), kWalkers);
      if (view == 0) {
        first_reference = entries;
        if (c.faults) {
          EXPECT_GT(run.injector->counters().delayed, 0u);
          EXPECT_TRUE(AnyLogOutOfStepOrder(engine, c.nodes));
        }
        if (c.ppr) {
          auto [shortest, longest] = std::minmax_element(
              paths.begin(), paths.end(),
              [](const auto& a, const auto& b) { return a.size() < b.size(); });
          EXPECT_LT(shortest->size(), longest->size()) << "PPR walks should end early";
        }
      } else {
        EXPECT_EQ(entries, first_reference) << "reference moved between runs";
      }
      if (view == 0) {
        FlatPaths flat;
        engine.TakeFlatPaths(&flat);
        ASSERT_EQ(flat.num_paths(), kWalkers);
        EXPECT_EQ(flat.offsets.front(), 0u);
        EXPECT_EQ(flat.offsets.back(), flat.vertices.size());
        EXPECT_EQ(FlatToNested(flat), paths);
      } else if (view == 1) {
        EXPECT_EQ(engine.TakePaths(), paths);
      } else {
        EXPECT_EQ(engine.TakePathEntries(), entries);
      }
      // Every view empties the log.
      for (node_rank_t n = 0; n < c.nodes; ++n) {
        EXPECT_TRUE(engine.node_path_log(n).empty());
      }
    }
  }
}

// A caller-owned FlatPaths is reused across Runs (the service's live-walk
// buffers): assembling a smaller run into a buffer that held a larger one
// must leave nothing of the old contents behind.
TEST(PathAssemblyTest, ReusedBufferHoldsOnlyTheLatestRun) {
  const RunCase c{"reuse", 4, 0, false, true};
  FlatPaths flat;
  for (walker_id_t walkers : {kWalkers, walker_id_t{7}, walker_id_t{0}, walker_id_t{40}}) {
    SCOPED_TRACE(walkers);
    CaseRun run = RunCaseOnce(c, walkers);
    const Paths expected = ReferencePaths(ReferenceEntries(*run.engine, c.nodes), walkers);
    run.engine->TakeFlatPaths(&flat);
    EXPECT_EQ(flat.num_paths(), walkers);
    EXPECT_EQ(FlatToNested(flat), expected);
  }
}

// The former BuildIndex: the engine run the service performs, assembled by
// the reference, flattened segment by segment, and saved.
std::string ReferenceIndexBytes(const WalkServiceOptions& sopts, const std::string& path) {
  using Service = WalkService<EmptyEdgeData>;
  WalkEngineOptions eopts = sopts.engine;
  eopts.seed = HashCombine64(sopts.seed, Service::kIndexSeedSalt);
  eopts.collect_paths = true;
  eopts.reuse_static_state = true;
  Engine engine(Csr<EmptyEdgeData>::FromEdgeList(GenerateTruncatedPowerLaw(240, 2.2, 1, 30, 11)),
                eopts);
  const uint32_t spv = sopts.segments_per_vertex;
  const vertex_id_t num_v = engine.graph().num_vertices();
  WalkerSpec<> spec;
  spec.num_walkers = static_cast<walker_id_t>(num_v) * spv;
  spec.start_vertex = [spv](walker_id_t id, Rng&) {
    return static_cast<vertex_id_t>(id / spv);
  };
  spec.max_steps = sopts.segment_cap;
  spec.terminate_prob = sopts.terminate_prob;
  engine.Run(PprTransition<EmptyEdgeData>(), spec);
  const Paths paths =
      ReferencePaths(ReferenceEntries(engine, eopts.num_nodes), spec.num_walkers);

  const uint64_t num_segments = spec.num_walkers;
  std::vector<uint64_t> offsets(num_segments + 1, 0);
  std::vector<vertex_id_t> vertices;
  std::vector<uint8_t> terminated(num_segments, 0);
  for (uint64_t s = 0; s < num_segments && s < paths.size(); ++s) {
    offsets[s + 1] = offsets[s] + paths[s].size();
    vertices.insert(vertices.end(), paths[s].begin(), paths[s].end());
    terminated[s] = paths[s].size() < static_cast<size_t>(sopts.segment_cap) + 1 ? 1 : 0;
  }
  SegmentIndexParams params;
  params.segments_per_vertex = spv;
  params.segment_cap = sopts.segment_cap;
  params.terminate_prob = sopts.terminate_prob;
  params.seed = sopts.seed;
  SegmentIndex index = SegmentIndex::FromParts(params, num_v, std::move(offsets),
                                               std::move(vertices), std::move(terminated));
  std::string error;
  EXPECT_TRUE(index.Save(path, &error)) << error;
  std::string bytes = ReadAll(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(PathAssemblyTest, SavedIndexEqualsReferenceAssembly) {
  const RunCase cases[] = {
      {"index_n1_w0", 1, 0},
      {"index_n1_w4", 1, 4},
      {"index_n4_w0", 4, 0},
      {"index_n4_w4", 4, 4},
      {"index_faults", 4, 4, true},
  };
  for (const RunCase& c : cases) {
    SCOPED_TRACE(c.name);
    FaultInjector service_faults(ReorderingFaults());
    FaultInjector reference_faults(ReorderingFaults());
    WalkServiceOptions sopts;
    sopts.seed = kSeed;
    sopts.segments_per_vertex = 4;
    sopts.segment_cap = 8;
    sopts.terminate_prob = 0.15;  // many segments end before the cap
    sopts.engine.num_nodes = c.nodes;
    sopts.engine.workers_per_node = c.workers;
    sopts.engine.fault_injector = c.faults ? &service_faults : nullptr;

    WalkService<EmptyEdgeData> service(
        Csr<EmptyEdgeData>::FromEdgeList(GenerateTruncatedPowerLaw(240, 2.2, 1, 30, 11)),
        sopts);
    service.BuildIndex();
    const std::string path = TempPath(std::string("index_") + c.name);
    std::string error;
    ASSERT_TRUE(service.SaveIndex(path, &error)) << error;
    const std::string built = ReadAll(path);
    std::remove(path.c_str());

    sopts.engine.fault_injector = c.faults ? &reference_faults : nullptr;
    const std::string reference = ReferenceIndexBytes(sopts, path + ".ref");
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(built, reference);
  }
}

// --- Contiguity guard ----------------------------------------------------

// One length-prefixed checkpoint section kept as raw element bytes.
struct RawSection {
  uint64_t count = 0;
  std::string bytes;
};

bool ReadRaw(BinaryFileReader& r, uint64_t elem_bytes, RawSection* out) {
  if (!r.Read(&out->count) || !r.CanConsume(out->count, elem_bytes)) {
    return false;
  }
  out->bytes.resize(out->count * elem_bytes);
  return out->bytes.empty() || r.ReadBytes(out->bytes.data(), out->bytes.size());
}

void WriteRaw(BinaryFileWriter& w, const RawSection& s) {
  w.Write(s.count);
  w.WriteBytes(s.bytes.data(), s.bytes.size());
}

// Copies the snapshot at `from` to `to` with `edit` applied to the
// concatenation of every node's path_log section (in node order, entries
// keep their node). Every other section is copied byte for byte and the
// checksum trailer is recomputed, so the edited snapshot loads.
void RewritePathLogs(const std::string& from, const std::string& to,
                     const std::function<void(std::vector<std::vector<PathEntry>>*)>& edit) {
  BinaryFileReader r(from);
  ASSERT_TRUE(r.ok());
  CheckpointHeader h;
  ASSERT_TRUE(ReadCheckpointHeader(r, &h));
  std::vector<step_t> progress;
  std::vector<uint64_t> history;
  ASSERT_TRUE(r.ReadVec(&progress));
  ASSERT_TRUE(r.ReadVec(&history));
  struct NodeSections {
    std::string stats;
    RawSection active, pending, in_flight;
    std::vector<PathEntry> path_log;
  };
  std::vector<NodeSections> nodes(h.num_nodes);
  for (NodeSections& ns : nodes) {
    uint64_t stats_bytes = 0;
    ASSERT_TRUE(r.Read(&stats_bytes));
    ns.stats.resize(stats_bytes);
    ASSERT_TRUE(r.ReadBytes(ns.stats.data(), ns.stats.size()));
    ASSERT_TRUE(ReadRaw(r, h.walker_bytes, &ns.active));
    ASSERT_TRUE(ReadRaw(r, h.pending_bytes, &ns.pending));
    ASSERT_TRUE(ReadRaw(r, h.inflight_bytes, &ns.in_flight));
    ASSERT_TRUE(r.ReadVec(&ns.path_log));
  }
  std::vector<std::vector<PathEntry>> logs;
  for (NodeSections& ns : nodes) {
    logs.push_back(std::move(ns.path_log));
  }
  edit(&logs);

  BinaryFileWriter w(to);
  ASSERT_TRUE(w.ok());
  WriteCheckpointHeader(w, h);
  w.WriteVec(progress);
  w.WriteVec(history);
  for (size_t n = 0; n < nodes.size(); ++n) {
    w.Write(static_cast<uint64_t>(nodes[n].stats.size()));
    w.WriteBytes(nodes[n].stats.data(), nodes[n].stats.size());
    WriteRaw(w, nodes[n].active);
    WriteRaw(w, nodes[n].pending);
    WriteRaw(w, nodes[n].in_flight);
    w.WriteVec(logs[n]);
  }
  w.Write(w.checksum());
  ASSERT_TRUE(w.Close());
}

// The log entry (node, index) of walker 0's step 1, which a late snapshot
// of a 12-step walk always follows with later steps of the same walker.
std::pair<size_t, size_t> FindStepOne(const std::vector<std::vector<PathEntry>>& logs) {
  for (size_t n = 0; n < logs.size(); ++n) {
    for (size_t i = 0; i < logs[n].size(); ++i) {
      if (logs[n][i].walker == 0 && logs[n][i].step == 1) {
        return {n, i};
      }
    }
  }
  ADD_FAILURE() << "walker 0 has no step 1 in the snapshot";
  return {0, 0};
}

class PathAssemblyDeathTest : public testing::Test {
 protected:
  void SetUp() override {
    opts_.num_nodes = 2;
    opts_.collect_paths = true;
    opts_.seed = kSeed;
    opts_.checkpoint_every = 1;  // the last snapshot is a late superstep
    // ctest runs each test in its own process, possibly concurrently.
    opts_.checkpoint_path =
        TempPath(std::string("guard_base_") +
                 testing::UnitTest::GetInstance()->current_test_info()->name());
    engine_ = std::make_unique<Engine>(
        Csr<EmptyEdgeData>::FromEdgeList(GenerateUniformDegree(150, 8, 312)), opts_);
    engine_->Run(DeepWalkTransition<EmptyEdgeData>(),
                 DeepWalkWalkers(40, DeepWalkParams{.walk_length = 12}));
  }
  void TearDown() override { std::remove(opts_.checkpoint_path.c_str()); }

  WalkEngineOptions opts_;
  std::unique_ptr<Engine> engine_;
};

// The unedited snapshot assembles: the deaths below come from the edits.
TEST_F(PathAssemblyDeathTest, UneditedSnapshotAssembles) {
  const std::string path = TempPath("guard_unedited");
  RewritePathLogs(opts_.checkpoint_path, path, [](auto*) {});
  ASSERT_TRUE(engine_->LoadCheckpoint(path));
  const Paths paths = engine_->TakePaths();
  ASSERT_EQ(paths.size(), 40u);
  EXPECT_GT(paths[0].size(), 2u);
  std::remove(path.c_str());
}

TEST_F(PathAssemblyDeathTest, DroppedStepAborts) {
  const std::string path = TempPath("guard_dropped");
  RewritePathLogs(opts_.checkpoint_path, path, [](std::vector<std::vector<PathEntry>>* logs) {
    auto [n, i] = FindStepOne(*logs);
    (*logs)[n].erase((*logs)[n].begin() + static_cast<std::ptrdiff_t>(i));
  });
  ASSERT_TRUE(engine_->LoadCheckpoint(path));
  EXPECT_DEATH(engine_->TakePaths(), "non-contiguous path log for walker 0");
  EXPECT_DEATH(engine_->TakePathEntries(), "non-contiguous path log for walker 0");
  FlatPaths flat;
  EXPECT_DEATH(engine_->TakeFlatPaths(&flat), "non-contiguous path log for walker 0");
  std::remove(path.c_str());
}

TEST_F(PathAssemblyDeathTest, RepeatedStepAborts) {
  const std::string path = TempPath("guard_repeated");
  RewritePathLogs(opts_.checkpoint_path, path, [](std::vector<std::vector<PathEntry>>* logs) {
    auto [n, i] = FindStepOne(*logs);
    (*logs)[n].push_back((*logs)[n][i]);
  });
  ASSERT_TRUE(engine_->LoadCheckpoint(path));
  EXPECT_DEATH(engine_->TakePaths(), "non-contiguous path log for walker 0");
  EXPECT_DEATH(engine_->TakePathEntries(), "non-contiguous path log for walker 0");
  FlatPaths flat;
  EXPECT_DEATH(engine_->TakeFlatPaths(&flat), "non-contiguous path log for walker 0");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace knightking
