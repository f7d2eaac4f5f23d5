// Tests for the cache-locality layer: cache-geometry detection, NUMA
// topology planning, the neighbor-existence index, and the topology worker
// schedule's output contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/apps/node2vec.h"
#include "src/engine/walk_engine.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/neighbor_index.h"
#include "src/util/cache_geometry.h"
#include "src/util/numa.h"
#include "tests/test_util.h"

namespace knightking {
namespace {

// Builds a synthetic sysfs cache tree under TempDir and returns its root.
// Layout mirrors /sys/devices/system/cpu: <root>/cpu0/cache/index<k>/{type,
// level,size,coherency_line_size}.
class SyntheticSysfs {
 public:
  explicit SyntheticSysfs(const std::string& name)
      : root_(testing::TempDir() + "/" + name) {
    MkDir(root_ + "/cpu0/cache");
  }

  void AddIndex(int index, const std::string& type, const std::string& level,
                const std::string& size, const std::string& line) {
    const std::string dir = root_ + "/cpu0/cache/index" + std::to_string(index);
    MkDir(dir);
    WriteFile(dir + "/type", type);
    WriteFile(dir + "/level", level);
    WriteFile(dir + "/size", size);
    WriteFile(dir + "/coherency_line_size", line);
  }

  const std::string& root() const { return root_; }

 private:
  static void MkDir(const std::string& path) {
    std::string cmd = "mkdir -p '" + path + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  static void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content << "\n";
  }

  std::string root_;
};

TEST(CacheGeometryTest, MissingSysfsFallsBack) {
  CacheGeometry geo = CacheGeometry::Detect(testing::TempDir() + "/no_such_sysfs");
  EXPECT_FALSE(geo.detected);
  EXPECT_EQ(geo.l1d_bytes, kFallbackL1dBytes);
  EXPECT_EQ(geo.l2_bytes, kFallbackL2Bytes);
  EXPECT_EQ(geo.llc_bytes, kFallbackLlcBytes);
  EXPECT_EQ(geo.line_bytes, kCacheLineBytes);
}

TEST(CacheGeometryTest, ParsesSyntheticTree) {
  SyntheticSysfs fs("cache_geo_ok");
  fs.AddIndex(0, "Data", "1", "48K", "64");
  fs.AddIndex(1, "Instruction", "1", "32K", "64");  // skipped: not data
  fs.AddIndex(2, "Unified", "2", "2048K", "64");
  fs.AddIndex(3, "Unified", "3", "16M", "64");
  CacheGeometry geo = CacheGeometry::Detect(fs.root());
  EXPECT_TRUE(geo.detected);
  EXPECT_EQ(geo.l1d_bytes, 48u * 1024);
  EXPECT_EQ(geo.l2_bytes, 2048u * 1024);
  EXPECT_EQ(geo.llc_bytes, 16u * 1024 * 1024);
  EXPECT_EQ(geo.line_bytes, 64u);
}

TEST(CacheGeometryTest, NoL2UsesDeepestLevelForBoth) {
  // Two-level hierarchy (embedded-style): the deepest cache serves as both
  // the L2 stand-in and the LLC.
  SyntheticSysfs fs("cache_geo_two_level");
  fs.AddIndex(0, "Data", "1", "32K", "64");
  fs.AddIndex(1, "Unified", "3", "4M", "64");
  CacheGeometry geo = CacheGeometry::Detect(fs.root());
  EXPECT_TRUE(geo.detected);
  EXPECT_EQ(geo.l2_bytes, 4u * 1024 * 1024);
  EXPECT_EQ(geo.llc_bytes, 4u * 1024 * 1024);
}

TEST(CacheGeometryTest, MalformedSizeFallsBackWholesale) {
  // A bad level must not mix detected and default values.
  SyntheticSysfs fs("cache_geo_bad");
  fs.AddIndex(0, "Data", "1", "not-a-size", "64");
  fs.AddIndex(1, "Unified", "2", "1M", "64");
  CacheGeometry geo = CacheGeometry::Detect(fs.root());
  EXPECT_FALSE(geo.detected);
  EXPECT_EQ(geo.l1d_bytes, kFallbackL1dBytes);
  EXPECT_EQ(geo.l2_bytes, kFallbackL2Bytes);
}

TEST(NumaTopologyTest, FallbackIsOneDomainOfAvailableCpus) {
  NumaTopology topo = NumaTopology::Fallback();
  EXPECT_FALSE(topo.detected);
  ASSERT_EQ(topo.num_domains(), 1u);
  EXPECT_EQ(topo.total_cpus(), AvailableCpus().size());
}

TEST(NumaTopologyTest, MissingNodeTreeFallsBack) {
  NumaTopology topo = NumaTopology::Detect(testing::TempDir() + "/no_such_node_tree");
  EXPECT_FALSE(topo.detected);
  EXPECT_EQ(topo.num_domains(), 1u);
}

NumaTopology MakeTopology(std::vector<std::vector<int>> domains) {
  NumaTopology topo;
  topo.domain_cpus = std::move(domains);
  topo.detected = true;
  return topo;
}

TEST(WorkerPlanTest, SingleCpuRunsEverythingInline) {
  WorkerPlan plan = PlanWorkers(MakeTopology({{0}}), 4, 8, true);
  EXPECT_FALSE(plan.parallel_nodes);
  EXPECT_EQ(plan.workers_per_node, 0u);
  EXPECT_TRUE(plan.driver_cpus.empty());
}

TEST(WorkerPlanTest, TwoDomainsSplitContiguouslyAmongNodes) {
  // 2 domains x 4 CPUs, 4 logical nodes: nodes round-robin over domains and
  // each gets a 2-CPU slice (1 driver + 1 pool worker).
  WorkerPlan plan =
      PlanWorkers(MakeTopology({{0, 1, 2, 3}, {4, 5, 6, 7}}), 4, 8, true);
  EXPECT_TRUE(plan.parallel_nodes);
  EXPECT_EQ(plan.workers_per_node, 1u);
  ASSERT_EQ(plan.node_cpus.size(), 4u);
  for (const auto& slice : plan.node_cpus) {
    EXPECT_EQ(slice.size(), 2u);
  }
  // Nodes 0/2 land in domain 0, nodes 1/3 in domain 1.
  EXPECT_EQ(plan.node_cpus[0][0], 0);
  EXPECT_EQ(plan.node_cpus[1][0], 4);
  EXPECT_EQ(plan.driver_cpus.size(), 3u);  // one phase driver per extra node
}

TEST(WorkerPlanTest, WorkerRequestIsACeilingNotAFloor) {
  WorkerPlan plan = PlanWorkers(MakeTopology({{0, 1, 2, 3, 4, 5, 6, 7}}), 2, 1, true);
  EXPECT_TRUE(plan.parallel_nodes);
  EXPECT_EQ(plan.workers_per_node, 1u);  // clamped to the request, not the slice
}

TEST(NeighborIndexTest, MatchesCsrExactly) {
  auto edges = GenerateTruncatedPowerLaw(400, 2.0, 4, 60, 17);
  auto graph = Csr<EmptyEdgeData>::FromEdgeList(edges);
  NeighborIndex index = NeighborIndex::Build(graph);
  // Every real edge is present; probing each vertex against a fixed stride of
  // candidate targets exercises plenty of misses too.
  for (vertex_id_t v = 0; v < graph.num_vertices(); ++v) {
    for (const auto& e : graph.Neighbors(v)) {
      EXPECT_TRUE(index.Contains(v, e.neighbor));
    }
    for (vertex_id_t dst = 0; dst < graph.num_vertices(); dst += 7) {
      EXPECT_EQ(index.Contains(v, dst), graph.HasNeighbor(v, dst))
          << "v=" << v << " dst=" << dst;
    }
  }
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(TopologyScheduleTest, SameWalksAsFixedSchedule) {
  // The topology schedule only re-plans thread counts and binding; walk
  // output must match the fixed inline schedule byte for byte, and the
  // engine must report a usable effective configuration.
  auto edges = GenerateTruncatedPowerLaw(400, 2.0, 4, 60, 19);
  Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 10};
  std::vector<std::vector<std::vector<vertex_id_t>>> results;
  for (WorkerSchedule schedule : {WorkerSchedule::kFixed, WorkerSchedule::kTopology}) {
    WalkEngineOptions opts;
    opts.num_nodes = 4;
    opts.worker_schedule = schedule;
    if (schedule == WorkerSchedule::kTopology) {
      opts.workers_per_node = 4;  // ceiling; the planner may clamp to 0
      opts.parallel_nodes = true;
    }
    opts.collect_paths = true;
    opts.seed = 23;
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
    engine.Run(Node2VecTransition(engine.graph(), params), Node2VecWalkers(300, params));
    EXPECT_LE(engine.effective_workers_per_node(),
              schedule == WorkerSchedule::kTopology ? 4u : 0u);
    results.push_back(engine.TakePaths());
  }
  EXPECT_EQ(results[0], results[1]);
}

}  // namespace
}  // namespace knightking
