// Tests for the cache-locality layer: cache-geometry detection and the
// neighbor-existence index.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/neighbor_index.h"
#include "src/util/cache_geometry.h"

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

// Every real edge is present, and probing each vertex against a fixed stride
// of candidate targets (all of them from `hub`) exercises plenty of misses.
void ExpectIndexMatchesCsr(const Csr<EmptyEdgeData>& graph, vertex_id_t stride,
                           vertex_id_t hub) {
  NeighborIndex index = NeighborIndex::Build(graph);
  for (vertex_id_t v = 0; v < graph.num_vertices(); ++v) {
    for (const auto& e : graph.Neighbors(v)) {
      ASSERT_TRUE(index.Contains(v, e.neighbor)) << "v=" << v << " dst=" << e.neighbor;
    }
    const vertex_id_t step = v == hub ? 1 : stride;
    for (vertex_id_t dst = 0; dst < graph.num_vertices(); dst += step) {
      ASSERT_EQ(index.Contains(v, dst), graph.HasNeighbor(v, dst))
          << "v=" << v << " dst=" << dst;
    }
  }
  EXPECT_GT(index.MemoryBytes(), 0u);
}

vertex_id_t MaxDegreeVertex(const Csr<EmptyEdgeData>& graph) {
  vertex_id_t hub = 0;
  for (vertex_id_t v = 1; v < graph.num_vertices(); ++v) {
    if (graph.OutDegree(v) > graph.OutDegree(hub)) {
      hub = v;
    }
  }
  return hub;
}

TEST(NeighborIndexTest, MatchesCsrExactly) {
  auto small = Csr<EmptyEdgeData>::FromEdgeList(GenerateTruncatedPowerLaw(400, 2.0, 4, 60, 17));
  ExpectIndexMatchesCsr(small, 7, MaxDegreeVertex(small));

  // Hub rows put thousands of keys with one source into the table, the
  // longest linear-probe chains node2vec meets on skewed graphs.
  auto star = Csr<EmptyEdgeData>::FromEdgeList(GenerateHotspot(6000, 4, 1, 5000, 23));
  const vertex_id_t star_hub = MaxDegreeVertex(star);
  ASSERT_GE(star.OutDegree(star_hub), 4096u);
  ExpectIndexMatchesCsr(star, 61, star_hub);

  auto skewed =
      Csr<EmptyEdgeData>::FromEdgeList(GenerateTruncatedPowerLaw(20000, 2.0, 4, 10000, 29));
  const vertex_id_t skewed_hub = MaxDegreeVertex(skewed);
  ASSERT_GE(skewed.OutDegree(skewed_hub), 1000u);
  ExpectIndexMatchesCsr(skewed, 997, skewed_hub);
}

}  // namespace
}  // namespace knightking
