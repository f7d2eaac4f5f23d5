// Tests for engine infrastructure features: the mailbox transport, parallel
// node execution, the on_move state hook, phase timing, path I/O, batch
// sort modes, and the non-backtracking walk app.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/apps/deepwalk.h"
#include "src/apps/no_return.h"
#include "src/apps/node2vec.h"
#include "src/engine/mailbox.h"
#include "src/engine/path_io.h"
#include "src/engine/walk_engine.h"
#include "src/graph/annotate.h"
#include "src/graph/csr.h"
#include "src/graph/delta_store.h"
#include "src/graph/generators.h"
#include "src/testing/fault_injector.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace knightking {
namespace {

TEST(MailboxTest, DeliversBatchesToDestination) {
  Mailbox<int> mail(3);
  mail.Post(0, 2, std::vector<int>{1, 2, 3});
  mail.Post(1, 2, std::vector<int>{4});
  mail.Post(2, 2, std::vector<int>{5});
  mail.Post(0, 1, std::vector<int>{9});
  mail.Exchange();
  auto& inbox2 = mail.Inbox(2);
  EXPECT_EQ(inbox2.size(), 5u);
  EXPECT_EQ(std::multiset<int>(inbox2.begin(), inbox2.end()),
            (std::multiset<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(mail.Inbox(1).size(), 1u);
  EXPECT_TRUE(mail.Inbox(0).empty());
}

TEST(MailboxTest, ExchangeClearsOutgoing) {
  Mailbox<int> mail(2);
  mail.Post(0, 1, 7);
  mail.Exchange();
  EXPECT_EQ(mail.Inbox(1).size(), 1u);
  mail.Exchange();
  EXPECT_TRUE(mail.Inbox(1).empty());  // nothing pending second time
}

TEST(MailboxTest, CountsOnlyCrossNodeTraffic) {
  Mailbox<uint64_t> mail(2);
  mail.Post(0, 0, std::vector<uint64_t>{1, 2});  // self: not counted
  mail.Post(0, 1, std::vector<uint64_t>{3, 4, 5});
  mail.Exchange();
  EXPECT_EQ(mail.cross_node_messages(), 3u);
  EXPECT_EQ(mail.cross_node_bytes(), 3 * sizeof(uint64_t));
  mail.ResetCounters();
  EXPECT_EQ(mail.cross_node_messages(), 0u);
}

TEST(MailboxTest, ConcurrentPostsAreSafe) {
  Mailbox<size_t> mail(4);
  ThreadPool pool(4);
  pool.ParallelFor(10000, 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      mail.Post(static_cast<node_rank_t>(i % 4), static_cast<node_rank_t>(i % 3), i);
    }
  });
  mail.Exchange();
  size_t total = 0;
  std::set<size_t> seen;
  for (node_rank_t d = 0; d < 4; ++d) {
    for (size_t v : mail.Inbox(d)) {
      seen.insert(v);
      ++total;
    }
  }
  EXPECT_EQ(total, 10000u);
  EXPECT_EQ(seen.size(), 10000u);  // no loss, no duplication
}

TEST(ParallelNodesTest, PathsIdenticalToSequentialDriver) {
  auto graph = GenerateTruncatedPowerLaw(400, 2.0, 4, 80, 17);
  Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 10};
  std::vector<std::vector<std::vector<vertex_id_t>>> results;
  for (bool parallel : {false, true}) {
    WalkEngineOptions opts;
    opts.num_nodes = 4;
    opts.parallel_nodes = parallel;
    opts.collect_paths = true;
    opts.seed = 11;
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(graph), opts);
    engine.Run(Node2VecTransition(engine.graph(), params), Node2VecWalkers(300, params));
    results.push_back(engine.TakePaths());
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(OnMoveHookTest, AccumulatesTraversedWeights) {
  struct SumState {
    double weight_sum = 0.0;
  };
  auto weighted = AssignUniformWeights(GenerateUniformDegree(100, 6, 3), 1.0f, 5.0f, 9);
  WalkEngineOptions opts;
  opts.collect_paths = true;
  WalkEngine<WeightedEdgeData, SumState> engine(Csr<WeightedEdgeData>::FromEdgeList(weighted),
                                                opts);
  // Track the sum of traversed edge weights per walker, and check the final
  // value against the recorded path.
  std::vector<double> final_sums(50, 0.0);
  TransitionSpec<WeightedEdgeData, SumState> transition;
  transition.on_move = [&final_sums](Walker<SumState>& w, vertex_id_t,
                                     const AdjUnit<WeightedEdgeData>& e) {
    w.state.weight_sum += static_cast<double>(e.data.weight);
    final_sums[w.id] = w.state.weight_sum;
  };
  WalkerSpec<SumState> walkers;
  walkers.num_walkers = 50;
  walkers.max_steps = 12;
  engine.Run(transition, walkers);
  auto paths = engine.TakePaths();
  const auto& g = engine.graph();
  for (walker_id_t i = 0; i < 50; ++i) {
    double expected = 0.0;
    for (size_t k = 0; k + 1 < paths[i].size(); ++k) {
      auto idx = g.FindNeighbor(paths[i][k], paths[i][k + 1]);
      ASSERT_TRUE(idx.has_value());
      expected += static_cast<double>(g.Neighbors(paths[i][k])[*idx].data.weight);
    }
    EXPECT_NEAR(final_sums[i], expected, 1e-4) << "walker " << i;
  }
}

TEST(PhaseTimesTest, SecondOrderRunPopulatesAllPhases) {
  auto graph = GenerateUniformDegree(300, 10, 5);
  WalkEngineOptions opts;
  opts.num_nodes = 3;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(graph), opts);
  Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 20};
  engine.Run(Node2VecTransition(engine.graph(), params), Node2VecWalkers(300, params));
  const EnginePhaseTimes& t = engine.phase_times();
  EXPECT_GT(t.prepare, 0.0);
  EXPECT_GT(t.deploy, 0.0);
  EXPECT_GT(t.sample, 0.0);
  EXPECT_GT(t.respond, 0.0);
  EXPECT_GT(t.resolve, 0.0);
  EXPECT_GT(t.exchange, 0.0);
}

TEST(PhaseTimesTest, StaticRunHasNoQueryPhases) {
  auto graph = GenerateUniformDegree(300, 10, 6);
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(graph),
                                   WalkEngineOptions{});
  WalkerSpec<> walkers;
  walkers.num_walkers = 100;
  walkers.max_steps = 10;
  engine.Run(TransitionSpec<EmptyEdgeData>{}, walkers);
  const EnginePhaseTimes& t = engine.phase_times();
  EXPECT_GT(t.sample, 0.0);
  EXPECT_EQ(t.respond, 0.0);
  EXPECT_EQ(t.resolve, 0.0);
}

TEST(NoReturnWalkTest, NeverBacktracks) {
  auto graph = GenerateUniformDegree(300, 8, 9);
  WalkEngineOptions opts;
  opts.collect_paths = true;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(graph), opts);
  NoReturnParams params{.walk_length = 30};
  SamplingStats stats =
      engine.Run(NoReturnTransition<EmptyEdgeData>(), NoReturnWalkers(300, params));
  EXPECT_EQ(stats.queries_remote + stats.queries_local, 0u);  // locally decidable
  for (const auto& path : engine.TakePaths()) {
    for (size_t k = 2; k < path.size(); ++k) {
      EXPECT_NE(path[k], path[k - 2]) << "backtracked at step " << k;
    }
  }
}

TEST(NoReturnWalkTest, DeadEndsAtDegreeOneVertex) {
  // Path graph 0 - 1 - 2: a walker at an endpoint can only backtrack.
  EdgeList<EmptyEdgeData> list;
  list.num_vertices = 3;
  list.edges = {{0, 1, {}}, {1, 0, {}}, {1, 2, {}}, {2, 1, {}}};
  WalkEngineOptions opts;
  opts.collect_paths = true;
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(list), opts);
  NoReturnParams params{.walk_length = 10};
  WalkerSpec<> walkers = NoReturnWalkers(20, params);
  walkers.start_vertex = [](walker_id_t, Rng&) { return vertex_id_t{1}; };
  engine.Run(NoReturnTransition<EmptyEdgeData>(), walkers);
  for (const auto& path : engine.TakePaths()) {
    // 1 -> (0 or 2), then stuck: exactly 2 stops.
    ASSERT_EQ(path.size(), 2u);
    EXPECT_TRUE(path[1] == 0 || path[1] == 2);
  }
}

TEST(NoReturnWalkTest, UniformOverNonReturnEdges) {
  // Star-plus-ring so vertex 0 has known neighbors; from (prev=1, cur=0) the
  // walk picks uniformly among N(0) \ {1}.
  auto graph = GenerateUniformDegree(100, 9, 10);
  auto csr = Csr<EmptyEdgeData>::FromEdgeList(graph);
  WalkEngineOptions opts;
  opts.collect_paths = true;
  WalkEngine<EmptyEdgeData> engine(std::move(csr), opts);
  NoReturnParams params{.walk_length = 2};
  WalkerSpec<> walkers = NoReturnWalkers(40000, params);
  walkers.start_vertex = [](walker_id_t, Rng&) { return vertex_id_t{0}; };
  engine.Run(NoReturnTransition<EmptyEdgeData>(), walkers);
  const auto& g = engine.graph();
  // Condition on first hop = smallest neighbor of 0.
  vertex_id_t mid = g.Neighbors(0)[0].neighbor;
  std::map<vertex_id_t, size_t> index;
  std::vector<double> weights;
  for (const auto& adj : g.Neighbors(mid)) {
    index[adj.neighbor] = weights.size();
    weights.push_back(adj.neighbor == 0 ? 0.0 : 1.0);
  }
  std::vector<uint64_t> counts(weights.size(), 0);
  for (const auto& path : engine.TakePaths()) {
    if (path.size() == 3 && path[1] == mid) {
      ++counts[index.at(path[2])];
    }
  }
  ExpectChiSquareOk(counts, weights);
}

TEST(PathIoTest, TextWriteProducesOneLinePerWalk) {
  std::vector<std::vector<vertex_id_t>> paths = {{1, 2, 3}, {4}, {5, 6}};
  std::string file = testing::TempDir() + "/corpus.txt";
  ASSERT_TRUE(WritePathsText(paths, file));
  std::FILE* f = std::fopen(file.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[64];
  int lines = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++lines;
  }
  std::fclose(f);
  EXPECT_EQ(lines, 3);
  std::remove(file.c_str());
}

TEST(PathIoTest, BinaryRoundTrip) {
  std::vector<std::vector<vertex_id_t>> paths = {{1, 2, 3}, {}, {7, 8}, {42}};
  std::string file = testing::TempDir() + "/corpus.bin";
  ASSERT_TRUE(WritePathsBinary(paths, file));
  std::vector<std::vector<vertex_id_t>> loaded;
  ASSERT_TRUE(ReadPathsBinary(file, &loaded));
  EXPECT_EQ(loaded, paths);
  std::remove(file.c_str());
}

TEST(PathIoTest, ReadRejectsGarbage) {
  std::string file = testing::TempDir() + "/garbage.bin";
  std::FILE* f = std::fopen(file.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a corpus", f);
  std::fclose(f);
  std::vector<std::vector<vertex_id_t>> loaded;
  EXPECT_FALSE(ReadPathsBinary(file, &loaded));
  std::remove(file.c_str());
}

// Every tested mutation of a valid corpus file must be rejected cleanly —
// in particular oversized declared counts must fail size validation before
// any allocation is attempted.
TEST(PathIoTest, CorruptBinaryCorpusIsRejected) {
  std::vector<std::vector<vertex_id_t>> paths = {{1, 2, 3}, {4, 5}, {6}};
  std::string base = testing::TempDir() + "/corrupt_base.bin";
  ASSERT_TRUE(WritePathsBinary(paths, base));
  std::string valid;
  {
    std::FILE* f = std::fopen(base.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[256];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      valid.append(buf, n);
    }
    std::fclose(f);
  }
  std::remove(base.c_str());
  ASSERT_GT(valid.size(), 24u);

  // Layout: magic u64 @0, walk count u64 @8, first walk length u64 @16.
  std::string bad_magic = valid;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x01);
  std::string huge_count = valid;
  std::string huge_walk_len = valid;
  for (size_t i = 0; i < 8; ++i) {
    huge_count[8 + i] = static_cast<char>(0xff);
    huge_walk_len[16 + i] = static_cast<char>(0xff);
  }
  const struct {
    const char* name;
    std::string data;
  } mutations[] = {
      {"bad_magic", bad_magic},
      {"truncated_header", valid.substr(0, 12)},
      {"huge_declared_count", huge_count},
      {"huge_walk_length", huge_walk_len},
      {"truncated_payload", valid.substr(0, valid.size() - 5)},
      {"trailing_garbage", valid + "junk"},
      {"empty_file", std::string()},
  };
  for (const auto& m : mutations) {
    SCOPED_TRACE(m.name);
    std::string file = testing::TempDir() + "/corrupt_" + m.name + ".bin";
    std::FILE* f = std::fopen(file.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(m.data.data(), 1, m.data.size(), f), m.data.size());
    ASSERT_EQ(std::fclose(f), 0);
    std::vector<std::vector<vertex_id_t>> loaded = {{99}};
    EXPECT_FALSE(ReadPathsBinary(file, &loaded));
    EXPECT_TRUE(loaded.empty()) << "failed read must not leave partial walks";
    std::remove(file.c_str());
  }
}

// Unwritable destinations surface as a clean false from both writers
// instead of a silently truncated file.
TEST(PathIoTest, WriteToUnwritablePathFails) {
  std::vector<std::vector<vertex_id_t>> paths = {{1, 2, 3}};
  std::string dir = testing::TempDir();  // a directory, not a file
  EXPECT_FALSE(WritePathsText(paths, dir));
  EXPECT_FALSE(WritePathsBinary(paths, dir));
  std::string missing_parent = testing::TempDir() + "/no_such_dir/corpus.bin";
  EXPECT_FALSE(WritePathsBinary(paths, missing_parent));
}

TEST(PathIoTest, ReadMissingFileFails) {
  std::vector<std::vector<vertex_id_t>> loaded = {{1}};
  EXPECT_FALSE(ReadPathsBinary(testing::TempDir() + "/does_not_exist.bin", &loaded));
  EXPECT_TRUE(loaded.empty());
}

TEST(PathIoTest, CorpusStats) {
  std::vector<std::vector<vertex_id_t>> paths = {{1, 2, 3}, {4}, {5, 6}};
  CorpusStats stats = ComputeCorpusStats(paths);
  EXPECT_EQ(stats.walks, 3u);
  EXPECT_EQ(stats.stops, 6u);
  EXPECT_EQ(stats.min_length, 1u);
  EXPECT_EQ(stats.max_length, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_length, 2.0);
}

TEST(PathIoTest, EmptyCorpus) {
  std::vector<std::vector<vertex_id_t>> paths;
  CorpusStats stats = ComputeCorpusStats(paths);
  EXPECT_EQ(stats.walks, 0u);
  EXPECT_EQ(stats.min_length, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_length, 0.0);
}


TEST(BatchSortModeTest, PathEntriesIdenticalAcrossSortModesWorkersAndFaults) {
  // The locality pass is a pure processing-order change: TakePathEntries()
  // must be byte-identical across the whole matrix — auto vs forced vs no
  // grouping, with and without per-node worker pools, and with the fault
  // injector attached (which drives the same slot-keyed query protocol
  // through re-issues and stale answers).
  auto graph = GenerateTruncatedPowerLaw(500, 2.0, 4, 80, 29);
  Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 12};
  std::vector<PathEntry> reference;
  for (BatchSortMode sort : {BatchSortMode::kAlways, BatchSortMode::kNever, BatchSortMode::kAuto}) {
    for (size_t workers : {size_t{0}, size_t{4}}) {
      for (bool faulted : {false, true}) {
        FaultPolicy policy;
        policy.drop = 0.1;
        policy.delay = 0.1;
        policy.seed = 43;
        FaultInjector injector(policy);
        WalkEngineOptions opts;
        opts.num_nodes = 4;
        opts.workers_per_node = workers;
        opts.parallel_nodes = workers > 0;
        opts.sort_batches = sort;
        opts.collect_paths = true;
        opts.seed = 41;
        if (faulted) {
          opts.fault_injector = &injector;
        }
        WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(graph), opts);
        engine.Run(Node2VecTransition(engine.graph(), params), Node2VecWalkers(400, params));
        std::vector<PathEntry> entries = engine.TakePathEntries();
        ASSERT_FALSE(entries.empty());
        if (reference.empty()) {
          reference = std::move(entries);
        } else {
          EXPECT_EQ(entries, reference) << "sort=" << static_cast<int>(sort)
                                        << " workers=" << workers << " faulted=" << faulted;
        }
      }
    }
  }
}

TEST(BatchSortModeTest, PathEntriesIdenticalOverMutatedRows) {
  // Walkers that sit on dirty overlay rows group exactly like clean ones: a
  // weighted DeepWalk beside a log that inserts, deletes and reweights across
  // supersteps walks byte-identically with forced and disabled grouping.
  auto edges = AssignPowerLawWeights(GenerateTruncatedPowerLaw(400, 2.0, 4, 60, 31), 8.0f, 2.0, 37);
  const auto base = Csr<WeightedEdgeData>::FromEdgeList(edges);
  MutationLog log(/*seed=*/53);
  auto op = [](MutationOp kind, vertex_id_t src, vertex_id_t dst, real_t weight) {
    return EdgeMutation{.src = src, .dst = dst, .weight = weight, .op = kind};
  };
  log.Append(1, {op(MutationOp::kInsert, 0, 200, 3.0f), op(MutationOp::kInsert, 7, 300, 0.5f),
                 op(MutationOp::kReweight, 0, base.Neighbors(0)[0].neighbor, 6.0f)});
  log.Append(3, {op(MutationOp::kDelete, 7, base.Neighbors(7)[0].neighbor, 0.0f),
                 op(MutationOp::kInsert, 200, 0, 2.0f),
                 op(MutationOp::kReweight, 0, 200, 0.25f)});
  log.Append(5, {op(MutationOp::kDelete, 0, 200, 0.0f), op(MutationOp::kInsert, 300, 7, 1.5f)});
  std::vector<PathEntry> reference;
  for (BatchSortMode sort : {BatchSortMode::kAlways, BatchSortMode::kNever}) {
    for (size_t workers : {size_t{0}, size_t{4}}) {
      WalkEngineOptions opts;
      opts.num_nodes = 4;
      opts.workers_per_node = workers;
      opts.sort_batches = sort;
      opts.mutation_log = &log;
      opts.collect_paths = true;
      opts.seed = 47;
      WalkEngine<WeightedEdgeData> engine(base, opts);
      engine.Run(DeepWalkTransition<WeightedEdgeData>(), DeepWalkWalkers(400, {.walk_length = 12}));
      EXPECT_GT(engine.mutation_counters().rows_materialized, 0u);
      uint64_t sorts = 0;
      for (node_rank_t n = 0; n < opts.num_nodes; ++n) {
        sorts += engine.node_observability(n).batch_sorts;
      }
      if (obs::kObsEnabled && sort == BatchSortMode::kAlways) {
        EXPECT_GT(sorts, 0u);
      }
      std::vector<PathEntry> entries = engine.TakePathEntries();
      ASSERT_FALSE(entries.empty());
      if (reference.empty()) {
        reference = std::move(entries);
      } else {
        EXPECT_EQ(entries, reference)
            << "sort=" << static_cast<int>(sort) << " workers=" << workers;
      }
    }
  }
}

TEST(ParallelNodesTest, CombinedConcurrencyModesMatchSequential) {
  // Everything at once: parallel node threads, per-node worker pools, light
  // mode, second-order queries. Must be bit-identical to the plain driver.
  auto graph = GenerateTruncatedPowerLaw(600, 2.0, 4, 100, 23);
  Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 15};
  std::vector<std::vector<std::vector<vertex_id_t>>> results;
  for (int mode = 0; mode < 2; ++mode) {
    WalkEngineOptions opts;
    opts.num_nodes = 4;
    opts.parallel_nodes = mode == 1;
    opts.workers_per_node = mode == 1 ? 3 : 0;
    opts.enable_light_mode = mode == 1;
    opts.light_mode_threshold = 50;
    opts.collect_paths = true;
    opts.seed = 31;
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(graph), opts);
    engine.Run(Node2VecTransition(engine.graph(), params), Node2VecWalkers(500, params));
    results.push_back(engine.TakePaths());
  }
  EXPECT_EQ(results[0], results[1]);
}

}  // namespace
}  // namespace knightking
