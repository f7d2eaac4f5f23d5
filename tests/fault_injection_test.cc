// Fault-injection tests: walks must complete *exactly* despite dropped,
// delayed, duplicated, and reordered messages on the simulated network.
//
// The strongest assertion available — and the one used throughout — is
// bit-identical equality with the fault-free run under the same seed: every
// random decision lives in the walker's own RNG stream and retransmits carry
// the walker's exact state, so the reliability protocol must reproduce the
// unfaulted walk, not merely *a* valid walk. Weaker structural properties
// (per-walker step contiguity/monotonicity, exact walk lengths, no
// double-walk) are asserted independently so a failure localizes.
//
// The CI deterministic-sim job runs this binary under TSan with
// KK_SIM_WORKERS=4 to put worker-pool scheduling under the same scrutiny.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/apps/deepwalk.h"
#include "src/apps/metapath.h"
#include "src/apps/node2vec.h"
#include "src/apps/ppr.h"
#include "src/engine/walk_engine.h"
#include "src/graph/annotate.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/testing/fault_injector.h"

namespace knightking {
namespace {

constexpr uint64_t kSeed = 77;

// Worker threads per node; CI overrides via KK_SIM_WORKERS to exercise the
// pool under sanitizers.
size_t WorkersFromEnv() {
  const char* env = std::getenv("KK_SIM_WORKERS");
  return env != nullptr ? static_cast<size_t>(std::atoi(env)) : 0;
}

WalkEngineOptions BaseOptions(node_rank_t num_nodes) {
  WalkEngineOptions opts;
  opts.num_nodes = num_nodes;
  opts.workers_per_node = WorkersFromEnv();
  opts.collect_paths = true;
  opts.seed = kSeed;
  return opts;
}

// Asserts the canonical per-walker invariants on raw path entries: steps
// start at 0 and are contiguous (no skipped or repeated step — a duplicate
// that slipped past dedup would re-record an existing step).
void ExpectMonotonicContiguousSteps(const std::vector<PathEntry>& entries) {
  walker_id_t walker = kInvalidWalker;
  step_t expected_step = 0;
  for (const PathEntry& e : entries) {
    if (e.walker != walker) {
      walker = e.walker;
      expected_step = 0;
    }
    ASSERT_EQ(e.step, expected_step) << "walker " << e.walker;
    ++expected_step;
  }
}

template <typename EdgeData, typename WalkerState, typename QueryResponse,
          typename SpecFn, typename WalkerSpecT>
void ExpectFaultedRunMatchesFaultFree(const EdgeList<EdgeData>& edges,
                                      const SpecFn& make_spec, const WalkerSpecT& walkers,
                                      const FaultPolicy& policy, node_rank_t num_nodes,
                                      SamplingStats* faulted_stats = nullptr) {
  using EngineT = WalkEngine<EdgeData, WalkerState, QueryResponse>;
  std::vector<PathEntry> reference;
  SamplingStats clean_stats;
  {
    EngineT engine(Csr<EdgeData>::FromEdgeList(edges), BaseOptions(num_nodes));
    clean_stats = engine.Run(make_spec(engine.graph()), walkers);
    reference = engine.TakePathEntries();
  }
  ASSERT_FALSE(reference.empty());
  ExpectMonotonicContiguousSteps(reference);

  FaultInjector injector(policy);
  WalkEngineOptions opts = BaseOptions(num_nodes);
  opts.fault_injector = &injector;
  EngineT engine(Csr<EdgeData>::FromEdgeList(edges), opts);
  SamplingStats stats = engine.Run(make_spec(engine.graph()), walkers);
  std::vector<PathEntry> faulted = engine.TakePathEntries();

  ExpectMonotonicContiguousSteps(faulted);
  EXPECT_EQ(faulted, reference) << "faulted walk diverged from fault-free walk";
  EXPECT_EQ(stats.steps, clean_stats.steps);

  FaultCounters c = injector.counters();
  if (policy.drop > 0.0) {
    EXPECT_GT(c.dropped, 0u) << "drop policy never fired; test is vacuous";
    EXPECT_GT(stats.walker_retransmits + stats.query_retries, 0u);
  }
  if (policy.delay > 0.0) {
    EXPECT_GT(c.delayed, 0u) << "delay policy never fired; test is vacuous";
  }
  if (policy.duplicate > 0.0) {
    EXPECT_GT(c.duplicated, 0u) << "duplicate policy never fired; test is vacuous";
    EXPECT_GT(stats.duplicates_suppressed + stats.stale_responses, 0u);
  }
  if (faulted_stats != nullptr) {
    *faulted_stats = stats;
  }
}

FaultPolicy AcceptancePolicy() {
  // The ISSUE acceptance point: 10% drop + 10% delay.
  FaultPolicy policy;
  policy.drop = 0.1;
  policy.delay = 0.1;
  return policy;
}

TEST(FaultInjectionTest, DeepWalkSurvivesDropAndDelay) {
  auto edges = GenerateUniformDegree(200, 8, 201);
  DeepWalkParams params{.walk_length = 20};
  ExpectFaultedRunMatchesFaultFree<EmptyEdgeData, EmptyWalkerState, uint8_t>(
      edges, [](const auto&) { return DeepWalkTransition<EmptyEdgeData>(); },
      DeepWalkWalkers(150, params), AcceptancePolicy(), 4);
}

TEST(FaultInjectionTest, PprSurvivesDropAndDelay) {
  auto edges = GenerateUniformDegree(200, 8, 202);
  PprParams params{.terminate_prob = 1.0 / 20.0};
  ExpectFaultedRunMatchesFaultFree<EmptyEdgeData, EmptyWalkerState, uint8_t>(
      edges, [](const auto&) { return PprTransition<EmptyEdgeData>(); },
      PprWalkers(150, params), AcceptancePolicy(), 4);
}

TEST(FaultInjectionTest, MetaPathSurvivesDropAndDelay) {
  auto edges = AssignEdgeTypes(GenerateUniformDegree(200, 12, 203), 3, 7);
  MetaPathParams params;
  params.schemes = {{0, 1, 2}, {2, 0, 1}};
  params.walk_length = 12;
  ExpectFaultedRunMatchesFaultFree<TypedEdgeData, MetaPathWalkerState, uint8_t>(
      edges, [&](const auto&) { return MetaPathTransition<TypedEdgeData>(params); },
      MetaPathWalkers(150, params), AcceptancePolicy(), 4);
}

TEST(FaultInjectionTest, Node2VecSurvivesDropAndDelay) {
  auto edges = GenerateUniformDegree(200, 8, 204);
  Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 12};
  ExpectFaultedRunMatchesFaultFree<EmptyEdgeData, EmptyWalkerState, uint8_t>(
      edges, [&](const auto& g) { return Node2VecTransition(g, params); },
      Node2VecWalkers(120, params), AcceptancePolicy(), 4);
}

// Second-order two-round queries under faults on *every* mailbox: each
// remote adjacency check crosses the faulty network twice, and at least one
// query must have been re-issued.
TEST(FaultInjectionTest, Node2VecRemoteQueriesUnderAllFaultKinds) {
  auto edges = GenerateUniformDegree(150, 8, 205);
  Node2VecParams params{.p = 0.25, .q = 4.0, .walk_length = 10};
  FaultPolicy policy;
  policy.drop = 0.08;
  policy.delay = 0.08;
  policy.duplicate = 0.08;
  policy.reorder = true;
  SamplingStats stats;
  ExpectFaultedRunMatchesFaultFree<EmptyEdgeData, EmptyWalkerState, uint8_t>(
      edges, [&](const auto& g) { return Node2VecTransition(g, params); },
      Node2VecWalkers(100, params), policy, 4, &stats);
  EXPECT_GT(stats.queries_remote, 0u);
  EXPECT_GT(stats.query_retries, 0u) << "no query was re-issued; the faulty query path is idle";
}

// Sweep the 1%–20% rate range of the issue per fault kind.
TEST(FaultInjectionTest, RateSweepPerFaultKind) {
  auto edges = GenerateUniformDegree(150, 8, 206);
  Node2VecParams params{.p = 0.5, .q = 2.0, .walk_length = 8};
  for (double rate : {0.01, 0.05, 0.1, 0.2}) {
    for (int kind = 0; kind < 3; ++kind) {
      FaultPolicy policy;
      (kind == 0 ? policy.drop : kind == 1 ? policy.delay : policy.duplicate) = rate;
      SCOPED_TRACE("rate=" + std::to_string(rate) + " kind=" + std::to_string(kind));
      ExpectFaultedRunMatchesFaultFree<EmptyEdgeData, EmptyWalkerState, uint8_t>(
          edges, [&](const auto& g) { return Node2VecTransition(g, params); },
          Node2VecWalkers(80, params), policy, 4);
    }
  }
}

// Single-node cluster with include_local: walker moves, acks, state queries
// and their answers all go through the node's faulted local channels, so the
// protocol cannot hide behind the "local messages are exempt" default.
TEST(FaultInjectionTest, SingleNodeWithLocalFaults) {
  auto edges = GenerateUniformDegree(150, 8, 207);
  Node2VecParams params{.p = 2.0, .q = 0.5, .walk_length = 10};
  FaultPolicy policy;
  policy.drop = 0.1;
  policy.delay = 0.1;
  policy.include_local = true;
  SamplingStats stats;
  ExpectFaultedRunMatchesFaultFree<EmptyEdgeData, EmptyWalkerState, uint8_t>(
      edges, [&](const auto& g) { return Node2VecTransition(g, params); },
      Node2VecWalkers(100, params), policy, 1, &stats);
  EXPECT_EQ(stats.queries_local, 0u);
  EXPECT_GT(stats.query_retries, 0u);
  EXPECT_GT(stats.walker_retransmits, 0u);
}

// Reorder alone: inbox shuffling must be invisible in the output even
// without the retry machinery doing any work.
TEST(FaultInjectionTest, ReorderOnly) {
  auto edges = GenerateUniformDegree(200, 8, 208);
  DeepWalkParams params{.walk_length = 15};
  FaultPolicy policy;
  policy.reorder = true;
  ExpectFaultedRunMatchesFaultFree<EmptyEdgeData, EmptyWalkerState, uint8_t>(
      edges, [](const auto&) { return DeepWalkTransition<EmptyEdgeData>(); },
      DeepWalkWalkers(150, params), policy, 8);
}

// Drop, delay and duplicate hit cross-node channels only, so on one node
// without include_local they would silently never fire: ValidateRun refuses
// that configuration and names the switch. Reorder alone, include_local, a
// second node or crash faults alone keep it legal.
TEST(FaultInjectionTest, OneNodeMessageFaultsRequireIncludeLocal) {
  auto edges = GenerateUniformDegree(60, 6, 210);
  const auto transition = DeepWalkTransition<EmptyEdgeData>();
  auto validate = [&](const FaultPolicy& policy, node_rank_t num_nodes, bool crash) {
    FaultInjector injector(policy);
    WalkEngineOptions opts = BaseOptions(num_nodes);
    opts.fault_injector = &injector;
    if (crash) {
      injector.CrashNode(0, 1);
      opts.checkpoint_every = 1;
      opts.checkpoint_path = "unused.ckpt";  // validation never writes it
    }
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
    return engine.ValidateRun(transition);
  };
  for (int kind = 0; kind < 3; ++kind) {
    SCOPED_TRACE("kind=" + std::to_string(kind));
    FaultPolicy policy;
    (kind == 0 ? policy.drop : kind == 1 ? policy.delay : policy.duplicate) = 0.1;
    const std::string err = validate(policy, 1, false);
    EXPECT_NE(err.find("include_local"), std::string::npos) << err;
    EXPECT_EQ(validate(policy, 2, false), "");
    policy.include_local = true;
    EXPECT_EQ(validate(policy, 1, false), "");
  }
  EXPECT_EQ(validate(FaultPolicy{.reorder = true}, 1, false), "");
  EXPECT_EQ(validate(FaultPolicy{}, 1, true), "");
}

// Same fault policy seed => same fault schedule => same counters, across
// repeat runs (the injector is content-keyed, not arrival-order-keyed).
TEST(FaultInjectionTest, FaultScheduleIsReproducible) {
  auto edges = GenerateUniformDegree(150, 8, 209);
  DeepWalkParams params{.walk_length = 15};
  auto run_counters = [&]() {
    FaultPolicy policy;
    policy.drop = 0.1;
    policy.delay = 0.05;
    policy.duplicate = 0.05;
    FaultInjector injector(policy);
    WalkEngineOptions opts = BaseOptions(4);
    opts.fault_injector = &injector;
    WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges), opts);
    engine.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(100, params));
    return injector.counters();
  };
  FaultCounters a = run_counters();
  FaultCounters b = run_counters();
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.duplicated, b.duplicated);
}

// Fault-free runs must not pay for the protocol: no acks, no retransmits,
// and the exact same communication counters as before the subsystem existed.
TEST(FaultInjectionTest, NoInjectorMeansNoProtocolTraffic) {
  auto edges = GenerateUniformDegree(150, 8, 210);
  DeepWalkParams params{.walk_length = 15};
  WalkEngine<EmptyEdgeData> engine(Csr<EmptyEdgeData>::FromEdgeList(edges),
                                   BaseOptions(4));
  SamplingStats stats =
      engine.Run(DeepWalkTransition<EmptyEdgeData>(), DeepWalkWalkers(100, params));
  EXPECT_EQ(stats.walker_retransmits, 0u);
  EXPECT_EQ(stats.query_retries, 0u);
  EXPECT_EQ(stats.duplicates_suppressed, 0u);
  EXPECT_EQ(stats.stale_responses, 0u);
  EXPECT_EQ(stats.walker_moves_remote, engine.cross_node_messages());
}

TEST(FaultInjectionTest, PolicyValidatesProbabilities) {
  FaultPolicy policy;
  policy.drop = 0.7;
  policy.delay = 0.7;
  EXPECT_DEATH(FaultInjector{policy}, "");
}

}  // namespace
}  // namespace knightking
