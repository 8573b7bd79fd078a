// Partitioned execution plane suite (ISSUE 9 tentpole proof). Covers:
//  - partitioner determinism: same (graph, num_parts, seed) produces a
//    byte-identical PartitionPlan across repeated runs and kernel thread
//    counts, and a different seed changes the assignment;
//  - partition quality invariants: every part non-empty, balance within
//    the configured epsilon (plus the rounding slack of FillEmptyParts),
//    cut fraction in [0, 1];
//  - edge cases: P=1 identity plan with a no-exchange fast path, P > n
//    rejected with InvalidArgument, P greater than the number of
//    connected components, a star graph where every edge is cut;
//  - bitwise conformance: PartitionedEngine answers memcmp-identical to a
//    lone InferenceEngine over six synthetic families x {kGcn, kSgc} x
//    P in {1,2,4} x kernel threads in {1,4};
//  - dynamic conformance: after streamed mutation batches ApplyDelta keeps
//    every warmed version bitwise equal to a cold engine on the
//    materialized snapshot graph; a long seeded stream, plain and
//    RCM-reordered, also checks that local ids never move, halo lists
//    stay sorted and the incrementally kept exchange equals a fresh one;
//  - fabric integration: ServePartitioned serves bitwise like the
//    replicated mode, survives a mid-traffic Rollout, routes mutations
//    through the plan, and rejects unsupported model families.
// The suite runs under TSan and ASan in CI.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dyn/mutation.h"
#include "dyn/snapshot.h"
#include "fabric/fabric.h"
#include "graph/reorder.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "nn/linear.h"
#include "partition/halo_exchange.h"
#include "partition/partitioned_engine.h"
#include "partition/partitioner.h"
#include "partition/plan.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ahg::partition {
namespace {

Graph Sbm(uint64_t seed, int num_nodes, int feature_dim = 6,
          double avg_degree = 4.0) {
  SyntheticConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.num_classes = 3;
  cfg.feature_dim = feature_dim;
  cfg.avg_degree = avg_degree;
  cfg.seed = seed;
  return GenerateSbmGraph(cfg);
}

serve::ServableModel MakeServable(const Graph& graph, int version,
                                  ModelFamily family, uint64_t seed) {
  serve::ServableModel model;
  model.version = version;
  model.num_classes = graph.num_classes();
  model.config.family = family;
  model.config.in_dim = graph.feature_dim();
  model.config.hidden_dim = 8;
  model.config.num_layers = 2;
  model.config.seed = seed;
  std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
  Rng head_rng(model.config.seed ^ 0x5ca1ab1eULL);
  Linear head(zoo->params(), model.config.hidden_dim, model.num_classes,
              /*bias=*/true, &head_rng);
  model.params = zoo->params()->Snapshot();
  return model;
}

bool MatricesBitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

std::vector<int> AllNodes(int n) {
  std::vector<int> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

// --- Partitioner -----------------------------------------------------------

TEST(PartitionerTest, DeterministicAcrossRunsAndThreadCounts) {
  Graph graph = Sbm(7, 600);
  PartitionerOptions options;
  options.seed = 42;
  std::string reference;
  for (int threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    for (int run = 0; run < 2; ++run) {
      auto plan = PartitionPlan::Build(graph, 4, options);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const std::string serialized = plan.value().Serialize();
      if (reference.empty()) {
        reference = serialized;
      } else {
        EXPECT_EQ(serialized, reference)
            << "plan bytes differ (threads " << threads << " run " << run
            << ")";
      }
    }
  }
  // A different seed must be able to produce a different assignment.
  PartitionerOptions other;
  other.seed = 43;
  auto replan = PartitionPlan::Build(graph, 4, other);
  ASSERT_TRUE(replan.ok());
  EXPECT_NE(replan.value().Serialize(), reference);
}

TEST(PartitionerTest, PartsAreNonEmptyBalancedAndCutFractionSane) {
  Graph graph = Sbm(11, 800);
  for (int parts : {2, 3, 4, 7}) {
    PartitionMetrics metrics;
    auto assignment = PartitionGraph(graph, parts, PartitionerOptions{},
                                     &metrics);
    ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
    std::vector<int> count(parts, 0);
    for (int p : assignment.value()) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p, parts);
      ++count[p];
    }
    for (int p = 0; p < parts; ++p) {
      EXPECT_GT(count[p], 0) << "part " << p << " of " << parts << " empty";
    }
    EXPECT_GE(metrics.edge_cut_fraction, 0.0);
    EXPECT_LE(metrics.edge_cut_fraction, 1.0);
    EXPECT_GE(metrics.balance_factor, 1.0);
    // balance_factor = P * max_part / n; refinement caps parts at
    // (1 + eps) * ceil(n/P), FillEmptyParts can nudge one past it.
    EXPECT_LE(metrics.balance_factor, 1.0 + 0.1 + 0.05)
        << "parts " << parts;
  }
}

TEST(PartitionerTest, InvalidPartCountsAreRejected) {
  Graph graph = Sbm(13, 24);
  EXPECT_EQ(PartitionGraph(graph, 0, {}).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(PartitionGraph(graph, -2, {}).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(PartitionGraph(graph, 25, {}).status().code(),
            Status::Code::kInvalidArgument);
  // P == n is legal: one node per part.
  auto exact = PartitionGraph(graph, 24, {});
  ASSERT_TRUE(exact.ok());
  std::vector<int> count(24, 0);
  for (int p : exact.value()) ++count[p];
  for (int p = 0; p < 24; ++p) EXPECT_EQ(count[p], 1);
}

TEST(PartitionerTest, MorePartsThanConnectedComponents) {
  // Three disjoint communities, split four ways: the partitioner must not
  // crash or leave a part empty even though no 4-way component split
  // exists.
  SyntheticConfig cfg;
  cfg.num_nodes = 90;
  cfg.num_classes = 3;
  cfg.feature_dim = 4;
  cfg.avg_degree = 4.0;
  cfg.seed = 17;
  cfg.homophily = 1.0;  // all edges intra-class: classes stay disconnected
  Graph graph = GenerateSbmGraph(cfg);
  auto plan = PartitionPlan::Build(graph, 4, PartitionerOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (int p = 0; p < 4; ++p) {
    EXPECT_GT(plan.value().parts[p].num_owned(), 0) << "part " << p;
  }
}

TEST(PartitionPlanTest, SinglePartIsIdentityWithNoHalo) {
  Graph graph = Sbm(19, 120);
  auto plan = PartitionPlan::Build(graph, 1, PartitionerOptions{});
  ASSERT_TRUE(plan.ok());
  const PartitionPlan& p = plan.value();
  EXPECT_EQ(p.num_parts, 1);
  EXPECT_EQ(p.halo_nodes_total, 0);
  EXPECT_EQ(p.metrics.cut_edges, 0);
  EXPECT_EQ(p.parts[0].num_owned(), graph.num_nodes());
  EXPECT_EQ(p.parts[0].num_halo(), 0);
  for (int g = 0; g < graph.num_nodes(); ++g) {
    EXPECT_EQ(p.part_of[g], 0);
    EXPECT_EQ(p.parts[0].locals[g], g);  // identity local numbering
  }
}

TEST(PartitionPlanTest, StarGraphCutsEveryEdge) {
  // K_{1,12}: center 0, leaves 1..12. Center alone on part 0, leaves round
  // robin on parts 1..3: every edge crosses parts.
  std::vector<Edge> edges;
  for (int leaf = 1; leaf <= 12; ++leaf) {
    edges.push_back({0, leaf, 1.0});
  }
  Matrix features(13, 3);
  for (int r = 0; r < 13; ++r) {
    for (int c = 0; c < 3; ++c) features(r, c) = 0.1 * r + c;
  }
  Graph graph = Graph::Create(13, std::move(edges), /*directed=*/false,
                              std::move(features), {}, 2);
  std::vector<int> part_of(13);
  part_of[0] = 0;
  for (int leaf = 1; leaf <= 12; ++leaf) part_of[leaf] = 1 + (leaf - 1) % 3;
  auto plan = PartitionPlan::BuildFromAssignment(graph, part_of, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().metrics.cut_edges, 12);
  EXPECT_DOUBLE_EQ(plan.value().metrics.edge_cut_fraction, 1.0);
  // Part 0 owns the center and needs every leaf as halo; leaf parts need
  // the center.
  EXPECT_EQ(plan.value().parts[0].num_halo(), 12);
  for (int p = 1; p < 4; ++p) {
    EXPECT_EQ(plan.value().parts[p].num_halo(), 1);
    EXPECT_EQ(plan.value().parts[p].halo_globals[0], 0);
  }

  // All-cut is the worst case for the exchange; conformance must hold.
  serve::ServableModel model =
      MakeServable(graph, 1, ModelFamily::kGcn, 23);
  serve::InferenceEngine reference(&graph, serve::EngineOptions{});
  auto expected = reference.PredictAll(model);
  ASSERT_TRUE(expected.ok());
  auto engine =
      PartitionedEngine::CreateFromPlan(graph, std::move(plan).value());
  ASSERT_TRUE(engine.ok());
  auto got = engine.value()->PredictNodes(model, AllNodes(13));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(MatricesBitwiseEqual(got.value(), expected.value()));
}

TEST(PartitionPlanTest, BuildFromAssignmentValidatesInput) {
  Graph graph = Sbm(29, 30);
  EXPECT_EQ(PartitionPlan::BuildFromAssignment(graph, std::vector<int>(29, 0), 2)
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  std::vector<int> out_of_range(30, 0);
  out_of_range[4] = 2;
  EXPECT_EQ(PartitionPlan::BuildFromAssignment(graph, out_of_range, 2)
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  // An empty part is permitted for externally supplied assignments.
  auto lopsided =
      PartitionPlan::BuildFromAssignment(graph, std::vector<int>(30, 1), 2);
  ASSERT_TRUE(lopsided.ok());
  EXPECT_EQ(lopsided.value().parts[0].num_owned(), 0);
  EXPECT_EQ(lopsided.value().parts[1].num_owned(), 30);
}

// --- Bitwise conformance ---------------------------------------------------

TEST(PartitionConformanceTest, BitwiseIdenticalToLoneEngine) {
  struct Family {
    uint64_t graph_seed;
    int num_nodes;
    int feature_dim;
    double avg_degree;
  };
  // Six synthetic families: dense and sparse SBMs of varying size/width.
  const Family kFamilies[] = {
      {101, 40, 4, 3.0},  {102, 96, 6, 5.0},  {103, 150, 3, 2.0},
      {104, 200, 8, 6.0}, {105, 64, 5, 8.0},  {106, 220, 4, 4.0},
  };
  int version = 1;
  for (const Family& fam : kFamilies) {
    Graph graph = Sbm(fam.graph_seed, fam.num_nodes, fam.feature_dim,
                      fam.avg_degree);
    for (ModelFamily family : {ModelFamily::kGcn, ModelFamily::kSgc}) {
      SCOPED_TRACE("graph seed " + std::to_string(fam.graph_seed) +
                   " family " + std::to_string(static_cast<int>(family)));
      serve::ServableModel model =
          MakeServable(graph, version, family, 200 + version);
      ++version;
      serve::InferenceEngine reference(&graph, serve::EngineOptions{});
      auto expected = reference.PredictAll(model);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      for (int parts : {1, 2, 4}) {
        auto engine = PartitionedEngine::Create(graph, parts);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        for (int threads : {1, 4}) {
          SCOPED_TRACE("parts " + std::to_string(parts) + " threads " +
                       std::to_string(threads));
          ScopedNumThreads scoped(threads);
          auto got =
              engine.value()->PredictNodes(model, AllNodes(graph.num_nodes()));
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_TRUE(MatricesBitwiseEqual(got.value(), expected.value()));
        }
        if (parts == 1) {
          // P=1 fast path: no halo, so nothing ever crosses the exchange.
          EXPECT_EQ(engine.value()->rows_exchanged(), 0);
        }
      }
    }
  }
}

TEST(PartitionedEngineTest, RejectsUnsupportedFamiliesAndBadNodes) {
  Graph graph = Sbm(31, 40);
  auto engine = PartitionedEngine::Create(graph, 2);
  ASSERT_TRUE(engine.ok());
  serve::ServableModel gat = MakeServable(graph, 1, ModelFamily::kGat, 33);
  EXPECT_EQ(engine.value()->Warm(gat).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine.value()->PredictNodes(gat, {0}).status().code(),
            Status::Code::kInvalidArgument);
  serve::ServableModel gcn = MakeServable(graph, 2, ModelFamily::kGcn, 34);
  EXPECT_EQ(engine.value()->PredictNodes(gcn, {40}).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine.value()->PredictNodes(gcn, {-1}).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(PartitionedEngineTest, WarmRejectsMisShapedModel) {
  Graph graph = Sbm(31, 40);
  auto engine = PartitionedEngine::Create(graph, 2);
  ASSERT_TRUE(engine.ok());
  serve::ServableModel gcn = MakeServable(graph, 1, ModelFamily::kGcn, 35);
  gcn.params[2] = Matrix(9, 8);  // W_2 of a hidden-8 GCN is 8x8
  EXPECT_EQ(engine.value()->Warm(gcn).code(), Status::Code::kInvalidArgument);
}

// Halo rows are exchanged only right before a hop reads them, and only
// owned rows of the last state are ever read, so a warm-up exchanges every
// state but the last: GCN-2 has 2 stages, SGC-2 has 3 (linear map + 2 hops).
TEST(PartitionedEngineTest, LastStageIsNeverExchanged) {
  Graph graph = Sbm(37, 96);
  const struct {
    ModelFamily family;
    int num_stages;
  } kCases[] = {{ModelFamily::kGcn, 2}, {ModelFamily::kSgc, 3}};
  for (const auto& c : kCases) {
    SCOPED_TRACE(ModelFamilyName(c.family));
    auto engine = PartitionedEngine::Create(graph, 2);
    ASSERT_TRUE(engine.ok());
    ASSERT_GT(engine.value()->plan().halo_nodes_total, 0);
    ASSERT_TRUE(
        engine.value()->Warm(MakeServable(graph, 1, c.family, 38)).ok());
    EXPECT_EQ(engine.value()->rows_exchanged(),
              (c.num_stages - 1) * engine.value()->plan().halo_nodes_total);
  }
}

// --- Dynamic conformance ---------------------------------------------------

TEST(PartitionDynamicTest, ApplyDeltaMatchesColdEngineOnMaterializedGraph) {
  Graph graph = Sbm(41, 80, 5, 4.0);
  serve::ServableModel gcn = MakeServable(graph, 1, ModelFamily::kGcn, 51);
  serve::ServableModel sgc = MakeServable(graph, 2, ModelFamily::kSgc, 52);

  auto snap0 = dyn::GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap0.ok()) << snap0.status().ToString();
  dyn::GraphSnapshot snap = std::move(snap0).value();

  for (int parts : {2, 4}) {
    SCOPED_TRACE("parts " + std::to_string(parts));
    auto engine_or = PartitionedEngine::Create(graph, parts);
    ASSERT_TRUE(engine_or.ok());
    PartitionedEngine& engine = *engine_or.value();
    // Warm both families BEFORE mutating so ApplyDelta must refresh them.
    ASSERT_TRUE(engine.Warm(gcn).ok());
    ASSERT_TRUE(engine.Warm(sgc).ok());

    dyn::GraphSnapshot current = snap;
    // Two batches: edge adds/removes + feature updates, then a node append
    // with fresh edges (exercises the plan-growth and forced-halo paths).
    std::vector<double> feat(static_cast<size_t>(graph.feature_dim()), 0.5);
    std::vector<std::vector<dyn::Mutation>> batches;
    {
      std::vector<dyn::Mutation> batch;
      int added = 0;
      for (int u = 0; u < graph.num_nodes() && added < 4; ++u) {
        const int v = (u + graph.num_nodes() / 2) % graph.num_nodes();
        if (u != v && !current.HasEdge(u, v)) {
          batch.push_back(dyn::Mutation::AddEdge(u, v, 1.0));
          ++added;
        }
      }
      batch.push_back(dyn::Mutation::UpdateFeatures(3, feat));
      batch.push_back(dyn::Mutation::UpdateFeatures(42, feat));
      batches.push_back(std::move(batch));
    }
    {
      std::vector<dyn::Mutation> batch;
      batch.push_back(dyn::Mutation::AddNode(feat));
      batch.push_back(
          dyn::Mutation::AddEdge(graph.num_nodes(), 0, 1.0));
      batch.push_back(
          dyn::Mutation::AddEdge(graph.num_nodes(), 17, 1.0));
      batches.push_back(std::move(batch));
    }

    for (size_t b = 0; b < batches.size(); ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      auto next = current.Apply(batches[b]);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      auto [applied, delta] = std::move(next).value();
      ASSERT_TRUE(engine.ApplyDelta(applied, delta).ok());
      current = std::move(applied);

      // Oracle: a cold engine over the from-scratch materialized graph.
      Graph rebuilt = current.MaterializeGraph();
      serve::InferenceEngine reference(&rebuilt, serve::EngineOptions{});
      for (const serve::ServableModel* model : {&gcn, &sgc}) {
        auto expected = reference.PredictAll(*model);
        ASSERT_TRUE(expected.ok());
        auto got =
            engine.PredictNodes(*model, AllNodes(rebuilt.num_nodes()));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(MatricesBitwiseEqual(got.value(), expected.value()))
            << "version " << model->version;
      }
    }

    // Version sync guard: replaying the first delta is rejected.
    auto replay = current.Apply({dyn::Mutation::UpdateFeatures(1, feat)});
    ASSERT_TRUE(replay.ok());
    auto [snap2, delta2] = std::move(replay).value();
    dyn::BatchDelta stale = delta2;
    stale.from_version = 0;
    EXPECT_EQ(engine.ApplyDelta(snap2, stale).code(),
              Status::Code::kInvalidArgument);
  }
}

// A batch of `count` random valid mutations against `snap`, in the
// benchmark's mix (40% edge insert, 30% edge delete, 20% feature update,
// 10% node append), each edge pair at most once. Unweighted, so the cold
// oracle on the materialized graph stays bitwise exact.
std::vector<dyn::Mutation> RandomBatch(const dyn::GraphSnapshot& snap,
                                       int count, Rng* rng) {
  const int n = snap.num_nodes();
  auto node = [&] { return static_cast<int>(rng->UniformInt(n)); };
  std::set<std::pair<int, int>> pairs;
  auto fresh_pair = [&](int u, int v) {
    return pairs.insert({std::min(u, v), std::max(u, v)}).second;
  };
  std::vector<dyn::Mutation> batch;
  while (static_cast<int>(batch.size()) < count) {
    const int kind = static_cast<int>(rng->UniformInt(10));
    if (kind < 4) {
      const int u = node(), v = node();
      if (u == v || snap.HasEdge(u, v) || !fresh_pair(u, v)) continue;
      batch.push_back(dyn::Mutation::AddEdge(u, v));
    } else if (kind < 7) {
      const int u = node();
      const dyn::DeltaCsr::RowRef row =
          snap.raw_adjacency().Row(snap.ToInternal(u));
      if (row.nnz == 0) continue;
      const int v = snap.ToExternal(row.cols[rng->UniformInt(row.nnz)]);
      if (!fresh_pair(u, v)) continue;
      batch.push_back(dyn::Mutation::RemoveEdge(u, v));
    } else {
      std::vector<double> f(static_cast<size_t>(snap.feature_dim()));
      for (double& x : f) x = rng->Normal();
      batch.push_back(kind < 9 ? dyn::Mutation::UpdateFeatures(node(),
                                                               std::move(f))
                               : dyn::Mutation::AddNode(std::move(f), 0));
    }
  }
  return batch;
}

// Delivers one full state through `exchange` and returns every part's
// result: owned rows hold (global id, part), halo rows start at -1.
std::vector<Matrix> DeliverFullState(const PartitionPlan& plan,
                                     HaloExchange* exchange) {
  std::vector<Matrix> states;
  for (int p = 0; p < plan.num_parts; ++p) {
    const PartitionPlan::Part& part = plan.parts[p];
    Matrix state(part.num_local(), 2);
    for (int l = 0; l < part.num_local(); ++l) {
      state(l, 0) = part.owned[l] ? part.locals[l] : -1.0;
      state(l, 1) = part.owned[l] ? p : -1.0;
    }
    states.push_back(std::move(state));
  }
  for (int p = 0; p < plan.num_parts; ++p) {
    exchange->PostBoundary(p, states[p]);
  }
  for (int p = 0; p < plan.num_parts; ++p) {
    exchange->DeliverHalo(p, &states[p]);
  }
  return states;
}

// A long seeded stream through ApplyDelta. After every batch: answers
// memcmp a cold engine on the materialized graph; local ids never move
// (each part's previous locals are a prefix of its new ones); halo lists
// stay strictly ascending; and the exchange kept up by AddHalo delivers a
// full state exactly like one freshly built over the same plan, filling
// every halo row from its owner.
TEST(PartitionDynamicTest, LongStreamKeepsLocalIdsAndMatchesColdEngine) {
  const Graph base = Sbm(43, 160, 5, 4.0);
  serve::ServableModel gcn = MakeServable(base, 1, ModelFamily::kGcn, 53);
  serve::ServableModel sgc = MakeServable(base, 2, ModelFamily::kSgc, 54);
  for (ReorderStrategy reorder : {ReorderStrategy::kNone,
                                  ReorderStrategy::kRcm}) {
    const Graph graph = ReorderGraph(base, reorder, 43);
    for (int parts : {1, 2, 4}) {
      SCOPED_TRACE(std::string(ReorderStrategyName(reorder)) + " parts " +
                   std::to_string(parts));
      auto engine_or = PartitionedEngine::Create(graph, parts);
      ASSERT_TRUE(engine_or.ok());
      PartitionedEngine& engine = *engine_or.value();
      ASSERT_TRUE(engine.Warm(gcn).ok());
      ASSERT_TRUE(engine.Warm(sgc).ok());
      auto snap_or = dyn::GraphSnapshot::FromGraph(graph);
      ASSERT_TRUE(snap_or.ok());
      dyn::GraphSnapshot current = std::move(snap_or).value();
      Rng rng(97 + parts);
      for (int b = 0; b < 32; ++b) {
        SCOPED_TRACE("batch " + std::to_string(b));
        std::vector<std::vector<int>> before;
        for (const PartitionPlan::Part& part : engine.plan().parts) {
          before.push_back(part.locals);
        }
        const int count = 1 + static_cast<int>(rng.UniformInt(8));
        auto next = current.Apply(RandomBatch(current, count, &rng));
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        auto [applied, delta] = std::move(next).value();
        ASSERT_TRUE(engine.ApplyDelta(applied, delta).ok());
        current = std::move(applied);

        const PartitionPlan& plan = engine.plan();
        for (int p = 0; p < parts; ++p) {
          const PartitionPlan::Part& part = plan.parts[p];
          ASSERT_GE(part.locals.size(), before[p].size());
          EXPECT_TRUE(std::equal(before[p].begin(), before[p].end(),
                                 part.locals.begin()))
              << "part " << p << " renumbered its locals";
          for (int i = 1; i < part.num_halo(); ++i) {
            EXPECT_LT(part.halo_globals[i - 1], part.halo_globals[i])
                << "part " << p;
          }
        }
        HaloExchange kept = engine.exchange();
        HaloExchange fresh(&plan);
        const std::vector<Matrix> got = DeliverFullState(plan, &kept);
        const std::vector<Matrix> want = DeliverFullState(plan, &fresh);
        for (int p = 0; p < parts; ++p) {
          EXPECT_TRUE(MatricesBitwiseEqual(got[p], want[p])) << "part " << p;
          const PartitionPlan::Part& part = plan.parts[p];
          for (int g : part.halo_globals) {
            const int l = part.local_of.at(g);
            EXPECT_EQ(got[p](l, 0), g);
            EXPECT_EQ(got[p](l, 1), plan.part_of[g]);
          }
        }

        Graph rebuilt = current.MaterializeGraph();
        serve::InferenceEngine reference(&rebuilt, serve::EngineOptions{});
        for (const serve::ServableModel* model : {&gcn, &sgc}) {
          auto expected = reference.PredictAll(*model);
          ASSERT_TRUE(expected.ok());
          auto answered =
              engine.PredictNodes(*model, AllNodes(rebuilt.num_nodes()));
          ASSERT_TRUE(answered.ok()) << answered.status().ToString();
          ASSERT_TRUE(
              MatricesBitwiseEqual(answered.value(), expected.value()))
              << "version " << model->version;
        }
      }
    }
  }
}

// --- Fabric integration ----------------------------------------------------

std::string FreshDir(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base ? base : "/tmp") + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::unique_ptr<serve::ModelRegistry> RegistryWith(
    const std::string& dir, const std::vector<serve::ServableModel>& models) {
  for (const serve::ServableModel& m : models) {
    AHG_CHECK(serve::ModelRegistry::Publish(dir, m.version, m.config,
                                            m.params, m.num_classes)
                  .ok());
  }
  auto registry = std::make_unique<serve::ModelRegistry>(dir);
  AHG_CHECK(registry->Refresh().ok());
  return registry;
}

serve::BatcherOptions TestBatcher(int num_threads) {
  serve::BatcherOptions batcher;
  batcher.max_batch_size = 8;
  batcher.deadline_ms = 0.0;
  batcher.num_threads = num_threads;
  batcher.max_queue_delay_ms = 2.0;
  return batcher;
}

TEST(PartitionedFabricTest, ServesBitwiseAndSurvivesMidTrafficRollout) {
  Graph graph = Sbm(61, 72, 6, 4.0);
  serve::ServableModel v1 = MakeServable(graph, 1, ModelFamily::kGcn, 71);
  serve::ServableModel v2 = MakeServable(graph, 2, ModelFamily::kSgc, 72);
  auto registry = RegistryWith(FreshDir("partition_fabric"), {v1, v2});

  serve::InferenceEngine reference(&graph, serve::EngineOptions{});
  auto ref1 = reference.PredictAll(*registry->Version(1));
  auto ref2 = reference.PredictAll(*registry->Version(2));
  ASSERT_TRUE(ref1.ok() && ref2.ok());

  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    fabric::FabricOptions options;
    options.num_shards = shards;
    options.batcher = TestBatcher(2);
    fabric::ServingFabric fabric(options);
    ASSERT_TRUE(fabric.ServePartitioned(&graph, registry.get()).ok());
    // Partitioned mode is exclusive with the other deployment modes.
    EXPECT_EQ(fabric.ServeGraph(&graph, registry.get()).code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(fabric.AddTenant("alpha", &graph, registry.get()).code(),
              Status::Code::kInvalidArgument);
    ASSERT_TRUE(fabric.Rollout(1).ok());

    std::vector<std::future<serve::QueryResult>> futures;
    for (int node = 0; node < graph.num_nodes(); ++node) {
      futures.push_back(fabric.Query(node));
    }
    fabric.Flush();
    for (int node = 0; node < graph.num_nodes(); ++node) {
      serve::QueryResult result = futures[node].get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(result.served_version, 1);
      ASSERT_EQ(static_cast<int>(result.probs.size()), ref1.value().cols());
      EXPECT_EQ(std::memcmp(result.probs.data(), ref1.value().Row(node),
                            result.probs.size() * sizeof(double)),
                0)
          << "node " << node;
    }

    // Mid-traffic rollout onto the SGC version: enqueue, flip, enqueue.
    std::vector<std::future<serve::QueryResult>> mixed;
    for (int node = 0; node < graph.num_nodes() / 2; ++node) {
      mixed.push_back(fabric.Query(node));
    }
    ASSERT_TRUE(fabric.Rollout(2).ok());
    for (int node = graph.num_nodes() / 2; node < graph.num_nodes(); ++node) {
      mixed.push_back(fabric.Query(node));
    }
    fabric.Flush();
    for (int node = 0; node < graph.num_nodes(); ++node) {
      serve::QueryResult result = mixed[node].get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      const Matrix& ref =
          result.served_version == 1 ? ref1.value() : ref2.value();
      ASSERT_TRUE(result.served_version == 1 || result.served_version == 2);
      EXPECT_EQ(std::memcmp(result.probs.data(), ref.Row(node),
                            result.probs.size() * sizeof(double)),
                0)
          << "node " << node << " version " << result.served_version;
    }

    // Out-of-range node ids fail fast at the router.
    EXPECT_EQ(fabric.Query(graph.num_nodes()).get().status.code(),
              Status::Code::kInvalidArgument);
    fabric.Drain();
  }
}

TEST(PartitionedFabricTest, MutationsRouteThroughThePlan) {
  Graph graph = Sbm(63, 60, 5, 4.0);
  serve::ServableModel v1 = MakeServable(graph, 1, ModelFamily::kGcn, 73);
  auto registry = RegistryWith(FreshDir("partition_fabric_dyn"), {v1});

  fabric::FabricOptions options;
  options.num_shards = 2;
  options.batcher = TestBatcher(1);
  fabric::ServingFabric fabric(options);
  ASSERT_TRUE(fabric.ServePartitioned(&graph, registry.get()).ok());
  ASSERT_TRUE(fabric.Rollout(1).ok());

  // Mutations address the default tenant only.
  std::vector<double> feat(static_cast<size_t>(graph.feature_dim()), 0.75);
  EXPECT_EQ(fabric
                .SubmitMutation("alpha", dyn::Mutation::UpdateFeatures(0, feat))
                .status()
                .code(),
            Status::Code::kNotFound);
  auto seq0 = fabric.SubmitMutation(fabric::kDefaultTenant,
                                    dyn::Mutation::UpdateFeatures(2, feat));
  auto seq1 = fabric.SubmitMutation(fabric::kDefaultTenant,
                                    dyn::Mutation::AddEdge(2, 31, 1.0));
  ASSERT_TRUE(seq0.ok() && seq1.ok());
  EXPECT_EQ(seq0.value() + 1, seq1.value());
  ASSERT_TRUE(fabric.PublishStream(fabric::kDefaultTenant).ok());

  // Oracle: cold engine over the mutated graph, rebuilt from scratch.
  auto snap = dyn::GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap.ok());
  auto next = snap.value().Apply({dyn::Mutation::UpdateFeatures(2, feat),
                                  dyn::Mutation::AddEdge(2, 31, 1.0)});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  Graph rebuilt = next.value().first.MaterializeGraph();
  serve::InferenceEngine reference(&rebuilt, serve::EngineOptions{});
  auto expected = reference.PredictAll(*registry->Version(1));
  ASSERT_TRUE(expected.ok());

  for (int node = 0; node < rebuilt.num_nodes(); ++node) {
    serve::QueryResult result = fabric.Query(node).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(std::memcmp(result.probs.data(), expected.value().Row(node),
                          result.probs.size() * sizeof(double)),
              0)
        << "node " << node;
  }
  EXPECT_EQ(fabric.partitioned_engine()->snapshot_version(), 1u);
}

TEST(PartitionedFabricTest, RolloutRejectsUnsupportedFamilyWithoutFlip) {
  Graph graph = Sbm(65, 48, 5, 3.0);
  serve::ServableModel v1 = MakeServable(graph, 1, ModelFamily::kGcn, 75);
  serve::ServableModel v2 = MakeServable(graph, 2, ModelFamily::kGat, 76);
  auto registry = RegistryWith(FreshDir("partition_fabric_gat"), {v1, v2});

  fabric::FabricOptions options;
  options.num_shards = 2;
  options.batcher = TestBatcher(1);
  fabric::ServingFabric fabric(options);
  ASSERT_TRUE(fabric.ServePartitioned(&graph, registry.get()).ok());
  ASSERT_TRUE(fabric.Rollout(1).ok());
  EXPECT_EQ(fabric.Rollout(2).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(fabric.pinned_version(), 1);  // prepare failed, no flip
  EXPECT_EQ(fabric.Rollout(99).code(), Status::Code::kNotFound);
  serve::QueryResult result = fabric.Query(0).get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.served_version, 1);
}

}  // namespace
}  // namespace ahg::partition
