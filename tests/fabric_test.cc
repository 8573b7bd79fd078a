// Fabric conformance suite (ISSUE 6 tentpole proof). Covers:
//  - StableHash64 / ConsistentHashRing: determinism across rebuilds and
//    threads, per-shard balance, and the consistency property (growing an
//    N-shard ring remaps ~K/(N+1) keys, all of them onto the new shard);
//  - bitwise conformance: a sharded fabric answers every query bitwise
//    identical to one InferenceEngine, for {1,2,4} shards x {1,2,4}
//    batcher threads over six model families;
//  - fleet rollout atomicity: mid-traffic Rollout never serves a torn
//    version (every answer matches its served_version's reference rows
//    exactly) and is all-or-nothing when a shard cannot serve the version;
//  - router backpressure: queue-depth gating sheds with ResourceExhausted,
//    surfaces in fabric.shed / ServeStats, and recovers after drain;
//  - shard-shared PropagationCache with tenant-scoped keys: no cross-tenant
//    collisions, eviction accounting spans tenants (ISSUE 6 satellite);
//  - dynamic-graph bridge: streamed mutations route to the owning shard
//    only, and a published snapshot serves bitwise like StreamingServer;
//    a streamed tenant refuses to roll out a family without a stage plan,
//    frees a retired snapshot with its last holder, and serves every
//    publish from the cache while readers run.
// The suite runs under TSan and ASan in CI.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fabric/fabric.h"
#include "fabric/hash_ring.h"
#include "fabric/shard.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/propagation_cache.h"

namespace ahg::fabric {
namespace {

std::string FreshDir(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base ? base : "/tmp") + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Graph SmallGraph(uint64_t seed = 7, int num_nodes = 48) {
  SyntheticConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.num_classes = 3;
  cfg.feature_dim = 6;
  cfg.avg_degree = 3.0;
  cfg.seed = seed;
  return GenerateSbmGraph(cfg);
}

serve::ServableModel MakeServable(const Graph& graph, int version,
                                  ModelFamily family = ModelFamily::kGcn,
                                  uint64_t seed = 11) {
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

// Publishes `model` into `dir` and loads it into a fresh registry.
std::unique_ptr<serve::ModelRegistry> RegistryWith(
    const std::string& dir, const std::vector<serve::ServableModel>& models) {
  for (const serve::ServableModel& m : models) {
    AHG_CHECK(serve::ModelRegistry::Publish(dir, m.version, m.config, m.params,
                                            m.num_classes)
                  .ok());
  }
  auto registry = std::make_unique<serve::ModelRegistry>(dir);
  AHG_CHECK(registry->Refresh().ok());
  return registry;
}

// One answered query's probability vector vs a reference matrix row,
// compared bitwise (the conformance contract is exact, not approximate).
bool RowBitwiseEqual(const std::vector<double>& probs, const Matrix& ref,
                     int row) {
  if (static_cast<int>(probs.size()) != ref.cols()) return false;
  return std::memcmp(probs.data(), ref.Row(row),
                     probs.size() * sizeof(double)) == 0;
}

// Batcher settings that keep tests deterministic on loaded single-core CI
// machines: no deadlines, small batches so multi-batch paths are exercised.
serve::BatcherOptions TestBatcher(int num_threads) {
  serve::BatcherOptions batcher;
  batcher.max_batch_size = 8;
  batcher.deadline_ms = 0.0;
  batcher.num_threads = num_threads;
  batcher.max_queue_delay_ms = 2.0;
  return batcher;
}

TEST(StableHashTest, DeterministicAndWellDispersed) {
  EXPECT_EQ(StableHash64(std::string("fabric")),
            StableHash64("fabric", 6));
  EXPECT_NE(StableHash64(std::string("fabric")),
            StableHash64(std::string("fabrio")));
  std::set<uint64_t> seen;
  for (int64_t k = 0; k < 4096; ++k) {
    EXPECT_EQ(StableHash64(k), StableHash64(k));
    seen.insert(StableHash64(k));
  }
  EXPECT_EQ(seen.size(), 4096u);  // no collisions over a small dense range
}

TEST(HashRingTest, AssignmentIsBalancedAcrossShards) {
  constexpr int kShards = 4;
  constexpr int kKeys = 40000;
  ConsistentHashRing ring(/*virtual_nodes=*/128);
  for (int s = 0; s < kShards; ++s) ring.AddShard(s);
  std::vector<int> counts(kShards, 0);
  for (int k = 0; k < kKeys; ++k) ++counts[ring.ShardForNode(k)];
  for (int s = 0; s < kShards; ++s) {
    // 128 virtual nodes keep every shard within a factor of two of K/N.
    EXPECT_GT(counts[s], kKeys / (2 * kShards)) << "shard " << s;
    EXPECT_LT(counts[s], kKeys / kShards * 2) << "shard " << s;
  }
}

TEST(HashRingTest, AddingShardRemapsBoundedFractionOntoNewShardOnly) {
  constexpr int kShards = 4;
  constexpr int kKeys = 40000;
  ConsistentHashRing ring(/*virtual_nodes=*/128);
  for (int s = 0; s < kShards; ++s) ring.AddShard(s);
  std::vector<int> before(kKeys);
  for (int k = 0; k < kKeys; ++k) before[k] = ring.ShardForNode(k);

  ring.AddShard(kShards);  // grow N -> N+1
  int moved = 0;
  for (int k = 0; k < kKeys; ++k) {
    const int after = ring.ShardForNode(k);
    if (after != before[k]) {
      ++moved;
      // Consistency: a key either keeps its shard or falls to the NEW one;
      // no key ever migrates between pre-existing shards.
      EXPECT_EQ(after, kShards) << "key " << k;
    }
  }
  // Expectation is K/(N+1) = 8000; assert the ~K/N ballpark with slack
  // (2x) rather than a naive-rehash blowup (which would move ~4/5 of keys).
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 2 * kKeys / (kShards + 1));
}

TEST(HashRingTest, RemovingShardOnlyMovesItsOwnKeys) {
  constexpr int kKeys = 20000;
  ConsistentHashRing ring(/*virtual_nodes=*/128);
  for (int s = 0; s < 4; ++s) ring.AddShard(s);
  std::vector<int> before(kKeys);
  for (int k = 0; k < kKeys; ++k) before[k] = ring.ShardForNode(k);
  ASSERT_TRUE(ring.RemoveShard(2));
  EXPECT_FALSE(ring.RemoveShard(2));
  for (int k = 0; k < kKeys; ++k) {
    if (before[k] != 2) {
      EXPECT_EQ(ring.ShardForNode(k), before[k]) << "key " << k;
    } else {
      EXPECT_NE(ring.ShardForNode(k), 2) << "key " << k;
    }
  }
}

TEST(HashRingTest, RoutingIsDeterministicAcrossRebuildsAndThreads) {
  constexpr int kKeys = 10000;
  auto build = [] {
    ConsistentHashRing ring(/*virtual_nodes=*/64);
    for (int s = 0; s < 3; ++s) ring.AddShard(s);
    return ring;
  };
  const ConsistentHashRing a = build();
  const ConsistentHashRing b = build();
  std::vector<int> serial(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    serial[k] = a.ShardForNode(k);
    EXPECT_EQ(b.ShardForNode(k), serial[k]);
    EXPECT_EQ(b.ShardForKey("tenant-" + std::to_string(k)),
              a.ShardForKey("tenant-" + std::to_string(k)));
  }
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&a, &serial, &mismatches, t] {
      for (int k = t; k < kKeys; k += kThreads) {
        if (a.ShardForNode(k) != serial[k]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- Bitwise conformance: sharded fabric == single engine -----------------

TEST(FabricConformanceTest, BitwiseIdenticalToSingleEngineAcrossConfigs) {
  const ModelFamily kFamilies[] = {ModelFamily::kGcn,  ModelFamily::kSageMean,
                                   ModelFamily::kGat,  ModelFamily::kSgc,
                                   ModelFamily::kAppnp, ModelFamily::kGin};
  Graph graph = SmallGraph(21, /*num_nodes=*/48);
  int family_index = 0;
  for (ModelFamily family : kFamilies) {
    SCOPED_TRACE("family " + std::to_string(static_cast<int>(family)));
    serve::ServableModel model =
        MakeServable(graph, 1, family, /*seed=*/31 + family_index);
    auto registry = RegistryWith(
        FreshDir("fabric_conf_" + std::to_string(family_index)), {model});
    ++family_index;

    // Reference: one engine, no sharding, no batching.
    serve::InferenceEngine reference(&graph, serve::EngineOptions{});
    auto ref_or = reference.PredictAll(*registry->Active());
    ASSERT_TRUE(ref_or.ok()) << ref_or.status().ToString();
    const Matrix& ref = ref_or.value();

    for (int shards : {1, 2, 4}) {
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE("shards " + std::to_string(shards) + " threads " +
                     std::to_string(threads));
        FabricOptions options;
        options.num_shards = shards;
        options.batcher = TestBatcher(threads);
        ServingFabric fabric(options);
        ASSERT_TRUE(fabric.ServeGraph(&graph, registry.get()).ok());

        std::vector<std::future<serve::QueryResult>> futures;
        futures.reserve(static_cast<size_t>(graph.num_nodes()));
        for (int node = 0; node < graph.num_nodes(); ++node) {
          futures.push_back(fabric.Query(node));
        }
        fabric.Flush();
        for (int node = 0; node < graph.num_nodes(); ++node) {
          serve::QueryResult result = futures[node].get();
          ASSERT_TRUE(result.status.ok()) << result.status.ToString();
          EXPECT_EQ(result.served_version, 1);
          EXPECT_TRUE(RowBitwiseEqual(result.probs, ref, node))
              << "node " << node;
        }
      }
    }
  }
}

// --- Fleet rollout --------------------------------------------------------

TEST(FabricTest, MidTrafficRolloutNeverServesTornVersion) {
  Graph graph = SmallGraph(33);
  serve::ServableModel v1 = MakeServable(graph, 1, ModelFamily::kGcn, 41);
  serve::ServableModel v2 = MakeServable(graph, 2, ModelFamily::kGcn, 42);
  auto registry = RegistryWith(FreshDir("fabric_rollout"), {v1, v2});

  serve::InferenceEngine reference(&graph, serve::EngineOptions{});
  auto ref1 = reference.PredictAll(*registry->Version(1));
  auto ref2 = reference.PredictAll(*registry->Version(2));
  ASSERT_TRUE(ref1.ok() && ref2.ok());

  FabricOptions options;
  options.num_shards = 2;
  options.batcher = TestBatcher(2);
  ServingFabric fabric(options);
  ASSERT_TRUE(fabric.ServeGraph(&graph, registry.get()).ok());
  // Pin v1 explicitly (Active() would be the highest published version).
  ASSERT_TRUE(fabric.Rollout(1).ok());
  EXPECT_EQ(fabric.pinned_version(), 1);

  const int64_t rollouts_before =
      obs::MetricsRegistry::Global().GetCounter("fabric.rollouts")->Value();

  constexpr int kClients = 2;
  constexpr int kQueriesPerClient = 120;
  std::vector<std::vector<std::pair<int, serve::QueryResult>>> answers(
      kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&fabric, &answers, &graph, c] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const int node = (c * kQueriesPerClient + i * 7) % graph.num_nodes();
        answers[c].emplace_back(node, fabric.Query(node).get());
      }
    });
  }
  // Flip the fleet while the clients hammer it.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(fabric.Rollout(2).ok());
  EXPECT_EQ(fabric.pinned_version(), 2);
  for (auto& client : clients) client.join();

  for (int c = 0; c < kClients; ++c) {
    bool seen_v2 = false;
    for (const auto& [node, result] : answers[c]) {
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      // Torn-version check: the answer must be bitwise-exactly the output
      // of the single version it claims — old rows before the flip, new
      // rows after, never a mixture and never a downgrade.
      if (result.served_version == 1) {
        EXPECT_FALSE(seen_v2) << "v1 answer after a v2 answer (client " << c
                              << ")";
        EXPECT_TRUE(RowBitwiseEqual(result.probs, ref1.value(), node));
      } else {
        ASSERT_EQ(result.served_version, 2);
        seen_v2 = true;
        EXPECT_TRUE(RowBitwiseEqual(result.probs, ref2.value(), node));
      }
    }
  }

  // After Rollout returned, every new answer is v2 on every shard.
  for (int node = 0; node < graph.num_nodes(); ++node) {
    serve::QueryResult result = fabric.Query(node).get();
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.served_version, 2);
    EXPECT_TRUE(RowBitwiseEqual(result.probs, ref2.value(), node));
  }
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("fabric.rollouts")->Value(),
      rollouts_before + 1);
}

TEST(FabricTest, RolloutIsAllOrNothingWhenAShardCannotServe) {
  Graph graph = SmallGraph(35);
  serve::ServableModel v1 = MakeServable(graph, 1);
  auto registry = RegistryWith(FreshDir("fabric_rollout_abort"), {v1});

  FabricOptions options;
  options.num_shards = 2;
  options.batcher = TestBatcher(1);
  ServingFabric fabric(options);
  ASSERT_TRUE(fabric.ServeGraph(&graph, registry.get()).ok());
  ASSERT_TRUE(fabric.Rollout(1).ok());

  Status missing = fabric.Rollout(99);  // never published
  EXPECT_EQ(missing.code(), Status::Code::kNotFound);
  EXPECT_EQ(fabric.pinned_version(), 1);  // prepare failed, no flip anywhere
  EXPECT_EQ(fabric.Rollout(0).code(), Status::Code::kInvalidArgument);

  serve::QueryResult result = fabric.Query(0).get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.served_version, 1);
}

// --- Router backpressure --------------------------------------------------

TEST(FabricTest, BackpressureShedsWithResourceExhaustedAndRecovers) {
  Graph graph = SmallGraph(37);
  serve::ServableModel v1 = MakeServable(graph, 1);
  auto registry = RegistryWith(FreshDir("fabric_backpressure"), {v1});

  FabricOptions options;
  options.num_shards = 1;
  options.router_queue_limit = 4;
  // Park admitted requests: no flusher, no deadline, batch cut far away —
  // the queue only moves on an explicit Flush, so depths are deterministic.
  options.batcher.max_batch_size = 1024;
  options.batcher.queue_limit = 1024;
  options.batcher.deadline_ms = 0.0;
  options.batcher.max_queue_delay_ms = 0.0;
  options.batcher.num_threads = 1;
  ServingFabric fabric(options);
  ASSERT_TRUE(fabric.ServeGraph(&graph, registry.get()).ok());

  obs::Counter* shed = obs::MetricsRegistry::Global().GetCounter("fabric.shed");
  obs::Counter* routed =
      obs::MetricsRegistry::Global().GetCounter("fabric.routed");
  const int64_t shed_before = shed->Value();
  const int64_t routed_before = routed->Value();
  const int64_t rejected_before = fabric.shard(0).stats().Snapshot().rejected;

  std::vector<std::future<serve::QueryResult>> admitted;
  for (int i = 0; i < options.router_queue_limit; ++i) {
    admitted.push_back(fabric.Query(i));
  }
  EXPECT_EQ(fabric.shard(0).queue_depth(), options.router_queue_limit);

  // At the limit: the router sheds without touching the batcher queue.
  for (int i = 0; i < 3; ++i) {
    serve::QueryResult over = fabric.Query(40 + i).get();
    EXPECT_EQ(over.status.code(), Status::Code::kResourceExhausted)
        << over.status.ToString();
  }
  EXPECT_EQ(shed->Value(), shed_before + 3);
  EXPECT_EQ(routed->Value(), routed_before + options.router_queue_limit);
  EXPECT_EQ(fabric.shard(0).stats().Snapshot().rejected, rejected_before + 3);
  EXPECT_EQ(fabric.shard(0).queue_depth(), options.router_queue_limit);

  // Recovery: drain the shard and the router admits again.
  fabric.Drain();
  for (auto& future : admitted) {
    EXPECT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(fabric.shard(0).queue_depth(), 0);
  std::future<serve::QueryResult> after_future = fabric.Query(5);
  fabric.Drain();  // this batcher only moves on Flush/Drain (no flusher)
  serve::QueryResult after = after_future.get();
  EXPECT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(shed->Value(), shed_before + 3);
}

// --- Multi-tenant mode ----------------------------------------------------

TEST(FabricTest, MultiTenantQueriesRouteToPinnedShardAndStayIsolated) {
  Graph alpha_graph = SmallGraph(51);
  Graph beta_graph = SmallGraph(52, /*num_nodes=*/40);
  serve::ServableModel alpha_model =
      MakeServable(alpha_graph, 1, ModelFamily::kGcn, 61);
  serve::ServableModel beta_model =
      MakeServable(beta_graph, 1, ModelFamily::kSgc, 62);
  auto alpha_registry =
      RegistryWith(FreshDir("fabric_mt_alpha"), {alpha_model});
  auto beta_registry = RegistryWith(FreshDir("fabric_mt_beta"), {beta_model});

  serve::InferenceEngine alpha_ref(&alpha_graph, serve::EngineOptions{});
  serve::InferenceEngine beta_ref(&beta_graph, serve::EngineOptions{});
  auto alpha_probs = alpha_ref.PredictAll(*alpha_registry->Active());
  auto beta_probs = beta_ref.PredictAll(*beta_registry->Active());
  ASSERT_TRUE(alpha_probs.ok() && beta_probs.ok());

  FabricOptions options;
  options.num_shards = 2;
  options.batcher = TestBatcher(1);
  ServingFabric fabric(options);
  ASSERT_TRUE(fabric.AddTenant("alpha", &alpha_graph, alpha_registry.get())
                  .ok());
  ASSERT_TRUE(
      fabric.AddTenant("beta", &beta_graph, beta_registry.get()).ok());
  // Tenants live exactly on their ring-assigned shard.
  EXPECT_TRUE(
      fabric.shard(fabric.ShardOfTenant("alpha")).HasTenant("alpha"));
  EXPECT_TRUE(fabric.shard(fabric.ShardOfTenant("beta")).HasTenant("beta"));

  for (int node = 0; node < alpha_graph.num_nodes(); ++node) {
    serve::QueryResult result = fabric.QueryTenant("alpha", node).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(RowBitwiseEqual(result.probs, alpha_probs.value(), node));
  }
  for (int node = 0; node < beta_graph.num_nodes(); ++node) {
    serve::QueryResult result = fabric.QueryTenant("beta", node).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(RowBitwiseEqual(result.probs, beta_probs.value(), node));
  }

  EXPECT_EQ(fabric.QueryTenant("nobody", 0).get().status.code(),
            Status::Code::kNotFound);
  // Mode and naming guards.
  EXPECT_EQ(fabric.ServeGraph(&alpha_graph, alpha_registry.get()).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(
      fabric.AddTenant("default", &alpha_graph, alpha_registry.get()).code(),
      Status::Code::kInvalidArgument);
  EXPECT_EQ(
      fabric.AddTenant("bad/name", &alpha_graph, alpha_registry.get()).code(),
      Status::Code::kInvalidArgument);
  EXPECT_EQ(
      fabric.AddTenant("alpha", &alpha_graph, alpha_registry.get()).code(),
      Status::Code::kInvalidArgument);
}

// --- Shard-shared cache with tenant-scoped keys (ISSUE 6 satellite) -------

TEST(PropagationKeyTest, TenantScopeKeepsKeysDistinct) {
  EXPECT_EQ(serve::GraphId("", 3), serve::GraphId(3));
  EXPECT_EQ(serve::GraphId("alpha", 3), "alpha:" + serve::GraphId(3));
  EXPECT_NE(serve::GraphId("alpha", 3), serve::GraphId("beta", 3));
  EXPECT_NE(serve::PropagationKey(serve::GraphId("alpha", 0), 1),
            serve::PropagationKey(serve::GraphId("beta", 0), 1));
}

TEST(EngineShardTest, SharedCacheServesEachTenantItsOwnProduct) {
  // Two tenants with identical (generation=0, version=1) coordinates but
  // different graphs/weights: the exact collision the tenant scope exists
  // to prevent — unscoped keys would hand one tenant the other's H^(L).
  Graph alpha_graph = SmallGraph(71);
  Graph beta_graph = SmallGraph(72);
  serve::ServableModel alpha_model =
      MakeServable(alpha_graph, 1, ModelFamily::kGcn, 81);
  serve::ServableModel beta_model =
      MakeServable(beta_graph, 1, ModelFamily::kGcn, 82);
  auto alpha_registry =
      RegistryWith(FreshDir("fabric_scope_alpha"), {alpha_model});
  auto beta_registry =
      RegistryWith(FreshDir("fabric_scope_beta"), {beta_model});

  EngineShard shard(/*shard_id=*/0, /*cache_byte_budget=*/0);
  ASSERT_TRUE(shard
                  .AddTenant("alpha", &alpha_graph, alpha_registry.get(),
                             serve::EngineOptions{}, TestBatcher(1))
                  .ok());
  ASSERT_TRUE(shard
                  .AddTenant("beta", &beta_graph, beta_registry.get(),
                             serve::EngineOptions{}, TestBatcher(1))
                  .ok());

  serve::InferenceEngine alpha_ref(&alpha_graph, serve::EngineOptions{});
  serve::InferenceEngine beta_ref(&beta_graph, serve::EngineOptions{});
  auto alpha_expected = alpha_ref.PredictAll(alpha_model);
  auto beta_expected = beta_ref.PredictAll(beta_model);
  ASSERT_TRUE(alpha_expected.ok() && beta_expected.ok());

  auto alpha_got =
      shard.engine("alpha")->PredictNodes(alpha_model, {0, 1, 2});
  auto beta_got = shard.engine("beta")->PredictNodes(beta_model, {0, 1, 2});
  ASSERT_TRUE(alpha_got.ok() && beta_got.ok());
  for (int row = 0; row < 3; ++row) {
    EXPECT_EQ(std::memcmp(alpha_got.value().Row(row),
                          alpha_expected.value().Row(row),
                          sizeof(double) * alpha_expected.value().cols()),
              0);
    EXPECT_EQ(std::memcmp(beta_got.value().Row(row),
                          beta_expected.value().Row(row),
                          sizeof(double) * beta_expected.value().cols()),
              0);
  }
  // One shared cache, one scoped entry per tenant — not one collided entry.
  EXPECT_EQ(shard.cache().num_entries(), 2);
  EXPECT_EQ(&shard.engine("alpha")->cache(), &shard.engine("beta")->cache());
}

TEST(EngineShardTest, EvictionAccountingSpansTenants) {
  Graph alpha_graph = SmallGraph(73);
  Graph beta_graph = SmallGraph(74);
  serve::ServableModel alpha_model = MakeServable(alpha_graph, 1);
  serve::ServableModel beta_model = MakeServable(beta_graph, 1);
  auto alpha_registry =
      RegistryWith(FreshDir("fabric_evict_alpha"), {alpha_model});
  auto beta_registry =
      RegistryWith(FreshDir("fabric_evict_beta"), {beta_model});

  // H^(L) per tenant is 48 x 8 doubles = 3072 bytes; budget fits one.
  EngineShard shard(/*shard_id=*/0, /*cache_byte_budget=*/4000);
  ASSERT_TRUE(shard
                  .AddTenant("alpha", &alpha_graph, alpha_registry.get(),
                             serve::EngineOptions{}, TestBatcher(1))
                  .ok());
  ASSERT_TRUE(shard
                  .AddTenant("beta", &beta_graph, beta_registry.get(),
                             serve::EngineOptions{}, TestBatcher(1))
                  .ok());

  ASSERT_TRUE(shard.engine("alpha")->PredictNodes(alpha_model, {0}).ok());
  EXPECT_EQ(shard.cache().num_entries(), 1);
  EXPECT_EQ(shard.cache().evictions(), 0);

  // Beta's product displaces alpha's under the shared byte budget.
  ASSERT_TRUE(shard.engine("beta")->PredictNodes(beta_model, {0}).ok());
  EXPECT_EQ(shard.cache().num_entries(), 1);
  EXPECT_EQ(shard.cache().evictions(), 1);
  EXPECT_LE(shard.cache().current_bytes(), shard.cache().byte_budget());

  // Alpha is cold again (its entry was the victim), beta is warm.
  const int64_t misses_before = shard.cache().misses();
  ASSERT_TRUE(shard.engine("beta")->PredictNodes(beta_model, {1}).ok());
  EXPECT_EQ(shard.cache().misses(), misses_before);  // hit
  ASSERT_TRUE(shard.engine("alpha")->PredictNodes(alpha_model, {1}).ok());
  EXPECT_EQ(shard.cache().misses(), misses_before + 1);  // recompute
  EXPECT_EQ(shard.cache().evictions(), 2);
}

// --- Dynamic-graph bridge -------------------------------------------------

TEST(FabricTest, MutationsRouteToOwningShardOnly) {
  Graph alpha_graph = SmallGraph(91);
  Graph beta_graph = SmallGraph(92);
  serve::ServableModel alpha_model =
      MakeServable(alpha_graph, 1, ModelFamily::kGcn, 93);
  serve::ServableModel beta_model =
      MakeServable(beta_graph, 1, ModelFamily::kGcn, 94);
  auto alpha_registry =
      RegistryWith(FreshDir("fabric_dyn_alpha"), {alpha_model});
  auto beta_registry = RegistryWith(FreshDir("fabric_dyn_beta"), {beta_model});

  FabricOptions options;
  options.num_shards = 4;
  options.batcher = TestBatcher(1);
  ServingFabric fabric(options);
  ASSERT_TRUE(fabric.AddTenant("alpha", &alpha_graph, alpha_registry.get())
                  .ok());
  ASSERT_TRUE(
      fabric.AddTenant("beta", &beta_graph, beta_registry.get()).ok());

  serve::InferenceEngine beta_ref(&beta_graph, serve::EngineOptions{});
  auto beta_before = beta_ref.PredictAll(*beta_registry->Active());
  ASSERT_TRUE(beta_before.ok());

  auto stream_or = dyn::StreamingServer::Create(alpha_graph, alpha_model);
  ASSERT_TRUE(stream_or.ok()) << stream_or.status().ToString();
  dyn::StreamingServer& stream = *stream_or.value();
  ASSERT_TRUE(fabric.AttachStream("alpha", &stream).ok());

  // Mutations for a tenant without a stream are refused, not misrouted.
  EXPECT_EQ(
      fabric.SubmitMutation("beta", dyn::Mutation::UpdateFeatures(0, {}))
          .status()
          .code(),
      Status::Code::kNotFound);
  EXPECT_EQ(fabric.PublishStream("beta").code(), Status::Code::kNotFound);

  // Streamed edits land in alpha's stream on alpha's shard.
  std::vector<double> features(
      static_cast<size_t>(alpha_graph.feature_dim()), 0.25);
  auto seq0 =
      fabric.SubmitMutation("alpha", dyn::Mutation::UpdateFeatures(3, features));
  auto seq1 =
      fabric.SubmitMutation("alpha", dyn::Mutation::UpdateFeatures(7, features));
  ASSERT_TRUE(seq0.ok() && seq1.ok());
  EXPECT_EQ(seq0.value() + 1, seq1.value());
  EXPECT_EQ(stream.pending(), 2u);

  ASSERT_TRUE(fabric.PublishStream("alpha").ok());
  serve::InferenceEngine* alpha_engine =
      fabric.shard(fabric.ShardOfTenant("alpha")).engine("alpha");
  ASSERT_NE(alpha_engine, nullptr);
  EXPECT_EQ(alpha_engine->graph_generation(), stream.version() + 1);

  // Post-publish answers match the streaming path bitwise...
  for (int node : {0, 3, 7, 11}) {
    serve::QueryResult result = fabric.QueryTenant("alpha", node).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    auto expected = stream.PredictNodes({node});
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(RowBitwiseEqual(result.probs, expected.value(), 0));
  }
  // ...and the other tenant is untouched by the publish.
  for (int node : {0, 5, 9}) {
    serve::QueryResult result = fabric.QueryTenant("beta", node).get();
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(RowBitwiseEqual(result.probs, beta_before.value(), node));
  }
}

// A streamed tenant whose engine serves a published snapshot.
struct StreamedTenant {
  Graph graph;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<ServingFabric> fabric;
  std::unique_ptr<dyn::StreamingServer> stream;
};

// Tenant "live" on a 2-shard fabric with `models` loaded, a stream for the
// first model attached, and the fleet pinned at that model's version.
void SetUpStreamedTenant(uint64_t seed, int num_nodes,
                         const std::vector<ModelFamily>& families,
                         const std::string& dir, int batcher_threads,
                         StreamedTenant* t) {
  t->graph = SmallGraph(seed, num_nodes);
  std::vector<serve::ServableModel> models;
  for (size_t i = 0; i < families.size(); ++i) {
    models.push_back(MakeServable(t->graph, static_cast<int>(i) + 1,
                                  families[i], seed + i));
  }
  t->registry = RegistryWith(FreshDir(dir), models);
  FabricOptions options;
  options.num_shards = 2;
  options.batcher = TestBatcher(batcher_threads);
  t->fabric = std::make_unique<ServingFabric>(options);
  ASSERT_TRUE(t->fabric->AddTenant("live", &t->graph, t->registry.get()).ok());
  auto stream_or = dyn::StreamingServer::Create(t->graph, models[0]);
  ASSERT_TRUE(stream_or.ok()) << stream_or.status().ToString();
  t->stream = std::move(stream_or).value();
  ASSERT_TRUE(t->fabric->AttachStream("live", t->stream.get()).ok());
  ASSERT_TRUE(t->fabric->Rollout(1).ok());
}

// Queues up to `count` valid edits on tenant "live": feature updates and
// inserts of edges absent from the latest snapshot (each pair at most once
// per call, so the batch stays valid).
void SubmitEdits(StreamedTenant* t, int count, Rng* rng) {
  const std::shared_ptr<const dyn::GraphSnapshot> snap = t->stream->snapshot();
  const int n = snap->num_nodes();
  std::set<std::pair<int, int>> added;
  std::vector<double> features(static_cast<size_t>(t->graph.feature_dim()));
  for (int i = 0; i < count; ++i) {
    const int u = static_cast<int>(rng->UniformInt(n));
    const int v = static_cast<int>(rng->UniformInt(n));
    dyn::Mutation m;
    if (i % 2 == 0 || u == v || snap->HasEdge(u, v) ||
        !added.insert({std::min(u, v), std::max(u, v)}).second) {
      for (double& x : features) x = rng->Normal();
      m = dyn::Mutation::UpdateFeatures(u, features);
    } else {
      m = dyn::Mutation::AddEdge(u, v);
    }
    ASSERT_TRUE(t->fabric->SubmitMutation("live", std::move(m)).ok());
  }
}

TEST(FabricTest, RolloutOfUnplannedFamilyOntoStreamedTenantIsRefused) {
  StreamedTenant t;
  ASSERT_NO_FATAL_FAILURE(SetUpStreamedTenant(
      97, 48, {ModelFamily::kGcn, ModelFamily::kAppnp}, "fabric_dyn_appnp", 1,
      &t));
  Rng rng(5);
  SubmitEdits(&t, 1, &rng);  // one feature update
  ASSERT_TRUE(t.fabric->PublishStream("live").ok());

  // The tenant now serves a snapshot, which only stage-planned families
  // can run on; APPNP fails the prepare phase and nothing flips.
  Status refused = t.fabric->Rollout(2);
  EXPECT_EQ(refused.code(), Status::Code::kInvalidArgument)
      << refused.ToString();
  EXPECT_EQ(t.fabric->pinned_version(), 1);
  serve::QueryResult result = t.fabric->QueryTenant("live", 4).get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.served_version, 1);
  auto expected = t.stream->PredictNodes({4});
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(RowBitwiseEqual(result.probs, expected.value(), 0));
}

TEST(FabricTest, RetiredSnapshotIsFreedWithItsLastHolder) {
  StreamedTenant t;
  ASSERT_NO_FATAL_FAILURE(SetUpStreamedTenant(101, 48, {ModelFamily::kGcn},
                                              "fabric_dyn_weak", 1, &t));
  Rng rng(6);
  SubmitEdits(&t, 4, &rng);
  ASSERT_TRUE(t.fabric->PublishStream("live").ok());
  std::weak_ptr<const dyn::GraphSnapshot> published = t.stream->snapshot();
  ASSERT_TRUE(t.fabric->QueryTenant("live", 0).get().status.ok());

  // The stream moves on; the engine still serves (and so holds) the
  // published snapshot until the next publish retires it.
  SubmitEdits(&t, 4, &rng);
  ASSERT_TRUE(t.stream->ApplyPending().ok());
  EXPECT_FALSE(published.expired());
  EngineShard& shard = t.fabric->shard(t.fabric->ShardOfTenant("live"));
  ASSERT_TRUE(shard.PublishStream("live").ok());
  EXPECT_TRUE(published.expired());
}

TEST(FabricTest, LiveTenantServesEveryPublishFromTheCache) {
  StreamedTenant t;
  ASSERT_NO_FATAL_FAILURE(SetUpStreamedTenant(103, 64, {ModelFamily::kGcn},
                                              "fabric_dyn_hits", 2, &t));
  EngineShard& shard = t.fabric->shard(t.fabric->ShardOfTenant("live"));
  serve::InferenceEngine* engine = shard.engine("live");
  ASSERT_NE(engine, nullptr);
  const std::shared_ptr<const serve::ServableModel> model =
      t.registry->Version(1);
  const int64_t misses = shard.cache().misses();  // Rollout warmed v1

  // One reader goes through the router and batcher; the others call the
  // tenant's engine in a tight loop, so reads land all around each flip.
  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      int node = r;
      do {
        Status status;
        if (r == 0) {
          status = t.fabric->QueryTenant("live", node).get().status;
        } else {
          status = engine->PredictNodes(*model, {node}).status();
        }
        if (!status.ok()) {
          // Stopping also releases the publisher's wait below.
          ADD_FAILURE() << status.ToString();
          stop.store(true);
          return;
        }
        node = (node + 7) % t.graph.num_nodes();
        reads.fetch_add(1);
      } while (!stop.load());
    });
  }
  // Publishes interleave with reads: each waits for a few answers first.
  // The loop runs in a lambda so a failed assertion still joins readers.
  auto publish_all = [&] {
    Rng rng(7);
    for (int publish = 0; publish < 20; ++publish) {
      for (const int seen = reads.load();
           reads.load() < seen + 3 && !stop.load();) {
        std::this_thread::yield();
      }
      SubmitEdits(&t, 6, &rng);
      ASSERT_TRUE(t.fabric->PublishStream("live").ok());
    }
  };
  publish_all();
  stop.store(true);
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(t.stream->version(), 20u);
  EXPECT_GT(reads.load(), 0);
  // Every publish installed its states before any query could resolve the
  // new generation, so no query ever recomputed a forward.
  EXPECT_EQ(shard.cache().misses(), misses);
}

}  // namespace
}  // namespace ahg::fabric
