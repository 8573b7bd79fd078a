// The serving subsystem: propagation cache semantics (compute-once, LRU
// byte budget, concurrent cold starts), registry publish/refresh/hot-swap,
// frozen-path vs training-path equivalence, and the request batcher's
// deadline / admission-control / determinism contracts. The batcher and
// cache tests also run under TSan in CI.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "nn/linear.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/propagation_cache.h"
#include "serve/request_batcher.h"
#include "serve/serve_stats.h"

namespace ahg::serve {
namespace {

std::string FreshDir(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base ? base : "/tmp") + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Graph SmallGraph(uint64_t seed = 7) {
  SyntheticConfig cfg;
  cfg.num_nodes = 48;
  cfg.num_classes = 3;
  cfg.feature_dim = 6;
  cfg.avg_degree = 3.0;
  cfg.seed = seed;
  return GenerateSbmGraph(cfg);
}

// Builds an (untrained) model + head for `graph` and snapshots its weights
// into a ServableModel — identical layout to a trained member.
ServableModel MakeServable(const Graph& graph, int version,
                           ModelFamily family = ModelFamily::kGcn,
                           uint64_t seed = 11) {
  ServableModel model;
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

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double max_diff = 0.0;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      max_diff = std::max(max_diff, std::fabs(a(r, c) - b(r, c)));
    }
  }
  return max_diff;
}

TEST(PropagationCacheTest, ComputesOnceAndCountsHits) {
  PropagationCache cache(/*byte_budget=*/0);
  int computes = 0;
  auto compute = [&computes] {
    ++computes;
    return Matrix::Constant(4, 4, 1.0);
  };
  auto first = cache.GetOrCompute("k", compute);
  auto second = cache.GetOrCompute("k", compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.current_bytes(), 4 * 4 * 8);
}

TEST(PropagationCacheTest, LruEvictionUnderByteBudget) {
  // Budget fits exactly two 4x4 entries.
  PropagationCache cache(2 * 4 * 4 * 8);
  auto make = [](double v) { return [v] { return Matrix::Constant(4, 4, v); }; };
  cache.GetOrCompute("a", make(1.0));
  cache.GetOrCompute("b", make(2.0));
  cache.GetOrCompute("a", make(1.0));  // refresh a's LRU tick
  cache.GetOrCompute("c", make(3.0));  // evicts b
  EXPECT_EQ(cache.num_entries(), 2);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_LE(cache.current_bytes(), cache.byte_budget());
  // a survived, b was the victim.
  EXPECT_EQ(cache.hits(), 1);
  cache.GetOrCompute("a", make(1.0));
  EXPECT_EQ(cache.hits(), 2);
  cache.GetOrCompute("b", make(2.0));
  EXPECT_EQ(cache.misses(), 4);
}

TEST(PropagationCacheTest, ConcurrentColdStartComputesOnce) {
  PropagationCache cache(/*byte_budget=*/0);
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const Matrix>> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &computes, &results, t] {
      results[t] = cache.GetOrCompute("shared", [&computes] {
        ++computes;
        return Matrix::Constant(8, 8, 3.0);
      });
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].get(), results[0].get());
  }
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), kThreads - 1);
}

// Regression test: a compute() that throws used to leave an unfulfilled
// promise in the map — every later caller of the same key hung or got a
// broken_promise, permanently poisoning the key. Now the owner erases the
// in-flight entry, forwards the exception to registered waiters, and the
// next call recomputes cleanly.
TEST(PropagationCacheTest, ThrowingComputeDoesNotPoisonKey) {
  PropagationCache cache(/*byte_budget=*/0);
  std::atomic<int> computes{0};
  std::atomic<int> exceptions{0};
  std::promise<void> release_owner;
  std::shared_future<void> go = release_owner.get_future().share();
  constexpr int kWaiters = 4;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    try {
      cache.GetOrCompute("k", [&]() -> Matrix {
        ++computes;
        go.wait();  // hold the in-flight entry until all waiters registered
        throw std::runtime_error("propagation failed");
      });
    } catch (const std::runtime_error&) {
      ++exceptions;
    }
  });
  while (cache.misses() < 1) std::this_thread::yield();
  for (int t = 0; t < kWaiters; ++t) {
    threads.emplace_back([&] {
      try {
        cache.GetOrCompute("k", [&]() -> Matrix {
          ++computes;
          return Matrix::Constant(2, 2, 1.0);
        });
      } catch (const std::runtime_error&) {
        ++exceptions;
      }
    });
  }
  // All waiters share the owner's future before the failure lands.
  while (cache.hits() < kWaiters) std::this_thread::yield();
  release_owner.set_value();
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(exceptions.load(), 1 + kWaiters);
  EXPECT_EQ(cache.num_entries(), 0);
  EXPECT_EQ(cache.current_bytes(), 0);
  // The key recovers: the next call recomputes and caches normally.
  auto value = cache.GetOrCompute("k", [&] {
    ++computes;
    return Matrix::Constant(2, 2, 5.0);
  });
  EXPECT_EQ(computes.load(), 2);
  EXPECT_DOUBLE_EQ((*value)(0, 0), 5.0);
  EXPECT_EQ(cache.num_entries(), 1);
}

TEST(PropagationCacheTest, InvalidateDropsEntry) {
  PropagationCache cache(/*byte_budget=*/0);
  int computes = 0;
  auto compute = [&computes] {
    ++computes;
    return Matrix::Constant(2, 2, 1.0);
  };
  auto held = cache.GetOrCompute("k", compute);
  cache.Invalidate("k");
  EXPECT_EQ(cache.current_bytes(), 0);
  cache.GetOrCompute("k", compute);
  EXPECT_EQ(computes, 2);
  // The old handle stays valid after invalidation.
  EXPECT_DOUBLE_EQ((*held)(0, 0), 1.0);
}

TEST(ModelRegistryTest, PublishRefreshServesHighestVersion) {
  Graph graph = SmallGraph();
  const std::string dir = FreshDir("serve_registry_basic");
  ServableModel v1 = MakeServable(graph, 1, ModelFamily::kGcn, 11);
  ServableModel v2 = MakeServable(graph, 2, ModelFamily::kAppnp, 12);
  ASSERT_TRUE(ModelRegistry::Publish(dir, 1, v1.config, v1.params,
                                     v1.num_classes)
                  .ok());
  ASSERT_TRUE(ModelRegistry::Publish(dir, 2, v2.config, v2.params,
                                     v2.num_classes)
                  .ok());
  ModelRegistry registry(dir);
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.active_version(), 2);
  EXPECT_EQ(registry.Versions(), (std::vector<int>{1, 2}));
  ASSERT_NE(registry.Version(1), nullptr);
  EXPECT_EQ(registry.Version(1)->config.family, ModelFamily::kGcn);
  EXPECT_EQ(registry.Version(3), nullptr);
  EXPECT_TRUE(registry.ValidateCompatibility(graph).ok());
}

TEST(ModelRegistryTest, RefreshHotSwapsWhileOldHandleStaysValid) {
  Graph graph = SmallGraph();
  const std::string dir = FreshDir("serve_registry_swap");
  ServableModel v1 = MakeServable(graph, 1);
  ASSERT_TRUE(ModelRegistry::Publish(dir, 1, v1.config, v1.params,
                                     v1.num_classes)
                  .ok());
  ModelRegistry registry(dir);
  ASSERT_TRUE(registry.Refresh().ok());
  std::shared_ptr<const ServableModel> old_active = registry.Active();
  ASSERT_NE(old_active, nullptr);
  EXPECT_EQ(old_active->version, 1);

  ServableModel v2 = MakeServable(graph, 2, ModelFamily::kSgc, 21);
  ASSERT_TRUE(ModelRegistry::Publish(dir, 2, v2.config, v2.params,
                                     v2.num_classes)
                  .ok());
  ASSERT_TRUE(registry.Refresh().ok());
  EXPECT_EQ(registry.Active()->version, 2);
  // An in-flight batch pinning v1 keeps serving it.
  EXPECT_EQ(old_active->version, 1);
  EXPECT_EQ(old_active->config.family, ModelFamily::kGcn);
}

TEST(ModelRegistryTest, MissingManifestIsNotFound) {
  ModelRegistry registry(FreshDir("serve_registry_missing"));
  EXPECT_EQ(registry.Refresh().code(), Status::Code::kNotFound);
  EXPECT_EQ(registry.Active(), nullptr);
  EXPECT_EQ(registry.active_version(), 0);
}

TEST(ModelRegistryTest, RejectsManifestHeadMismatch) {
  Graph graph = SmallGraph();
  const std::string dir = FreshDir("serve_registry_corrupt");
  ServableModel v1 = MakeServable(graph, 1);
  ASSERT_TRUE(ModelRegistry::Publish(dir, 1, v1.config, v1.params,
                                     v1.num_classes)
                  .ok());
  // Manifest claims a class count the stored head cannot produce.
  {
    std::ofstream manifest(dir + "/registry.tsv", std::ios::trunc);
    manifest << "ahg-registry\t1\n1\tmodel_v1.ahgm\t7\n";
  }
  ModelRegistry registry(dir);
  Status s = registry.Refresh();
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(registry.Active(), nullptr);
}

// Manifest numbers are parsed whole: "1x" is not version 1 and "2abc" is
// not two classes.
TEST(ModelRegistryTest, RejectsMalformedManifestNumbers) {
  Graph graph = SmallGraph();
  const std::string dir = FreshDir("serve_registry_bad_number");
  ServableModel v1 = MakeServable(graph, 1);
  ASSERT_TRUE(ModelRegistry::Publish(dir, 1, v1.config, v1.params,
                                     v1.num_classes)
                  .ok());
  const std::string good_row =
      "1\tmodel_v1.ahgm\t" + std::to_string(v1.num_classes) + "\n";
  for (const std::string& manifest :
       {"ahg-registry\t1x\n" + good_row,
        "ahg-registry\t1\n1x\tmodel_v1.ahgm\t" +
            std::to_string(v1.num_classes) + "\n",
        "ahg-registry\t1\n1\tmodel_v1.ahgm\t" +
            std::to_string(v1.num_classes) + "abc\n"}) {
    SCOPED_TRACE(manifest);
    {
      std::ofstream out(dir + "/registry.tsv", std::ios::trunc);
      out << manifest;
    }
    ModelRegistry registry(dir);
    EXPECT_EQ(registry.Refresh().code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(registry.Active(), nullptr);
  }
  // The well-formed manifest still loads.
  {
    std::ofstream out(dir + "/registry.tsv", std::ios::trunc);
    out << "ahg-registry\t1\n" << good_row;
  }
  ModelRegistry registry(dir);
  EXPECT_TRUE(registry.Refresh().ok());
}

TEST(ModelRegistryTest, PublishRejectsTruncatedParams) {
  Graph graph = SmallGraph();
  ServableModel model = MakeServable(graph, 1);
  model.params.pop_back();  // drop the head bias
  EXPECT_EQ(ModelRegistry::Publish(FreshDir("serve_registry_bad"), 1,
                                   model.config, model.params,
                                   model.num_classes)
                .code(),
            Status::Code::kInvalidArgument);
}

TEST(ModelRegistryTest, ValidateCompatibilityRejectsWrongGraph) {
  Graph graph = SmallGraph();
  const std::string dir = FreshDir("serve_registry_compat");
  ServableModel v1 = MakeServable(graph, 1);
  ASSERT_TRUE(ModelRegistry::Publish(dir, 1, v1.config, v1.params,
                                     v1.num_classes)
                  .ok());
  ModelRegistry registry(dir);
  ASSERT_TRUE(registry.Refresh().ok());
  SyntheticConfig other;
  other.num_nodes = 30;
  other.num_classes = 3;
  other.feature_dim = 9;  // wrong width
  Graph incompatible = GenerateSbmGraph(other);
  EXPECT_EQ(registry.ValidateCompatibility(incompatible).code(),
            Status::Code::kInvalidArgument);
}

TEST(InferenceEngineTest, MatchesTrainingPathBitwise) {
  Graph graph = SmallGraph();
  for (ModelFamily family :
       {ModelFamily::kGcn, ModelFamily::kAppnp, ModelFamily::kGat}) {
    ServableModel model = MakeServable(graph, 1, family, 31);
    ServeStats stats;
    InferenceEngine engine(&graph, EngineOptions{}, &stats);
    auto served = engine.PredictAll(model);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    Matrix training = InferenceEngine::TrainingPathProbs(model, graph);
    EXPECT_EQ(MaxAbsDiff(served.value(), training), 0.0)
        << "family " << ModelFamilyName(family);
  }
}

TEST(InferenceEngineTest, GatheredBatchMatchesFullRows) {
  Graph graph = SmallGraph();
  ServableModel model = MakeServable(graph, 1);
  InferenceEngine engine(&graph, EngineOptions{});
  auto all = engine.PredictAll(model);
  ASSERT_TRUE(all.ok());
  const std::vector<int> nodes = {5, 0, 47, 5, 23};
  auto batch = engine.PredictNodes(model, nodes);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int c = 0; c < graph.num_classes(); ++c) {
      EXPECT_EQ(batch.value()(static_cast<int>(i), c),
                all.value()(nodes[i], c));
    }
  }
}

TEST(InferenceEngineTest, SecondQueryHitsCache) {
  Graph graph = SmallGraph();
  ServableModel model = MakeServable(graph, 1);
  ServeStats stats;
  InferenceEngine engine(&graph, EngineOptions{}, &stats);
  ASSERT_TRUE(engine.Warm(model).ok());
  ASSERT_TRUE(engine.PredictNodes(model, {3}).ok());
  EXPECT_EQ(engine.cache().misses(), 1);
  EXPECT_EQ(engine.cache().hits(), 1);
  ServeStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.cache_misses, 1);
  EXPECT_EQ(snap.cache_hits, 1);
  EXPECT_EQ(snap.cache_bytes, int64_t{graph.num_nodes()} *
                                  model.config.hidden_dim * 8);
}

TEST(InferenceEngineTest, RejectsBadInputs) {
  Graph graph = SmallGraph();
  ServableModel model = MakeServable(graph, 1);
  InferenceEngine engine(&graph, EngineOptions{});
  EXPECT_EQ(engine.PredictNodes(model, {graph.num_nodes()}).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine.PredictNodes(model, {-1}).status().code(),
            Status::Code::kInvalidArgument);
  ServableModel wrong = model;
  wrong.config.in_dim = model.config.in_dim + 1;
  EXPECT_EQ(engine.PredictNodes(wrong, {0}).status().code(),
            Status::Code::kInvalidArgument);
}

// End-to-end fixture: registry dir + engine + batcher over a small graph.
class BatcherFixture {
 public:
  explicit BatcherFixture(const std::string& name) : graph_(SmallGraph()) {
    dir_ = FreshDir(name);
    ServableModel v1 = MakeServable(graph_, 1);
    AHG_CHECK(ModelRegistry::Publish(dir_, 1, v1.config, v1.params,
                                     v1.num_classes)
                  .ok());
    registry_ = std::make_unique<ModelRegistry>(dir_);
    AHG_CHECK(registry_->Refresh().ok());
  }

  Graph graph_;
  std::string dir_;
  std::unique_ptr<ModelRegistry> registry_;
};

TEST(RequestBatcherTest, AnswersMatchDirectPrediction) {
  BatcherFixture fx("serve_batcher_basic");
  ServeStats stats;
  InferenceEngine engine(&fx.graph_, EngineOptions{}, &stats);
  BatcherOptions options;
  options.max_batch_size = 4;
  options.deadline_ms = 60000.0;
  RequestBatcher batcher(&engine, fx.registry_.get(), options, &stats);

  std::vector<std::future<QueryResult>> futures;
  for (int node = 0; node < fx.graph_.num_nodes(); ++node) {
    futures.push_back(batcher.Enqueue(node));
  }
  batcher.Drain();

  auto expected = engine.PredictAll(*fx.registry_->Active());
  ASSERT_TRUE(expected.ok());
  for (int node = 0; node < fx.graph_.num_nodes(); ++node) {
    QueryResult result = futures[node].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_EQ(static_cast<int>(result.probs.size()),
              fx.graph_.num_classes());
    double sum = 0.0;
    for (int c = 0; c < fx.graph_.num_classes(); ++c) {
      EXPECT_EQ(result.probs[c], expected.value()(node, c));
      sum += result.probs[c];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  ServeStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.completed, fx.graph_.num_nodes());
  EXPECT_EQ(snap.deadline_violations, 0);
  EXPECT_EQ(snap.rejected, 0);
  EXPECT_GT(snap.qps, 0.0);
  EXPECT_GE(snap.p99_latency_ms, snap.p50_latency_ms);
  int64_t histogram_total = 0;
  for (int b = 0; b < kBatchHistogramBuckets; ++b) {
    histogram_total += snap.batch_size_histogram[b];
  }
  EXPECT_EQ(histogram_total, snap.batches);
}

// The acceptance contract: served outputs are bitwise identical across
// batcher pool sizes {1, 2, 4}. Each run uses a fresh engine (cold cache)
// so the propagation product itself is recomputed per thread count.
TEST(RequestBatcherTest, BitwiseIdenticalAcrossThreadCounts) {
  BatcherFixture fx("serve_batcher_determinism");
  std::vector<std::vector<double>> reference;
  for (int threads : {1, 2, 4}) {
    ServeStats stats;
    InferenceEngine engine(&fx.graph_, EngineOptions{}, &stats);
    BatcherOptions options;
    options.max_batch_size = 3;
    options.num_threads = threads;
    options.deadline_ms = 60000.0;
    RequestBatcher batcher(&engine, fx.registry_.get(), options, &stats);
    std::vector<std::future<QueryResult>> futures;
    for (int node = 0; node < fx.graph_.num_nodes(); ++node) {
      futures.push_back(batcher.Enqueue(node));
    }
    batcher.Drain();
    std::vector<std::vector<double>> outputs;
    for (auto& future : futures) {
      QueryResult result = future.get();
      ASSERT_TRUE(result.status.ok());
      outputs.push_back(std::move(result.probs));
    }
    if (reference.empty()) {
      reference = std::move(outputs);
    } else {
      ASSERT_EQ(outputs.size(), reference.size());
      for (size_t i = 0; i < outputs.size(); ++i) {
        ASSERT_EQ(outputs[i].size(), reference[i].size());
        for (size_t c = 0; c < outputs[i].size(); ++c) {
          EXPECT_EQ(outputs[i][c], reference[i][c])
              << "threads=" << threads << " node=" << i;
        }
      }
    }
  }
}

TEST(RequestBatcherTest, ExpiredDeadlineIsCountedAndReported) {
  BatcherFixture fx("serve_batcher_deadline");
  ServeStats stats;
  InferenceEngine engine(&fx.graph_, EngineOptions{}, &stats);
  BatcherOptions options;
  options.max_batch_size = 64;  // force all requests into the Flush() batch
  RequestBatcher batcher(&engine, fx.registry_.get(), options, &stats);
  std::vector<std::future<QueryResult>> futures;
  for (int node = 0; node < 8; ++node) {
    // A deadline no queue can meet.
    futures.push_back(batcher.Enqueue(node, /*deadline_ms=*/1e-9));
  }
  batcher.Drain();
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status.code(), Status::Code::kDeadlineExceeded);
  }
  EXPECT_EQ(stats.Snapshot().deadline_violations, 8);
  EXPECT_EQ(stats.Snapshot().completed, 0);
}

// Regression test (ISSUE 6 satellite): the flusher used to race its delay
// clock against request deadlines — a request whose deadline fell inside
// max_queue_delay_ms was still packed into a batch and dispatched to the
// pool, where ExecuteBatch discovered the expiry after paying for the
// dispatch. The flusher now expires pending requests in place: the answer
// arrives near the deadline (not the delay bound) and no pool task runs.
TEST(RequestBatcherTest, FlusherExpiresDeadlinesWithoutDispatching) {
  BatcherFixture fx("serve_batcher_expiry_race");
  ServeStats stats;
  InferenceEngine engine(&fx.graph_, EngineOptions{}, &stats);
  BatcherOptions options;
  options.max_batch_size = 64;          // never cut on size
  options.max_queue_delay_ms = 60000.0; // delay clock far beyond the deadline
  RequestBatcher batcher(&engine, fx.registry_.get(), options, &stats);
  std::future<QueryResult> future = batcher.Enqueue(0, /*deadline_ms=*/20.0);
  // Only the flusher's deadline wake-up can answer this before the 60s
  // delay bound; the generous wait absorbs slow CI.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  QueryResult result = future.get();
  EXPECT_EQ(result.status.code(), Status::Code::kDeadlineExceeded)
      << result.status.ToString();
  ServeStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.deadline_violations, 1);
  EXPECT_EQ(snap.completed, 0);
  // The proof the request never reached the pool: no batch was executed
  // and the engine never computed (or even looked up) a propagation
  // product on its behalf.
  EXPECT_EQ(snap.batches, 0);
  EXPECT_EQ(snap.cache_misses, 0);
  EXPECT_EQ(snap.cache_hits, 0);
}

// Same contract on the Flush() path: expired requests are answered during
// Flush, not packed into the submitted batch, and live requests in the same
// queue still execute normally.
TEST(RequestBatcherTest, FlushExpiresStaleRequestsButServesLiveOnes) {
  BatcherFixture fx("serve_batcher_expiry_flush");
  ServeStats stats;
  InferenceEngine engine(&fx.graph_, EngineOptions{}, &stats);
  BatcherOptions options;
  options.max_batch_size = 64;
  options.max_queue_delay_ms = 0.0;  // no flusher: Flush owns expiry
  options.deadline_ms = 0.0;         // default: no deadline
  RequestBatcher batcher(&engine, fx.registry_.get(), options, &stats);
  std::future<QueryResult> stale = batcher.Enqueue(1, /*deadline_ms=*/1e-9);
  std::future<QueryResult> live = batcher.Enqueue(2);  // no deadline
  batcher.Drain();
  EXPECT_EQ(stale.get().status.code(), Status::Code::kDeadlineExceeded);
  QueryResult served = live.get();
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  ServeStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.deadline_violations, 1);
  EXPECT_EQ(snap.completed, 1);
  // Exactly one single-request batch executed — the stale request was
  // removed before the cut, not dispatched alongside the live one.
  EXPECT_EQ(snap.batches, 1);
  EXPECT_EQ(snap.batch_size_histogram[0], 1);
}

// Regression test: a batch smaller than max_batch_size used to sit in the
// queue until an explicit Flush()/Drain() — a lone request never completed.
// The background flusher now bounds queue residence by max_queue_delay_ms.
TEST(RequestBatcherTest, PartialBatchFlushedWithinQueueDelay) {
  BatcherFixture fx("serve_batcher_autoflush");
  ServeStats stats;
  InferenceEngine engine(&fx.graph_, EngineOptions{}, &stats);
  BatcherOptions options;
  options.max_batch_size = 64;  // a lone request never fills a batch
  options.max_queue_delay_ms = 25.0;
  options.deadline_ms = 60000.0;
  RequestBatcher batcher(&engine, fx.registry_.get(), options, &stats);
  std::future<QueryResult> future = batcher.Enqueue(3);
  // No Flush()/Drain(): only the flusher can complete this. The wait bound
  // is generous for slow CI; the point is that it completes at all.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  QueryResult result = future.get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(stats.Snapshot().completed, 1);
}

TEST(RequestBatcherTest, QueueLimitRejectsOverload) {
  BatcherFixture fx("serve_batcher_overload");
  ServeStats stats;
  InferenceEngine engine(&fx.graph_, EngineOptions{}, &stats);
  BatcherOptions options;
  options.max_batch_size = 1000;  // nothing drains until Flush
  options.queue_limit = 8;
  options.deadline_ms = 60000.0;
  options.max_queue_delay_ms = 0.0;  // no flusher: admission is deterministic
  RequestBatcher batcher(&engine, fx.registry_.get(), options, &stats);
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(batcher.Enqueue(i % fx.graph_.num_nodes()));
  }
  batcher.Drain();
  int ok = 0, rejected = 0;
  for (auto& future : futures) {
    QueryResult result = future.get();
    if (result.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(result.status.code(), Status::Code::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(rejected, 12);
  EXPECT_EQ(stats.Snapshot().rejected, 12);
}

TEST(RequestBatcherTest, NoActiveModelFailsRequests) {
  Graph graph = SmallGraph();
  ModelRegistry registry(FreshDir("serve_batcher_empty"));
  ServeStats stats;
  InferenceEngine engine(&graph, EngineOptions{}, &stats);
  BatcherOptions options;
  options.deadline_ms = 60000.0;
  RequestBatcher batcher(&engine, &registry, options, &stats);
  auto future = batcher.Enqueue(0);
  batcher.Drain();
  EXPECT_EQ(future.get().status.code(), Status::Code::kNotFound);
  EXPECT_EQ(stats.Snapshot().failed, 1);
}

TEST(ServeStatsTest, BucketLabelsAndReset) {
  EXPECT_EQ(ServeStatsSnapshot::BucketLabel(0), "1");
  EXPECT_EQ(ServeStatsSnapshot::BucketLabel(1), "2");
  EXPECT_EQ(ServeStatsSnapshot::BucketLabel(2), "3-4");
  EXPECT_EQ(ServeStatsSnapshot::BucketLabel(3), "5-8");
  EXPECT_EQ(ServeStatsSnapshot::BucketLabel(kBatchHistogramBuckets - 1),
            "129+");
  ServeStats stats;
  stats.RecordCompleted(1.0);
  stats.RecordCompleted(3.0);
  stats.RecordBatch(2);
  stats.RecordBatch(64);
  ServeStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.completed, 2);
  EXPECT_EQ(snap.batches, 2);
  EXPECT_EQ(snap.batch_size_histogram[1], 1);
  EXPECT_EQ(snap.batch_size_histogram[6], 1);  // 33-64 bucket
  EXPECT_GE(snap.p99_latency_ms, snap.p50_latency_ms);
  EXPECT_FALSE(FormatStatsTable(snap).empty());
  stats.Reset();
  EXPECT_EQ(stats.Snapshot().total(), 0);
}

// Regression test: latencies used to accumulate in an unbounded vector that
// Snapshot() copied and sorted under the stats lock — O(completed) memory
// and O(n log n) snapshot cost under sustained traffic. Now a bounded
// reservoir (deterministic RNG) plus a running max keep both O(reservoir).
TEST(ServeStatsTest, LatencyReservoirIsBoundedAndDeterministic) {
  ServeStats stats;
  constexpr int kRequests = 100000;
  for (int i = 0; i < kRequests; ++i) {
    stats.RecordCompleted(static_cast<double>(i % 997));
  }
  stats.RecordCompleted(5000.0);
  ServeStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.completed, kRequests + 1);
  EXPECT_LE(snap.latency_samples, ServeStats::kLatencyReservoirSize);
  EXPECT_GT(snap.latency_samples, 0);
  // The max is tracked outside the reservoir, so it is exact even when the
  // sample itself was not retained.
  EXPECT_DOUBLE_EQ(snap.max_latency_ms, 5000.0);
  EXPECT_GE(snap.p99_latency_ms, snap.p50_latency_ms);
  EXPECT_LE(snap.p99_latency_ms, snap.max_latency_ms);
  // Reservoir replacement uses a deterministic seeded RNG: two instances fed
  // the same stream report identical percentiles.
  ServeStats other;
  for (int i = 0; i < kRequests; ++i) {
    other.RecordCompleted(static_cast<double>(i % 997));
  }
  other.RecordCompleted(5000.0);
  ServeStatsSnapshot snap2 = other.Snapshot();
  EXPECT_EQ(snap.p50_latency_ms, snap2.p50_latency_ms);
  EXPECT_EQ(snap.p99_latency_ms, snap2.p99_latency_ms);
  EXPECT_EQ(snap.latency_samples, snap2.latency_samples);
}

}  // namespace
}  // namespace ahg::serve
