// Frozen-model inference over one serving graph.
//
// The engine answers node-classification queries against ServableModels
// from a ModelRegistry. Per (graph, model-version) pair it runs the frozen
// forward (GnnModel::ForwardInference: eval mode, tape disabled) exactly
// once and parks the final hidden states H^(L) (num_nodes x hidden_dim) in
// a PropagationCache; a query then gathers the requested rows and applies
// the classifier head — dense lookup + MLP instead of a full-graph SpMM
// stack. Because every kernel on both paths is deterministic across thread
// counts (see README "Threading model") and each output row depends only on
// its own input row, served probabilities are bitwise identical to the
// training-path eval forward regardless of batching or thread count. The
// frozen forward always runs the fused kernels and transforms solely-owned
// activations in place (autodiff/ops.h); it opens no arena, so cached
// products are ordinary heap buffers that an LRU eviction frees
// (tensor/pool.h).
#ifndef AUTOHENS_SERVE_INFERENCE_ENGINE_H_
#define AUTOHENS_SERVE_INFERENCE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "graph/graph.h"
#include "serve/model_registry.h"
#include "serve/node_predictor.h"
#include "serve/propagation_cache.h"
#include "serve/serve_stats.h"
#include "util/status.h"

namespace ahg::serve {

// Classifier head used at training time: softmax(H W + b), applied with the
// same kernels and accumulation order as nn/Linear + RowSoftmax, so a
// gathered batch reproduces the training-path rows bitwise (each output row
// depends only on its own input row). Shared by the static engine and the
// dynamic-graph streaming server.
Matrix ApplyClassifierHead(const Matrix& hidden_rows,
                           const ServableModel& model);

struct EngineOptions {
  // LRU budget for cached propagation products; <= 0 means unbounded.
  // Ignored when `shared_cache` is set.
  int64_t cache_byte_budget = int64_t{256} << 20;
  // When set, the engine caches its propagation products here instead of in
  // a private cache — the fabric points every tenant engine of a shard at
  // one cache so the shard has a single LRU byte budget. Must outlive the
  // engine. Engines sharing a cache MUST carry distinct `cache_scope`s:
  // generations are per-engine counters, so without a scope two tenant
  // graphs at the same (generation, model-version) pair collide on the key
  // and one tenant is served the other's hidden states.
  PropagationCache* shared_cache = nullptr;
  // Stable graph/tenant id folded into every cache key (and into
  // InvalidateGraph on swap). Empty keeps the historical "g<gen>" keys for
  // single-tenant engines. Must not contain '/'.
  std::string cache_scope;
};

class InferenceEngine : public NodePredictor {
 public:
  // `graph` must outlive the engine. `stats` is optional; when set, cache
  // hits/misses and the pinned byte count are reported there.
  InferenceEngine(const Graph* graph, const EngineOptions& options,
                  ServeStats* stats = nullptr);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  // Class probabilities for `nodes` (rows in input order, num_classes
  // columns). InvalidArgument on an out-of-range node id or a model whose
  // in_dim does not match the graph.
  StatusOr<Matrix> PredictNodes(const ServableModel& model,
                                const std::vector<int>& nodes) override;

  // Full-graph probabilities through the same cached path.
  StatusOr<Matrix> PredictAll(const ServableModel& model);

  // Forces the propagation product for `model` into the cache (cache-warm
  // startup) without computing head outputs.
  Status Warm(const ServableModel& model);

  // Atomically retargets the engine at a new serving graph (a materialized
  // dynamic-graph snapshot) and invalidates every cached product of the old
  // generation. `generation` must be strictly greater than the current one
  // and `graph` must outlive the engine. In-flight batches are not blocked:
  // they finish against the graph + hidden-state shared_ptrs they already
  // resolved (the caller keeps the old graph alive until they drain), while
  // every later query keys the cache by the new generation.
  Status SwapGraph(const Graph* graph, uint64_t generation);

  // Seeds the cache for (current generation, `version`) with hidden states
  // computed elsewhere — the dynamic path installs its incrementally
  // patched H^(L) here so the first post-swap query pays a row gather, not
  // a full forward. `hidden` must be num_nodes x hidden_dim for the current
  // graph.
  Status InstallHiddenStates(int version,
                             std::shared_ptr<const Matrix> hidden);

  // Graph generation used in cache keys (0 until the first SwapGraph).
  uint64_t graph_generation() const;

  // The cache this engine resolves against: the shared one when
  // EngineOptions::shared_cache was set, the private one otherwise.
  const PropagationCache& cache() const { return *cache_; }
  const Graph& graph() const;

  // Comparator/baseline: rebuilds the autodiff model + head and runs the
  // tape-building eval forward over the whole graph (exactly what training
  // validation computes). This is the "naive per-query" cost a query would
  // pay without the serving layer.
  static Matrix TrainingPathProbs(const ServableModel& model,
                                  const Graph& graph);

 private:
  // Cached H^(L) for (graph generation, model.version).
  StatusOr<std::shared_ptr<const Matrix>> HiddenStates(
      const ServableModel& model);

  // Guards the (graph, generation) pair; queries take it shared for the
  // duration of one pointer read, so a swap never blocks behind a batch.
  mutable std::shared_mutex graph_mu_;
  const Graph* graph_;
  uint64_t graph_generation_ = 0;
  PropagationCache own_cache_;
  PropagationCache* const cache_;  // &own_cache_ or options.shared_cache
  const std::string scope_;        // options.cache_scope
  ServeStats* const stats_;
};

}  // namespace ahg::serve

#endif  // AUTOHENS_SERVE_INFERENCE_ENGINE_H_
