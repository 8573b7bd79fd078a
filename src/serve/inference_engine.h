// Frozen-model inference over one serving graph.
//
// The engine answers node-classification queries against ServableModels
// from a ModelRegistry. Per (graph, model-version) pair it runs the frozen
// forward exactly once and parks the final hidden states H^(L)
// (num_nodes x hidden_dim) in a PropagationCache; a query then gathers the
// requested rows and applies the classifier head — dense lookup + MLP
// instead of a full-graph SpMM stack. Because every kernel on both paths is
// deterministic across thread counts (see README "Threading model") and
// each output row depends only on its own input row, served probabilities
// are bitwise identical to the training-path eval forward regardless of
// batching or thread count.
//
// An engine serves one of two views. A static engine serves its
// caller-owned construction Graph and computes a miss with
// GnnModel::ForwardInference (eval mode, tape disabled; fused kernels,
// solely-owned activations transformed in place, see autodiff/ops.h). Once
// a dynamic-graph stream Publishes a GraphSnapshot into it, the engine
// serves that snapshot by shared_ptr — no Graph is built — and computes a
// miss with the snapshot's stage plan (dyn/incremental.h), which is
// bitwise identical to ForwardInference on the materialized graph for the
// families it supports. No path opens an arena, so cached products are
// ordinary heap buffers that an LRU eviction frees (tensor/pool.h).
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

namespace ahg::dyn {
class GraphSnapshot;
}  // namespace ahg::dyn

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
  // InvalidateGraph on publish). Empty keeps the historical "g<gen>" keys for
  // single-tenant engines. Must not contain '/'.
  std::string cache_scope;
};

class InferenceEngine : public NodePredictor {
 public:
  // `graph` must outlive the engine until the first Publish retargets it.
  // `stats` is optional; when set, cache hits/misses and the pinned byte
  // count are reported there.
  InferenceEngine(const Graph* graph, const EngineOptions& options,
                  ServeStats* stats = nullptr);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  // Class probabilities for `nodes` (rows in input order, num_classes
  // columns). InvalidArgument on an out-of-range node id, a model whose
  // in_dim does not match the serving graph, or — once a snapshot is
  // published — a family without a stage plan.
  StatusOr<Matrix> PredictNodes(const ServableModel& model,
                                const std::vector<int>& nodes) override;

  // Full-graph probabilities through the same cached path.
  StatusOr<Matrix> PredictAll(const ServableModel& model);

  // Forces the propagation product for `model` into the cache (cache-warm
  // startup) without computing head outputs.
  Status Warm(const ServableModel& model);

  // Retargets the engine at a dynamic-graph snapshot and installs its
  // hidden states for model `version` in one step. `hidden` must have one
  // row per snapshot node. The states are Put under (generation, version)
  // before (snapshot, generation) flips, so no query resolves the new
  // generation without finding them; the retired generation's products are
  // invalidated afterwards. `generation` must be above the current one, or
  // equal to it with the same snapshot (then only the states are
  // re-installed). The engine holds `snap` until the next flip; requests
  // that pinned an older view keep theirs alive until they finish.
  Status Publish(std::shared_ptr<const dyn::GraphSnapshot> snap,
                 uint64_t generation, int version,
                 std::shared_ptr<const Matrix> hidden);

  // Graph generation used in cache keys (0 until the first Publish).
  uint64_t graph_generation() const;

  // The cache this engine resolves against: the shared one when
  // EngineOptions::shared_cache was set, the private one otherwise.
  const PropagationCache& cache() const { return *cache_; }

  // Comparator/baseline: rebuilds the autodiff model + head and runs the
  // tape-building eval forward over the whole graph (exactly what training
  // validation computes). This is the "naive per-query" cost a query would
  // pay without the serving layer.
  static Matrix TrainingPathProbs(const ServableModel& model,
                                  const Graph& graph);

 private:
  // What one request serves from: the construction graph, or the last
  // published snapshot, at one generation. A request copies it once and
  // uses its node count, feature width and permutation throughout.
  struct View {
    const Graph* graph = nullptr;                    // until the first Publish
    std::shared_ptr<const dyn::GraphSnapshot> snap;  // after it
    uint64_t generation = 0;

    int feature_dim() const;
    const NodePermutation* permutation() const;
  };

  // A pinned view plus its cached H^(L) for one model version.
  struct Resolved {
    View view;
    std::shared_ptr<const Matrix> hidden;
  };

  StatusOr<Resolved> Resolve(const ServableModel& model);

  // Guards view_. Requests hold it shared only to copy the view and probe
  // the cache; Publish holds it exclusively for the Put and the flip.
  mutable std::shared_mutex view_mu_;
  View view_;
  PropagationCache own_cache_;
  PropagationCache* const cache_;  // &own_cache_ or options.shared_cache
  const std::string scope_;        // options.cache_scope
  ServeStats* const stats_;
};

}  // namespace ahg::serve

#endif  // AUTOHENS_SERVE_INFERENCE_ENGINE_H_
