#include "serve/inference_engine.h"

#include <cstring>
#include <mutex>

#include "autodiff/ops.h"
#include "graph/reorder.h"
#include "nn/linear.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace ahg::serve {

Matrix ApplyClassifierHead(const Matrix& hidden_rows,
                           const ServableModel& model) {
  Matrix logits = MatMul(hidden_rows, model.head_weight());
  const Matrix& bias = model.head_bias();
  for (int r = 0; r < logits.rows(); ++r) {
    double* row = logits.Row(r);
    for (int c = 0; c < logits.cols(); ++c) row[c] += bias(0, c);
  }
  return RowSoftmax(logits);
}

InferenceEngine::InferenceEngine(const Graph* graph,
                                 const EngineOptions& options,
                                 ServeStats* stats)
    : graph_(graph),
      own_cache_(options.cache_byte_budget),
      cache_(options.shared_cache != nullptr ? options.shared_cache
                                             : &own_cache_),
      scope_(options.cache_scope),
      stats_(stats) {
  AHG_CHECK(graph != nullptr);
  AHG_CHECK(scope_.find('/') == std::string::npos);
}

StatusOr<std::shared_ptr<const Matrix>> InferenceEngine::HiddenStates(
    const ServableModel& model) {
  // One consistent (graph, generation) pair for the whole request; a
  // concurrent SwapGraph retargets later requests, never this one.
  const Graph* graph;
  uint64_t generation;
  {
    std::shared_lock<std::shared_mutex> lock(graph_mu_);
    graph = graph_;
    generation = graph_generation_;
  }
  if (model.config.in_dim != graph->feature_dim()) {
    return Status::InvalidArgument(
        StrFormat("model consumes %d-dim features, serving graph has %d-dim",
                  model.config.in_dim, graph->feature_dim()));
  }
  // Published versions are immutable and the generation pins the topology,
  // so (generation, version) identifies the propagation product.
  const std::string key =
      PropagationKey(GraphId(scope_, generation), model.version);
  bool computed = false;
  std::shared_ptr<const Matrix> hidden =
      cache_->GetOrCompute(key, [graph, &model, &computed] {
        computed = true;
        std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
        std::vector<Matrix> weights(model.params.begin(),
                                    model.params.end() - 2);
        zoo->params()->Restore(weights);
        return zoo->ForwardInference(*graph, graph->features());
      });
  if (obs::TracingEnabled()) {
    // Instant-style marker (the lookup itself is sub-microsecond); the
    // miss's compute cost shows up as the enclosed serve/cache_compute span.
    obs::TraceRecorder& recorder = obs::TraceRecorder::Instance();
    recorder.Emit(computed ? "serve/cache_miss" : "serve/cache_hit",
                  recorder.NowMicros(), 0, model.version);
  }
  if (stats_ != nullptr) {
    if (computed) {
      stats_->RecordCacheMiss();
    } else {
      stats_->RecordCacheHit();
    }
    stats_->SetCacheBytes(cache_->current_bytes());
  }
  return hidden;
}

StatusOr<Matrix> InferenceEngine::PredictNodes(const ServableModel& model,
                                               const std::vector<int>& nodes) {
  AHG_TRACE_SPAN_ARG("serve/predict_nodes",
                     static_cast<int64_t>(nodes.size()));
  auto hidden = HiddenStates(model);
  if (!hidden.ok()) return hidden.status();
  const Matrix& h = *hidden.value();
  // Query ids are external; hidden rows live in the serving graph's
  // (possibly reordered) internal order. Translate once here — the same
  // benign swap race as the row-count validation below, since a reordered
  // graph swap republishes matching hidden states with it.
  const NodePermutation* perm;
  {
    std::shared_lock<std::shared_mutex> lock(graph_mu_);
    perm = graph_->permutation();
  }
  // Validate against the hidden-state matrix the request resolved, so the
  // answer is self-consistent even when a swap lands mid-request.
  for (int node : nodes) {
    if (node < 0 || node >= h.rows()) {
      return Status::InvalidArgument(
          StrFormat("node id %d out of range [0, %d)", node, h.rows()));
    }
  }
  Matrix rows(static_cast<int>(nodes.size()), h.cols());
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::memcpy(rows.Row(static_cast<int>(i)),
                h.Row(ToInternalId(perm, nodes[i])),
                static_cast<size_t>(h.cols()) * sizeof(double));
  }
  return ApplyClassifierHead(rows, model);
}

StatusOr<Matrix> InferenceEngine::PredictAll(const ServableModel& model) {
  auto hidden = HiddenStates(model);
  if (!hidden.ok()) return hidden.status();
  Matrix probs = ApplyClassifierHead(*hidden.value(), model);
  const NodePermutation* perm;
  {
    std::shared_lock<std::shared_mutex> lock(graph_mu_);
    perm = graph_->permutation();
  }
  // Row order is an external contract: row e is node e's probabilities. On
  // a reordered graph, gather the internally ordered rows back out.
  if (perm != nullptr && probs.rows() == perm->num_nodes()) {
    probs = GatherRows(probs, perm->to_internal);
  }
  return probs;
}

Status InferenceEngine::Warm(const ServableModel& model) {
  return HiddenStates(model).status();
}

Status InferenceEngine::SwapGraph(const Graph* graph, uint64_t generation) {
  if (graph == nullptr) {
    return Status::InvalidArgument("SwapGraph: null graph");
  }
  uint64_t retired;
  {
    std::unique_lock<std::shared_mutex> lock(graph_mu_);
    if (generation <= graph_generation_) {
      return Status::InvalidArgument(
          StrFormat("SwapGraph: generation %lld not above current %lld",
                    static_cast<long long>(generation),
                    static_cast<long long>(graph_generation_)));
    }
    retired = graph_generation_;
    graph_ = graph;
    graph_generation_ = generation;
  }
  if (obs::TracingEnabled()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Instance();
    recorder.Emit("serve/graph_swap", recorder.NowMicros(), 0,
                  static_cast<int64_t>(generation));
  }
  // Products of the retired topology must never answer a new query;
  // in-flight requests that already resolved a shared_ptr keep it alive.
  cache_->InvalidateGraph(GraphId(scope_, retired));
  if (stats_ != nullptr) stats_->SetCacheBytes(cache_->current_bytes());
  return Status::OK();
}

Status InferenceEngine::InstallHiddenStates(
    int version, std::shared_ptr<const Matrix> hidden) {
  if (hidden == nullptr) {
    return Status::InvalidArgument("InstallHiddenStates: null hidden states");
  }
  const Graph* graph;
  uint64_t generation;
  {
    std::shared_lock<std::shared_mutex> lock(graph_mu_);
    graph = graph_;
    generation = graph_generation_;
  }
  if (hidden->rows() != graph->num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("hidden states have %d rows, serving graph has %d nodes",
                  hidden->rows(), graph->num_nodes()));
  }
  cache_->Put(PropagationKey(GraphId(scope_, generation), version),
              std::move(hidden));
  if (stats_ != nullptr) stats_->SetCacheBytes(cache_->current_bytes());
  return Status::OK();
}

uint64_t InferenceEngine::graph_generation() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return graph_generation_;
}

const Graph& InferenceEngine::graph() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return *graph_;
}

Matrix InferenceEngine::TrainingPathProbs(const ServableModel& model,
                                          const Graph& graph) {
  std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
  Rng head_rng(model.config.seed ^ 0x5ca1ab1eULL);
  Linear head(zoo->params(), model.config.hidden_dim, model.num_classes,
              /*bias=*/true, &head_rng);
  zoo->params()->Restore(model.params);
  GnnContext ctx;
  ctx.graph = &graph;
  ctx.training = false;
  Var logits = head.Apply(zoo->LayerOutputs(ctx, MakeConstant(graph.features()))
                              .back());
  Matrix probs = RowSoftmax(logits->value);
  // Same external row contract as PredictAll.
  if (graph.permutation() != nullptr) {
    probs = GatherRows(probs, graph.permutation()->to_internal);
  }
  return probs;
}

}  // namespace ahg::serve
