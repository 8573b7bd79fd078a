#include "serve/inference_engine.h"

#include <cstring>
#include <mutex>
#include <utility>

#include "autodiff/ops.h"
#include "dyn/incremental.h"
#include "dyn/snapshot.h"
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

int InferenceEngine::View::feature_dim() const {
  return snap != nullptr ? snap->feature_dim() : graph->feature_dim();
}

const NodePermutation* InferenceEngine::View::permutation() const {
  return snap != nullptr ? snap->permutation() : graph->permutation();
}

InferenceEngine::InferenceEngine(const Graph* graph,
                                 const EngineOptions& options,
                                 ServeStats* stats)
    : own_cache_(options.cache_byte_budget),
      cache_(options.shared_cache != nullptr ? options.shared_cache
                                             : &own_cache_),
      scope_(options.cache_scope),
      stats_(stats) {
  AHG_CHECK(graph != nullptr);
  AHG_CHECK(scope_.find('/') == std::string::npos);
  view_.graph = graph;
}

StatusOr<InferenceEngine::Resolved> InferenceEngine::Resolve(
    const ServableModel& model) {
  // One view for the whole request, and the cache probe under the same
  // shared lock: Publish Puts the new generation's states before it flips
  // and invalidates the old generation only after, so a view pinned here
  // always finds the states installed for it.
  Resolved r;
  std::string key;
  std::shared_future<std::shared_ptr<const Matrix>> resident;
  {
    std::shared_lock<std::shared_mutex> lock(view_mu_);
    r.view = view_;
    key = PropagationKey(GraphId(scope_, r.view.generation), model.version);
    resident = cache_->Find(key);
  }
  if (model.config.in_dim != r.view.feature_dim()) {
    return Status::InvalidArgument(
        StrFormat("model consumes %d-dim features, serving graph has %d-dim",
                  model.config.in_dim, r.view.feature_dim()));
  }
  if (r.view.snap != nullptr &&
      !dyn::IncrementalPropagator::Supports(model.config)) {
    return Status::InvalidArgument(StrFormat(
        "model family %s has no stage plan to serve a published snapshot",
        ModelFamilyName(model.config.family)));
  }
  bool computed = false;
  if (resident.valid()) {
    r.hidden = resident.get();
  } else {
    // Published versions are immutable and the generation pins the
    // topology, so (generation, version) identifies the product.
    r.hidden = cache_->GetOrCompute(key, [&r, &model, &computed] {
      computed = true;
      std::vector<Matrix> weights(model.params.begin(),
                                  model.params.end() - 2);
      if (r.view.snap != nullptr) {
        return dyn::IncrementalPropagator(model.config, std::move(weights))
            .ComputeFull(*r.view.snap);
      }
      std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
      zoo->params()->Restore(weights);
      return zoo->ForwardInference(*r.view.graph, r.view.graph->features());
    });
  }
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
  return r;
}

StatusOr<Matrix> InferenceEngine::PredictNodes(const ServableModel& model,
                                               const std::vector<int>& nodes) {
  AHG_TRACE_SPAN_ARG("serve/predict_nodes",
                     static_cast<int64_t>(nodes.size()));
  auto resolved = Resolve(model);
  if (!resolved.ok()) return resolved.status();
  const Matrix& h = *resolved.value().hidden;
  // Query ids are external; hidden rows live in the pinned view's
  // (possibly reordered) internal order. The permutation comes from the
  // same view as the rows, so a publish of a re-reordered snapshot that
  // lands mid-request cannot pair one version's rows with another's ids.
  const NodePermutation* perm = resolved.value().view.permutation();
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
  auto resolved = Resolve(model);
  if (!resolved.ok()) return resolved.status();
  Matrix probs = ApplyClassifierHead(*resolved.value().hidden, model);
  const NodePermutation* perm = resolved.value().view.permutation();
  // Row order is an external contract: row e is node e's probabilities. On
  // a reordered graph, gather the internally ordered rows back out.
  if (perm != nullptr && probs.rows() == perm->num_nodes()) {
    probs = GatherRows(probs, perm->to_internal);
  }
  return probs;
}

Status InferenceEngine::Warm(const ServableModel& model) {
  return Resolve(model).status();
}

Status InferenceEngine::Publish(std::shared_ptr<const dyn::GraphSnapshot> snap,
                                uint64_t generation, int version,
                                std::shared_ptr<const Matrix> hidden) {
  if (snap == nullptr || hidden == nullptr) {
    return Status::InvalidArgument("Publish: null snapshot or hidden states");
  }
  if (hidden->rows() != snap->num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("Publish: hidden states have %d rows, snapshot has %d nodes",
                  hidden->rows(), snap->num_nodes()));
  }
  View retired;
  {
    std::unique_lock<std::shared_mutex> lock(view_mu_);
    if (generation < view_.generation ||
        (generation == view_.generation && snap != view_.snap)) {
      return Status::InvalidArgument(StrFormat(
          "Publish: generation %lld is not above current %lld",
          static_cast<long long>(generation),
          static_cast<long long>(view_.generation)));
    }
    cache_->Put(PropagationKey(GraphId(scope_, generation), version),
                std::move(hidden));
    retired = std::exchange(view_, View{nullptr, std::move(snap), generation});
  }
  // The retired view (and, if this was its last holder, its snapshot) is
  // released here, outside the lock.
  if (retired.generation != generation) {
    if (obs::TracingEnabled()) {
      obs::TraceRecorder& recorder = obs::TraceRecorder::Instance();
      recorder.Emit("serve/graph_swap", recorder.NowMicros(), 0,
                    static_cast<int64_t>(generation));
    }
    // Products of the retired topology must never answer a new query;
    // in-flight requests that already resolved a shared_ptr keep it alive.
    cache_->InvalidateGraph(GraphId(scope_, retired.generation));
  }
  if (stats_ != nullptr) stats_->SetCacheBytes(cache_->current_bytes());
  return Status::OK();
}

uint64_t InferenceEngine::graph_generation() const {
  std::shared_lock<std::shared_mutex> lock(view_mu_);
  return view_.generation;
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
