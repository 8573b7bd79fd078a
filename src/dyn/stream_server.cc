#include "dyn/stream_server.h"

#include <chrono>
#include <utility>

#include "obs/trace.h"
#include "util/string_util.h"

namespace ahg::dyn {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

StreamingServer::StreamingServer(const serve::ServableModel& model,
                                 const StreamOptions& options)
    : model_(model),
      options_(options),
      m_batches_(obs::MetricsRegistry::Global().GetCounter("dyn.batches")),
      m_mutations_(
          obs::MetricsRegistry::Global().GetCounter("dyn.mutations_applied")),
      m_incremental_(obs::MetricsRegistry::Global().GetCounter(
          "dyn.incremental_refreshes")),
      m_full_(
          obs::MetricsRegistry::Global().GetCounter("dyn.full_refreshes")),
      m_rows_refreshed_(
          obs::MetricsRegistry::Global().GetCounter("dyn.rows_refreshed")),
      m_refresh_ms_(obs::MetricsRegistry::Global().GetHistogram(
          "dyn.refresh_ms", obs::DefaultLatencyBucketsMs())),
      m_dirty_fraction_(obs::MetricsRegistry::Global().GetHistogram(
          "dyn.dirty_fraction", obs::DefaultFractionBuckets())) {}

StatusOr<std::unique_ptr<StreamingServer>> StreamingServer::Create(
    const Graph& graph, const serve::ServableModel& model,
    const StreamOptions& options) {
  if (!IncrementalPropagator::Supports(model.config)) {
    return Status::InvalidArgument(StrFormat(
        "model family %s has no incremental propagation support",
        ModelFamilyName(model.config.family)));
  }
  Status valid = serve::ValidateServableModel(model);
  if (!valid.ok()) return valid;
  if (model.config.in_dim != graph.feature_dim()) {
    return Status::InvalidArgument(
        StrFormat("model consumes %d-dim features, graph has %d-dim",
                  model.config.in_dim, graph.feature_dim()));
  }
  auto snap = GraphSnapshot::FromGraph(graph);
  if (!snap.ok()) return snap.status();

  std::unique_ptr<StreamingServer> server(
      new StreamingServer(model, options));
  std::vector<Matrix> layer_params(model.params.begin(),
                                   model.params.end() - 2);
  server->propagator_ = std::make_unique<IncrementalPropagator>(
      model.config, std::move(layer_params), options.refresh);

  auto state = std::make_shared<State>();
  state->snap =
      std::make_shared<const GraphSnapshot>(std::move(snap).value());
  server->propagator_->FullRefresh(*state->snap);
  state->hidden = server->propagator_->hidden();
  server->state_ = std::move(state);
  return server;
}

uint64_t StreamingServer::Submit(Mutation m) {
  return log_.Append(std::move(m));
}

std::shared_ptr<const StreamingServer::State> StreamingServer::state() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

StatusOr<RefreshStats> StreamingServer::ApplyPending() {
  std::lock_guard<std::mutex> lock(apply_mu_);
  const std::vector<Mutation> batch = log_.Drain();
  std::shared_ptr<const State> cur = state();
  if (batch.empty()) {
    // Nothing to fold in; report the published state without a version bump.
    RefreshStats stats;
    stats.incremental = true;
    stats.version = cur->snap->version();
    return stats;
  }
  const auto start = std::chrono::steady_clock::now();
  AHG_TRACE_SPAN_ARG("dyn/apply_pending", static_cast<int64_t>(batch.size()));

  auto applied = cur->snap->Apply(batch);
  if (!applied.ok()) return applied.status();
  auto next = std::make_shared<const GraphSnapshot>(
      std::move(applied.value().first));
  const BatchDelta delta = std::move(applied.value().second);

  auto stats_or = propagator_->Refresh(*next, delta);
  if (!stats_or.ok()) return stats_or.status();
  RefreshStats stats = stats_or.value();

  if (delta.compacted && options_.reorder != ReorderStrategy::kNone) {
    // Compaction is the re-reorder point: the overlays just folded into
    // fresh bases anyway, so recomputing the locality layout now is the
    // cheap moment. States are row-gathered (zero FLOPs), so the refresh
    // cost bound above is untouched.
    ReorderResult reordered =
        next->Reordered(options_.reorder, options_.reorder_seed);
    propagator_->ApplyReorder(reordered.remap,
                              reordered.snapshot.version());
    next = std::make_shared<const GraphSnapshot>(
        std::move(reordered.snapshot));
    stats.version = next->version();
  }

  auto state = std::make_shared<State>();
  state->snap = std::move(next);
  state->hidden = propagator_->hidden();
  {
    std::lock_guard<std::mutex> state_lock(state_mu_);
    state_ = std::move(state);
  }

  m_batches_->Increment();
  m_mutations_->Increment(static_cast<int64_t>(batch.size()));
  (stats.incremental ? m_incremental_ : m_full_)->Increment();
  m_rows_refreshed_->Increment(stats.rows_refreshed);
  m_refresh_ms_->Observe(MsSince(start));
  m_dirty_fraction_->Observe(stats.dirty_fraction);
  return stats;
}

StatusOr<Matrix> StreamingServer::PredictNodes(
    const std::vector<int>& nodes) const {
  // One pointer copy pins an immutable (snapshot, hidden) pair for the
  // whole query; a concurrent publish retargets later queries only.
  std::shared_ptr<const State> s = state();
  const Matrix& h = *s->hidden;
  for (int node : nodes) {
    if (node < 0 || node >= h.rows()) {
      return Status::InvalidArgument(
          StrFormat("node id %d out of range [0, %d)", node, h.rows()));
    }
  }
  // Query ids are external; hidden rows live in the snapshot's (possibly
  // reordered) internal order — translate once at this boundary.
  std::vector<int> rows;
  rows.reserve(nodes.size());
  for (int node : nodes) rows.push_back(s->snap->ToInternal(node));
  return serve::ApplyClassifierHead(GatherRows(h, rows), model_);
}

std::shared_ptr<const GraphSnapshot> StreamingServer::snapshot() const {
  return state()->snap;
}

std::shared_ptr<const Matrix> StreamingServer::hidden() const {
  return state()->hidden;
}

uint64_t StreamingServer::version() const {
  return state()->snap->version();
}

Status StreamingServer::PublishTo(serve::InferenceEngine* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("PublishTo: null engine");
  }
  // Serialized with ApplyPending, so publishes reach the engine in version
  // order.
  std::lock_guard<std::mutex> lock(apply_mu_);
  std::shared_ptr<const State> s = state();
  // Engines are born at generation 0 on their construction graph, so
  // snapshot version v maps to engine generation v + 1.
  return engine->Publish(s->snap, s->snap->version() + 1, model_.version,
                         s->hidden);
}

}  // namespace ahg::dyn
