#include "dyn/incremental.h"

#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "util/bitset.h"
#include "util/logging.h"

namespace ahg::dyn {

Matrix DenseLayerTransform(const Matrix& agg, const Matrix& w, const Matrix& b,
                           bool relu) {
  Matrix h = MatMul(agg, w);
  AHG_CHECK_EQ(b.rows(), 1);
  AHG_CHECK_EQ(b.cols(), h.cols());
  for (int r = 0; r < h.rows(); ++r) {
    double* row = h.Row(r);
    const double* bias = b.Row(0);
    for (int c = 0; c < h.cols(); ++c) row[c] += bias[c];
    if (relu) {
      for (int c = 0; c < h.cols(); ++c) row[c] = row[c] > 0.0 ? row[c] : 0.0;
    }
  }
  return h;
}

std::vector<Stage> LowerStages(const ModelConfig& config,
                               std::vector<Matrix> layer_params) {
  AHG_CHECK_MSG(IncrementalPropagator::Supports(config),
                "stage plans exist for kGcn and kSgc only");
  AHG_CHECK_GT(config.num_layers, 0);
  auto transform = [&](int i, int in, bool hop, bool relu) {
    AHG_CHECK_EQ(layer_params[2 * i].rows(), in);
    AHG_CHECK_EQ(layer_params[2 * i].cols(), config.hidden_dim);
    AHG_CHECK_EQ(layer_params[2 * i + 1].cols(), config.hidden_dim);
    return Stage{hop, std::move(layer_params[2 * i]),
                 std::move(layer_params[2 * i + 1]), relu};
  };
  std::vector<Stage> stages;
  if (config.family == ModelFamily::kGcn) {
    AHG_CHECK_EQ(static_cast<int>(layer_params.size()), 2 * config.num_layers);
    for (int l = 0; l < config.num_layers; ++l) {
      stages.push_back(transform(l, l == 0 ? config.in_dim : config.hidden_dim,
                                 /*hop=*/true, /*relu=*/true));
    }
  } else {  // kSgc: one linear map, then repeated propagation.
    AHG_CHECK_EQ(static_cast<int>(layer_params.size()), 2);
    stages.push_back(transform(0, config.in_dim, /*hop=*/false, /*relu=*/false));
    for (int k = 0; k < config.num_layers; ++k) {
      stages.push_back(Stage{/*hop=*/true, {}, {}, /*relu=*/false});
    }
  }
  return stages;
}

void RunStage(const Stage& stage, const DeltaCsr& adj, const Matrix& prev,
              const std::vector<int>* rows, Matrix* out) {
  const bool all = rows == nullptr;
  if (!all && rows->empty()) return;
  Matrix h;
  if (stage.hop) {
    h = all ? adj.Spmm(prev) : adj.SpmmRows(*rows, prev);
  } else if (!all) {
    h = GatherRows(prev, *rows);
  }
  if (!stage.w.empty()) {
    // A full non-hop stage reads `prev` in place; otherwise `h` holds the
    // hop's aggregate or the gathered rows.
    h = DenseLayerTransform(stage.hop || !all ? h : prev, stage.w, stage.b,
                            stage.relu);
  }
  if (all) {
    *out = std::move(h);
  } else {
    ScatterRows(h, *rows, out);
  }
}

std::vector<std::vector<int>> StageDirtyRows(const std::vector<Stage>& stages,
                                             const DeltaCsr& adj,
                                             const BatchDelta& delta) {
  std::vector<std::vector<int>> dirty;
  dirty.reserve(stages.size());
  std::vector<int> rows = delta.dirty_feature_rows;
  for (const Stage& stage : stages) {
    if (stage.hop) {  // adj-dirty ∪ N(rows)
      DynamicBitset next(adj.rows());
      for (int r : delta.dirty_adj_rows) next.Set(r);
      for (int r : rows) {
        const DeltaCsr::RowRef row = adj.Row(r);
        for (int64_t e = 0; e < row.nnz; ++e) next.Set(row.cols[e]);
      }
      rows = next.ToSortedVector();
    }
    dirty.push_back(rows);
  }
  return dirty;
}

IncrementalPropagator::IncrementalPropagator(const ModelConfig& config,
                                             std::vector<Matrix> layer_params,
                                             const RefreshOptions& options)
    : config_(config),
      stages_(LowerStages(config, std::move(layer_params))),
      options_(options) {}

bool IncrementalPropagator::Supports(const ModelConfig& config) {
  return config.family == ModelFamily::kGcn ||
         config.family == ModelFamily::kSgc;
}

std::vector<Matrix> IncrementalPropagator::ComputeStates(
    const GraphSnapshot& snap) const {
  AHG_CHECK_EQ(snap.feature_dim(), config_.in_dim);
  std::vector<Matrix> states(stages_.size() + 1);
  states[0] = snap.DenseFeatures();
  for (size_t s = 0; s < stages_.size(); ++s) {
    RunStage(stages_[s], snap.adjacency(), states[s], nullptr, &states[s + 1]);
  }
  return states;
}

RefreshStats IncrementalPropagator::FullRefresh(const GraphSnapshot& snap) {
  AHG_TRACE_SPAN_ARG("dyn/full_refresh", snap.num_nodes());
  states_ = ComputeStates(snap);
  hidden_ = std::make_shared<const Matrix>(states_.back());
  has_state_ = true;
  version_ = snap.version();
  RefreshStats stats;
  stats.incremental = false;
  stats.version = version_;
  stats.rows_refreshed =
      static_cast<int64_t>(snap.num_nodes()) * config_.num_layers;
  stats.final_dirty_rows = snap.num_nodes();
  stats.dirty_fraction = 1.0;
  return stats;
}

StatusOr<RefreshStats> IncrementalPropagator::Refresh(
    const GraphSnapshot& snap, const BatchDelta& delta) {
  if (delta.from_version != delta.to_version - 1 ||
      delta.to_version != snap.version()) {
    return Status::InvalidArgument("delta does not describe the step onto "
                                   "the given snapshot");
  }
  if (!has_state_ || delta.from_version != version_) {
    return FullRefresh(snap);
  }
  AHG_TRACE_SPAN_ARG("dyn/incremental_refresh",
                     static_cast<int64_t>(delta.dirty_adj_rows.size()));
  const DeltaCsr& adj = snap.adjacency();
  const int n = snap.num_nodes();

  // Expand the per-stage dirty sets first — pure bitset work, no matrix
  // math — so the full-recompute fallback can trigger before any flops.
  const std::vector<std::vector<int>> dirty_rows =
      StageDirtyRows(stages_, adj, delta);
  const std::vector<int>& final_dirty = dirty_rows.back();
  const double fraction =
      n > 0 ? static_cast<double>(final_dirty.size()) / n : 0.0;
  if (fraction > options_.full_refresh_fraction) {
    return FullRefresh(snap);
  }

  // Grow cached states for appended nodes; the new rows are in every dirty
  // set, so their zero-filled tails are overwritten below.
  if (n > states_[0].rows()) {
    for (Matrix& s : states_) s = GrowRows(s, n);
  }
  for (int r : delta.dirty_feature_rows) {
    std::memcpy(states_[0].Row(r), snap.FeatureRow(r),
                static_cast<size_t>(snap.feature_dim()) * sizeof(double));
  }

  RefreshStats stats;
  stats.incremental = true;
  stats.version = snap.version();
  stats.final_dirty_rows = static_cast<int>(final_dirty.size());
  stats.dirty_fraction = fraction;
  for (size_t s = 0; s < stages_.size(); ++s) {
    RunStage(stages_[s], adj, states_[s], &dirty_rows[s], &states_[s + 1]);
    stats.rows_refreshed += static_cast<int64_t>(dirty_rows[s].size());
  }
  hidden_ = std::make_shared<const Matrix>(states_.back());
  version_ = snap.version();
  return stats;
}

void IncrementalPropagator::ApplyReorder(const std::vector<int>& remap,
                                         uint64_t new_version) {
  AHG_CHECK(has_state_);
  AHG_TRACE_SPAN_ARG("dyn/apply_reorder",
                     static_cast<int64_t>(remap.size()));
  for (Matrix& s : states_) {
    AHG_CHECK_EQ(s.rows(), static_cast<int>(remap.size()));
    Matrix moved(s.rows(), s.cols());
    for (int r = 0; r < s.rows(); ++r) {
      std::memcpy(moved.Row(remap[r]), s.Row(r),
                  static_cast<size_t>(s.cols()) * sizeof(double));
    }
    s = std::move(moved);
  }
  hidden_ = std::make_shared<const Matrix>(states_.back());
  version_ = new_version;
}

Matrix IncrementalPropagator::ComputeFull(const GraphSnapshot& snap) const {
  return std::move(ComputeStates(snap).back());
}

}  // namespace ahg::dyn
