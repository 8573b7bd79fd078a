#include "partition/partitioned_engine.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_engine.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ahg::partition {

namespace {

// Least number of rows a part's capacity grows by once its locals outgrow
// it; the step is otherwise 1/16 of the part, so growth copies amortize.
constexpr int kMinCapacityStep = 256;

std::vector<int> SortedUnion(const std::vector<int>& a,
                             const std::vector<int>& b) {
  std::vector<int> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

PartitionedEngine::PartitionedEngine(PartitionPlan plan, const Graph& graph)
    : plan_(std::move(plan)),
      exchange_(&plan_),
      perm_(graph.permutation_ptr()),
      feature_dim_(graph.feature_dim()),
      num_classes_(graph.num_classes()) {
  feats_.reserve(plan_.num_parts);
  for (const PartitionPlan::Part& part : plan_.parts) {
    // Owned AND halo feature rows: stage-1 aggregation reads halo columns
    // of the feature matrix, and features never need exchanging — every
    // part copies them straight from the source graph.
    feats_.push_back(GatherRows(graph.features(), part.locals));
  }
  ExportMetricsLocked();
}

StatusOr<std::unique_ptr<PartitionedEngine>> PartitionedEngine::Create(
    const Graph& graph, int num_parts, const Options& options) {
  if (graph.features().rows() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "partitioned engine needs a graph with node features");
  }
  StatusOr<PartitionPlan> plan =
      PartitionPlan::Build(graph, num_parts, options.partitioner);
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<PartitionedEngine>(
      new PartitionedEngine(std::move(plan).value(), graph));
}

StatusOr<std::unique_ptr<PartitionedEngine>> PartitionedEngine::CreateFromPlan(
    const Graph& graph, PartitionPlan plan) {
  if (graph.features().rows() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "partitioned engine needs a graph with node features");
  }
  if (static_cast<int>(plan.part_of.size()) != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("plan covers %d nodes, graph has %d",
                  static_cast<int>(plan.part_of.size()), graph.num_nodes()));
  }
  return std::unique_ptr<PartitionedEngine>(
      new PartitionedEngine(std::move(plan), graph));
}

bool PartitionedEngine::HasHalo() const {
  for (const PartitionPlan::Part& part : plan_.parts) {
    if (!part.halo_globals.empty()) return true;
  }
  return false;
}

uint64_t PartitionedEngine::snapshot_version() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return snapshot_version_;
}

int64_t PartitionedEngine::rows_exchanged() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return exchange_.rows_exchanged();
}

int64_t PartitionedEngine::PartResidentBytes(int p) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  AHG_CHECK(p >= 0 && p < plan_.num_parts);
  const PartitionPlan::Part& part = plan_.parts[p];
  int64_t bytes = feats_[p].size() * static_cast<int64_t>(sizeof(double));
  bytes += (part.adj.rows() + 1) * static_cast<int64_t>(sizeof(int64_t)) +
           part.adj.nnz() *
               static_cast<int64_t>(sizeof(int) + sizeof(double));
  for (const auto& [version, vs] : versions_) {
    (void)version;
    for (const Matrix& state : vs.states[p]) {
      bytes += state.size() * static_cast<int64_t>(sizeof(double));
    }
  }
  return bytes;
}

void PartitionedEngine::RunStagesLocked(
    VersionState* vs, const std::vector<std::vector<int>>* dirty,
    const std::vector<int>& forced) {
  const int P = plan_.num_parts;
  const bool exchange = HasHalo();
  for (size_t s = 0; s < vs->stages.size(); ++s) {
    const dyn::Stage& stage = vs->stages[s];
    // Exchange-before-hop: the hop reads halo rows of state s - 1, which
    // their owners computed at stage s - 1. Fixed order: post all parts
    // ascending, then deliver all parts ascending. Features (stage 0's
    // input) are never exchanged: every part holds its halo feature rows.
    if (stage.hop && s > 0 && exchange) {
      std::vector<int> post;
      if (dirty != nullptr) post = SortedUnion((*dirty)[s - 1], forced);
      for (int p = 0; p < P; ++p) {
        exchange_.PostBoundary(p, vs->states[p][s - 1],
                               dirty == nullptr ? nullptr : &post);
      }
      for (int p = 0; p < P; ++p) {
        exchange_.DeliverHalo(p, &vs->states[p][s - 1]);
      }
    }
    for (int p = 0; p < P; ++p) {
      const PartitionPlan::Part& part = plan_.parts[p];
      std::vector<int> rows;  // owned dirty rows, in dirty (global) order
      if (dirty != nullptr) {
        for (int g : (*dirty)[s]) {
          if (plan_.part_of[g] == p) rows.push_back(part.local_of.at(g));
        }
      }
      dyn::RunStage(stage, part.adj, s == 0 ? feats_[p] : vs->states[p][s - 1],
                    dirty == nullptr ? &part.owned_locals : &rows,
                    &vs->states[p][s]);
    }
  }
}

void PartitionedEngine::RecomputeLocked(VersionState* vs) {
  vs->states.assign(plan_.num_parts, {});
  for (int p = 0; p < plan_.num_parts; ++p) {
    for (size_t s = 0; s < vs->stages.size(); ++s) {
      vs->states[p].emplace_back(feats_[p].rows(), vs->config.hidden_dim);
    }
  }
  RunStagesLocked(vs, /*dirty=*/nullptr, /*forced=*/{});
}

void PartitionedEngine::ReserveRowsLocked(int p) {
  const int n_local = plan_.parts[p].num_local();
  if (n_local <= feats_[p].rows()) return;
  const int capacity = n_local + std::max(kMinCapacityStep, n_local / 16);
  plan_.parts[p].adj.Grow(capacity, capacity);
  feats_[p] = GrowRows(feats_[p], capacity);
  for (auto& [version, vs] : versions_) {
    (void)version;
    for (Matrix& state : vs.states[p]) state = GrowRows(state, capacity);
  }
}

Status PartitionedEngine::WarmLocked(const serve::ServableModel& model) {
  if (versions_.count(model.version) != 0) return Status::OK();
  AHG_TRACE_SPAN_ARG("partition/warm", model.version);
  if (!dyn::IncrementalPropagator::Supports(model.config)) {
    return Status::InvalidArgument(
        StrFormat("model family %s has no stage plan",
                  ModelFamilyName(model.config.family)));
  }
  Status valid = serve::ValidateServableModel(model);
  if (!valid.ok()) return valid;
  if (model.config.in_dim != feature_dim_) {
    return Status::InvalidArgument(
        StrFormat("model in_dim %d does not match graph feature_dim %d",
                  model.config.in_dim, feature_dim_));
  }
  VersionState vs;
  vs.config = model.config;
  vs.stages = dyn::LowerStages(
      model.config,
      std::vector<Matrix>(model.params.begin(), model.params.end() - 2));
  RecomputeLocked(&vs);
  versions_.emplace(model.version, std::move(vs));
  return Status::OK();
}

StatusOr<Matrix> PartitionedEngine::GatherAndHead(
    const VersionState& vs, const serve::ServableModel& model,
    const std::vector<int>& nodes) const {
  const int n = static_cast<int>(plan_.part_of.size());
  Matrix hidden(static_cast<int>(nodes.size()), vs.config.hidden_dim);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] < 0 || nodes[i] >= n) {
      return Status::InvalidArgument(
          StrFormat("node %d outside [0, %d)", nodes[i], n));
    }
    // Query ids are external; plan globals are internal (see perm_).
    const int g = perm_ != nullptr && nodes[i] < perm_->num_nodes()
                      ? perm_->to_internal[nodes[i]]
                      : nodes[i];
    const int p = plan_.part_of[g];
    const PartitionPlan::Part& part = plan_.parts[p];
    const Matrix& final_state = vs.states[p].back();
    std::memcpy(hidden.Row(static_cast<int>(i)),
                final_state.Row(part.local_of.at(g)),
                static_cast<size_t>(vs.config.hidden_dim) * sizeof(double));
  }
  return serve::ApplyClassifierHead(hidden, model);
}

StatusOr<Matrix> PartitionedEngine::PredictNodes(
    const serve::ServableModel& model, const std::vector<int>& nodes) {
  AHG_TRACE_SPAN_ARG("partition/predict", static_cast<int64_t>(nodes.size()));
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = versions_.find(model.version);
    if (it != versions_.end()) return GatherAndHead(it->second, model, nodes);
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  Status warmed = WarmLocked(model);
  if (!warmed.ok()) return warmed;
  return GatherAndHead(versions_.at(model.version), model, nodes);
}

Status PartitionedEngine::Warm(const serve::ServableModel& model) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return WarmLocked(model);
}

Status PartitionedEngine::ApplyDelta(const dyn::GraphSnapshot& snap,
                                     const dyn::BatchDelta& delta) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  AHG_TRACE_SPAN_ARG("partition/apply_delta",
                     static_cast<int64_t>(delta.TotalMutations()));
  if (delta.from_version != snapshot_version_ ||
      delta.to_version != snap.version()) {
    return Status::InvalidArgument(
        StrFormat("delta %llu->%llu does not step the engine from version "
                  "%llu onto snapshot %llu",
                  static_cast<unsigned long long>(delta.from_version),
                  static_cast<unsigned long long>(delta.to_version),
                  static_cast<unsigned long long>(snapshot_version_),
                  static_cast<unsigned long long>(snap.version())));
  }
  if (snap.feature_dim() != feature_dim_) {
    return Status::InvalidArgument("snapshot feature_dim changed");
  }
  const int P = plan_.num_parts;
  const int n_old = static_cast<int>(plan_.part_of.size());
  const int n_new = snap.num_nodes();
  const dyn::DeltaCsr& gadj = snap.adjacency();

  // 1. Appended nodes go to the currently smallest part (ties: lowest id).
  std::vector<int64_t> owned_count(P);
  for (int p = 0; p < P; ++p) owned_count[p] = plan_.parts[p].num_owned();
  for (int g = n_old; g < n_new; ++g) {
    int best = 0;
    for (int p = 1; p < P; ++p) {
      if (owned_count[p] < owned_count[best]) best = p;
    }
    plan_.part_of.push_back(best);
    ++owned_count[best];
  }

  // 2. Per-part additions: appended nodes owned there, plus any column of a
  // dirty owned row that is not yet in the part's local universe (new halo
  // from cut-edge creation; appended rows count — their off-part neighbors
  // become halo of the part that received them). Sorted ascending per part.
  std::vector<std::vector<int>> additions(P);
  std::vector<std::vector<int>> new_halo(P);
  for (int g = n_old; g < n_new; ++g) {
    additions[plan_.part_of[g]].push_back(g);
  }
  for (int g : delta.dirty_adj_rows) {
    const int p = plan_.part_of[g];
    const dyn::DeltaCsr::RowRef row = gadj.Row(g);
    for (int64_t e = 0; e < row.nnz; ++e) {
      const int c = row.cols[e];
      if (plan_.parts[p].local_of.count(c) == 0) additions[p].push_back(c);
    }
  }
  for (int p = 0; p < P; ++p) {
    std::sort(additions[p].begin(), additions[p].end());
    additions[p].erase(std::unique(additions[p].begin(), additions[p].end()),
                       additions[p].end());
    for (int g : additions[p]) {
      if (plan_.part_of[g] != p) new_halo[p].push_back(g);
    }
  }

  // 3. Append every addition at the tail of its part. Local ids are fixed
  // once assigned (plan.h), so existing adjacency, feature and state rows
  // and every exchange route stay where they are. Additions ascend global
  // id: appended owned nodes (new, larger than every existing id) keep
  // owned_locals ascending, and new halo merges into halo_globals.
  auto rank_of_global = [&](int g) {
    return perm_ != nullptr && g < perm_->num_nodes() ? perm_->to_external[g]
                                                      : g;
  };
  for (int p = 0; p < P; ++p) {
    if (additions[p].empty()) continue;
    PartitionPlan::Part& part = plan_.parts[p];
    auto rank = std::make_shared<std::vector<int>>(*part.adj.col_rank());
    for (int g : additions[p]) {
      const int l = part.num_local();
      part.locals.push_back(g);
      part.local_of.emplace(g, l);
      rank->push_back(rank_of_global(g));
      const bool owned = plan_.part_of[g] == p;
      part.owned.push_back(owned ? 1 : 0);
      if (owned) part.owned_locals.push_back(l);
    }
    part.adj.SetColRank(std::move(rank));
    const auto halo_mid = part.halo_globals.insert(
        part.halo_globals.end(), new_halo[p].begin(), new_halo[p].end());
    std::inplace_merge(part.halo_globals.begin(), halo_mid,
                       part.halo_globals.end());
    plan_.halo_nodes_total += static_cast<int64_t>(new_halo[p].size());
    ReserveRowsLocked(p);
    for (int g : additions[p]) {
      std::memcpy(feats_[p].Row(part.local_of.at(g)), snap.FeatureRow(g),
                  static_cast<size_t>(feature_dim_) * sizeof(double));
    }
  }
  // Routes read both ends' local ids, so they go in once every part holds
  // its additions (a new halo node may be appended on its owner too).
  for (int p = 0; p < P; ++p) {
    for (int g : new_halo[p]) exchange_.AddHalo(p, g);
  }

  // 4. Patch dirty adjacency rows on their owning part. The override copies
  // the global row's stored entry order (ascending rank), which column
  // remapping preserves.
  for (int g : delta.dirty_adj_rows) {
    PartitionPlan::Part& part = plan_.parts[plan_.part_of[g]];
    const int l = part.local_of.at(g);
    const dyn::DeltaCsr::RowRef row = gadj.Row(g);
    std::vector<int> cols(row.nnz);
    std::vector<double> vals(row.vals, row.vals + row.nnz);
    for (int64_t e = 0; e < row.nnz; ++e) {
      cols[e] = part.local_of.at(row.cols[e]);
    }
    part.adj.OverrideRow(l, std::move(cols), std::move(vals));
  }

  // 5. Dirty feature rows land on EVERY part holding the row (owner or
  // halo): stage-1 aggregation reads halo feature rows locally.
  for (int g : delta.dirty_feature_rows) {
    for (int p = 0; p < P; ++p) {
      auto it = plan_.parts[p].local_of.find(g);
      if (it == plan_.parts[p].local_of.end()) continue;
      std::memcpy(feats_[p].Row(it->second), snap.FeatureRow(g),
                  static_cast<size_t>(feature_dim_) * sizeof(double));
    }
  }

  // 6. Forced halo set: globals some part now holds as halo but whose
  // states it has never received. A hop stage's dirty set holds every such
  // node (its adjacency row changed), but a non-hop stage's need not (SGC's
  // Z is feature-dirty only) — so the union joins every exchange.
  std::vector<int> forced;
  for (int p = 0; p < P; ++p) {
    forced.insert(forced.end(), new_halo[p].begin(), new_halo[p].end());
  }
  std::sort(forced.begin(), forced.end());
  forced.erase(std::unique(forced.begin(), forced.end()), forced.end());

  // 7. Refresh every warmed version over its per-stage dirty sets.
  for (auto& [version, vs] : versions_) {
    (void)version;
    const std::vector<std::vector<int>> dirty =
        dyn::StageDirtyRows(vs.stages, gadj, delta);
    const double fraction =
        n_new > 0 ? static_cast<double>(dirty.back().size()) / n_new : 0.0;
    if (fraction > dyn::RefreshOptions{}.full_refresh_fraction) {
      RecomputeLocked(&vs);
    } else {
      RunStagesLocked(&vs, &dirty, forced);
    }
  }

  for (PartitionPlan::Part& part : plan_.parts) part.adj.MaybeCompact();
  snapshot_version_ = snap.version();
  obs::MetricsRegistry::Global()
      .GetCounter("partition.deltas_applied")
      ->Increment(1);
  ExportMetricsLocked();
  return Status::OK();
}

void PartitionedEngine::ExportMetricsLocked() const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("partition.parts")->Set(plan_.num_parts);
  reg.GetGauge("partition.cut_edges")
      ->Set(static_cast<double>(plan_.metrics.cut_edges));
  reg.GetGauge("partition.imbalance")->Set(plan_.metrics.balance_factor);
  reg.GetGauge("partition.halo_nodes")
      ->Set(static_cast<double>(plan_.halo_nodes_total));
}

}  // namespace ahg::partition
