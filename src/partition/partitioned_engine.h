// Inference over a K-part PartitionPlan with bitwise conformance to the
// lone InferenceEngine.
//
// Memory is the point: each part holds only its owned nodes plus a halo
// appendix — features, local adjacency, and per-version stage states all
// scale ~1/K + halo overhead instead of K full replicas (bench/
// partition_scale proves the bound with AllocTracker). Compute runs the
// same stage plan and executor as the incremental refresh
// (dyn::LowerStages, dyn::RunStage): at every stage each part computes its
// owned rows with DeltaCsr::SpmmRows + dyn::DenseLayerTransform. Right
// before a hop reads state s - 1, that state's boundary rows cross the
// HaloExchange in a fixed merge order; the last state is never exchanged,
// since only owned rows of it are read. Because each local adjacency row
// copies the global row's stored entry order (see plan.h), the
// subset-exact kernels reproduce the global rows bitwise, and a query
// answered here is memcmp-identical to the lone engine — the conformance
// matrix partition_test asserts across synthetic families, part counts,
// and thread counts.
//
// Models without a stage plan (dyn::IncrementalPropagator::Supports) are
// rejected with InvalidArgument — callers fall back to the replicated path.
//
// Dynamic graphs: ApplyDelta routes a mutation batch through the plan —
// adjacency rows are patched copy-on-write on their owning part, new nodes
// are appended to the least-loaded part, new halo dependencies are
// appended at the tail of the part's locals, and each resident model
// version is refreshed over its per-stage dirty sets (dyn::StageDirtyRows),
// exchanging only the dirty boundary rows a hop reads. No existing row or
// route is copied or moved, apart from an occasional capacity growth. Orphaned halo rows (references removed by
// edge deletions) are kept; they are unused and merely occupy their row.
//
// Capacity rows: each part's features, adjacency and every warmed state
// have the same row count, a capacity of at least num_local(). Appends
// fill it; past it, all of them grow by max(256, n_local / 16) rows, so a
// batch rarely copies a whole part. Rows in [num_local, capacity) belong
// to no node: empty adjacency, zero feature and state rows, neither owned
// nor halo.
#ifndef AUTOHENS_PARTITION_PARTITIONED_ENGINE_H_
#define AUTOHENS_PARTITION_PARTITIONED_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "dyn/incremental.h"
#include "dyn/snapshot.h"
#include "graph/graph.h"
#include "partition/halo_exchange.h"
#include "partition/plan.h"
#include "serve/model_registry.h"
#include "serve/node_predictor.h"
#include "util/status.h"

namespace ahg::partition {

class PartitionedEngine : public serve::NodePredictor {
 public:
  struct Options {
    PartitionerOptions partitioner;
  };

  // Builds the plan for `graph` and gathers per-part features. The graph
  // must carry features and outlives nothing — all state is copied into
  // the parts (that is the product: no full replica is retained).
  static StatusOr<std::unique_ptr<PartitionedEngine>> Create(
      const Graph& graph, int num_parts, const Options& options = {});

  // Same, over a pre-built plan (tests, external assignments).
  static StatusOr<std::unique_ptr<PartitionedEngine>> CreateFromPlan(
      const Graph& graph, PartitionPlan plan);

  // Class probabilities for `nodes` (rows in input order): each node is
  // resolved to its owning part, the final-stage hidden row is gathered,
  // and the classifier head applied — bitwise identical to the lone
  // engine's answer. Warms the version on first use.
  StatusOr<Matrix> PredictNodes(const serve::ServableModel& model,
                                const std::vector<int>& nodes) override;

  // Computes and parks all layer states for `model` (rollout warm-up).
  Status Warm(const serve::ServableModel& model);

  // Applies one mutation step: `delta` must describe snapshot_version() ->
  // snap.version(). Refreshes every warmed model version incrementally
  // (full per-part recompute past dyn::RefreshOptions'
  // full_refresh_fraction).
  Status ApplyDelta(const dyn::GraphSnapshot& snap,
                    const dyn::BatchDelta& delta);

  // The plan and the halo routes as of the last ApplyDelta. Unsynchronized:
  // read them only while no ApplyDelta runs (tests, tools).
  const PartitionPlan& plan() const { return plan_; }
  const HaloExchange& exchange() const { return exchange_; }
  int num_parts() const { return plan_.num_parts; }
  // Snapshot version the parts currently reflect (0 = the Create graph).
  uint64_t snapshot_version() const;
  int64_t rows_exchanged() const;

  // Analytic resident bytes of part p: features + local CSR + all warmed
  // layer states. The bench cross-checks this against AllocTracker deltas.
  int64_t PartResidentBytes(int p) const;

 private:
  // Per warmed model version: config, stage plan, and states[part][s], the
  // part-local output of stage s (stage 0 reads the part's features).
  struct VersionState {
    ModelConfig config;
    std::vector<dyn::Stage> stages;
    std::vector<std::vector<Matrix>> states;
  };

  PartitionedEngine(PartitionPlan plan, const Graph& graph);

  bool HasHalo() const;

  Status WarmLocked(const serve::ServableModel& model);
  // Recomputes every stage of `vs` from the current features/adjacency,
  // into zeroed states at each part's capacity.
  void RecomputeLocked(VersionState* vs);
  // Grows part p's capacity rows (features, adjacency, warmed states) when
  // its locals have outgrown them; see the file comment.
  void ReserveRowsLocked(int p);
  // Runs the stages of `vs` over each part's owned rows: all of them when
  // `dirty` is null, else the owned rows of dirty[s] (global ids), with
  // only dirty[s - 1] ∪ `forced` posted before a hop.
  void RunStagesLocked(VersionState* vs,
                       const std::vector<std::vector<int>>* dirty,
                       const std::vector<int>& forced);
  StatusOr<Matrix> GatherAndHead(const VersionState& vs,
                                 const serve::ServableModel& model,
                                 const std::vector<int>& nodes) const;
  void ExportMetricsLocked() const;

  mutable std::shared_mutex mu_;
  PartitionPlan plan_;
  HaloExchange exchange_;
  // Locality permutation of the Create graph (null when unreordered). Plan
  // "global" ids are INTERNAL ids; query node ids are external and translate
  // here. Nodes appended by ApplyDelta map to themselves (identity tail),
  // matching GraphSnapshot's ExtendedTo convention.
  std::shared_ptr<const NodePermutation> perm_;
  int feature_dim_ = 0;
  int num_classes_ = 0;
  uint64_t snapshot_version_ = 0;
  // [part] capacity x feature_dim, halo included; capacity rows are zero.
  std::vector<Matrix> feats_;
  std::map<int, VersionState> versions_;
};

}  // namespace ahg::partition

#endif  // AUTOHENS_PARTITION_PARTITIONED_ENGINE_H_
