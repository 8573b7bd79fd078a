// Stage plans and the incremental propagation refresh.
//
// A stage plan is the one description of how GCN and SGC propagate. Each
// Stage reads the previous state (stage 0 reads the dense features), does an
// optional one-hop aggregation A · prev, then an optional row-local
// transform prev · W + b (ReLU?). LowerStages turns a model into its plan:
//   GCN-L: L × {hop, W_l, b_l, relu}
//   SGC-K: {no hop, W, b}, then K × {hop}
// State s of a plan is the output of stage s, so the cached states are the
// layer states H^(1..L) (GCN) or Z = XW + b, A Z, ..., A^K Z (SGC). RunStage
// is the one executor: both this refresh and the partitioned plane
// (src/partition) call it.
//
// The refresh patches cached states after a mutation batch by recomputing
// only dirty rows. Correctness rests on two facts:
//  1. Every stage is row-local apart from its hop: row r of state s changes
//     only when row r of state s - 1 changed, or, for a hop stage, when
//     adjacency row r changed or some state s - 1 row in N(r) changed. So
//     the per-stage dirty sets (StageDirtyRows) start from the
//     feature-dirty rows; a hop stage's set is adj-dirty ∪ N(previous set)
//     and any other stage keeps the previous set. Self loops make
//     N(D) ⊇ D, so the sets are monotone.
//  2. The row kernels are subset-exact: DeltaCsr::SpmmRows and MatMul
//     produce rows bitwise identical to the corresponding rows of the full
//     product (fixed per-row accumulation order, one owner per row). So
//     patching dirty rows of the cached state leaves a matrix bitwise
//     identical to a cold full recompute — the oracle ComputeFull() tests
//     assert with memcmp.
//
// Supports() gates the families LowerStages understands; callers fall back
// to a full zoo forward for the rest. A refresh also falls back to
// FullRefresh when the last stage's dirty set exceeds
// options.full_refresh_fraction of the rows (patching most of the matrix
// costs more than recomputing it) or when the snapshot is not the direct
// successor of the cached version.
#ifndef AUTOHENS_DYN_INCREMENTAL_H_
#define AUTOHENS_DYN_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dyn/snapshot.h"
#include "models/model.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace ahg::dyn {

// Row-local dense transform of one layer: H = agg * W (+ bias) (ReLU?),
// with exactly the arithmetic of the eval-mode autodiff chain
// Relu(AddRowVector(MatMul(agg, W), b)) — same kernels, same order — so a
// row computed from a gathered subset is bitwise identical to the same row
// of the full layer.
Matrix DenseLayerTransform(const Matrix& agg, const Matrix& w, const Matrix& b,
                           bool relu);

// One propagation stage: optional hop A · prev, then, when `w` is
// non-empty, DenseLayerTransform(·, w, b, relu).
struct Stage {
  bool hop = false;
  Matrix w;
  Matrix b;
  bool relu = false;
};

// The stage plan of a Supports() family. `layer_params` in
// ParameterStore::Snapshot order, classifier head excluded — GCN:
// [W_1, b_1, ..., W_L, b_L]; SGC: [W, b]. Shapes are checked against
// `config`.
std::vector<Stage> LowerStages(const ModelConfig& config,
                               std::vector<Matrix> layer_params);

// Runs `stage` on `prev` over `rows` (ascending, scattered into the same
// rows of `*out`), or over every row when `rows` is null (replacing `*out`
// with the full product: DeltaCsr::Spmm instead of SpmmRows).
void RunStage(const Stage& stage, const DeltaCsr& adj, const Matrix& prev,
              const std::vector<int>* rows, Matrix* out);

// Rows each stage of `stages` must recompute for a mutation step (see file
// comment), sorted ascending. Pure bitset work — no matrix math — so
// callers can decide on a full-recompute fallback before spending flops.
std::vector<std::vector<int>> StageDirtyRows(const std::vector<Stage>& stages,
                                             const DeltaCsr& adj,
                                             const BatchDelta& delta);

struct RefreshOptions {
  // Fall back to a full recompute when the last stage's dirty fraction
  // exceeds this.
  double full_refresh_fraction = 0.5;
};

struct RefreshStats {
  bool incremental = false;     // false = full recompute path ran
  uint64_t version = 0;         // snapshot version the states now match
  int64_t rows_refreshed = 0;   // sum of dirty rows over recomputed stages
  int final_dirty_rows = 0;     // rows of the last state that were patched
  double dirty_fraction = 0.0;  // final_dirty_rows / num_nodes
};

class IncrementalPropagator {
 public:
  // Lowers `config` and `layer_params` (see LowerStages).
  IncrementalPropagator(const ModelConfig& config,
                        std::vector<Matrix> layer_params,
                        const RefreshOptions& options = {});

  // True for the families LowerStages can lower.
  static bool Supports(const ModelConfig& config);

  // Cold recompute of every cached state from `snap`.
  RefreshStats FullRefresh(const GraphSnapshot& snap);

  // Patches the cached states from `snap.version() - 1` to `snap.version()`
  // using the batch's dirty sets; falls back to FullRefresh when it cannot
  // (see file comment). `delta` must describe the step onto `snap`.
  StatusOr<RefreshStats> Refresh(const GraphSnapshot& snap,
                                 const BatchDelta& delta);

  // Row-gathers every cached state through `remap` (remap[old_row] =
  // new_row) after a GraphSnapshot::Reordered relayout, and adopts the
  // reordered snapshot's version. Pure data movement, zero FLOPs — rows
  // keep their bytes at new positions — so the incremental dirty-set cost
  // bound is untouched and the next Refresh patches as if the relayout
  // never happened.
  void ApplyReorder(const std::vector<int>& remap, uint64_t new_version);

  // Last-stage hidden states for the current version — an immutable copy
  // published per refresh, safe to hand to concurrent readers and caches.
  std::shared_ptr<const Matrix> hidden() const { return hidden_; }

  bool has_state() const { return has_state_; }
  uint64_t version() const { return version_; }

  // Oracle: the last state recomputed from scratch through the same
  // kernels, without touching cached state. Tests memcmp this against the
  // patched states.
  Matrix ComputeFull(const GraphSnapshot& snap) const;

 private:
  // All states from the snapshot's features; shared by
  // FullRefresh/ComputeFull.
  std::vector<Matrix> ComputeStates(const GraphSnapshot& snap) const;

  ModelConfig config_;
  std::vector<Stage> stages_;
  RefreshOptions options_;
  bool has_state_ = false;
  uint64_t version_ = 0;
  // states_[0] = dense features X; states_[s + 1] = output of stage s.
  std::vector<Matrix> states_;
  std::shared_ptr<const Matrix> hidden_;
};

}  // namespace ahg::dyn

#endif  // AUTOHENS_DYN_INCREMENTAL_H_
