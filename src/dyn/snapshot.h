// Immutable versioned graph snapshots produced by applying mutation
// batches.
//
// A GraphSnapshot is the dynamic-graph counterpart of Graph: node features,
// labels, and the kSymNorm adjacency the GCN/SGC serving models consume —
// but copy-on-write, so snapshot version v+1 shares all unchanged storage
// with version v. Apply(batch) reallocates only:
//  - raw + normalized adjacency rows the batch structurally touched, plus
//    the neighbor rows whose normalization constants changed (an edge at
//    {u, v} changes deg(u) and deg(v), and every entry (r, u) carries a
//    1/sqrt(deg(r) deg(u)) factor — so rows N(u) and N(v) renormalize);
//  - overridden / appended feature rows;
//  - the degree vector (flat doubles, 8 bytes per node).
//
// Version 0 (FromGraph) copies the source Graph's cached kSymNorm matrix
// verbatim as the adjacency base, so serving answers from a fresh snapshot
// are bitwise identical to the static path. Rows rebuilt after a mutation
// use the same normalization expression as Graph::BuildAdjacencyCaches
// (w / sqrt(deg_r * deg_c), self loop weight 1.0); for unweighted graphs
// degrees are exact integers, so rebuilt values also match a from-scratch
// Graph bitwise.
//
// Apply is atomic: the batch is validated against a working copy and any
// invalid mutation fails the whole batch with InvalidArgument, leaving the
// source snapshot untouched (it is const; the working copy is dropped).
// Snapshots only support undirected graphs without self-loop edges — the
// serving topology for every AutoGraph dataset.
#ifndef AUTOHENS_DYN_SNAPSHOT_H_
#define AUTOHENS_DYN_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dyn/delta_csr.h"
#include "dyn/mutation.h"
#include "graph/graph.h"
#include "graph/reorder.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace ahg::dyn {

// What one applied batch changed, in the shape the incremental propagator
// consumes. Row sets are sorted ascending and deduplicated.
struct BatchDelta {
  uint64_t from_version = 0;
  uint64_t to_version = 0;
  // Rows of the normalized adjacency whose entries changed: mutation
  // endpoints, their current neighbors (degree renormalization), and
  // appended nodes.
  std::vector<int> dirty_adj_rows;
  // Rows of the feature matrix that changed: UpdateFeatures targets and
  // appended nodes.
  std::vector<int> dirty_feature_rows;
  int nodes_added = 0;
  int edges_added = 0;
  int edges_removed = 0;
  int features_updated = 0;
  // True when this batch tripped DeltaCsr's 25% compaction threshold and the
  // overlays were folded into fresh bases. The compaction point is also the
  // locality plane's re-reorder point: a caller serving a reordered snapshot
  // should follow a compacted batch with Reordered() (see stream_server.cc).
  bool compacted = false;

  size_t TotalMutations() const {
    return static_cast<size_t>(nodes_added) + edges_added + edges_removed +
           features_updated;
  }
};

struct ReorderResult;  // defined after GraphSnapshot

class GraphSnapshot {
 public:
  GraphSnapshot() = default;

  // Snapshot version 0 from a static graph. The graph must be undirected,
  // self-loop free, and carry features (rows == num_nodes). Its kSymNorm
  // adjacency is shared verbatim (see file comment). A reordered graph
  // (graph.permutation() != nullptr) yields a reordered snapshot: rows live
  // in internal order, every CSR keeps the rank-order invariant
  // (graph/reorder.h), and mutation/query node ids stay EXTERNAL — Apply and
  // callers translate at the boundary.
  static StatusOr<GraphSnapshot> FromGraph(const Graph& graph);

  uint64_t version() const { return version_; }
  int num_nodes() const { return adj_.rows(); }
  int feature_dim() const { return feature_dim_; }
  int num_classes() const { return num_classes_; }
  int64_t num_edges() const { return raw_.nnz() / 2; }

  // D^-1/2 (A + I) D^-1/2 over the symmetric self-looped adjacency — the
  // matrix GCN/SGC propagation multiplies by.
  const DeltaCsr& adjacency() const { return adj_; }

  // Raw symmetric weights without self loops (topology queries, rebuilds).
  const DeltaCsr& raw_adjacency() const { return raw_; }

  // Permutation between external ids (mutations, queries) and internal rows;
  // null when the snapshot was built from an unreordered graph and never
  // re-reordered. Extended with identity entries on AddNode.
  const NodePermutation* permutation() const { return perm_.get(); }

  // External-id boundary helpers (identity when unreordered).
  int ToInternal(int external_id) const {
    return ToInternalId(perm_.get(), external_id);
  }
  int ToExternal(int internal_id) const {
    return ToExternalId(perm_.get(), internal_id);
  }

  // `u`, `v` are external ids.
  bool HasEdge(int u, int v) const;

  // `r` is an INTERNAL row id (propagator space), like every other row-level
  // accessor on this class.
  const double* FeatureRow(int r) const;
  int label(int r) const;

  // Full dense feature matrix (cold propagation, MaterializeGraph).
  Matrix DenseFeatures() const;

  // out row i = features of node rows[i] (dirty-row refresh input).
  Matrix GatherFeatures(const std::vector<int>& rows) const;

  // Applies `batch` in order, producing the next version and its delta.
  // Rejected (whole batch, *this unchanged) on: out-of-range node, self
  // loop, non-finite or non-positive weight, adding a present edge,
  // removing an absent edge, or a feature payload of the wrong width.
  // Node ids added earlier in the same batch are in range for later
  // mutations of that batch.
  StatusOr<std::pair<GraphSnapshot, BatchDelta>> Apply(
      const std::vector<Mutation>& batch) const;

  // From-scratch static Graph with this snapshot's topology, features and
  // labels — the independent rebuild the tests, examples and benchmark
  // compare against; no serving path builds it (an engine serves a
  // published snapshot directly). On a reordered snapshot the result
  // carries the same permutation (external graph rebuilt, then
  // re-permuted), so its CSR caches keep the rank-order invariant and a
  // cold engine on it serves bitwise identically to the incremental path.
  Graph MaterializeGraph() const;

  // Recomputes the layout from the CURRENT logical topology expressed in
  // external ids — the new permutation depends only on (logical graph,
  // strategy, seed), never on the incidental internal layout it replaces —
  // and rebuilds raw/normalized bases, features, labels and degrees in the
  // new order with stored entry order preserved (still ascending external,
  // so bitwise conformance survives). Overlays fold into the fresh bases;
  // the version advances by one. Intended to run right after a batch whose
  // BatchDelta reports `compacted` (the overlay was already dominated by
  // churn, so a relayout costs little extra). Works on unreordered
  // snapshots too (attaches a first permutation).
  ReorderResult Reordered(ReorderStrategy strategy, uint64_t seed) const;

 private:
  uint64_t version_ = 0;
  int feature_dim_ = 0;
  int num_classes_ = 0;
  DeltaCsr raw_;   // symmetric weights, no self loops
  DeltaCsr adj_;   // kSymNorm-normalized, with self loops
  // deg_[r] = weighted symmetric degree of r plus 1.0 (the self loop), the
  // quantity Graph::BuildAdjacencyCaches normalizes by.
  std::vector<double> deg_;
  // COW features: shared base plus per-row overrides; appended rows (ids
  // >= feat_base_->rows()) always live in the override map.
  std::shared_ptr<const Matrix> feat_base_;
  std::unordered_map<int, std::shared_ptr<const std::vector<double>>>
      feat_overrides_;
  std::shared_ptr<const std::vector<int>> labels_;
  // External<->internal bijection; null = identity layout. raw_ and adj_
  // carry an aliased pointer to perm_->to_external as their column rank.
  std::shared_ptr<const NodePermutation> perm_;
};

// Result of a re-reorder: the next snapshot version plus the internal remap
// (remap[old_internal] = new_internal) callers use to gather any row-indexed
// state they hold (IncrementalPropagator::ApplyReorder).
struct ReorderResult {
  GraphSnapshot snapshot;
  std::vector<int> remap;
};

}  // namespace ahg::dyn

#endif  // AUTOHENS_DYN_SNAPSHOT_H_
