// PartitionPlan: the materialized form of an edge-cut assignment that the
// partitioned execution plane runs on.
//
// Per part, the plan holds a local node universe and a local CSR:
//  - locals: the part's owned nodes plus its halo (ghost) nodes — every
//    off-part node referenced by an owned node's adjacency row. Local id =
//    position in this list, and a local id is fixed once assigned: the
//    plan numbers owned ∪ halo in ascending GLOBAL id, and nodes a mutation
//    batch adds later (PartitionedEngine::ApplyDelta) take the next ids at
//    the tail. Bitwise conformance does not rest on the local order: each
//    owned local row copies the global row's STORED entry order with
//    columns remapped, and the per-row SpMM kernels (fixed stored-order
//    accumulation) then produce owned rows bitwise identical to the
//    lone-engine product.
//  - adj: an n_local x n_local DeltaCsr. Owned rows replicate the global
//    kSymNorm rows with columns remapped to local ids; halo rows are empty
//    (a part never computes a halo node — it receives its hidden states
//    through the HaloExchange). DeltaCsr so dynamic mutation batches patch
//    individual rows copy-on-write, same as the single-engine path. Every
//    part carries a column rank — the external id of locals[l], or its
//    global id on an unreordered graph — so DeltaCsr's ascending-rank row
//    invariant holds although local order need not be global order.
//
// Plans are deterministic byte-for-byte: Build runs the seeded partitioner
// (single-threaded) and every derived structure is assembled by sorted
// traversal, so Serialize() output is identical across runs and thread
// counts for the same (graph, num_parts, seed).
#ifndef AUTOHENS_PARTITION_PLAN_H_
#define AUTOHENS_PARTITION_PLAN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dyn/delta_csr.h"
#include "graph/graph.h"
#include "partition/partitioner.h"
#include "util/status.h"

namespace ahg::partition {

struct PartitionPlan {
  struct Part {
    // Local -> global id; locals.size() = n_local. Ascending global id as
    // built; later additions are appended, so an earlier locals list is
    // always a prefix of a later one.
    std::vector<int> locals;
    // owned[l] != 0 iff locals[l] is owned (not halo) here.
    std::vector<uint8_t> owned;
    // Local ids of owned nodes, ascending in local AND global id (only new
    // nodes, larger than every existing id, are appended as owned). These
    // are the rows this part computes.
    std::vector<int> owned_locals;
    // Global ids of halo nodes, strictly ascending (sorted insertion).
    std::vector<int> halo_globals;
    // Global -> local for this part's universe only.
    std::unordered_map<int, int> local_of;
    // n_local x n_local local adjacency as built (see file comment);
    // PartitionedEngine grows it to the part's row capacity.
    dyn::DeltaCsr adj;

    int num_local() const { return static_cast<int>(locals.size()); }
    int num_owned() const { return static_cast<int>(owned_locals.size()); }
    int num_halo() const { return static_cast<int>(halo_globals.size()); }
  };

  int num_parts = 0;
  uint64_t seed = 0;
  std::vector<int> part_of;  // global -> owning part
  PartitionMetrics metrics;
  int64_t halo_nodes_total = 0;  // sum of per-part halo counts
  std::vector<Part> parts;

  // Partitions `graph` with the seeded multilevel partitioner and
  // materializes the per-part structures. The plan reads the graph's
  // kSymNorm adjacency — the matrix GCN/SGC propagation multiplies by.
  static StatusOr<PartitionPlan> Build(const Graph& graph, int num_parts,
                                       const PartitionerOptions& options = {});

  // Same materialization over a caller-supplied assignment (tests, external
  // partitioners). Validates size and range; empty parts are permitted.
  static StatusOr<PartitionPlan> BuildFromAssignment(const Graph& graph,
                                                     std::vector<int> part_of,
                                                     int num_parts);

  // Canonical text form ("ahg-partition-plan 1"): assignment, metrics, and
  // per-part owned/halo lists. Byte-identical for identical plans — the
  // determinism tests memcmp this.
  std::string Serialize() const;
};

}  // namespace ahg::partition

#endif  // AUTOHENS_PARTITION_PLAN_H_
