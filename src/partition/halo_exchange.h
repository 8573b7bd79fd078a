// In-process mailbox exchanging boundary hidden-state rows between parts.
//
// At every propagation stage each part computes only its OWNED rows; the
// halo rows a hop stage reads are produced by their owner parts and
// delivered here right before the hop. Each halo row has exactly one producer (its owning
// part), so delivery is a copy, not a reduction — but the merge order is
// still fixed by contract: DeliverHalo drains source parts in ascending
// part id and writes rows in ascending global id. Holding the order fixed
// means that even if a future transport made delivery concurrent or turned
// copies into accumulations, the P-part forward would remain byte-stable —
// the fixed-reduction-order discipline DESIGN.md describes, and the reason
// the partitioned forward is memcmp-identical to the lone engine.
//
// Not thread-safe: the engine serializes its stage loop (post all parts,
// then deliver all parts) on one thread; the SpMM inside each stage is
// where the thread pool parallelism lives.
#ifndef AUTOHENS_PARTITION_HALO_EXCHANGE_H_
#define AUTOHENS_PARTITION_HALO_EXCHANGE_H_

#include <cstdint>
#include <vector>

#include "partition/plan.h"
#include "tensor/matrix.h"

namespace ahg::partition {

class HaloExchange {
 public:
  // `plan` must outlive the exchange. Routes are derived from the plan's
  // halo lists, one AddHalo per halo node.
  explicit HaloExchange(const PartitionPlan* plan);

  // Routes global node `g` — owned by plan part_of[g], already in the
  // local universe of both that part and part `dst` — into dst's halo row.
  // Sorted insertion keeps every route ascending by global id; existing
  // routes never move, since local ids are fixed once assigned (plan.h).
  // A mutation batch calls this once per new halo node.
  void AddHalo(int dst, int g);

  // Gathers the boundary rows of part p's state (a row per local id, or
  // more) — the owned rows some other part holds as halo — into that
  // consumer's mailbox.
  // With `dirty_globals` (sorted ascending), only boundary rows whose
  // global id is in it are posted — the incremental-refresh path.
  void PostBoundary(int p, const Matrix& state,
                    const std::vector<int>* dirty_globals = nullptr);

  // Merges every mailbox posted for part q into its halo rows: source parts
  // in ascending part id, rows in ascending global id. Clears q's mailbox.
  void DeliverHalo(int q, Matrix* state);

  // Total halo rows delivered since construction (also exported as the
  // partition.halo_rows_exchanged counter).
  int64_t rows_exchanged() const { return rows_exchanged_; }

 private:
  // Rows part `src` owns that part `dst` holds as halo, ascending global.
  struct Route {
    std::vector<int> src_locals;
    std::vector<int> dst_locals;
    std::vector<int> globals;
  };
  struct Mail {
    Matrix rows;
    std::vector<int> dst_locals;
  };

  const PartitionPlan* plan_;
  std::vector<std::vector<Route>> routes_;   // [src][dst]
  std::vector<std::vector<Mail>> mailbox_;   // [dst][src]
  int64_t rows_exchanged_ = 0;
};

}  // namespace ahg::partition

#endif  // AUTOHENS_PARTITION_HALO_EXCHANGE_H_
