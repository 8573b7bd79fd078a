// Compressed-sparse-row matrix for graph adjacency.
//
// Adjacency matrices are constants during training, so SparseMatrix carries
// no gradient machinery; autodiff ops treat it as fixed structure and only
// differentiate through the dense operand of SpMM.
//
// Threading: Spmm and SpmmTransposed are row-parallel over the global
// thread count (util/thread_pool.h). Each output row is written by exactly
// one worker in a fixed accumulation order, so results are bitwise
// identical for every thread count. SpmmTransposed routes through a cached
// explicit transpose (TransposedCached) so its output rows are owned too —
// no atomics, no scatter races.
#ifndef AUTOHENS_TENSOR_SPARSE_MATRIX_H_
#define AUTOHENS_TENSOR_SPARSE_MATRIX_H_

#include <memory>
#include <vector>

#include "tensor/alloc_tracker.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace ahg {

// One (row, col, value) entry used when assembling a SparseMatrix.
struct CooEntry {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  // Builds CSR from coordinate entries; duplicate (row, col) pairs are
  // summed. Out-of-range indices or negative dimensions are programmer
  // error and abort via AHG_CHECK; use FromCooChecked for untrusted input.
  static SparseMatrix FromCoo(int rows, int cols,
                              std::vector<CooEntry> entries);

  // Like FromCoo but returns InvalidArgument instead of aborting when
  // dimensions are negative or an entry is out of range — the entry point
  // for user-supplied data (IO readers, file formats).
  static StatusOr<SparseMatrix> FromCooChecked(int rows, int cols,
                                               std::vector<CooEntry> entries);

  // Adopts already-assembled CSR arrays verbatim: no sorting, no duplicate
  // merging — the stored entry order is exactly what the caller passed.
  // This is the assembly path for permuted (rank-ordered) matrices, where
  // entry order encodes the FP accumulation sequence and a FromCoo re-sort
  // would silently change served bits (see graph/reorder.h). Shape and
  // row_ptr monotonicity/column ranges are CHECK-validated.
  static SparseMatrix FromCsrParts(int rows, int cols,
                                   std::vector<int64_t> row_ptr,
                                   std::vector<int> col_idx,
                                   std::vector<double> values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }

  // CSR accessors: row r's entries occupy [row_ptr()[r], row_ptr()[r + 1]).
  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  // Invalidates the cached transpose: the caller is about to change values.
  std::vector<double>* mutable_values() {
    transpose_cache_.reset();
    return &values_;
  }

  // Y = this * X (dense). X.rows() must equal cols().
  Matrix Spmm(const Matrix& x) const;

  // Row-subset SpMM: output row i is (this * X) row rows[i], accumulated in
  // the same entry order as Spmm, so each returned row is bitwise identical
  // to the corresponding row of the full product. The dynamic-graph
  // incremental refresh uses this to recompute only dirty rows.
  Matrix SpmmRows(const std::vector<int>& rows, const Matrix& x) const;

  // Y = this^T * X (dense). X.rows() must equal rows(). Builds (and caches)
  // the explicit transpose on first use; repeated calls — the SpMM backward
  // runs once per training step — pay only the row-parallel Spmm.
  Matrix SpmmTransposed(const Matrix& x) const;

  // Explicit transpose as a new CSR matrix.
  SparseMatrix Transposed() const;

  // Lazily built, thread-safe shared view of Transposed(). Valid until this
  // matrix is destroyed or its values are mutated.
  const SparseMatrix& TransposedCached() const;

  // Per-row sum of values (weighted out-degree for adjacency).
  std::vector<double> RowSums() const;

  // Number of stored entries in row r. r must be in [0, rows()).
  int64_t RowNnz(int r) const {
    AHG_CHECK(r >= 0 && r < rows_);
    return row_ptr_[r + 1] - row_ptr_[r];
  }

  // Densifies (tests and tiny graphs only).
  Matrix ToDense() const;

 private:
  // CSR assembly from entries already validated against rows x cols.
  static SparseMatrix BuildFromValidCoo(int rows, int cols,
                                        std::vector<CooEntry> entries);

  int rows_ = 0;
  int cols_ = 0;
  std::vector<int64_t> row_ptr_;
  std::vector<int> col_idx_;
  std::vector<double> values_;
  // AllocTracker accounting for the CSR arrays above (copies re-report,
  // moves transfer — vector copies/moves track the same way).
  TrackedBytes tracked_;
  // Lazily built by TransposedCached(); immutable once published, so copies
  // of this matrix may share it. Reset by mutable_values().
  mutable std::shared_ptr<const SparseMatrix> transpose_cache_;
};

}  // namespace ahg

#endif  // AUTOHENS_TENSOR_SPARSE_MATRIX_H_
