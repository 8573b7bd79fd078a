#include "tensor/sparse_matrix.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/autotune.h"
#include "kernels/kernel_ops.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace ahg {
namespace {

// Workloads (nnz * dense width) below this skip the autotuner and use the
// tier-default variant.
constexpr int64_t kSpmmTuneMinWork = 1 << 20;

// One CSR row times a dense block via the dispatched per-tier kernel:
// register-blocked over the dense width, each y[c] accumulating entries in
// ascending storage order — the same per-element order as the naive
// entry-outer loop — so results are bitwise identical to it across tiers
// and block widths. Shared by Spmm and SpmmRows. Rows with no entries
// write a zero row (the accumulators start at 0 and are always stored).
inline void SpmmRowKernel(const kernels::TierOps& ops, int cblock,
                          const SparseMatrix& m, int64_t r, const Matrix& x,
                          double* yrow) {
  const int64_t e_begin = m.row_ptr()[r];
  ops.spmm_row(cblock, m.values().data() + e_begin,
               m.col_idx().data() + e_begin, m.row_ptr()[r + 1] - e_begin,
               x.data(), x.cols(), x.cols(), yrow);
}

int64_t SpmmNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Row-split schedule: contiguous row ranges of ~equal row count (the
// ParallelForChunked default partition).
void SpmmRowSplitPass(const kernels::TierOps& ops, int cblock,
                      const SparseMatrix& m, const Matrix& x, Matrix* y) {
  const int64_t work_per_row =
      m.rows() > 0 ? std::max<int64_t>(1, m.nnz() / m.rows()) * x.cols() : 1;
  ParallelForChunked(m.rows(), work_per_row, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      SpmmRowKernel(ops, cblock, m, r, x, y->Row(static_cast<int>(r)));
    }
  });
}

// nnz-split schedule: contiguous row ranges of ~equal *entry* count, found
// by searching the CSR row_ptr prefix sums. Better load balance on
// degree-skewed graphs. Each row is still computed whole by one worker in
// the same entry order, so the result is bitwise identical to row-split.
void SpmmNnzSplitPass(const kernels::TierOps& ops, int cblock,
                      const SparseMatrix& m, const Matrix& x, Matrix* y) {
  const int64_t rows = m.rows();
  const int64_t nnz = m.nnz();
  const std::vector<int64_t>& row_ptr = m.row_ptr();
  const int64_t target_chunks =
      std::min<int64_t>(rows, std::max(1, GetNumThreads() * 4));
  std::vector<int64_t> bounds;
  bounds.reserve(static_cast<size_t>(target_chunks) + 1);
  bounds.push_back(0);
  for (int64_t t = 1; t < target_chunks; ++t) {
    const int64_t target = nnz * t / target_chunks;
    const int64_t row =
        std::upper_bound(row_ptr.begin(), row_ptr.end(), target) -
        row_ptr.begin() - 1;
    if (row > bounds.back() && row < rows) bounds.push_back(row);
  }
  bounds.push_back(rows);
  const int64_t num_chunks = static_cast<int64_t>(bounds.size()) - 1;
  const int64_t work_per_chunk =
      std::max<int64_t>(1, nnz / num_chunks) * x.cols();
  ParallelForChunked(num_chunks, work_per_chunk,
                     [&](int64_t begin, int64_t end) {
    for (int64_t ci = begin; ci < end; ++ci) {
      for (int64_t r = bounds[ci]; r < bounds[ci + 1]; ++r) {
        SpmmRowKernel(ops, cblock, m, r, x, y->Row(static_cast<int>(r)));
      }
    }
  });
}

// SpMM variant for this (matrix, dense width) shape: forced (tests) >
// cached > benchmarked-on-first-use > tier default. Benchmark passes fully
// overwrite y, so they leave no residue for the production pass.
kernels::SpmmChoice ResolveSpmmChoice(const kernels::TierOps& ops,
                                      const SparseMatrix& m, const Matrix& x,
                                      Matrix* y) {
  if (const kernels::SpmmChoice* forced = kernels::ForcedSpmm()) {
    return *forced;
  }
  const int64_t work = m.nnz() * x.cols();
  if (work < kSpmmTuneMinWork || !kernels::AutotuneEnabled()) {
    return kernels::SpmmChoice{};
  }
  const std::string key =
      kernels::SpmmShapeKey(ops.tier, m.rows(), m.nnz(), x.cols());
  kernels::KernelTuner& tuner = kernels::KernelTuner::Global();
  kernels::SpmmChoice cached;
  if (tuner.LookupSpmm(key, &cached)) return cached;
  std::vector<kernels::SpmmChoice> candidates;
  for (int bi = 0; bi < ops.num_spmm_cblocks; ++bi) {
    candidates.push_back(kernels::SpmmChoice{ops.spmm_cblocks[bi], false});
    candidates.push_back(kernels::SpmmChoice{ops.spmm_cblocks[bi], true});
  }
  return tuner.GetSpmm(key, candidates, [&](const kernels::SpmmChoice& cand) {
    const int64_t t0 = SpmmNowNs();
    if (cand.nnz_split) {
      SpmmNnzSplitPass(ops, cand.cblock, m, x, y);
    } else {
      SpmmRowSplitPass(ops, cand.cblock, m, x, y);
    }
    return static_cast<double>(SpmmNowNs() - t0);
  });
}

}  // namespace

SparseMatrix SparseMatrix::BuildFromValidCoo(int rows, int cols,
                                             std::vector<CooEntry> entries) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  std::sort(entries.begin(), entries.end(),
            [](const CooEntry& a, const CooEntry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(entries.size());
  m.values_.reserve(entries.size());
  for (size_t i = 0; i < entries.size();) {
    const CooEntry& e = entries[i];
    double value = 0.0;
    size_t j = i;
    // Merge duplicates of the same coordinate.
    while (j < entries.size() && entries[j].row == e.row &&
           entries[j].col == e.col) {
      value += entries[j].value;
      ++j;
    }
    m.col_idx_.push_back(e.col);
    m.values_.push_back(value);
    m.row_ptr_[e.row + 1] += 1;
    i = j;
  }
  for (int r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  // CSR arrays are the resident footprint of graph structure; report them
  // so AllocTracker peaks cover sparse state, not just dense Matrix buffers
  // (the partition-scale bench depends on this for honest per-part totals).
  m.tracked_.Reset(m.row_ptr_.size() * sizeof(int64_t) +
                   m.col_idx_.size() * sizeof(int) +
                   m.values_.size() * sizeof(double));
  return m;
}

SparseMatrix SparseMatrix::FromCoo(int rows, int cols,
                                   std::vector<CooEntry> entries) {
  AHG_CHECK_GE(rows, 0);
  AHG_CHECK_GE(cols, 0);
  for (const CooEntry& e : entries) {
    AHG_CHECK_MSG(e.row >= 0 && e.row < rows && e.col >= 0 && e.col < cols,
                  "entry (" << e.row << ", " << e.col << ") outside " << rows
                            << " x " << cols);
  }
  return BuildFromValidCoo(rows, cols, std::move(entries));
}

SparseMatrix SparseMatrix::FromCsrParts(int rows, int cols,
                                        std::vector<int64_t> row_ptr,
                                        std::vector<int> col_idx,
                                        std::vector<double> values) {
  AHG_CHECK_GE(rows, 0);
  AHG_CHECK_GE(cols, 0);
  AHG_CHECK_EQ(static_cast<int64_t>(row_ptr.size()),
               static_cast<int64_t>(rows) + 1);
  AHG_CHECK_EQ(row_ptr.empty() ? 0 : row_ptr.front(), 0);
  AHG_CHECK_EQ(row_ptr.back(), static_cast<int64_t>(col_idx.size()));
  AHG_CHECK_EQ(col_idx.size(), values.size());
  for (int r = 0; r < rows; ++r) {
    AHG_CHECK_LE(row_ptr[r], row_ptr[r + 1]);
  }
  for (int c : col_idx) AHG_CHECK(c >= 0 && c < cols);
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  m.tracked_.Reset(m.row_ptr_.size() * sizeof(int64_t) +
                   m.col_idx_.size() * sizeof(int) +
                   m.values_.size() * sizeof(double));
  return m;
}

StatusOr<SparseMatrix> SparseMatrix::FromCooChecked(
    int rows, int cols, std::vector<CooEntry> entries) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative sparse matrix shape " +
                                   std::to_string(rows) + " x " +
                                   std::to_string(cols));
  }
  for (const CooEntry& e : entries) {
    if (e.row < 0 || e.row >= rows || e.col < 0 || e.col >= cols) {
      return Status::InvalidArgument(
          "coo entry (" + std::to_string(e.row) + ", " +
          std::to_string(e.col) + ") outside " + std::to_string(rows) +
          " x " + std::to_string(cols));
    }
  }
  return BuildFromValidCoo(rows, cols, std::move(entries));
}

Matrix SparseMatrix::Spmm(const Matrix& x) const {
  AHG_CHECK_EQ(x.rows(), cols_);
  AHG_TRACE_SPAN_ARG("tensor/spmm", nnz() * x.cols());
  // Every row kernel stores all of its output row, so y is write-once.
  Matrix y = Matrix::Uninitialized(rows_, x.cols());
  // Tier table and variant resolved on the calling thread before any
  // parallel region; both schedules are exact (see SpmmNnzSplitPass).
  const kernels::TierOps& ops = kernels::ActiveOps();
  const kernels::SpmmChoice choice = ResolveSpmmChoice(ops, *this, x, &y);
  if (choice.nnz_split) {
    SpmmNnzSplitPass(ops, choice.cblock, *this, x, &y);
  } else {
    SpmmRowSplitPass(ops, choice.cblock, *this, x, &y);
  }
  return y;
}

Matrix SparseMatrix::SpmmRows(const std::vector<int>& rows,
                              const Matrix& x) const {
  AHG_CHECK_EQ(x.rows(), cols_);
  AHG_TRACE_SPAN_ARG("tensor/spmm_rows",
                     static_cast<int64_t>(rows.size()) * x.cols());
  Matrix y = Matrix::Uninitialized(static_cast<int>(rows.size()), x.cols());
  // Row subsets change every incremental refresh, so they never tune a key
  // of their own; reuse the full-matrix entry's column block when present
  // (the per-row kernel is the same) and fall back to the tier default.
  const kernels::TierOps& ops = kernels::ActiveOps();
  kernels::SpmmChoice choice;
  if (const kernels::SpmmChoice* forced = kernels::ForcedSpmm()) {
    choice = *forced;
  } else {
    kernels::KernelTuner::Global().LookupSpmm(
        kernels::SpmmShapeKey(ops.tier, rows_, nnz(), x.cols()), &choice);
  }
  const int64_t work_per_row =
      rows_ > 0 ? std::max<int64_t>(1, nnz() / rows_) * x.cols() : 1;
  ParallelForChunked(static_cast<int64_t>(rows.size()), work_per_row,
                     [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const int r = rows[i];
      AHG_CHECK(r >= 0 && r < rows_);
      SpmmRowKernel(ops, choice.cblock, *this, r, x,
                    y.Row(static_cast<int>(i)));
    }
  });
  return y;
}

Matrix SparseMatrix::SpmmTransposed(const Matrix& x) const {
  AHG_CHECK_EQ(x.rows(), rows_);
  // The scatter form (y[col] += ...) cannot be row-partitioned, so run the
  // gather form on the cached transpose: output row j accumulates sources in
  // increasing original-row order — the same summation order as the scatter
  // loop, hence bitwise identical to it, and each row is worker-owned.
  return TransposedCached().Spmm(x);
}

SparseMatrix SparseMatrix::Transposed() const {
  std::vector<CooEntry> entries;
  entries.reserve(nnz());
  for (int r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      entries.push_back({col_idx_[i], r, values_[i]});
    }
  }
  return FromCoo(cols_, rows_, std::move(entries));
}

const SparseMatrix& SparseMatrix::TransposedCached() const {
  // One process-wide mutex guards lazy publication for all instances;
  // builds are rare (once per adjacency) and the post-init critical section
  // is a pointer copy.
  static std::mutex mu;
  std::shared_ptr<const SparseMatrix> cached;
  {
    std::lock_guard<std::mutex> lock(mu);
    cached = transpose_cache_;
  }
  if (cached == nullptr) {
    auto built = std::make_shared<const SparseMatrix>(Transposed());
    std::lock_guard<std::mutex> lock(mu);
    if (transpose_cache_ == nullptr) transpose_cache_ = std::move(built);
    cached = transpose_cache_;
  }
  return *cached;
}

std::vector<double> SparseMatrix::RowSums() const {
  std::vector<double> sums(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      sums[r] += values_[i];
    }
  }
  return sums;
}

Matrix SparseMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      d(r, col_idx_[i]) += values_[i];
    }
  }
  return d;
}

}  // namespace ahg
