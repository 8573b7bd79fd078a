#include "tensor/matrix.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "kernels/autotune.h"
#include "kernels/kernel_ops.h"
#include "obs/trace.h"
#include "tensor/aligned.h"
#include "tensor/alloc_tracker.h"
#include "tensor/pool.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ahg {
namespace {

// Workloads below this many multiply-adds use the tier-default kernel
// variant without consulting (or populating) the autotuner — tuning
// overhead would swamp any win on small shapes.
constexpr int64_t kTuneMinWork = 1 << 20;

// Candidate k-panel sizes (rows of B kept hot per slab) for GEMM tuning.
constexpr int kGemmKPanels[] = {64, 128, 256};

// Largest k-panel the per-row nonzero index list holds. Larger tuned or
// forced panels clamp to it; the panel size never affects values.
constexpr int kMaxKPanel = 256;

// Rows of A per MatMulTransA partial. Not a tuning knob: it fixes the FP
// grouping of the cross-chunk reduction (see kernels/kernel_ops.h).
constexpr int64_t kReduceChunk = 2048;

// Rows of A packed (transposed) per MatMulTransA k-panel: the matching
// rows of B stay cache-hot while every column of A runs against them.
constexpr int kTransAPanel = 128;
// Row stride of the packed panel, padded off a power of two so the packing
// writes (one per panel row for each row of A) do not all land in the same
// few cache sets.
constexpr int kTransAPanelLd = kTransAPanel + 8;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int KPanel(const kernels::GemmChoice& choice) {
  return choice.kpanel > 0 ? std::min(choice.kpanel, kMaxKPanel) : 128;
}

// One row's k-panel (kc <= kMaxKPanel) through the row kernel. With
// skip_zeros (A*B, A^T*B) only the nonzero a-entries are listed, in the
// caller's kidx scratch; without (A*B^T, run on B^T) every product is
// added.
inline void GemmRowPanel(const kernels::TierOps& ops, bool skip_zeros,
                         const double* arow, int kc, const double* b,
                         int64_t ldb, int n, double* crow, int* kidx) {
  if (!skip_zeros) {
    ops.gemm_row(arow, nullptr, kc, b, ldb, n, crow);
    return;
  }
  const int cnt = ops.list_nonzero(arow, kc, kidx);
  ops.gemm_row(arow, kidx, cnt, b, ldb, n, crow);
}

// Runs rows [begin, end) of c += a * b panel by panel: the outer k-panel
// loop keeps a kc x b.cols() slab of B hot in cache while every row
// streams through it. Each c[i][j] still accumulates k in globally
// ascending order (panels ascend, k ascends within a panel), whatever the
// panel size.
void GemmRowRange(const kernels::TierOps& ops,
                  const kernels::GemmChoice& choice, bool skip_zeros,
                  const Matrix& a, const Matrix& b, int64_t begin,
                  int64_t end, Matrix* c) {
  const int kpanel = KPanel(choice);
  int kidx[kMaxKPanel] = {};
  for (int k0 = 0; k0 < a.cols(); k0 += kpanel) {
    const int kc = std::min(a.cols() - k0, kpanel);
    for (int64_t i = begin; i < end; ++i) {
      GemmRowPanel(ops, skip_zeros, a.Row(static_cast<int>(i)) + k0, kc,
                   b.Row(k0), b.cols(), b.cols(), c->Row(static_cast<int>(i)),
                   kidx);
    }
  }
}

// Resolves the GEMM variant for this shape: forced (tests) > cached >
// benchmarked-on-first-use > tier default. The benchmark runs each
// candidate over the first few rows of c and re-zeros them afterwards, so
// it leaves no trace. A*B and A*B^T (on B^T) share the table: both run the
// same row kernel over the same (k, n, m) shape.
kernels::GemmChoice ResolveGemmChoice(const kernels::TierOps& ops,
                                      const Matrix& a, const Matrix& b,
                                      bool skip_zeros, Matrix* c) {
  if (const kernels::GemmChoice* forced = kernels::ForcedGemm()) {
    return *forced;
  }
  const int64_t work = int64_t{a.rows()} * a.cols() * b.cols();
  if (work < kTuneMinWork || !kernels::AutotuneEnabled()) {
    return kernels::GemmChoice{};
  }
  const std::string key =
      kernels::GemmShapeKey(ops.tier, a.cols(), b.cols(), a.rows());
  kernels::KernelTuner& tuner = kernels::KernelTuner::Global();
  kernels::GemmChoice cached;
  if (tuner.LookupGemm(key, &cached)) return cached;
  std::vector<kernels::GemmChoice> candidates;
  for (const int kp : kGemmKPanels) {
    candidates.push_back(kernels::GemmChoice{kp});
  }
  const int bench_rows = std::min(a.rows(), 8);
  const kernels::GemmChoice choice = tuner.GetGemm(
      key, candidates, [&](const kernels::GemmChoice& cand) {
        const int64_t t0 = NowNs();
        GemmRowRange(ops, cand, skip_zeros, a, b, 0, bench_rows, c);
        return static_cast<double>(NowNs() - t0);
      });
  if (bench_rows > 0) {
    std::fill(c->Row(0), c->Row(0) + int64_t{bench_rows} * c->cols(), 0.0);
  }
  return choice;
}

// c = a * b (b is k x n) through the row kernel, row-parallel: each output
// row is owned by one worker, so the result is bitwise identical at every
// thread count, tier and tuned variant (see kernels/kernel_ops.h). The tier
// table and variant are resolved on the calling thread before the parallel
// region so every worker uses the same kernel.
Matrix GemmRows(const Matrix& a, const Matrix& b, bool skip_zeros) {
  Matrix c(a.rows(), b.cols());
  const kernels::TierOps& ops = kernels::ActiveOps();
  const kernels::GemmChoice choice =
      ResolveGemmChoice(ops, a, b, skip_zeros, &c);
  const int64_t work_per_row = int64_t{a.cols()} * b.cols();
  ParallelForChunked(a.rows(), work_per_row, [&](int64_t begin, int64_t end) {
    GemmRowRange(ops, choice, skip_zeros, a, b, begin, end, &c);
  });
  return c;
}

// Writes `a` with an in-place kernel applied, in one pass: each L1-sized
// block of `a` is copied into the uninitialized result and `op(block, offset,
// length)` runs on it while it is still in cache. The arithmetic is the
// kernel's own, so the bits equal copying all of `a` and then modifying it.
template <typename InPlaceOp>
Matrix CopyAndApply(const Matrix& a, InPlaceOp op) {
  constexpr int64_t kBlock = 512;
  Matrix c = Matrix::Uninitialized(a.rows(), a.cols());
  for (int64_t i = 0; i < c.size(); i += kBlock) {
    const int64_t len = std::min(kBlock, c.size() - i);
    std::memcpy(c.data() + i, a.data() + i, len * sizeof(double));
    op(c.data() + i, i, len);
  }
  return c;
}

}  // namespace

void Matrix::Allocate(int rows, int cols, bool zero) {
  AHG_CHECK_GE(rows, 0);
  AHG_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  const int64_t n = size();
  if (n > 0) {
    if (PoolingEnabled()) {
      // Pool hits recycle (and re-zero) a parked buffer; misses heap-
      // allocate and are the only path that counts in AllocTracker.
      data_ = MatrixPool::Global().Acquire(n, zero);
      pooled_ = true;
    } else {
      data_ = AlignedAllocDoubles(n, zero);
      pooled_ = false;
      AllocTracker::Add(static_cast<size_t>(n) * sizeof(double));
    }
  }
}

void Matrix::Release() {
  if (data_ != nullptr) {
    if (pooled_) {
      MatrixPool::Global().Release(data_, size());
    } else {
      AllocTracker::Remove(static_cast<size_t>(size()) * sizeof(double));
      AlignedFreeDoubles(data_);
    }
    data_ = nullptr;
  }
  rows_ = 0;
  cols_ = 0;
  pooled_ = false;
}

Matrix::Matrix(int rows, int cols) { Allocate(rows, cols); }

Matrix Matrix::Uninitialized(int rows, int cols) {
  Matrix m;
  m.Allocate(rows, cols, /*zero=*/false);
#ifdef AHG_POISON_UNINITIALIZED
  m.Fill(std::numeric_limits<double>::quiet_NaN());
#endif
  return m;
}

Matrix::Matrix(const Matrix& other) {
  Allocate(other.rows_, other.cols_, /*zero=*/false);
  if (size() > 0) std::memcpy(data_, other.data_, size() * sizeof(double));
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  Release();
  Allocate(other.rows_, other.cols_, /*zero=*/false);
  if (size() > 0) std::memcpy(data_, other.data_, size() * sizeof(double));
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      pooled_(other.pooled_),
      data_(other.data_) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.pooled_ = false;
  other.data_ = nullptr;
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  Release();
  rows_ = other.rows_;
  cols_ = other.cols_;
  pooled_ = other.pooled_;
  data_ = other.data_;
  other.rows_ = 0;
  other.cols_ = 0;
  other.pooled_ = false;
  other.data_ = nullptr;
  return *this;
}

Matrix::~Matrix() { Release(); }

Matrix Matrix::Constant(int rows, int cols, double value) {
  Matrix m(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Gaussian(int rows, int cols, double stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data_[i] = rng->Normal(0.0, stddev);
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (int r = 0; r < m.rows(); ++r) {
    AHG_CHECK_EQ(static_cast<int>(rows[r].size()), m.cols());
    std::copy(rows[r].begin(), rows[r].end(), m.Row(r));
  }
  return m;
}

void Matrix::Fill(double value) {
  std::fill(data_, data_ + size(), value);
}

void Matrix::AddInPlace(const Matrix& other) {
  AHG_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  kernels::ActiveOps().add_inplace(data_, other.data_, size());
}

void Matrix::AxpyInPlace(double alpha, const Matrix& other) {
  AHG_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  kernels::ActiveOps().axpy_inplace(data_, alpha, other.data_, size());
}

void Matrix::ScaleInPlace(double alpha) {
  kernels::ActiveOps().scale_inplace(data_, alpha, size());
}

int Matrix::ArgMaxRow(int r) const {
  AHG_CHECK(r >= 0 && r < rows_ && cols_ > 0);
  const double* row = Row(r);
  int best = 0;
  for (int c = 1; c < cols_; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

double Matrix::Sum() const {
  double total = 0.0;
  for (int64_t i = 0; i < size(); ++i) total += data_[i];
  return total;
}

double Matrix::SquaredNorm() const {
  double total = 0.0;
  for (int64_t i = 0; i < size(); ++i) total += data_[i] * data_[i];
  return total;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  AHG_CHECK_EQ(a.cols(), b.rows());
  AHG_TRACE_SPAN_ARG("tensor/matmul",
                     int64_t{a.rows()} * a.cols() * b.cols());
  return GemmRows(a, b, /*skip_zeros=*/true);
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  AHG_CHECK_EQ(a.rows(), b.rows());
  AHG_TRACE_SPAN_ARG("tensor/matmul_ta",
                     int64_t{a.rows()} * a.cols() * b.cols());
  // Every output entry sums over all of a's rows, so rows of c cannot be
  // handed to one worker each without scattering. Instead partition the
  // reduction dimension into chunks of a *fixed* size (independent of the
  // thread count), give each worker whole chunks to accumulate privately,
  // and reduce the partials in chunk order on the calling thread. The
  // chunk grid and the reduction order are pure functions of the shapes,
  // so results are bitwise identical for every thread count.
  const int m = a.cols();
  const int n = b.cols();
  const int64_t rows = a.rows();
  const int64_t num_chunks =
      std::max<int64_t>(1, (rows + kReduceChunk - 1) / kReduceChunk);
  // Partials are allocated on the calling thread; workers only fill them.
  std::vector<Matrix> partial;
  partial.reserve(num_chunks);
  for (int64_t p = 0; p < num_chunks; ++p) partial.emplace_back(m, n);
  const kernels::TierOps& ops = kernels::ActiveOps();
  ParallelForChunked(num_chunks, kReduceChunk * m * n,
                     [&](int64_t begin, int64_t end) {
    // Each k-panel of the chunk is packed transposed, so column i of a is
    // a contiguous row of `panel` that runs through the A*B row kernel
    // (zero-skip included) against the panel's rows of b, which stay hot
    // across all m columns.
    // Every entry the row kernel reads is packed first, so the panel needs
    // no zero-fill.
    const std::unique_ptr<double[]> panel =
        std::make_unique_for_overwrite<double[]>(static_cast<size_t>(m) *
                                                 kTransAPanelLd);
    int kidx[kTransAPanel] = {};
    for (int64_t p = begin; p < end; ++p) {
      const int c0 = static_cast<int>(p * kReduceChunk);
      const int c1 = static_cast<int>(std::min(rows, (p + 1) * kReduceChunk));
      for (int k0 = c0; k0 < c1; k0 += kTransAPanel) {
        const int kc = std::min(c1 - k0, kTransAPanel);
        for (int k = 0; k < kc; ++k) {
          const double* arow = a.Row(k0 + k);
          for (int i = 0; i < m; ++i) {
            panel[static_cast<size_t>(i) * kTransAPanelLd + k] = arow[i];
          }
        }
        for (int i = 0; i < m; ++i) {
          GemmRowPanel(ops, /*skip_zeros=*/true,
                       panel.get() + static_cast<size_t>(i) * kTransAPanelLd,
                       kc, b.Row(k0), n, n, partial[p].Row(i), kidx);
        }
      }
    }
  });
  Matrix c(m, n);
  for (int64_t p = 0; p < num_chunks; ++p) c.AddInPlace(partial[p]);
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  AHG_CHECK_EQ(a.cols(), b.cols());
  AHG_TRACE_SPAN_ARG("tensor/matmul_tb",
                     int64_t{a.rows()} * a.cols() * b.rows());
  // B is a weight (a few hundred rows at most): transposing it once turns
  // A*B^T into the A*B row kernel with every product added, so each
  // c[i][j] is one ascending-k dot from +0.0, as before.
  return GemmRows(a, Transpose(b), /*skip_zeros=*/false);
}

Matrix Transpose(const Matrix& a) {
  Matrix t = Matrix::Uninitialized(a.cols(), a.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  AHG_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  const kernels::TierOps& ops = kernels::ActiveOps();
  return CopyAndApply(a, [&](double* c, int64_t off, int64_t len) {
    ops.add_inplace(c, b.data() + off, len);
  });
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  AHG_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  const kernels::TierOps& ops = kernels::ActiveOps();
  return CopyAndApply(a, [&](double* c, int64_t off, int64_t len) {
    ops.axpy_inplace(c, -1.0, b.data() + off, len);
  });
}

Matrix CWiseMul(const Matrix& a, const Matrix& b) {
  AHG_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = Matrix::Uninitialized(a.rows(), a.cols());
  kernels::ActiveOps().cwise_mul(a.data(), b.data(), a.size(), c.data());
  return c;
}

Matrix Scale(const Matrix& a, double alpha) {
  const kernels::TierOps& ops = kernels::ActiveOps();
  return CopyAndApply(a, [&](double* c, int64_t, int64_t len) {
    ops.scale_inplace(c, alpha, len);
  });
}

Matrix RowSoftmax(const Matrix& a) {
  AHG_TRACE_SPAN_ARG("tensor/row_softmax", int64_t{a.rows()} * a.cols());
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  // Zero-column input: nothing to normalize (and row_max on an empty row
  // would read past the end of a null buffer).
  if (a.cols() == 0) return out;
  // Row-owned, so parallel execution is bitwise identical to sequential.
  // The max is order-independent for NaN-free input and division is exact
  // per lane, so those vectorize; the exp + running sum keeps the scalar
  // accumulation order.
  const kernels::TierOps& ops = kernels::ActiveOps();
  ParallelForChunked(a.rows(), 4 * a.cols(), [&](int64_t begin, int64_t end) {
    for (int64_t ri = begin; ri < end; ++ri) {
      const int r = static_cast<int>(ri);
      const double* in = a.Row(r);
      double* dst = out.Row(r);
      const double max_val = ops.row_max(in, a.cols());
      double total = 0.0;
      for (int c = 0; c < a.cols(); ++c) {
        dst[c] = std::exp(in[c] - max_val);
        total += dst[c];
      }
      ops.div_inplace(dst, a.cols(), total);
    }
  });
  return out;
}

Matrix RowLogSoftmax(const Matrix& a) {
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  if (a.cols() == 0) return out;
  const kernels::TierOps& ops = kernels::ActiveOps();
  ParallelForChunked(a.rows(), 4 * a.cols(), [&](int64_t begin, int64_t end) {
    for (int64_t ri = begin; ri < end; ++ri) {
      const int r = static_cast<int>(ri);
      const double* in = a.Row(r);
      double* dst = out.Row(r);
      const double max_val = ops.row_max(in, a.cols());
      double total = 0.0;
      for (int c = 0; c < a.cols(); ++c) total += std::exp(in[c] - max_val);
      const double log_total = std::log(total) + max_val;
      ops.sub_scalar(in, a.cols(), log_total, dst);
    }
  });
  return out;
}

bool AllClose(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::abs(a.data()[i] - b.data()[i]) > tol) return false;
  }
  return true;
}

Matrix GatherRows(const Matrix& src, const std::vector<int>& rows) {
  Matrix out =
      Matrix::Uninitialized(static_cast<int>(rows.size()), src.cols());
  const size_t row_bytes = static_cast<size_t>(src.cols()) * sizeof(double);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int r = rows[i];
    AHG_CHECK(r >= 0 && r < src.rows());
    std::memcpy(out.Row(static_cast<int>(i)), src.Row(r), row_bytes);
  }
  return out;
}

void ScatterRows(const Matrix& src, const std::vector<int>& rows,
                 Matrix* dst) {
  AHG_CHECK_EQ(src.rows(), static_cast<int>(rows.size()));
  AHG_CHECK_EQ(src.cols(), dst->cols());
  const size_t row_bytes = static_cast<size_t>(src.cols()) * sizeof(double);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int r = rows[i];
    AHG_CHECK(r >= 0 && r < dst->rows());
    std::memcpy(dst->Row(r), src.Row(static_cast<int>(i)), row_bytes);
  }
}

Matrix GrowRows(const Matrix& src, int new_rows) {
  AHG_CHECK_GE(new_rows, src.rows());
  // Each byte is written once: the old rows are copied, only the new tail
  // is zeroed (all-zero bytes are +0.0).
  Matrix out = Matrix::Uninitialized(new_rows, src.cols());
  const size_t old_bytes = static_cast<size_t>(src.size()) * sizeof(double);
  const size_t tail_bytes =
      static_cast<size_t>(out.size() - src.size()) * sizeof(double);
  if (old_bytes > 0) std::memcpy(out.data(), src.data(), old_bytes);
  if (tail_bytes > 0) {
    std::memset(reinterpret_cast<char*>(out.data()) + old_bytes, 0,
                tail_bytes);
  }
  return out;
}

}  // namespace ahg
