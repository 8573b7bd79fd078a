// Kernel backend tests: 64-byte allocation alignment on every Matrix path,
// golden GEMM checks against naive loops written in this file, the
// bitwise-identity matrix across dispatch tiers x kernel variants x odd
// shapes x thread counts, odd-shape edge cases, and tuning-profile
// round-trips (persist -> reload -> same variant, no re-benchmark).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autodiff/ops.h"
#include "autodiff/variable.h"
#include "gtest/gtest.h"
#include "kernels/autotune.h"
#include "kernels/dispatch.h"
#include "kernels/kernel_ops.h"
#include "tensor/aligned.h"
#include "tensor/matrix.h"
#include "tensor/pool.h"
#include "tensor/sparse_matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ahg {
namespace {

using kernels::GemmChoice;
using kernels::KernelTuner;
using kernels::ScopedForcedGemm;
using kernels::ScopedForcedSpmm;
using kernels::ScopedTier;
using kernels::SpmmChoice;
using kernels::Tier;
using kernels::TierOps;
using kernels::TierSupported;

// ~10% exact zeros so the GEMM zero-skip path is exercised.
Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Bernoulli(0.1) ? 0.0 : rng.Normal(0.0, 1.0);
  }
  return m;
}

// ~20% of rows have no entries (zero-nnz edge) and degrees vary, so the
// nnz-split schedule partitions unevenly.
SparseMatrix RandomSparse(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<CooEntry> entries;
  for (int r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.2)) continue;
    const int degree = 1 + static_cast<int>(rng.UniformInt(8));
    for (int d = 0; d < degree; ++d) {
      entries.push_back({r, static_cast<int>(rng.UniformInt(cols)),
                         rng.Normal(0.0, 1.0)});
    }
  }
  return SparseMatrix::FromCoo(rows, cols, std::move(entries));
}

::testing::AssertionResult BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  if (a.size() > 0 &&
      std::memcmp(a.data(), b.data(),
                  static_cast<size_t>(a.size()) * sizeof(double)) != 0) {
    for (int64_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "first difference at flat index " << i << ": "
               << a.data()[i] << " vs " << b.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<Tier> SupportedSimdTiers() {
  std::vector<Tier> tiers;
  if (TierSupported(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  if (TierSupported(Tier::kAvx512)) tiers.push_back(Tier::kAvx512);
  return tiers;
}

TEST(AlignmentTest, EveryAllocationPathIs64ByteAligned) {
  // Fresh (unpooled) allocation.
  Matrix fresh(5, 7);
  EXPECT_TRUE(IsTensorAligned(fresh.data()));

  // FromRows and copy construction.
  Matrix from_rows = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_TRUE(IsTensorAligned(from_rows.data()));
  Matrix copy = from_rows;
  EXPECT_TRUE(IsTensorAligned(copy.data()));

  // GrowRows allocates the destination through the normal path.
  Matrix grown = GrowRows(from_rows, 9);
  EXPECT_TRUE(IsTensorAligned(grown.data()));

  // Pooled: both the miss (heap) and the hit (recycled) must be aligned.
  {
    ScopedArena arena;
    double* first = nullptr;
    {
      Matrix pooled(13, 17);  // odd size: miss -> aligned heap alloc
      EXPECT_TRUE(IsTensorAligned(pooled.data()));
      first = pooled.data();
    }
    Matrix recycled(13, 17);  // same size: pool hit returns the parked buffer
    EXPECT_EQ(recycled.data(), first);
    EXPECT_TRUE(IsTensorAligned(recycled.data()));
  }

  // Move transfers the (aligned) buffer.
  Matrix moved = std::move(fresh);
  EXPECT_TRUE(IsTensorAligned(moved.data()));
}

TEST(DispatchTest, ScopedTierForcesAndRestores) {
  const Tier before = kernels::ActiveTier();
  {
    ScopedTier forced(Tier::kScalar);
    EXPECT_EQ(kernels::ActiveTier(), Tier::kScalar);
    EXPECT_EQ(kernels::ActiveOps().tier, Tier::kScalar);
  }
  EXPECT_EQ(kernels::ActiveTier(), before);
}

TEST(DispatchTest, OpsForFallsBackToSupportedTier) {
  // Whatever is requested, the returned table must be for a supported tier.
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    const TierOps& ops = kernels::OpsFor(t);
    EXPECT_TRUE(TierSupported(ops.tier));
    EXPECT_LE(static_cast<int>(ops.tier), static_cast<int>(t));
  }
}

TEST(BitwiseTest, DenseOpsMatchScalarAcrossTiersShapesThreads) {
  const std::vector<Tier> tiers = SupportedSimdTiers();
  ScopedMinParallelWork grain(1);  // force the threaded path on tiny inputs
  uint64_t seed = 1;
  for (const int m : {1, 5, 17, 33}) {
    for (const int k : {1, 8, 31}) {
      for (const int n : {1, 4, 9, 33}) {
        const Matrix a = RandomMatrix(m, k, seed++);
        const Matrix b = RandomMatrix(k, n, seed++);
        const Matrix bt = RandomMatrix(n, k, seed++);
        Matrix base_mm, base_ta, base_tb, base_sm, base_lsm;
        {
          ScopedTier scalar(Tier::kScalar);
          base_mm = MatMul(a, b);
          base_ta = MatMulTransA(a, RandomMatrix(m, n, seed));
          base_tb = MatMulTransB(a, bt);
          base_sm = RowSoftmax(a);
          base_lsm = RowLogSoftmax(a);
        }
        for (const Tier tier : tiers) {
          for (const int threads : {1, 4}) {
            ScopedTier t(tier);
            ScopedNumThreads nt(threads);
            EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base_mm))
                << "matmul " << m << "x" << k << "x" << n << " tier "
                << kernels::TierName(tier) << " threads " << threads;
            EXPECT_TRUE(BitwiseEqual(MatMulTransA(a, RandomMatrix(m, n, seed)),
                                     base_ta))
                << "matmul_ta " << m << "x" << k << "x" << n;
            EXPECT_TRUE(BitwiseEqual(MatMulTransB(a, bt), base_tb))
                << "matmul_tb " << m << "x" << k << "x" << n;
            EXPECT_TRUE(BitwiseEqual(RowSoftmax(a), base_sm))
                << "softmax " << m << "x" << k;
            EXPECT_TRUE(BitwiseEqual(RowLogSoftmax(a), base_lsm))
                << "log_softmax " << m << "x" << k;
          }
        }
      }
    }
  }
}

// Golden references, written out here and independent of TierOps: the
// naive loops that define each GEMM's arithmetic (see kernels/kernel_ops.h).
// Every element sums from +0.0 in ascending k; A*B and A^T*B skip zero
// a-entries; A^T*B sums fixed 2048-row chunks, then adds the chunk sums in
// order onto a zeroed output.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (int k = 0; k < a.cols(); ++k) {
        if (a(i, k) != 0.0) sum += a(i, k) * b(k, j);
      }
      c(i, j) = sum;
    }
  }
  return c;
}

Matrix NaiveMatMulTransA(const Matrix& a, const Matrix& b) {
  constexpr int kChunk = 2048;
  Matrix c(a.cols(), b.cols());
  for (int k0 = 0; k0 < a.rows(); k0 += kChunk) {
    const int k1 = std::min(a.rows(), k0 + kChunk);
    for (int i = 0; i < a.cols(); ++i) {
      for (int j = 0; j < b.cols(); ++j) {
        double sum = 0.0;
        for (int k = k0; k < k1; ++k) {
          if (a(k, i) != 0.0) sum += a(k, i) * b(k, j);
        }
        c(i, j) = c(i, j) + sum;
      }
    }
  }
  return c;
}

Matrix NaiveMatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double sum = 0.0;
      for (int k = 0; k < a.cols(); ++k) sum += a(i, k) * b(j, k);
      c(i, j) = sum;
    }
  }
  return c;
}

// Bitwise equality, except that any two NaNs match (a NaN's payload may
// depend on operand order, which the contract does not pin).
::testing::AssertionResult SameBitsOrBothNaN(const Matrix& got,
                                             const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs "
           << want.rows() << "x" << want.cols();
  }
  for (int64_t i = 0; i < got.size(); ++i) {
    const double g = got.data()[i];
    const double w = want.data()[i];
    if (std::isnan(g) && std::isnan(w)) continue;
    if (std::memcmp(&g, &w, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "flat index " << i << ": " << g << " vs " << w;
    }
  }
  return ::testing::AssertionSuccess();
}

// ~30% +0.0, ~10% -0.0 and every fifth row all zero, so both the zero-skip
// and the sign of zero sums are exercised.
Matrix ZeroHeavyMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const double u = rng.Uniform();
      double v = rng.Normal(0.0, 1.0);
      if (r % 5 == 4 || u < 0.3) {
        v = 0.0;
      } else if (u < 0.4) {
        v = -0.0;
      } else if (u < 0.45) {
        v *= 1e-200;  // the product of two such entries underflows to +-0.0
      }
      m(r, c) = v;
    }
  }
  return m;
}

std::vector<Tier> AllSupportedTiers() {
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  return tiers;
}

TEST(GoldenGemmTest, MatMulAndTransBMatchNaiveLoops) {
  ScopedMinParallelWork grain(1);
  uint64_t seed = 900;
  for (const int k : {5, 300}) {  // 300 > the widest k-panel (256)
    for (const int n : {1, 7, 8, 9, 31, 33, 127}) {
      const Matrix a = ZeroHeavyMatrix(13, k, seed++);
      const Matrix b = ZeroHeavyMatrix(k, n, seed++);
      const Matrix bt = ZeroHeavyMatrix(n, k, seed++);
      const Matrix want_mm = NaiveMatMul(a, b);
      const Matrix want_tb = NaiveMatMulTransB(a, bt);
      for (const Tier tier : AllSupportedTiers()) {
        for (const int threads : {1, 4}) {
          for (const int kpanel : {0, 64}) {  // 0 = the default panel
            ScopedTier t(tier);
            ScopedNumThreads nt(threads);
            ScopedForcedGemm forced(GemmChoice{kpanel});
            EXPECT_TRUE(SameBitsOrBothNaN(MatMul(a, b), want_mm))
                << "matmul k " << k << " n " << n << " tier "
                << kernels::TierName(tier) << " threads " << threads
                << " kpanel " << kpanel;
            EXPECT_TRUE(SameBitsOrBothNaN(MatMulTransB(a, bt), want_tb))
                << "matmul_tb k " << k << " n " << n << " tier "
                << kernels::TierName(tier) << " threads " << threads
                << " kpanel " << kpanel;
          }
        }
      }
    }
  }
}

TEST(GoldenGemmTest, TransAMatchesNaiveChunkedLoops) {
  ScopedMinParallelWork grain(1);
  uint64_t seed = 950;
  for (const int rows : {1, 2047, 2048, 2049, 4100}) {
    for (const int m : {1, 9, 33}) {
      for (const int n : {1, 7, 8, 33}) {
        const Matrix a = ZeroHeavyMatrix(rows, m, seed++);
        const Matrix b = ZeroHeavyMatrix(rows, n, seed++);
        const Matrix want = NaiveMatMulTransA(a, b);
        for (const Tier tier : AllSupportedTiers()) {
          for (const int threads : {1, 4}) {
            ScopedTier t(tier);
            ScopedNumThreads nt(threads);
            EXPECT_TRUE(SameBitsOrBothNaN(MatMulTransA(a, b), want))
                << "rows " << rows << " m " << m << " n " << n << " tier "
                << kernels::TierName(tier) << " threads " << threads;
          }
        }
      }
    }
  }
}

TEST(GoldenGemmTest, NonFiniteOppositeZeroFollowsTheSkipRule) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr int kZeroK = 3;
  for (const int n : {1, 7, 9, 33}) {
    // A*B: column kZeroK of A is +0.0/-0.0, row kZeroK of B is inf/NaN.
    Matrix a = ZeroHeavyMatrix(11, 12, 1000 + n);
    Matrix b = ZeroHeavyMatrix(12, n, 1100 + n);
    for (int i = 0; i < a.rows(); ++i) a(i, kZeroK) = i % 2 ? -0.0 : 0.0;
    for (int j = 0; j < n; ++j) b(kZeroK, j) = j % 2 ? nan : -inf;
    // A^T*B: row kZeroK of A is zero, row kZeroK of B is inf/NaN; 2100
    // rows put the bad row in the first of two chunks.
    Matrix ta = ZeroHeavyMatrix(2100, 10, 1200 + n);
    Matrix tb = ZeroHeavyMatrix(2100, n, 1300 + n);
    for (int i = 0; i < ta.cols(); ++i) ta(kZeroK, i) = i % 2 ? -0.0 : 0.0;
    for (int j = 0; j < n; ++j) tb(kZeroK, j) = j % 2 ? inf : nan;
    // A*B^T: column kZeroK of A is zero, column kZeroK of B^T is inf.
    Matrix bt(n, 12);
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < 12; ++k) bt(j, k) = k == kZeroK ? inf : 1.0;
    }
    const Matrix want_mm = NaiveMatMul(a, b);
    const Matrix want_ta = NaiveMatMulTransA(ta, tb);
    const Matrix want_tb = NaiveMatMulTransB(a, bt);
    for (const Tier tier : AllSupportedTiers()) {
      for (const int threads : {1, 4}) {
        ScopedTier t(tier);
        ScopedNumThreads nt(threads);
        const Matrix mm = MatMul(a, b);
        const Matrix mta = MatMulTransA(ta, tb);
        const Matrix mtb = MatMulTransB(a, bt);
        for (int64_t i = 0; i < mm.size(); ++i) {
          ASSERT_TRUE(std::isfinite(mm.data()[i]))
              << "matmul n " << n << " " << kernels::TierName(tier);
        }
        for (int64_t i = 0; i < mta.size(); ++i) {
          ASSERT_TRUE(std::isfinite(mta.data()[i]))
              << "matmul_ta n " << n << " " << kernels::TierName(tier);
        }
        for (int64_t i = 0; i < mtb.size(); ++i) {
          ASSERT_TRUE(std::isnan(mtb.data()[i]))
              << "matmul_tb n " << n << " " << kernels::TierName(tier);
        }
        EXPECT_TRUE(SameBitsOrBothNaN(mm, want_mm)) << kernels::TierName(tier);
        EXPECT_TRUE(SameBitsOrBothNaN(mta, want_ta)) << kernels::TierName(tier);
        EXPECT_TRUE(SameBitsOrBothNaN(mtb, want_tb)) << kernels::TierName(tier);
      }
    }
  }
}

TEST(BitwiseTest, GemmVariantSweepIsExact) {
  // The k-panel is the only GEMM variant. n = 127 runs every register block
  // width of every tier (64, 32, 16, 8, 4 and the tail) in one row.
  for (const int n : {23, 127}) {
    const Matrix a = RandomMatrix(37, 29, 101);
    const Matrix b = RandomMatrix(29, n, 102);
    Matrix base;
    {
      ScopedTier scalar(Tier::kScalar);
      base = MatMul(a, b);
    }
    std::vector<Tier> tiers = SupportedSimdTiers();
    tiers.push_back(Tier::kScalar);
    for (const Tier tier : tiers) {
      for (const int kpanel : {1, 8, 64, 128, 256}) {
        ScopedTier t(tier);
        ScopedForcedGemm forced(GemmChoice{kpanel});
        EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base))
            << kernels::TierName(tier) << " n " << n << " kpanel " << kpanel;
      }
    }
  }
}

TEST(BitwiseTest, TransposedGemmVariantSweepIsExact) {
  // A*B^T runs the A*B row kernel on B^T, so every forced k-panel must
  // reproduce the scalar result bit for bit; A^T*B has no variants but must
  // match at every tier and thread count.
  const Matrix a = RandomMatrix(31, 19, 201);   // k x m for TransA
  const Matrix b = RandomMatrix(31, 23, 202);   // k x n
  const Matrix c = RandomMatrix(17, 19, 203);   // m x k for TransB
  const Matrix d = RandomMatrix(29, 19, 204);   // n x k
  Matrix base_ta, base_tb;
  {
    ScopedTier scalar(Tier::kScalar);
    base_ta = MatMulTransA(a, b);
    base_tb = MatMulTransB(c, d);
  }
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  for (const Tier tier : tiers) {
    for (const int kpanel : {1, 8, 64}) {
      for (const int threads : {1, 4}) {
        ScopedTier t(tier);
        ScopedNumThreads nt(threads);
        ScopedForcedGemm forced(GemmChoice{kpanel});
        EXPECT_TRUE(BitwiseEqual(MatMulTransA(a, b), base_ta))
            << "trans_a " << kernels::TierName(tier) << " threads " << threads;
        EXPECT_TRUE(BitwiseEqual(MatMulTransB(c, d), base_tb))
            << "trans_b " << kernels::TierName(tier) << " kpanel " << kpanel
            << " threads " << threads;
      }
    }
  }
}

TEST(BitwiseTest, SpmmVariantSweepIsExact) {
  const SparseMatrix adj = RandomSparse(200, 150, 7);
  ScopedMinParallelWork grain(1);
  // A subset mixing zero-nnz rows, boundaries, and repeats.
  const std::vector<int> subset = {0, 3, 7, 7, 42, 150, 199};
  for (const int n : {1, 5, 16, 33}) {
    const Matrix x = RandomMatrix(150, n, 500 + n);
    Matrix base, base_rows;
    {
      ScopedTier scalar(Tier::kScalar);
      base = adj.Spmm(x);
      base_rows = adj.SpmmRows(subset, x);
    }
    std::vector<Tier> tiers = SupportedSimdTiers();
    tiers.push_back(Tier::kScalar);
    for (const Tier tier : tiers) {
      const TierOps& ops = kernels::OpsFor(tier);
      for (int bi = 0; bi < ops.num_spmm_cblocks; ++bi) {
        for (const bool nnz_split : {false, true}) {
          for (const int threads : {1, 4}) {
            ScopedTier t(tier);
            ScopedNumThreads nt(threads);
            ScopedForcedSpmm forced(
                SpmmChoice{ops.spmm_cblocks[bi], nnz_split});
            EXPECT_TRUE(BitwiseEqual(adj.Spmm(x), base))
                << kernels::TierName(tier) << " cblock "
                << ops.spmm_cblocks[bi] << " nnz_split " << nnz_split
                << " threads " << threads << " n " << n;
            EXPECT_TRUE(BitwiseEqual(adj.SpmmRows(subset, x), base_rows))
                << "rows subset, tier " << kernels::TierName(tier);
          }
        }
      }
    }
    // Subset rows must equal the corresponding rows of the full product.
    for (size_t i = 0; i < subset.size(); ++i) {
      for (int c = 0; c < n; ++c) {
        EXPECT_EQ(base_rows(static_cast<int>(i), c), base(subset[i], c));
      }
    }
  }
}

TEST(BitwiseTest, LinearReluForwardBackwardMatchesScalar) {
  const Matrix xm = RandomMatrix(19, 13, 301);
  const Matrix wm = RandomMatrix(13, 7, 302);
  const Matrix bm = RandomMatrix(1, 7, 303);
  auto run = [&](Matrix* y, Matrix* gx, Matrix* gw, Matrix* gb) {
    Var x = MakeParam(xm);
    Var w = MakeParam(wm);
    Var b = MakeParam(bm);
    Var out = LinearRelu(x, w, b);
    Backward(SumAll(out));
    *y = out->value;
    *gx = x->grad;
    *gw = w->grad;
    *gb = b->grad;
  };
  Matrix y0, gx0, gw0, gb0;
  {
    ScopedTier scalar(Tier::kScalar);
    run(&y0, &gx0, &gw0, &gb0);
  }
  for (const Tier tier : SupportedSimdTiers()) {
    ScopedTier t(tier);
    Matrix y, gx, gw, gb;
    run(&y, &gx, &gw, &gb);
    EXPECT_TRUE(BitwiseEqual(y, y0)) << kernels::TierName(tier);
    EXPECT_TRUE(BitwiseEqual(gx, gx0)) << kernels::TierName(tier);
    EXPECT_TRUE(BitwiseEqual(gw, gw0)) << kernels::TierName(tier);
    EXPECT_TRUE(BitwiseEqual(gb, gb0)) << kernels::TierName(tier);
  }
}

TEST(BitwiseTest, BiasReluRowHandlesNegativeZeroLikeScalar) {
  // -0.0 and true negatives must both map to +0.0 in every tier.
  const double in[7] = {-0.0, 0.0, -1.5, 2.5, -1e-300, 1e-300, -3.0};
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  for (const Tier tier : tiers) {
    const TierOps& ops = kernels::OpsFor(tier);
    double x[7];
    std::memcpy(x, in, sizeof(in));
    ops.bias_relu_row(x, nullptr, 7);
    for (int i = 0; i < 7; ++i) {
      const double expected = in[i] > 0.0 ? in[i] : 0.0;
      EXPECT_EQ(std::memcmp(&x[i], &expected, sizeof(double)), 0)
          << kernels::TierName(tier) << " index " << i;
      if (in[i] <= 0.0) {
        EXPECT_FALSE(std::signbit(x[i]))
            << kernels::TierName(tier) << " produced -0.0 at " << i;
      }
    }
  }
}

TEST(EdgeTest, SoftmaxOneColumnIsExactlyOne) {
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  const Matrix a = RandomMatrix(9, 1, 401);
  for (const Tier tier : tiers) {
    ScopedTier t(tier);
    const Matrix sm = RowSoftmax(a);
    const Matrix lsm = RowLogSoftmax(a);
    for (int r = 0; r < a.rows(); ++r) {
      EXPECT_EQ(sm(r, 0), 1.0) << kernels::TierName(tier);
      EXPECT_EQ(lsm(r, 0), 0.0) << kernels::TierName(tier);
    }
  }
}

TEST(EdgeTest, SoftmaxZeroColumnsDoesNotCrash) {
  const Matrix a(4, 0);
  const Matrix sm = RowSoftmax(a);
  EXPECT_EQ(sm.rows(), 4);
  EXPECT_EQ(sm.cols(), 0);
  const Matrix lsm = RowLogSoftmax(a);
  EXPECT_EQ(lsm.rows(), 4);
  EXPECT_EQ(lsm.cols(), 0);
}

TEST(EdgeTest, SpmmEmptySubsetAndZeroNnzRows) {
  // A matrix whose rows are all empty: the product is exactly zero.
  const SparseMatrix empty = SparseMatrix::FromCoo(6, 5, {});
  const Matrix x = RandomMatrix(5, 9, 402);
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  for (const Tier tier : tiers) {
    ScopedTier t(tier);
    const Matrix y = empty.Spmm(x);
    EXPECT_EQ(y.rows(), 6);
    for (int64_t i = 0; i < y.size(); ++i) EXPECT_EQ(y.data()[i], 0.0);
    // Empty row subset: zero-row result, no work, no crash.
    const Matrix yr = empty.SpmmRows({}, x);
    EXPECT_EQ(yr.rows(), 0);
    EXPECT_EQ(yr.cols(), 9);
  }
}

TEST(EdgeTest, GemmNarrowerThanRegisterBlock) {
  // Output width below every SIMD block width: only tail paths run.
  for (const int n : {1, 2, 3}) {
    const Matrix a = RandomMatrix(11, 10, 500 + n);
    const Matrix b = RandomMatrix(10, n, 600 + n);
    Matrix base;
    {
      ScopedTier scalar(Tier::kScalar);
      base = MatMul(a, b);
    }
    std::vector<Tier> tiers = SupportedSimdTiers();
    tiers.push_back(Tier::kScalar);
    for (const Tier tier : tiers) {
      ScopedTier t(tier);
      ScopedForcedGemm forced(GemmChoice{128});
      EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base))
          << kernels::TierName(tier) << " n " << n;
    }
  }
}

TEST(TuningTest, FirstUseBenchmarksThenCaches) {
  KernelTuner tuner;
  int bench_calls = 0;
  const std::vector<GemmChoice> candidates = {{64}, {128}, {256}};
  auto bench = [&](const GemmChoice& c) {
    ++bench_calls;
    return c.kpanel == 128 ? 1.0 : 2.0;  // make {128} the winner
  };
  const GemmChoice first = tuner.GetGemm("avx2:k31:n64:m4096", candidates,
                                         bench);
  EXPECT_EQ(first.kpanel, 128);
  EXPECT_EQ(bench_calls, 3);
  EXPECT_EQ(tuner.benchmark_runs(), 1);
  // Second call must hit the cache without re-benchmarking.
  const GemmChoice again = tuner.GetGemm(
      "avx2:k31:n64:m4096", candidates, [](const GemmChoice&) {
        ADD_FAILURE() << "cached entry re-benchmarked";
        return 0.0;
      });
  EXPECT_EQ(again.kpanel, 128);
  EXPECT_EQ(tuner.benchmark_runs(), 1);
}

TEST(TuningTest, ProfileRoundTripSkipsRebenchmark) {
  KernelTuner tuner;
  tuner.GetGemm("avx512:k64:n64:m4096", {{64}, {256}},
                [](const GemmChoice& c) { return c.kpanel == 256 ? 1.0 : 2.0; });
  tuner.GetSpmm("avx512:r4096:z16384:c64", {{8, false}, {16, true}},
                [](const SpmmChoice& c) { return c.nnz_split ? 1.0 : 2.0; });
  EXPECT_EQ(tuner.entries(), 2);
  EXPECT_EQ(tuner.benchmark_runs(), 2);

  const std::string profile = tuner.Serialize();
  EXPECT_EQ(profile.rfind("ahg-tuning 1\n", 0), 0u);

  KernelTuner reloaded;
  ASSERT_TRUE(reloaded.Deserialize(profile));
  EXPECT_EQ(reloaded.entries(), 2);
  EXPECT_EQ(reloaded.benchmark_runs(), 0);  // loading is not benchmarking
  GemmChoice g;
  ASSERT_TRUE(reloaded.LookupGemm("avx512:k64:n64:m4096", &g));
  EXPECT_EQ(g.kpanel, 256);
  SpmmChoice s;
  ASSERT_TRUE(reloaded.LookupSpmm("avx512:r4096:z16384:c64", &s));
  EXPECT_EQ(s.cblock, 16);
  EXPECT_TRUE(s.nnz_split);
  // The reloaded tuner serves the same variant with no benchmark callback
  // invocation at all.
  const GemmChoice served = reloaded.GetGemm(
      "avx512:k64:n64:m4096", {{64}, {256}}, [](const GemmChoice&) {
        ADD_FAILURE() << "profile entry re-benchmarked after reload";
        return 0.0;
      });
  EXPECT_EQ(served.kpanel, 256);
  EXPECT_EQ(reloaded.benchmark_runs(), 0);
}

TEST(TuningTest, SaveLoadFileRoundTrip) {
  const char* base = std::getenv("TMPDIR");
  const std::string path =
      std::string(base ? base : "/tmp") + "/ahg_kernels_test_tuning.ahgt";
  KernelTuner tuner;
  tuner.PutGemm("scalar:k8:n8:m64", GemmChoice{64});
  tuner.PutSpmm("scalar:r64:z256:c8", SpmmChoice{8, true});
  ASSERT_TRUE(tuner.SaveFile(path));
  KernelTuner loaded;
  ASSERT_TRUE(loaded.LoadFile(path));
  GemmChoice g;
  ASSERT_TRUE(loaded.LookupGemm("scalar:k8:n8:m64", &g));
  EXPECT_EQ(g.kpanel, 64);
  SpmmChoice s;
  ASSERT_TRUE(loaded.LookupSpmm("scalar:r64:z256:c8", &s));
  EXPECT_TRUE(s.nnz_split);
  EXPECT_FALSE(loaded.LoadFile(path + ".does_not_exist"));
  std::remove(path.c_str());
}

TEST(TuningTest, DisabledAutotunePicksFirstCandidateWithoutBenchmark) {
  KernelTuner tuner;
  kernels::SetAutotuneEnabled(false);
  const GemmChoice c = tuner.GetGemm(
      "scalar:k4:n4:m16", {{64}, {256}}, [](const GemmChoice&) {
        ADD_FAILURE() << "benchmarked with autotune disabled";
        return 0.0;
      });
  kernels::SetAutotuneEnabled(true);
  EXPECT_EQ(c.kpanel, 64);
  EXPECT_EQ(tuner.benchmark_runs(), 0);
}

TEST(TuningTest, MalformedProfileRejectedOrSkipped) {
  KernelTuner tuner;
  EXPECT_FALSE(tuner.Deserialize("not-a-profile\n"));
  EXPECT_FALSE(tuner.Deserialize(""));
  // Bad rows and unknown kinds are skipped; good rows still load. Numbers
  // are parsed whole: an empty field, a leading space, a trailing suffix or
  // a value beyond int range is a bad row, not 0, a truncated number or a
  // wrapped int.
  ASSERT_TRUE(tuner.Deserialize(
      "ahg-tuning 1\n"
      "gemm\tscalar:k2:n2:m2\t4\t64\n"
      "gemm\tbroken-row\n"
      "frobnicate\tx\t1\t2\n"
      "spmm\tscalar:r2:z2:c2\tnot-a-number\t1\n"
      "gemm\tscalar:k4:n4:m4\t\t64\n"
      "gemm\tscalar:k8:n8:m8\t 4\t64\n"
      "gemm_ta\tscalar:k8:n8:m8\t4\t64x\n"
      "spmm\tscalar:r4:z4:c4\t4294967300\t1\n"));
  EXPECT_EQ(tuner.entries(), 1);
}

TEST(TuningTest, OldProfilesLoadWithObsoleteRowsSkipped) {
  // Profiles written when A^T*B and A*B^T had their own tile-width tables
  // and gemm rows carried a register-block width still load: the transposed
  // rows are skipped like any unknown kind, and a gemm row's width field is
  // ignored (and written back as 0).
  KernelTuner tuner;
  ASSERT_TRUE(tuner.Deserialize(
      "ahg-tuning 1\n"
      "gemm\tavx512:k128:n32:m4096\t16\t256\n"
      "gemm_ta\tavx512:k128:n32:m4096\t0\t0\n"
      "gemm_tb\tavx512:k32:n128:m4096\t64\t0\n"
      "spmm\tavx512:r16384:z131072:c24\t16\t1\n"));
  EXPECT_EQ(tuner.entries(), 2);
  GemmChoice g;
  ASSERT_TRUE(tuner.LookupGemm("avx512:k128:n32:m4096", &g));
  EXPECT_EQ(g.kpanel, 256);
  EXPECT_FALSE(tuner.LookupGemm("avx512:k32:n128:m4096", &g));
  const std::string saved = tuner.Serialize();
  EXPECT_EQ(saved.find("gemm_t"), std::string::npos);
  EXPECT_NE(saved.find("gemm\tavx512:k128:n32:m4096\t0\t256\n"),
            std::string::npos);
}

}  // namespace
}  // namespace ahg
