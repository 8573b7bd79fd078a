// Kernel backend tests: 64-byte allocation alignment on every Matrix path,
// the bitwise-identity matrix across dispatch tiers x kernel variants x odd
// shapes x thread counts, odd-shape edge cases, and tuning-profile
// round-trips (persist -> reload -> same variant, no re-benchmark).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
    ScopedMemPlane plane(/*pooling=*/true, /*fusion=*/false);
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

TEST(BitwiseTest, GemmVariantSweepIsExact) {
  const Matrix a = RandomMatrix(37, 29, 101);
  const Matrix b = RandomMatrix(29, 23, 102);
  Matrix base;
  {
    ScopedTier scalar(Tier::kScalar);
    base = MatMul(a, b);
  }
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  for (const Tier tier : tiers) {
    const TierOps& ops = kernels::OpsFor(tier);
    for (int bi = 0; bi < ops.num_gemm_jblocks; ++bi) {
      for (const int kpanel : {64, 128, 256}) {
        ScopedTier t(tier);
        ScopedForcedGemm forced(GemmChoice{ops.gemm_jblocks[bi], kpanel});
        EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base))
            << kernels::TierName(tier) << " jblock " << ops.gemm_jblocks[bi]
            << " kpanel " << kpanel;
      }
    }
  }
}

TEST(BitwiseTest, TransposedGemmVariantSweepIsExact) {
  // Tiling the TransA/TransB passes regroups which output entries a pass
  // touches but never the per-element accumulation order, so every forced
  // tile width must reproduce the scalar untiled result bit for bit.
  const Matrix a = RandomMatrix(31, 19, 201);   // k x m for TransA
  const Matrix b = RandomMatrix(31, 23, 202);   // k x n
  const Matrix c = RandomMatrix(17, 19, 203);   // m x k for TransB
  const Matrix d = RandomMatrix(29, 19, 204);   // n x k
  Matrix base_ta, base_tb;
  {
    ScopedTier scalar(Tier::kScalar);
    kernels::ScopedForcedGemmTransA fa(GemmChoice{0, 0});
    kernels::ScopedForcedGemmTransB fb(GemmChoice{0, 0});
    base_ta = MatMulTransA(a, b);
    base_tb = MatMulTransB(c, d);
  }
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  for (const Tier tier : tiers) {
    for (const int tile : {0, 4, 16, 64}) {
      for (const int threads : {1, 4}) {
        ScopedTier t(tier);
        ScopedNumThreads nt(threads);
        kernels::ScopedForcedGemmTransA fa(GemmChoice{tile, 0});
        kernels::ScopedForcedGemmTransB fb(GemmChoice{tile, 0});
        EXPECT_TRUE(BitwiseEqual(MatMulTransA(a, b), base_ta))
            << "trans_a " << kernels::TierName(tier) << " tile " << tile
            << " threads " << threads;
        EXPECT_TRUE(BitwiseEqual(MatMulTransB(c, d), base_tb))
            << "trans_b " << kernels::TierName(tier) << " tile " << tile
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
      ScopedForcedGemm forced(GemmChoice{8, 128});
      EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base))
          << kernels::TierName(tier) << " n " << n;
    }
  }
}

TEST(TuningTest, FirstUseBenchmarksThenCaches) {
  KernelTuner tuner;
  int bench_calls = 0;
  const std::vector<GemmChoice> candidates = {
      {4, 64}, {8, 128}, {16, 256}};
  auto bench = [&](const GemmChoice& c) {
    ++bench_calls;
    return c.jblock == 8 ? 1.0 : 2.0;  // make {8,128} the winner
  };
  const GemmChoice first = tuner.GetGemm("avx2:k31:n64:m4096", candidates,
                                         bench);
  EXPECT_EQ(first.jblock, 8);
  EXPECT_EQ(first.kpanel, 128);
  EXPECT_EQ(bench_calls, 3);
  EXPECT_EQ(tuner.benchmark_runs(), 1);
  // Second call must hit the cache without re-benchmarking.
  const GemmChoice again = tuner.GetGemm(
      "avx2:k31:n64:m4096", candidates, [](const GemmChoice&) {
        ADD_FAILURE() << "cached entry re-benchmarked";
        return 0.0;
      });
  EXPECT_EQ(again.jblock, 8);
  EXPECT_EQ(tuner.benchmark_runs(), 1);
}

TEST(TuningTest, ProfileRoundTripSkipsRebenchmark) {
  KernelTuner tuner;
  tuner.GetGemm("avx512:k64:n64:m4096", {{8, 64}, {32, 256}},
                [](const GemmChoice& c) { return c.jblock == 32 ? 1.0 : 2.0; });
  tuner.GetSpmm("avx512:r4096:z16384:c64", {{8, false}, {16, true}},
                [](const SpmmChoice& c) { return c.nnz_split ? 1.0 : 2.0; });
  tuner.GetGemmTransA("avx512:ta:k64:n64:m4096", {{0, 0}, {16, 0}},
                      [](const GemmChoice& c) { return c.jblock == 16 ? 1.0 : 2.0; });
  tuner.GetGemmTransB("avx512:tb:k64:n64:m4096", {{0, 0}, {32, 0}},
                      [](const GemmChoice& c) { return c.jblock == 0 ? 1.0 : 2.0; });
  EXPECT_EQ(tuner.entries(), 4);
  EXPECT_EQ(tuner.benchmark_runs(), 4);

  const std::string profile = tuner.Serialize();
  EXPECT_EQ(profile.rfind("ahg-tuning 1\n", 0), 0u);

  KernelTuner reloaded;
  ASSERT_TRUE(reloaded.Deserialize(profile));
  EXPECT_EQ(reloaded.entries(), 4);
  EXPECT_EQ(reloaded.benchmark_runs(), 0);  // loading is not benchmarking
  GemmChoice g;
  ASSERT_TRUE(reloaded.LookupGemm("avx512:k64:n64:m4096", &g));
  EXPECT_EQ(g.jblock, 32);
  EXPECT_EQ(g.kpanel, 256);
  SpmmChoice s;
  ASSERT_TRUE(reloaded.LookupSpmm("avx512:r4096:z16384:c64", &s));
  EXPECT_EQ(s.cblock, 16);
  EXPECT_TRUE(s.nnz_split);
  GemmChoice ta;
  ASSERT_TRUE(reloaded.LookupGemmTransA("avx512:ta:k64:n64:m4096", &ta));
  EXPECT_EQ(ta.jblock, 16);
  GemmChoice tb;
  ASSERT_TRUE(reloaded.LookupGemmTransB("avx512:tb:k64:n64:m4096", &tb));
  EXPECT_EQ(tb.jblock, 0);
  // The transposed kinds live in separate tables: a gemm_ta key must not
  // answer a plain gemm lookup.
  EXPECT_FALSE(reloaded.LookupGemm("avx512:ta:k64:n64:m4096", &g));
  // The reloaded tuner serves the same variant with no benchmark callback
  // invocation at all.
  const GemmChoice served = reloaded.GetGemm(
      "avx512:k64:n64:m4096", {{8, 64}, {32, 256}}, [](const GemmChoice&) {
        ADD_FAILURE() << "profile entry re-benchmarked after reload";
        return 0.0;
      });
  EXPECT_EQ(served.jblock, 32);
  EXPECT_EQ(reloaded.benchmark_runs(), 0);
}

TEST(TuningTest, SaveLoadFileRoundTrip) {
  const char* base = std::getenv("TMPDIR");
  const std::string path =
      std::string(base ? base : "/tmp") + "/ahg_kernels_test_tuning.ahgt";
  KernelTuner tuner;
  tuner.PutGemm("scalar:k8:n8:m64", GemmChoice{4, 64});
  tuner.PutSpmm("scalar:r64:z256:c8", SpmmChoice{8, true});
  tuner.PutGemmTransA("scalar:ta:k8:n8:m64", GemmChoice{8, 0});
  tuner.PutGemmTransB("scalar:tb:k8:n8:m64", GemmChoice{16, 0});
  ASSERT_TRUE(tuner.SaveFile(path));
  KernelTuner loaded;
  ASSERT_TRUE(loaded.LoadFile(path));
  GemmChoice g;
  ASSERT_TRUE(loaded.LookupGemm("scalar:k8:n8:m64", &g));
  EXPECT_EQ(g.jblock, 4);
  SpmmChoice s;
  ASSERT_TRUE(loaded.LookupSpmm("scalar:r64:z256:c8", &s));
  EXPECT_TRUE(s.nnz_split);
  GemmChoice ta;
  ASSERT_TRUE(loaded.LookupGemmTransA("scalar:ta:k8:n8:m64", &ta));
  EXPECT_EQ(ta.jblock, 8);
  GemmChoice tb;
  ASSERT_TRUE(loaded.LookupGemmTransB("scalar:tb:k8:n8:m64", &tb));
  EXPECT_EQ(tb.jblock, 16);
  EXPECT_FALSE(loaded.LoadFile(path + ".does_not_exist"));
  std::remove(path.c_str());
}

TEST(TuningTest, DisabledAutotunePicksFirstCandidateWithoutBenchmark) {
  KernelTuner tuner;
  kernels::SetAutotuneEnabled(false);
  const GemmChoice c = tuner.GetGemm(
      "scalar:k4:n4:m16", {{1, 64}, {8, 256}}, [](const GemmChoice&) {
        ADD_FAILURE() << "benchmarked with autotune disabled";
        return 0.0;
      });
  kernels::SetAutotuneEnabled(true);
  EXPECT_EQ(c.jblock, 1);
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

}  // namespace
}  // namespace ahg
