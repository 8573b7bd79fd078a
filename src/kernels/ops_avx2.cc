// AVX2 tier: 4-lane double vectors, multiply and add kept separate (no FMA
// — this TU is compiled with -mavx2 -ffp-contract=off and without -mfma),
// scalar tails identical to the reference. Vector lanes are independent
// output elements, so per-element accumulation order matches ops_scalar.cc
// exactly and results are bitwise identical to it.
#include "kernels/kernel_ops.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace ahg::kernels {
namespace {

constexpr int kGemmJBlocks[] = {4, 8, 16, 32};
constexpr int kSpmmCBlocks[] = {4, 8, 16, 32};

// NV = number of 4-wide accumulators held across the k panel.
template <int NV>
inline void GemmPanelBlock(const double* arow, int kc, const double* b,
                           int64_t ldb, double* crow) {
  __m256d acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_pd(crow + 4 * v);
  for (int k = 0; k < kc; ++k) {
    const double aik = arow[k];
    if (aik == 0.0) continue;
    const __m256d av = _mm256_set1_pd(aik);
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_add_pd(acc[v],
                             _mm256_mul_pd(av, _mm256_loadu_pd(brow + 4 * v)));
    }
  }
  for (int v = 0; v < NV; ++v) _mm256_storeu_pd(crow + 4 * v, acc[v]);
}

void GemmPanelAvx2(int jblock, const double* arow, int kc, const double* b,
                   int64_t ldb, int n, double* crow) {
  if (jblock == 0) jblock = 16;
  int j = 0;
  switch (jblock) {
    case 32:
      for (; j + 32 <= n; j += 32) GemmPanelBlock<8>(arow, kc, b + j, ldb, crow + j);
      [[fallthrough]];
    case 16:
      for (; j + 16 <= n; j += 16) GemmPanelBlock<4>(arow, kc, b + j, ldb, crow + j);
      [[fallthrough]];
    case 8:
      for (; j + 8 <= n; j += 8) GemmPanelBlock<2>(arow, kc, b + j, ldb, crow + j);
      [[fallthrough]];
    default:
      for (; j + 4 <= n; j += 4) GemmPanelBlock<1>(arow, kc, b + j, ldb, crow + j);
  }
  // Scalar remainder: k outer, j inner, zero-skip — the reference tail.
  if (j < n) {
    for (int k = 0; k < kc; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b + static_cast<int64_t>(k) * ldb;
      for (int jj = j; jj < n; ++jj) crow[jj] += aik * brow[jj];
    }
  }
}

template <int NV>
inline void SpmmRowBlock(const double* values, const int* cols, int64_t nnz,
                         const double* x, int64_t ldx, double* yrow) {
  __m256d acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
  for (int64_t e = 0; e < nnz; ++e) {
    const __m256d ve = _mm256_set1_pd(values[e]);
    const double* xrow = x + static_cast<int64_t>(cols[e]) * ldx;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_add_pd(acc[v],
                             _mm256_mul_pd(ve, _mm256_loadu_pd(xrow + 4 * v)));
    }
  }
  for (int v = 0; v < NV; ++v) _mm256_storeu_pd(yrow + 4 * v, acc[v]);
}

void SpmmRowAvx2(int cblock, const double* values, const int* cols,
                 int64_t nnz, const double* x, int64_t ldx, int n,
                 double* yrow) {
  if (cblock == 0) cblock = 16;
  int c = 0;
  switch (cblock) {
    case 32:
      for (; c + 32 <= n; c += 32) SpmmRowBlock<8>(values, cols, nnz, x + c, ldx, yrow + c);
      [[fallthrough]];
    case 16:
      for (; c + 16 <= n; c += 16) SpmmRowBlock<4>(values, cols, nnz, x + c, ldx, yrow + c);
      [[fallthrough]];
    case 8:
      for (; c + 8 <= n; c += 8) SpmmRowBlock<2>(values, cols, nnz, x + c, ldx, yrow + c);
      [[fallthrough]];
    default:
      for (; c + 4 <= n; c += 4) SpmmRowBlock<1>(values, cols, nnz, x + c, ldx, yrow + c);
  }
  for (; c < n; ++c) {
    double acc = 0.0;
    for (int64_t e = 0; e < nnz; ++e) {
      acc += values[e] * x[static_cast<int64_t>(cols[e]) * ldx + c];
    }
    yrow[c] = acc;
  }
}

void Dot4Avx2(const double* arow, const double* b0, const double* b1,
              const double* b2, const double* b3, int n, double* out) {
  __m256d acc = _mm256_setzero_pd();
  int k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d r0 = _mm256_loadu_pd(b0 + k);
    const __m256d r1 = _mm256_loadu_pd(b1 + k);
    const __m256d r2 = _mm256_loadu_pd(b2 + k);
    const __m256d r3 = _mm256_loadu_pd(b3 + k);
    // 4x4 transpose: ck = {b0[k], b1[k], b2[k], b3[k]} etc., so lane l
    // accumulates dot(a, b_l) one k at a time in ascending order.
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    const __m256d c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256d c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(arow[k]), c0));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(arow[k + 1]), c1));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(arow[k + 2]), c2));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(arow[k + 3]), c3));
  }
  _mm256_storeu_pd(out, acc);
  for (; k < n; ++k) {
    const double av = arow[k];
    out[0] += av * b0[k];
    out[1] += av * b1[k];
    out[2] += av * b2[k];
    out[3] += av * b3[k];
  }
}

double RowMaxAvx2(const double* x, int n) {
  int c;
  double m;
  if (n >= 4) {
    __m256d vm = _mm256_loadu_pd(x);
    for (c = 4; c + 4 <= n; c += 4) {
      vm = _mm256_max_pd(vm, _mm256_loadu_pd(x + c));
    }
    const __m128d lo = _mm256_castpd256_pd128(vm);
    const __m128d hi = _mm256_extractf128_pd(vm, 1);
    const __m128d m2 = _mm_max_pd(lo, hi);
    const __m128d m1 = _mm_max_sd(m2, _mm_unpackhi_pd(m2, m2));
    m = _mm_cvtsd_f64(m1);
  } else {
    m = x[0];
    c = 1;
  }
  for (; c < n; ++c) m = std::max(m, x[c]);
  return m;
}

void DivInplaceAvx2(double* x, int n, double denom) {
  const __m256d vd = _mm256_set1_pd(denom);
  int c = 0;
  for (; c + 4 <= n; c += 4) {
    _mm256_storeu_pd(x + c, _mm256_div_pd(_mm256_loadu_pd(x + c), vd));
  }
  for (; c < n; ++c) x[c] /= denom;
}

void SubScalarAvx2(const double* x, int n, double s, double* out) {
  const __m256d vs = _mm256_set1_pd(s);
  int c = 0;
  for (; c + 4 <= n; c += 4) {
    _mm256_storeu_pd(out + c, _mm256_sub_pd(_mm256_loadu_pd(x + c), vs));
  }
  for (; c < n; ++c) out[c] = x[c] - s;
}

void BiasReluRowAvx2(double* x, const double* bias, int n) {
  // max_pd(v, +0.0) returns +0.0 when v is -0.0, 0.0, or NaN — exactly the
  // scalar `v > 0 ? v : 0.0`.
  const __m256d zero = _mm256_setzero_pd();
  int c = 0;
  if (bias != nullptr) {
    for (; c + 4 <= n; c += 4) {
      const __m256d v =
          _mm256_add_pd(_mm256_loadu_pd(x + c), _mm256_loadu_pd(bias + c));
      _mm256_storeu_pd(x + c, _mm256_max_pd(v, zero));
    }
    for (; c < n; ++c) {
      const double v = x[c] + bias[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  } else {
    for (; c + 4 <= n; c += 4) {
      _mm256_storeu_pd(x + c, _mm256_max_pd(_mm256_loadu_pd(x + c), zero));
    }
    for (; c < n; ++c) {
      const double v = x[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  }
}

void AddInplaceAvx2(double* x, const double* y, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        x + i, _mm256_add_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) x[i] += y[i];
}

void AxpyInplaceAvx2(double* x, double alpha, const double* y, int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(y + i));
    _mm256_storeu_pd(x + i, _mm256_add_pd(_mm256_loadu_pd(x + i), prod));
  }
  for (; i < n; ++i) x[i] += alpha * y[i];
}

void ScaleInplaceAvx2(double* x, double alpha, int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void CWiseMulAvx2(const double* a, const double* b, int64_t n, double* out) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

constexpr TierOps kAvx2OpsTable = {
    Tier::kAvx2,
    kGemmJBlocks,
    static_cast<int>(sizeof(kGemmJBlocks) / sizeof(int)),
    kSpmmCBlocks,
    static_cast<int>(sizeof(kSpmmCBlocks) / sizeof(int)),
    GemmPanelAvx2,
    SpmmRowAvx2,
    Dot4Avx2,
    RowMaxAvx2,
    DivInplaceAvx2,
    SubScalarAvx2,
    BiasReluRowAvx2,
    AddInplaceAvx2,
    AxpyInplaceAvx2,
    ScaleInplaceAvx2,
    CWiseMulAvx2,
};

}  // namespace

const TierOps* Avx2Ops() { return &kAvx2OpsTable; }

}  // namespace ahg::kernels

#else  // !defined(__AVX2__)

namespace ahg::kernels {
const TierOps* Avx2Ops() { return nullptr; }
}  // namespace ahg::kernels

#endif
