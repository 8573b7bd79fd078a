// AVX-512 tier: 8-lane double vectors (zmm), multiply and add kept separate
// (no FMA — compiled with -ffp-contract=off, no fmadd intrinsics), scalar
// tails identical to the reference. Requires AVX-512 F+VL+DQ at runtime
// (checked by dispatch); the 4-lane remainder blocks use VL-encoded ymm ops.
#include "kernels/kernel_ops.h"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace ahg::kernels {
namespace {

constexpr int kGemmJBlocks[] = {8, 16, 32, 64};
constexpr int kSpmmCBlocks[] = {8, 16, 32, 64};

// NV = number of 8-wide accumulators held across the k panel.
template <int NV>
inline void GemmPanelBlock(const double* arow, int kc, const double* b,
                           int64_t ldb, double* crow) {
  __m512d acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm512_loadu_pd(crow + 8 * v);
  for (int k = 0; k < kc; ++k) {
    const double aik = arow[k];
    if (aik == 0.0) continue;
    const __m512d av = _mm512_set1_pd(aik);
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm512_add_pd(acc[v],
                             _mm512_mul_pd(av, _mm512_loadu_pd(brow + 8 * v)));
    }
  }
  for (int v = 0; v < NV; ++v) _mm512_storeu_pd(crow + 8 * v, acc[v]);
}

inline void GemmPanelBlock4(const double* arow, int kc, const double* b,
                            int64_t ldb, double* crow) {
  __m256d acc = _mm256_loadu_pd(crow);
  for (int k = 0; k < kc; ++k) {
    const double aik = arow[k];
    if (aik == 0.0) continue;
    const __m256d av = _mm256_set1_pd(aik);
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    acc = _mm256_add_pd(acc, _mm256_mul_pd(av, _mm256_loadu_pd(brow)));
  }
  _mm256_storeu_pd(crow, acc);
}

void GemmPanelAvx512(int jblock, const double* arow, int kc, const double* b,
                     int64_t ldb, int n, double* crow) {
  if (jblock == 0) jblock = 32;
  int j = 0;
  switch (jblock) {
    case 64:
      for (; j + 64 <= n; j += 64) GemmPanelBlock<8>(arow, kc, b + j, ldb, crow + j);
      [[fallthrough]];
    case 32:
      for (; j + 32 <= n; j += 32) GemmPanelBlock<4>(arow, kc, b + j, ldb, crow + j);
      [[fallthrough]];
    case 16:
      for (; j + 16 <= n; j += 16) GemmPanelBlock<2>(arow, kc, b + j, ldb, crow + j);
      [[fallthrough]];
    default:
      for (; j + 8 <= n; j += 8) GemmPanelBlock<1>(arow, kc, b + j, ldb, crow + j);
  }
  for (; j + 4 <= n; j += 4) GemmPanelBlock4(arow, kc, b + j, ldb, crow + j);
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
  __m512d acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm512_setzero_pd();
  for (int64_t e = 0; e < nnz; ++e) {
    const __m512d ve = _mm512_set1_pd(values[e]);
    const double* xrow = x + static_cast<int64_t>(cols[e]) * ldx;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm512_add_pd(acc[v],
                             _mm512_mul_pd(ve, _mm512_loadu_pd(xrow + 8 * v)));
    }
  }
  for (int v = 0; v < NV; ++v) _mm512_storeu_pd(yrow + 8 * v, acc[v]);
}

inline void SpmmRowBlock4(const double* values, const int* cols, int64_t nnz,
                          const double* x, int64_t ldx, double* yrow) {
  __m256d acc = _mm256_setzero_pd();
  for (int64_t e = 0; e < nnz; ++e) {
    const __m256d ve = _mm256_set1_pd(values[e]);
    const double* xrow = x + static_cast<int64_t>(cols[e]) * ldx;
    acc = _mm256_add_pd(acc, _mm256_mul_pd(ve, _mm256_loadu_pd(xrow)));
  }
  _mm256_storeu_pd(yrow, acc);
}

void SpmmRowAvx512(int cblock, const double* values, const int* cols,
                   int64_t nnz, const double* x, int64_t ldx, int n,
                   double* yrow) {
  if (cblock == 0) cblock = 32;
  int c = 0;
  switch (cblock) {
    case 64:
      for (; c + 64 <= n; c += 64) SpmmRowBlock<8>(values, cols, nnz, x + c, ldx, yrow + c);
      [[fallthrough]];
    case 32:
      for (; c + 32 <= n; c += 32) SpmmRowBlock<4>(values, cols, nnz, x + c, ldx, yrow + c);
      [[fallthrough]];
    case 16:
      for (; c + 16 <= n; c += 16) SpmmRowBlock<2>(values, cols, nnz, x + c, ldx, yrow + c);
      [[fallthrough]];
    default:
      for (; c + 8 <= n; c += 8) SpmmRowBlock<1>(values, cols, nnz, x + c, ldx, yrow + c);
  }
  for (; c + 4 <= n; c += 4) SpmmRowBlock4(values, cols, nnz, x + c, ldx, yrow + c);
  for (; c < n; ++c) {
    double acc = 0.0;
    for (int64_t e = 0; e < nnz; ++e) {
      acc += values[e] * x[static_cast<int64_t>(cols[e]) * ldx + c];
    }
    yrow[c] = acc;
  }
}

// Same 4x4-transpose dot block as the AVX2 tier (VL-encoded); an 8-row zmm
// transpose buys little for the k-dot shape, so the 4-wide form is kept.
void Dot4Avx512(const double* arow, const double* b0, const double* b1,
                const double* b2, const double* b3, int n, double* out) {
  __m256d acc = _mm256_setzero_pd();
  int k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d r0 = _mm256_loadu_pd(b0 + k);
    const __m256d r1 = _mm256_loadu_pd(b1 + k);
    const __m256d r2 = _mm256_loadu_pd(b2 + k);
    const __m256d r3 = _mm256_loadu_pd(b3 + k);
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

double RowMaxAvx512(const double* x, int n) {
  int c;
  double m;
  if (n >= 8) {
    __m512d vm = _mm512_loadu_pd(x);
    for (c = 8; c + 8 <= n; c += 8) {
      vm = _mm512_max_pd(vm, _mm512_loadu_pd(x + c));
    }
    m = _mm512_reduce_max_pd(vm);
  } else {
    m = x[0];
    c = 1;
  }
  for (; c < n; ++c) m = std::max(m, x[c]);
  return m;
}

void DivInplaceAvx512(double* x, int n, double denom) {
  const __m512d vd = _mm512_set1_pd(denom);
  int c = 0;
  for (; c + 8 <= n; c += 8) {
    _mm512_storeu_pd(x + c, _mm512_div_pd(_mm512_loadu_pd(x + c), vd));
  }
  for (; c < n; ++c) x[c] /= denom;
}

void SubScalarAvx512(const double* x, int n, double s, double* out) {
  const __m512d vs = _mm512_set1_pd(s);
  int c = 0;
  for (; c + 8 <= n; c += 8) {
    _mm512_storeu_pd(out + c, _mm512_sub_pd(_mm512_loadu_pd(x + c), vs));
  }
  for (; c < n; ++c) out[c] = x[c] - s;
}

void BiasReluRowAvx512(double* x, const double* bias, int n) {
  const __m512d zero = _mm512_setzero_pd();
  int c = 0;
  if (bias != nullptr) {
    for (; c + 8 <= n; c += 8) {
      const __m512d v =
          _mm512_add_pd(_mm512_loadu_pd(x + c), _mm512_loadu_pd(bias + c));
      _mm512_storeu_pd(x + c, _mm512_max_pd(v, zero));
    }
    for (; c < n; ++c) {
      const double v = x[c] + bias[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  } else {
    for (; c + 8 <= n; c += 8) {
      _mm512_storeu_pd(x + c, _mm512_max_pd(_mm512_loadu_pd(x + c), zero));
    }
    for (; c < n; ++c) {
      const double v = x[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  }
}

void AddInplaceAvx512(double* x, const double* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        x + i, _mm512_add_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  for (; i < n; ++i) x[i] += y[i];
}

void AxpyInplaceAvx512(double* x, double alpha, const double* y, int64_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d prod = _mm512_mul_pd(va, _mm512_loadu_pd(y + i));
    _mm512_storeu_pd(x + i, _mm512_add_pd(_mm512_loadu_pd(x + i), prod));
  }
  for (; i < n; ++i) x[i] += alpha * y[i];
}

void ScaleInplaceAvx512(double* x, double alpha, int64_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(_mm512_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void CWiseMulAvx512(const double* a, const double* b, int64_t n, double* out) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        out + i, _mm512_mul_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

constexpr TierOps kAvx512OpsTable = {
    Tier::kAvx512,
    kGemmJBlocks,
    static_cast<int>(sizeof(kGemmJBlocks) / sizeof(int)),
    kSpmmCBlocks,
    static_cast<int>(sizeof(kSpmmCBlocks) / sizeof(int)),
    GemmPanelAvx512,
    SpmmRowAvx512,
    Dot4Avx512,
    RowMaxAvx512,
    DivInplaceAvx512,
    SubScalarAvx512,
    BiasReluRowAvx512,
    AddInplaceAvx512,
    AxpyInplaceAvx512,
    ScaleInplaceAvx512,
    CWiseMulAvx512,
};

}  // namespace

const TierOps* Avx512Ops() { return &kAvx512OpsTable; }

}  // namespace ahg::kernels

#else  // no AVX-512 build support

namespace ahg::kernels {
const TierOps* Avx512Ops() { return nullptr; }
}  // namespace ahg::kernels

#endif
