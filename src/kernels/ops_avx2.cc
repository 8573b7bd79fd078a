// AVX2 tier: 4-lane double vectors, multiply and add kept separate (no FMA
// — this TU is compiled with -mavx2 -ffp-contract=off and without -mfma),
// masked or scalar tails identical to the reference. Vector lanes are
// independent output elements, so per-element accumulation order matches
// ops_scalar.cc exactly and results are bitwise identical to it.
#include "kernels/kernel_ops.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace ahg::kernels {
namespace {

constexpr int kSpmmCBlocks[] = {4, 8, 16, 32};

// All-ones in the first r of 4 int32 lanes: load kLaneMask + 4 - r.
constexpr int32_t kLaneMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

inline __m128i FirstLanes(int r) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(kLaneMask + 4 - r));
}

// The same mask for the first r of 4 double lanes.
inline __m256i TailMask(int r) { return _mm256_cvtepi32_epi64(FirstLanes(r)); }

// NV = number of 4-wide accumulators held across the listed k's.
template <int NV, bool kIndexed>
inline void GemmRowBlock(const double* arow, const int* kidx, int cnt,
                         const double* b, int64_t ldb, double* crow) {
  __m256d acc[NV];
  #pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_pd(crow + 4 * v);
  for (int t = 0; t < cnt; ++t) {
    const int k = kIndexed ? kidx[t] : t;
    const __m256d av = _mm256_set1_pd(arow[k]);
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    #pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_add_pd(acc[v],
                             _mm256_mul_pd(av, _mm256_loadu_pd(brow + 4 * v)));
    }
  }
  #pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) _mm256_storeu_pd(crow + 4 * v, acc[v]);
}

// The last n % 4 columns: one masked accumulator. Masked-off lanes load as
// zero and are never stored.
template <bool kIndexed>
inline void GemmRowTail(__m256i mask, const double* arow, const int* kidx,
                        int cnt, const double* b, int64_t ldb, double* crow) {
  __m256d acc = _mm256_maskload_pd(crow, mask);
  for (int t = 0; t < cnt; ++t) {
    const int k = kIndexed ? kidx[t] : t;
    const __m256d av = _mm256_set1_pd(arow[k]);
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    acc = _mm256_add_pd(acc,
                        _mm256_mul_pd(av, _mm256_maskload_pd(brow, mask)));
  }
  _mm256_maskstore_pd(crow, mask, acc);
}

template <bool kIndexed>
void GemmRowImpl(const double* arow, const int* kidx, int cnt,
                 const double* b, int64_t ldb, int n, double* crow) {
  int j = 0;
  for (; j + 32 <= n; j += 32) {
    GemmRowBlock<8, kIndexed>(arow, kidx, cnt, b + j, ldb, crow + j);
  }
  if (j + 16 <= n) {
    GemmRowBlock<4, kIndexed>(arow, kidx, cnt, b + j, ldb, crow + j);
    j += 16;
  }
  if (j + 8 <= n) {
    GemmRowBlock<2, kIndexed>(arow, kidx, cnt, b + j, ldb, crow + j);
    j += 8;
  }
  if (j + 4 <= n) {
    GemmRowBlock<1, kIndexed>(arow, kidx, cnt, b + j, ldb, crow + j);
    j += 4;
  }
  if (j < n) {
    GemmRowTail<kIndexed>(TailMask(n - j), arow, kidx, cnt, b + j, ldb,
                          crow + j);
  }
}

void GemmRowAvx2(const double* arow, const int* kidx, int cnt,
                 const double* b, int64_t ldb, int n, double* crow) {
  if (kidx != nullptr) {
    GemmRowImpl<true>(arow, kidx, cnt, b, ldb, n, crow);
  } else {
    GemmRowImpl<false>(arow, kidx, cnt, b, ldb, n, crow);
  }
}

// kPackedLanes[m] lists, ascending, the set bits of the 4-bit mask m.
constexpr int32_t kPackedLanes[16][4] = {
    {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0},
    {2, 0, 0, 0}, {0, 2, 0, 0}, {1, 2, 0, 0}, {0, 1, 2, 0},
    {3, 0, 0, 0}, {0, 3, 0, 0}, {1, 3, 0, 0}, {0, 1, 3, 0},
    {2, 3, 0, 0}, {0, 2, 3, 0}, {1, 2, 3, 0}, {0, 1, 2, 3},
};

// Four lanes per step: a table lookup packs the lane numbers of the
// nonzero entries and a masked store writes only those.
int ListNonzeroAvx2(const double* x, int n, int* idx) {
  const __m256d zero = _mm256_setzero_pd();
  int cnt = 0;
  int k = 0;
  for (; k + 4 <= n; k += 4) {
    const int nonzero = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(x + k), zero, _CMP_NEQ_UQ));
    const int found = __builtin_popcount(nonzero);
    const __m128i lanes = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(kPackedLanes[nonzero]));
    const __m128i packed = _mm_add_epi32(lanes, _mm_set1_epi32(k));
    _mm_maskstore_epi32(idx + cnt, FirstLanes(found), packed);
    cnt += found;
  }
  for (; k < n; ++k) {
    idx[cnt] = k;
    cnt += x[k] != 0.0;
  }
  return cnt;
}

template <int NV>
inline void SpmmRowBlock(const double* values, const int* cols, int64_t nnz,
                         const double* x, int64_t ldx, double* yrow) {
  // Fully unrolled so the NV accumulators stay in registers across the
  // entry loop (a rolled loop keeps them on the stack).
  __m256d acc[NV];
  #pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
  for (int64_t e = 0; e < nnz; ++e) {
    const __m256d ve = _mm256_set1_pd(values[e]);
    const double* xrow = x + static_cast<int64_t>(cols[e]) * ldx;
    #pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_add_pd(acc[v],
                             _mm256_mul_pd(ve, _mm256_loadu_pd(xrow + 4 * v)));
    }
  }
  #pragma GCC unroll 8
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
    kSpmmCBlocks,
    static_cast<int>(sizeof(kSpmmCBlocks) / sizeof(int)),
    GemmRowAvx2,
    ListNonzeroAvx2,
    SpmmRowAvx2,
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
