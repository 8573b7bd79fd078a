// AVX-512 tier: 8-lane double vectors (zmm), multiply and add kept separate
// (no FMA — compiled with -ffp-contract=off, no fmadd intrinsics), scalar
// tails identical to the reference. Requires AVX-512 F+VL+DQ at runtime
// (checked by dispatch). GEMM remainders use masked 8-lane ops instead of
// scalar loops; the SpMM 4-lane remainder blocks use VL-encoded ymm ops.
#include "kernels/kernel_ops.h"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace ahg::kernels {
namespace {

constexpr int kSpmmCBlocks[] = {8, 16, 32, 64};

// NV = number of 8-wide accumulators held across the listed k's.
template <int NV, bool kIndexed>
inline void GemmRowBlock(const double* arow, const int* kidx, int cnt,
                         const double* b, int64_t ldb, double* crow) {
  __m512d acc[NV];
  #pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) acc[v] = _mm512_loadu_pd(crow + 8 * v);
  for (int t = 0; t < cnt; ++t) {
    const int k = kIndexed ? kidx[t] : t;
    const __m512d av = _mm512_set1_pd(arow[k]);
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    #pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm512_add_pd(acc[v],
                             _mm512_mul_pd(av, _mm512_loadu_pd(brow + 8 * v)));
    }
  }
  #pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) _mm512_storeu_pd(crow + 8 * v, acc[v]);
}

// The last n % 8 columns: one masked accumulator. Masked-off lanes load as
// zero and are never stored.
template <bool kIndexed>
inline void GemmRowTail(__mmask8 mask, const double* arow, const int* kidx,
                        int cnt, const double* b, int64_t ldb, double* crow) {
  __m512d acc = _mm512_maskz_loadu_pd(mask, crow);
  for (int t = 0; t < cnt; ++t) {
    const int k = kIndexed ? kidx[t] : t;
    const __m512d av = _mm512_set1_pd(arow[k]);
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    acc = _mm512_add_pd(acc,
                         _mm512_mul_pd(av, _mm512_maskz_loadu_pd(mask, brow)));
  }
  _mm512_mask_storeu_pd(crow, mask, acc);
}

template <bool kIndexed>
void GemmRowImpl(const double* arow, const int* kidx, int cnt,
                 const double* b, int64_t ldb, int n, double* crow) {
  int j = 0;
  for (; j + 64 <= n; j += 64) {
    GemmRowBlock<8, kIndexed>(arow, kidx, cnt, b + j, ldb, crow + j);
  }
  if (j + 32 <= n) {
    GemmRowBlock<4, kIndexed>(arow, kidx, cnt, b + j, ldb, crow + j);
    j += 32;
  }
  if (j + 16 <= n) {
    GemmRowBlock<2, kIndexed>(arow, kidx, cnt, b + j, ldb, crow + j);
    j += 16;
  }
  if (j + 8 <= n) {
    GemmRowBlock<1, kIndexed>(arow, kidx, cnt, b + j, ldb, crow + j);
    j += 8;
  }
  if (j < n) {
    const __mmask8 mask = static_cast<__mmask8>((1u << (n - j)) - 1);
    GemmRowTail<kIndexed>(mask, arow, kidx, cnt, b + j, ldb, crow + j);
  }
}

void GemmRowAvx512(const double* arow, const int* kidx, int cnt,
                   const double* b, int64_t ldb, int n, double* crow) {
  if (kidx != nullptr) {
    GemmRowImpl<true>(arow, kidx, cnt, b, ldb, n, crow);
  } else {
    GemmRowImpl<false>(arow, kidx, cnt, b, ldb, n, crow);
  }
}

// Eight lanes per step: compress the lane numbers of the nonzero entries
// and store only those.
int ListNonzeroAvx512(const double* x, int n, int* idx) {
  const __m512d zero = _mm512_setzero_pd();
  const __m256i step = _mm256_set1_epi32(8);
  __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  int cnt = 0;
  for (int k = 0; k < n; k += 8) {
    const __mmask8 in_range =
        static_cast<__mmask8>(n - k >= 8 ? 0xff : (1u << (n - k)) - 1);
    const __mmask8 nonzero = _mm512_mask_cmp_pd_mask(
        in_range, _mm512_maskz_loadu_pd(in_range, x + k), zero, _CMP_NEQ_UQ);
    const int found = __builtin_popcount(nonzero);
    _mm256_mask_storeu_epi32(idx + cnt,
                             static_cast<__mmask8>((1u << found) - 1),
                             _mm256_maskz_compress_epi32(nonzero, lanes));
    cnt += found;
    lanes = _mm256_add_epi32(lanes, step);
  }
  return cnt;
}

template <int NV>
inline void SpmmRowBlock(const double* values, const int* cols, int64_t nnz,
                         const double* x, int64_t ldx, double* yrow) {
  // Fully unrolled so the NV accumulators stay in registers across the
  // entry loop (a rolled loop keeps them on the stack).
  __m512d acc[NV];
  #pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) acc[v] = _mm512_setzero_pd();
  for (int64_t e = 0; e < nnz; ++e) {
    const __m512d ve = _mm512_set1_pd(values[e]);
    const double* xrow = x + static_cast<int64_t>(cols[e]) * ldx;
    #pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm512_add_pd(acc[v],
                             _mm512_mul_pd(ve, _mm512_loadu_pd(xrow + 8 * v)));
    }
  }
  #pragma GCC unroll 8
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
    kSpmmCBlocks,
    static_cast<int>(sizeof(kSpmmCBlocks) / sizeof(int)),
    GemmRowAvx512,
    ListNonzeroAvx512,
    SpmmRowAvx512,
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
