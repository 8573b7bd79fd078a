// Portable scalar reference tier. Every other tier must reproduce these
// kernels bit-for-bit; the blocked variants here only change how many
// output columns are held in register-resident accumulators, never the
// order any single element accumulates in.
#include <algorithm>
#include <cstdint>

#include "kernels/kernel_ops.h"

namespace ahg::kernels {
namespace {

constexpr int kSpmmCBlocks[] = {4, 8};

// JB output columns held in locals across the listed k's.
template <int JB, bool kIndexed>
inline void GemmRowBlock(const double* arow, const int* kidx, int cnt,
                         const double* b, int64_t ldb, double* crow) {
  double acc[JB];
  #pragma GCC unroll 8
  for (int v = 0; v < JB; ++v) acc[v] = crow[v];
  for (int t = 0; t < cnt; ++t) {
    const int k = kIndexed ? kidx[t] : t;
    const double aik = arow[k];
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    #pragma GCC unroll 8
    for (int v = 0; v < JB; ++v) acc[v] += aik * brow[v];
  }
  #pragma GCC unroll 8
  for (int v = 0; v < JB; ++v) crow[v] = acc[v];
}

template <bool kIndexed>
void GemmRowImpl(const double* arow, const int* kidx, int cnt,
                 const double* b, int64_t ldb, int n, double* crow) {
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    GemmRowBlock<8, kIndexed>(arow, kidx, cnt, b + j, ldb, crow + j);
  }
  if (j + 4 <= n) {
    GemmRowBlock<4, kIndexed>(arow, kidx, cnt, b + j, ldb, crow + j);
    j += 4;
  }
  for (; j < n; ++j) {
    GemmRowBlock<1, kIndexed>(arow, kidx, cnt, b + j, ldb, crow + j);
  }
}

void GemmRowScalar(const double* arow, const int* kidx, int cnt,
                   const double* b, int64_t ldb, int n, double* crow) {
  if (kidx != nullptr) {
    GemmRowImpl<true>(arow, kidx, cnt, b, ldb, n, crow);
  } else {
    GemmRowImpl<false>(arow, kidx, cnt, b, ldb, n, crow);
  }
}

int ListNonzeroScalar(const double* x, int n, int* idx) {
  int cnt = 0;
  for (int k = 0; k < n; ++k) {
    idx[cnt] = k;
    cnt += x[k] != 0.0;
  }
  return cnt;
}

void SpmmRowScalar(int cblock, const double* values, const int* cols,
                   int64_t nnz, const double* x, int64_t ldx, int n,
                   double* yrow) {
  if (cblock == 0) cblock = 4;
  if (cblock > 8) cblock = 8;
  int c = 0;
  for (; c + cblock <= n; c += cblock) {
    double acc[8] = {0.0};
    for (int64_t e = 0; e < nnz; ++e) {
      const double v = values[e];
      const double* xrow = x + static_cast<int64_t>(cols[e]) * ldx + c;
      for (int l = 0; l < cblock; ++l) acc[l] += v * xrow[l];
    }
    for (int l = 0; l < cblock; ++l) yrow[c + l] = acc[l];
  }
  for (; c < n; ++c) {
    double acc = 0.0;
    for (int64_t e = 0; e < nnz; ++e) {
      acc += values[e] * x[static_cast<int64_t>(cols[e]) * ldx + c];
    }
    yrow[c] = acc;
  }
}

double RowMaxScalar(const double* x, int n) {
  double m = x[0];
  for (int c = 1; c < n; ++c) m = std::max(m, x[c]);
  return m;
}

void DivInplaceScalar(double* x, int n, double denom) {
  for (int c = 0; c < n; ++c) x[c] /= denom;
}

void SubScalarScalar(const double* x, int n, double s, double* out) {
  for (int c = 0; c < n; ++c) out[c] = x[c] - s;
}

void BiasReluRowScalar(double* x, const double* bias, int n) {
  if (bias != nullptr) {
    for (int c = 0; c < n; ++c) {
      const double v = x[c] + bias[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  } else {
    for (int c = 0; c < n; ++c) {
      const double v = x[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  }
}

void AddInplaceScalar(double* x, const double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] += y[i];
}

void AxpyInplaceScalar(double* x, double alpha, const double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] += alpha * y[i];
}

void ScaleInplaceScalar(double* x, double alpha, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void CWiseMulScalar(const double* a, const double* b, int64_t n, double* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

constexpr TierOps kScalarOps = {
    Tier::kScalar,
    kSpmmCBlocks,
    static_cast<int>(sizeof(kSpmmCBlocks) / sizeof(int)),
    GemmRowScalar,
    ListNonzeroScalar,
    SpmmRowScalar,
    RowMaxScalar,
    DivInplaceScalar,
    SubScalarScalar,
    BiasReluRowScalar,
    AddInplaceScalar,
    AxpyInplaceScalar,
    ScaleInplaceScalar,
    CWiseMulScalar,
};

}  // namespace

const TierOps& ScalarOps() { return kScalarOps; }

}  // namespace ahg::kernels
