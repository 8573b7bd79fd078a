// The per-tier kernel function table behind the runtime dispatch.
//
// Each tier (scalar / AVX2 / AVX-512) fills one TierOps with raw-pointer
// micro-kernels; the tensor layer (tensor/matrix.cc, tensor/sparse_matrix.cc,
// autodiff/ops.cc) resolves ActiveOps() once per operation — on the calling
// thread, before entering any parallel region — and drives its loops through
// the table.
//
// Exactness contract: every kernel accumulates each output element in
// exactly the order the scalar reference does (k ascending for GEMM, entry
// ascending for SpMM), uses separate multiply and add (no FMA contraction;
// the SIMD TUs are compiled with -ffp-contract=off), and reproduces the
// scalar tail element-for-element. Register-block width only changes how
// many independent output columns are held in registers, never the order
// any single element accumulates in — so all tiers, widths, k-panel sizes
// and thread counts produce bitwise-identical results, which is what lets
// the autotuner pick variants freely without perturbing the repo-wide
// determinism guarantees. (Max-reductions are order-independent for
// NaN-free input; a ±0.0 tie can differ in sign, which exp/log/div map to
// identical downstream values.)
//
// GEMM zero-skip rule, per shape (every tier, every variant):
//   A*B    skips each product whose a-entry == 0.0 (+0.0 or -0.0; NaN is
//          kept), so a 0 opposite an inf/NaN in B leaves the output finite;
//   A^T*B  the same rule per (row of A, column of A);
//   A*B^T  adds every product (0 * inf = NaN reaches the output).
// A^T*B reduces over A's rows in fixed 2048-row chunks: each chunk sums
// from +0.0 in ascending row order, and the chunk sums are added, in chunk
// order, onto a zeroed output. The grouping depends on the row count only,
// never on the thread count.
#ifndef AUTOHENS_KERNELS_KERNEL_OPS_H_
#define AUTOHENS_KERNELS_KERNEL_OPS_H_

#include <cstdint>

#include "kernels/dispatch.h"

namespace ahg::kernels {

struct TierOps {
  Tier tier;

  // Register-block widths (output columns held in accumulators) the tier's
  // spmm_row supports, ascending. The autotuner picks among these; 0 passed
  // at call time means "tier default".
  const int* spmm_cblocks;
  int num_spmm_cblocks;

  // GEMM row kernel over one k-panel, shared by all three GEMM shapes:
  //   crow[j] += sum_t arow[k_t] * b[k_t*ldb + j]   for j in [0, n),
  // t ascending, with k_t = kidx[t] for t < cnt, or k_t = t for t < cnt
  // when kidx is null. A*B and A^T*B (whose arow is a column of A, packed
  // per k-panel) pass the list_nonzero list, so zero a-entries are skipped;
  // A*B^T (run on B^T, transposed once per call) passes null and adds every
  // product. Accumulators start from crow, so a row spread over several
  // panels continues the same ascending-k sum. Columns run in the widest
  // register blocks that fit, then one masked (or scalar) tail.
  void (*gemm_row)(const double* arow, const int* kidx, int cnt,
                   const double* b, int64_t ldb, int n, double* crow);

  // Writes, ascending, every k in [0, n) with x[k] != 0.0 to idx (room for
  // n entries) and returns how many: the zero-skip list gemm_row consumes.
  // +0.0 and -0.0 are left out, NaN is listed. No data-dependent branches,
  // so dropout and ReLU zeros cost no mispredictions.
  int (*list_nonzero)(const double* x, int n, int* idx);

  // One CSR row times a dense block: yrow[c] = sum_e values[e] *
  // x[cols[e]*ldx + c] for c in [0, n), entries ascending per element.
  void (*spmm_row)(int cblock, const double* values, const int* cols,
                   int64_t nnz, const double* x, int64_t ldx, int n,
                   double* yrow);

  // Max over x[0..n), n >= 1. Order-independent for NaN-free input.
  double (*row_max)(const double* x, int n);

  // x[i] /= denom (softmax normalization; lane-independent, exact).
  void (*div_inplace)(double* x, int n, double denom);

  // out[i] = x[i] - s (log-softmax shift).
  void (*sub_scalar)(const double* x, int n, double s, double* out);

  // x[i] = max(x[i] + bias[i], 0); bias may be null (plain ReLU). Matches
  // the scalar `v > 0 ? v : 0.0` bit-for-bit, including -0.0 and NaN
  // (both map to +0.0).
  void (*bias_relu_row)(double* x, const double* bias, int n);

  // x[i] += y[i].
  void (*add_inplace)(double* x, const double* y, int64_t n);

  // x[i] += alpha * y[i] (separate mul and add).
  void (*axpy_inplace)(double* x, double alpha, const double* y, int64_t n);

  // x[i] *= alpha.
  void (*scale_inplace)(double* x, double alpha, int64_t n);

  // out[i] = a[i] * b[i].
  void (*cwise_mul)(const double* a, const double* b, int64_t n, double* out);
};

// The scalar reference table (always available).
const TierOps& ScalarOps();

// Tier tables, or nullptr when the build lacks the instruction set (non-x86
// targets compile these TUs to empty stubs). CPU support is checked
// separately by TierSupported().
const TierOps* Avx2Ops();
const TierOps* Avx512Ops();

// Table for `tier`, falling back down to scalar when unsupported.
const TierOps& OpsFor(Tier tier);

// Table for ActiveTier().
const TierOps& ActiveOps();

}  // namespace ahg::kernels

#endif  // AUTOHENS_KERNELS_KERNEL_OPS_H_
