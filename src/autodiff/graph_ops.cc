#include "autodiff/graph_ops.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"

namespace ahg {

Var Spmm(const SparseMatrix& a, const Var& x) {
  Matrix out = a.Spmm(x->value);
  const SparseMatrix* a_ptr = &a;
  // The backward runs A^T * grad through the cached explicit transpose,
  // which keeps every output row owned by a single worker (bitwise
  // deterministic row-parallelism, no atomics). Build the cache now, while
  // we are outside any parallel region, so the first backward pass is not
  // serialized behind the lazy construction.
  if (x->requires_grad) a.TransposedCached();
  return MakeOpNode(std::move(out), {x}, [a_ptr, x](const Node& n) {
    if (!x->requires_grad) return;
    x->AccumulateGrad(a_ptr->SpmmTransposed(n.grad));
  });
}

Var NeighborMaxPool(const SparseMatrix& a, const Var& x) {
  AHG_CHECK_EQ(x->rows(), a.cols());
  AHG_TRACE_SPAN_ARG("autodiff/neighbor_max_pool", a.nnz() * x->cols());
  const int d = x->cols();
  Matrix out(a.rows(), d);
  // argmax[r * d + c] = source row that produced out(r, c); -1 if row empty.
  std::vector<int> argmax(static_cast<size_t>(a.rows()) * d, -1);
  for (int r = 0; r < a.rows(); ++r) {
    double* orow = out.Row(r);
    bool first = true;
    for (int64_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      const int j = a.col_idx()[i];
      const double* xrow = x->value.Row(j);
      for (int c = 0; c < d; ++c) {
        if (first || xrow[c] > orow[c]) {
          orow[c] = xrow[c];
          argmax[static_cast<size_t>(r) * d + c] = j;
        }
      }
      first = false;
    }
    if (first) {
      for (int c = 0; c < d; ++c) orow[c] = 0.0;
    }
  }
  return MakeOpNode(std::move(out), {x},
                    [x, argmax = std::move(argmax), d](const Node& n) {
                      if (!x->requires_grad) return;
                      x->EnsureGrad();
                      for (int r = 0; r < n.grad.rows(); ++r) {
                        const double* g = n.grad.Row(r);
                        for (int c = 0; c < d; ++c) {
                          const int j = argmax[static_cast<size_t>(r) * d + c];
                          if (j >= 0) x->grad(j, c) += g[c];
                        }
                      }
                    });
}

Var GatAggregate(const SparseMatrix& a, const Var& s_src, const Var& s_dst,
                 const Var& h, double leaky_slope) {
  AHG_CHECK_EQ(s_src->cols(), 1);
  AHG_CHECK_EQ(s_dst->cols(), 1);
  AHG_CHECK_EQ(s_src->rows(), h->rows());
  AHG_CHECK_EQ(s_dst->rows(), a.rows());
  AHG_CHECK_EQ(h->rows(), a.cols());
  AHG_TRACE_SPAN_ARG("autodiff/gat_aggregate", a.nnz() * h->cols());
  const int d = h->cols();
  const int64_t nnz = a.nnz();
  // Cached per-edge state for backward: softmax weights and the sign of the
  // pre-activation logit (LeakyReLU derivative).
  std::vector<double> alpha(nnz, 0.0);
  std::vector<double> lrelu_deriv(nnz, 1.0);
  Matrix out(a.rows(), d);
  for (int r = 0; r < a.rows(); ++r) {
    const int64_t begin = a.row_ptr()[r];
    const int64_t end = a.row_ptr()[r + 1];
    if (begin == end) continue;
    double max_e = -1e300;
    for (int64_t i = begin; i < end; ++i) {
      const int j = a.col_idx()[i];
      const double pre = s_dst->value(r, 0) + s_src->value(j, 0);
      const double e = pre > 0.0 ? pre : leaky_slope * pre;
      lrelu_deriv[i] = pre > 0.0 ? 1.0 : leaky_slope;
      alpha[i] = e;  // temporarily store the logit
      max_e = std::max(max_e, e);
    }
    double total = 0.0;
    for (int64_t i = begin; i < end; ++i) {
      alpha[i] = std::exp(alpha[i] - max_e);
      total += alpha[i];
    }
    double* orow = out.Row(r);
    for (int64_t i = begin; i < end; ++i) {
      alpha[i] /= total;
      const double* hrow = h->value.Row(a.col_idx()[i]);
      for (int c = 0; c < d; ++c) orow[c] += alpha[i] * hrow[c];
    }
  }
  const SparseMatrix* a_ptr = &a;
  return MakeOpNode(
      std::move(out), {s_src, s_dst, h},
      [a_ptr, s_src, s_dst, h, alpha = std::move(alpha),
       lrelu_deriv = std::move(lrelu_deriv), d](const Node& n) {
        const bool need_scores = s_src->requires_grad || s_dst->requires_grad;
        if (h->requires_grad) h->EnsureGrad();
        if (s_src->requires_grad) s_src->EnsureGrad();
        if (s_dst->requires_grad) s_dst->EnsureGrad();
        for (int r = 0; r < a_ptr->rows(); ++r) {
          const int64_t begin = a_ptr->row_ptr()[r];
          const int64_t end = a_ptr->row_ptr()[r + 1];
          if (begin == end) continue;
          const double* g = n.grad.Row(r);
          // dL/dalpha_i = g . h[j_i]; softmax backward needs the
          // alpha-weighted mean of those dots within the row.
          double weighted_dot = 0.0;
          for (int64_t i = begin; i < end; ++i) {
            const double* hrow = h->value.Row(a_ptr->col_idx()[i]);
            double dot = 0.0;
            for (int c = 0; c < d; ++c) dot += g[c] * hrow[c];
            if (h->requires_grad) {
              double* hg = h->grad.Row(a_ptr->col_idx()[i]);
              for (int c = 0; c < d; ++c) hg[c] += alpha[i] * g[c];
            }
            if (need_scores) {
              weighted_dot += alpha[i] * dot;
            }
          }
          if (!need_scores) continue;
          for (int64_t i = begin; i < end; ++i) {
            const int j = a_ptr->col_idx()[i];
            const double* hrow = h->value.Row(j);
            double dot = 0.0;
            for (int c = 0; c < d; ++c) dot += g[c] * hrow[c];
            const double de = alpha[i] * (dot - weighted_dot);
            const double dpre = de * lrelu_deriv[i];
            if (s_dst->requires_grad) s_dst->grad(r, 0) += dpre;
            if (s_src->requires_grad) s_src->grad(j, 0) += dpre;
          }
        }
      });
}

Var SegmentPool(const Var& x, const std::vector<int>& segment_ids,
                int num_segments, bool mean) {
  AHG_CHECK_EQ(static_cast<int>(segment_ids.size()), x->rows());
  const int d = x->cols();
  std::vector<double> inv_count(num_segments, 0.0);
  for (int id : segment_ids) {
    AHG_CHECK(id >= 0 && id < num_segments);
    inv_count[id] += 1.0;
  }
  for (auto& c : inv_count) c = (mean && c > 0.0) ? 1.0 / c : 1.0;
  Matrix out(num_segments, d);
  for (int r = 0; r < x->rows(); ++r) {
    const double w = inv_count[segment_ids[r]];
    const double* src = x->value.Row(r);
    double* dst = out.Row(segment_ids[r]);
    for (int c = 0; c < d; ++c) dst[c] += w * src[c];
  }
  return MakeOpNode(std::move(out), {x},
                    [x, segment_ids, inv_count = std::move(inv_count),
                     d](const Node& n) {
                      if (!x->requires_grad) return;
                      x->EnsureGrad();
                      for (int r = 0; r < x->rows(); ++r) {
                        const double w = inv_count[segment_ids[r]];
                        const double* g = n.grad.Row(segment_ids[r]);
                        double* xg = x->grad.Row(r);
                        for (int c = 0; c < d; ++c) xg[c] += w * g[c];
                      }
                    });
}

}  // namespace ahg

namespace ahg {

Var CosineAttentionAggregate(const SparseMatrix& a, const Var& h,
                             const Var& beta) {
  AHG_CHECK_EQ(h->rows(), a.rows());
  AHG_CHECK_EQ(h->rows(), a.cols());
  AHG_CHECK(beta->rows() == 1 && beta->cols() == 1);
  const int d = h->cols();
  const int64_t nnz = a.nnz();
  const double b = beta->value(0, 0);

  // Regularized row norms: n_i = sqrt(|h_i|^2 + delta), so dn/dh = h/n is
  // exact and zero rows stay finite.
  constexpr double kDelta = 1e-12;
  std::vector<double> norm(h->rows());
  for (int i = 0; i < h->rows(); ++i) {
    double ss = kDelta;
    const double* row = h->value.Row(i);
    for (int c = 0; c < d; ++c) ss += row[c] * row[c];
    norm[i] = std::sqrt(ss);
  }

  std::vector<double> cosine(nnz, 0.0);
  std::vector<double> alpha(nnz, 0.0);
  Matrix out(a.rows(), d);
  for (int r = 0; r < a.rows(); ++r) {
    const int64_t begin = a.row_ptr()[r];
    const int64_t end = a.row_ptr()[r + 1];
    if (begin == end) continue;
    const double* hr = h->value.Row(r);
    double max_e = -1e300;
    for (int64_t i = begin; i < end; ++i) {
      const double* hj = h->value.Row(a.col_idx()[i]);
      double dot = 0.0;
      for (int c = 0; c < d; ++c) dot += hr[c] * hj[c];
      cosine[i] = dot / (norm[r] * norm[a.col_idx()[i]]);
      alpha[i] = b * cosine[i];
      max_e = std::max(max_e, alpha[i]);
    }
    double total = 0.0;
    for (int64_t i = begin; i < end; ++i) {
      alpha[i] = std::exp(alpha[i] - max_e);
      total += alpha[i];
    }
    double* orow = out.Row(r);
    for (int64_t i = begin; i < end; ++i) {
      alpha[i] /= total;
      const double* hj = h->value.Row(a.col_idx()[i]);
      for (int c = 0; c < d; ++c) orow[c] += alpha[i] * hj[c];
    }
  }

  const SparseMatrix* a_ptr = &a;
  return MakeOpNode(
      std::move(out), {h, beta},
      [a_ptr, h, beta, b, d, norm = std::move(norm),
       cosine = std::move(cosine), alpha = std::move(alpha)](const Node& n) {
        if (h->requires_grad) h->EnsureGrad();
        if (beta->requires_grad) beta->EnsureGrad();
        for (int r = 0; r < a_ptr->rows(); ++r) {
          const int64_t begin = a_ptr->row_ptr()[r];
          const int64_t end = a_ptr->row_ptr()[r + 1];
          if (begin == end) continue;
          const double* g = n.grad.Row(r);
          const double* hr = h->value.Row(r);
          // t_j = g . h_j and the alpha-weighted mean for the softmax
          // backward.
          double weighted_t = 0.0;
          for (int64_t i = begin; i < end; ++i) {
            const double* hj = h->value.Row(a_ptr->col_idx()[i]);
            double t = 0.0;
            for (int c = 0; c < d; ++c) t += g[c] * hj[c];
            weighted_t += alpha[i] * t;
            if (h->requires_grad) {
              // Value path.
              double* hg = h->grad.Row(a_ptr->col_idx()[i]);
              for (int c = 0; c < d; ++c) hg[c] += alpha[i] * g[c];
            }
          }
          for (int64_t i = begin; i < end; ++i) {
            const int j = a_ptr->col_idx()[i];
            const double* hj = h->value.Row(j);
            double t = 0.0;
            for (int c = 0; c < d; ++c) t += g[c] * hj[c];
            const double de = alpha[i] * (t - weighted_t);
            if (beta->requires_grad) beta->grad(0, 0) += de * cosine[i];
            if (!h->requires_grad) continue;
            const double q = b * de;  // dL/dcosine
            const double inv_nrnj = 1.0 / (norm[r] * norm[j]);
            double* hgr = h->grad.Row(r);
            double* hgj = h->grad.Row(j);
            const double cr = cosine[i] / (norm[r] * norm[r]);
            const double cj = cosine[i] / (norm[j] * norm[j]);
            for (int c = 0; c < d; ++c) {
              hgr[c] += q * (hj[c] * inv_nrnj - cr * hr[c]);
              hgj[c] += q * (hr[c] * inv_nrnj - cj * hj[c]);
            }
          }
        }
      });
}

}  // namespace ahg
