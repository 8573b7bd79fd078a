#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "autodiff/graph_ops.h"
#include "autodiff/ops.h"
#include "autodiff/variable.h"
#include "gtest/gtest.h"
#include "tensor/sparse_matrix.h"
#include "util/rng.h"

namespace ahg {
namespace {

TEST(VariableTest, ConstantsDoNotRequireGrad) {
  Var c = MakeConstant(Matrix::FromRows({{1, 2}}));
  EXPECT_FALSE(c->requires_grad);
  Var p = MakeParam(Matrix::FromRows({{1, 2}}));
  EXPECT_TRUE(p->requires_grad);
}

TEST(VariableTest, OpNodeInfersRequiresGrad) {
  Var c1 = MakeConstant(Matrix::FromRows({{1.0}}));
  Var c2 = MakeConstant(Matrix::FromRows({{2.0}}));
  EXPECT_FALSE(Add(c1, c2)->requires_grad);
  Var p = MakeParam(Matrix::FromRows({{1.0}}));
  EXPECT_TRUE(Add(c1, p)->requires_grad);
}

TEST(BackwardTest, SimpleChain) {
  // loss = sum(3 * p) -> dloss/dp = 3.
  Var p = MakeParam(Matrix::FromRows({{1, 2}, {3, 4}}));
  Var loss = SumAll(ScalarMul(p, 3.0));
  Backward(loss);
  for (int64_t i = 0; i < p->grad.size(); ++i) {
    EXPECT_NEAR(p->grad.data()[i], 3.0, 1e-12);
  }
}

TEST(BackwardTest, SharedSubexpressionAccumulates) {
  // loss = sum(p + p) -> dloss/dp = 2.
  Var p = MakeParam(Matrix::FromRows({{1.0}}));
  Var loss = SumAll(Add(p, p));
  Backward(loss);
  EXPECT_NEAR(p->grad(0, 0), 2.0, 1e-12);
}

TEST(BackwardTest, DiamondGraphAccumulates) {
  // a = 2p, b = 3p, loss = sum(a*b) = 6p^2 -> d/dp = 12p.
  Var p = MakeParam(Matrix::FromRows({{2.0}}));
  Var loss = SumAll(CWiseMul(ScalarMul(p, 2.0), ScalarMul(p, 3.0)));
  Backward(loss);
  EXPECT_NEAR(p->grad(0, 0), 24.0, 1e-9);
}

TEST(BackwardTest, GradsAccumulateAcrossCallsUntilZeroed) {
  Var p = MakeParam(Matrix::FromRows({{1.0}}));
  for (int i = 0; i < 2; ++i) {
    Var loss = SumAll(ScalarMul(p, 5.0));
    Backward(loss);
  }
  EXPECT_NEAR(p->grad(0, 0), 10.0, 1e-12);
  p->ZeroGrad();
  EXPECT_EQ(p->grad(0, 0), 0.0);
}

TEST(BackwardTest, ConstantBranchReceivesNoGrad) {
  Var p = MakeParam(Matrix::FromRows({{1.0}}));
  Var c = MakeConstant(Matrix::FromRows({{7.0}}));
  Var loss = SumAll(CWiseMul(p, c));
  Backward(loss);
  EXPECT_TRUE(c->grad.empty());
  EXPECT_NEAR(p->grad(0, 0), 7.0, 1e-12);
}

TEST(OpsForwardTest, MatMulValue) {
  Var a = MakeConstant(Matrix::FromRows({{1, 2}}));
  Var b = MakeConstant(Matrix::FromRows({{3}, {4}}));
  EXPECT_NEAR(MatMul(a, b)->value(0, 0), 11.0, 1e-12);
}

TEST(OpsForwardTest, ActivationValues) {
  Var x = MakeConstant(Matrix::FromRows({{-1.0, 0.0, 2.0}}));
  EXPECT_EQ(Relu(x)->value(0, 0), 0.0);
  EXPECT_EQ(Relu(x)->value(0, 2), 2.0);
  EXPECT_NEAR(LeakyRelu(x, 0.1)->value(0, 0), -0.1, 1e-12);
  EXPECT_NEAR(Elu(x)->value(0, 0), std::expm1(-1.0), 1e-12);
  EXPECT_NEAR(Sigmoid(x)->value(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(Tanh(x)->value(0, 2), std::tanh(2.0), 1e-12);
}

TEST(OpsForwardTest, DropoutEvalIsIdentity) {
  Rng rng(1);
  Var x = MakeParam(Matrix::FromRows({{1, 2, 3}}));
  Var y = Dropout(x, 0.5, /*training=*/false, &rng);
  EXPECT_EQ(y.get(), x.get());
}

TEST(OpsForwardTest, DropoutTrainPreservesMeanRoughly) {
  Rng rng(123);
  Var x = MakeConstant(Matrix::Constant(1, 20000, 1.0));
  Var y = Dropout(x, 0.3, /*training=*/true, &rng);
  EXPECT_NEAR(y->value.Sum() / 20000.0, 1.0, 0.03);
}

TEST(OpsForwardTest, ConcatColsLaysOutParts) {
  Var a = MakeConstant(Matrix::FromRows({{1}, {2}}));
  Var b = MakeConstant(Matrix::FromRows({{3, 4}, {5, 6}}));
  Var c = ConcatCols({a, b});
  EXPECT_EQ(c->cols(), 3);
  EXPECT_EQ(c->value(1, 2), 6.0);
  EXPECT_EQ(c->value(0, 0), 1.0);
}

TEST(OpsForwardTest, GatherRowsPicksRows) {
  Var a = MakeConstant(Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}}));
  Var g = GatherRows(a, {2, 0});
  EXPECT_EQ(g->value(0, 0), 3.0);
  EXPECT_EQ(g->value(1, 0), 1.0);
}

TEST(OpsForwardTest, SoftmaxWeightedSumUniformAtZeroAlpha) {
  Var t1 = MakeConstant(Matrix::FromRows({{2.0}}));
  Var t2 = MakeConstant(Matrix::FromRows({{4.0}}));
  Var alpha = MakeParam(Matrix(1, 2));  // zeros -> uniform softmax
  Var out = SoftmaxWeightedSum({t1, t2}, alpha);
  EXPECT_NEAR(out->value(0, 0), 3.0, 1e-12);
}

TEST(OpsForwardTest, MaskedCrossEntropyMatchesManual) {
  // Single masked row with known softmax.
  Var logits = MakeParam(Matrix::FromRows({{0.0, 0.0}, {1.0, 3.0}}));
  Var loss = MaskedCrossEntropy(logits, {0, 1}, {1});
  const double p1 = std::exp(3.0) / (std::exp(1.0) + std::exp(3.0));
  EXPECT_NEAR(loss->value(0, 0), -std::log(p1), 1e-12);
}

TEST(OpsForwardTest, BceWithLogitsMatchesManual) {
  Var logits = MakeParam(Matrix::FromRows({{0.0}, {2.0}}));
  Var loss = BceWithLogits(logits, {1.0, 0.0});
  const double expected =
      (-std::log(0.5) - std::log(1.0 - 1.0 / (1.0 + std::exp(-2.0)))) / 2.0;
  EXPECT_NEAR(loss->value(0, 0), expected, 1e-12);
}

TEST(BackwardTest, RootMustBeScalar) {
  Var p = MakeParam(Matrix::FromRows({{1, 2}}));
  EXPECT_DEATH(Backward(Add(p, p)), "scalar");
}


// --- First-write gradients ------------------------------------------------
//
// A first contribution to an unset grad is written as 0.0 + delta instead
// of zero-filling the grad and adding. Each check below compares, by
// memcmp, against the zero-filled buffer plus AddInPlace the old path ran,
// with -0.0 (which must come out +0.0) and NaN among the contributions.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Contributions with a -0.0, a +0.0, a NaN, an inf and ordinary values.
Matrix SignedZeroNaNDelta() {
  return Matrix::FromRows({{-0.0, kNaN, 1.5, 0.0},
                           {-2.25, -0.0, std::numeric_limits<double>::infinity(),
                            3.0}});
}

TEST(FirstWriteGradTest, AccumulateGradMatchesZeroFilledPlusAdd) {
  const Matrix delta = SignedZeroNaNDelta();
  const Matrix second = Matrix::FromRows({{-0.0, 1.0, -0.0, kNaN},
                                          {0.5, -0.0, -1.0, -0.0}});
  Matrix ref(2, 4);
  ref.AddInPlace(delta);
  ASSERT_FALSE(std::signbit(ref(0, 0)));  // -0.0 became +0.0

  // Const delta: a fresh buffer.
  Var h = ScalarMul(MakeParam(Matrix(2, 4)), 1.0);
  ASSERT_FALSE(h->HasGrad());
  h->AccumulateGrad(delta);
  EXPECT_TRUE(SameBits(h->grad, ref));

  // Temporary delta: rewritten in place and moved in.
  Var t = ScalarMul(MakeParam(Matrix(2, 4)), 1.0);
  Matrix temp = delta;
  t->AccumulateGrad(std::move(temp));
  EXPECT_TRUE(SameBits(t->grad, ref));

  // A second contribution adds, as before.
  ref.AddInPlace(second);
  h->AccumulateGrad(second);
  t->AccumulateGrad(Matrix(second));
  EXPECT_TRUE(SameBits(h->grad, ref));
  EXPECT_TRUE(SameBits(t->grad, ref));
}

TEST(FirstWriteGradTest, AccumulateGradScaledMatchesZeroFilledPlusAxpy) {
  const Matrix delta = SignedZeroNaNDelta();
  for (const double alpha : {-1.0, 0.5, -0.0}) {
    Matrix ref(2, 4);
    ref.AxpyInPlace(alpha, delta);
    Var h = ScalarMul(MakeParam(Matrix(2, 4)), 1.0);
    h->AccumulateGradScaled(alpha, delta);
    EXPECT_TRUE(SameBits(h->grad, ref)) << "alpha " << alpha;
    ref.AxpyInPlace(alpha, delta);
    h->AccumulateGradScaled(alpha, delta);
    EXPECT_TRUE(SameBits(h->grad, ref)) << "alpha " << alpha;
  }
}

// Backward through op nodes: loss = sum((h + h) .* c) with h = 1.0 * p, so
// s = h + h receives c (one first write), h receives it twice (a first
// write, then an add) and the parameter p is written first via the scaled
// path.
TEST(FirstWriteGradTest, BackwardMatchesZeroFilledPlusAdd) {
  const Matrix c = SignedZeroNaNDelta();
  Var p = MakeParam(Matrix::FromRows({{1, -2, 3, 0}, {0.5, 4, -1, 2}}));
  Var h = ScalarMul(p, 1.0);
  Var s = Add(h, h);
  Backward(SumAll(CWiseMul(s, MakeConstant(c))));
  Matrix ref_s(2, 4);
  ref_s.AddInPlace(c);
  Matrix ref_h(2, 4);
  ref_h.AddInPlace(ref_s);
  ref_h.AddInPlace(ref_s);
  Matrix ref_p(2, 4);
  ref_p.AxpyInPlace(1.0, ref_h);
  EXPECT_TRUE(SameBits(s->grad, ref_s));
  EXPECT_TRUE(SameBits(h->grad, ref_h));
  EXPECT_TRUE(SameBits(p->grad, ref_p));
}

// The op backwards that write their own first contribution: Relu (every
// unary elementwise op), Dropout, ConcatCols and Spmm. Each receives c as
// its output grad; its input's grad must equal the zero-filled reference.
TEST(FirstWriteGradTest, OpBackwardsMatchZeroFilledPlusAdd) {
  const Matrix c = SignedZeroNaNDelta();
  const Matrix x = Matrix::FromRows({{1, -2, 3, 0}, {-0.0, 4, -1, 2}});
  auto grad_of_input = [&](const std::function<Var(const Var&)>& op) {
    Var h = ScalarMul(MakeParam(x), 1.0);
    Backward(SumAll(CWiseMul(op(h), MakeConstant(c))));
    return h->grad;
  };

  Matrix ref_relu(2, 4);
  for (int64_t i = 0; i < c.size(); ++i) {
    ref_relu.data()[i] += c.data()[i] * (x.data()[i] > 0.0 ? 1.0 : 0.0);
  }
  EXPECT_TRUE(SameBits(grad_of_input([](const Var& h) { return Relu(h); }),
                       ref_relu));

  Rng mask_rng(5);
  Matrix ref_dropout(2, 4);
  for (int64_t i = 0; i < c.size(); ++i) {
    const double m = mask_rng.Bernoulli(0.5) ? 0.0 : 2.0;
    ref_dropout.data()[i] += c.data()[i] * m;
  }
  Rng rng(5);
  EXPECT_TRUE(SameBits(grad_of_input([&](const Var& h) {
                         return Dropout(h, 0.5, /*training=*/true, &rng);
                       }),
                       ref_dropout));

  // ConcatCols of [h, const]: h receives the first four columns of a 2 x 6
  // grad.
  const Matrix wide_c = Matrix::FromRows(
      {{-0.0, kNaN, 1.5, 0.0, 7.0, -0.0}, {-2.25, -0.0, 4.0, 3.0, -0.0, 1.0}});
  Var h = ScalarMul(MakeParam(x), 1.0);
  Var cat = ConcatCols({h, MakeConstant(Matrix(2, 2))});
  Backward(SumAll(CWiseMul(cat, MakeConstant(wide_c))));
  Matrix ref_cat(2, 4);
  for (int r = 0; r < 2; ++r) {
    for (int col = 0; col < 4; ++col) ref_cat(r, col) += wide_c(r, col);
  }
  EXPECT_TRUE(SameBits(h->grad, ref_cat));

  const SparseMatrix a =
      SparseMatrix::FromCoo(2, 2, {{0, 0, 1.0}, {0, 1, -0.5}, {1, 1, 2.0}});
  Matrix ref_spmm(2, 4);
  ref_spmm.AddInPlace(a.SpmmTransposed(c));
  EXPECT_TRUE(SameBits(
      grad_of_input([&](const Var& in) { return Spmm(a, in); }), ref_spmm));
}

}  // namespace
}  // namespace ahg
