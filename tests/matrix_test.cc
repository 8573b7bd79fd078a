#include "tensor/matrix.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "gtest/gtest.h"
#include "tensor/alloc_tracker.h"
#include "util/rng.h"

namespace ahg {
namespace {

TEST(MatrixTest, ConstructZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(MatrixTest, FromRowsAndAccess) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, CopyIsDeep) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = a;
  b(0, 0) = 99;
  EXPECT_EQ(a(0, 0), 1.0);
}

TEST(MatrixTest, MoveTransfersOwnership) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = std::move(a);
  EXPECT_EQ(b(0, 1), 2.0);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): testing move
}

TEST(MatrixTest, MatMulKnownProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Matrix::FromRows({{19, 22}, {43, 50}}), 1e-12));
}

TEST(MatrixTest, MatMulIdentity) {
  Rng rng(3);
  Matrix a = Matrix::Gaussian(4, 4, 1.0, &rng);
  EXPECT_TRUE(AllClose(MatMul(a, Matrix::Identity(4)), a, 1e-12));
}

TEST(MatrixTest, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(5);
  Matrix a = Matrix::Gaussian(3, 5, 1.0, &rng);
  Matrix b = Matrix::Gaussian(3, 4, 1.0, &rng);
  // A^T * B via MatMulTransA == Transpose(A) * B.
  EXPECT_TRUE(AllClose(MatMulTransA(a, b), MatMul(Transpose(a), b), 1e-10));
  Matrix c = Matrix::Gaussian(6, 5, 1.0, &rng);
  // A * C^T via MatMulTransB == A * Transpose(C).
  EXPECT_TRUE(AllClose(MatMulTransB(a, c), MatMul(a, Transpose(c)), 1e-10));
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::FromRows({{1, -2}});
  Matrix b = Matrix::FromRows({{3, 4}});
  EXPECT_TRUE(AllClose(Add(a, b), Matrix::FromRows({{4, 2}}), 1e-12));
  EXPECT_TRUE(AllClose(Sub(a, b), Matrix::FromRows({{-2, -6}}), 1e-12));
  EXPECT_TRUE(AllClose(CWiseMul(a, b), Matrix::FromRows({{3, -8}}), 1e-12));
  EXPECT_TRUE(AllClose(Scale(a, -2.0), Matrix::FromRows({{-2, 4}}), 1e-12));
}

TEST(MatrixTest, RowSoftmaxRowsSumToOne) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {-1, 0, 1000}});
  Matrix s = RowSoftmax(a);
  for (int r = 0; r < 2; ++r) {
    double total = 0.0;
    for (int c = 0; c < 3; ++c) {
      EXPECT_GE(s(r, c), 0.0);
      total += s(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
  // Large logits stay finite (stability).
  EXPECT_NEAR(s(1, 2), 1.0, 1e-9);
}

TEST(MatrixTest, RowLogSoftmaxMatchesLogOfSoftmax) {
  Matrix a = Matrix::FromRows({{0.3, -1.2, 2.0}});
  Matrix ls = RowLogSoftmax(a);
  Matrix s = RowSoftmax(a);
  for (int c = 0; c < 3; ++c) EXPECT_NEAR(ls(0, c), std::log(s(0, c)), 1e-12);
}

TEST(MatrixTest, ArgMaxRowTiesToLowestIndex) {
  Matrix a = Matrix::FromRows({{1, 5, 5}, {7, 0, 1}});
  EXPECT_EQ(a.ArgMaxRow(0), 1);
  EXPECT_EQ(a.ArgMaxRow(1), 0);
}

TEST(MatrixTest, SumAndSquaredNorm) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, -4}});
  EXPECT_NEAR(a.Sum(), 2.0, 1e-12);
  EXPECT_NEAR(a.SquaredNorm(), 30.0, 1e-12);
}

TEST(MatrixTest, AxpyInPlace) {
  Matrix a = Matrix::FromRows({{1, 1}});
  a.AxpyInPlace(2.0, Matrix::FromRows({{3, 4}}));
  EXPECT_TRUE(AllClose(a, Matrix::FromRows({{7, 9}}), 1e-12));
}

// GrowRows copies the old rows and zeroes only the tail. Sanitizer builds
// fill Matrix::Uninitialized with NaN, so a tail row left unwritten fails
// the +0.0 check there.
TEST(MatrixTest, GrowRowsKeepsOldRowsAndZeroesTheTail) {
  Rng rng(3);
  Matrix src(5, 3);
  for (int r = 0; r < src.rows(); ++r) {
    for (int c = 0; c < src.cols(); ++c) src(r, c) = rng.Normal();
  }
  src(0, 0) = -0.0;
  src(1, 1) = std::numeric_limits<double>::quiet_NaN();
  src(2, 2) = -std::numeric_limits<double>::infinity();
  const Matrix empty(0, 3);
  const Matrix* const sources[] = {&src, &empty};
  for (const Matrix* old : sources) {
    for (int new_rows : {5, 6, 13}) {
      const Matrix grown = GrowRows(*old, new_rows);
      ASSERT_EQ(grown.rows(), new_rows);
      ASSERT_EQ(grown.cols(), old->cols());
      if (old->size() > 0) {
        EXPECT_EQ(std::memcmp(grown.data(), old->data(),
                              static_cast<size_t>(old->size()) *
                                  sizeof(double)),
                  0);
      }
      const double zero = 0.0;
      for (int r = old->rows(); r < new_rows; ++r) {
        for (int c = 0; c < grown.cols(); ++c) {
          EXPECT_EQ(std::memcmp(grown.Row(r) + c, &zero, sizeof(double)), 0)
              << "tail entry (" << r << ", " << c << ")";
        }
      }
    }
  }
}

TEST(AllocTrackerTest, TracksMatrixLifetime) {
  const int64_t before = AllocTracker::CurrentBytes();
  {
    Matrix m(100, 10);
    EXPECT_EQ(AllocTracker::CurrentBytes() - before,
              static_cast<int64_t>(100 * 10 * sizeof(double)));
  }
  EXPECT_EQ(AllocTracker::CurrentBytes(), before);
}

TEST(AllocTrackerTest, PeakReflectsHighWaterMark) {
  AllocTracker::ResetPeak();
  const int64_t base = AllocTracker::PeakBytes();
  {
    Matrix big(1000, 100);
    EXPECT_GE(AllocTracker::PeakBytes(),
              base + static_cast<int64_t>(1000 * 100 * sizeof(double)));
  }
  // Peak persists after the allocation is gone.
  EXPECT_GE(AllocTracker::PeakBytes(),
            base + static_cast<int64_t>(1000 * 100 * sizeof(double)));
}

}  // namespace
}  // namespace ahg
