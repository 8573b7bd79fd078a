// Memory plane: MatrixPool recycling, arena trimming, AllocTracker
// accounting, fused-kernel bitwise identity, training steps that are
// bitwise identical inside and outside a ScopedArena, and the steady-state
// zero-allocation guarantee for training steps.
#include "tensor/pool.h"

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "autodiff/ops.h"
#include "graph/split.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "models/model.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "tensor/alloc_tracker.h"
#include "tensor/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ahg {
namespace {

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

TEST(MatrixPoolTest, HitReturnsZeroedRecycledBuffer) {
  ScopedArena arena;
  const MatrixPoolStats before = MatrixPool::Global().Stats();
  const double* first;
  {
    Matrix m(7, 13);
    m.Fill(3.5);
    first = m.data();
  }
  Matrix n(7, 13);  // same element count -> must recycle the same buffer
  EXPECT_EQ(n.data(), first);
  for (int64_t i = 0; i < n.size(); ++i) EXPECT_EQ(n.data()[i], 0.0);
  const MatrixPoolStats after = MatrixPool::Global().Stats();
  EXPECT_GE(after.hits, before.hits + 1);
}

TEST(MatrixPoolTest, PooledBufferReturnsToPoolAfterArenaExit) {
  Matrix m;
  {
    ScopedArena arena;
    m = Matrix(5, 5);
  }
  // The arena has closed, but the buffer is pool-origin: destroying the
  // matrix must hand it back to the pool, not the heap.
  const MatrixPoolStats before = MatrixPool::Global().Stats();
  m = Matrix();
  const MatrixPoolStats after = MatrixPool::Global().Stats();
  EXPECT_EQ(after.released, before.released + 1);
}

TEST(MatrixPoolTest, ArenaTrimsBackToEntryWatermark) {
  const int64_t idle_before = MatrixPool::Global().IdleBytes();
  {
    ScopedArena arena;
    { Matrix big(64, 257); }  // an idle size no other test uses
    EXPECT_GT(MatrixPool::Global().IdleBytes(), idle_before);
  }
  EXPECT_EQ(MatrixPool::Global().IdleBytes(), idle_before);
}

TEST(MatrixPoolTest, PoolHitsDoNotCountAsHeapAllocations) {
  ScopedArena arena;
  { Matrix warm(11, 17); }  // seed the bucket (may heap-allocate)
  const int64_t count_before = AllocTracker::AllocationCount();
  { Matrix hit(11, 17); }
  EXPECT_EQ(AllocTracker::AllocationCount(), count_before);
}

TEST(MatrixPoolTest, ConcurrentAcquireReleaseAndCrossThreadFree) {
  // Hammers the pool from several threads (TSan/ASan coverage) including
  // buffers allocated on one thread and destroyed on another.
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<Matrix> handoff(kThreads);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([t, &handoff] {
        ScopedArena arena;
        for (int i = 0; i < kIters; ++i) {
          Matrix a(3 + (i % 5), 8);
          Matrix b(16, 16);
          a.Fill(1.0);
          b.Fill(2.0);
        }
        handoff[t] = Matrix(9, 9);  // destroyed by the main thread below
        handoff[t].Fill(static_cast<double>(t));
      });
    }
    for (auto& w : workers) w.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(handoff[t](0, 0), static_cast<double>(t));
    handoff[t] = Matrix();  // cross-thread release
  }
}

TEST(AllocTrackerTest, AllocationCountAndTotalBytesAreMonotonic) {
  const int64_t count_before = AllocTracker::AllocationCount();
  const int64_t total_before = AllocTracker::TotalAllocatedBytes();
  { Matrix m(6, 10); }
  EXPECT_EQ(AllocTracker::AllocationCount(), count_before + 1);
  EXPECT_EQ(AllocTracker::TotalAllocatedBytes(),
            total_before + 6 * 10 * static_cast<int64_t>(sizeof(double)));
}

TEST(AllocTrackerTest, ResetPeakLowersToCurrent) {
  Matrix keep(4, 4);
  { Matrix transient(128, 128); }
  EXPECT_GT(AllocTracker::PeakBytes(), AllocTracker::CurrentBytes());
  AllocTracker::ResetPeak();
  EXPECT_EQ(AllocTracker::PeakBytes(), AllocTracker::CurrentBytes());
}

TEST(AllocTrackerTest, ResetPeakRaceKeepsPeakAboveCurrent) {
  // Regression for the blind-store ResetPeak: concurrent Add/Remove while
  // another thread resets must never leave peak < current.
  std::atomic<bool> stop{false};
  std::thread churn([&stop] {
    while (!stop.load()) {
      Matrix a(32, 32);
      Matrix b(64, 64);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    AllocTracker::ResetPeak();
    EXPECT_GE(AllocTracker::PeakBytes(), 0);
  }
  stop.store(true);
  churn.join();
  EXPECT_GE(AllocTracker::PeakBytes(), AllocTracker::CurrentBytes());
}

TEST(FusedOpsTest, LinearReluMatchesUnfusedChainBitwise) {
  Rng rng(11);
  for (bool with_bias : {true, false}) {
    Matrix xv = Matrix::Gaussian(9, 6, 1.0, &rng);
    Matrix wv = Matrix::Gaussian(6, 5, 1.0, &rng);
    Matrix bv = Matrix::Gaussian(1, 5, 1.0, &rng);

    auto run = [&](bool fused) {
      Var x = MakeParam(xv);
      Var w = MakeParam(wv);
      Var b = with_bias ? MakeParam(bv) : Var();
      Var out;
      if (fused) {
        out = LinearRelu(x, w, b);
      } else {
        Var pre = MatMul(x, w);
        if (b) pre = AddRowVector(pre, b);
        out = Relu(pre);
      }
      Backward(SumAll(out));
      std::vector<Matrix> r = {out->value, x->grad, w->grad};
      if (b) r.push_back(b->grad);
      return r;
    };

    const std::vector<Matrix> unfused = run(false);
    const std::vector<Matrix> fused = run(true);
    ASSERT_EQ(unfused.size(), fused.size());
    for (size_t i = 0; i < unfused.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(unfused[i], fused[i]))
          << "with_bias=" << with_bias << " tensor " << i;
    }
  }
}

// MaskedCrossEntropy reads only the masked rows; its loss must equal the
// reference that indexes the full RowLogSoftmax, bit for bit.
TEST(FusedOpsTest, MaskedCrossEntropyMatchesFullLogSoftmaxBitwise) {
  Rng rng(5);
  Matrix logits_v = Matrix::Gaussian(20, 4, 1.5, &rng);
  std::vector<int> labels(20);
  for (int i = 0; i < 20; ++i) labels[i] = i % 4;
  std::vector<int> mask = {0, 3, 7, 11, 19};

  const Matrix logp = RowLogSoftmax(logits_v);
  double nll = 0.0;
  for (int idx : mask) nll -= logp(idx, labels[idx]);
  const double expected = nll * (1.0 / static_cast<double>(mask.size()));

  Var loss = MaskedCrossEntropy(MakeParam(logits_v), labels, mask);
  const double got = loss->value(0, 0);
  EXPECT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
      << got << " vs " << expected;
}

Graph SmallGraph(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_nodes = 120;
  cfg.num_classes = 3;
  cfg.feature_dim = 10;
  cfg.avg_degree = 4.0;
  cfg.homophily = 0.8;
  cfg.feature_signal = 1.0;
  cfg.seed = seed;
  return GenerateSbmGraph(cfg);
}

ModelConfig ZooConfig(ModelFamily family) {
  ModelConfig cfg;
  cfg.family = family;
  cfg.hidden_dim = 12;
  cfg.num_layers = 2;
  cfg.dropout = 0.3;
  cfg.seed = 2;
  return cfg;
}

// The steps of a training fit — zoo model, linear head, Adam and a dropout
// stream — without TrainSingleNodeModel's arena, so each test chooses
// whether they run inside one.
class TrainSteps {
 public:
  TrainSteps(ModelFamily family, const Graph& g, const DataSplit& split)
      : g_(g), split_(split), dropout_rng_(17) {
    ModelConfig cfg = ZooConfig(family);
    cfg.in_dim = g.feature_dim();
    model_ = BuildModel(cfg);
    Rng init_rng(cfg.seed ^ 0x9e3779b9ULL);
    head_ = std::make_unique<Linear>(model_->params(), cfg.hidden_dim,
                                     g.num_classes(), /*bias=*/true,
                                     &init_rng);
    optimizer_ = std::make_unique<Adam>(model_->params()->params(),
                                        AdamConfig{});
    features_ = MakeConstant(g.features());
  }

  void Step() {
    model_->params()->ZeroGrad();
    Backward(MaskedCrossEntropy(Logits(/*training=*/true), g_.labels(),
                                split_.train));
    optimizer_->Step();
  }

  // Every parameter, then the eval-mode logits.
  std::vector<Matrix> ParamsAndLogits() {
    std::vector<Matrix> out = model_->params()->Snapshot();
    out.push_back(Logits(/*training=*/false)->value);
    return out;
  }

 private:
  Var Logits(bool training) {
    GnnContext ctx;
    ctx.graph = &g_;
    ctx.training = training;
    ctx.rng = &dropout_rng_;
    return head_->Apply(model_->LayerOutputs(ctx, features_).back());
  }

  const Graph& g_;
  const DataSplit& split_;
  Rng dropout_rng_;
  std::unique_ptr<GnnModel> model_;
  std::unique_ptr<Linear> head_;
  std::unique_ptr<Adam> optimizer_;
  Var features_;
};

// Pooling changes where buffers come from, never what is computed: six
// steps inside a ScopedArena must reproduce the same steps outside any
// arena bitwise, for every exercised zoo family and kernel thread count.
TEST(MemPlaneBitwiseTest, TrainStepsIdenticalInsideArenaAcrossThreads) {
  const Graph g = SmallGraph(21);
  Rng rng(4);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  const ModelFamily families[] = {ModelFamily::kGcn,   ModelFamily::kMlp,
                                  ModelFamily::kTagcn, ModelFamily::kGin,
                                  ModelFamily::kGcnii, ModelFamily::kJkMax};
  auto run = [&](ModelFamily family) {
    TrainSteps steps(family, g, split);
    for (int i = 0; i < 6; ++i) steps.Step();
    return steps.ParamsAndLogits();
  };
  for (ModelFamily family : families) {
    std::vector<Matrix> plain;
    {
      ScopedNumThreads one(1);
      plain = run(family);
    }
    for (int threads : {1, 2, 4}) {
      ScopedNumThreads scoped(threads);
      const int64_t hits_before = MatrixPool::Global().Stats().hits;
      std::vector<Matrix> pooled;
      {
        ScopedArena arena;
        pooled = run(family);
      }
      EXPECT_GT(MatrixPool::Global().Stats().hits, hits_before)
          << ModelFamilyName(family) << ": the arena did not pool";
      ASSERT_EQ(plain.size(), pooled.size());
      for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_TRUE(BitwiseEqual(plain[i], pooled[i]))
            << ModelFamilyName(family) << " threads=" << threads
            << (i + 1 == plain.size() ? " logits" : " param ") << i;
      }
    }
  }
}

// The acceptance bar for the memory plane: after warm-up, a full GCN train
// step (forward, loss, backward, Adam) inside an arena performs zero tensor
// heap allocations — every buffer is a pool hit.
TEST(MemPlaneSteadyStateTest, GcnTrainStepAllocatesNothingAfterWarmup) {
  const Graph g = SmallGraph(55);
  Rng split_rng(3);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &split_rng);

  ScopedArena arena;
  TrainSteps steps(ModelFamily::kGcn, g, split);
  for (int i = 0; i < 3; ++i) steps.Step();  // warm the pool + Adam state
  const int64_t allocs_before = AllocTracker::AllocationCount();
  const MatrixPoolStats pool_before = MatrixPool::Global().Stats();
  for (int i = 0; i < 2; ++i) steps.Step();
  EXPECT_EQ(AllocTracker::AllocationCount(), allocs_before)
      << "steady-state train step hit the heap";
  const MatrixPoolStats pool_after = MatrixPool::Global().Stats();
  EXPECT_EQ(pool_after.misses, pool_before.misses);
  EXPECT_GT(pool_after.hits, pool_before.hits);
}

}  // namespace
}  // namespace ahg
