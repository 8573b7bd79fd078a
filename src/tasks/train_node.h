// Full-batch training of a single node-classification model: a zoo model
// plus a linear classifier head on its last layer output, Adam with weight
// decay, stepwise LR decay, and early stopping on validation accuracy with
// best-epoch prediction capture (the paper's appendix A1 protocol). Each
// fit runs inside one ScopedArena (tensor/pool.h), so its steps recycle
// tensor buffers and the pool is trimmed back when the fit returns.
#ifndef AUTOHENS_TASKS_TRAIN_NODE_H_
#define AUTOHENS_TASKS_TRAIN_NODE_H_

#include <vector>

#include "graph/graph.h"
#include "graph/split.h"
#include "models/model.h"
#include "util/cancel.h"

namespace ahg {

struct TrainConfig {
  int max_epochs = 120;
  int patience = 15;  // early-stop patience in epochs
  double learning_rate = 1e-2;
  double weight_decay = 5e-4;
  double lr_decay = 0.9;
  int lr_decay_every = 3;
  uint64_t seed = 1;  // dropout-noise seed (weight init comes from the model)
  // Kernel threads (SpMM/GEMM) while this model trains; 0 keeps the global
  // SetNumThreads() setting. Ignored when training already runs inside a
  // parallel region (e.g. proxy evaluation), where kernels execute inline.
  int num_threads = 0;
  // Ignored: every fit pools inside its own arena and always fuses
  // (tensor/pool.h). Kept only because perfbench's EnableMemoryPlane still
  // assigns them; delete both together. The job store writes a constant in
  // their place.
  bool pooling = false;
  bool fusion = false;
  // Optional cooperative cancellation, polled at epoch boundaries. A
  // cancelled run returns its best-so-far result early; callers that need
  // complete results must check the token after the call. Not owned; must
  // outlive the run. Safe to set from another thread.
  const CancelToken* cancel = nullptr;
};

struct NodeTrainResult {
  Matrix probs;  // full-graph class probabilities at the best epoch
  double val_accuracy = 0.0;
  double test_accuracy = 0.0;  // 0 when the split has no test nodes
  int best_epoch = 0;
  double train_seconds = 0.0;
};

// Builds the model from `model_config` (in_dim is filled from the graph) and
// trains it on `split`.
NodeTrainResult TrainSingleNodeModel(const ModelConfig& model_config,
                                     const Graph& graph,
                                     const DataSplit& split,
                                     const TrainConfig& train_config);

// The hyper-parameter grid the proxy-evaluation stage searches per model
// (a subset of the paper's appendix grid, sized for CPU budgets).
struct GridSearchSpace {
  std::vector<double> learning_rates{1e-2, 3e-2};
  std::vector<double> dropouts{0.5, 0.25};
};

// Trains every (lr, dropout) combination and returns the best-validation
// result; `best_model_config`/`best_train_config` receive the winning
// settings when non-null.
NodeTrainResult GridSearchTrain(const ModelConfig& model_config,
                                const Graph& graph, const DataSplit& split,
                                const TrainConfig& train_config,
                                const GridSearchSpace& space,
                                ModelConfig* best_model_config,
                                TrainConfig* best_train_config);

}  // namespace ahg

#endif  // AUTOHENS_TASKS_TRAIN_NODE_H_
