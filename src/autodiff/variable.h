// Tape-based reverse-mode automatic differentiation.
//
// A Var is a shared handle to a Node holding a dense value, an (optionally
// lazily allocated) gradient, its parents in the computation DAG and a
// backward closure. Ops (autodiff/ops.h, autodiff/graph_ops.h) build the DAG
// dynamically; Backward() runs a topological sweep from a scalar root.
//
// Gradients accumulate (+=) so a Var consumed by several ops receives the sum
// of its consumers' contributions, matching the chain rule for shared
// subexpressions. The first contribution to an unset grad is written, not
// added: 0.0 + delta into a buffer that is never zero-filled (or into the
// delta's own buffer when it is a temporary). That is exactly what a zeroed
// grad plus += evaluates, -0.0 becoming +0.0 included, so no bit moves.
#ifndef AUTOHENS_AUTODIFF_VARIABLE_H_
#define AUTOHENS_AUTODIFF_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace ahg {

struct Node;
using Var = std::shared_ptr<Node>;

struct Node {
  Matrix value;
  Matrix grad;  // Same shape as value once EnsureGrad() runs; else empty.
  bool requires_grad = false;
  std::vector<Var> parents;
  // Propagates this node's grad into its parents' grads. Null for leaves.
  std::function<void(const Node&)> backward_fn;

  int rows() const { return value.rows(); }
  int cols() const { return value.cols(); }

  // True once grad has value's shape.
  bool HasGrad() const {
    return grad.rows() == value.rows() && grad.cols() == value.cols();
  }

  // Allocates grad as zeros if not yet present.
  void EnsureGrad() {
    if (!HasGrad()) grad = Matrix(value.rows(), value.cols());
  }

  // grad += delta; an unset grad becomes 0.0 + delta without a zero-fill.
  // The rvalue form rewrites a temporary delta in place and moves it in.
  void AccumulateGrad(const Matrix& delta);
  void AccumulateGrad(Matrix&& delta);
  // grad += alpha * delta; an unset grad becomes 0.0 + alpha * delta.
  void AccumulateGradScaled(double alpha, const Matrix& delta);

  void ZeroGrad() {
    if (!grad.empty()) grad.SetZero();
  }
};

// Leaf with gradient tracking (a trainable parameter).
Var MakeParam(Matrix value);

// Leaf without gradient tracking (input features, cached predictions).
Var MakeConstant(Matrix value);

// Internal: creates an op output node. `requires_grad` is inferred from
// parents; callers provide the backward closure. Inside an inference-mode
// region the node is created detached: no parents, no backward closure,
// requires_grad = false.
Var MakeOpNode(Matrix value, std::vector<Var> parents,
               std::function<void(const Node&)> backward_fn);

// RAII tape switch for the frozen serving path. While a ScopedInferenceMode
// is live on this thread, every op output is detached from the DAG, so
// intermediate activations free as soon as their local handles die and a
// forward pass retains no backward closures. Forward values are unchanged —
// ops only differ in what bookkeeping they keep. Nestable; thread-local.
class ScopedInferenceMode {
 public:
  ScopedInferenceMode();
  ~ScopedInferenceMode();

  ScopedInferenceMode(const ScopedInferenceMode&) = delete;
  ScopedInferenceMode& operator=(const ScopedInferenceMode&) = delete;
};

// True while a ScopedInferenceMode is live on this thread.
bool InInferenceMode();

// Runs reverse-mode accumulation from `root`, which must be a 1x1 scalar.
// Seeds d(root)/d(root) = 1 and fills `grad` on every reachable node with
// requires_grad. Gradients are accumulated on top of existing values, so
// call ZeroGrad on parameters (see nn/parameter_store.h) between steps.
void Backward(const Var& root);

}  // namespace ahg

#endif  // AUTOHENS_AUTODIFF_VARIABLE_H_
