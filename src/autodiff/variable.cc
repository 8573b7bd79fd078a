#include "autodiff/variable.h"

#include <unordered_set>

#include "obs/trace.h"
#include "tensor/pool.h"

namespace ahg {
namespace {

// Depth of nested ScopedInferenceMode regions on this thread.
thread_local int tl_inference_depth = 0;

}  // namespace

ScopedInferenceMode::ScopedInferenceMode() { ++tl_inference_depth; }

ScopedInferenceMode::~ScopedInferenceMode() { --tl_inference_depth; }

bool InInferenceMode() { return tl_inference_depth > 0; }

void Node::AccumulateGrad(const Matrix& delta) {
  if (HasGrad()) {
    grad.AddInPlace(delta);
    return;
  }
  AHG_CHECK(delta.rows() == rows() && delta.cols() == cols());
  grad = Matrix::Uninitialized(rows(), cols());
  for (int64_t i = 0; i < grad.size(); ++i) {
    grad.data()[i] = 0.0 + delta.data()[i];
  }
}

void Node::AccumulateGrad(Matrix&& delta) {
  if (HasGrad()) {
    grad.AddInPlace(delta);
    return;
  }
  AHG_CHECK(delta.rows() == rows() && delta.cols() == cols());
  for (int64_t i = 0; i < delta.size(); ++i) {
    delta.data()[i] = 0.0 + delta.data()[i];
  }
  grad = std::move(delta);
}

void Node::AccumulateGradScaled(double alpha, const Matrix& delta) {
  if (HasGrad()) {
    grad.AxpyInPlace(alpha, delta);
    return;
  }
  AHG_CHECK(delta.rows() == rows() && delta.cols() == cols());
  grad = Matrix::Uninitialized(rows(), cols());
  for (int64_t i = 0; i < grad.size(); ++i) {
    grad.data()[i] = 0.0 + alpha * delta.data()[i];
  }
}

Var MakeParam(Matrix value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = true;
  return node;
}

Var MakeConstant(Matrix value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = false;
  return node;
}

Var MakeOpNode(Matrix value, std::vector<Var> parents,
               std::function<void(const Node&)> backward_fn) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  if (InInferenceMode()) return node;  // detached: no tape, no parents
  for (const auto& p : parents) {
    if (p->requires_grad) {
      node->requires_grad = true;
      break;
    }
  }
  node->parents = std::move(parents);
  if (node->requires_grad) node->backward_fn = std::move(backward_fn);
  return node;
}

namespace {

// Iterative post-order DFS; returns nodes so that every node appears after
// all nodes that depend on it when the list is traversed in reverse.
void TopoSort(const Var& root, std::vector<Node*>* order) {
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (root->requires_grad) {
    stack.push_back({root.get(), 0});
    visited.insert(root.get());
  }
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      Node* parent = frame.node->parents[frame.next_parent].get();
      ++frame.next_parent;
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order->push_back(frame.node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Var& root) {
  AHG_CHECK_MSG(root->rows() == 1 && root->cols() == 1,
                "Backward root must be a scalar, got "
                    << root->rows() << "x" << root->cols());
  AHG_CHECK_MSG(root->requires_grad,
                "Backward root does not depend on any parameter");
  std::vector<Node*> order;
  TopoSort(root, &order);
  AHG_TRACE_SPAN_ARG("autodiff/backward",
                     static_cast<int64_t>(order.size()));
  root->EnsureGrad();
  root->grad(0, 0) += 1.0;
  // Post-order lists dependencies first; reverse iteration therefore visits
  // every consumer before its producers.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      AHG_TRACE_SPAN_ARG("autodiff/backward_op",
                         node->value.size());
      node->backward_fn(*node);
      // Reverse-topo order means every consumer of this op node has already
      // run, and only consumers read a node's grad — it is dead from here
      // on. Inside an arena, hand the buffer back immediately so the
      // sweep's later (larger, earlier-layer) grads recycle it instead of
      // growing the arena; leaves keep their grads for the optimizer.
      if (PoolingEnabled()) node->grad = Matrix();
    }
  }
}

}  // namespace ahg
