// Memory plane: a shape-bucketed recycling pool for Matrix buffers and the
// run-scoped arena that turns it on.
//
// Why: the autodiff engine constructs fresh Matrix values and gradients per
// node per step, so a zoo sweep churns the heap on every epoch even though
// the shapes repeat exactly. Inside a ScopedArena, Matrix::Allocate draws
// from per-size free lists and ~Matrix returns buffers instead of freeing
// them; after one warm-up step the steady-state train step performs zero
// tensor heap allocations (asserted in tests/pool_test.cc via
// AllocTracker::AllocationCount()).
//
// Scope, not switches: pooling is on exactly inside a ScopedArena, and
// every training fit opens one: each single-model fit (tasks/train_node,
// the member retrain in core/trained_ensemble) and the whole gradient-search
// supernet run (core/search_gradient). Nothing else pools. The serving
// engines allocate from the heap: a serving cache product drawn from the
// pool, with no arena ever trimming it, would stay parked after LRU
// eviction for the life of the process. The fused kernels (autodiff/ops.h)
// need no switch either; they are always on.
//
// Determinism: a pooled buffer is zero-filled before reuse when the
// Matrix(r, c) contract asks for zeros, exactly like the `new double[n]()`
// it replaces; Matrix::Uninitialized outputs are written in full by their
// op either way. No kernel changes its reduction order inside an arena —
// results are bitwise identical inside and outside one, at every thread
// count.
//
// Threading: the pooling bit is thread-local (an arena on a proxy worker
// pools only that worker's allocations) while the pool itself is a
// process-wide, mutex-guarded singleton, so a buffer allocated on one
// thread may be released from another. The mutex also publishes buffer
// contents between threads, so recycling is TSan-clean by construction.
#ifndef AUTOHENS_TENSOR_POOL_H_
#define AUTOHENS_TENSOR_POOL_H_

#include <cstdint>

namespace ahg {

// Point-in-time pool counters (monotonic except the idle_* pair). The same
// numbers are mirrored into the obs MetricsRegistry as tensor.pool_hits /
// tensor.pool_misses / tensor.pool_trimmed_bytes and the
// tensor.pool_idle_bytes gauge.
struct MatrixPoolStats {
  int64_t hits = 0;           // Acquire served from a free list
  int64_t misses = 0;         // Acquire fell through to the heap
  int64_t released = 0;       // buffers returned to a free list
  int64_t trimmed_bytes = 0;  // bytes freed back to the heap by TrimTo
  int64_t idle_bytes = 0;     // bytes currently parked in free lists
  int64_t idle_buffers = 0;
};

class MatrixPool {
 public:
  // Process-wide pool used by Matrix. Never destroyed (buffers parked at
  // exit stay reachable), so static-destruction order cannot bite.
  static MatrixPool& Global();

  MatrixPool() = default;
  MatrixPool(const MatrixPool&) = delete;
  MatrixPool& operator=(const MatrixPool&) = delete;

  // A buffer of `n` doubles, zero-filled when `zero` (the Matrix(r, c)
  // contract); from the size-n free list when possible, else the heap
  // (which counts as an AllocTracker allocation — pool hits do not).
  double* Acquire(int64_t n, bool zero);

  // Parks `ptr` (previously Acquired with the same `n`) for reuse.
  void Release(double* ptr, int64_t n);

  // Frees idle buffers, most-recently-parked first, until at most
  // `target_idle_bytes` remain parked. ScopedArena calls this with its
  // entry watermark so a finished run hands its temporaries back to the
  // heap instead of hoarding shapes no later run will request.
  void TrimTo(int64_t target_idle_bytes);

  // TrimTo(0): every idle buffer goes back to the heap.
  void Clear() { TrimTo(0); }

  MatrixPoolStats Stats() const;
  int64_t IdleBytes() const;
};

// True when Matrix allocations on this thread go through the pool, i.e.
// inside a ScopedArena.
bool PoolingEnabled();

// Run-scoped arena: pools this thread's allocations for the scope's
// lifetime and, on destruction, trims the global pool back to the idle-byte
// watermark observed at entry — every temporary the scope parked is
// reclaimed at once, while buffers that predate the scope stay warm.
// Training wraps each model fit in one ScopedArena; steps inside the scope
// recycle through the free lists. Nestable.
class ScopedArena {
 public:
  ScopedArena();
  ~ScopedArena();

  ScopedArena(const ScopedArena&) = delete;
  ScopedArena& operator=(const ScopedArena&) = delete;

 private:
  bool saved_pooling_;
  int64_t entry_idle_bytes_;
};

}  // namespace ahg

#endif  // AUTOHENS_TENSOR_POOL_H_
