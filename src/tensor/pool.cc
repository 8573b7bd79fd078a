#include "tensor/pool.h"

#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "tensor/aligned.h"
#include "tensor/alloc_tracker.h"

namespace ahg {
namespace {

thread_local bool tl_pooling = false;

struct PoolMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* released;
  obs::Counter* trimmed_bytes;
  obs::Gauge* idle_bytes;
};

// Registered once; Counter/Gauge handles are stable for process lifetime.
PoolMetrics& Metrics() {
  static PoolMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return PoolMetrics{reg.GetCounter("tensor.pool_hits"),
                       reg.GetCounter("tensor.pool_misses"),
                       reg.GetCounter("tensor.pool_released"),
                       reg.GetCounter("tensor.pool_trimmed_bytes"),
                       reg.GetGauge("tensor.pool_idle_bytes")};
  }();
  return m;
}

// A parked buffer plus the release order it was parked at, so TrimTo can
// free newest-parked-first without the acquire path maintaining any
// cross-bucket ordering.
struct IdleBuffer {
  double* ptr;
  int64_t seq;
};

struct PoolState {
  mutable std::mutex mu;
  // Exact-size buckets: GNN training repeats the same shapes every step,
  // so best-fit search buys nothing over an exact-size hash lookup.
  // Buckets are stacks — Acquire pops the most recently parked buffer,
  // which is the one most likely still cache-warm.
  std::unordered_map<int64_t, std::vector<IdleBuffer>> free_lists;
  int64_t next_seq = 0;
  MatrixPoolStats stats;
};

PoolState& State() {
  static PoolState* state = new PoolState();  // leaked: see Global() contract
  return *state;
}

}  // namespace

MatrixPool& MatrixPool::Global() {
  static MatrixPool* pool = new MatrixPool();
  return *pool;
}

double* MatrixPool::Acquire(int64_t n, bool zero) {
  PoolState& s = State();
  double* buffer = nullptr;
  int64_t idle_now = 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.free_lists.find(n);
    if (it != s.free_lists.end() && !it->second.empty()) {
      buffer = it->second.back().ptr;
      it->second.pop_back();
      ++s.stats.hits;
      s.stats.idle_bytes -= n * static_cast<int64_t>(sizeof(double));
      --s.stats.idle_buffers;
      idle_now = s.stats.idle_bytes;
    } else {
      ++s.stats.misses;
    }
  }
  if (buffer != nullptr) {
    Metrics().hits->Increment();
    Metrics().idle_bytes->Set(static_cast<double>(idle_now));
    if (zero) std::memset(buffer, 0, static_cast<size_t>(n) * sizeof(double));
    return buffer;
  }
  Metrics().misses->Increment();
  buffer = AlignedAllocDoubles(n, zero);
  AllocTracker::Add(static_cast<size_t>(n) * sizeof(double));
  return buffer;
}

void MatrixPool::Release(double* ptr, int64_t n) {
  PoolState& s = State();
  int64_t idle_now = 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.free_lists[n].push_back({ptr, s.next_seq++});
    ++s.stats.released;
    s.stats.idle_bytes += n * static_cast<int64_t>(sizeof(double));
    ++s.stats.idle_buffers;
    idle_now = s.stats.idle_bytes;
  }
  Metrics().released->Increment();
  Metrics().idle_bytes->Set(static_cast<double>(idle_now));
}

void MatrixPool::TrimTo(int64_t target_idle_bytes) {
  PoolState& s = State();
  std::vector<std::pair<double*, int64_t>> to_free;
  int64_t idle_now = 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    while (s.stats.idle_bytes > target_idle_bytes) {
      // Newest-parked buffer across all buckets (each bucket is a stack, so
      // only bucket backs need comparing). O(buckets) per freed buffer —
      // fine for a per-run reclamation pass, and it keeps Acquire/Release
      // free of any cross-bucket bookkeeping.
      std::vector<IdleBuffer>* newest_bucket = nullptr;
      int64_t newest_n = 0;
      for (auto& [size, bucket] : s.free_lists) {
        if (bucket.empty()) continue;
        if (newest_bucket == nullptr ||
            bucket.back().seq > newest_bucket->back().seq) {
          newest_bucket = &bucket;
          newest_n = size;
        }
      }
      if (newest_bucket == nullptr) break;
      to_free.emplace_back(newest_bucket->back().ptr, newest_n);
      newest_bucket->pop_back();
      s.stats.idle_bytes -= newest_n * static_cast<int64_t>(sizeof(double));
      --s.stats.idle_buffers;
      s.stats.trimmed_bytes += newest_n * static_cast<int64_t>(sizeof(double));
    }
    idle_now = s.stats.idle_bytes;
  }
  int64_t freed = 0;
  for (const auto& [ptr, n] : to_free) {
    AllocTracker::Remove(static_cast<size_t>(n) * sizeof(double));
    AlignedFreeDoubles(ptr);
    freed += n * static_cast<int64_t>(sizeof(double));
  }
  if (freed > 0) {
    Metrics().trimmed_bytes->Increment(freed);
    Metrics().idle_bytes->Set(static_cast<double>(idle_now));
  }
}

MatrixPoolStats MatrixPool::Stats() const {
  PoolState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.stats;
}

int64_t MatrixPool::IdleBytes() const {
  PoolState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.stats.idle_bytes;
}

bool PoolingEnabled() { return tl_pooling; }

ScopedArena::ScopedArena()
    : saved_pooling_(tl_pooling),
      entry_idle_bytes_(MatrixPool::Global().IdleBytes()) {
  tl_pooling = true;
}

ScopedArena::~ScopedArena() {
  tl_pooling = saved_pooling_;
  MatrixPool::Global().TrimTo(entry_idle_bytes_);
}

}  // namespace ahg
