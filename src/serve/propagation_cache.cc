#include "serve/propagation_cache.h"

#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ahg::serve {

std::string PropagationKey(const std::string& graph_id, int model_version) {
  return graph_id + "/v" + std::to_string(model_version);
}

std::string GraphId(uint64_t generation) {
  return StrFormat("g%lld", static_cast<long long>(generation));
}

std::string GraphId(const std::string& scope, uint64_t generation) {
  AHG_CHECK(scope.find('/') == std::string::npos);
  if (scope.empty()) return GraphId(generation);
  return scope + ":" + GraphId(generation);
}

PropagationCache::PropagationCache(int64_t byte_budget)
    : byte_budget_(byte_budget),
      m_evictions_(
          obs::MetricsRegistry::Global().GetCounter("serve.cache_evictions")),
      m_entries_(
          obs::MetricsRegistry::Global().GetGauge("serve.cache_entries")) {}

std::shared_ptr<const Matrix> PropagationCache::GetOrCompute(
    const std::string& key, const std::function<Matrix()>& compute) {
  std::shared_future<std::shared_ptr<const Matrix>> future;
  std::promise<std::shared_ptr<const Matrix>> promise;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      future = HitLocked(it);
    } else {
      ++misses_;
      owner = true;
      Entry entry;
      entry.future = promise.get_future().share();
      entry.last_used = ++tick_;
      entry.owner = &promise;
      future = entry.future;
      entries_.emplace(key, std::move(entry));
      m_entries_->Set(static_cast<double>(entries_.size()));
    }
  }
  if (owner) {
    std::shared_ptr<const Matrix> value;
    try {
      AHG_TRACE_SPAN("serve/cache_compute");
      value = std::make_shared<const Matrix>(compute());
    } catch (...) {
      // Unfulfilled promises poison every waiter: erase the in-flight
      // entry so later requests recompute, hand the exception to the
      // waiters blocked on the future, and rethrow to this caller.
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.owner == &promise) {
          entries_.erase(it);
          m_entries_->Set(static_cast<double>(entries_.size()));
        }
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    const int64_t bytes =
        value->size() * static_cast<int64_t>(sizeof(double));
    promise.set_value(value);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    // The entry may have been Invalidate()d/Clear()ed (and possibly
    // re-inserted by a newer call) while computing; only account for the
    // entry this call owns.
    if (it != entries_.end() && it->second.owner == &promise &&
        !it->second.ready) {
      it->second.bytes = bytes;
      it->second.ready = true;
      bytes_ += bytes;
      EvictLocked(key);
    }
    return value;
  }
  return future.get();
}

std::shared_future<std::shared_ptr<const Matrix>> PropagationCache::Find(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  return HitLocked(it);
}

std::shared_future<std::shared_ptr<const Matrix>> PropagationCache::HitLocked(
    std::unordered_map<std::string, Entry>::iterator it) {
  ++hits_;
  it->second.last_used = ++tick_;
  return it->second.future;
}

void PropagationCache::EvictLocked(const std::string& keep) {
  if (byte_budget_ <= 0) return;
  while (bytes_ > byte_budget_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.ready || it->first == keep) continue;
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // nothing evictable
    bytes_ -= victim->second.bytes;
    ++evictions_;
    m_evictions_->Increment();
    entries_.erase(victim);
    m_entries_->Set(static_cast<double>(entries_.size()));
  }
}

void PropagationCache::Put(const std::string& key,
                           std::shared_ptr<const Matrix> value) {
  AHG_CHECK(value != nullptr);
  const int64_t bytes = value->size() * static_cast<int64_t>(sizeof(double));
  std::promise<std::shared_ptr<const Matrix>> promise;
  promise.set_value(std::move(value));
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  Entry& entry = entries_[key];
  if (entry.ready) bytes_ -= entry.bytes;
  entry.future = promise.get_future().share();
  entry.bytes = bytes;
  entry.last_used = tick_;
  entry.ready = true;
  // A concurrent GetOrCompute owner for this key may still be computing; it
  // recognizes the replacement through the owner token and discards its
  // result without double-accounting.
  entry.owner = nullptr;
  bytes_ += bytes;
  m_entries_->Set(static_cast<double>(entries_.size()));
  EvictLocked(key);
}

void PropagationCache::Invalidate(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  if (it->second.ready) bytes_ -= it->second.bytes;
  entries_.erase(it);
  m_entries_->Set(static_cast<double>(entries_.size()));
}

void PropagationCache::InvalidateGraph(const std::string& graph_id) {
  const std::string prefix = graph_id + "/";
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      if (it->second.ready) bytes_ -= it->second.bytes;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  m_entries_->Set(static_cast<double>(entries_.size()));
}

void PropagationCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  bytes_ = 0;
  m_entries_->Set(0.0);
}

int64_t PropagationCache::current_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

int64_t PropagationCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t PropagationCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

int64_t PropagationCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

int64_t PropagationCache::num_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

}  // namespace ahg::serve
