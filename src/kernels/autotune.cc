#include "kernels/autotune.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace ahg::kernels {
namespace {

constexpr char kProfileHeader[] = "ahg-tuning 1";

std::atomic<bool>& AutotuneState() {
  static std::atomic<bool> enabled{[] {
    const char* env = std::getenv("AHG_AUTOTUNE");
    return !(env != nullptr && std::strcmp(env, "0") == 0);
  }()};
  return enabled;
}

int64_t Pow2Bucket(int64_t v) {
  if (v <= 1) return 1;
  int64_t b = 1;
  while (b < v && b < (int64_t{1} << 62)) b <<= 1;
  return b;
}

// Forced-variant hooks: set on the main thread before any parallel region,
// read-only while kernels run.
const GemmChoice* g_forced_gemm = nullptr;
const SpmmChoice* g_forced_spmm = nullptr;

}  // namespace

bool AutotuneEnabled() {
  return AutotuneState().load(std::memory_order_relaxed);
}

void SetAutotuneEnabled(bool enabled) {
  AutotuneState().store(enabled, std::memory_order_relaxed);
}

std::string GemmShapeKey(Tier tier, int k, int n, int64_t m) {
  std::ostringstream os;
  os << TierName(tier) << ":k" << k << ":n" << n << ":m" << Pow2Bucket(m);
  return os.str();
}

std::string SpmmShapeKey(Tier tier, int64_t rows, int64_t nnz, int cols) {
  std::ostringstream os;
  os << TierName(tier) << ":r" << Pow2Bucket(rows) << ":z" << Pow2Bucket(nnz)
     << ":c" << cols;
  return os.str();
}

KernelTuner& KernelTuner::Global() {
  static KernelTuner* tuner = new KernelTuner();
  return *tuner;
}

GemmChoice KernelTuner::GetGemm(
    const std::string& key, const std::vector<GemmChoice>& candidates,
    const std::function<double(const GemmChoice&)>& bench) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gemm_.find(key);
  if (it != gemm_.end()) return it->second;
  GemmChoice best;
  if (!candidates.empty()) best = candidates[0];
  if (candidates.size() > 1 && AutotuneEnabled() && bench) {
    double best_score = bench(best);
    for (size_t i = 1; i < candidates.size(); ++i) {
      const double score = bench(candidates[i]);
      if (score < best_score) {
        best_score = score;
        best = candidates[i];
      }
    }
    ++benchmark_runs_;
  }
  gemm_.emplace(key, best);
  return best;
}

SpmmChoice KernelTuner::GetSpmm(
    const std::string& key, const std::vector<SpmmChoice>& candidates,
    const std::function<double(const SpmmChoice&)>& bench) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spmm_.find(key);
  if (it != spmm_.end()) return it->second;
  SpmmChoice best;
  if (!candidates.empty()) best = candidates[0];
  if (candidates.size() > 1 && AutotuneEnabled() && bench) {
    double best_score = bench(best);
    for (size_t i = 1; i < candidates.size(); ++i) {
      const double score = bench(candidates[i]);
      if (score < best_score) {
        best_score = score;
        best = candidates[i];
      }
    }
    ++benchmark_runs_;
  }
  spmm_.emplace(key, best);
  return best;
}

bool KernelTuner::LookupGemm(const std::string& key, GemmChoice* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gemm_.find(key);
  if (it == gemm_.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

bool KernelTuner::LookupSpmm(const std::string& key, SpmmChoice* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spmm_.find(key);
  if (it == spmm_.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

void KernelTuner::PutGemm(const std::string& key, const GemmChoice& choice) {
  std::lock_guard<std::mutex> lock(mu_);
  gemm_[key] = choice;
}

void KernelTuner::PutSpmm(const std::string& key, const SpmmChoice& choice) {
  std::lock_guard<std::mutex> lock(mu_);
  spmm_[key] = choice;
}

int64_t KernelTuner::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(gemm_.size() + spmm_.size());
}

int64_t KernelTuner::benchmark_runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return benchmark_runs_;
}

void KernelTuner::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  gemm_.clear();
  spmm_.clear();
  benchmark_runs_ = 0;
}

std::string KernelTuner::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << kProfileHeader << "\n";
  for (const auto& [key, choice] : gemm_) {
    // The third field is reserved: written as 0 and ignored on load, so
    // profiles stay readable by and from builds that stored a register-block
    // width there.
    os << "gemm\t" << key << "\t0\t" << choice.kpanel << "\n";
  }
  for (const auto& [key, choice] : spmm_) {
    os << "spmm\t" << key << "\t" << choice.cblock << "\t"
       << (choice.nnz_split ? 1 : 0) << "\n";
  }
  return os.str();
}

bool KernelTuner::Deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kProfileHeader) return false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind, key, f2, f3;
    if (!std::getline(fields, kind, '\t') || !std::getline(fields, key, '\t') ||
        !std::getline(fields, f2, '\t') || !std::getline(fields, f3, '\t')) {
      continue;  // malformed row; skip rather than drop the whole profile
    }
    int v2 = 0;
    int v3 = 0;
    if (!ParseInt(f2, &v2) || !ParseInt(f3, &v3)) continue;
    if (kind == "gemm") {
      PutGemm(key, GemmChoice{v3});
    } else if (kind == "spmm") {
      PutSpmm(key, SpmmChoice{v2, v3 != 0});
    }
    // Other kinds are skipped: rows from newer writers, and the obsolete
    // gemm_ta / gemm_tb tile-width rows older writers emitted.
  }
  return true;
}

bool KernelTuner::SaveFile(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return false;
    out << Serialize();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool KernelTuner::LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!Deserialize(buf.str())) {
    AHG_LOG(Warning) << "ignoring malformed tuning profile " << path;
    return false;
  }
  return true;
}

const GemmChoice* ForcedGemm() { return g_forced_gemm; }
const SpmmChoice* ForcedSpmm() { return g_forced_spmm; }

ScopedForcedGemm::ScopedForcedGemm(const GemmChoice& choice)
    : saved_(g_forced_gemm), choice_(choice) {
  g_forced_gemm = &choice_;
}

ScopedForcedGemm::~ScopedForcedGemm() { g_forced_gemm = saved_; }

ScopedForcedSpmm::ScopedForcedSpmm(const SpmmChoice& choice)
    : saved_(g_forced_spmm), choice_(choice) {
  g_forced_spmm = &choice_;
}

ScopedForcedSpmm::~ScopedForcedSpmm() { g_forced_spmm = saved_; }

}  // namespace ahg::kernels
