// iSpLib-style per-shape kernel autotuner.
//
// Every tunable dimension (the GEMM k-panel size, shared by A*B and A*B^T;
// SpMM column-block width and row- vs nnz-split scheduling) is *exact* — all
// variants produce bitwise-identical results (see kernel_ops.h) — so the
// tuner is free to benchmark candidates on first use and pick the fastest
// without perturbing any determinism guarantee. The winner is cached under a
// (tier, shape) key; profiles can be serialized ("ahg-tuning 1" text format)
// and persisted alongside models so serving and follow-up jobs skip the
// benchmark entirely.
#ifndef AUTOHENS_KERNELS_AUTOTUNE_H_
#define AUTOHENS_KERNELS_AUTOTUNE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/dispatch.h"

namespace ahg::kernels {

// GEMM variant: rows of B per k-panel (the slab every row of A streams
// through while it stays cache-hot). The register-block width is not a
// variant: the row kernel always holds the widest block that fits.
struct GemmChoice {
  int kpanel = 128;
};

// SpMM variant: column-block width (0 = tier default) and whether the full
// Spmm partitions work by equal-nnz chunks instead of equal row counts.
// Row ownership never changes, so both schedules are exact.
struct SpmmChoice {
  int cblock = 0;
  bool nnz_split = false;
};

// Autotuning defaults on; AHG_AUTOTUNE=0 in the environment disables it
// (every shape then uses the tier-default variant with no benchmarking).
bool AutotuneEnabled();
void SetAutotuneEnabled(bool enabled);

// Shape keys. Large free dimensions (GEMM rows m, SpMM rows/nnz) are
// bucketed to powers of two so one profile entry covers near-identical
// workloads; the per-element dims that pick the kernel (k, n, cols) stay
// exact. Keys are tab- and newline-free (they are fields in the profile).
std::string GemmShapeKey(Tier tier, int k, int n, int64_t m);
std::string SpmmShapeKey(Tier tier, int64_t rows, int64_t nnz, int cols);

class KernelTuner {
 public:
  // Process-wide tuner used by the tensor layer; tests may construct their
  // own instances.
  static KernelTuner& Global();

  KernelTuner() = default;
  KernelTuner(const KernelTuner&) = delete;
  KernelTuner& operator=(const KernelTuner&) = delete;

  // Returns the cached winner for `key`, or benchmarks `candidates` via
  // `bench` (lower score wins; typically nanoseconds), caches, and returns
  // the winner. With autotuning disabled (or an empty candidate list) the
  // first candidate is cached without benchmarking. `bench` runs with the
  // tuner lock held — it must not call back into the tuner.
  GemmChoice GetGemm(const std::string& key,
                     const std::vector<GemmChoice>& candidates,
                     const std::function<double(const GemmChoice&)>& bench);
  SpmmChoice GetSpmm(const std::string& key,
                     const std::vector<SpmmChoice>& candidates,
                     const std::function<double(const SpmmChoice&)>& bench);
  bool LookupGemm(const std::string& key, GemmChoice* out) const;
  bool LookupSpmm(const std::string& key, SpmmChoice* out) const;

  // Direct inserts (profile merge); overwrite existing entries.
  void PutGemm(const std::string& key, const GemmChoice& choice);
  void PutSpmm(const std::string& key, const SpmmChoice& choice);

  int64_t entries() const;
  // Number of benchmarked tuning events since construction/Clear. A profile
  // load followed by hits must leave this unchanged — that is the "no
  // re-benchmark" guarantee tests assert on.
  int64_t benchmark_runs() const;
  void Clear();

  // Text profile, versioned. Deserialize *merges* into the current table
  // (later entries win) and skips record kinds it does not know: rows from
  // newer writers, and the obsolete gemm_ta / gemm_tb rows older writers
  // emitted when the transposed GEMMs had tile-width variants. It rejects
  // a missing/mismatched header.
  std::string Serialize() const;
  bool Deserialize(const std::string& text);

  // Atomic save (tmp + rename). SaveFile of an empty tuner still writes a
  // valid header-only profile. LoadFile returns false if the file is
  // missing or malformed.
  bool SaveFile(const std::string& path) const;
  bool LoadFile(const std::string& path);

 private:
  mutable std::mutex mu_;
  std::map<std::string, GemmChoice> gemm_;
  std::map<std::string, SpmmChoice> spmm_;
  int64_t benchmark_runs_ = 0;
};

// Test hooks: force every GEMM/SpMM call in scope to one variant, bypassing
// the tuner. Used by the bitwise-identity matrix to sweep variants.
const GemmChoice* ForcedGemm();
const SpmmChoice* ForcedSpmm();

class ScopedForcedGemm {
 public:
  explicit ScopedForcedGemm(const GemmChoice& choice);
  ~ScopedForcedGemm();

 private:
  const GemmChoice* saved_;
  GemmChoice choice_;
};

class ScopedForcedSpmm {
 public:
  explicit ScopedForcedSpmm(const SpmmChoice& choice);
  ~ScopedForcedSpmm();

 private:
  const SpmmChoice* saved_;
  SpmmChoice choice_;
};

}  // namespace ahg::kernels

#endif  // AUTOHENS_KERNELS_AUTOTUNE_H_
