#include "serve/model_registry.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <utility>

#include "kernels/autotune.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ahg::serve {
namespace {

constexpr char kManifestName[] = "registry.tsv";
constexpr char kManifestMagic[] = "ahg-registry";
constexpr int kManifestVersion = 1;

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + kManifestName;
}

std::string ModelFileName(int version) {
  return StrFormat("model_v%d.ahgm", version);
}

// Kernel-tuning profile published next to the model ("ahg-tuning 1" text
// format, kernels/autotune.h). Best-effort on both ends: absence or
// corruption never blocks publish or refresh — serving just re-tunes on
// first use.
std::string TuningFileName(int version) {
  return StrFormat("tuning_v%d.ahgt", version);
}

Status EnsureDir(const std::string& dir) {
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create " + dir + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

struct ManifestRow {
  int version = 0;
  std::string file;
  int num_classes = 0;
};

// Parses `dir`/registry.tsv. NotFound when the manifest does not exist.
StatusOr<std::vector<ManifestRow>> ReadManifest(const std::string& dir) {
  std::ifstream in(ManifestPath(dir));
  if (!in.is_open()) {
    return Status::NotFound("no " + std::string(kManifestName) + " in " + dir);
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty registry manifest in " + dir);
  }
  {
    const auto header = StrSplit(StrTrim(line), '\t');
    int version = 0;
    if (header.size() != 2 || header[0] != kManifestMagic ||
        !ParseInt(header[1], &version) || version != kManifestVersion) {
      return Status::InvalidArgument("bad registry manifest header in " + dir);
    }
  }
  std::vector<ManifestRow> rows;
  while (std::getline(in, line)) {
    if (StrTrim(line).empty()) continue;
    const auto parts = StrSplit(StrTrim(line), '\t');
    if (parts.size() != 3) {
      return Status::InvalidArgument("malformed registry row: " + line);
    }
    ManifestRow row;
    row.file = parts[1];
    if (!ParseInt(parts[0], &row.version) ||
        !ParseInt(parts[2], &row.num_classes) || row.version <= 0 ||
        row.file.empty() || row.num_classes <= 0) {
      return Status::InvalidArgument("invalid registry row: " + line);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Status WriteManifest(const std::string& dir,
                     const std::vector<ManifestRow>& rows) {
  const std::string tmp = ManifestPath(dir) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return Status::IOError("cannot write " + tmp);
    out << kManifestMagic << "\t" << kManifestVersion << "\n";
    for (const ManifestRow& row : rows) {
      out << row.version << "\t" << row.file << "\t" << row.num_classes
          << "\n";
    }
    if (!out.good()) return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), ManifestPath(dir).c_str()) != 0) {
    return Status::IOError("cannot commit manifest in " + dir + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status ValidateServableModel(const ServableModel& model) {
  if (model.version <= 0) {
    return Status::InvalidArgument("model version must be positive");
  }
  if (model.num_classes <= 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  if (model.config.in_dim <= 0) {
    return Status::InvalidArgument("model config lacks in_dim");
  }
  if (model.config.hidden_dim <= 0 || model.config.num_layers <= 0 ||
      model.config.heads <= 0 || model.config.poly_order <= 0) {
    return Status::InvalidArgument("model config has degenerate dimensions");
  }
  if (!IsKnownModelFamily(static_cast<int64_t>(model.config.family))) {
    return Status::InvalidArgument("unknown model family in config");
  }
  if (model.params.size() < 3) {
    return Status::InvalidArgument(
        "servable model needs zoo weights plus a 2-tensor head");
  }
  // The architecture's own parameter shapes, from a throwaway build.
  std::unique_ptr<GnnModel> reference = BuildModel(model.config);
  const std::vector<Var>& expected = reference->params()->params();
  if (model.params.size() != expected.size() + 2) {
    return Status::InvalidArgument(StrFormat(
        "parameter count mismatch: file has %d tensors, %s-%dL needs %d + 2",
        static_cast<int>(model.params.size()),
        ModelFamilyName(model.config.family), model.config.num_layers,
        static_cast<int>(expected.size())));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (model.params[i].rows() != expected[i]->value.rows() ||
        model.params[i].cols() != expected[i]->value.cols()) {
      return Status::InvalidArgument(
          StrFormat("tensor %d shape mismatch: %dx%d vs expected %dx%d",
                    static_cast<int>(i), model.params[i].rows(),
                    model.params[i].cols(), expected[i]->value.rows(),
                    expected[i]->value.cols()));
    }
  }
  const Matrix& w = model.head_weight();
  const Matrix& b = model.head_bias();
  if (w.rows() != model.config.hidden_dim || w.cols() != model.num_classes) {
    return Status::InvalidArgument(
        StrFormat("head weight is %dx%d, expected %dx%d", w.rows(), w.cols(),
                  model.config.hidden_dim, model.num_classes));
  }
  if (b.rows() != 1 || b.cols() != model.num_classes) {
    return Status::InvalidArgument(
        StrFormat("head bias is %dx%d, expected 1x%d", b.rows(), b.cols(),
                  model.num_classes));
  }
  return Status::OK();
}

Status ModelRegistry::Refresh() {
  AHG_TRACE_SPAN("serve/registry_swap");
  obs::MetricsRegistry::Global()
      .GetCounter("serve.registry_refreshes")
      ->Increment();
  auto manifest = ReadManifest(dir_);
  if (!manifest.ok()) return manifest.status();
  // Load unseen versions outside the lock; swap in one writer section.
  std::map<int, std::shared_ptr<const ServableModel>> incoming;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const ManifestRow& row : manifest.value()) {
      if (versions_.count(row.version) > 0) continue;
      incoming.emplace(row.version, nullptr);
    }
  }
  for (auto& [version, slot] : incoming) {
    const ManifestRow* row = nullptr;
    for (const ManifestRow& r : manifest.value()) {
      if (r.version == version) row = &r;
    }
    auto loaded = LoadModel(dir_ + "/" + row->file);
    if (!loaded.ok()) return loaded.status();
    // Merge the version's kernel-tuning profile (if published) into the
    // process tuner so serving skips first-use benchmarking. Missing files
    // are the common case for registries written by older publishers.
    kernels::KernelTuner::Global().LoadFile(dir_ + "/" +
                                            TuningFileName(version));
    auto model = std::make_shared<ServableModel>();
    model->version = version;
    model->num_classes = row->num_classes;
    model->config = loaded.value().config;
    model->params = std::move(loaded.value().params);
    Status valid = ValidateServableModel(*model);
    if (!valid.ok()) {
      return Status::InvalidArgument(StrFormat(
          "registry version %d rejected: %s", version,
          valid.message().c_str()));
    }
    slot = std::move(model);
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [version, model] : incoming) {
    versions_.emplace(version, std::move(model));
  }
  if (!versions_.empty()) active_ = versions_.rbegin()->second;
  return Status::OK();
}

std::shared_ptr<const ServableModel> ModelRegistry::Active() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return active_;
}

std::shared_ptr<const ServableModel> ModelRegistry::Version(
    int version) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = versions_.find(version);
  return it == versions_.end() ? nullptr : it->second;
}

std::vector<int> ModelRegistry::Versions() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<int> out;
  out.reserve(versions_.size());
  for (const auto& [version, model] : versions_) out.push_back(version);
  return out;
}

int ModelRegistry::active_version() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return active_ ? active_->version : 0;
}

Status ModelRegistry::ValidateCompatibility(const Graph& graph) const {
  std::shared_ptr<const ServableModel> model = Active();
  if (model == nullptr) {
    return Status::NotFound("registry has no active model");
  }
  if (model->config.in_dim != graph.feature_dim()) {
    return Status::InvalidArgument(
        StrFormat("model consumes %d-dim features, graph has %d-dim",
                  model->config.in_dim, graph.feature_dim()));
  }
  if (model->num_classes != graph.num_classes()) {
    return Status::InvalidArgument(
        StrFormat("model emits %d classes, graph has %d", model->num_classes,
                  graph.num_classes()));
  }
  return Status::OK();
}

Status ModelRegistry::Publish(const std::string& dir, int version,
                              const ModelConfig& config,
                              const std::vector<Matrix>& params,
                              int num_classes) {
  {
    ServableModel candidate;
    candidate.version = version;
    candidate.num_classes = num_classes;
    candidate.config = config;
    candidate.params = params;
    Status valid = ValidateServableModel(candidate);
    if (!valid.ok()) return valid;
  }
  Status s = EnsureDir(dir);
  if (!s.ok()) return s;
  const std::string file = ModelFileName(version);
  s = SaveModel(dir + "/" + file, config, params);
  if (!s.ok()) return s;
  // Snapshot whatever kernel tuning the publishing process accumulated
  // (training on this model's shapes warms exactly the entries serving
  // needs). Empty tuners publish nothing; write failures only warn.
  kernels::KernelTuner& tuner = kernels::KernelTuner::Global();
  if (tuner.entries() > 0) {
    const std::string tuning_path = dir + "/" + TuningFileName(version);
    if (!tuner.SaveFile(tuning_path)) {
      AHG_LOG(Warning) << "could not write tuning profile " << tuning_path;
    }
  }
  std::vector<ManifestRow> rows;
  auto existing = ReadManifest(dir);
  if (existing.ok()) {
    rows = std::move(existing.value());
  } else if (existing.status().code() != Status::Code::kNotFound) {
    return existing.status();
  }
  bool replaced = false;
  for (ManifestRow& row : rows) {
    if (row.version == version) {
      row.file = file;
      row.num_classes = num_classes;
      replaced = true;
    }
  }
  if (!replaced) rows.push_back({version, file, num_classes});
  return WriteManifest(dir, rows);
}

}  // namespace ahg::serve
