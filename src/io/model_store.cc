#include "io/model_store.h"

#include <cstdint>
#include <cstring>
#include <fstream>

namespace ahg {
namespace {

constexpr char kMagic[4] = {'A', 'H', 'G', 'M'};
constexpr uint32_t kVersion = 1;

// Hard caps on untrusted tensor framing. A corrupt or malicious header must
// fail with InvalidArgument before any allocation is attempted, never with a
// multi-gigabyte bad_alloc: dimensions are bounded individually, the
// rows*cols product is bounded in 64-bit arithmetic (so the multiply itself
// cannot overflow), and the claimed payload is checked against the bytes
// actually remaining in the file.
constexpr uint64_t kMaxTensorDim = 1u << 27;        // 134M rows or cols
constexpr uint64_t kMaxTensorElements = 1u << 28;   // 2 GiB of doubles
constexpr uint32_t kMaxTensorCount = 100000;

void WriteU32(std::ofstream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteU64(std::ofstream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteF64(std::ofstream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU32(std::ifstream& in, uint32_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

bool ReadU64(std::ifstream& in, uint64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

bool ReadF64(std::ifstream& in, double* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

}  // namespace

Status SaveModel(const std::string& path, const ModelConfig& config,
                 const std::vector<Matrix>& params) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  out.write(kMagic, sizeof(kMagic));
  WriteU32(out, kVersion);
  WriteU32(out, static_cast<uint32_t>(config.family));
  WriteU32(out, static_cast<uint32_t>(config.in_dim));
  WriteU32(out, static_cast<uint32_t>(config.hidden_dim));
  WriteU32(out, static_cast<uint32_t>(config.num_layers));
  WriteF64(out, config.dropout);
  WriteU32(out, static_cast<uint32_t>(config.heads));
  WriteF64(out, config.attention_slope);
  WriteF64(out, config.teleport);
  WriteF64(out, config.gcnii_alpha);
  WriteF64(out, config.gcnii_lambda);
  WriteU32(out, static_cast<uint32_t>(config.poly_order));
  WriteU64(out, config.seed);
  WriteU32(out, static_cast<uint32_t>(params.size()));
  for (const Matrix& m : params) {
    WriteU32(out, static_cast<uint32_t>(m.rows()));
    WriteU32(out, static_cast<uint32_t>(m.cols()));
    out.write(reinterpret_cast<const char*>(m.data()),
              static_cast<std::streamsize>(m.size() * sizeof(double)));
  }
  if (!out.good()) return Status::IOError("short write to " + path);
  return Status::OK();
}

StatusOr<SavedModel> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not an AHGM model file");
  }
  uint32_t version = 0;
  if (!ReadU32(in, &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported model file version");
  }
  SavedModel model;
  uint32_t family = 0, in_dim = 0, hidden = 0, layers = 0, heads = 0,
           poly = 0, count = 0;
  uint64_t seed = 0;
  if (!ReadU32(in, &family) || !ReadU32(in, &in_dim) ||
      !ReadU32(in, &hidden) || !ReadU32(in, &layers) ||
      !ReadF64(in, &model.config.dropout) || !ReadU32(in, &heads) ||
      !ReadF64(in, &model.config.attention_slope) ||
      !ReadF64(in, &model.config.teleport) ||
      !ReadF64(in, &model.config.gcnii_alpha) ||
      !ReadF64(in, &model.config.gcnii_lambda) || !ReadU32(in, &poly) ||
      !ReadU64(in, &seed) || !ReadU32(in, &count)) {
    return Status::InvalidArgument("truncated model header in " + path);
  }
  if (!IsKnownModelFamily(family)) {
    return Status::InvalidArgument("unknown model family in " + path);
  }
  model.config.family = static_cast<ModelFamily>(family);
  model.config.in_dim = static_cast<int>(in_dim);
  model.config.hidden_dim = static_cast<int>(hidden);
  model.config.num_layers = static_cast<int>(layers);
  model.config.heads = static_cast<int>(heads);
  model.config.poly_order = static_cast<int>(poly);
  model.config.seed = seed;
  if (count > kMaxTensorCount) {
    return Status::InvalidArgument("implausible tensor count");
  }
  model.params.reserve(count);
  for (uint32_t t = 0; t < count; ++t) {
    uint32_t rows = 0, cols = 0;
    if (!ReadU32(in, &rows) || !ReadU32(in, &cols)) {
      return Status::InvalidArgument("truncated tensor header in " + path);
    }
    if (rows > kMaxTensorDim || cols > kMaxTensorDim) {
      return Status::InvalidArgument("implausible tensor dimensions in " +
                                     path);
    }
    const uint64_t elements = static_cast<uint64_t>(rows) * cols;
    if (elements > kMaxTensorElements) {
      return Status::InvalidArgument("implausible tensor size in " + path);
    }
    // Reject a payload the file cannot possibly hold before allocating it.
    const uint64_t offset = static_cast<uint64_t>(in.tellg());
    if (offset > file_size || elements * sizeof(double) > file_size - offset) {
      return Status::InvalidArgument("truncated tensor data in " + path);
    }
    Matrix m(static_cast<int>(rows), static_cast<int>(cols));
    in.read(reinterpret_cast<char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(double)));
    if (!in.good()) return Status::InvalidArgument("truncated tensor data in " +
                                                   path);
    model.params.push_back(std::move(m));
  }
  return model;
}

}  // namespace ahg
