#include "jobs/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace ahg::jobs {
namespace {

constexpr char kMagic[4] = {'A', 'H', 'G', 'J'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kKindSpec = 1;
constexpr uint32_t kKindCheckpoint = 2;
constexpr uint32_t kKindTaskSpec = 3;
constexpr uint32_t kKindTaskCheckpoint = 4;

// Hard caps on untrusted framing, mirroring io/model_store: corruption must
// fail with InvalidArgument before any allocation, never with a bad_alloc.
constexpr uint64_t kMaxTensorDim = 1u << 27;
constexpr uint64_t kMaxTensorElements = 1u << 28;
constexpr uint64_t kMaxCount = 1u << 20;
constexpr uint64_t kMaxStringBytes = 1u << 20;

class Writer {
 public:
  explicit Writer(std::ofstream& out) : out_(out) {}

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bool(bool v) { U32(v ? 1 : 0); }

  void Str(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }

  void Mat(const Matrix& m) {
    U32(static_cast<uint32_t>(m.rows()));
    U32(static_cast<uint32_t>(m.cols()));
    Raw(m.data(), m.size() * sizeof(double));
  }

  void MatVec(const std::vector<Matrix>& ms) {
    U64(ms.size());
    for (const Matrix& m : ms) Mat(m);
  }

  void ModelCfg(const ModelConfig& c) {
    U32(static_cast<uint32_t>(c.family));
    I32(c.in_dim);
    I32(c.hidden_dim);
    I32(c.num_layers);
    F64(c.dropout);
    I32(c.heads);
    F64(c.attention_slope);
    F64(c.teleport);
    F64(c.gcnii_alpha);
    F64(c.gcnii_lambda);
    I32(c.poly_order);
    U64(c.seed);
  }

  void TrainCfg(const TrainConfig& c) {
    I32(c.max_epochs);
    I32(c.patience);
    F64(c.learning_rate);
    F64(c.weight_decay);
    F64(c.lr_decay);
    I32(c.lr_decay_every);
    U64(c.seed);
    I32(c.num_threads);
    // Two retired memory-plane flag slots, kept so the record layout (and
    // kFormatVersion) is unchanged.
    Bool(false);
    Bool(false);
  }

  void Candidate(const CandidateSpec& c) {
    Str(c.name);
    ModelCfg(c.config);
  }

  void Score(const CandidateScore& s) {
    Str(s.name);
    ModelCfg(s.config);
    ModelCfg(s.original_config);
    F64(s.mean_val_accuracy);
    F64(s.stddev);
    F64(s.seconds);
  }

  void Rng(const RngState& s) {
    for (uint64_t w : s.s) U64(w);
    Bool(s.has_spare_normal);
    F64(s.spare_normal);
  }

  void Adam(const AdamState& s) {
    MatVec(s.m);
    MatVec(s.v);
    I64(s.step);
    F64(s.learning_rate);
  }

  void GradientState(const GradientSearchState& s) {
    I32(s.epoch);
    MatVec(s.weight_values);
    MatVec(s.arch_values);
    Adam(s.weight_opt);
    Adam(s.arch_opt);
    Rng(s.dropout_rng);
    F64(s.best_val);
    Mat(s.best_beta_raw);
    MatVec(s.best_alphas);
    I32(s.epochs_since_best);
  }

  bool good() const { return out_.good(); }

 private:
  void Raw(const void* p, size_t n) {
    out_.write(reinterpret_cast<const char*>(p),
               static_cast<std::streamsize>(n));
  }

  std::ofstream& out_;
};

class Reader {
 public:
  explicit Reader(std::ifstream& in) : in_(in) {
    in_.seekg(0, std::ios::end);
    file_size_ = static_cast<uint64_t>(in_.tellg());
    in_.seekg(0, std::ios::beg);
  }

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I32(int* v) {
    int32_t x = 0;
    if (!Raw(&x, sizeof(x))) return false;
    *v = static_cast<int>(x);
    return true;
  }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  // Only 0 and 1 decode; any other word is corruption.
  bool Bool(bool* v) {
    uint32_t x = 0;
    if (!U32(&x) || x > 1) return false;
    *v = x == 1;
    return true;
  }

  bool Str(std::string* s) {
    uint64_t n = 0;
    if (!U64(&n) || n > kMaxStringBytes || !Fits(n)) return false;
    s->resize(n);
    return Raw(s->data(), n);
  }

  bool Mat(Matrix* m) {
    uint32_t rows = 0, cols = 0;
    if (!U32(&rows) || !U32(&cols)) return false;
    if (rows > kMaxTensorDim || cols > kMaxTensorDim) return false;
    const uint64_t elements = static_cast<uint64_t>(rows) * cols;
    if (elements > kMaxTensorElements || !Fits(elements * sizeof(double))) {
      return false;
    }
    *m = Matrix(static_cast<int>(rows), static_cast<int>(cols));
    return Raw(m->data(), elements * sizeof(double));
  }

  bool MatVec(std::vector<Matrix>* ms) {
    uint64_t n = 0;
    if (!U64(&n) || n > kMaxCount) return false;
    ms->resize(n);
    for (auto& m : *ms) {
      if (!Mat(&m)) return false;
    }
    return true;
  }

  bool ModelCfg(ModelConfig* c) {
    uint32_t family = 0;
    if (!U32(&family) || !IsKnownModelFamily(family)) return false;
    c->family = static_cast<ModelFamily>(family);
    return I32(&c->in_dim) && I32(&c->hidden_dim) && I32(&c->num_layers) &&
           F64(&c->dropout) && I32(&c->heads) && F64(&c->attention_slope) &&
           F64(&c->teleport) && F64(&c->gcnii_alpha) &&
           F64(&c->gcnii_lambda) && I32(&c->poly_order) && U64(&c->seed);
  }

  bool TrainCfg(TrainConfig* c) {
    bool retired = false;  // the two retired flag slots, read and dropped
    return I32(&c->max_epochs) && I32(&c->patience) &&
           F64(&c->learning_rate) && F64(&c->weight_decay) &&
           F64(&c->lr_decay) && I32(&c->lr_decay_every) && U64(&c->seed) &&
           I32(&c->num_threads) && Bool(&retired) && Bool(&retired);
  }

  bool Candidate(CandidateSpec* c) {
    return Str(&c->name) && ModelCfg(&c->config);
  }

  bool Score(CandidateScore* s) {
    return Str(&s->name) && ModelCfg(&s->config) &&
           ModelCfg(&s->original_config) && F64(&s->mean_val_accuracy) &&
           F64(&s->stddev) && F64(&s->seconds);
  }

  bool Rng(RngState* s) {
    for (uint64_t& w : s->s) {
      if (!U64(&w)) return false;
    }
    return Bool(&s->has_spare_normal) && F64(&s->spare_normal);
  }

  bool Adam(AdamState* s) {
    return MatVec(&s->m) && MatVec(&s->v) && I64(&s->step) &&
           F64(&s->learning_rate);
  }

  bool GradientState(GradientSearchState* s) {
    return I32(&s->epoch) && MatVec(&s->weight_values) &&
           MatVec(&s->arch_values) && Adam(&s->weight_opt) &&
           Adam(&s->arch_opt) && Rng(&s->dropout_rng) && F64(&s->best_val) &&
           Mat(&s->best_beta_raw) && MatVec(&s->best_alphas) &&
           I32(&s->epochs_since_best);
  }

  bool Count(uint64_t* n) { return U64(n) && *n <= kMaxCount; }

 private:
  bool Raw(void* p, size_t n) {
    in_.read(reinterpret_cast<char*>(p), static_cast<std::streamsize>(n));
    return in_.good();
  }

  bool Fits(uint64_t bytes) {
    const uint64_t offset = static_cast<uint64_t>(in_.tellg());
    return offset <= file_size_ && bytes <= file_size_ - offset;
  }

  std::ifstream& in_;
  uint64_t file_size_ = 0;
};

Status OpenForRecord(const std::string& path, uint32_t kind,
                     std::ofstream* out) {
  out->open(path, std::ios::binary | std::ios::trunc);
  if (!out->is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  out->write(kMagic, sizeof(kMagic));
  Writer w(*out);
  w.U32(kFormatVersion);
  w.U32(kind);
  return Status::OK();
}

Status CheckRecord(std::ifstream& in, const std::string& path, uint32_t kind) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not an AHGJ file");
  }
  Reader r(in);
  // Reader's constructor rewinds; skip the magic again.
  in.seekg(sizeof(kMagic), std::ios::beg);
  uint32_t version = 0, got_kind = 0;
  if (!r.U32(&version) || version != kFormatVersion) {
    return Status::InvalidArgument("unsupported AHGJ version in " + path);
  }
  if (!r.U32(&got_kind) || got_kind != kind) {
    return Status::InvalidArgument("wrong AHGJ record kind in " + path);
  }
  return Status::OK();
}

}  // namespace

const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kLinkPrediction:
      return "link_prediction";
    case TaskKind::kGraphClassification:
      return "graph_classification";
  }
  return "unknown";
}

Status SaveTaskSpec(const std::string& path, const TaskJobSpec& spec) {
  std::ofstream out;
  Status s = OpenForRecord(path, kKindTaskSpec, &out);
  if (!s.ok()) return s;
  Writer w(out);
  w.Str(spec.job_id);
  w.Str(spec.dataset);
  w.U32(static_cast<uint32_t>(spec.kind));
  w.U64(spec.candidates.size());
  for (const CandidateSpec& c : spec.candidates) w.Candidate(c);
  w.TrainCfg(spec.train);
  w.U64(spec.seed);
  if (!w.good()) return Status::IOError("short write to " + path);
  return Status::OK();
}

StatusOr<TaskJobSpec> LoadTaskSpec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  Status s = CheckRecord(in, path, kKindTaskSpec);
  if (!s.ok()) return s;
  Reader r(in);
  in.seekg(sizeof(kMagic) + 2 * sizeof(uint32_t), std::ios::beg);
  TaskJobSpec spec;
  uint32_t kind = 0;
  uint64_t num_candidates = 0;
  bool ok = r.Str(&spec.job_id) && r.Str(&spec.dataset) && r.U32(&kind) &&
            r.Count(&num_candidates);
  if (ok && !IsKnownTaskKind(kind)) {
    return Status::InvalidArgument("unknown task kind " +
                                   std::to_string(kind) + " in " + path);
  }
  if (ok) {
    spec.kind = static_cast<TaskKind>(kind);
    spec.candidates.resize(num_candidates);
    for (auto& c : spec.candidates) {
      if (!r.Candidate(&c)) {
        ok = false;
        break;
      }
    }
  }
  ok = ok && r.TrainCfg(&spec.train) && r.U64(&spec.seed);
  if (!ok) {
    return Status::InvalidArgument("truncated or corrupt task spec " + path);
  }
  return spec;
}

Status SaveTaskCheckpoint(const std::string& path,
                          const TaskJobCheckpoint& checkpoint) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out;
    Status s = OpenForRecord(tmp, kKindTaskCheckpoint, &out);
    if (!s.ok()) return s;
    Writer w(out);
    w.U64(checkpoint.scores.size());
    for (const auto& [index, score] : checkpoint.scores) {
      w.I32(index);
      w.F64(score);
    }
    w.I32(checkpoint.best_index);
    w.ModelCfg(checkpoint.best_config);
    w.MatVec(checkpoint.best_params);
    w.Bool(checkpoint.done);
    if (!w.good()) return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

StatusOr<TaskJobCheckpoint> LoadTaskCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  Status s = CheckRecord(in, path, kKindTaskCheckpoint);
  if (!s.ok()) return s;
  Reader r(in);
  in.seekg(sizeof(kMagic) + 2 * sizeof(uint32_t), std::ios::beg);
  TaskJobCheckpoint ckpt;
  uint64_t n = 0;
  const auto fail = [&path] {
    return Status::InvalidArgument("truncated or corrupt task checkpoint " +
                                   path);
  };
  if (!r.Count(&n)) return fail();
  for (uint64_t i = 0; i < n; ++i) {
    int index = 0;
    double score = 0.0;
    if (!r.I32(&index) || !r.F64(&score)) return fail();
    ckpt.scores[index] = score;
  }
  if (!r.I32(&ckpt.best_index) || !r.ModelCfg(&ckpt.best_config) ||
      !r.MatVec(&ckpt.best_params) || !r.Bool(&ckpt.done)) {
    return fail();
  }
  return ckpt;
}

const char* JobAlgoName(JobAlgo algo) {
  switch (algo) {
    case JobAlgo::kHierarchical:
      return "hierarchical";
    case JobAlgo::kAdaptive:
      return "adaptive";
    case JobAlgo::kGradient:
      return "gradient";
  }
  return "unknown";
}

Status SaveSpec(const std::string& path, const SearchJobSpec& spec) {
  std::ofstream out;
  Status s = OpenForRecord(path, kKindSpec, &out);
  if (!s.ok()) return s;
  Writer w(out);
  w.Str(spec.job_id);
  w.Str(spec.dataset);
  w.U32(static_cast<uint32_t>(spec.algo));
  w.U64(spec.candidates.size());
  for (const CandidateSpec& c : spec.candidates) w.Candidate(c);
  w.I32(spec.pool_size);
  w.I32(spec.k);
  w.F64(spec.proxy_dataset_ratio);
  w.I32(spec.proxy_bagging);
  w.F64(spec.proxy_model_ratio);
  w.F64(spec.proxy_train_fraction);
  w.F64(spec.proxy_val_fraction);
  w.I32(spec.proxy_num_threads);
  w.TrainCfg(spec.train);
  w.I32(spec.gradient_update_every);
  w.F64(spec.gradient_arch_learning_rate);
  w.I32(spec.gradient_max_epochs);
  w.I32(spec.gradient_patience);
  w.I32(spec.gradient_checkpoint_every);
  w.F64(spec.adaptive_epsilon);
  w.F64(spec.adaptive_gamma);
  w.F64(spec.adaptive_lambda);
  w.U64(spec.seed);
  w.F64(spec.time_budget_seconds);
  w.I32(spec.publish_version);
  if (!w.good()) return Status::IOError("short write to " + path);
  return Status::OK();
}

StatusOr<SearchJobSpec> LoadSpec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  Status s = CheckRecord(in, path, kKindSpec);
  if (!s.ok()) return s;
  Reader r(in);
  in.seekg(sizeof(kMagic) + 2 * sizeof(uint32_t), std::ios::beg);
  SearchJobSpec spec;
  uint32_t algo = 0;
  uint64_t num_candidates = 0;
  bool ok = r.Str(&spec.job_id) && r.Str(&spec.dataset) && r.U32(&algo) &&
            r.Count(&num_candidates);
  if (ok && !IsKnownJobAlgo(algo)) {
    return Status::InvalidArgument("unknown search algo " +
                                   std::to_string(algo) + " in " + path);
  }
  if (ok) {
    spec.algo = static_cast<JobAlgo>(algo);
    spec.candidates.resize(num_candidates);
    for (auto& c : spec.candidates) {
      if (!r.Candidate(&c)) {
        ok = false;
        break;
      }
    }
  }
  ok = ok && r.I32(&spec.pool_size) && r.I32(&spec.k) &&
       r.F64(&spec.proxy_dataset_ratio) && r.I32(&spec.proxy_bagging) &&
       r.F64(&spec.proxy_model_ratio) && r.F64(&spec.proxy_train_fraction) &&
       r.F64(&spec.proxy_val_fraction) && r.I32(&spec.proxy_num_threads) &&
       r.TrainCfg(&spec.train) && r.I32(&spec.gradient_update_every) &&
       r.F64(&spec.gradient_arch_learning_rate) &&
       r.I32(&spec.gradient_max_epochs) && r.I32(&spec.gradient_patience) &&
       r.I32(&spec.gradient_checkpoint_every) &&
       r.F64(&spec.adaptive_epsilon) && r.F64(&spec.adaptive_gamma) &&
       r.F64(&spec.adaptive_lambda) && r.U64(&spec.seed) &&
       r.F64(&spec.time_budget_seconds) && r.I32(&spec.publish_version);
  if (!ok) return Status::InvalidArgument("truncated or corrupt spec " + path);
  return spec;
}

Status SaveCheckpoint(const std::string& path,
                      const SearchJobCheckpoint& checkpoint) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out;
    Status s = OpenForRecord(tmp, kKindCheckpoint, &out);
    if (!s.ok()) return s;
    Writer w(out);
    w.U64(checkpoint.proxy_scores.size());
    for (const auto& [index, score] : checkpoint.proxy_scores) {
      w.I32(index);
      w.Score(score);
    }
    w.Bool(checkpoint.pool_done);
    w.U64(checkpoint.pool.size());
    for (const CandidateSpec& c : checkpoint.pool) w.Candidate(c);
    w.U64(checkpoint.adaptive_probes.size());
    for (const auto& [key, acc] : checkpoint.adaptive_probes) {
      w.I32(key.first);
      w.I32(key.second);
      w.F64(acc);
    }
    w.Bool(checkpoint.has_gradient_state);
    if (checkpoint.has_gradient_state) {
      w.GradientState(checkpoint.gradient_state);
    }
    w.Bool(checkpoint.search_done);
    w.U64(checkpoint.layers.size());
    for (const auto& row : checkpoint.layers) {
      w.U64(row.size());
      for (int depth : row) w.I32(depth);
    }
    w.U64(checkpoint.beta.size());
    for (double b : checkpoint.beta) w.F64(b);
    w.U64(checkpoint.member_params.size());
    for (const auto& [index, params] : checkpoint.member_params) {
      w.I32(index);
      w.MatVec(params);
    }
    w.Bool(checkpoint.train_done);
    if (!w.good()) return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

StatusOr<SearchJobCheckpoint> LoadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  Status s = CheckRecord(in, path, kKindCheckpoint);
  if (!s.ok()) return s;
  Reader r(in);
  in.seekg(sizeof(kMagic) + 2 * sizeof(uint32_t), std::ios::beg);
  SearchJobCheckpoint ckpt;
  const auto fail = [&path] {
    return Status::InvalidArgument("truncated or corrupt checkpoint " + path);
  };
  uint64_t n = 0;
  if (!r.Count(&n)) return fail();
  for (uint64_t i = 0; i < n; ++i) {
    int index = 0;
    CandidateScore score;
    if (!r.I32(&index) || !r.Score(&score)) return fail();
    ckpt.proxy_scores[index] = std::move(score);
  }
  if (!r.Bool(&ckpt.pool_done) || !r.Count(&n)) return fail();
  ckpt.pool.resize(n);
  for (auto& c : ckpt.pool) {
    if (!r.Candidate(&c)) return fail();
  }
  if (!r.Count(&n)) return fail();
  for (uint64_t i = 0; i < n; ++i) {
    int pool_index = 0, depth = 0;
    double acc = 0.0;
    if (!r.I32(&pool_index) || !r.I32(&depth) || !r.F64(&acc)) return fail();
    ckpt.adaptive_probes[{pool_index, depth}] = acc;
  }
  if (!r.Bool(&ckpt.has_gradient_state)) return fail();
  if (ckpt.has_gradient_state && !r.GradientState(&ckpt.gradient_state)) {
    return fail();
  }
  if (!r.Bool(&ckpt.search_done) || !r.Count(&n)) return fail();
  ckpt.layers.resize(n);
  for (auto& row : ckpt.layers) {
    uint64_t len = 0;
    if (!r.Count(&len)) return fail();
    row.resize(len);
    for (int& depth : row) {
      if (!r.I32(&depth)) return fail();
    }
  }
  if (!r.Count(&n)) return fail();
  ckpt.beta.resize(n);
  for (double& b : ckpt.beta) {
    if (!r.F64(&b)) return fail();
  }
  if (!r.Count(&n)) return fail();
  for (uint64_t i = 0; i < n; ++i) {
    int index = 0;
    std::vector<Matrix> params;
    if (!r.I32(&index) || !r.MatVec(&params)) return fail();
    ckpt.member_params[index] = std::move(params);
  }
  if (!r.Bool(&ckpt.train_done)) return fail();
  return ckpt;
}

}  // namespace ahg::jobs
