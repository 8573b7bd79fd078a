// Tests of the AutoML job service (src/jobs): store round-trips, the
// SIGKILL-at-every-checkpoint resume-determinism property for all three
// search algorithms, queue lifecycle, budget degradation, the publish ->
// registry handshake, and the served-task (link / graph) job variants.
//
// The kill tests fork: the child runs the job with fault injection armed
// (JobEnv::kill_after_checkpoints = 1), dies by SIGKILL right after its
// next successful checkpoint rename, and the parent recovers + resumes
// until the job publishes. The final ensemble directory must be
// byte-for-byte identical to an uninterrupted run's.
#include <sys/wait.h>
#include <unistd.h>

#include <dirent.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "jobs/job_queue.h"
#include "jobs/search_job.h"
#include "jobs/served_tasks.h"
#include "serve/model_registry.h"
#include "util/thread_pool.h"

namespace ahg::jobs {
namespace {

const Graph& JobGraph() {
  static const Graph* graph = [] {
    SyntheticConfig cfg;
    cfg.num_nodes = 60;
    cfg.num_classes = 3;
    cfg.feature_dim = 6;
    cfg.avg_degree = 4.0;
    cfg.homophily = 0.85;
    cfg.feature_signal = 1.0;
    cfg.seed = 31;
    return new Graph(GenerateSbmGraph(cfg));
  }();
  return *graph;
}

const DataSplit& JobSplit() {
  static const DataSplit* split = [] {
    Rng rng(32);
    return new DataSplit(RandomSplit(JobGraph(), 0.6, 0.2, &rng));
  }();
  return *split;
}

ModelConfig TinyConfig(ModelFamily family) {
  ModelConfig cfg;
  cfg.family = family;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  cfg.dropout = 0.1;
  return cfg;
}

std::vector<CandidateSpec> JobCandidates() {
  return {{"GCN", TinyConfig(ModelFamily::kGcn)},
          {"SGC", TinyConfig(ModelFamily::kSgc)},
          {"SAGE", TinyConfig(ModelFamily::kSageMean)}};
}

SearchJobSpec MakeSpec(const std::string& job_id, JobAlgo algo) {
  SearchJobSpec spec;
  spec.job_id = job_id;
  spec.dataset = "sbm60";
  spec.algo = algo;
  spec.candidates = JobCandidates();
  spec.pool_size = 2;
  spec.k = 1;
  spec.proxy_dataset_ratio = 0.6;
  spec.proxy_bagging = 1;
  spec.proxy_num_threads = 1;
  spec.train.max_epochs = 6;
  spec.train.patience = 6;
  spec.train.learning_rate = 2e-2;
  spec.gradient_max_epochs = 6;
  spec.gradient_patience = 6;
  spec.gradient_checkpoint_every = 2;
  spec.seed = 77;
  return spec;
}

JobEnv MakeEnv() {
  JobEnv env;
  env.graph = &JobGraph();
  env.split = &JobSplit();
  return env;
}

std::string FreshRoot(const std::string& name) {
  const std::string root = ::testing::TempDir() + "jobs_test_" + name;
  std::filesystem::remove_all(root);  // stale state from a previous run
  return root;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> ListDirFiles(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return files;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    files.push_back(name);
  }
  closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

// The memcmp at the heart of the resume-determinism claim: same file set,
// identical bytes in every file.
void ExpectDirsIdentical(const std::string& a, const std::string& b) {
  const std::vector<std::string> fa = ListDirFiles(a);
  const std::vector<std::string> fb = ListDirFiles(b);
  ASSERT_FALSE(fa.empty()) << a << " is empty";
  ASSERT_EQ(fa, fb);
  for (const std::string& name : fa) {
    const std::string bytes_a = ReadBytes(a + "/" + name);
    const std::string bytes_b = ReadBytes(b + "/" + name);
    ASSERT_FALSE(bytes_a.empty()) << name;
    ASSERT_EQ(bytes_a.size(), bytes_b.size()) << name;
    EXPECT_EQ(std::memcmp(bytes_a.data(), bytes_b.data(), bytes_a.size()), 0)
        << name << " differs between " << a << " and " << b;
  }
}

// Drives `job_id` to kPublished, forking a worker for every attempt and
// SIGKILLing it after its first successful checkpoint write. Returns the
// number of attempts (>= 2 means at least one kill actually landed).
int RunSearchJobWithKills(const JobStore& store, const std::string& job_id,
                          const JobEnv& base_env) {
  int attempts = 0;
  while (true) {
    auto state = store.LoadState(job_id);
    EXPECT_TRUE(state.ok());
    if (!state.ok() || state.value().status == JobStatus::kPublished) {
      return attempts;
    }
    EXPECT_LT(attempts, 64) << "job never published";
    if (attempts >= 64) return attempts;
    const pid_t pid = fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
      // Child: single-threaded (fork-safe) worker that dies mid-run.
      SetNumThreads(1);
      JobEnv env = base_env;
      env.kill_after_checkpoints = 1;
      SearchJob job(&store, job_id);
      auto out = job.Run(env);
      _exit(out.ok() ? 0 : 17);
    }
    int wstatus = 0;
    waitpid(pid, &wstatus, 0);
    ++attempts;
    if (WIFSIGNALED(wstatus)) {
      EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);
      auto recovered = store.RecoverInterrupted();
      EXPECT_TRUE(recovered.ok());
    } else {
      EXPECT_TRUE(WIFEXITED(wstatus));
      EXPECT_EQ(WEXITSTATUS(wstatus), 0);
    }
  }
}

// Same driver for served-task jobs.
int RunTaskJobWithKills(const JobStore& store, const std::string& job_id,
                        const TaskEnv& base_env) {
  int attempts = 0;
  while (true) {
    auto state = store.LoadState(job_id);
    EXPECT_TRUE(state.ok());
    if (!state.ok() || state.value().status == JobStatus::kPublished) {
      return attempts;
    }
    EXPECT_LT(attempts, 64) << "task job never published";
    if (attempts >= 64) return attempts;
    const pid_t pid = fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
      SetNumThreads(1);
      TaskEnv env = base_env;
      env.kill_after_checkpoints = 1;
      TaskJob job(&store, job_id);
      auto out = job.Run(env);
      _exit(out.ok() ? 0 : 17);
    }
    int wstatus = 0;
    waitpid(pid, &wstatus, 0);
    ++attempts;
    if (WIFSIGNALED(wstatus)) {
      EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);
      auto recovered = store.RecoverInterrupted();
      EXPECT_TRUE(recovered.ok());
    } else {
      EXPECT_TRUE(WIFEXITED(wstatus));
      EXPECT_EQ(WEXITSTATUS(wstatus), 0);
    }
  }
}

// --- JobStore ------------------------------------------------------------

TEST(JobStoreTest, SpecRoundTripPreservesEveryField) {
  JobStore store(FreshRoot("spec_rt"));
  SearchJobSpec spec = MakeSpec("rt", JobAlgo::kAdaptive);
  spec.proxy_model_ratio = 0.625;
  spec.adaptive_lambda = 4.75;
  spec.time_budget_seconds = 12.5;
  spec.publish_version = 9;
  ASSERT_TRUE(store.CreateJob(spec).ok());
  auto loaded = store.LoadJobSpec("rt");
  ASSERT_TRUE(loaded.ok());
  const SearchJobSpec& got = loaded.value();
  EXPECT_EQ(got.job_id, "rt");
  EXPECT_EQ(got.dataset, "sbm60");
  EXPECT_EQ(got.algo, JobAlgo::kAdaptive);
  ASSERT_EQ(got.candidates.size(), 3u);
  EXPECT_EQ(got.candidates[0].name, "GCN");
  EXPECT_EQ(got.candidates[2].config.family, ModelFamily::kSageMean);
  EXPECT_EQ(got.candidates[1].config.hidden_dim, 8);
  EXPECT_EQ(got.pool_size, 2);
  EXPECT_EQ(got.k, 1);
  // Doubles must round-trip exactly (binary, not text).
  EXPECT_EQ(got.proxy_model_ratio, 0.625);
  EXPECT_EQ(got.adaptive_lambda, 4.75);
  EXPECT_EQ(got.time_budget_seconds, 12.5);
  EXPECT_EQ(got.train.learning_rate, 2e-2);
  EXPECT_EQ(got.gradient_checkpoint_every, 2);
  EXPECT_EQ(got.seed, 77u);
  EXPECT_EQ(got.publish_version, 9);
}

TEST(JobStoreTest, CheckpointRoundTripIsBitwise) {
  JobStore store(FreshRoot("ckpt_rt"));
  ASSERT_TRUE(store.CreateJob(MakeSpec("rt", JobAlgo::kGradient)).ok());

  SearchJobCheckpoint ckpt;
  CandidateScore score;
  score.name = "GCN";
  score.config = TinyConfig(ModelFamily::kGcn);
  score.original_config = TinyConfig(ModelFamily::kGcn);
  score.mean_val_accuracy = 1.0 / 3.0;  // not representable in decimal
  score.stddev = 0.1;
  ckpt.proxy_scores[0] = score;
  ckpt.pool_done = true;
  ckpt.pool = {JobCandidates()[0]};
  ckpt.adaptive_probes[{0, 2}] = 2.0 / 7.0;
  Matrix member(2, 3);
  for (int64_t i = 0; i < member.size(); ++i) {
    member.data()[i] = 1.0 / static_cast<double>(i + 7);
  }
  ckpt.member_params[1] = {member};
  ckpt.layers = {{1, 2}};
  ckpt.beta = {1.0};
  ASSERT_TRUE(store.SaveJobCheckpoint("rt", ckpt).ok());
  ASSERT_TRUE(store.HasCheckpoint("rt"));

  auto loaded = store.LoadJobCheckpoint("rt");
  ASSERT_TRUE(loaded.ok());
  const SearchJobCheckpoint& got = loaded.value();
  ASSERT_EQ(got.proxy_scores.size(), 1u);
  EXPECT_EQ(got.proxy_scores.at(0).name, "GCN");
  EXPECT_EQ(got.proxy_scores.at(0).mean_val_accuracy, 1.0 / 3.0);
  EXPECT_TRUE(got.pool_done);
  ASSERT_EQ(got.pool.size(), 1u);
  EXPECT_EQ(got.adaptive_probes.at({0, 2}), 2.0 / 7.0);
  ASSERT_EQ(got.member_params.at(1).size(), 1u);
  const Matrix& got_member = got.member_params.at(1)[0];
  ASSERT_EQ(got_member.rows(), 2);
  ASSERT_EQ(got_member.cols(), 3);
  EXPECT_EQ(std::memcmp(got_member.data(), member.data(),
                        sizeof(double) * member.size()),
            0);
  EXPECT_EQ(got.layers, ckpt.layers);
  EXPECT_FALSE(got.train_done);
}

TEST(JobStoreTest, GradientStateRoundTripIsBitwise) {
  // Capture a real mid-search snapshot and push it through the store.
  JobStore store(FreshRoot("grad_rt"));
  ASSERT_TRUE(store.CreateJob(MakeSpec("rt", JobAlgo::kGradient)).ok());
  GradientSearchConfig gcfg;
  gcfg.k = 1;
  gcfg.max_epochs = 3;
  gcfg.patience = 3;
  gcfg.train = MakeSpec("x", JobAlgo::kGradient).train;
  gcfg.seed = 5;
  gcfg.checkpoint_every = 2;
  GradientSearchState snap;
  bool have_snap = false;
  gcfg.on_checkpoint = [&](const GradientSearchState& st) {
    snap = st;
    have_snap = true;
  };
  SearchGradient({JobCandidates()[0]}, JobGraph(), JobSplit(), gcfg);
  ASSERT_TRUE(have_snap);

  SearchJobCheckpoint ckpt;
  ckpt.has_gradient_state = true;
  ckpt.gradient_state = snap;
  ASSERT_TRUE(store.SaveJobCheckpoint("rt", ckpt).ok());
  auto loaded = store.LoadJobCheckpoint("rt");
  ASSERT_TRUE(loaded.ok());
  const GradientSearchState& got = loaded.value().gradient_state;
  ASSERT_TRUE(loaded.value().has_gradient_state);
  EXPECT_EQ(got.epoch, snap.epoch);
  EXPECT_EQ(got.best_val, snap.best_val);
  EXPECT_EQ(got.epochs_since_best, snap.epochs_since_best);
  ASSERT_EQ(got.weight_values.size(), snap.weight_values.size());
  for (size_t i = 0; i < snap.weight_values.size(); ++i) {
    const Matrix& a = snap.weight_values[i];
    const Matrix& b = got.weight_values[i];
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(double) * a.size()), 0);
  }
  ASSERT_EQ(got.weight_opt.m.size(), snap.weight_opt.m.size());
  EXPECT_EQ(got.weight_opt.step, snap.weight_opt.step);
  EXPECT_EQ(got.weight_opt.learning_rate, snap.weight_opt.learning_rate);
  for (size_t i = 0; i < snap.weight_opt.m.size(); ++i) {
    const Matrix& a = snap.weight_opt.m[i];
    const Matrix& b = got.weight_opt.m[i];
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(double) * a.size()), 0);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got.dropout_rng.s[i], snap.dropout_rng.s[i]);
  }
  EXPECT_EQ(got.dropout_rng.has_spare_normal, snap.dropout_rng.has_spare_normal);
  EXPECT_EQ(got.dropout_rng.spare_normal, snap.dropout_rng.spare_normal);
}

TEST(JobStoreTest, RejectsBadJobIds) {
  JobStore store(FreshRoot("bad_ids"));
  EXPECT_FALSE(store.CreateJob(MakeSpec("", JobAlgo::kGradient)).ok());
  EXPECT_FALSE(store.CreateJob(MakeSpec("a/b", JobAlgo::kGradient)).ok());
  EXPECT_FALSE(store.CreateJob(MakeSpec("..", JobAlgo::kGradient)).ok());
}

TEST(JobStoreTest, DuplicateCreateFails) {
  JobStore store(FreshRoot("dup"));
  ASSERT_TRUE(store.CreateJob(MakeSpec("j", JobAlgo::kGradient)).ok());
  EXPECT_FALSE(store.CreateJob(MakeSpec("j", JobAlgo::kAdaptive)).ok());
  EXPECT_EQ(store.ListJobs(), (std::vector<std::string>{"j"}));
}

TEST(JobStoreTest, StateRoundTripAndRecovery) {
  JobStore store(FreshRoot("state"));
  ASSERT_TRUE(store.CreateJob(MakeSpec("dead", JobAlgo::kGradient)).ok());
  ASSERT_TRUE(store.CreateJob(MakeSpec("fine", JobAlgo::kGradient)).ok());
  JobState running;
  running.status = JobStatus::kRunning;
  running.attempts = 2;
  running.checkpoints_written = 5;
  running.message = "mid\tflight";  // tabs must be sanitized
  ASSERT_TRUE(store.SaveState("dead", running).ok());

  auto got = store.LoadState("dead");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().status, JobStatus::kRunning);
  EXPECT_EQ(got.value().attempts, 2);
  EXPECT_EQ(got.value().checkpoints_written, 5);
  EXPECT_EQ(got.value().message, "mid flight");

  auto recovered = store.RecoverInterrupted();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), (std::vector<std::string>{"dead"}));
  EXPECT_EQ(store.LoadState("dead").value().status, JobStatus::kCheckpointed);
  EXPECT_EQ(store.LoadState("fine").value().status, JobStatus::kQueued);
}

// Numeric state rows are parsed whole: a malformed count is
// InvalidArgument, never an uncaught std::stoi exception or a silently
// truncated value.
TEST(JobStoreTest, StateWithMalformedNumberIsRejected) {
  JobStore store(FreshRoot("state_bad"));
  ASSERT_TRUE(store.CreateJob(MakeSpec("j", JobAlgo::kGradient)).ok());
  ASSERT_TRUE(store.SaveState("j", JobState{}).ok());
  for (const char* row : {"attempts\tmany", "checkpoints_written\t5x",
                          "published_version\t99999999999"}) {
    SCOPED_TRACE(row);
    {
      std::ofstream out(store.JobDir("j") + "/state.tsv", std::ios::trunc);
      out << "ahg-job-state\t1\nstatus\tqueued\n" << row << "\n";
    }
    EXPECT_EQ(store.LoadState("j").status().code(),
              Status::Code::kInvalidArgument);
  }
}

// Overwrites the 4-byte word at `offset` (from the end when negative).
void PatchU32(const std::string& path, int64_t offset, uint32_t value) {
  std::string bytes = ReadBytes(path);
  const size_t at = offset < 0 ? bytes.size() + offset : offset;
  ASSERT_LE(at + sizeof(value), bytes.size());
  std::memcpy(bytes.data() + at, &value, sizeof(value));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A family word naming no ModelFamily fails the load instead of reaching
// BuildModel's abort.
TEST(JobStoreTest, SpecWithUnknownFamilyIsRejected) {
  JobStore store(FreshRoot("spec_family"));
  SearchJobSpec spec = MakeSpec("rt", JobAlgo::kAdaptive);
  ASSERT_TRUE(store.CreateJob(spec).ok());
  // magic + version + kind, job id and dataset strings (u64 length +
  // bytes), algo u32, candidate count u64, first candidate's name string;
  // the family word opens its ModelConfig.
  const size_t family_offset = 3 * 4 + (8 + spec.job_id.size()) +
                               (8 + spec.dataset.size()) + 4 + 8 +
                               (8 + spec.candidates[0].name.size());
  PatchU32(store.JobDir("rt") + "/spec.bin", family_offset, 99);
  EXPECT_EQ(store.LoadJobSpec("rt").status().code(),
            Status::Code::kInvalidArgument);
}

// An algo word naming no JobAlgo fails the load instead of running as
// another search.
TEST(JobStoreTest, SpecWithUnknownAlgoIsRejected) {
  JobStore store(FreshRoot("spec_algo"));
  SearchJobSpec spec = MakeSpec("rt", JobAlgo::kGradient);
  ASSERT_TRUE(store.CreateJob(spec).ok());
  // magic + version + kind, then the job id and dataset strings (u64
  // length + bytes); the algo word follows.
  const size_t algo_offset =
      3 * 4 + (8 + spec.job_id.size()) + (8 + spec.dataset.size());
  PatchU32(store.JobDir("rt") + "/spec.bin", algo_offset, 99);
  EXPECT_EQ(store.LoadJobSpec("rt").status().code(),
            Status::Code::kInvalidArgument);
}

// Bool words decode only from 0 and 1.
TEST(JobStoreTest, CheckpointWithNonBooleanDoneWordIsRejected) {
  JobStore store(FreshRoot("ckpt_bool"));
  ASSERT_TRUE(store.CreateJob(MakeSpec("rt", JobAlgo::kGradient)).ok());
  SearchJobCheckpoint ckpt;
  ckpt.train_done = true;
  ASSERT_TRUE(store.SaveJobCheckpoint("rt", ckpt).ok());
  ASSERT_TRUE(store.LoadJobCheckpoint("rt").ok());
  // train_done is the record's last word.
  PatchU32(store.JobDir("rt") + "/checkpoint.bin", -4, 2);
  EXPECT_FALSE(store.LoadJobCheckpoint("rt").ok());
}

// --- SearchJob -----------------------------------------------------------

TEST(SearchJobTest, HierarchicalRunPublishes) {
  JobStore store(FreshRoot("hier_run"));
  SearchJobSpec spec = MakeSpec("h", JobAlgo::kHierarchical);
  ASSERT_TRUE(store.CreateJob(spec).ok());
  SearchJob job(&store, "h");
  auto out = job.Run(MakeEnv());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().status, JobStatus::kPublished);
  EXPECT_FALSE(out.value().resumed);
  // 3 candidates, pool 2: proxy ranking runs, then uniform beta.
  ASSERT_EQ(out.value().beta.size(), 2u);
  EXPECT_EQ(out.value().beta[0], 0.5);
  EXPECT_EQ(out.value().beta[1], 0.5);
  ASSERT_EQ(out.value().layers.size(), 2u);
  EXPECT_EQ(out.value().layers[0], (std::vector<int>{1}));  // k=1, cyclic
  EXPECT_GT(out.value().ensemble_val_accuracy, 0.3);
  EXPECT_GT(out.value().checkpoints_written, 0);
  EXPECT_EQ(store.LoadState("h").value().status, JobStatus::kPublished);
  // Terminal jobs refuse another run.
  EXPECT_FALSE(job.Run(MakeEnv()).ok());
}

TEST(SearchJobTest, CancelPausesThenResumeCompletes) {
  JobStore store(FreshRoot("cancel_resume"));
  ASSERT_TRUE(store.CreateJob(MakeSpec("c", JobAlgo::kHierarchical)).ok());
  CancelToken cancel;
  cancel.Cancel();
  JobEnv env = MakeEnv();
  env.cancel = &cancel;
  SearchJob job(&store, "c");
  auto paused = job.Run(env);
  ASSERT_TRUE(paused.ok());
  EXPECT_EQ(paused.value().status, JobStatus::kCheckpointed);
  EXPECT_EQ(store.LoadState("c").value().status, JobStatus::kCheckpointed);

  auto done = job.Run(MakeEnv());
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done.value().status, JobStatus::kPublished);
}

TEST(SearchJobTest, BudgetShedsDeterministically) {
  JobStore store(FreshRoot("budget"));
  SearchJobSpec spec = MakeSpec("b", JobAlgo::kGradient);
  spec.time_budget_seconds = 1e-9;  // exceeded before the first stage
  ASSERT_TRUE(store.CreateJob(spec).ok());
  SearchJob job(&store, "b");
  auto out = job.Run(MakeEnv());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().status, JobStatus::kPublished);
  // Proxy shed keeps the first N candidates as listed; search shed falls
  // back to the hierarchical baseline (uniform beta, cyclic depths).
  EXPECT_EQ(out.value().pool_names,
            (std::vector<std::string>{"GCN", "SGC"}));
  ASSERT_EQ(out.value().beta.size(), 2u);
  EXPECT_EQ(out.value().beta[0], 0.5);
}

TEST(SearchJobTest, PublishRollsIntoRegistry) {
  JobStore store(FreshRoot("publish"));
  SearchJobSpec spec = MakeSpec("p", JobAlgo::kHierarchical);
  spec.publish_version = 4;
  ASSERT_TRUE(store.CreateJob(spec).ok());
  const std::string registry_dir = FreshRoot("publish_registry");
  serve::ModelRegistry registry(registry_dir);
  JobEnv env = MakeEnv();
  env.registry_dir = registry_dir;
  env.registry = &registry;
  SearchJob job(&store, "p");
  auto out = job.Run(env);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().published_version, 4);
  // The job refreshed the registry itself: the version is already live.
  EXPECT_EQ(registry.active_version(), 4);
  ASSERT_NE(registry.Active(), nullptr);
  EXPECT_TRUE(registry.ValidateCompatibility(JobGraph()).ok());
  EXPECT_EQ(store.LoadState("p").value().published_version, 4);
}

struct AlgoName {
  template <typename T>
  std::string operator()(const T& info) const {
    return JobAlgoName(info.param);
  }
};

class KillResumeTest : public ::testing::TestWithParam<JobAlgo> {};

TEST_P(KillResumeTest, ResumedEnsembleIsBitwiseIdentical) {
  const JobAlgo algo = GetParam();
  const std::string tag = JobAlgoName(algo);
  JobStore store(FreshRoot("kill_" + tag));

  // Uninterrupted baseline.
  SearchJobSpec base = MakeSpec("base", algo);
  ASSERT_TRUE(store.CreateJob(base).ok());
  SetNumThreads(1);  // match the forked workers' kernel schedule
  SearchJob base_job(&store, "base");
  auto base_out = base_job.Run(MakeEnv());
  ASSERT_TRUE(base_out.ok()) << base_out.status().ToString();
  ASSERT_EQ(base_out.value().status, JobStatus::kPublished);

  // Same spec under a different id, killed after every checkpoint write.
  SearchJobSpec killed = MakeSpec("killed", algo);
  ASSERT_TRUE(store.CreateJob(killed).ok());
  const int attempts = RunSearchJobWithKills(store, "killed", MakeEnv());
  // Every checkpoint boundary got its own kill: at least as many attempts
  // as the baseline wrote checkpoints (plus the final clean attempt).
  EXPECT_GT(attempts, base_out.value().checkpoints_written);
  EXPECT_EQ(store.LoadState("killed").value().status, JobStatus::kPublished);
  EXPECT_GT(store.LoadState("killed").value().attempts, 1);

  ExpectDirsIdentical(store.EnsembleDir("base"), store.EnsembleDir("killed"));
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, KillResumeTest,
                         ::testing::Values(JobAlgo::kHierarchical,
                                           JobAlgo::kAdaptive,
                                           JobAlgo::kGradient),
                         AlgoName());

// --- JobQueue ------------------------------------------------------------

TEST(JobQueueTest, SubmitRunsToPublished) {
  JobStore store(FreshRoot("queue_run"));
  JobQueue queue(&store, MakeEnv());
  ASSERT_TRUE(queue.Submit(MakeSpec("q1", JobAlgo::kHierarchical)).ok());
  queue.WaitIdle();
  auto out = queue.Outcome("q1");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().status, JobStatus::kPublished);
  EXPECT_FALSE(queue.Outcome("missing").ok());
}

TEST(JobQueueTest, CancelQueuedJobIsTerminal) {
  JobStore store(FreshRoot("queue_cancel"));
  JobQueue queue(&store, MakeEnv());
  // The first job occupies the worker; the second waits in the queue.
  ASSERT_TRUE(queue.Submit(MakeSpec("busy", JobAlgo::kGradient)).ok());
  ASSERT_TRUE(queue.Submit(MakeSpec("doomed", JobAlgo::kHierarchical)).ok());
  ASSERT_TRUE(queue.Cancel("doomed").ok());
  queue.WaitIdle();
  EXPECT_EQ(store.LoadState("doomed").value().status, JobStatus::kCancelled);
  EXPECT_EQ(store.LoadState("busy").value().status, JobStatus::kPublished);
  // Terminal jobs cannot be re-enqueued.
  EXPECT_FALSE(queue.Resume("doomed").ok());
}

TEST(JobQueueTest, RecoverAndResumeFinishesDeadWorkerJob) {
  JobStore store(FreshRoot("queue_recover"));
  ASSERT_TRUE(store.CreateJob(MakeSpec("orphan", JobAlgo::kHierarchical)).ok());
  // Simulate a worker that died mid-run: state stuck at kRunning.
  JobState stuck;
  stuck.status = JobStatus::kRunning;
  stuck.attempts = 1;
  ASSERT_TRUE(store.SaveState("orphan", stuck).ok());

  JobQueue queue(&store, MakeEnv());
  auto resumed = queue.RecoverAndResume();
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.value(), (std::vector<std::string>{"orphan"}));
  queue.WaitIdle();
  EXPECT_EQ(store.LoadState("orphan").value().status, JobStatus::kPublished);
}

// --- Served-task jobs (Tables VIII / IX) ---------------------------------

TaskJobSpec MakeLinkSpec(const std::string& job_id) {
  TaskJobSpec spec;
  spec.job_id = job_id;
  spec.dataset = "sbm60-links";
  spec.kind = TaskKind::kLinkPrediction;
  spec.candidates = {{"GCN", TinyConfig(ModelFamily::kGcn)},
                     {"SGC", TinyConfig(ModelFamily::kSgc)}};
  spec.train.max_epochs = 6;
  spec.train.patience = 6;
  spec.train.learning_rate = 2e-2;
  spec.seed = 91;
  return spec;
}

// A kind word naming no TaskKind fails the load.
TEST(TaskJobTest, SpecWithUnknownKindIsRejected) {
  JobStore store(FreshRoot("task_kind"));
  const TaskJobSpec spec = MakeLinkSpec("rt");
  ASSERT_TRUE(store.CreateTaskJob(spec).ok());
  ASSERT_TRUE(store.LoadTaskJobSpec("rt").ok());
  // Same layout as the search spec: the kind word follows the two strings.
  const size_t kind_offset =
      3 * 4 + (8 + spec.job_id.size()) + (8 + spec.dataset.size());
  PatchU32(store.JobDir("rt") + "/task_spec.bin", kind_offset, 99);
  EXPECT_EQ(store.LoadTaskJobSpec("rt").status().code(),
            Status::Code::kInvalidArgument);
}

TEST(TaskJobTest, LinkWinnerSurvivesKillsBitwise) {
  JobStore store(FreshRoot("task_link"));
  static const LinkSplit* link = [] {
    Rng rng(41);
    return new LinkSplit(MakeLinkSplit(JobGraph(), 0.1, 0.15, &rng));
  }();
  TaskEnv env;
  env.link = link;

  ASSERT_TRUE(store.CreateTaskJob(MakeLinkSpec("base")).ok());
  SetNumThreads(1);
  TaskJob base_job(&store, "base");
  auto base_out = base_job.Run(env);
  ASSERT_TRUE(base_out.ok()) << base_out.status().ToString();
  EXPECT_EQ(base_out.value().status, JobStatus::kPublished);
  EXPECT_GE(base_out.value().best_index, 0);
  EXPECT_GT(base_out.value().best_metric, 0.5);

  ASSERT_TRUE(store.CreateTaskJob(MakeLinkSpec("killed")).ok());
  const int attempts = RunTaskJobWithKills(store, "killed", env);
  EXPECT_GT(attempts, 1);
  const std::string base_bytes = ReadBytes(store.WinnerPath("base"));
  const std::string killed_bytes = ReadBytes(store.WinnerPath("killed"));
  ASSERT_FALSE(base_bytes.empty());
  ASSERT_EQ(base_bytes.size(), killed_bytes.size());
  EXPECT_EQ(std::memcmp(base_bytes.data(), killed_bytes.data(),
                        base_bytes.size()),
            0);

  // The winner serves: pair scores are probabilities.
  auto scorer = LinkScorer::Load(store.WinnerPath("killed"));
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  std::vector<NodePair> pairs = {{0, 1}, {2, 3}, {4, 5}};
  std::vector<double> scores =
      scorer.value().Score(link->train_graph, pairs);
  ASSERT_EQ(scores.size(), pairs.size());
  for (double p : scores) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(TaskJobTest, GraphWinnerSurvivesKillsBitwise) {
  JobStore store(FreshRoot("task_graph"));
  static const GraphSet* set = [] {
    ProteinsLikeConfig pcfg;
    pcfg.num_graphs = 24;
    pcfg.seed = 43;
    return new GraphSet(GenerateProteinsLike(pcfg));
  }();
  static const GraphSetSplit* split = [] {
    Rng rng(44);
    return new GraphSetSplit(RandomGraphSetSplit(*set, 0.6, 0.2, &rng));
  }();
  TaskEnv env;
  env.graph_set = set;
  env.graph_split = split;

  TaskJobSpec spec = MakeLinkSpec("base");
  spec.dataset = "proteins24";
  spec.kind = TaskKind::kGraphClassification;
  spec.candidates = {{"GIN", TinyConfig(ModelFamily::kGin)},
                     {"GCN", TinyConfig(ModelFamily::kGcn)}};
  ASSERT_TRUE(store.CreateTaskJob(spec).ok());
  SetNumThreads(1);
  TaskJob base_job(&store, "base");
  auto base_out = base_job.Run(env);
  ASSERT_TRUE(base_out.ok()) << base_out.status().ToString();
  EXPECT_EQ(base_out.value().status, JobStatus::kPublished);

  spec.job_id = "killed";
  ASSERT_TRUE(store.CreateTaskJob(spec).ok());
  const int attempts = RunTaskJobWithKills(store, "killed", env);
  EXPECT_GT(attempts, 1);
  const std::string base_bytes = ReadBytes(store.WinnerPath("base"));
  const std::string killed_bytes = ReadBytes(store.WinnerPath("killed"));
  ASSERT_FALSE(base_bytes.empty());
  ASSERT_EQ(base_bytes.size(), killed_bytes.size());
  EXPECT_EQ(std::memcmp(base_bytes.data(), killed_bytes.data(),
                        base_bytes.size()),
            0);

  auto scorer = GraphSetScorer::Load(store.WinnerPath("killed"),
                                     set->num_classes);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  const Matrix probs = scorer.value().PredictProba(*set);
  ASSERT_EQ(probs.rows(), static_cast<int>(set->graphs.size()));
  ASSERT_EQ(probs.cols(), set->num_classes);
  for (int r = 0; r < probs.rows(); ++r) {
    double total = 0.0;
    for (int c = 0; c < probs.cols(); ++c) {
      EXPECT_GE(probs(r, c), 0.0);
      total += probs(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace ahg::jobs
