// AutoML job service demo: a live serving fabric stays up — answering
// tenant traffic with zero failed requests — while a resumable AutoHEnsGNN
// search job runs in the background, publishes its winning model into the
// versioned registry, and atomically rolls the fleet onto it.
//
// Default (demo) mode:
//   1. Bootstrap: a quick hierarchical job publishes version 1.
//   2. A ServingFabric serves the graph; traffic starts flowing.
//   3. A gradient-search job is submitted to the JobQueue mid-traffic; when
//      it finishes it publishes version 2, refreshes the registry, and
//      Rollout(2) flips the fleet between batches (the publish -> rollout
//      handshake). Traffic keeps flowing throughout.
//   4. The demo asserts zero failed requests and that both versions served.
//
// CI (kill/resume) modes, driven by .github/workflows jobs-smoke:
//   autohens_jobs --submit ID --store DIR [--algo hierarchical|adaptive|gradient]
//       creates the job spec in a durable JobStore and exits.
//   autohens_jobs --run ID --store DIR [--kill-after N]
//       recovers dead-worker state, then runs (or resumes) the job; with
//       --kill-after N the process SIGKILLs itself after the N-th
//       checkpoint write, exactly like a power-cut worker. The dataset is
//       rebuilt deterministically from constants, so independent processes
//       drive the same job to the same bytes.
//
// Usage:
//   autohens_jobs [--queries Q] [--seed S] [--root DIR]
//   autohens_jobs --submit ID --store DIR [--algo A] [--publish V]
//   autohens_jobs --run ID --store DIR [--kill-after N]
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "fabric/fabric.h"
#include "fabric/loadgen.h"
#include "graph/synthetic.h"
#include "jobs/job_queue.h"
#include "jobs/search_job.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "util/thread_pool.h"

#include "flags.h"

namespace {

// The demo dataset is a pure function of these constants: every process
// (demo, CI submit, CI run, CI resume) sees the identical graph and split.
ahg::Graph MakeJobGraph() {
  ahg::SyntheticConfig cfg;
  cfg.num_nodes = 120;
  cfg.num_classes = 3;
  cfg.feature_dim = 8;
  cfg.avg_degree = 5.0;
  cfg.homophily = 0.85;
  cfg.feature_signal = 1.0;
  cfg.seed = 131;
  return ahg::GenerateSbmGraph(cfg);
}

ahg::DataSplit MakeJobSplit(const ahg::Graph& graph) {
  ahg::Rng rng(132);
  return ahg::RandomSplit(graph, 0.6, 0.2, &rng);
}

ahg::jobs::SearchJobSpec MakeSpec(const std::string& job_id,
                                  ahg::jobs::JobAlgo algo, int publish_version,
                                  uint64_t seed) {
  ahg::jobs::SearchJobSpec spec;
  spec.job_id = job_id;
  spec.dataset = "sbm120";
  spec.algo = algo;
  spec.candidates = {{"GCN", {}}, {"SGC", {}}, {"SAGE", {}}};
  spec.candidates[0].config.family = ahg::ModelFamily::kGcn;
  spec.candidates[1].config.family = ahg::ModelFamily::kSgc;
  spec.candidates[2].config.family = ahg::ModelFamily::kSageMean;
  for (auto& candidate : spec.candidates) {
    candidate.config.hidden_dim = 8;
    candidate.config.num_layers = 2;
    candidate.config.dropout = 0.1;
  }
  spec.pool_size = 2;
  spec.k = 1;
  spec.proxy_bagging = 1;
  spec.proxy_num_threads = 1;
  spec.train.max_epochs = 8;
  spec.train.patience = 8;
  spec.train.learning_rate = 2e-2;
  spec.gradient_max_epochs = 8;
  spec.gradient_patience = 8;
  spec.gradient_checkpoint_every = 2;
  spec.seed = seed;
  spec.publish_version = publish_version;
  return spec;
}

ahg::jobs::JobAlgo ParseAlgo(const char* name) {
  if (std::strcmp(name, "hierarchical") == 0) {
    return ahg::jobs::JobAlgo::kHierarchical;
  }
  if (std::strcmp(name, "adaptive") == 0) {
    return ahg::jobs::JobAlgo::kAdaptive;
  }
  return ahg::jobs::JobAlgo::kGradient;
}

// --submit: persist the spec and exit (the CI driver runs it separately).
int SubmitMain(const ahg::examples::Flags& flags) {
  const std::string job_id = flags.Value("--submit", "");
  const std::string store_dir = flags.Value("--store", "");
  if (job_id.empty() || store_dir.empty()) {
    std::fprintf(stderr, "--submit ID and --store DIR are required\n");
    return 2;
  }
  ahg::jobs::JobStore store(store_dir);
  const ahg::jobs::SearchJobSpec spec =
      MakeSpec(job_id, ParseAlgo(flags.Value("--algo", "gradient")),
               std::atoi(flags.Value("--publish", "0")),
               static_cast<uint64_t>(
                   std::atoll(flags.Value("--seed", "77"))));
  ahg::Status s = store.CreateJob(spec);
  if (!s.ok()) {
    std::fprintf(stderr, "submit failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("submitted %s (algo %s) to %s\n", job_id.c_str(),
              ahg::jobs::JobAlgoName(spec.algo), store_dir.c_str());
  return 0;
}

// --run: recover + run (or resume) one attempt, optionally dying by SIGKILL
// after the N-th checkpoint write.
int RunMain(const ahg::examples::Flags& flags) {
  const std::string job_id = flags.Value("--run", "");
  const std::string store_dir = flags.Value("--store", "");
  if (job_id.empty() || store_dir.empty()) {
    std::fprintf(stderr, "--run ID and --store DIR are required\n");
    return 2;
  }
  ahg::SetNumThreads(1);  // one deterministic kernel schedule for all runs
  ahg::jobs::JobStore store(store_dir);
  auto recovered = store.RecoverInterrupted();
  if (!recovered.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  for (const std::string& id : recovered.value()) {
    std::printf("recovered dead-worker job %s\n", id.c_str());
  }
  const ahg::Graph graph = MakeJobGraph();
  const ahg::DataSplit split = MakeJobSplit(graph);
  ahg::jobs::JobEnv env;
  env.graph = &graph;
  env.split = &split;
  env.kill_after_checkpoints =
      std::atoi(flags.Value("--kill-after", "0"));
  ahg::jobs::SearchJob job(&store, job_id);
  auto out = job.Run(env);
  if (!out.ok()) {
    std::fprintf(stderr, "run failed: %s\n", out.status().ToString().c_str());
    return 1;
  }
  std::printf("job %s -> %s (resumed=%d, checkpoints=%d, ensemble=%s)\n",
              job_id.c_str(),
              ahg::jobs::JobStatusName(out.value().status),
              out.value().resumed ? 1 : 0, out.value().checkpoints_written,
              out.value().ensemble_dir.c_str());
  return out.value().status == ahg::jobs::JobStatus::kPublished ? 0 : 3;
}

int DemoMain(const ahg::examples::Flags& flags) {
  const int queries = std::atoi(flags.Value("--queries", "2000"));
  const uint64_t seed = static_cast<uint64_t>(
      std::atoll(flags.Value("--seed", "17")));
  const char* tmp = std::getenv("TMPDIR");
  const std::string root =
      flags.Value("--root",
                (std::string(tmp ? tmp : "/tmp") + "/autohens_jobs").c_str());
  ::mkdir(root.c_str(), 0755);  // JobStore/registry create only their leaf
  const std::string store_dir = root + "/store";
  const std::string registry_dir = root + "/registry";

  const ahg::Graph graph = MakeJobGraph();
  const ahg::DataSplit split = MakeJobSplit(graph);

  // --- 1. Bootstrap: publish version 1 with a quick hierarchical job ---
  ahg::jobs::JobStore store(store_dir);
  ahg::serve::ModelRegistry registry(registry_dir);
  {
    ahg::jobs::SearchJobSpec boot = MakeSpec(
        "bootstrap-v1", ahg::jobs::JobAlgo::kHierarchical, /*publish=*/1,
        seed);
    ahg::Status s = store.CreateJob(boot);
    if (!s.ok()) {
      std::fprintf(stderr, "bootstrap submit failed: %s (stale --root?)\n",
                   s.ToString().c_str());
      return 1;
    }
    ahg::jobs::JobEnv env;
    env.graph = &graph;
    env.split = &split;
    env.registry_dir = registry_dir;
    env.registry = &registry;
    ahg::jobs::SearchJob boot_job(&store, "bootstrap-v1");
    auto out = boot_job.Run(env);
    if (!out.ok()) {
      std::fprintf(stderr, "bootstrap failed: %s\n",
                   out.status().ToString().c_str());
      return 1;
    }
    std::printf("bootstrap published v1 (val acc %.3f)\n",
                out.value().ensemble_val_accuracy);
  }

  // --- 2. Boot the serving fabric on version 1 ---
  ahg::fabric::FabricOptions options;
  options.num_shards = 2;
  options.batcher.max_batch_size = 16;
  options.batcher.deadline_ms = 0.0;
  options.batcher.max_queue_delay_ms = 1.0;
  ahg::fabric::ServingFabric fabric(options);
  if (!fabric.ServeGraph(&graph, &registry).ok() ||
      !fabric.Rollout(1).ok()) {
    std::fprintf(stderr, "fabric bootstrap failed\n");
    return 1;
  }

  // --- 3. Queue the real search; serve traffic while it runs ---
  ahg::jobs::JobEnv queue_env;
  queue_env.graph = &graph;
  queue_env.split = &split;
  queue_env.registry_dir = registry_dir;
  queue_env.registry = &registry;
  queue_env.fabric = &fabric;
  ahg::jobs::JobQueue queue(&store, queue_env);

  ahg::fabric::ZipfianSampler popularity(graph.num_nodes(), 0.99);
  ahg::Rng node_rng(seed ^ 0x90b5ULL);
  std::map<int, int> served_by_version;
  int failed = 0;
  bool submitted = false;
  for (int q = 0; q < queries; ++q) {
    if (q == queries / 4 && !submitted) {
      // The upgrade search starts here; traffic never stops.
      ahg::Status s = queue.Submit(MakeSpec(
          "search-v2", ahg::jobs::JobAlgo::kGradient, /*publish=*/2, seed));
      if (!s.ok()) {
        std::fprintf(stderr, "submit failed: %s\n", s.ToString().c_str());
        return 1;
      }
      submitted = true;
      std::printf("... submitted search-v2 at query %d\n", q);
    }
    const int node = popularity.Sample(&node_rng);
    ahg::serve::QueryResult result = fabric.Query(node).get();
    if (result.status.ok()) {
      ++served_by_version[result.served_version];
    } else {
      ++failed;
    }
  }
  queue.WaitIdle();
  auto outcome = queue.Outcome("search-v2");
  if (!outcome.ok() ||
      outcome.value().status != ahg::jobs::JobStatus::kPublished) {
    std::fprintf(stderr, "search-v2 did not publish\n");
    return 1;
  }
  std::printf("search-v2 published v%d (val acc %.3f, pool:",
              outcome.value().published_version,
              outcome.value().ensemble_val_accuracy);
  for (const std::string& name : outcome.value().pool_names) {
    std::printf(" %s", name.c_str());
  }
  std::printf(")\n");

  // --- 4. Post-rollout traffic must all land on version 2 ---
  int v2_after = 0;
  for (int q = 0; q < queries / 4; ++q) {
    const int node = popularity.Sample(&node_rng);
    ahg::serve::QueryResult result = fabric.Query(node).get();
    if (!result.status.ok()) {
      ++failed;
    } else if (result.served_version == 2) {
      ++served_by_version[2], ++v2_after;
    } else {
      ++served_by_version[result.served_version];
    }
  }
  fabric.Drain();

  std::printf("\nanswers by served version:\n");
  for (const auto& [version, count] : served_by_version) {
    std::printf("  v%-2d %d\n", version, count);
  }
  if (failed > 0) std::printf("  failed %d\n", failed);
  std::printf("jobs counters: started=%lld checkpoints=%lld published=%lld\n",
              static_cast<long long>(ahg::obs::MetricsRegistry::Global()
                                         .GetCounter("jobs.started")
                                         ->Value()),
              static_cast<long long>(ahg::obs::MetricsRegistry::Global()
                                         .GetCounter("jobs.checkpoints")
                                         ->Value()),
              static_cast<long long>(ahg::obs::MetricsRegistry::Global()
                                         .GetCounter("jobs.published")
                                         ->Value()));

  // The demo's contract: no failed requests, both versions served, and the
  // fleet finished pinned to the search job's version.
  if (failed > 0 || served_by_version[1] == 0 || served_by_version[2] == 0 ||
      v2_after != queries / 4 || fabric.pinned_version() != 2) {
    std::fprintf(stderr,
                 "FAIL: expected zero failures, both versions served, and "
                 "all post-rollout traffic on v2\n");
    return 1;
  }
  std::printf("OK: zero failed requests across the rollout\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ahg::examples::Flags flags(
      argc, argv,
      {{"--queries", "Q"}, {"--seed", "S"}, {"--root", "DIR"},
       {"--submit", "ID"}, {"--store", "DIR"}, {"--algo", "A"},
       {"--publish", "V"}, {"--run", "ID"}, {"--kill-after", "N"}});
  if (flags.Has("--submit")) return SubmitMain(flags);
  if (flags.Has("--run")) return RunMain(flags);
  return DemoMain(flags);
}
