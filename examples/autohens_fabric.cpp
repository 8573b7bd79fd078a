// Sharded multi-tenant serving-fabric demo: the fleet deployment shape.
//
// Boots a ServingFabric with N engine shards, pins three tenants of mixed
// sizes ("retail", "ads", "social") onto the consistent-hash ring — each
// tenant brings its own SBM graph and its own versioned model registry —
// then replays a seeded zipfian query mix from the deterministic traffic
// simulator. Halfway through the replay every registry Refresh()es to
// version 2 and a single Rollout(2) flips the whole fleet atomically: each
// answer carries the version that served it, so the tail of the replay
// demonstrates the no-torn-reads rollout. Per-shard ServeStats tables and
// the fabric.* counters are printed at the end.
//
// Usage:
//   autohens_fabric [--shards N] [--queries Q] [--seed S]
//                   [--registry-root DIR] [--metrics-out FILE]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric.h"
#include "fabric/loadgen.h"
#include "graph/synthetic.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/serve_stats.h"
#include "util/rng.h"
#include "util/string_util.h"

#include "flags.h"

namespace {

struct Tenant {
  std::string name;
  ahg::Graph graph;
  std::unique_ptr<ahg::serve::ModelRegistry> registry;
  std::string dir;
};

ahg::Graph MakeGraph(int num_nodes, uint64_t seed) {
  ahg::SyntheticConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.num_classes = 4;
  cfg.feature_dim = 16;
  cfg.avg_degree = 5.0;
  cfg.seed = seed;
  return ahg::GenerateSbmGraph(cfg);
}

// Publishes an (untrained) snapshot of the zoo + head as `version`.
ahg::Status PublishVersion(const std::string& dir, const ahg::Graph& graph,
                           int version, uint64_t seed) {
  ahg::ModelConfig cfg;
  cfg.family = ahg::ModelFamily::kGcn;
  cfg.in_dim = graph.feature_dim();
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.seed = seed;
  std::unique_ptr<ahg::GnnModel> zoo = ahg::BuildModel(cfg);
  ahg::Rng head_rng(seed ^ 0x5ca1ab1eULL);
  ahg::Linear head(zoo->params(), cfg.hidden_dim, graph.num_classes(),
                   /*bias=*/true, &head_rng);
  return ahg::serve::ModelRegistry::Publish(
      dir, version, cfg, zoo->params()->Snapshot(), graph.num_classes());
}

int Main(int argc, char** argv) {
  const ahg::examples::Flags flags(
      argc, argv,
      {{"--shards", "N"}, {"--queries", "Q"}, {"--seed", "S"},
       {"--registry-root", "DIR"}, {"--metrics-out", "FILE"}});
  const int shards = std::atoi(flags.Value("--shards", "3"));
  const int queries = std::atoi(flags.Value("--queries", "3000"));
  const uint64_t seed = static_cast<uint64_t>(
      std::atoll(flags.Value("--seed", "17")));
  const char* tmp = std::getenv("TMPDIR");
  const std::string root = flags.Value("--registry-root",
      (std::string(tmp ? tmp : "/tmp") + "/autohens_fabric").c_str());
  const std::string metrics_out =
      flags.Value("--metrics-out", "");

  // Mixed tenant sizes: the weights below also drive the traffic mix.
  std::vector<Tenant> tenants;
  tenants.push_back({"retail", MakeGraph(600, seed + 1), nullptr, ""});
  tenants.push_back({"ads", MakeGraph(300, seed + 2), nullptr, ""});
  tenants.push_back({"social", MakeGraph(900, seed + 3), nullptr, ""});
  std::error_code ec;
  std::filesystem::create_directories(root, ec);  // Publish creates one level
  for (Tenant& tenant : tenants) {
    tenant.dir = root + "/" + tenant.name;
    std::filesystem::remove_all(tenant.dir);
    for (int version : {1, 2}) {
      ahg::Status published = PublishVersion(
          tenant.dir, tenant.graph, version, seed + 10 + version);
      if (!published.ok()) {
        std::fprintf(stderr, "publish v%d failed for %s: %s\n", version,
                     tenant.name.c_str(), published.ToString().c_str());
        return 1;
      }
    }
    tenant.registry =
        std::make_unique<ahg::serve::ModelRegistry>(tenant.dir);
    if (!tenant.registry->Refresh().ok()) {
      std::fprintf(stderr, "registry load failed for %s\n",
                   tenant.name.c_str());
      return 1;
    }
  }

  ahg::fabric::FabricOptions options;
  options.num_shards = shards;
  options.batcher.max_batch_size = 16;
  options.batcher.deadline_ms = 0.0;
  options.batcher.max_queue_delay_ms = 2.0;
  options.router_queue_limit = 1024;
  ahg::fabric::ServingFabric fabric(options);
  for (Tenant& tenant : tenants) {
    ahg::Status added =
        fabric.AddTenant(tenant.name, &tenant.graph, tenant.registry.get());
    if (!added.ok()) {
      std::fprintf(stderr, "AddTenant %s: %s\n", tenant.name.c_str(),
                   added.ToString().c_str());
      return 1;
    }
    std::printf("tenant %-7s -> shard %d (%d nodes)\n", tenant.name.c_str(),
                fabric.ShardOfTenant(tenant.name),
                tenant.graph.num_nodes());
  }
  // Serve version 1 first; version 2 is already published and loaded, so
  // the mid-replay flip below is a pure pin change.
  if (!fabric.Rollout(1).ok()) {
    std::fprintf(stderr, "initial rollout failed\n");
    return 1;
  }

  // Seeded zipfian tenant/node mix from the traffic simulator.
  ahg::fabric::TrafficOptions traffic;
  traffic.seed = seed;
  traffic.num_nodes = 1;  // node drawn per tenant below
  traffic.tenant_weights = {2.0, 1.0, 3.0};  // retail : ads : social
  traffic.closed_loop_clients = 1;
  ahg::fabric::TrafficSimulator sim(traffic);
  std::vector<ahg::fabric::ZipfianSampler> popularity;
  popularity.reserve(tenants.size());
  for (const Tenant& tenant : tenants) {
    popularity.emplace_back(tenant.graph.num_nodes(), 0.99);
  }

  ahg::Rng node_rng(seed ^ 0xfab51c);
  std::map<int, int> served_by_version;
  int failed = 0;
  for (int q = 0; q < queries; ++q) {
    if (q == queries / 2) {
      // Fleet-wide atomic flip: after this call returns, no answer is ever
      // served by version 1 again — and no batch mixes the two.
      ahg::Status rolled = fabric.Rollout(2);
      if (!rolled.ok()) {
        std::fprintf(stderr, "rollout failed: %s\n",
                     rolled.ToString().c_str());
        return 1;
      }
      std::printf("... rolled fleet to version 2 at query %d\n", q);
    }
    const ahg::fabric::Arrival arrival = sim.NextQuery(0);
    const size_t t = static_cast<size_t>(arrival.tenant);
    const int node = popularity[t].Sample(&node_rng);
    ahg::serve::QueryResult result =
        fabric.QueryTenant(tenants[t].name, node).get();
    if (result.status.ok()) {
      ++served_by_version[result.served_version];
    } else {
      ++failed;
    }
  }
  fabric.Drain();

  std::printf("\nanswers by served version:\n");
  for (const auto& [version, count] : served_by_version) {
    std::printf("  v%-2d %d\n", version, count);
  }
  if (failed > 0) std::printf("  failed %d\n", failed);

  for (int s = 0; s < fabric.num_shards(); ++s) {
    std::printf("\n--- shard %d (%d tenants) ---\n%s", s,
                fabric.shard(s).num_tenants(),
                ahg::serve::FormatStatsTable(
                    fabric.shard(s).stats().Snapshot())
                    .c_str());
  }
  std::printf("\nfabric counters: routed=%lld shed=%lld rollouts=%lld\n",
              static_cast<long long>(ahg::obs::MetricsRegistry::Global()
                                         .GetCounter("fabric.routed")
                                         ->Value()),
              static_cast<long long>(ahg::obs::MetricsRegistry::Global()
                                         .GetCounter("fabric.shed")
                                         ->Value()),
              static_cast<long long>(ahg::obs::MetricsRegistry::Global()
                                         .GetCounter("fabric.rollouts")
                                         ->Value()));

  if (!metrics_out.empty()) {
    ahg::Status wrote =
        ahg::obs::MetricsRegistry::Global().WriteTsv(metrics_out);
    if (!wrote.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", metrics_out.c_str(),
                   wrote.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_out.c_str());
  }

  // The demo's own sanity contract: both versions served, no failures.
  if (failed > 0 || served_by_version[1] == 0 || served_by_version[2] == 0) {
    std::fprintf(stderr, "FAIL: expected answers from both versions and no "
                         "failed queries\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
