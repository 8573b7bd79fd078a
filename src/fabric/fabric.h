// Sharded multi-tenant serving fabric (ROADMAP open item 3).
//
// Scales src/serve from one InferenceEngine to N engine shards behind a
// consistent-hash router (hash_ring.h). Two deployment modes:
//
//  - Single-graph: ServeGraph() replicates one serving graph across every
//    shard and routes each query by node id, so the shards split the
//    query stream (and its head-GEMM work) while each shard's cache holds
//    the propagation product it serves from. Every shard computes the
//    identical H^(L) through the same deterministic kernels, so sharded
//    answers are bitwise identical to a single engine's — the conformance
//    property tests/fabric_test.cc proves for {1,2,4} shards x {1,2,4}
//    batcher threads over six model families.
//  - Multi-tenant: AddTenant() pins each tenant graph to the shard the
//    ring assigns its name; queries carry the tenant and are routed there.
//    Tenants on one shard share that shard's PropagationCache byte budget
//    under tenant-scoped keys.
//
// Fleet rollout generalizes the PR-2 hot swap: Rollout(v) first verifies
// and cache-warms version v on every shard (prepare), then flips a single
// fleet-wide atomic version pin (commit). Each micro-batch resolves the
// pin exactly once, so a batch is never torn across versions, a query is
// answered entirely by old or entirely by new, and after Rollout returns
// every new batch serves v — no torn reads anywhere in the fleet.
//
// Admission control is layered: the router sheds with ResourceExhausted
// when a shard's queue depth reaches router_queue_limit (backpressure
// before the batcher's own queue_limit gate), and both layers surface
// through src/obs metrics ("fabric.routed", "fabric.shed",
// "fabric.rollouts") plus the per-shard ServeStats.
//
// Streamed mutations (src/dyn) route like queries: SubmitMutation hashes
// the tenant to its owning shard and appends to that tenant's
// StreamingServer; PublishStream publishes the stream's latest snapshot
// (by shared_ptr, no Graph rebuild) into the owning shard's engine only.
// From then on that tenant serves only stage-planned families (kGcn,
// kSgc): a Rollout of any other family fails its prepare phase with
// InvalidArgument and leaves the fleet pin where it was.
#ifndef AUTOHENS_FABRIC_FABRIC_H_
#define AUTOHENS_FABRIC_FABRIC_H_

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dyn/mutation.h"
#include "dyn/snapshot.h"
#include "dyn/stream_server.h"
#include "fabric/hash_ring.h"
#include "fabric/shard.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "partition/partitioned_engine.h"
#include "serve/model_registry.h"
#include "util/status.h"

namespace ahg::fabric {

// Tenant name used for the replicated graph in single-graph mode.
inline constexpr char kDefaultTenant[] = "default";

struct FabricOptions {
  int num_shards = 2;
  int virtual_nodes = 64;  // ring points per shard
  // Shard-wide propagation-cache budget shared by the shard's tenants.
  int64_t shard_cache_byte_budget = int64_t{256} << 20;
  // Per-tenant engine settings (shared_cache / cache_scope are overwritten
  // by the shard) and per-tenant batcher settings (model_resolver is
  // overwritten with the fleet version pin).
  serve::EngineOptions engine;
  serve::BatcherOptions batcher;
  // Router backpressure: a query bound for a shard whose queue depth is at
  // or above this limit is shed with ResourceExhausted without touching
  // the batcher. <= 0 disables the router gate (the batcher's queue_limit
  // still applies).
  int router_queue_limit = 0;
  // Partitioner seed for ServePartitioned.
  partition::PartitionerOptions partitioner;
};

class ServingFabric {
 public:
  explicit ServingFabric(const FabricOptions& options);

  // Drains every shard.
  ~ServingFabric();

  ServingFabric(const ServingFabric&) = delete;
  ServingFabric& operator=(const ServingFabric&) = delete;

  // --- Setup phase (not concurrent with queries) ---

  // Single-graph mode: replicate `graph` under kDefaultTenant on every
  // shard; Query() routes by node id. Mutually exclusive with AddTenant.
  Status ServeGraph(const Graph* graph, const serve::ModelRegistry* registry);

  // Multi-tenant mode: pin `tenant` to ring-assigned shard.
  Status AddTenant(const std::string& tenant, const Graph* graph,
                   const serve::ModelRegistry* registry);

  // Partitioned mode: edge-cut `graph` into num_shards parts and serve it
  // from ONE PartitionedEngine — each part holds only its owned nodes plus
  // a halo appendix, so fabric-resident memory scales ~1/num_shards
  // instead of replicating the graph per shard. Query() routes by the
  // plan's node->part assignment to a per-part batcher; answers are
  // bitwise identical to the replicated modes. Only kGcn/kSgc models can
  // roll out here. Mutually exclusive with ServeGraph and AddTenant.
  // `graph` and `registry` must outlive the fabric.
  Status ServePartitioned(const Graph* graph,
                          const serve::ModelRegistry* registry);

  // Binds a tenant's dynamic-graph stream to its owning shard.
  Status AttachStream(const std::string& tenant, dyn::StreamingServer* stream);

  // --- Serving phase (thread-safe) ---

  // Routes a single-graph-mode query by node id.
  std::future<serve::QueryResult> Query(int node, double deadline_ms = 0.0);

  // Routes a query to `tenant`'s shard. Unknown tenants fail NotFound.
  std::future<serve::QueryResult> QueryTenant(const std::string& tenant,
                                              int node,
                                              double deadline_ms = 0.0);

  // Fleet-wide atomic rollout (see file comment). All-or-nothing: when any
  // shard cannot serve `version`, no shard is flipped. `version` must be
  // loaded in each tenant's registry (call Refresh() first).
  Status Rollout(int version);

  // Current fleet pin; 0 means "registry Active()" (no rollout yet).
  int pinned_version() const {
    return pinned_version_.load(std::memory_order_acquire);
  }

  // Routes a streamed mutation to the tenant's owning shard; returns its
  // sequence number in that tenant's stream. In partitioned mode (tenant
  // kDefaultTenant) the mutation queues against the fabric's snapshot
  // chain instead.
  StatusOr<uint64_t> SubmitMutation(const std::string& tenant,
                                    dyn::Mutation mutation);

  // Applies the tenant's pending mutations and publishes the resulting
  // snapshot and hidden states into the owning shard's engine
  // (InferenceEngine::Publish). In partitioned mode the batch
  // steps the snapshot chain and routes the delta through the plan
  // (PartitionedEngine::ApplyDelta) — every warmed version is refreshed
  // over its dirty sets with per-stage halo exchange.
  Status PublishStream(const std::string& tenant);

  // --- Introspection ---

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int ShardOfNode(int node) const { return ring_.ShardForNode(node); }
  int ShardOfTenant(const std::string& tenant) const {
    return ring_.ShardForKey(tenant);
  }
  EngineShard& shard(int shard_id) { return *shards_[shard_id]; }
  const EngineShard& shard(int shard_id) const { return *shards_[shard_id]; }
  const ConsistentHashRing& ring() const { return ring_; }

  // Null unless ServePartitioned was called.
  partition::PartitionedEngine* partitioned_engine() {
    return partitioned_engine_.get();
  }
  // Per-part admission/latency stats (partitioned mode only).
  serve::ServeStats& part_stats(int part) { return *part_stats_[part]; }

  void Flush();
  void Drain();

 private:
  std::future<serve::QueryResult> Route(int shard_id,
                                        const std::string& tenant, int node,
                                        double deadline_ms);

  // Immediately-ready future carrying an error result.
  static std::future<serve::QueryResult> FailedFuture(Status status);

  FabricOptions options_;
  ConsistentHashRing ring_;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  std::atomic<int> pinned_version_{0};
  bool single_graph_ = false;
  bool multi_tenant_ = false;

  // Partitioned mode: one engine, one batcher + stats per part, and a
  // snapshot chain for streamed mutations. The snapshot is built eagerly
  // at ServePartitioned; when the graph is incompatible with snapshots
  // (directed, self loops) serving still works and mutation submission
  // fails with the stored status.
  bool partitioned_ = false;
  const serve::ModelRegistry* partitioned_registry_ = nullptr;
  std::unique_ptr<partition::PartitionedEngine> partitioned_engine_;
  std::vector<std::unique_ptr<serve::ServeStats>> part_stats_;
  std::vector<std::unique_ptr<serve::RequestBatcher>> part_batchers_;
  dyn::GraphSnapshot partitioned_snapshot_;
  Status partitioned_stream_status_;
  std::vector<dyn::Mutation> partitioned_pending_;
  uint64_t partitioned_seq_ = 0;
  std::mutex partitioned_stream_mu_;

  obs::Counter* const m_routed_;
  obs::Counter* const m_shed_;
  obs::Counter* const m_rollouts_;
};

}  // namespace ahg::fabric

#endif  // AUTOHENS_FABRIC_FABRIC_H_
