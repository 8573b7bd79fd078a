// Streaming serving front-end of the dynamic-graph subsystem.
//
// Wires the pieces together: a MutationLog collects streamed edits, a
// single mutator thread calls ApplyPending() to fold them into the next
// GraphSnapshot version, an IncrementalPropagator patches the cached
// H^(1..L) states over the dirty rows, and the resulting (snapshot, hidden)
// pair is published atomically for readers. Queries never block on a
// refresh: PredictNodes copies one shared_ptr under a short lock and serves
// from that immutable pair, so a concurrent publish retargets later
// queries while in-flight ones finish against the version they started on.
//
// PublishTo() bridges into the static serving stack: it hands the current
// (snapshot, hidden) pair to InferenceEngine::Publish, which installs the
// incrementally refreshed hidden states in the engine's PropagationCache
// and then retargets the engine at the snapshot itself — no Graph is
// built, and the first post-publish query pays a row gather instead of a
// full forward. A retired snapshot is freed when its last holder (this
// server, the engine, or an in-flight request) drops it.
//
// Metrics (process-wide registry): dyn.batches, dyn.mutations_applied,
// dyn.incremental_refreshes, dyn.full_refreshes, dyn.rows_refreshed
// counters; dyn.refresh_ms and dyn.dirty_fraction histograms.
#ifndef AUTOHENS_DYN_STREAM_SERVER_H_
#define AUTOHENS_DYN_STREAM_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "dyn/incremental.h"
#include "dyn/mutation.h"
#include "dyn/snapshot.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "util/status.h"

namespace ahg::dyn {

struct StreamOptions {
  RefreshOptions refresh;
  // When not kNone, a batch that trips DeltaCsr compaction (the overlay was
  // already being folded into fresh bases, so a relayout costs little
  // extra) is followed by GraphSnapshot::Reordered(reorder, reorder_seed)
  // plus IncrementalPropagator::ApplyReorder — the snapshot gets a fresh
  // locality layout mid-stream without breaking bitwise conformance or the
  // dirty-row refresh bound. External query/mutation ids are unaffected.
  ReorderStrategy reorder = ReorderStrategy::kNone;
  uint64_t reorder_seed = 0;
};

class StreamingServer {
 public:
  // Builds snapshot version 0 from `graph` (undirected, featured, no self
  // loops — see GraphSnapshot::FromGraph) and runs the cold propagation for
  // `model`, whose family must pass IncrementalPropagator::Supports and
  // whose last two params are the classifier head.
  static StatusOr<std::unique_ptr<StreamingServer>> Create(
      const Graph& graph, const serve::ServableModel& model,
      const StreamOptions& options = {});

  StreamingServer(const StreamingServer&) = delete;
  StreamingServer& operator=(const StreamingServer&) = delete;

  // Enqueues a mutation (any thread); returns its sequence number.
  uint64_t Submit(Mutation m);
  size_t pending() const { return log_.pending(); }

  // Drains every pending mutation from the log, applies them as one atomic
  // batch, refreshes propagation over the dirty rows and publishes the new
  // (snapshot, hidden) pair. Call from one mutator thread. A validation
  // failure re-queues nothing and publishes nothing — the rejected batch is
  // reported and dropped.
  StatusOr<RefreshStats> ApplyPending();

  // Class probabilities for `nodes` against the latest published state.
  StatusOr<Matrix> PredictNodes(const std::vector<int>& nodes) const;

  // Latest published immutable state.
  std::shared_ptr<const GraphSnapshot> snapshot() const;
  std::shared_ptr<const Matrix> hidden() const;
  uint64_t version() const;

  // Publishes the current snapshot and its refreshed hidden states into
  // `engine` (generation = snapshot version + 1, since engines start at
  // generation 0 on their construction graph). Publishing the same version
  // again only re-installs the states. The engine must serve this model's
  // feature width.
  Status PublishTo(serve::InferenceEngine* engine);

  const serve::ServableModel& model() const { return model_; }

 private:
  struct State {
    std::shared_ptr<const GraphSnapshot> snap;
    std::shared_ptr<const Matrix> hidden;
  };

  StreamingServer(const serve::ServableModel& model,
                  const StreamOptions& options);

  std::shared_ptr<const State> state() const;

  serve::ServableModel model_;
  StreamOptions options_;
  MutationLog log_;

  std::mutex apply_mu_;  // serializes mutator-side work
  std::unique_ptr<IncrementalPropagator> propagator_;  // under apply_mu_

  mutable std::mutex state_mu_;  // guards the published pointer only
  std::shared_ptr<const State> state_;

  obs::Counter* const m_batches_;
  obs::Counter* const m_mutations_;
  obs::Counter* const m_incremental_;
  obs::Counter* const m_full_;
  obs::Counter* const m_rows_refreshed_;
  obs::Histogram* const m_refresh_ms_;
  obs::Histogram* const m_dirty_fraction_;
};

}  // namespace ahg::dyn

#endif  // AUTOHENS_DYN_STREAM_SERVER_H_
