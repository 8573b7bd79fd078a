// Save -> load -> serve round trip across every architecture in the model
// zoo: each candidate is materialized with its classifier head, published
// into one versioned registry, reloaded through ModelRegistry::Refresh, and
// served through the InferenceEngine's frozen cached path. Served
// probabilities must be bitwise identical to the training-path eval
// forward: this is the proof, for every zoo family, that the frozen
// forward's in-place fused elementwise ops equal the out-of-place tape.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "models/model_zoo.h"
#include "nn/linear.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"

namespace ahg::serve {
namespace {

TEST(ServeRoundTripTest, EveryZooArchitectureSurvivesSaveLoadServe) {
  SyntheticConfig cfg;
  cfg.num_nodes = 60;
  cfg.num_classes = 4;
  cfg.feature_dim = 8;
  cfg.avg_degree = 3.0;
  cfg.seed = 5;
  Graph graph = GenerateSbmGraph(cfg);

  const char* base = std::getenv("TMPDIR");
  const std::string dir =
      std::string(base ? base : "/tmp") + "/serve_zoo_roundtrip";
  std::filesystem::remove_all(dir);

  // Publish one registry version per zoo candidate.
  const std::vector<CandidateSpec> pool = DefaultCandidatePool();
  std::vector<ServableModel> originals;
  for (size_t i = 0; i < pool.size(); ++i) {
    ServableModel model;
    model.version = static_cast<int>(i) + 1;
    model.num_classes = graph.num_classes();
    model.config = pool[i].config;
    model.config.in_dim = graph.feature_dim();
    model.config.hidden_dim = 8;
    model.config.seed = 1000 + i;
    std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
    Rng head_rng(model.config.seed ^ 0x5ca1ab1eULL);
    Linear head(zoo->params(), model.config.hidden_dim, model.num_classes,
                /*bias=*/true, &head_rng);
    model.params = zoo->params()->Snapshot();
    ASSERT_TRUE(ModelRegistry::Publish(dir, model.version, model.config,
                                       model.params, model.num_classes)
                    .ok())
        << pool[i].name;
    originals.push_back(std::move(model));
  }

  ModelRegistry registry(dir);
  ASSERT_TRUE(registry.Refresh().ok());
  ASSERT_EQ(registry.Versions().size(), pool.size());
  ASSERT_TRUE(registry.ValidateCompatibility(graph).ok());

  InferenceEngine engine(&graph, EngineOptions{});
  const std::vector<int> query_nodes = {0, 7, 31, 59, 7};
  for (size_t i = 0; i < pool.size(); ++i) {
    SCOPED_TRACE(pool[i].name);
    std::shared_ptr<const ServableModel> loaded =
        registry.Version(static_cast<int>(i) + 1);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->config.family, originals[i].config.family);
    EXPECT_EQ(loaded->params.size(), originals[i].params.size());

    // The deployment artifact serves what the training path computes.
    Matrix training = InferenceEngine::TrainingPathProbs(*loaded, graph);
    auto served_all = engine.PredictAll(*loaded);
    ASSERT_TRUE(served_all.ok()) << served_all.status().ToString();
    const Matrix& all = served_all.value();
    ASSERT_EQ(all.rows(), training.rows());
    ASSERT_EQ(all.cols(), training.cols());
    EXPECT_EQ(std::memcmp(all.data(), training.data(),
                          sizeof(double) * training.size()),
              0);

    auto served_batch = engine.PredictNodes(*loaded, query_nodes);
    ASSERT_TRUE(served_batch.ok());
    const size_t row_bytes = sizeof(double) * graph.num_classes();
    for (size_t q = 0; q < query_nodes.size(); ++q) {
      EXPECT_EQ(std::memcmp(served_batch.value().Row(static_cast<int>(q)),
                            training.Row(query_nodes[q]), row_bytes),
                0)
          << "query " << q;
    }
  }
  // One propagation product per version was cached.
  EXPECT_EQ(engine.cache().num_entries(), static_cast<int64_t>(pool.size()));
}

}  // namespace
}  // namespace ahg::serve
