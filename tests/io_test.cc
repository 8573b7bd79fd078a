#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "graph/split.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "io/autograph_format.h"
#include "io/model_store.h"

namespace ahg {
namespace {

std::string TempDir(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base ? base : "/tmp") + "/" + name;
  return dir;
}

TEST(AutographFormatTest, RoundTripPreservesGraph) {
  SyntheticConfig cfg;
  cfg.num_nodes = 80;
  cfg.num_classes = 3;
  cfg.feature_dim = 4;
  cfg.avg_degree = 3.0;
  cfg.weighted = true;
  cfg.seed = 1;
  Graph g = GenerateSbmGraph(cfg);
  Rng rng(2);
  DataSplit split = RandomSplit(g, 0.5, 0.0, &rng);

  const std::string dir = TempDir("autograph_roundtrip");
  ASSERT_TRUE(WriteAutographDataset(dir, g, split.train, split.test, 300.0)
                  .ok());
  auto read = ReadAutographDataset(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const AutographDataset& ds = read.value();

  EXPECT_EQ(ds.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(ds.graph.num_edges(), g.num_edges());
  EXPECT_EQ(ds.graph.num_classes(), g.num_classes());
  EXPECT_EQ(ds.time_budget_seconds, 300.0);
  EXPECT_EQ(ds.train_nodes, split.train);
  EXPECT_EQ(ds.test_nodes, split.test);
  // Train labels survive; test labels are withheld.
  for (int node : split.train) {
    EXPECT_EQ(ds.graph.labels()[node], g.labels()[node]);
  }
  for (int node : split.test) {
    EXPECT_EQ(ds.graph.labels()[node], -1);
  }
  // Features match to printed precision.
  EXPECT_TRUE(AllClose(ds.graph.features(), g.features(), 1e-4));
}

TEST(AutographFormatTest, MissingDirectoryIsNotFound) {
  auto read = ReadAutographDataset("/definitely/not/here");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kNotFound);
}

TEST(AutographFormatTest, MalformedEdgeRowRejected) {
  const std::string dir = TempDir("autograph_malformed");
  Graph g = Graph::Create(2, {{0, 1, 1.0}}, false,
                          Matrix::Constant(2, 2, 1.0), {0, 1}, 2);
  ASSERT_TRUE(WriteAutographDataset(dir, g, {0}, {1}, 60.0).ok());
  std::ofstream bad(dir + "/edge.tsv");
  bad << "0\t1\n";  // missing weight column
  bad.close();
  auto read = ReadAutographDataset(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kInvalidArgument);
}

TEST(AutographFormatTest, OutOfRangeEdgeRejected) {
  const std::string dir = TempDir("autograph_range");
  Graph g = Graph::Create(2, {{0, 1, 1.0}}, false,
                          Matrix::Constant(2, 2, 1.0), {0, 1}, 2);
  ASSERT_TRUE(WriteAutographDataset(dir, g, {0}, {1}, 60.0).ok());
  std::ofstream bad(dir + "/edge.tsv");
  bad << "0\t9\t1.0\n";
  bad.close();
  auto read = ReadAutographDataset(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kInvalidArgument);
}

TEST(AutographFormatTest, MissingConfigKeyRejected) {
  const std::string dir = TempDir("autograph_noclass");
  Graph g = Graph::Create(2, {{0, 1, 1.0}}, false,
                          Matrix::Constant(2, 2, 1.0), {0, 1}, 2);
  ASSERT_TRUE(WriteAutographDataset(dir, g, {0}, {1}, 60.0).ok());
  std::ofstream bad(dir + "/config.yml");
  bad << "time_budget: 60\n";  // n_class missing
  bad.close();
  auto read = ReadAutographDataset(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kInvalidArgument);
}

// Every numeric field is parsed whole: a malformed number is
// InvalidArgument, never an uncaught std::stoi / std::stod exception or a
// silently truncated value.
TEST(AutographFormatTest, MalformedNumbersRejected) {
  const std::string dir = TempDir("autograph_bad_number");
  Graph g = Graph::Create(2, {{0, 1, 1.0}}, false,
                          Matrix::Constant(2, 2, 1.0), {0, 1}, 2);
  const struct {
    const char* file;
    const char* contents;
  } cases[] = {
      {"train_node_id.txt", "0\nzero\n"},
      {"test_node_id.txt", "1x\n"},
      {"config.yml", "time_budget: soon\nn_class: 2\n"},
      {"config.yml", "n_class: two\n"},
      {"config.yml", "n_class: 2\ndirected: yes\n"},
      {"feature.tsv", "0\t1.0\t1.0\n1\t1.0\tone\n"},
      {"feature.tsv", "0\t1.0\t1.0\n1x\t1.0\t1.0\n"},
      {"edge.tsv", "0\t1\theavy\n"},
      {"edge.tsv", "0\t1x\t1.0\n"},
      {"train_label.tsv", "0\tA\n"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.file) + ": " + c.contents);
    ASSERT_TRUE(WriteAutographDataset(dir, g, {0}, {1}, 60.0).ok());
    {
      std::ofstream bad(dir + "/" + c.file, std::ios::trunc);
      bad << c.contents;
    }
    auto read = ReadAutographDataset(dir);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), Status::Code::kInvalidArgument);
  }
}

// --- model_store framing hardening ---------------------------------------

std::string WriteReferenceModel(const std::string& name) {
  ModelConfig cfg;
  cfg.family = ModelFamily::kGcn;
  cfg.in_dim = 3;
  cfg.hidden_dim = 4;
  std::vector<Matrix> params;
  params.push_back(Matrix::Constant(3, 4, 0.5));
  params.push_back(Matrix::Constant(1, 4, -0.25));
  const std::string path = TempDir(name);
  EXPECT_TRUE(SaveModel(path, cfg, params).ok());
  return path;
}

std::vector<char> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open());
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes,
                size_t count) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(count));
}

// Byte offset of the first tensor's rows field in the AHGM layout: magic(4)
// + version(4) + 4 u32 config fields + dropout f64 + heads u32 + 4 f64
// knobs + poly u32 + seed u64 + tensor count u32.
constexpr size_t kFirstTensorHeaderOffset =
    4 + 4 + 16 + 8 + 4 + 32 + 4 + 8 + 4;

TEST(ModelStoreTest, TruncatedFileAtEveryStageIsRejectedNotCrashed) {
  const std::string path = WriteReferenceModel("model_store_trunc.ahgm");
  const std::vector<char> bytes = ReadAllBytes(path);
  ASSERT_GT(bytes.size(), kFirstTensorHeaderOffset);
  // Cut inside the magic, the header, the tensor header, and the payload.
  for (size_t cut : std::vector<size_t>{2, 10, 40, kFirstTensorHeaderOffset,
                                        kFirstTensorHeaderOffset + 4,
                                        kFirstTensorHeaderOffset + 8 + 17,
                                        bytes.size() - 1}) {
    const std::string cut_path = TempDir("model_store_cut.ahgm");
    WriteBytes(cut_path, bytes, cut);
    auto loaded = LoadModel(cut_path);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument)
        << "cut at " << cut;
  }
}

TEST(ModelStoreTest, HugeTensorDimsRejectedWithoutAllocation) {
  const std::string path = WriteReferenceModel("model_store_bomb.ahgm");
  std::vector<char> bytes = ReadAllBytes(path);
  // Claim a ~146 exabyte tensor (0xFFFFFFFF x 0xFFFFFFFF doubles). The old
  // loader multiplied in int and tried to allocate; now the caps reject it
  // before any allocation.
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + kFirstTensorHeaderOffset, &huge, sizeof(huge));
  std::memcpy(bytes.data() + kFirstTensorHeaderOffset + 4, &huge,
              sizeof(huge));
  const std::string bomb = TempDir("model_store_bomb2.ahgm");
  WriteBytes(bomb, bytes, bytes.size());
  auto loaded = LoadModel(bomb);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
}

TEST(ModelStoreTest, PlausibleDimsBeyondFileSizeRejectedBeforeAllocation) {
  const std::string path = WriteReferenceModel("model_store_lie.ahgm");
  std::vector<char> bytes = ReadAllBytes(path);
  // Claim 4000x4000 (128 MB payload) in a file of a few hundred bytes:
  // within the dimension caps, but the file cannot hold it.
  const uint32_t rows = 4000, cols = 4000;
  std::memcpy(bytes.data() + kFirstTensorHeaderOffset, &rows, sizeof(rows));
  std::memcpy(bytes.data() + kFirstTensorHeaderOffset + 4, &cols,
              sizeof(cols));
  const std::string lie = TempDir("model_store_lie2.ahgm");
  WriteBytes(lie, bytes, bytes.size());
  auto loaded = LoadModel(lie);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
}

TEST(ModelStoreTest, RejectsUnknownFamily) {
  const std::string path = WriteReferenceModel("model_store_family.ahgm");
  std::vector<char> bytes = ReadAllBytes(path);
  // The family word follows magic(4) + version(4).
  const uint32_t unknown = 99;
  std::memcpy(bytes.data() + 8, &unknown, sizeof(unknown));
  const std::string patched = TempDir("model_store_family2.ahgm");
  WriteBytes(patched, bytes, bytes.size());
  auto loaded = LoadModel(patched);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
}

TEST(ModelStoreTest, RoundTripStillWorksAfterHardening) {
  const std::string path = WriteReferenceModel("model_store_ok.ahgm");
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().params.size(), 2u);
  EXPECT_EQ(loaded.value().params[0].rows(), 3);
  EXPECT_EQ(loaded.value().params[0].cols(), 4);
  EXPECT_DOUBLE_EQ(loaded.value().params[1](0, 0), -0.25);
}

TEST(AutographFormatTest, DirectedFlagRoundTrips) {
  const std::string dir = TempDir("autograph_directed");
  Graph g = Graph::Create(3, {{0, 1, 1.0}, {1, 2, 1.0}}, /*directed=*/true,
                          Matrix::Constant(3, 2, 1.0), {0, 1, 0}, 2);
  ASSERT_TRUE(WriteAutographDataset(dir, g, {0, 1}, {2}, 60.0).ok());
  auto read = ReadAutographDataset(dir);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().graph.directed());
}

}  // namespace
}  // namespace ahg
