#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "common/serialize.h"
#include "datasets/ground_truth.h"
#include "datasets/synthetic.h"
#include "faisslike/hnsw.h"
#include "faisslike/ivf_flat.h"
#include "faisslike/ivf_pq.h"
#include "faisslike/ivf_sq8.h"
#include "temp_path.h"

namespace vecdb::faisslike {
namespace {

Dataset TestData() {
  SyntheticOptions opt;
  opt.dim = 32;
  opt.num_base = 1200;
  opt.num_queries = 8;
  return GenerateClustered(opt);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

template <typename IndexT>
void ExpectSameResults(const IndexT& a, const IndexT& b, const Dataset& ds,
                       const SearchParams& params) {
  for (size_t q = 0; q < ds.num_queries; ++q) {
    auto ra = a.Search(ds.query_vector(q), params).ValueOrDie();
    auto rb = b.Search(ds.query_vector(q), params).ValueOrDie();
    EXPECT_EQ(ra, rb) << "query " << q;
  }
}

TEST(SerializeTest, PrimitivesRoundTrip) {
  const std::string path = TempPath("prims.bin");
  {
    auto writer = std::move(BinaryWriter::Open(path, 0xABCD, 1)).ValueOrDie();
    ASSERT_TRUE(writer.Write<int32_t>(-7).ok());
    ASSERT_TRUE(writer.Write<double>(3.25).ok());
    ASSERT_TRUE(writer.WriteString("hello").ok());
    std::vector<uint16_t> vec = {1, 2, 3};
    ASSERT_TRUE(writer.WriteVector(vec).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto reader = std::move(BinaryReader::Open(path, 0xABCD, 1)).ValueOrDie();
  int32_t i;
  double d;
  std::string s;
  std::vector<uint16_t> v;
  ASSERT_TRUE(reader.Read(&i).ok());
  ASSERT_TRUE(reader.Read(&d).ok());
  ASSERT_TRUE(reader.ReadString(&s).ok());
  ASSERT_TRUE(reader.ReadVector(&v).ok());
  EXPECT_EQ(i, -7);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v, (std::vector<uint16_t>{1, 2, 3}));
  std::remove(path.c_str());
}

TEST(SerializeTest, MagicAndVersionChecked) {
  const std::string path = TempPath("magic.bin");
  {
    auto writer = std::move(BinaryWriter::Open(path, 0x1111, 2)).ValueOrDie();
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_TRUE(BinaryReader::Open(path, 0x2222, 2).status().IsCorruption());
  EXPECT_TRUE(BinaryReader::Open(path, 0x1111, 3).status().IsNotSupported());
  EXPECT_TRUE(BinaryReader::Open(path, 0x1111, 2).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncationIsCorruption) {
  const std::string path = TempPath("trunc.bin");
  {
    auto writer = std::move(BinaryWriter::Open(path, 0x3333, 1)).ValueOrDie();
    ASSERT_TRUE(writer.Write<uint64_t>(1000).ok());  // promises an array
    ASSERT_TRUE(writer.Close().ok());
  }
  auto reader = std::move(BinaryReader::Open(path, 0x3333, 1)).ValueOrDie();
  std::vector<uint64_t> vec;
  EXPECT_TRUE(reader.ReadVector(&vec).IsCorruption());
  std::remove(path.c_str());
}

TEST(SerializeTest, VersionRangeOpen) {
  const std::string path = TempPath("range.bin");
  {
    auto writer = std::move(BinaryWriter::Open(path, 0x4444, 1)).ValueOrDie();
    ASSERT_TRUE(writer.Close().ok());
  }
  // A v1 file opens under a [1, 2] reader, which reports what it found.
  uint32_t found = 0;
  ASSERT_TRUE(BinaryReader::Open(path, 0x4444, 1, 2, &found).ok());
  EXPECT_EQ(found, 1u);
  // Outside the range in either direction is NotSupported.
  EXPECT_TRUE(
      BinaryReader::Open(path, 0x4444, 2, 3, &found).status().IsNotSupported());
  {
    auto writer = std::move(BinaryWriter::Open(path, 0x4444, 9)).ValueOrDie();
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_TRUE(
      BinaryReader::Open(path, 0x4444, 1, 2, &found).status().IsNotSupported());
  std::remove(path.c_str());
}

TEST(PersistenceTest, IvfFlatRoundTrip) {
  auto ds = TestData();
  IvfFlatOptions opt;
  opt.num_clusters = 16;
  IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  const std::string path = TempPath("ivfflat.idx");
  ASSERT_TRUE(index.Save(path).ok());
  IvfFlatIndex loaded(ds.dim, {});
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.NumVectors(), index.NumVectors());
  EXPECT_EQ(loaded.num_clusters(), index.num_clusters());
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  ExpectSameResults(index, loaded, ds, params);
  std::remove(path.c_str());
}

TEST(PersistenceTest, IvfPqRoundTrip) {
  auto ds = TestData();
  IvfPqOptions opt;
  opt.num_clusters = 16;
  opt.pq_m = 8;
  opt.pq_codes = 32;
  opt.sample_ratio = 0.5;
  IvfPqIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  const std::string path = TempPath("ivfpq.idx");
  ASSERT_TRUE(index.Save(path).ok());
  IvfPqIndex loaded(ds.dim, {});
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.NumVectors(), index.NumVectors());
  ASSERT_NE(loaded.pq(), nullptr);
  EXPECT_EQ(loaded.pq()->num_subvectors(), 8u);
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  ExpectSameResults(index, loaded, ds, params);
  std::remove(path.c_str());
}

TEST(PersistenceTest, IvfPqLoadedIndexAssignsInsertsLikeTheBuiltOne) {
  // The packed codebook one-row inserts assign against is rebuilt on Load,
  // never saved: a loaded index must route every insert to the same bucket.
  auto ds = TestData();
  IvfPqOptions opt;
  opt.num_clusters = 16;
  opt.pq_m = 8;
  opt.pq_codes = 32;
  opt.sample_ratio = 0.5;
  ASSERT_TRUE(opt.use_sgemm);
  IvfPqIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), 1000).ok());
  const std::string path = TempPath("ivfpq_insert.idx");
  ASSERT_TRUE(index.Save(path).ok());
  IvfPqIndex loaded(ds.dim, {});
  ASSERT_TRUE(loaded.Load(path).ok());
  for (size_t i = 1000; i < ds.num_base; ++i) {
    const int64_t id = static_cast<int64_t>(i);
    ASSERT_TRUE(index.AddBatch(ds.base_vector(i), 1, &id).ok());
    ASSERT_TRUE(loaded.AddBatch(ds.base_vector(i), 1, &id).ok());
  }
  // Saved files hold every bucket's ids and codes in order, so equal bytes
  // mean every insert landed in the same bucket.
  const std::string built_path = TempPath("ivfpq_insert_built.idx");
  const std::string loaded_path = TempPath("ivfpq_insert_loaded.idx");
  ASSERT_TRUE(index.Save(built_path).ok());
  ASSERT_TRUE(loaded.Save(loaded_path).ok());
  const std::string built_bytes = FileBytes(built_path);
  EXPECT_FALSE(built_bytes.empty());
  EXPECT_TRUE(built_bytes == FileBytes(loaded_path));
  for (const std::string& p : {path, built_path, loaded_path}) {
    std::remove(p.c_str());
  }
}

TEST(PersistenceTest, IvfFlatOptionsSurviveReload) {
  auto ds = TestData();
  IvfFlatOptions opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 0.5;
  opt.train_iterations = 7;
  opt.use_sgemm = false;
  opt.seed = 99;
  opt.num_threads = 2;
  IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  const std::string path = TempPath("ivfflat_opts.idx");
  ASSERT_TRUE(index.Save(path).ok());
  IvfFlatIndex loaded(ds.dim, {});
  ASSERT_TRUE(loaded.Load(path).ok());
  // v2 carries the full build-options block, so a reloaded index rebuilds
  // and re-inserts exactly like the original (v1 kept only use_sgemm).
  EXPECT_EQ(loaded.options().num_clusters, 16u);
  EXPECT_DOUBLE_EQ(loaded.options().sample_ratio, 0.5);
  EXPECT_EQ(loaded.options().train_iterations, 7);
  EXPECT_FALSE(loaded.options().use_sgemm);
  EXPECT_EQ(loaded.options().seed, 99u);
  EXPECT_EQ(loaded.options().num_threads, 2);
  std::remove(path.c_str());
}

TEST(PersistenceTest, IvfFlatV1FileStillLoads) {
  // Hand-written v1 payload: geometry + use_sgemm, no options block. The
  // loader must accept it and fall back to default options.
  const std::string path = TempPath("ivfflat_v1.idx");
  {
    constexpr uint32_t kIvfFlatMagic = 0x56495646;
    auto writer =
        std::move(BinaryWriter::Open(path, kIvfFlatMagic, 1)).ValueOrDie();
    const uint32_t dim = 4, clusters = 1;
    ASSERT_TRUE(writer.Write(dim).ok());
    ASSERT_TRUE(writer.Write(clusters).ok());
    ASSERT_TRUE(writer.Write<uint64_t>(2).ok());  // num_vectors
    ASSERT_TRUE(writer.Write(true).ok());         // use_sgemm
    AlignedFloats centroids;
    centroids.Resize(dim);
    for (size_t i = 0; i < dim; ++i) centroids.data()[i] = 0.5f;
    ASSERT_TRUE(writer.WriteFloats(centroids).ok());
    AlignedFloats bucket;
    bucket.Resize(2 * dim);
    for (size_t i = 0; i < 2 * dim; ++i) {
      bucket.data()[i] = static_cast<float>(i);
    }
    ASSERT_TRUE(writer.WriteFloats(bucket).ok());
    std::vector<int64_t> ids = {0, 1};
    ASSERT_TRUE(writer.WriteVector(ids).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  IvfFlatIndex loaded(4, {});
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.NumVectors(), 2u);
  EXPECT_EQ(loaded.Dim(), 4u);
  SearchParams params;
  params.k = 2;
  params.nprobe = 1;
  const float query[4] = {0.f, 1.f, 2.f, 3.f};
  auto results = loaded.Search(query, params).ValueOrDie();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 0);
  std::remove(path.c_str());
}

TEST(PersistenceTest, IvfPqV1FileStillLoads) {
  // Hand-written v1 payload: geometry + optimized_table, no options block,
  // and no refine sidecar. The loader must accept it, fall back to default
  // options and score every stored code against the right id.
  auto ds = TestData();
  PqOptions pq_opt;
  pq_opt.num_subvectors = 8;
  pq_opt.num_codes = 32;
  auto pq = std::move(ProductQuantizer::Train(ds.base.data(), ds.num_base,
                                              ds.dim, pq_opt))
                .ValueOrDie();
  std::vector<uint8_t> codes(ds.num_base * pq.code_size());
  std::vector<int64_t> ids(ds.num_base);
  for (size_t i = 0; i < ds.num_base; ++i) {
    pq.Encode(ds.base_vector(i), codes.data() + i * pq.code_size());
    ids[i] = static_cast<int64_t>(i);
  }
  const std::string path = TempPath("ivfpq_v1.idx");
  {
    constexpr uint32_t kIvfPqMagic = 0x56505158;
    auto writer =
        std::move(BinaryWriter::Open(path, kIvfPqMagic, 1)).ValueOrDie();
    ASSERT_TRUE(writer.Write(ds.dim).ok());
    ASSERT_TRUE(writer.Write<uint32_t>(1).ok());  // clusters
    ASSERT_TRUE(writer.Write<uint64_t>(ds.num_base).ok());
    ASSERT_TRUE(writer.Write(false).ok());  // optimized_table
    AlignedFloats centroids;
    centroids.Resize(ds.dim);
    ASSERT_TRUE(writer.WriteFloats(centroids).ok());
    ASSERT_TRUE(pq.Serialize(&writer).ok());
    ASSERT_TRUE(writer.WriteVector(codes).ok());
    ASSERT_TRUE(writer.WriteVector(ids).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  IvfPqIndex loaded(ds.dim, {});
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.NumVectors(), ds.num_base);
  EXPECT_EQ(loaded.num_clusters(), 1u);
  EXPECT_FALSE(loaded.options().optimized_table);
  EXPECT_EQ(loaded.options().refine_factor, 0u);
  EXPECT_EQ(loaded.options().pq_m, 8u);
  EXPECT_EQ(loaded.options().pq_codes, 32u);
  SearchParams params;
  params.k = 10;
  params.nprobe = 1;
  std::vector<float> table(pq.table_size());
  for (size_t q = 0; q < ds.num_queries; ++q) {
    auto results = loaded.Search(ds.query_vector(q), params).ValueOrDie();
    ASSERT_EQ(results.size(), 10u);
    pq.ComputeDistanceTableNaive(ds.query_vector(q), table.data());
    for (const Neighbor& nb : results) {
      EXPECT_EQ(nb.dist,
                pq.AdcDistance(table.data(),
                               codes.data() + nb.id * pq.code_size()));
    }
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, HnswV1FileStillLoads) {
  // Hand-written v1 graph: no seed in the options block. Three level-0
  // nodes, each linked to the other two; the loader must accept it, keep
  // the default seed and walk the graph.
  const std::string path = TempPath("hnsw_v1.idx");
  {
    constexpr uint32_t kHnswMagic = 0x56484e57;
    auto writer =
        std::move(BinaryWriter::Open(path, kHnswMagic, 1)).ValueOrDie();
    const uint32_t dim = 2, bnn = 2, efb = 8;
    ASSERT_TRUE(writer.Write(dim).ok());
    ASSERT_TRUE(writer.Write(bnn).ok());
    ASSERT_TRUE(writer.Write(efb).ok());
    ASSERT_TRUE(writer.Write<uint32_t>(3).ok());  // num_nodes
    ASSERT_TRUE(writer.Write<uint32_t>(0).ok());  // entry_point
    ASSERT_TRUE(writer.Write<int>(0).ok());       // max_level
    AlignedFloats vectors;
    vectors.Resize(3 * dim);
    const float coords[6] = {0.f, 0.f, 1.f, 0.f, 5.f, 5.f};
    std::copy(coords, coords + 6, vectors.data());
    ASSERT_TRUE(writer.WriteFloats(vectors).ok());
    ASSERT_TRUE(writer.WriteVector(std::vector<int>{0, 0, 0}).ok());
    // Level 0 holds 2 * bnn slots per node.
    ASSERT_TRUE(writer.WriteVector(std::vector<size_t>{0, 4, 8}).ok());
    ASSERT_TRUE(writer
                    .WriteVector(std::vector<uint32_t>{1, 2, 0, 0, 0, 2, 0,
                                                       0, 0, 1, 0, 0})
                    .ok());
    ASSERT_TRUE(writer.WriteVector(std::vector<uint16_t>{2, 2, 2}).ok());
    ASSERT_TRUE(writer.WriteVector(std::vector<size_t>{0, 1, 2}).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  HnswIndex loaded(2, {});
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.NumVectors(), 3u);
  EXPECT_EQ(loaded.Dim(), 2u);
  EXPECT_EQ(loaded.options().bnn, 2u);
  EXPECT_EQ(loaded.options().efb, 8u);
  EXPECT_EQ(loaded.options().seed, HnswOptions{}.seed);
  EXPECT_EQ(loaded.NeighborsOf(1, 0), (std::vector<uint32_t>{0, 2}));
  SearchParams params;
  params.k = 3;
  params.efs = 8;
  const float query[2] = {4.f, 4.f};
  auto results = loaded.Search(query, params).ValueOrDie();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].id, 2);
  EXPECT_EQ(results[1].id, 1);
  EXPECT_EQ(results[2].id, 0);
  std::remove(path.c_str());
}

TEST(PersistenceTest, IvfPqRefineSidecarRoundTrip) {
  auto ds = TestData();
  IvfPqOptions opt;
  opt.num_clusters = 16;
  opt.pq_m = 8;
  opt.pq_codes = 32;
  opt.sample_ratio = 0.5;
  opt.refine_factor = 3;
  IvfPqIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  const std::string path = TempPath("ivfpq_refine.idx");
  ASSERT_TRUE(index.Save(path).ok());
  IvfPqIndex loaded(ds.dim, {});
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.options().refine_factor, 3u);
  // Identical results prove the raw-vector sidecar (which v1 dropped) was
  // restored: the refine path rescores with exact distances, so any loss
  // of refine_vectors_ would change the ranking.
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  ExpectSameResults(index, loaded, ds, params);
  std::remove(path.c_str());
}

TEST(PersistenceTest, HnswRoundTrip) {
  auto ds = TestData();
  HnswOptions opt;
  opt.bnn = 8;
  opt.efb = 20;
  opt.seed = 77;
  HnswIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  const std::string path = TempPath("hnsw.idx");
  ASSERT_TRUE(index.Save(path).ok());
  HnswIndex loaded(ds.dim, {});
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.NumVectors(), index.NumVectors());
  EXPECT_EQ(loaded.max_level(), index.max_level());
  EXPECT_EQ(loaded.options().seed, 77u);  // v2 build-options block
  SearchParams params;
  params.k = 10;
  params.efs = 50;
  ExpectSameResults(index, loaded, ds, params);
  std::remove(path.c_str());
}

TEST(PersistenceTest, IvfSq8RoundTrip) {
  auto ds = TestData();
  IvfSq8Options opt;
  opt.num_clusters = 16;
  opt.sample_ratio = 0.5;
  opt.seed = 7;
  IvfSq8Index index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  const std::string path = TempPath("ivfsq8.idx");
  ASSERT_TRUE(index.Save(path).ok());
  IvfSq8Index loaded(ds.dim, {});
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.NumVectors(), index.NumVectors());
  EXPECT_EQ(loaded.num_clusters(), index.num_clusters());
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  ExpectSameResults(index, loaded, ds, params);
  // Codes, ids and options all round-trip: saving the loaded index writes
  // the same bytes.
  const std::string resaved = TempPath("ivfsq8_resaved.idx");
  ASSERT_TRUE(loaded.Save(resaved).ok());
  const std::string bytes = FileBytes(path);
  EXPECT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == FileBytes(resaved));
  for (const std::string& p : {path, resaved}) std::remove(p.c_str());
}

TEST(PersistenceTest, DimMismatchIsCorruptionAndLeavesIndexAlone) {
  auto ds = TestData();
  IvfFlatOptions opt;
  opt.num_clusters = 8;
  IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  const std::string path = TempPath("dim.idx");
  ASSERT_TRUE(index.Save(path).ok());
  IvfFlatIndex narrower(ds.dim / 2, {});
  EXPECT_TRUE(narrower.Load(path).IsCorruption());
  // A failed Load keeps the index it was called on.
  IvfFlatIndex built(ds.dim, opt);
  ASSERT_TRUE(built.Build(ds.base.data(), ds.num_base).ok());
  EXPECT_TRUE(built.Load(TempPath("missing.idx")).IsIOError());
  EXPECT_EQ(built.NumVectors(), ds.num_base);
  SearchParams params;
  params.k = 10;
  params.nprobe = 4;
  ExpectSameResults(index, built, ds, params);
  std::remove(path.c_str());
}

TEST(PersistenceTest, UnbuiltIndexRefusesToSave) {
  IvfFlatOptions opt;
  IvfFlatIndex index(8, opt);
  EXPECT_FALSE(index.Save(TempPath("never.idx")).ok());
}

TEST(PersistenceTest, WrongIndexTypeRejected) {
  auto ds = TestData();
  IvfFlatOptions opt;
  opt.num_clusters = 8;
  IvfFlatIndex index(ds.dim, opt);
  ASSERT_TRUE(index.Build(ds.base.data(), ds.num_base).ok());
  const std::string path = TempPath("crossload.idx");
  ASSERT_TRUE(index.Save(path).ok());
  // An IVF_FLAT file is not an HNSW file.
  EXPECT_TRUE(HnswIndex(ds.dim, {}).Load(path).IsCorruption());
  std::remove(path.c_str());
}

TEST(PersistenceTest, MissingFileIsIOError) {
  EXPECT_TRUE(IvfFlatIndex(8, {}).Load("/nonexistent/x.idx").IsIOError());
}

}  // namespace
}  // namespace vecdb::faisslike
