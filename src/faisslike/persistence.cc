// Save/Load for the specialized engine's indexes (Faiss's write_index /
// read_index analog): one self-describing binary file per index.
#include <cstring>

#include "common/serialize.h"
#include "faisslike/hnsw.h"
#include "faisslike/ivf_flat.h"
#include "faisslike/ivf_pq.h"

namespace vecdb::faisslike {

namespace {
constexpr uint32_t kIvfFlatMagic = 0x56495646;  // "VIVF"
constexpr uint32_t kIvfPqMagic = 0x56505158;    // "VPQX"
constexpr uint32_t kHnswMagic = 0x56484e57;     // "VHNW"
// v1 carried only the options needed to search (use_sgemm /
// optimized_table); v2 serializes the full build-options block so a loaded
// index re-trains and re-inserts exactly like the original, and adds the
// IVF_PQ refinement vectors that v1 silently dropped. Loaders accept both.
constexpr uint32_t kMinFormatVersion = 1;
constexpr uint32_t kFormatVersion = 2;
}  // namespace

Status IvfFlatIndex::Save(const std::string& path) const {
  if (num_clusters_ == 0) {
    return Status::InvalidArgument("IvfFlat::Save: index not built");
  }
  if (!tombstones_.empty()) {
    return Status::InvalidArgument(
        "IvfFlat::Save: rebuild before persisting a deleted-from index");
  }
  VECDB_ASSIGN_OR_RETURN(BinaryWriter writer,
                         BinaryWriter::Open(path, kIvfFlatMagic,
                                            kFormatVersion));
  VECDB_RETURN_NOT_OK(writer.Write(dim_));
  VECDB_RETURN_NOT_OK(writer.Write(num_clusters_));
  VECDB_RETURN_NOT_OK(writer.Write<uint64_t>(num_vectors_));
  VECDB_RETURN_NOT_OK(writer.Write(options_.use_sgemm));
  // v2: the rest of the build-options block.
  VECDB_RETURN_NOT_OK(writer.Write(options_.num_clusters));
  VECDB_RETURN_NOT_OK(writer.Write(options_.sample_ratio));
  VECDB_RETURN_NOT_OK(writer.Write<int32_t>(options_.train_iterations));
  VECDB_RETURN_NOT_OK(writer.Write(options_.seed));
  VECDB_RETURN_NOT_OK(writer.Write<int32_t>(options_.num_threads));
  VECDB_RETURN_NOT_OK(writer.WriteFloats(centroids_));
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    VECDB_RETURN_NOT_OK(writer.WriteFloats(bucket_vecs_[b]));
    VECDB_RETURN_NOT_OK(writer.WriteVector(bucket_ids_[b]));
  }
  return writer.Close();
}

Result<IvfFlatIndex> IvfFlatIndex::Load(const std::string& path) {
  uint32_t version = 0;
  VECDB_ASSIGN_OR_RETURN(
      BinaryReader reader,
      BinaryReader::Open(path, kIvfFlatMagic, kMinFormatVersion,
                         kFormatVersion, &version));
  uint32_t dim = 0, clusters = 0;
  uint64_t num_vectors = 0;
  bool use_sgemm = true;
  VECDB_RETURN_NOT_OK(reader.Read(&dim));
  VECDB_RETURN_NOT_OK(reader.Read(&clusters));
  VECDB_RETURN_NOT_OK(reader.Read(&num_vectors));
  VECDB_RETURN_NOT_OK(reader.Read(&use_sgemm));
  if (dim == 0 || clusters == 0) {
    return Status::Corruption("IvfFlat::Load: bad geometry");
  }
  IvfFlatOptions options;
  options.num_clusters = clusters;
  options.use_sgemm = use_sgemm;
  if (version >= 2) {
    int32_t train_iterations = 0, num_threads = 0;
    VECDB_RETURN_NOT_OK(reader.Read(&options.num_clusters));
    VECDB_RETURN_NOT_OK(reader.Read(&options.sample_ratio));
    VECDB_RETURN_NOT_OK(reader.Read(&train_iterations));
    VECDB_RETURN_NOT_OK(reader.Read(&options.seed));
    VECDB_RETURN_NOT_OK(reader.Read(&num_threads));
    options.train_iterations = train_iterations;
    options.num_threads = num_threads;
  }
  IvfFlatIndex index(dim, options);
  index.num_clusters_ = clusters;
  index.num_vectors_ = num_vectors;
  VECDB_RETURN_NOT_OK(reader.ReadFloats(&index.centroids_));
  if (index.centroids_.size() != static_cast<size_t>(clusters) * dim) {
    return Status::Corruption("IvfFlat::Load: centroid size mismatch");
  }
  index.bucket_vecs_ = std::vector<AlignedFloats>(clusters);
  index.bucket_ids_.assign(clusters, {});
  size_t total = 0;
  for (uint32_t b = 0; b < clusters; ++b) {
    VECDB_RETURN_NOT_OK(reader.ReadFloats(&index.bucket_vecs_[b]));
    VECDB_RETURN_NOT_OK(reader.ReadVector(&index.bucket_ids_[b]));
    if (index.bucket_vecs_[b].size() !=
        index.bucket_ids_[b].size() * dim) {
      return Status::Corruption("IvfFlat::Load: bucket size mismatch");
    }
    total += index.bucket_ids_[b].size();
  }
  if (total != num_vectors) {
    return Status::Corruption("IvfFlat::Load: vector count mismatch");
  }
  index.PackCodebook();
  return index;
}

Status IvfPqIndex::Save(const std::string& path) const {
  if (!pq_) return Status::InvalidArgument("IvfPq::Save: index not built");
  if (!tombstones_.empty()) {
    return Status::InvalidArgument(
        "IvfPq::Save: rebuild before persisting a deleted-from index");
  }
  VECDB_ASSIGN_OR_RETURN(
      BinaryWriter writer,
      BinaryWriter::Open(path, kIvfPqMagic, kFormatVersion));
  VECDB_RETURN_NOT_OK(writer.Write(dim_));
  VECDB_RETURN_NOT_OK(writer.Write(num_clusters_));
  VECDB_RETURN_NOT_OK(writer.Write<uint64_t>(num_vectors_));
  VECDB_RETURN_NOT_OK(writer.Write(options_.optimized_table));
  // v2: the rest of the build-options block.
  VECDB_RETURN_NOT_OK(writer.Write(options_.num_clusters));
  VECDB_RETURN_NOT_OK(writer.Write(options_.pq_m));
  VECDB_RETURN_NOT_OK(writer.Write(options_.pq_codes));
  VECDB_RETURN_NOT_OK(writer.Write(options_.sample_ratio));
  VECDB_RETURN_NOT_OK(writer.Write<int32_t>(options_.train_iterations));
  VECDB_RETURN_NOT_OK(writer.Write(options_.use_sgemm));
  VECDB_RETURN_NOT_OK(writer.Write(options_.refine_factor));
  VECDB_RETURN_NOT_OK(writer.Write(options_.seed));
  VECDB_RETURN_NOT_OK(writer.Write<int32_t>(options_.num_threads));
  VECDB_RETURN_NOT_OK(writer.WriteFloats(centroids_));
  VECDB_RETURN_NOT_OK(pq_->Serialize(&writer));
  for (uint32_t b = 0; b < num_clusters_; ++b) {
    VECDB_RETURN_NOT_OK(writer.WriteVector(bucket_codes_[b]));
    VECDB_RETURN_NOT_OK(writer.WriteVector(bucket_ids_[b]));
  }
  // v2: the refinement sidecar (raw vectors + row->id mapping), which v1
  // dropped — a refining index reloaded from a v1 file silently lost its
  // exact-rescore data.
  if (options_.refine_factor > 0) {
    const size_t rows = refine_vectors_.size() / dim_;
    std::vector<int64_t> row_ids(rows);
    for (const auto& [id, row] : refine_pos_) row_ids[row] = id;
    VECDB_RETURN_NOT_OK(writer.WriteFloats(refine_vectors_));
    VECDB_RETURN_NOT_OK(writer.WriteVector(row_ids));
  }
  return writer.Close();
}

Result<IvfPqIndex> IvfPqIndex::Load(const std::string& path) {
  uint32_t version = 0;
  VECDB_ASSIGN_OR_RETURN(
      BinaryReader reader,
      BinaryReader::Open(path, kIvfPqMagic, kMinFormatVersion,
                         kFormatVersion, &version));
  uint32_t dim = 0, clusters = 0;
  uint64_t num_vectors = 0;
  bool optimized_table = true;
  VECDB_RETURN_NOT_OK(reader.Read(&dim));
  VECDB_RETURN_NOT_OK(reader.Read(&clusters));
  VECDB_RETURN_NOT_OK(reader.Read(&num_vectors));
  VECDB_RETURN_NOT_OK(reader.Read(&optimized_table));
  if (dim == 0 || clusters == 0) {
    return Status::Corruption("IvfPq::Load: bad geometry");
  }
  IvfPqOptions options;
  options.num_clusters = clusters;
  options.optimized_table = optimized_table;
  if (version >= 2) {
    int32_t train_iterations = 0, num_threads = 0;
    VECDB_RETURN_NOT_OK(reader.Read(&options.num_clusters));
    VECDB_RETURN_NOT_OK(reader.Read(&options.pq_m));
    VECDB_RETURN_NOT_OK(reader.Read(&options.pq_codes));
    VECDB_RETURN_NOT_OK(reader.Read(&options.sample_ratio));
    VECDB_RETURN_NOT_OK(reader.Read(&train_iterations));
    VECDB_RETURN_NOT_OK(reader.Read(&options.use_sgemm));
    VECDB_RETURN_NOT_OK(reader.Read(&options.refine_factor));
    VECDB_RETURN_NOT_OK(reader.Read(&options.seed));
    VECDB_RETURN_NOT_OK(reader.Read(&num_threads));
    options.train_iterations = train_iterations;
    options.num_threads = num_threads;
  }
  IvfPqIndex index(dim, options);
  index.num_clusters_ = clusters;
  index.num_vectors_ = num_vectors;
  VECDB_RETURN_NOT_OK(reader.ReadFloats(&index.centroids_));
  if (index.centroids_.size() != static_cast<size_t>(clusters) * dim) {
    return Status::Corruption("IvfPq::Load: centroid size mismatch");
  }
  VECDB_ASSIGN_OR_RETURN(ProductQuantizer pq,
                         ProductQuantizer::Deserialize(&reader));
  if (pq.dim() != dim) {
    return Status::Corruption("IvfPq::Load: PQ dim mismatch");
  }
  index.options_.pq_m = pq.num_subvectors();
  index.options_.pq_codes = pq.num_codes();
  index.pq_.emplace(std::move(pq));
  index.bucket_codes_.assign(clusters, {});
  index.bucket_ids_.assign(clusters, {});
  const size_t code_size = index.pq_->code_size();
  size_t total = 0;
  for (uint32_t b = 0; b < clusters; ++b) {
    VECDB_RETURN_NOT_OK(reader.ReadVector(&index.bucket_codes_[b]));
    VECDB_RETURN_NOT_OK(reader.ReadVector(&index.bucket_ids_[b]));
    if (index.bucket_codes_[b].size() !=
        index.bucket_ids_[b].size() * code_size) {
      return Status::Corruption("IvfPq::Load: bucket size mismatch");
    }
    total += index.bucket_ids_[b].size();
  }
  if (total != num_vectors) {
    return Status::Corruption("IvfPq::Load: vector count mismatch");
  }
  if (version >= 2 && index.options_.refine_factor > 0) {
    std::vector<int64_t> row_ids;
    VECDB_RETURN_NOT_OK(reader.ReadFloats(&index.refine_vectors_));
    VECDB_RETURN_NOT_OK(reader.ReadVector(&row_ids));
    if (index.refine_vectors_.size() != row_ids.size() * dim) {
      return Status::Corruption("IvfPq::Load: refine sidecar mismatch");
    }
    index.refine_pos_.reserve(row_ids.size());
    for (size_t row = 0; row < row_ids.size(); ++row) {
      index.refine_pos_[row_ids[row]] = row;
    }
  }
  index.PackCodebook();
  return index;
}

Status HnswIndex::Save(const std::string& path) const {
  if (num_nodes_ == 0) {
    return Status::InvalidArgument("Hnsw::Save: index is empty");
  }
  if (!tombstones_.empty()) {
    return Status::InvalidArgument(
        "Hnsw::Save: rebuild before persisting a deleted-from index");
  }
  VECDB_ASSIGN_OR_RETURN(
      BinaryWriter writer,
      BinaryWriter::Open(path, kHnswMagic, kFormatVersion));
  VECDB_RETURN_NOT_OK(writer.Write(dim_));
  VECDB_RETURN_NOT_OK(writer.Write(options_.bnn));
  VECDB_RETURN_NOT_OK(writer.Write(options_.efb));
  // v2: the rest of the build-options block.
  VECDB_RETURN_NOT_OK(writer.Write(options_.seed));
  VECDB_RETURN_NOT_OK(writer.Write(num_nodes_));
  VECDB_RETURN_NOT_OK(writer.Write(entry_point_));
  VECDB_RETURN_NOT_OK(writer.Write(max_level_));
  VECDB_RETURN_NOT_OK(writer.WriteFloats(vectors_));
  VECDB_RETURN_NOT_OK(writer.WriteVector(node_level_));
  VECDB_RETURN_NOT_OK(writer.WriteVector(link_offset_));
  VECDB_RETURN_NOT_OK(writer.WriteVector(links_));
  VECDB_RETURN_NOT_OK(writer.WriteVector(link_counts_));
  VECDB_RETURN_NOT_OK(writer.WriteVector(count_offset_));
  return writer.Close();
}

Result<HnswIndex> HnswIndex::Load(const std::string& path) {
  uint32_t version = 0;
  VECDB_ASSIGN_OR_RETURN(
      BinaryReader reader,
      BinaryReader::Open(path, kHnswMagic, kMinFormatVersion,
                         kFormatVersion, &version));
  uint32_t dim = 0;
  HnswOptions options;
  VECDB_RETURN_NOT_OK(reader.Read(&dim));
  VECDB_RETURN_NOT_OK(reader.Read(&options.bnn));
  VECDB_RETURN_NOT_OK(reader.Read(&options.efb));
  if (version >= 2) {
    VECDB_RETURN_NOT_OK(reader.Read(&options.seed));
  }
  if (dim == 0 || options.bnn == 0) {
    return Status::Corruption("Hnsw::Load: bad geometry");
  }
  HnswIndex index(dim, options);
  VECDB_RETURN_NOT_OK(reader.Read(&index.num_nodes_));
  VECDB_RETURN_NOT_OK(reader.Read(&index.entry_point_));
  VECDB_RETURN_NOT_OK(reader.Read(&index.max_level_));
  VECDB_RETURN_NOT_OK(reader.ReadFloats(&index.vectors_));
  VECDB_RETURN_NOT_OK(reader.ReadVector(&index.node_level_));
  VECDB_RETURN_NOT_OK(reader.ReadVector(&index.link_offset_));
  VECDB_RETURN_NOT_OK(reader.ReadVector(&index.links_));
  VECDB_RETURN_NOT_OK(reader.ReadVector(&index.link_counts_));
  VECDB_RETURN_NOT_OK(reader.ReadVector(&index.count_offset_));
  const size_t n = index.num_nodes_;
  if (index.vectors_.size() != n * dim || index.node_level_.size() != n ||
      index.link_offset_.size() != n || index.count_offset_.size() != n ||
      (n > 0 && index.entry_point_ >= n)) {
    return Status::Corruption("Hnsw::Load: inconsistent graph");
  }
  // Neighbor ids must be in range.
  for (uint32_t nb : index.links_) {
    if (nb >= n && nb != 0) {
      // Unused slots are zero-filled; a nonzero out-of-range id is corrupt.
      return Status::Corruption("Hnsw::Load: neighbor id out of range");
    }
  }
  return index;
}

}  // namespace vecdb::faisslike
