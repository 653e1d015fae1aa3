#include "bridge/bridged_hnsw.h"

#include <cstring>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"

namespace vecdb::bridge {

namespace {
/// Persisted adjacency item header; entries follow (4 or 24 bytes each).
struct AdjListHeader {
  uint32_t node;
  uint16_t level;
  uint16_t count;
};
}  // namespace

BridgedHnswIndex::BridgedHnswIndex(pase::PaseEnv env, uint32_t dim,
                                   BridgedHnswOptions options)
    : env_(env),
      dim_(dim),
      options_(options),
      graph_(dim,
             faisslike::HnswOptions{options.bnn, options.efb, options.seed}) {}

Status BridgedHnswIndex::PersistImage(const float* data, size_t n) {
  VECDB_ASSIGN_OR_RETURN(
      data_rel_, env_.smgr->CreateRelation(options_.rel_prefix + "_data"));
  VECDB_ASSIGN_OR_RETURN(
      nbr_rel_, env_.smgr->CreateRelation(options_.rel_prefix + "_nbr"));

  // Vector tuples, packed densely (same as PASE data pages).
  const uint32_t vec_tuple =
      sizeof(pase::PaseVectorTuple) + dim_ * sizeof(float);
  std::vector<char> tuple(vec_tuple);
  pgstub::BufferHandle handle{};
  bool have_page = false;
  auto flush = [&]() {
    if (have_page) {
      env_.bufmgr->Unpin(handle, true);
      have_page = false;
    }
  };
  auto add_item = [&](pgstub::RelId rel, const char* item,
                      uint16_t len) -> Status {
    if (have_page) {
      pgstub::PageView page(handle.data, env_.bufmgr->page_size());
      if (page.AddItem(item, len) != pgstub::kInvalidOffset) {
        return Status::OK();
      }
      env_.bufmgr->Unpin(handle, true);
      have_page = false;
    }
    VECDB_ASSIGN_OR_RETURN(auto fresh, env_.bufmgr->NewPage(rel));
    handle = fresh.second;
    have_page = true;
    pgstub::PageView page(handle.data, env_.bufmgr->page_size());
    page.Init(0);
    if (page.AddItem(item, len) == pgstub::kInvalidOffset) {
      env_.bufmgr->Unpin(handle, true);
      have_page = false;
      return Status::Internal("BridgedHnsw: item larger than a page");
    }
    return Status::OK();
  };

  for (size_t i = 0; i < n; ++i) {
    auto* header = reinterpret_cast<pase::PaseVectorTuple*>(tuple.data());
    header->row_id = static_cast<int64_t>(i);
    header->level = 0;
    std::memcpy(tuple.data() + sizeof(pase::PaseVectorTuple), data + i * dim_,
                dim_ * sizeof(float));
    VECDB_RETURN_NOT_OK(
        add_item(data_rel_, tuple.data(), static_cast<uint16_t>(vec_tuple)));
  }
  flush();

  // Adjacency lists, packed or page-per-vertex, compact or 24-byte.
  const size_t entry_bytes = options_.compact_tuples
                                 ? sizeof(uint32_t)
                                 : sizeof(pase::HnswNeighborTuple);
  std::vector<char> adj;
  for (uint32_t node = 0; node < graph_.NumVectors(); ++node) {
    if (!options_.pack_pages) flush();  // PASE behaviour: fresh page/vertex
    const int top = graph_.NodeLevel(node);
    for (int lev = 0; lev <= top; ++lev) {
      auto nbrs = graph_.NeighborsOf(node, lev);
      adj.resize(sizeof(AdjListHeader) + nbrs.size() * entry_bytes);
      auto* header = reinterpret_cast<AdjListHeader*>(adj.data());
      header->node = node;
      header->level = static_cast<uint16_t>(lev);
      header->count = static_cast<uint16_t>(nbrs.size());
      char* out = adj.data() + sizeof(AdjListHeader);
      for (uint32_t nb : nbrs) {
        if (options_.compact_tuples) {
          std::memcpy(out, &nb, sizeof(uint32_t));
          out += sizeof(uint32_t);
        } else {
          pase::HnswNeighborTuple t{};
          t.gid = {nb, nb, 1};
          std::memcpy(out, &t, sizeof(t));
          out += sizeof(t);
        }
      }
      VECDB_RETURN_NOT_OK(add_item(nbr_rel_, adj.data(),
                                   static_cast<uint16_t>(adj.size())));
    }
  }
  flush();
  return Status::OK();
}

Status BridgedHnswIndex::Build(const float* data, size_t n) {
  if (!env_.valid()) return Status::InvalidArgument("BridgedHnsw: bad env");
  Timer timer;
  VECDB_RETURN_NOT_OK(graph_.Build(data, n));
  VECDB_RETURN_NOT_OK(PersistImage(data, n));
  build_stats_ = {};
  build_stats_.add_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

Result<std::vector<Neighbor>> BridgedHnswIndex::Search(
    const float* query, const SearchParams& params) const {
  if (query == nullptr) {
    return Status::InvalidArgument("BridgedHnsw: null query");
  }
  VECDB_RETURN_NOT_OK(
      ValidateSearchParams(params, IndexKind::kGraph, "BridgedHnsw::Search"));
  const QueryContext& ctx = params.ctx;
  obs::MetricsRegistry* metrics = ctx.live_metrics();
  obs::LatencyScope latency(metrics, obs::Hist::kBridgeSearchNanos);
  if (metrics != nullptr) metrics->AddUnchecked(obs::Counter::kBridgeQueries);
  // Traversal counters land under faiss.* — the bridge delegates its whole
  // search to the in-memory graph.
  return graph_.Search(query, params);
}

size_t BridgedHnswIndex::SizeBytes() const {
  size_t blocks = 0;
  if (auto r = env_.smgr->NumBlocks(data_rel_); r.ok()) blocks += *r;
  if (auto r = env_.smgr->NumBlocks(nbr_rel_); r.ok()) blocks += *r;
  return blocks * static_cast<size_t>(env_.bufmgr->page_size());
}

std::string BridgedHnswIndex::Describe() const {
  return "bridge::HNSW dim=" + std::to_string(dim_) +
         " bnn=" + std::to_string(options_.bnn) +
         (options_.pack_pages ? " packed" : " page-per-vertex") +
         (options_.compact_tuples ? " 4B-ids" : " 24B-tuples");
}

}  // namespace vecdb::bridge
