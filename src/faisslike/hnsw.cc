#include "faisslike/hnsw.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "common/check.h"
#include "common/serialize.h"
#include "common/timer.h"
#include "distance/kernels.h"

namespace vecdb::faisslike {

namespace {

/// Epoch-stamped visited table (Faiss's VisitedTable), one per thread and
/// shared by every graph the thread searches. Each call takes a fresh
/// epoch, so stamps left by earlier calls, on this graph or another, never
/// match: O(1) reset. The array grows to `num_nodes` on demand, and an
/// epoch wrap to 0 refills it. A plain function on purpose: a thread_local
/// inside SearchLayer<Gate> would be one table per instantiation.
std::pair<uint32_t*, uint32_t> NextVisitEpoch(size_t num_nodes) {
  thread_local std::vector<uint32_t> stamps;
  thread_local uint32_t epoch = 0;
  if (stamps.size() < num_nodes) stamps.resize(num_nodes, 0u);
  if (++epoch == 0) {
    std::fill(stamps.begin(), stamps.end(), 0u);
    epoch = 1;
  }
  return {stamps.data(), epoch};
}

constexpr uint32_t kHnswMagic = 0x56484e57;  // "VHNW"
// v2 added the seed to the options block; Load accepts both.
constexpr uint32_t kHnswMinVersion = 1;
constexpr uint32_t kHnswVersion = 2;

}  // namespace

int HnswIndex::RandomLevel() {
  const double u = rng_.UniformDouble();
  const double mult = 1.0 / std::log(static_cast<double>(options_.bnn));
  const int level = static_cast<int>(-std::log(u + 1e-30) * mult);
  return std::min(level, 31);
}

size_t HnswIndex::LinkOffset(uint32_t node, int level) const {
  size_t off = link_offset_[node];
  if (level > 0) {
    off += LevelCapacity(0) + static_cast<size_t>(level - 1) * options_.bnn;
  }
  return off;
}

std::vector<uint32_t> HnswIndex::NeighborsOf(uint32_t node, int level) const {
  const uint16_t count = link_counts_[count_offset_[node] + level];
  const size_t off = LinkOffset(node, level);
  return {links_.begin() + off, links_.begin() + off + count};
}

uint32_t HnswIndex::GreedyClosest(const float* query, uint32_t entry,
                                  int level, Profiler* profiler) const {
  ProfScope scope(profiler, "GreedyUpdate");
  uint32_t cur = entry;
  float cur_dist = L2Sqr(query, NodeVector(cur), dim_);
  bool improved = true;
  while (improved) {
    improved = false;
    const uint16_t count = link_counts_[count_offset_[cur] + level];
    const uint32_t* nbrs = links_.data() + LinkOffset(cur, level);
    for (uint16_t i = 0; i < count; ++i) {
      const float d = L2Sqr(query, NodeVector(nbrs[i]), dim_);
      if (d < cur_dist) {
        cur_dist = d;
        cur = nbrs[i];
        improved = true;
      }
    }
  }
  return cur;
}

template <class Gate>
std::vector<Neighbor> HnswIndex::SearchLayer(
    const float* query, uint32_t entry, uint32_t ef, int level,
    const Gate& gate, Profiler* profiler, obs::SearchCounters* counters,
    const QueryContext* ctx) const {
  // O(1) visited reset via epoch stamping — the cheap path PASE's HVTGet
  // hash probing is contrasted against (Fig 8).
  const auto [visit_stamp, epoch] = NextVisitEpoch(num_nodes_);

  auto greater = [](const Neighbor& a, const Neighbor& b) { return b < a; };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(greater)>
      candidates(greater);
  KMaxHeap results(ef);
  uint64_t bitmap_probes = 0;
  auto admit = [&](uint32_t u) {
    if constexpr (Gate::kFiltered) {
      ++bitmap_probes;
      return gate(u);
    }
    return true;
  };

  const float d0 = L2Sqr(query, NodeVector(entry), dim_);
  visit_stamp[entry] = epoch;
  candidates.push({d0, static_cast<int64_t>(entry)});
  if (admit(entry)) results.Push(d0, entry);

  std::vector<uint32_t> fresh;
  fresh.reserve(LevelCapacity(level));
  uint32_t pops = 0;
  while (!candidates.empty()) {
    // Cancellation checkpoint every 32 beam pops: each pop expands at
    // most 2*bnn neighbors, so a cancel lands within a bounded slice of
    // graph traversal even on adversarially long beams.
    if (ctx != nullptr && (++pops & 31u) == 0u && ctx->StopRequested()) {
      break;
    }
    const Neighbor c = candidates.top();
    if (results.full() && c.dist > results.worst()) break;
    candidates.pop();

    const uint32_t node = static_cast<uint32_t>(c.id);
    const uint16_t count = link_counts_[count_offset_[node] + level];
    const uint32_t* nbrs = links_.data() + LinkOffset(node, level);

    // Visited filtering — Faiss's array lookup, charged as HVTGet so the
    // PASE hash-table variant is directly comparable.
    fresh.clear();
    {
      ProfScope scope(profiler, "HVTGet");
      for (uint16_t i = 0; i < count; ++i) {
        const uint32_t u = nbrs[i];
        if (visit_stamp[u] != epoch) {
          visit_stamp[u] = epoch;
          fresh.push_back(u);
        }
      }
    }
    // Distance batch over the unvisited frontier. Every improving node
    // feeds the frontier (dropping rejected ones would disconnect the
    // traversal at low selectivity); only admitted nodes take result slots.
    ProfScope scope(profiler, "fvec_L2sqr");
    size_t pushes = 0;
    for (uint32_t u : fresh) {
      const float d = L2Sqr(query, NodeVector(u), dim_);
      if (!results.full() || d < results.worst()) {
        candidates.push({d, static_cast<int64_t>(u)});
        if (admit(u)) {
          results.Push(d, u);
          ++pushes;
        }
      }
    }
    if (counters != nullptr) {
      counters->tuples_visited += fresh.size();
      counters->heap_pushes += pushes;
    }
  }
  if (counters != nullptr) counters->bitmap_probes += bitmap_probes;
  return results.TakeSorted();
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(
    const std::vector<Neighbor>& cands, uint32_t max_count,
    Profiler* profiler) const {
  ProfScope scope(profiler, "ShrinkNbList");
  std::vector<uint32_t> selected;
  selected.reserve(max_count);
  for (const auto& c : cands) {
    if (selected.size() >= max_count) break;
    const float* cv = NodeVector(static_cast<uint32_t>(c.id));
    bool keep = true;
    for (uint32_t s : selected) {
      if (L2Sqr(cv, NodeVector(s), dim_) < c.dist) {
        keep = false;
        break;
      }
    }
    if (keep) selected.push_back(static_cast<uint32_t>(c.id));
  }
  return selected;
}

void HnswIndex::AddLinks(uint32_t node, const std::vector<uint32_t>& peers,
                         int level, Profiler* profiler) {
  ProfScope scope(profiler, "AddLink");
  const uint32_t cap = LevelCapacity(level);

  // Forward edges: node -> peers (node's list was empty at this level).
  uint16_t& count = link_counts_[count_offset_[node] + level];
  uint32_t* slots = links_.data() + LinkOffset(node, level);
  for (uint32_t p : peers) {
    if (count >= cap) break;
    slots[count++] = p;
  }

  // Reverse edges: peer -> node, shrinking with the heuristic on overflow.
  for (uint32_t p : peers) {
    uint16_t& pcount = link_counts_[count_offset_[p] + level];
    uint32_t* pslots = links_.data() + LinkOffset(p, level);
    if (pcount < cap) {
      pslots[pcount++] = node;
      continue;
    }
    std::vector<Neighbor> merged;
    merged.reserve(pcount + 1);
    const float* pv = NodeVector(p);
    for (uint16_t i = 0; i < pcount; ++i) {
      merged.push_back({L2Sqr(pv, NodeVector(pslots[i]), dim_),
                        static_cast<int64_t>(pslots[i])});
    }
    merged.push_back(
        {L2Sqr(pv, NodeVector(node), dim_), static_cast<int64_t>(node)});
    std::sort(merged.begin(), merged.end());
    auto kept = SelectNeighbors(merged, cap, nullptr);
    pcount = static_cast<uint16_t>(kept.size());
    std::copy(kept.begin(), kept.end(), pslots);
  }
}

Status HnswIndex::Add(const float* vec) {
  if (vec == nullptr) return Status::InvalidArgument("Hnsw::Add: null vector");
  Profiler* profiler = options_.profiler;

  const uint32_t node = num_nodes_++;
  const int level = RandomLevel();
  vectors_.Append(vec, dim_);
  node_level_.push_back(level);
  link_offset_.push_back(links_.size());
  links_.resize(links_.size() + LevelCapacity(0) +
                static_cast<size_t>(level) * options_.bnn);
  count_offset_.push_back(link_counts_.size());
  link_counts_.resize(link_counts_.size() + level + 1, 0);

  if (node == 0) {
    entry_point_ = 0;
    max_level_ = level;
    return Status::OK();
  }

  uint32_t cur = entry_point_;
  // Descend through levels above the new node's level (GreedyUpdate).
  for (int lev = max_level_; lev > level; --lev) {
    cur = GreedyClosest(vec, cur, lev, profiler);
  }

  // Connect at each level from min(level, max_level_) down to 0.
  for (int lev = std::min(level, max_level_); lev >= 0; --lev) {
    std::vector<Neighbor> cands;
    {
      ProfScope scope(profiler, "SearchNbToAdd");
      cands = SearchLayer(vec, cur, options_.efb, lev, filter::AllSelected{},
                          profiler);
    }
    auto selected = SelectNeighbors(cands, options_.bnn, profiler);
    AddLinks(node, selected, lev, profiler);
    if (!cands.empty()) cur = static_cast<uint32_t>(cands.front().id);
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = node;
  }
  return Status::OK();
}

Status HnswIndex::Build(const float* data, size_t n) {
  if (data == nullptr || n == 0) {
    return Status::InvalidArgument("Hnsw::Build: empty input");
  }
  build_stats_ = {};
  Timer timer;
  for (size_t i = 0; i < n; ++i) {
    VECDB_RETURN_NOT_OK(Add(data + i * dim_));
  }
  // HNSW has no training phase; everything is the adding phase.
  build_stats_.add_seconds = timer.ElapsedSeconds();
#ifndef NDEBUG
  CheckInvariants();
#endif
  auto& registry = obs::MetricsRegistry::Global();
  registry.Add(obs::Counter::kFaissBuilds);
  registry.Record(obs::Hist::kFaissBuildNanos,
                  static_cast<uint64_t>(build_stats_.total_seconds() * 1e9));
  return Status::OK();
}

Result<std::vector<Neighbor>> HnswIndex::PreFilterSearch(
    const float* query, const filter::SelectionVector& selection,
    const SearchParams& params) const {
  VECDB_RETURN_NOT_OK(ValidateSearchParams(params, IndexKind::kFlat,
                                           "Hnsw::PreFilterSearch"));
  ReaderMutexLock latch(*latch_);
  if (num_nodes_ == 0) {
    return Status::InvalidArgument("Hnsw::PreFilterSearch: index is empty");
  }
  VECDB_RETURN_NOT_OK(params.ctx.CheckStop("Hnsw::PreFilterSearch"));
  obs::MetricsRegistry* metrics = params.ctx.live_metrics();
  obs::LatencyScope latency(metrics, obs::Hist::kFaissSearchNanos);
  if (metrics != nullptr) metrics->AddUnchecked(obs::Counter::kFaissQueries);
  // The graph's vectors are one contiguous block, so pre-filter is a
  // gather of the survivor rows plus one batched distance call.
  AlignedFloats gathered;
  std::vector<int64_t> gathered_ids;
  obs::SearchCounters counters;
  selection.ForEachSet([&](size_t pos) {
    if (pos >= num_nodes_) return;
    gathered.Append(NodeVector(static_cast<uint32_t>(pos)), dim_);
    gathered_ids.push_back(static_cast<int64_t>(pos));
  });
  KMaxHeap heap(params.k);
  if (!gathered_ids.empty()) {
    std::vector<float> dists(gathered_ids.size());
    DistanceBatch(Metric::kL2, query, gathered.data(), gathered_ids.size(),
                  dim_, dists.data());
    for (size_t i = 0; i < gathered_ids.size(); ++i) {
      heap.Push(dists[i], gathered_ids[i]);
    }
    counters.tuples_visited += gathered_ids.size();
    counters.heap_pushes += gathered_ids.size();
  }
  if (metrics != nullptr) {
    params.ctx.CountTuples(counters.tuples_visited);
    counters.FlushTo(metrics, obs::Counter::kFaissBucketsProbed,
                     obs::Counter::kFaissTuplesVisited,
                     obs::Counter::kFaissHeapPushes);
  }
  return heap.TakeSorted();
}

template <class Gate>
Result<std::vector<Neighbor>> HnswIndex::SearchGraph(
    const float* query, const Gate& gate, const SearchParams& params,
    const char* who) const {
  if (query == nullptr) {
    return Status::InvalidArgument(std::string(who) + ": null query");
  }
  VECDB_RETURN_NOT_OK(ValidateSearchParams(params, IndexKind::kGraph, who));
  ReaderMutexLock latch(*latch_);
  if (num_nodes_ == 0) {
    return Status::InvalidArgument(std::string(who) + ": index is empty");
  }
  const QueryContext& ctx = params.ctx;
  obs::MetricsRegistry* metrics = ctx.live_metrics();
  obs::LatencyScope latency(metrics, obs::Hist::kFaissSearchNanos);
  if constexpr (Gate::kFiltered) {
    if (metrics != nullptr) metrics->AddUnchecked(obs::Counter::kFaissQueries);
  }
  obs::SearchCounters counters;
  obs::SearchCounters* sc = metrics != nullptr ? &counters : nullptr;
  uint32_t cur = entry_point_;
  for (int lev = max_level_; lev > 0; --lev) {
    cur = GreedyClosest(query, cur, lev, ctx.profiler);
  }
  const uint32_t ef =
      std::max<uint32_t>(params.efs, static_cast<uint32_t>(params.k));
  auto cands = SearchLayer(query, cur, ef, 0, gate, ctx.profiler, sc, &ctx);
  VECDB_RETURN_NOT_OK(ctx.CheckStop(who));
  if (cands.size() > params.k) cands.resize(params.k);
  if (metrics != nullptr) {
    if constexpr (!Gate::kFiltered) {
      metrics->AddUnchecked(obs::Counter::kFaissQueries);
    }
    params.ctx.CountTuples(counters.tuples_visited);
    counters.FlushTo(metrics, obs::Counter::kFaissBucketsProbed,
                     obs::Counter::kFaissTuplesVisited,
                     obs::Counter::kFaissHeapPushes);
  }
  return cands;
}

Result<std::vector<Neighbor>> HnswIndex::InFilterSearch(
    const float* query, const filter::SelectionVector& selection,
    const SearchParams& params) const {
  return SearchGraph(query, filter::SelectionGate{&selection}, params,
                     "Hnsw::InFilterSearch");
}

Result<std::vector<Neighbor>> HnswIndex::Search(
    const float* query, const SearchParams& params) const {
  return SearchGraph(query, filter::AllSelected{}, params, "Hnsw::Search");
}

void HnswIndex::CheckInvariants() const {
  const size_t n = num_nodes_;
  VECDB_CHECK_EQ(vectors_.size(), n * dim_) << "vector storage vs node count";
  VECDB_CHECK_EQ(node_level_.size(), n);
  VECDB_CHECK_EQ(link_offset_.size(), n);
  VECDB_CHECK_EQ(count_offset_.size(), n);
  if (n == 0) {
    VECDB_CHECK_EQ(max_level_, -1) << "empty graph has a level";
    return;
  }
  VECDB_CHECK_LT(static_cast<size_t>(entry_point_), n);
  VECDB_CHECK_EQ(node_level_[entry_point_], max_level_)
      << "entry point is not a top-level node";
  for (uint32_t node = 0; node < n; ++node) {
    const int level = node_level_[node];
    VECDB_CHECK_GE(level, 0) << "node " << node;
    VECDB_CHECK_LE(level, max_level_) << "node " << node;
    for (int lev = 0; lev <= level; ++lev) {
      const uint16_t count = link_counts_[count_offset_[node] + lev];
      VECDB_CHECK_LE(count, LevelCapacity(lev))
          << "node " << node << " level " << lev << " overfull";
      const size_t off = LinkOffset(node, lev);
      VECDB_CHECK_LE(off + count, links_.size())
          << "node " << node << " links out of bounds";
      for (uint16_t i = 0; i < count; ++i) {
        const uint32_t peer = links_[off + i];
        VECDB_CHECK_LT(peer, n)
            << "node " << node << " links to nonexistent node";
        VECDB_CHECK_NE(peer, node) << "self-link at node " << node;
        // Edges at level `lev` may only target nodes that exist at `lev`
        // (links are made from SearchLayer results within that layer).
        VECDB_CHECK_GE(node_level_[peer], lev)
            << "node " << node << " links below peer " << peer << "'s level";
      }
    }
  }
}

size_t HnswIndex::SizeBytes() const {
  // Faiss-style accounting: raw vectors + 4-byte neighbor slots + per-node
  // metadata. This is the in-memory footprint Fig 13 compares against.
  return vectors_.size() * sizeof(float) + links_.size() * sizeof(uint32_t) +
         link_counts_.size() * sizeof(uint16_t) +
         link_offset_.size() * sizeof(size_t) +
         count_offset_.size() * sizeof(size_t) +
         node_level_.size() * sizeof(int);
}

std::string HnswIndex::Describe() const {
  return "faisslike::HNSW dim=" + std::to_string(dim_) +
         " bnn=" + std::to_string(options_.bnn) +
         " efb=" + std::to_string(options_.efb);
}

Status HnswIndex::Save(const std::string& path) const {
  if (num_nodes_ == 0) {
    return Status::InvalidArgument("Hnsw::Save: index is empty");
  }
  VECDB_ASSIGN_OR_RETURN(
      BinaryWriter writer,
      BinaryWriter::Open(path, kHnswMagic, kHnswVersion));
  VECDB_RETURN_NOT_OK(writer.Fields(
      dim_, options_.bnn, options_.efb, options_.seed, num_nodes_,
      entry_point_, max_level_, vectors_, node_level_, link_offset_, links_,
      link_counts_, count_offset_));
  return writer.Close();
}

Status HnswIndex::Load(const std::string& path) {
  uint32_t version = 0;
  VECDB_ASSIGN_OR_RETURN(
      BinaryReader reader,
      BinaryReader::Open(path, kHnswMagic, kHnswMinVersion, kHnswVersion,
                         &version));
  uint32_t dim = 0;
  HnswOptions options;
  options.profiler = options_.profiler;
  VECDB_RETURN_NOT_OK(reader.Fields(dim, options.bnn, options.efb));
  if (version >= 2) VECDB_RETURN_NOT_OK(reader.Fields(options.seed));
  if (dim != dim_) {
    return Status::Corruption("Hnsw::Load: file dim " + std::to_string(dim) +
                              " != index dim " + std::to_string(dim_));
  }
  if (options.bnn == 0) return Status::Corruption("Hnsw::Load: bad geometry");
  HnswIndex loaded(dim, options);
  VECDB_RETURN_NOT_OK(reader.Fields(
      loaded.num_nodes_, loaded.entry_point_, loaded.max_level_,
      loaded.vectors_, loaded.node_level_, loaded.link_offset_, loaded.links_,
      loaded.link_counts_, loaded.count_offset_));
  const size_t n = loaded.num_nodes_;
  if (loaded.vectors_.size() != n * dim || loaded.node_level_.size() != n ||
      loaded.link_offset_.size() != n || loaded.count_offset_.size() != n ||
      (n > 0 && loaded.entry_point_ >= n)) {
    return Status::Corruption("Hnsw::Load: inconsistent graph");
  }
  for (uint32_t nb : loaded.links_) {
    // Unused slots are zero-filled; a nonzero out-of-range id is corrupt.
    if (nb >= n && nb != 0) {
      return Status::Corruption("Hnsw::Load: neighbor id out of range");
    }
  }
  *this = std::move(loaded);
  return Status::OK();
}

}  // namespace vecdb::faisslike
