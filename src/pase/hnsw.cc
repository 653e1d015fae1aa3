#include "pase/hnsw.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <queue>

#include "common/timer.h"
#include "distance/kernels.h"
#include "obs/metrics.h"
#include "topk/heaps.h"

namespace vecdb::pase {

namespace {
/// Per-level neighbor list stored as one page item: header + fixed
/// capacity of 24-byte HnswNeighborTuple slots.
struct NeighborListHeader {
  uint16_t level;
  uint16_t count;
  uint32_t capacity;
};

/// This thread's visited table, reset for a new layer search. One per
/// thread, so concurrent scans on one index share no scratch; a plain
/// function, so every SearchLayer<Gate> instantiation shares it. Reset
/// keeps the buckets, so a warm table does not reallocate per call.
HashVisitedTable& FreshVisitedTable() {
  thread_local HashVisitedTable table;
  table.Reset();
  return table;
}
}  // namespace

int PaseHnswIndex::RandomLevel() {
  const double u = rng_.UniformDouble();
  const double mult = 1.0 / std::log(static_cast<double>(options_.bnn));
  return std::min(static_cast<int>(-std::log(u + 1e-30) * mult), 31);
}

Result<PaseHnswIndex::VertexRef> PaseHnswIndex::InsertVectorTuple(
    int64_t row_id, int level, const float* vec) {
  const uint32_t tuple_bytes =
      sizeof(PaseVectorTuple) + dim_ * sizeof(float);
  std::vector<char> tuple(tuple_bytes);
  auto* header = reinterpret_cast<PaseVectorTuple*>(tuple.data());
  header->row_id = row_id;
  header->level = static_cast<uint32_t>(level);
  std::memcpy(tuple.data() + sizeof(PaseVectorTuple), vec,
              dim_ * sizeof(float));

  // Append to the tail data page, extending on overflow.
  VECDB_ASSIGN_OR_RETURN(pgstub::BlockId blocks,
                         env_.smgr->NumBlocks(data_rel_));
  if (blocks > 0) {
    VECDB_ASSIGN_OR_RETURN(pgstub::BufferHandle handle,
                           env_.bufmgr->Pin(data_rel_, blocks - 1));
    pgstub::PageView page(handle.data, env_.bufmgr->page_size());
    const pgstub::OffsetNumber slot =
        page.AddItem(tuple.data(), static_cast<uint16_t>(tuple_bytes));
    env_.bufmgr->Unpin(handle, slot != pgstub::kInvalidOffset);
    if (slot != pgstub::kInvalidOffset) {
      VertexRef ref;
      ref.dblk = blocks - 1;
      ref.doff = slot;
      return ref;
    }
  }
  VECDB_ASSIGN_OR_RETURN(auto fresh, env_.bufmgr->NewPage(data_rel_));
  pgstub::PageView page(fresh.second.data, env_.bufmgr->page_size());
  page.Init(0);
  const pgstub::OffsetNumber slot =
      page.AddItem(tuple.data(), static_cast<uint16_t>(tuple_bytes));
  env_.bufmgr->Unpin(fresh.second, true);
  if (slot == pgstub::kInvalidOffset) {
    return Status::Internal("PaseHnsw: vector tuple larger than a page");
  }
  VertexRef ref;
  ref.dblk = fresh.first;
  ref.doff = slot;
  return ref;
}

Status PaseHnswIndex::CreateNeighborPage(VertexRef* ref, int level) {
  // RC#4: every vertex's adjacency lists start on a brand-new page, no
  // matter how little of it they use.
  VECDB_ASSIGN_OR_RETURN(auto fresh, env_.bufmgr->NewPage(nbr_rel_));
  pgstub::PageView page(fresh.second.data, env_.bufmgr->page_size());
  page.Init(0);
  for (int lev = 0; lev <= level; ++lev) {
    const uint32_t cap = LevelCapacity(lev);
    const uint32_t item_bytes =
        sizeof(NeighborListHeader) + cap * sizeof(HnswNeighborTuple);
    std::vector<char> item(item_bytes, 0);
    auto* header = reinterpret_cast<NeighborListHeader*>(item.data());
    header->level = static_cast<uint16_t>(lev);
    header->count = 0;
    header->capacity = cap;
    if (page.AddItem(item.data(), static_cast<uint16_t>(item_bytes)) ==
        pgstub::kInvalidOffset) {
      env_.bufmgr->Unpin(fresh.second, true);
      return Status::ResourceExhausted(
          "PaseHnsw: adjacency lists exceed one page (level " +
          std::to_string(level) + ", bnn " + std::to_string(options_.bnn) +
          ", page " + std::to_string(env_.bufmgr->page_size()) + ")");
    }
  }
  env_.bufmgr->Unpin(fresh.second, true);
  ref->nblk = fresh.first;
  return Status::OK();
}

Status PaseHnswIndex::ReadVector(const VertexRef& ref, float* vec,
                                 int64_t* row_id, Profiler* profiler) const {
  ProfScope scope(profiler, "TupleAccess");
  VECDB_ASSIGN_OR_RETURN(pgstub::BufferHandle handle,
                         env_.bufmgr->Pin(data_rel_, ref.dblk));
  pgstub::PageView page(handle.data, env_.bufmgr->page_size());
  const char* item = page.GetItem(ref.doff);
  if (item == nullptr) {
    env_.bufmgr->Unpin(handle, false);
    return Status::Corruption("PaseHnsw: dangling vertex data pointer");
  }
  const auto* header = reinterpret_cast<const PaseVectorTuple*>(item);
  if (row_id != nullptr) *row_id = header->row_id;
  if (vec != nullptr) {
    std::memcpy(vec, item + sizeof(PaseVectorTuple), dim_ * sizeof(float));
  }
  env_.bufmgr->Unpin(handle, false);
  return Status::OK();
}

// Out-of-line neighbor fetch — the pasepfirst() indirection of Fig 8.
__attribute__((noinline)) Status PaseHnswIndex::FetchNeighbors(
    const VertexRef& ref, int level, std::vector<HnswNeighborTuple>* out,
    Profiler* profiler) const {
  ProfScope scope(profiler, "pasepfirst");
  out->clear();
  VECDB_ASSIGN_OR_RETURN(pgstub::BufferHandle handle,
                         env_.bufmgr->Pin(nbr_rel_, ref.nblk));
  pgstub::PageView page(handle.data, env_.bufmgr->page_size());
  const char* item =
      page.GetItem(static_cast<pgstub::OffsetNumber>(level + 1));
  if (item == nullptr) {
    env_.bufmgr->Unpin(handle, false);
    return Status::Corruption("PaseHnsw: missing neighbor list at level " +
                              std::to_string(level));
  }
  const auto* header = reinterpret_cast<const NeighborListHeader*>(item);
  const auto* entries = reinterpret_cast<const HnswNeighborTuple*>(
      item + sizeof(NeighborListHeader));
  out->assign(entries, entries + header->count);
  env_.bufmgr->Unpin(handle, false);
  return Status::OK();
}

Status PaseHnswIndex::StoreNeighbors(
    const VertexRef& ref, int level,
    const std::vector<HnswNeighborTuple>& entries) {
  VECDB_ASSIGN_OR_RETURN(pgstub::BufferHandle handle,
                         env_.bufmgr->Pin(nbr_rel_, ref.nblk));
  pgstub::PageView page(handle.data, env_.bufmgr->page_size());
  char* item = page.GetItem(static_cast<pgstub::OffsetNumber>(level + 1));
  if (item == nullptr) {
    env_.bufmgr->Unpin(handle, false);
    return Status::Corruption("PaseHnsw: missing neighbor list at level " +
                              std::to_string(level));
  }
  auto* header = reinterpret_cast<NeighborListHeader*>(item);
  if (entries.size() > header->capacity) {
    env_.bufmgr->Unpin(handle, false);
    return Status::Internal("PaseHnsw: neighbor list overflow");
  }
  header->count = static_cast<uint16_t>(entries.size());
  // Field by field into zeroed slots: a tuple's 4 padding bytes and the
  // slots past `count` are then zero, so the page bytes depend on the
  // graph alone (std::vector copies need not carry padding).
  char* slots = item + sizeof(NeighborListHeader);
  std::memset(slots, 0, header->capacity * sizeof(HnswNeighborTuple));
  for (const HnswNeighborTuple& entry : entries) {
    std::memcpy(slots + offsetof(HnswNeighborTuple, link), &entry.link,
                sizeof(entry.link));
    std::memcpy(slots + offsetof(HnswNeighborTuple, gid), &entry.gid,
                sizeof(entry.gid));
    slots += sizeof(HnswNeighborTuple);
  }
  env_.bufmgr->Unpin(handle, true);
  return Status::OK();
}

Result<PaseHnswIndex::Scored> PaseHnswIndex::GreedyClosest(
    const float* query, const Scored& entry, int level,
    Profiler* profiler) const {
  ProfScope scope(profiler, "GreedyUpdate");
  Scored cur = entry;
  std::vector<HnswNeighborTuple> nbrs;
  std::vector<float> vec(dim_);
  bool improved = true;
  while (improved) {
    improved = false;
    VECDB_RETURN_NOT_OK(FetchNeighbors(cur.ref, level, &nbrs, nullptr));
    for (const auto& nb : nbrs) {
      VertexRef ref{nb.gid.nblkid, nb.gid.dblkid,
                    static_cast<pgstub::OffsetNumber>(nb.gid.doffset)};
      int64_t row = -1;
      VECDB_RETURN_NOT_OK(ReadVector(ref, vec.data(), &row, nullptr));
      const float d = L2Sqr(query, vec.data(), dim_);
      if (d < cur.dist) {
        cur = {d, ref, row};
        improved = true;
      }
    }
  }
  return cur;
}

template <class Gate>
Result<std::vector<PaseHnswIndex::Scored>> PaseHnswIndex::SearchLayer(
    const float* query, const Scored& entry, uint32_t ef, int level,
    const Gate& gate, Profiler* profiler, obs::SearchCounters* counters,
    const QueryContext* ctx) const {
  HashVisitedTable& visited = FreshVisitedTable();
  visited.GetAndSet(entry.ref.nblk);
  uint64_t bitmap_probes = 0;
  auto admit = [&](int64_t row_id) {
    if constexpr (Gate::kFiltered) {
      ++bitmap_probes;
      return gate(row_id);
    }
    return true;
  };

  auto cand_greater = [](const Scored& a, const Scored& b) {
    return a.dist > b.dist;
  };
  std::priority_queue<Scored, std::vector<Scored>, decltype(cand_greater)>
      candidates(cand_greater);
  // Bounded max-heap of the ef best results (worst on top).
  auto res_less = [](const Scored& a, const Scored& b) {
    return a.dist < b.dist;
  };
  std::vector<Scored> results;
  results.reserve(ef + 1);

  auto results_push = [&](const Scored& s) {
    results.push_back(s);
    std::push_heap(results.begin(), results.end(), res_less);
    if (results.size() > ef) {
      std::pop_heap(results.begin(), results.end(), res_less);
      results.pop_back();
    }
  };
  auto results_worst = [&]() {
    return results.size() < ef ? std::numeric_limits<float>::infinity()
                               : results.front().dist;
  };

  candidates.push(entry);
  if (admit(entry.row_id)) results_push(entry);

  std::vector<HnswNeighborTuple> nbrs;
  std::vector<HnswNeighborTuple> fresh;
  std::vector<float> vec(dim_);
  uint32_t pops = 0;
  while (!candidates.empty()) {
    // Cancellation checkpoint every 32 beam pops — same cadence as the
    // faisslike engine, so both graph scans have bounded abort latency.
    if (ctx != nullptr && (++pops & 31u) == 0u) {
      VECDB_RETURN_NOT_OK(ctx->CheckStop("PaseHnsw::SearchLayer"));
    }
    const Scored c = candidates.top();
    if (results.size() >= ef && c.dist > results_worst()) break;
    candidates.pop();

    // pasepfirst: fetch the adjacency list through page indirection.
    VECDB_RETURN_NOT_OK(FetchNeighbors(c.ref, level, &nbrs, profiler));

    // HVTGet: hash-table visited filtering, one function call per entry.
    fresh.clear();
    {
      ProfScope scope(profiler, "HVTGet");
      for (const auto& nb : nbrs) {
        if (!visited.GetAndSet(nb.gid.nblkid)) fresh.push_back(nb);
      }
    }

    // Tuple access + distance per unvisited neighbor.
    size_t pushes = 0;
    for (const auto& nb : fresh) {
      VertexRef ref{nb.gid.nblkid, nb.gid.dblkid,
                    static_cast<pgstub::OffsetNumber>(nb.gid.doffset)};
      int64_t row = -1;
      VECDB_RETURN_NOT_OK(ReadVector(ref, vec.data(), &row, profiler));
      float d;
      {
        ProfScope scope(profiler, "fvec_L2sqr");
        d = L2Sqr(query, vec.data(), dim_);
      }
      if (results.size() < ef || d < results_worst()) {
        // Every improving vertex routes the frontier; only admitted rows
        // take result slots.
        Scored s{d, ref, row};
        candidates.push(s);
        if (admit(row)) {
          results_push(s);
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
  std::sort(results.begin(), results.end(),
            [](const Scored& a, const Scored& b) { return a.dist < b.dist; });
  return results;
}

Result<std::vector<PaseHnswIndex::Scored>> PaseHnswIndex::SelectNeighbors(
    const float* base_vec, const std::vector<Scored>& cands,
    uint32_t max_count, Profiler* profiler) const {
  (void)base_vec;
  ProfScope scope(profiler, "ShrinkNbList");
  std::vector<Scored> selected;
  std::vector<std::vector<float>> selected_vecs;
  std::vector<float> cand_vec(dim_);
  for (const auto& c : cands) {
    if (selected.size() >= max_count) break;
    VECDB_RETURN_NOT_OK(ReadVector(c.ref, cand_vec.data(), nullptr, nullptr));
    bool keep = true;
    for (const auto& sv : selected_vecs) {
      if (L2Sqr(cand_vec.data(), sv.data(), dim_) < c.dist) {
        keep = false;
        break;
      }
    }
    if (keep) {
      selected.push_back(c);
      selected_vecs.push_back(cand_vec);
    }
  }
  return selected;
}

Status PaseHnswIndex::AddLinks(const VertexRef& node, const float* node_vec,
                               int64_t node_row,
                               const std::vector<Scored>& peers, int level,
                               Profiler* profiler) {
  ProfScope scope(profiler, "AddLink");
  const uint32_t cap = LevelCapacity(level);

  // Forward edges.
  std::vector<HnswNeighborTuple> entries;
  entries.reserve(peers.size());
  for (const auto& p : peers) {
    HnswNeighborTuple t{};
    t.gid = {p.ref.nblk, p.ref.dblk, p.ref.doff};
    entries.push_back(t);
  }
  VECDB_RETURN_NOT_OK(StoreNeighbors(node, level, entries));

  // Reverse edges with heuristic shrink on overflow.
  std::vector<HnswNeighborTuple> plist;
  std::vector<float> peer_vec(dim_);
  std::vector<float> nb_vec(dim_);
  for (const auto& p : peers) {
    VECDB_RETURN_NOT_OK(FetchNeighbors(p.ref, level, &plist, nullptr));
    HnswNeighborTuple mine{};
    mine.gid = {node.nblk, node.dblk, node.doff};
    if (plist.size() < cap) {
      plist.push_back(mine);
      VECDB_RETURN_NOT_OK(StoreNeighbors(p.ref, level, plist));
      continue;
    }
    // Re-rank all of the peer's neighbors plus the new node by distance to
    // the peer, then apply the selection heuristic.
    VECDB_RETURN_NOT_OK(ReadVector(p.ref, peer_vec.data(), nullptr, nullptr));
    std::vector<Scored> merged;
    merged.reserve(plist.size() + 1);
    for (const auto& t : plist) {
      VertexRef ref{t.gid.nblkid, t.gid.dblkid,
                    static_cast<pgstub::OffsetNumber>(t.gid.doffset)};
      int64_t row = -1;
      VECDB_RETURN_NOT_OK(ReadVector(ref, nb_vec.data(), &row, nullptr));
      merged.push_back({L2Sqr(peer_vec.data(), nb_vec.data(), dim_), ref, row});
    }
    merged.push_back(
        {L2Sqr(peer_vec.data(), node_vec, dim_), node, node_row});
    std::sort(merged.begin(), merged.end(),
              [](const Scored& a, const Scored& b) { return a.dist < b.dist; });
    VECDB_ASSIGN_OR_RETURN(std::vector<Scored> kept,
                           SelectNeighbors(peer_vec.data(), merged, cap,
                                           nullptr));
    std::vector<HnswNeighborTuple> stored;
    stored.reserve(kept.size());
    for (const auto& s : kept) {
      HnswNeighborTuple t{};
      t.gid = {s.ref.nblk, s.ref.dblk, s.ref.doff};
      stored.push_back(t);
    }
    VECDB_RETURN_NOT_OK(StoreNeighbors(p.ref, level, stored));
  }
  return Status::OK();
}

Status PaseHnswIndex::EnsureRelations() {
  if (data_rel_ != pgstub::kInvalidRel) return Status::OK();
  VECDB_ASSIGN_OR_RETURN(
      data_rel_, env_.smgr->CreateRelation(options_.rel_prefix + "_data"));
  VECDB_ASSIGN_OR_RETURN(
      nbr_rel_, env_.smgr->CreateRelation(options_.rel_prefix + "_nbr"));
  return Status::OK();
}

Status PaseHnswIndex::AddOne(const float* vec) {
  Profiler* profiler = options_.profiler;
  const int64_t row_id = static_cast<int64_t>(num_vectors_);
  const int level = RandomLevel();
  VECDB_ASSIGN_OR_RETURN(VertexRef ref,
                         InsertVectorTuple(row_id, level, vec));
  VECDB_RETURN_NOT_OK(CreateNeighborPage(&ref, level));

  if (num_vectors_ == 0) {
    entry_point_ = ref;
    entry_row_ = 0;
    max_level_ = level;
    ++num_vectors_;
    return Status::OK();
  }

  std::vector<float> entry_vec(dim_);
  VECDB_RETURN_NOT_OK(
      ReadVector(entry_point_, entry_vec.data(), nullptr, nullptr));
  Scored cur{L2Sqr(vec, entry_vec.data(), dim_), entry_point_, entry_row_};
  for (int lev = max_level_; lev > level; --lev) {
    VECDB_ASSIGN_OR_RETURN(cur, GreedyClosest(vec, cur, lev, profiler));
  }

  for (int lev = std::min(level, max_level_); lev >= 0; --lev) {
    std::vector<Scored> cands;
    {
      ProfScope scope(profiler, "SearchNbToAdd");
      VECDB_ASSIGN_OR_RETURN(
          cands, SearchLayer(vec, cur, options_.efb, lev,
                             filter::AllSelected{}, profiler));
    }
    VECDB_ASSIGN_OR_RETURN(
        std::vector<Scored> selected,
        SelectNeighbors(vec, cands, options_.bnn, profiler));
    VECDB_RETURN_NOT_OK(AddLinks(ref, vec, row_id, selected, lev, profiler));
    if (!cands.empty()) cur = cands.front();
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = ref;
    entry_row_ = row_id;
  }
  ++num_vectors_;
  return Status::OK();
}

Status PaseHnswIndex::Insert(const float* vec) {
  if (!env_.valid()) return Status::InvalidArgument("PaseHnsw: bad env");
  if (vec == nullptr) return Status::InvalidArgument("PaseHnsw: null vec");
  WriterMutexLock latch(latch_);
  VECDB_RETURN_NOT_OK(EnsureRelations());
  return AddOne(vec);
}

Status PaseHnswIndex::Build(const float* data, size_t n) {
  if (!env_.valid()) return Status::InvalidArgument("PaseHnsw: bad env");
  if (data == nullptr || n == 0) {
    return Status::InvalidArgument("PaseHnsw: empty input");
  }
  build_stats_ = {};
  Timer timer;
  VECDB_RETURN_NOT_OK(EnsureRelations());
  for (size_t i = 0; i < n; ++i) {
    VECDB_RETURN_NOT_OK(AddOne(data + i * dim_));
  }
  build_stats_.add_seconds = timer.ElapsedSeconds();
  auto& registry = obs::MetricsRegistry::Global();
  registry.Add(obs::Counter::kPaseBuilds);
  registry.Record(obs::Hist::kPaseBuildNanos,
                  static_cast<uint64_t>(build_stats_.total_seconds() * 1e9));
  return Status::OK();
}

Result<std::vector<Neighbor>> PaseHnswIndex::PreFilterSearch(
    const float* query, const filter::SelectionVector& selection,
    const SearchParams& params) const {
  VECDB_RETURN_NOT_OK(ValidateSearchParams(params, IndexKind::kFlat,
                                           "PaseHnsw::PreFilterSearch"));
  ReaderMutexLock latch(latch_);
  if (num_vectors_ == 0) {
    return Status::InvalidArgument("PaseHnsw: index is empty");
  }
  const QueryContext& ctx = params.ctx;
  obs::MetricsRegistry* metrics = ctx.live_metrics();
  obs::LatencyScope latency(metrics, obs::Hist::kPaseSearchNanos);
  if (metrics != nullptr) metrics->AddUnchecked(obs::Counter::kPaseQueries);

  obs::SearchCounters counters;
  NHeap collector;
  VECDB_ASSIGN_OR_RETURN(pgstub::BlockId blocks,
                         env_.smgr->NumBlocks(data_rel_));
  for (pgstub::BlockId b = 0; b < blocks; ++b) {
    VECDB_RETURN_NOT_OK(ctx.CheckStop("PaseHnsw::PreFilterSearch"));
    pgstub::BufferHandle handle;
    {
      ProfScope scope(ctx.profiler, "TupleAccess");
      VECDB_ASSIGN_OR_RETURN(handle, env_.bufmgr->Pin(data_rel_, b));
    }
    pgstub::PageView page(handle.data, env_.bufmgr->page_size());
    const uint16_t count = page.ItemCount();
    for (pgstub::OffsetNumber slot = 1; slot <= count; ++slot) {
      const char* item = page.GetItem(slot);
      const auto* header = reinterpret_cast<const PaseVectorTuple*>(item);
      if (header->row_id < 0 ||
          !selection.Test(static_cast<size_t>(header->row_id))) {
        continue;
      }
      const float* vec =
          reinterpret_cast<const float*>(item + sizeof(PaseVectorTuple));
      collector.Push(L2Sqr(query, vec, dim_), header->row_id);
      ++counters.tuples_visited;
      ++counters.heap_pushes;
    }
    env_.bufmgr->Unpin(handle, false);
  }
  if (metrics != nullptr) {
    params.ctx.CountTuples(counters.tuples_visited);
    counters.FlushTo(metrics, obs::Counter::kPaseBucketsProbed,
                     obs::Counter::kPaseTuplesVisited,
                     obs::Counter::kPaseHeapPushes);
  }
  return collector.PopK(params.k);
}

template <class Gate>
Result<std::vector<Neighbor>> PaseHnswIndex::SearchGraph(
    const float* query, const Gate& gate, const SearchParams& params,
    const char* who) const {
  if (query == nullptr) return Status::InvalidArgument("PaseHnsw: null query");
  VECDB_RETURN_NOT_OK(ValidateSearchParams(params, IndexKind::kGraph, who));
  ReaderMutexLock latch(latch_);
  if (num_vectors_ == 0) {
    return Status::InvalidArgument("PaseHnsw: index is empty");
  }
  const QueryContext& ctx = params.ctx;
  obs::MetricsRegistry* metrics = ctx.live_metrics();
  obs::LatencyScope latency(metrics, obs::Hist::kPaseSearchNanos);
  obs::SearchCounters counters;
  obs::SearchCounters* sc = metrics != nullptr ? &counters : nullptr;

  std::vector<float> entry_vec(dim_);
  VECDB_RETURN_NOT_OK(
      ReadVector(entry_point_, entry_vec.data(), nullptr, ctx.profiler));
  Scored cur{L2Sqr(query, entry_vec.data(), dim_), entry_point_, entry_row_};
  for (int lev = max_level_; lev > 0; --lev) {
    VECDB_ASSIGN_OR_RETURN(cur, GreedyClosest(query, cur, lev, ctx.profiler));
  }
  const uint32_t ef =
      std::max<uint32_t>(params.efs, static_cast<uint32_t>(params.k));
  VECDB_ASSIGN_OR_RETURN(
      std::vector<Scored> found,
      SearchLayer(query, cur, ef, 0, gate, ctx.profiler, sc, &ctx));
  // Beams shorter than one checkpoint interval still honor a stop
  // request: never return partial results for a cancelled statement.
  VECDB_RETURN_NOT_OK(ctx.CheckStop(who));
  std::vector<Neighbor> out;
  out.reserve(std::min(found.size(), params.k));
  for (const auto& s : found) {
    if (out.size() >= params.k) break;
    out.push_back({s.dist, s.row_id});
  }
  if (metrics != nullptr) {
    metrics->AddUnchecked(obs::Counter::kPaseQueries);
    params.ctx.CountTuples(counters.tuples_visited);
    counters.FlushTo(metrics, obs::Counter::kPaseBucketsProbed,
                     obs::Counter::kPaseTuplesVisited,
                     obs::Counter::kPaseHeapPushes);
  }
  return out;
}

Result<std::vector<Neighbor>> PaseHnswIndex::InFilterSearch(
    const float* query, const filter::SelectionVector& selection,
    const SearchParams& params) const {
  return SearchGraph(query, filter::SelectionGate{&selection}, params,
                     "PaseHnsw::InFilterSearch");
}

Result<std::vector<Neighbor>> PaseHnswIndex::Search(
    const float* query, const SearchParams& params) const {
  return SearchGraph(query, filter::AllSelected{}, params, "PaseHnsw::Search");
}

size_t PaseHnswIndex::SizeBytes() const {
  size_t blocks = 0;
  if (auto r = env_.smgr->NumBlocks(data_rel_); r.ok()) blocks += *r;
  if (auto r = env_.smgr->NumBlocks(nbr_rel_); r.ok()) blocks += *r;
  return blocks * static_cast<size_t>(env_.bufmgr->page_size());
}

std::string PaseHnswIndex::Describe() const {
  return "pase::HNSW dim=" + std::to_string(dim_) +
         " bnn=" + std::to_string(options_.bnn) +
         " page=" + std::to_string(env_.bufmgr->page_size());
}

}  // namespace vecdb::pase
