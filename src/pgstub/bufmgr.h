// Buffer manager: fixed pool of page frames with clock-sweep replacement,
// pin counts, and a tag hash table (PostgreSQL's bufmgr.c analog). Every
// PASE tuple access goes Pin -> line-pointer lookup -> Unpin; this
// indirection — even with a 100% hit rate — is the paper's RC#2.
//
// The buffer manager writes no WAL record. As in PostgreSQL, the access
// method logs its own change (the heap, through WalManager::LogAppend) and
// the buffer manager only enforces WAL-before-data: it flushes the log
// before a dirty page is written back. Index relations are unlogged by
// construction: recovery drops and rebuilds them from the heap.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "pgstub/page.h"
#include "pgstub/smgr.h"
#include "pgstub/wal.h"

namespace vecdb::pgstub {

/// A pinned page frame. Valid until Unpin; `data` points at page_size bytes.
struct BufferHandle {
  int32_t frame = -1;
  char* data = nullptr;

  bool valid() const { return frame >= 0; }
};

/// Hit/miss/eviction counters (diagnostics and tests).
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t pins = 0;
};

/// Clock-sweep buffer pool over a StorageManager.
///
/// Thread-safe: a single mutex guards the mapping and frame metadata
/// (page contents are read outside the lock while pinned — the pin count
/// is what makes that safe, so `pool_` is deliberately unguarded). In the
/// paper's experiments the pool is sized to hold the whole dataset, so
/// after warm-up every access is a hit — yet still pays hash lookup,
/// pinning, and line-pointer indirection. The lock discipline is
/// statically checked under VECDB_TSA.
class BufferManager {
 public:
  /// `pool_pages` frames over `smgr` (not owned; must outlive this).
  BufferManager(StorageManager* smgr, size_t pool_pages);

  /// Pins (reading from disk on miss) block `block` of `rel`.
  /// Fails with ResourceExhausted when every frame is pinned.
  Result<BufferHandle> Pin(RelId rel, BlockId block) VECDB_EXCLUDES(mu_);

  /// Extends the relation by one zero-initialized page and pins it.
  /// The caller must PageView::Init the page.
  Result<std::pair<BlockId, BufferHandle>> NewPage(RelId rel)
      VECDB_EXCLUDES(mu_);

  /// Releases a pin; `dirty` marks the page for write-back.
  void Unpin(const BufferHandle& handle, bool dirty) VECDB_EXCLUDES(mu_);

  /// Marks a pinned page for write-back (PostgreSQL's MarkBufferDirty). A
  /// writer that logs its change marks the page dirty first, then logs,
  /// then unpins: while the record is not yet in the log the page is
  /// pinned and dirty, so FlushAll refuses and no checkpoint can claim it.
  void MarkDirty(const BufferHandle& handle) VECDB_EXCLUDES(mu_);

  /// Attaches a write-ahead log (not owned; may be null to detach). Dirty
  /// pages are written back only after the log is flushed; writers reach
  /// the log through wal() to record their changes.
  void SetWal(WalManager* wal) { wal_.store(wal, std::memory_order_release); }
  WalManager* wal() const { return wal_.load(std::memory_order_acquire); }

  /// Writes all dirty pages back to storage. Fails with InvalidArgument
  /// (flushing nothing) if any dirty page is pinned: pin holders mutate
  /// contents outside the lock, so flushing one would write a torn image.
  /// Retry after the pin drains — checkpointers must not proceed without
  /// a clean flush.
  Status FlushAll() VECDB_EXCLUDES(mu_);

  /// Drops every mapping for `rel` (before DropRelation). Fails if any of
  /// its pages are still pinned.
  Status InvalidateRelation(RelId rel) VECDB_EXCLUDES(mu_);

  /// Aborts if pool bookkeeping is inconsistent: a tag-table entry pointing
  /// at an invalid or mismatched frame, a negative pin count, a usage count
  /// above the clock-sweep cap, or a valid frame missing from the table.
  /// Test/debug hook.
  void CheckInvariants() const VECDB_EXCLUDES(mu_);

  /// Counter snapshot by value: the fields are mutated under the pool lock
  /// by every Pin/NewPage, so an unlocked reference would race.
  BufferStats stats() const VECDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }
  void ResetStats() VECDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    stats_ = {};
  }
  size_t pool_pages() const { return num_frames_; }
  uint32_t page_size() const { return smgr_->page_size(); }

 private:
  struct Frame {
    RelId rel = kInvalidRel;
    BlockId block = kInvalidBlock;
    int32_t pin_count = 0;
    uint8_t usage = 0;
    bool dirty = false;
    bool valid = false;
  };

  static uint64_t TagKey(RelId rel, BlockId block) {
    return (static_cast<uint64_t>(rel) << 32) | block;
  }

  /// Finds a victim frame via clock sweep; evicts (writing back if dirty).
  /// Returns -1 with ResourceExhausted if all frames are pinned.
  Result<int32_t> AllocFrame() VECDB_REQUIRES(mu_);

  StorageManager* smgr_;       // const after construction
  const size_t num_frames_;    // frames_.size(), readable without the lock
  std::vector<Frame> frames_ VECDB_GUARDED_BY(mu_);
  /// Page bytes. Unguarded by design: the data of a *pinned* frame is
  /// read and written by callers outside the lock; the pin count (guarded)
  /// is what keeps the frame from being reused underneath them.
  std::vector<char> pool_;
  std::unordered_map<uint64_t, int32_t> table_ VECDB_GUARDED_BY(mu_);
  size_t clock_hand_ VECDB_GUARDED_BY(mu_) = 0;
  BufferStats stats_ VECDB_GUARDED_BY(mu_);
  /// Atomic, not guarded: every heap insert reads it.
  std::atomic<WalManager*> wal_{nullptr};
  mutable Mutex mu_;
};

}  // namespace vecdb::pgstub
