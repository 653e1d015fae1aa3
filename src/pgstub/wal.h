// Write-ahead log for the pgstub substrate: page images, appended-item
// records, logical deletes, checkpoints, rotation, and replay-based
// recovery, with CRC-checked framing. PostgreSQL durability in miniature —
// and one more cost a generalized vector database pays on writes that a
// specialized in-memory system does not.
//
// The log covers the heap alone. HeapTable::Insert logs its own appends;
// the buffer manager writes no record and only flushes the log before a
// dirty page is written back. Index relations are unlogged: recovery drops
// them before REDO and rebuilds every index from the heap.
//
// Like PostgreSQL's full_page_writes, a page's full image is logged at
// most once per checkpoint cycle: on its first change after a checkpoint.
// Later appends to it log only the appended item (XLOG_HEAP_INSERT), and a
// page fresh from BufferManager::NewPage is logged by an init record that
// rebuilds it from nothing (XLOG_HEAP_INIT_PAGE), never by an image. The
// WalManager itself decides image vs. item, under the same mutex that
// orders the checkpoint record, so replay needs no page LSN: every page an
// item record names after the last checkpoint has an image or init record
// earlier in the same log.
//
// File format v2 (see docs/DURABILITY.md):
//   [FileHeader: magic "VWAL", version, start_lsn, crc]
//   [RecordHeader | payload | crc32c(header+payload)] ...
// The per-record CRC is ONE streaming CRC-32C over header and payload; v1
// XORed two independent CRCs, which correlated corruption could cancel.
// New record types never bump the version: an older binary fails Open on
// an unknown type with Corruption, while a version it does not know would
// read as a foreign header and be truncated away.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "pgstub/crc32c.h"
#include "pgstub/page.h"
#include "pgstub/smgr.h"
#include "pgstub/vfs.h"

namespace vecdb::pgstub {

/// Monotonically increasing log sequence number (1-based; 0 = invalid).
using Lsn = uint64_t;

/// Record kinds. A page's first record after a checkpoint is a full image
/// (or an init record), which makes replay of the page idempotent; item
/// records then redo appends on top of it. Deletes are logical records,
/// because they mutate no heap page in this engine.
enum class WalRecordType : uint8_t {
  kFullPage = 1,   ///< payload: page image for (rel, block)
  kCheckpoint = 2, ///< everything before this LSN is on disk
  /// payload: int64 row id deleted from heap relation rel. Logs from
  /// before kDeadRow; replay still reads them (every heap position
  /// carrying the id is dead).
  kTombstone = 3,
  /// payload: the uint64 heap positions one statement deleted from rel
  /// (a non-zero multiple of 8 bytes; older logs hold one per record).
  kDeadRow = 4,
  /// payload: WalItemHeader, then (init only) the page's special space,
  /// then the item's bytes; appended to (rel, block) at the header's slot.
  kItemAppend = 5,
};

/// Fixed head of a kItemAppend payload.
struct WalItemHeader {
  uint16_t slot;          ///< 1-based slot the item was appended at
  uint16_t special_size;  ///< bytes of special space that follow (init)
  /// 1: the record rebuilds the page from nothing — zero it,
  /// PageView::Init(special_size), copy the special bytes, AddItem.
  uint8_t init;
  uint8_t pad[3];
};
static_assert(sizeof(WalItemHeader) == 8);

/// One decoded WAL record.
struct WalRecord {
  Lsn lsn = 0;
  WalRecordType type = WalRecordType::kFullPage;
  RelId rel = kInvalidRel;
  BlockId block = kInvalidBlock;
  std::vector<char> payload;
};

/// A delete recovered from the log, keyed by heap relation: a dead heap
/// position (kDeadRow, `by_position`) or a deleted row id (kTombstone).
/// Both fields hold the record's payload; `by_position` says which is
/// meant.
struct WalTombstone {
  RelId rel = kInvalidRel;
  bool by_position = false;
  uint64_t position = 0;
  int64_t row_id = 0;
};

/// Appender/replayer over a single log file.
///
/// Thread-safe: an internal mutex serializes appends, flushes, and
/// rotation, so LSNs stay dense and record frames never interleave even
/// when several components (heap inserts from concurrent sessions,
/// checkpointers, tests) log concurrently. The same mutex guards the set
/// of pages imaged since the last checkpoint, so the image-or-item choice
/// is ordered against the checkpoint record. The discipline is statically
/// checked under VECDB_TSA. A torn tail (from a crash mid-write) is
/// detected on open and at replay and truncated, never fatal.
class WalManager {
 public:
  /// Opens (creating if absent) the log at `path` for appending. Scans
  /// existing records to derive the next LSN from the max over ALL intact
  /// records and the file header's start_lsn — not just replayed ones, so
  /// a log ending in a checkpoint cannot reset the sequence — and
  /// truncates any torn tail so appends start on a clean frame boundary.
  static Result<WalManager> Open(Vfs* vfs, const std::string& path);
  static Result<WalManager> Open(const std::string& path) {
    return Open(Vfs::Default(), path);
  }

  ~WalManager() = default;
  WalManager(WalManager&&) noexcept;
  WalManager& operator=(WalManager&&) = delete;
  WalManager(const WalManager&) = delete;

  /// Appends a full-page image; returns its LSN. The page then counts as
  /// imaged until the next checkpoint.
  Result<Lsn> LogFullPage(RelId rel, BlockId block, const char* page,
                          uint32_t page_size) VECDB_EXCLUDES(mu_);

  /// Logs the one item appended at `slot` of `page` (a slotted page of
  /// `page_size` bytes; nothing else on it changed since its last record).
  /// `fresh` says the page came from NewPage and has no record yet: its
  /// Init, special space and this item (slot 1) then go out as an init
  /// record. Otherwise an item record if the page was imaged since the
  /// last checkpoint, else a full image. Returns the record's LSN.
  Result<Lsn> LogAppend(RelId rel, BlockId block, const char* page,
                        uint32_t page_size, OffsetNumber slot, bool fresh)
      VECDB_EXCLUDES(mu_);

  /// Appends the heap positions one statement deleted from `rel`: one
  /// kDeadRow record, or several when the list exceeds one payload.
  /// Returns the first record's LSN; an empty list logs nothing.
  Result<Lsn> LogDeadRows(RelId rel, const std::vector<uint64_t>& positions)
      VECDB_EXCLUDES(mu_);

  /// Appends a kTombstone record: a delete of every row carrying `row_id`,
  /// the record older logs hold (tests write it to exercise replay).
  Result<Lsn> LogTombstone(RelId rel, int64_t row_id) VECDB_EXCLUDES(mu_);

  /// Appends a checkpoint record and flushes the log. The CALLER must have
  /// already forced all dirty pages to storage (BufferManager::FlushAll +
  /// StorageManager::SyncAll) — this record is a claim, not an action; see
  /// MiniDatabase::Checkpoint for the enforced ordering. Forgets which
  /// pages were imaged, so each page's next change logs a fresh image.
  Result<Lsn> LogCheckpoint() VECDB_EXCLUDES(mu_);

  /// Starts a fresh log segment: writes `path + ".new"` containing only a
  /// file header carrying the current next LSN, then atomically renames it
  /// over the live log. Called after a checkpoint, this is what bounds WAL
  /// size. Crash-safe at every step: until the rename lands, the old log
  /// (ending in the checkpoint record) remains the live one.
  Status Rotate() VECDB_EXCLUDES(mu_);

  /// Forces buffered records to the OS (fflush; no fsync in this
  /// reproduction — the container has no power-failure model).
  Status Flush() VECDB_EXCLUDES(mu_);

  /// Next LSN to be assigned (a snapshot; concurrent appenders advance it).
  Lsn next_lsn() const VECDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return next_lsn_;
  }

  /// Current log size in bytes (snapshot), for checkpoint triggering.
  uint64_t size_bytes() const VECDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return size_;
  }

  /// Reads every intact record of the log at `path` in order, stopping
  /// cleanly at a torn tail. Records before the LAST checkpoint are
  /// skipped (they are guaranteed on disk). A missing file or torn/absent
  /// file header is an empty log, not an error.
  static Status Replay(Vfs* vfs, const std::string& path,
                       const std::function<Status(const WalRecord&)>& apply);
  static Status Replay(const std::string& path,
                       const std::function<Status(const WalRecord&)>& apply) {
    return Replay(Vfs::Default(), path, apply);
  }

  /// ARIES-lite REDO: replays the log into a storage manager. Full-page
  /// images and init records are written back, extending relations as
  /// needed; an item record is added to its page, which must then hold
  /// exactly slot - 1 items (else Corruption). Records for relations the
  /// smgr no longer knows (dropped after logging) are skipped. Delete
  /// records are collected into `tombstones` (may be null) for the SQL
  /// layer to re-apply to its dead-position bitmaps. An unknown record
  /// type is Corruption.
  static Status Recover(Vfs* vfs, const std::string& path,
                        StorageManager* smgr,
                        std::vector<WalTombstone>* tombstones = nullptr);
  static Status Recover(const std::string& path, StorageManager* smgr) {
    return Recover(Vfs::Default(), path, smgr, nullptr);
  }

 private:
  WalManager(Vfs* vfs, std::unique_ptr<VfsFile> file, std::string path,
             uint64_t size, Lsn next_lsn)
      : vfs_(vfs),
        file_(std::move(file)),
        path_(std::move(path)),
        size_(size),
        next_lsn_(next_lsn) {}

  /// One contiguous run of payload bytes.
  struct Piece {
    const void* data;
    size_t size;
  };

  /// Frames and writes one record whose payload is `pieces` in order.
  Status AppendRecord(WalRecordType type, RelId rel, BlockId block,
                      std::initializer_list<Piece> pieces)
      VECDB_REQUIRES(mu_);
  /// Appends a kFullPage record and marks the page imaged.
  Status AppendImage(RelId rel, BlockId block, const char* page,
                     uint32_t page_size) VECDB_REQUIRES(mu_);
  Status FlushLocked() VECDB_REQUIRES(mu_);

  static uint64_t PageKey(RelId rel, BlockId block) {
    return (static_cast<uint64_t>(rel) << 32) | block;
  }

  Vfs* vfs_;
  /// Fresh per instance: a moved-from WalManager keeps its own (idle)
  /// mutex, and the move constructor locks only the source.
  mutable Mutex mu_;
  std::unique_ptr<VfsFile> file_ VECDB_GUARDED_BY(mu_);
  std::string path_;
  uint64_t size_ VECDB_GUARDED_BY(mu_) = 0;  ///< append offset
  Lsn next_lsn_ VECDB_GUARDED_BY(mu_) = 1;
  /// PageKey of every page with an image or init record since the last
  /// checkpoint (evicted pages included: their image is in the log).
  std::unordered_set<uint64_t> imaged_ VECDB_GUARDED_BY(mu_);
  /// Reused frame buffer, so an append allocates nothing.
  std::vector<char> frame_ VECDB_GUARDED_BY(mu_);
};

}  // namespace vecdb::pgstub
