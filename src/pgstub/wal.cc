#include "pgstub/wal.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace vecdb::pgstub {

namespace {

constexpr char kMagic[4] = {'V', 'W', 'A', 'L'};
constexpr uint32_t kVersion = 2;
constexpr uint32_t kMaxPayload = 64u << 20;

/// 32-byte log file header. start_lsn preserves LSN monotonicity across
/// rotation: the fresh segment is empty but must not restart at 1. The
/// CRC covers the first 24 bytes so a torn header write is detectable.
struct FileHeader {
  char magic[4];
  uint32_t version;
  uint64_t start_lsn;
  uint64_t reserved;
  uint32_t crc;
  uint32_t pad;
};
static_assert(sizeof(FileHeader) == 32);

struct RecordHeader {
  Lsn lsn;
  uint32_t payload_len;
  uint32_t rel;
  uint32_t block;
  uint8_t type;
  uint8_t pad[3];
};
static_assert(sizeof(RecordHeader) == 24);

FileHeader MakeFileHeader(Lsn start_lsn) {
  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.start_lsn = start_lsn;
  h.reserved = 0;
  h.crc = Crc32c(&h, offsetof(FileHeader, crc));
  h.pad = 0;
  return h;
}

/// Everything one sequential scan of a log file yields. A torn tail or
/// torn/absent file header is normal operation after a crash, never an
/// error; `header_valid == false` means the file carries no usable state.
struct DecodedLog {
  bool header_valid = false;
  Lsn start_lsn = 1;
  std::vector<WalRecord> records;
  size_t last_checkpoint = 0;  ///< index+1 of last checkpoint record
  Lsn max_lsn = 0;             ///< max over ALL intact records
  uint64_t end_offset = 0;     ///< end of last intact frame
};

Result<DecodedLog> DecodeAll(VfsFile* file) {
  DecodedLog out;
  FileHeader fh;
  VECDB_ASSIGN_OR_RETURN(size_t got, file->ReadAt(0, &fh, sizeof(fh)));
  if (got != sizeof(fh) || std::memcmp(fh.magic, kMagic, sizeof(kMagic)) != 0 ||
      fh.version != kVersion || fh.crc != Crc32c(&fh, offsetof(FileHeader, crc))) {
    return out;  // torn or foreign header: an empty log
  }
  out.header_valid = true;
  out.start_lsn = fh.start_lsn;
  out.end_offset = sizeof(fh);

  uint64_t off = sizeof(fh);
  for (;;) {
    RecordHeader header;
    VECDB_ASSIGN_OR_RETURN(got, file->ReadAt(off, &header, sizeof(header)));
    if (got != sizeof(header)) break;  // clean EOF or torn tail
    if (header.payload_len > kMaxPayload) break;  // corrupt length
    WalRecord record;
    record.lsn = header.lsn;
    record.type = static_cast<WalRecordType>(header.type);
    record.rel = header.rel;
    record.block = header.block;
    record.payload.resize(header.payload_len);
    if (header.payload_len > 0) {
      VECDB_ASSIGN_OR_RETURN(
          got, file->ReadAt(off + sizeof(header), record.payload.data(),
                            header.payload_len));
      if (got != header.payload_len) break;  // torn tail
    }
    uint32_t stored_crc = 0;
    VECDB_ASSIGN_OR_RETURN(
        got, file->ReadAt(off + sizeof(header) + header.payload_len,
                          &stored_crc, sizeof(stored_crc)));
    if (got != sizeof(stored_crc)) break;
    uint32_t state = Crc32cUpdate(Crc32cInit(), &header, sizeof(header));
    state = Crc32cUpdate(state, record.payload.data(), header.payload_len);
    if (Crc32cFinalize(state) != stored_crc) break;  // torn or corrupt
    if (record.type == WalRecordType::kCheckpoint) {
      out.last_checkpoint = out.records.size() + 1;
    }
    if (record.lsn > out.max_lsn) out.max_lsn = record.lsn;
    off += sizeof(header) + header.payload_len + sizeof(stored_crc);
    out.end_offset = off;
    out.records.push_back(std::move(record));
  }
  return out;
}

/// Extends `rel` until it has a block `block`.
Status ExtendTo(StorageManager* smgr, RelId rel, BlockId block,
                BlockId blocks) {
  while (blocks <= block) {
    VECDB_ASSIGN_OR_RETURN(BlockId fresh, smgr->ExtendRelation(rel));
    blocks = fresh + 1;
  }
  return Status::OK();
}

/// Reads and checks the fixed head of a kItemAppend payload.
Result<WalItemHeader> ParseItemHeader(const WalRecord& record,
                                      uint32_t page_size) {
  WalItemHeader header;
  if (record.payload.size() < sizeof(header)) {
    return Status::Corruption("WAL item record too short");
  }
  std::memcpy(&header, record.payload.data(), sizeof(header));
  const size_t item_off = sizeof(header) + header.special_size;
  if (header.init > 1 || (header.init == 0 && header.special_size != 0) ||
      header.special_size + sizeof(PageView::Header) > page_size ||
      record.payload.size() <= item_off ||
      record.payload.size() - item_off > 0xffff) {
    return Status::Corruption("WAL item record malformed");
  }
  return header;
}

/// Redoes one kItemAppend record on `page`: an init record rebuilds the
/// page from nothing; any other must find exactly slot - 1 items.
Status RedoItemAppend(const WalRecord& record, const WalItemHeader& header,
                      char* page, uint32_t page_size) {
  PageView view(page, page_size);
  if (header.init == 1) {
    view.Init(header.special_size);
    std::memcpy(view.Special(), record.payload.data() + sizeof(header),
                header.special_size);
  } else if (!view.Check().ok() || view.ItemCount() + 1 != header.slot) {
    return Status::Corruption(
        "WAL item record for slot " + std::to_string(header.slot) +
        " of (" + std::to_string(record.rel) + "," +
        std::to_string(record.block) + ") does not follow its page");
  }
  const size_t item_off = sizeof(header) + header.special_size;
  const OffsetNumber slot = view.AddItem(
      record.payload.data() + item_off,
      static_cast<uint16_t>(record.payload.size() - item_off));
  if (slot != header.slot) {
    return Status::Corruption("WAL item record does not fit its page");
  }
  return Status::OK();
}

}  // namespace

Result<WalManager> WalManager::Open(Vfs* vfs, const std::string& path) {
  // Clear a segment left behind by a rotation that crashed pre-rename.
  const std::string tmp = path + ".new";
  VECDB_ASSIGN_OR_RETURN(bool stale, vfs->Exists(tmp));
  if (stale) VECDB_RETURN_NOT_OK(vfs->Remove(tmp));

  VECDB_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                         vfs->Open(path, /*create=*/true));
  VECDB_ASSIGN_OR_RETURN(DecodedLog log, DecodeAll(file.get()));
  if (!log.header_valid) {
    // Fresh file, or a header torn at initial creation (before any record
    // could exist): start a clean v2 log.
    VECDB_RETURN_NOT_OK(file->Truncate(0));
    FileHeader fh = MakeFileHeader(1);
    VECDB_RETURN_NOT_OK(file->WriteAt(0, &fh, sizeof(fh)));
    VECDB_RETURN_NOT_OK(file->Sync());
    return WalManager(vfs, std::move(file), path, sizeof(fh), 1);
  }
  // The LSN-reuse fix: next comes from the max over ALL decoded records
  // (plus the rotation floor), not from the post-checkpoint replay set.
  Lsn next = log.max_lsn + 1;
  if (log.start_lsn > next) next = log.start_lsn;
  // Drop any torn tail so the next append starts a clean frame.
  VECDB_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size > log.end_offset) {
    VECDB_RETURN_NOT_OK(file->Truncate(log.end_offset));
  }
  return WalManager(vfs, std::move(file), path, log.end_offset, next);
}

WalManager::WalManager(WalManager&& other) noexcept {
  // Lock the source: a move may race with a straggling logger holding a
  // pointer to `other`. This object is still construction-private, so its
  // own members need no lock (constructors are exempt from the analysis).
  MutexLock lock(other.mu_);
  vfs_ = other.vfs_;
  file_ = std::move(other.file_);
  path_ = std::move(other.path_);
  size_ = other.size_;
  next_lsn_ = other.next_lsn_;
  imaged_ = std::move(other.imaged_);
}

Status WalManager::AppendRecord(WalRecordType type, RelId rel, BlockId block,
                                std::initializer_list<Piece> pieces) {
  if (file_ == nullptr) return Status::InvalidArgument("WAL closed");
  size_t payload_len = 0;
  for (const Piece& piece : pieces) payload_len += piece.size;
  RecordHeader header{};
  header.lsn = next_lsn_;
  header.payload_len = static_cast<uint32_t>(payload_len);
  header.rel = rel;
  header.block = block;
  header.type = static_cast<uint8_t>(type);

  // One contiguous frame, one WriteAt: the fault harness then sees each
  // record as a single write, and a crash tears at most this frame.
  frame_.resize(sizeof(header) + payload_len + sizeof(uint32_t));
  std::memcpy(frame_.data(), &header, sizeof(header));
  size_t off = sizeof(header);
  for (const Piece& piece : pieces) {
    if (piece.size > 0) {
      std::memcpy(frame_.data() + off, piece.data, piece.size);
    }
    off += piece.size;
  }
  // One CRC across header and payload: correlated flips in the two
  // regions cannot cancel the way the old header^payload XOR could.
  const uint32_t crc = Crc32c(frame_.data(), off);
  std::memcpy(frame_.data() + off, &crc, sizeof(crc));
  VECDB_RETURN_NOT_OK(file_->WriteAt(size_, frame_.data(), frame_.size()));
  size_ += frame_.size();
  ++next_lsn_;
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.Add(obs::Counter::kWalRecords);
  metrics.Add(obs::Counter::kWalBytes, frame_.size());
  return Status::OK();
}

Result<Lsn> WalManager::LogFullPage(RelId rel, BlockId block,
                                    const char* page, uint32_t page_size) {
  MutexLock lock(mu_);
  const Lsn lsn = next_lsn_;
  VECDB_RETURN_NOT_OK(AppendImage(rel, block, page, page_size));
  return lsn;
}

Status WalManager::AppendImage(RelId rel, BlockId block, const char* page,
                               uint32_t page_size) {
  VECDB_RETURN_NOT_OK(AppendRecord(WalRecordType::kFullPage, rel, block,
                                   {{page, page_size}}));
  imaged_.insert(PageKey(rel, block));
  obs::MetricsRegistry::Global().Add(obs::Counter::kWalPageImages);
  return Status::OK();
}

Result<Lsn> WalManager::LogAppend(RelId rel, BlockId block, const char* page,
                                  uint32_t page_size, OffsetNumber slot,
                                  bool fresh) {
  const PageView view(const_cast<char*>(page), page_size);
  const char* item = view.GetItem(slot);
  const uint16_t item_len = view.GetItemLength(slot);
  MutexLock lock(mu_);
  const Lsn lsn = next_lsn_;
  const uint64_t key = PageKey(rel, block);
  const bool init = fresh && slot == 1;
  if (item == nullptr || (!init && imaged_.count(key) == 0)) {
    VECDB_RETURN_NOT_OK(AppendImage(rel, block, page, page_size));
    return lsn;
  }
  WalItemHeader header{};
  header.slot = slot;
  header.init = init ? 1 : 0;
  header.special_size = init ? view.SpecialSize() : 0;
  VECDB_RETURN_NOT_OK(
      AppendRecord(WalRecordType::kItemAppend, rel, block,
                   {{&header, sizeof(header)},
                    {view.Special(), header.special_size},
                    {item, item_len}}));
  if (init) imaged_.insert(key);
  return lsn;
}

Result<Lsn> WalManager::LogDeadRows(RelId rel,
                                    const std::vector<uint64_t>& positions) {
  constexpr size_t kPerRecord = kMaxPayload / sizeof(uint64_t);
  MutexLock lock(mu_);
  const Lsn lsn = next_lsn_;
  for (size_t i = 0; i < positions.size(); i += kPerRecord) {
    const size_t n = std::min(kPerRecord, positions.size() - i);
    VECDB_RETURN_NOT_OK(
        AppendRecord(WalRecordType::kDeadRow, rel, kInvalidBlock,
                     {{positions.data() + i, n * sizeof(uint64_t)}}));
  }
  return lsn;
}

Result<Lsn> WalManager::LogTombstone(RelId rel, int64_t row_id) {
  MutexLock lock(mu_);
  const Lsn lsn = next_lsn_;
  VECDB_RETURN_NOT_OK(AppendRecord(WalRecordType::kTombstone, rel,
                                   kInvalidBlock, {{&row_id, sizeof(row_id)}}));
  return lsn;
}

Result<Lsn> WalManager::LogCheckpoint() {
  MutexLock lock(mu_);
  const Lsn lsn = next_lsn_;
  VECDB_RETURN_NOT_OK(AppendRecord(WalRecordType::kCheckpoint, kInvalidRel,
                                   kInvalidBlock, {}));
  VECDB_RETURN_NOT_OK(FlushLocked());
  // Under the same lock as the record: a change logged after it sees the
  // empty set and logs an image, one logged before it may log an item.
  imaged_.clear();
  obs::MetricsRegistry::Global().Add(obs::Counter::kWalCheckpoints);
  return lsn;
}

Status WalManager::Rotate() {
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::InvalidArgument("WAL closed");
  const std::string tmp = path_ + ".new";
  VECDB_ASSIGN_OR_RETURN(bool stale, vfs_->Exists(tmp));
  if (stale) VECDB_RETURN_NOT_OK(vfs_->Remove(tmp));
  VECDB_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> fresh,
                         vfs_->Open(tmp, /*create=*/true));
  FileHeader fh = MakeFileHeader(next_lsn_);
  VECDB_RETURN_NOT_OK(fresh->WriteAt(0, &fh, sizeof(fh)));
  VECDB_RETURN_NOT_OK(fresh->Sync());
  // The commit point. Until this rename, the old segment (ending in the
  // caller's checkpoint record) stays live, so a crash anywhere above
  // recovers identically to no rotation at all.
  VECDB_RETURN_NOT_OK(vfs_->Rename(tmp, path_));
  file_ = std::move(fresh);
  size_ = sizeof(fh);
  return Status::OK();
}

Status WalManager::Flush() {
  MutexLock lock(mu_);
  return FlushLocked();
}

Status WalManager::FlushLocked() {
  if (file_ == nullptr) return Status::OK();
  return file_->Sync();
}

Status WalManager::Replay(
    Vfs* vfs, const std::string& path,
    const std::function<Status(const WalRecord&)>& apply) {
  VECDB_ASSIGN_OR_RETURN(bool exists, vfs->Exists(path));
  if (!exists) return Status::OK();  // no log: nothing to replay
  VECDB_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                         vfs->Open(path, /*create=*/false));
  VECDB_ASSIGN_OR_RETURN(DecodedLog log, DecodeAll(file.get()));
  for (size_t i = log.last_checkpoint; i < log.records.size(); ++i) {
    VECDB_RETURN_NOT_OK(apply(log.records[i]));
  }
  return Status::OK();
}

Status WalManager::Recover(Vfs* vfs, const std::string& path,
                           StorageManager* smgr,
                           std::vector<WalTombstone>* tombstones) {
  auto& metrics = obs::MetricsRegistry::Global();
  std::vector<char> page(smgr->page_size());
  return Replay(vfs, path, [&](const WalRecord& record) -> Status {
    switch (record.type) {
      case WalRecordType::kFullPage:
      case WalRecordType::kItemAppend: {
        const bool image = record.type == WalRecordType::kFullPage;
        WalItemHeader item{};
        if (image && record.payload.size() != smgr->page_size()) {
          return Status::Corruption("WAL page image size mismatch");
        }
        if (!image) {
          VECDB_ASSIGN_OR_RETURN(item,
                                 ParseItemHeader(record, smgr->page_size()));
        }
        // The relation may have been dropped after this record was logged
        // (its removal survived via the durable relation manifest); its
        // stale records must not resurrect anything.
        auto blocks_r = smgr->NumBlocks(record.rel);
        if (blocks_r.status().IsNotFound()) return Status::OK();
        VECDB_RETURN_NOT_OK(blocks_r.status());
        if (image) {
          VECDB_RETURN_NOT_OK(
              ExtendTo(smgr, record.rel, record.block, *blocks_r));
          VECDB_RETURN_NOT_OK(smgr->WriteBlock(record.rel, record.block,
                                               record.payload.data()));
          metrics.Add(obs::Counter::kWalRecoveredPages);
          return Status::OK();
        }
        // An init record is the page's image: it extends like one. Any
        // other item record follows an image or init of its page.
        if (item.init == 1) {
          VECDB_RETURN_NOT_OK(
              ExtendTo(smgr, record.rel, record.block, *blocks_r));
          metrics.Add(obs::Counter::kWalRecoveredPages);
        } else if (record.block >= *blocks_r) {
          return Status::Corruption("WAL item record past its relation");
        } else {
          VECDB_RETURN_NOT_OK(
              smgr->ReadBlock(record.rel, record.block, page.data()));
        }
        VECDB_RETURN_NOT_OK(
            RedoItemAppend(record, item, page.data(), smgr->page_size()));
        return smgr->WriteBlock(record.rel, record.block, page.data());
      }
      case WalRecordType::kTombstone:
      case WalRecordType::kDeadRow: {
        const size_t n = record.payload.size() / sizeof(uint64_t);
        if (n == 0 || record.payload.size() % sizeof(uint64_t) != 0 ||
            (record.type == WalRecordType::kTombstone && n != 1)) {
          return Status::Corruption("WAL delete payload size mismatch");
        }
        if (tombstones == nullptr ||
            !smgr->NumBlocks(record.rel).ok()) {  // skip dropped relations
          return Status::OK();
        }
        for (size_t i = 0; i < n; ++i) {
          uint64_t value = 0;
          std::memcpy(&value, record.payload.data() + i * sizeof(value),
                      sizeof(value));
          tombstones->push_back({record.rel,
                                 record.type == WalRecordType::kDeadRow,
                                 value, static_cast<int64_t>(value)});
        }
        return Status::OK();
      }
      case WalRecordType::kCheckpoint:
        return Status::OK();
    }
    return Status::Corruption("unknown WAL record type");
  });
}

}  // namespace vecdb::pgstub
