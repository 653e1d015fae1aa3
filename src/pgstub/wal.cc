#include "pgstub/wal.h"

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
}

Status WalManager::AppendRecord(WalRecordType type, RelId rel, BlockId block,
                                const char* payload, uint32_t payload_len) {
  if (file_ == nullptr) return Status::InvalidArgument("WAL closed");
  RecordHeader header{};
  header.lsn = next_lsn_;
  header.payload_len = payload_len;
  header.rel = rel;
  header.block = block;
  header.type = static_cast<uint8_t>(type);
  // One streaming CRC across header and payload: correlated flips in the
  // two regions cannot cancel the way the old header^payload XOR could.
  uint32_t state = Crc32cUpdate(Crc32cInit(), &header, sizeof(header));
  state = Crc32cUpdate(state, payload, payload_len);
  const uint32_t crc = Crc32cFinalize(state);

  // One contiguous frame, one WriteAt: the fault harness then sees each
  // record as a single write, and a crash tears at most this frame.
  std::vector<char> frame(sizeof(header) + payload_len + sizeof(crc));
  std::memcpy(frame.data(), &header, sizeof(header));
  if (payload_len > 0) {
    std::memcpy(frame.data() + sizeof(header), payload, payload_len);
  }
  std::memcpy(frame.data() + sizeof(header) + payload_len, &crc, sizeof(crc));
  VECDB_RETURN_NOT_OK(file_->WriteAt(size_, frame.data(), frame.size()));
  size_ += frame.size();
  ++next_lsn_;
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.Add(obs::Counter::kWalRecords);
  metrics.Add(obs::Counter::kWalBytes, frame.size());
  return Status::OK();
}

Result<Lsn> WalManager::LogFullPage(RelId rel, BlockId block,
                                    const char* page, uint32_t page_size) {
  MutexLock lock(mu_);
  const Lsn lsn = next_lsn_;
  VECDB_RETURN_NOT_OK(
      AppendRecord(WalRecordType::kFullPage, rel, block, page, page_size));
  return lsn;
}

Result<Lsn> WalManager::LogDelete(WalRecordType type, RelId rel,
                                  uint64_t value) {
  MutexLock lock(mu_);
  const Lsn lsn = next_lsn_;
  char payload[sizeof(value)];
  std::memcpy(payload, &value, sizeof(value));
  VECDB_RETURN_NOT_OK(
      AppendRecord(type, rel, kInvalidBlock, payload, sizeof(payload)));
  return lsn;
}

Result<Lsn> WalManager::LogCheckpoint() {
  MutexLock lock(mu_);
  const Lsn lsn = next_lsn_;
  VECDB_RETURN_NOT_OK(AppendRecord(WalRecordType::kCheckpoint, kInvalidRel,
                                   kInvalidBlock, nullptr, 0));
  VECDB_RETURN_NOT_OK(FlushLocked());
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
  return Replay(vfs, path, [&](const WalRecord& record) -> Status {
    switch (record.type) {
      case WalRecordType::kFullPage: {
        if (record.payload.size() != smgr->page_size()) {
          return Status::Corruption("WAL page image size mismatch");
        }
        // The relation may have been dropped after this record was logged
        // (its removal survived via the durable relation manifest); its
        // stale images must not resurrect anything.
        auto blocks_r = smgr->NumBlocks(record.rel);
        if (blocks_r.status().IsNotFound()) return Status::OK();
        VECDB_RETURN_NOT_OK(blocks_r.status());
        BlockId blocks = *blocks_r;
        while (blocks <= record.block) {
          VECDB_ASSIGN_OR_RETURN(BlockId fresh,
                                 smgr->ExtendRelation(record.rel));
          blocks = fresh + 1;
        }
        VECDB_RETURN_NOT_OK(
            smgr->WriteBlock(record.rel, record.block, record.payload.data()));
        metrics.Add(obs::Counter::kWalRecoveredPages);
        return Status::OK();
      }
      case WalRecordType::kTombstone:
      case WalRecordType::kDeadRow: {
        if (record.payload.size() != sizeof(uint64_t)) {
          return Status::Corruption("WAL delete payload size mismatch");
        }
        if (tombstones != nullptr &&
            smgr->NumBlocks(record.rel).ok()) {  // skip dropped relations
          uint64_t value = 0;
          std::memcpy(&value, record.payload.data(), sizeof(value));
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
