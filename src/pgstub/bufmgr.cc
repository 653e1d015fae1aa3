#include "pgstub/bufmgr.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace vecdb::pgstub {

BufferManager::BufferManager(StorageManager* smgr, size_t pool_pages)
    : smgr_(smgr),
      num_frames_(pool_pages),
      frames_(pool_pages),
      pool_(pool_pages * smgr->page_size()) {
  table_.reserve(pool_pages * 2);
}

Result<int32_t> BufferManager::AllocFrame() {
  // Clock sweep: each frame gets `usage` extra chances, so a full victim
  // search can need (max usage + 1) rotations. Fail only once an entire
  // rotation encounters nothing but pinned frames.
  const size_t n = frames_.size();
  size_t pinned_streak = 0;
  for (size_t step = 0; step < 8 * n; ++step) {
    Frame& f = frames_[clock_hand_];
    const size_t frame_idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    if (!f.valid) return static_cast<int32_t>(frame_idx);
    if (f.pin_count > 0) {
      if (++pinned_streak >= n) break;
      continue;
    }
    pinned_streak = 0;
    if (f.usage > 0) {
      --f.usage;
      continue;
    }
    // Victim: write back if dirty, drop the mapping. WAL-before-data:
    // the records its writer logged must be durable before the page
    // itself overwrites its on-disk predecessor.
    if (f.dirty) {
      if (WalManager* wal = this->wal()) VECDB_RETURN_NOT_OK(wal->Flush());
      VECDB_RETURN_NOT_OK(smgr_->WriteBlock(
          f.rel, f.block, pool_.data() + frame_idx * smgr_->page_size()));
      f.dirty = false;
    }
    table_.erase(TagKey(f.rel, f.block));
    f.valid = false;
    ++stats_.evictions;
    obs::MetricsRegistry::Global().Add(obs::Counter::kBufmgrEviction);
    return static_cast<int32_t>(frame_idx);
  }
  return Status::ResourceExhausted("buffer pool: all frames pinned");
}

Result<BufferHandle> BufferManager::Pin(RelId rel, BlockId block) {
  MutexLock guard(mu_);
  ++stats_.pins;
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.Add(obs::Counter::kBufmgrPin);
  auto it = table_.find(TagKey(rel, block));
  if (it != table_.end()) {
    Frame& f = frames_[it->second];
    ++f.pin_count;
    if (f.usage < 5) ++f.usage;
    ++stats_.hits;
    metrics.Add(obs::Counter::kBufmgrHit);
    return BufferHandle{it->second,
                        pool_.data() + static_cast<size_t>(it->second) *
                                           smgr_->page_size()};
  }
  ++stats_.misses;
  metrics.Add(obs::Counter::kBufmgrMiss);
  VECDB_ASSIGN_OR_RETURN(int32_t frame, AllocFrame());
  char* data = pool_.data() + static_cast<size_t>(frame) * smgr_->page_size();
  VECDB_RETURN_NOT_OK(smgr_->ReadBlock(rel, block, data));
  Frame& f = frames_[frame];
  f.rel = rel;
  f.block = block;
  f.pin_count = 1;
  f.usage = 1;
  f.dirty = false;
  f.valid = true;
  table_[TagKey(rel, block)] = frame;
  return BufferHandle{frame, data};
}

Result<std::pair<BlockId, BufferHandle>> BufferManager::NewPage(RelId rel) {
  MutexLock guard(mu_);
  VECDB_ASSIGN_OR_RETURN(BlockId block, smgr_->ExtendRelation(rel));
  VECDB_ASSIGN_OR_RETURN(int32_t frame, AllocFrame());
  char* data = pool_.data() + static_cast<size_t>(frame) * smgr_->page_size();
  std::memset(data, 0, smgr_->page_size());
  Frame& f = frames_[frame];
  f.rel = rel;
  f.block = block;
  f.pin_count = 1;
  f.usage = 1;
  f.dirty = true;
  f.valid = true;
  table_[TagKey(rel, block)] = frame;
  ++stats_.pins;
  obs::MetricsRegistry::Global().Add(obs::Counter::kBufmgrPin);
  return std::make_pair(block, BufferHandle{frame, data});
}

void BufferManager::Unpin(const BufferHandle& handle, bool dirty) {
  if (!handle.valid()) return;
  MutexLock guard(mu_);
  Frame& f = frames_[handle.frame];
  // An unpin without a matching pin is a caller bug that would let the
  // frame be evicted while a stale handle still points at it.
  VECDB_DCHECK_GT(f.pin_count, 0) << "Unpin of frame " << handle.frame
                                  << " that is not pinned";
  if (f.pin_count > 0) --f.pin_count;
  if (dirty) f.dirty = true;
}

void BufferManager::MarkDirty(const BufferHandle& handle) {
  MutexLock guard(mu_);
  VECDB_DCHECK_GT(frames_[handle.frame].pin_count, 0)
      << "MarkDirty of frame " << handle.frame << " that is not pinned";
  frames_[handle.frame].dirty = true;
}

void BufferManager::CheckInvariants() const {
  MutexLock guard(mu_);
  size_t valid_frames = 0;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (!f.valid) {
      VECDB_CHECK_EQ(f.pin_count, 0) << "invalid frame " << i << " is pinned";
      continue;
    }
    ++valid_frames;
    VECDB_CHECK_GE(f.pin_count, 0) << "frame " << i << " pin count underflow";
    VECDB_CHECK_LE(static_cast<int>(f.usage), 5)
        << "frame " << i << " usage above clock-sweep cap";
    auto it = table_.find(TagKey(f.rel, f.block));
    VECDB_CHECK(it != table_.end())
        << "valid frame " << i << " missing from tag table";
    VECDB_CHECK_EQ(it->second, static_cast<int32_t>(i))
        << "tag table maps (" << f.rel << "," << f.block
        << ") to a different frame";
  }
  // Every mapping must point back at a valid frame with the same tag, so
  // the table size equals the valid-frame count exactly.
  VECDB_CHECK_EQ(table_.size(), valid_frames)
      << "tag table and frame validity disagree";
}

Status BufferManager::FlushAll() {
  MutexLock guard(mu_);
  // Page contents are only stable while a frame is unpinned (pin holders
  // mutate bytes outside the lock), so flushing a pinned-dirty frame
  // would write a torn image — and a checkpoint right after would rotate
  // away the WAL record that could repair it. Refuse up front; the caller
  // retries once the pin drains.
  for (const Frame& f : frames_) {
    if (f.valid && f.dirty && f.pin_count > 0) {
      return Status::InvalidArgument(
          "dirty page pinned during flush: rel " + std::to_string(f.rel) +
          " block " + std::to_string(f.block));
    }
  }
  // WAL-before-data, wholesale: force out every record logged so far
  // before any page write can clobber its on-disk predecessor.
  if (WalManager* wal = this->wal()) VECDB_RETURN_NOT_OK(wal->Flush());
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (f.valid && f.dirty) {
      VECDB_RETURN_NOT_OK(smgr_->WriteBlock(
          f.rel, f.block, pool_.data() + i * smgr_->page_size()));
      f.dirty = false;
    }
  }
  return Status::OK();
}

Status BufferManager::InvalidateRelation(RelId rel) {
  MutexLock guard(mu_);
  for (auto& f : frames_) {
    if (f.valid && f.rel == rel && f.pin_count > 0) {
      return Status::InvalidArgument("relation has pinned pages");
    }
  }
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (f.valid && f.rel == rel) {
      table_.erase(TagKey(f.rel, f.block));
      f.valid = false;
      f.dirty = false;
    }
  }
  return Status::OK();
}

}  // namespace vecdb::pgstub
