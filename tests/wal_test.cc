#include "pgstub/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "pgstub/bufmgr.h"
#include "pgstub/crc32c.h"
#include "pgstub/heap_table.h"
#include "pgstub/vfs.h"

namespace vecdb::pgstub {
namespace {

std::string TestDir(const char* suffix) {
  std::string dir = ::testing::TempDir() + "/wal_" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
                    "_" + suffix + "_" + std::to_string(::getpid());
  // Durable state now survives reruns; start every test from scratch.
  std::filesystem::remove_all(dir);
  return dir;
}

std::string TestLog(const char* suffix) {
  std::string path = TestDir(suffix) + ".wal";
  std::remove(path.c_str());
  std::remove((path + ".new").c_str());
  return path;
}

/// Deterministic byte stream (xorshift) for CRC parity tests.
uint8_t NextByte(uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return static_cast<uint8_t>(*state);
}

TEST(Crc32cTest, KnownValuesAndSensitivity) {
  // CRC-32C of "123456789" is the classic check value 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  const char a[] = "hello";
  const char b[] = "hellp";
  EXPECT_NE(Crc32c(a, 5), Crc32c(b, 5));
}

TEST(Crc32cTest, TableAndDispatchedMatchBitwiseOracle) {
  // The fast paths (slicing-by-8 tables, SSE4.2 when present) must agree
  // with the bit-at-a-time reference on every length and alignment.
  uint64_t rng = 0x243F6A8885A308D3ull;
  std::vector<uint8_t> buf(8192);
  for (auto& byte : buf) byte = NextByte(&rng);
  for (size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 63u, 64u, 255u,
                     1024u, 8192u}) {
    for (size_t shift : {0u, 1u, 3u, 7u}) {
      if (shift + len > buf.size()) continue;
      const void* p = buf.data() + shift;
      const uint32_t oracle = Crc32cBitwise(p, len);
      EXPECT_EQ(Crc32cTable(p, len), oracle) << len << "+" << shift;
      EXPECT_EQ(Crc32c(p, len), oracle) << len << "+" << shift;
    }
  }
}

TEST(Crc32cTest, StreamingEqualsOneShotAtAnySplit) {
  uint64_t rng = 0x13198A2E03707344ull;
  std::vector<uint8_t> buf(513);
  for (auto& byte : buf) byte = NextByte(&rng);
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split += 37) {
    uint32_t s = Crc32cInit();
    s = Crc32cUpdate(s, buf.data(), split);
    s = Crc32cUpdate(s, buf.data() + split, buf.size() - split);
    EXPECT_EQ(Crc32cFinalize(s), whole) << "split " << split;
  }
}

TEST(Crc32cTest, XoredCrcsCancelButStreamingDoesNot) {
  // The v1 WAL record checksum was crc32c(header) ^ crc32c(payload). CRC
  // is linear over GF(2): flipping the same bit pattern at the same
  // distance from the END of each part shifts both CRCs by the same
  // delta, which the XOR cancels — correlated corruption that passed the
  // old check. One streaming CRC over header||payload sees the two flips
  // at different distances from the end and catches it.
  uint64_t rng = 0xA4093822299F31D0ull;
  std::vector<uint8_t> header(24), payload(512);
  for (auto& byte : header) byte = NextByte(&rng);
  for (auto& byte : payload) byte = NextByte(&rng);

  auto old_xor_check = [](const std::vector<uint8_t>& h,
                          const std::vector<uint8_t>& p) {
    return Crc32c(h.data(), h.size()) ^ Crc32c(p.data(), p.size());
  };
  auto streaming_check = [](const std::vector<uint8_t>& h,
                            const std::vector<uint8_t>& p) {
    uint32_t s = Crc32cInit();
    s = Crc32cUpdate(s, h.data(), h.size());
    s = Crc32cUpdate(s, p.data(), p.size());
    return Crc32cFinalize(s);
  };
  const uint32_t old_clean = old_xor_check(header, payload);
  const uint32_t new_clean = streaming_check(header, payload);

  // Same flip, 5 bytes from the end of each part.
  auto corrupt_header = header;
  auto corrupt_payload = payload;
  corrupt_header[header.size() - 5] ^= 0x40;
  corrupt_payload[payload.size() - 5] ^= 0x40;

  EXPECT_EQ(old_xor_check(corrupt_header, corrupt_payload), old_clean)
      << "expected the v1 XOR checksum to miss this corruption";
  EXPECT_NE(streaming_check(corrupt_header, corrupt_payload), new_clean)
      << "the streaming checksum must catch it";
}

TEST(WalTest, AppendAndReplayInOrder) {
  const std::string path = TestLog("log");
  std::vector<char> page(512, 0x11);
  {
    auto wal = std::move(WalManager::Open(path)).ValueOrDie();
    EXPECT_EQ(*wal.LogFullPage(1, 0, page.data(), 512), 1u);
    page.assign(512, 0x22);
    EXPECT_EQ(*wal.LogFullPage(1, 1, page.data(), 512), 2u);
    EXPECT_EQ(*wal.LogFullPage(2, 0, page.data(), 512), 3u);
    ASSERT_TRUE(wal.Flush().ok());
  }
  std::vector<WalRecord> seen;
  ASSERT_TRUE(WalManager::Replay(path, [&](const WalRecord& record) {
                seen.push_back(record);
                return Status::OK();
              }).ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].lsn, 1u);
  EXPECT_EQ(seen[0].rel, 1u);
  EXPECT_EQ(seen[0].payload[0], 0x11);
  EXPECT_EQ(seen[1].block, 1u);
  EXPECT_EQ(seen[2].rel, 2u);
  std::remove(path.c_str());
}

TEST(WalTest, ReopenContinuesLsnSequence) {
  const std::string path = TestLog("reopen");
  std::vector<char> page(512, 0x33);
  {
    auto wal = std::move(WalManager::Open(path)).ValueOrDie();
    ASSERT_TRUE(wal.LogFullPage(1, 0, page.data(), 512).ok());
    ASSERT_TRUE(wal.Flush().ok());
  }
  auto wal = std::move(WalManager::Open(path)).ValueOrDie();
  EXPECT_EQ(wal.next_lsn(), 2u);
  std::remove(path.c_str());
}

TEST(WalTest, ReopenAfterCheckpointDoesNotReuseLsns) {
  // Regression: Open() used to derive next_lsn by replaying, and Replay
  // skips everything at or before the last checkpoint — so a log ENDING
  // in a checkpoint record reopened with next_lsn == 1 and re-issued
  // already-used LSNs.
  const std::string path = TestLog("lsnreuse");
  std::vector<char> page(512, 0x66);
  {
    auto wal = std::move(WalManager::Open(path)).ValueOrDie();
    ASSERT_TRUE(wal.LogFullPage(1, 0, page.data(), 512).ok());  // lsn 1
    ASSERT_TRUE(wal.LogFullPage(1, 1, page.data(), 512).ok());  // lsn 2
    ASSERT_TRUE(wal.LogCheckpoint().ok());                      // lsn 3
  }
  {
    auto wal = std::move(WalManager::Open(path)).ValueOrDie();
    EXPECT_EQ(wal.next_lsn(), 4u);
    EXPECT_EQ(*wal.LogFullPage(1, 2, page.data(), 512), 4u);
    ASSERT_TRUE(wal.Flush().ok());
  }
  // The post-checkpoint record is the only one that replays, under its
  // fresh (never reused) LSN.
  std::vector<Lsn> replayed;
  ASSERT_TRUE(WalManager::Replay(path, [&](const WalRecord& record) {
                replayed.push_back(record.lsn);
                return Status::OK();
              }).ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], 4u);
  std::remove(path.c_str());
}

TEST(WalTest, CheckpointSkipsEarlierRecords) {
  const std::string path = TestLog("ckpt");
  std::vector<char> page(512, 0x44);
  {
    auto wal = std::move(WalManager::Open(path)).ValueOrDie();
    ASSERT_TRUE(wal.LogFullPage(1, 0, page.data(), 512).ok());
    ASSERT_TRUE(wal.LogCheckpoint().ok());
    ASSERT_TRUE(wal.LogFullPage(1, 1, page.data(), 512).ok());
    ASSERT_TRUE(wal.Flush().ok());
  }
  std::vector<Lsn> replayed;
  ASSERT_TRUE(WalManager::Replay(path, [&](const WalRecord& record) {
                replayed.push_back(record.lsn);
                return Status::OK();
              }).ok());
  // Only the record after the checkpoint replays.
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], 3u);
  std::remove(path.c_str());
}

TEST(WalTest, RotateShrinksLogAndPreservesLsnSequence) {
  const std::string path = TestLog("rotate");
  std::vector<char> page(512, 0x77);
  Lsn next_before = 0;
  {
    auto wal = std::move(WalManager::Open(path)).ValueOrDie();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(wal.LogFullPage(1, i, page.data(), 512).ok());
    }
    const uint64_t fat = wal.size_bytes();
    ASSERT_TRUE(wal.LogCheckpoint().ok());
    ASSERT_TRUE(wal.Rotate().ok());
    EXPECT_LT(wal.size_bytes(), fat / 10) << "rotation must shrink the log";
    next_before = wal.next_lsn();
    EXPECT_EQ(next_before, 22u);  // 20 pages + 1 checkpoint, next is 22
    // The rotated log is immediately appendable.
    EXPECT_EQ(*wal.LogFullPage(1, 99, page.data(), 512), 22u);
    ASSERT_TRUE(wal.Flush().ok());
  }
  // The fresh segment's header carries start_lsn, so a reopen (even of a
  // rotated log with no records) cannot restart the sequence.
  auto wal = std::move(WalManager::Open(path)).ValueOrDie();
  EXPECT_EQ(wal.next_lsn(), next_before + 1);
  std::vector<Lsn> replayed;
  ASSERT_TRUE(WalManager::Replay(path, [&](const WalRecord& record) {
                replayed.push_back(record.lsn);
                return Status::OK();
              }).ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], 22u);
  std::remove(path.c_str());
}

TEST(WalTest, TornTailIsTruncatedNotFatal) {
  const std::string path = TestLog("torn");
  std::vector<char> page(512, 0x55);
  {
    auto wal = std::move(WalManager::Open(path)).ValueOrDie();
    ASSERT_TRUE(wal.LogFullPage(1, 0, page.data(), 512).ok());
    ASSERT_TRUE(wal.LogFullPage(1, 1, page.data(), 512).ok());
    ASSERT_TRUE(wal.Flush().ok());
  }
  // Chop bytes off the second record to simulate a crash mid-append.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), size - 100), 0);
  std::fclose(f);

  int intact = 0;
  ASSERT_TRUE(WalManager::Replay(path, [&](const WalRecord&) {
                ++intact;
                return Status::OK();
              }).ok());
  EXPECT_EQ(intact, 1);

  // Reopening truncates the tail and appends cleanly after the survivor.
  auto wal = std::move(WalManager::Open(path)).ValueOrDie();
  EXPECT_EQ(wal.next_lsn(), 2u);
  EXPECT_EQ(*wal.LogFullPage(1, 1, page.data(), 512), 2u);
  ASSERT_TRUE(wal.Flush().ok());
  intact = 0;
  ASSERT_TRUE(WalManager::Replay(path, [&](const WalRecord&) {
                ++intact;
                return Status::OK();
              }).ok());
  EXPECT_EQ(intact, 2);
  std::remove(path.c_str());
}

TEST(WalTest, CrashRecoveryRestoresUnflushedPages) {
  // Write rows through a WAL-attached buffer manager, "crash" before
  // FlushAll, and recover the storage from the log alone.
  const std::string data_dir = TestDir("data");
  const std::string wal_path = data_dir + "/wal.log";

  RelId rel;
  {
    auto smgr = std::make_unique<StorageManager>(
        StorageManager::Open(data_dir, 8192).ValueOrDie());
    auto wal = std::move(WalManager::Open(wal_path)).ValueOrDie();
    BufferManager bufmgr(smgr.get(), 64);
    bufmgr.SetWal(&wal);

    auto table = std::move(pgstub::HeapTable::Create(&bufmgr, smgr.get(),
                                                     "t", 4))
                     .ValueOrDie();
    rel = table.rel();
    const float vec[4] = {1.f, 2.f, 3.f, 4.f};
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(table.Insert(i, vec).ok());
    }
    ASSERT_TRUE(wal.Flush().ok());
    // CRASH: destructors run, but dirty pages were never flushed. The
    // relation file contains zero pages beyond what NewPage pre-extended.
  }

  // Recovery: a fresh storage manager re-attaches the relation from its
  // manifest (no re-creation — ids are durable now), then REDO fills in
  // the page images the crash swallowed.
  auto smgr = std::make_unique<StorageManager>(
      StorageManager::Open(data_dir, 8192).ValueOrDie());
  ASSERT_EQ(*smgr->FindRelation("t"), rel);
  ASSERT_TRUE(WalManager::Recover(wal_path, smgr.get()).ok());

  // The recovered pages contain all 50 tuples, and the heap re-attaches.
  BufferManager bufmgr(smgr.get(), 64);
  size_t rows = 0;
  auto blocks = std::move(smgr->NumBlocks(rel)).ValueOrDie();
  for (BlockId b = 0; b < blocks; ++b) {
    auto handle = std::move(bufmgr.Pin(rel, b)).ValueOrDie();
    PageView page(handle.data, 8192);
    EXPECT_TRUE(page.Check().ok());
    rows += page.ItemCount();
    bufmgr.Unpin(handle, false);
  }
  EXPECT_EQ(rows, 50u);
  auto table =
      std::move(HeapTable::Attach(&bufmgr, smgr.get(), "t", 4)).ValueOrDie();
  EXPECT_EQ(table.num_rows(), 50u);
}

TEST(WalTest, RecoverCollectsTombstonesAndSkipsDroppedRelations) {
  const std::string data_dir = TestDir("tomb");
  const std::string wal_path = data_dir + "/wal.log";
  {
    auto smgr = std::make_unique<StorageManager>(
        StorageManager::Open(data_dir, 8192).ValueOrDie());
    auto keep = std::move(smgr->CreateRelation("keep")).ValueOrDie();
    auto gone = std::move(smgr->CreateRelation("gone")).ValueOrDie();
    auto wal = std::move(WalManager::Open(wal_path)).ValueOrDie();
    std::vector<char> page(8192, 0x5A);
    ASSERT_TRUE(wal.LogFullPage(keep, 0, page.data(), 8192).ok());
    ASSERT_TRUE(wal.LogFullPage(gone, 0, page.data(), 8192).ok());
    ASSERT_TRUE(wal.LogTombstone(keep, 7).ok());
    ASSERT_TRUE(wal.LogTombstone(keep, 9).ok());
    ASSERT_TRUE(wal.Flush().ok());
    ASSERT_TRUE(smgr->DropRelation(gone).ok());
    // crash
  }
  auto smgr = std::make_unique<StorageManager>(
      StorageManager::Open(data_dir, 8192).ValueOrDie());
  std::vector<WalTombstone> tombstones;
  ASSERT_TRUE(WalManager::Recover(Vfs::Default(), wal_path, smgr.get(),
                                  &tombstones)
                  .ok());
  // The dropped relation's image was skipped, not resurrected.
  EXPECT_TRUE(smgr->FindRelation("gone").status().IsNotFound());
  auto keep = std::move(smgr->FindRelation("keep")).ValueOrDie();
  EXPECT_EQ(*smgr->NumBlocks(keep), 1u);
  ASSERT_EQ(tombstones.size(), 2u);
  EXPECT_EQ(tombstones[0].rel, keep);
  EXPECT_EQ(tombstones[0].row_id, 7);
  EXPECT_EQ(tombstones[1].row_id, 9);
}

// ---------------------------------------------------------------------------
// Image once per checkpoint, then items.

/// Flushes `wal`, then lists the types of the records Replay yields (those
/// after the last checkpoint), an item record with its init flag as "init".
std::vector<std::string> RecordKinds(WalManager* wal,
                                     const std::string& wal_path) {
  EXPECT_TRUE(wal->Flush().ok());
  std::vector<std::string> kinds;
  EXPECT_TRUE(WalManager::Replay(wal_path, [&](const WalRecord& record) {
                switch (record.type) {
                  case WalRecordType::kFullPage:
                    kinds.push_back("image");
                    break;
                  case WalRecordType::kItemAppend: {
                    WalItemHeader header;
                    std::memcpy(&header, record.payload.data(),
                                sizeof(header));
                    kinds.push_back(header.init == 1 ? "init" : "item");
                    break;
                  }
                  default:
                    kinds.push_back("other");
                }
                return Status::OK();
              }).ok());
  return kinds;
}

/// Every block of `rel` as stored.
std::vector<std::vector<char>> ReadBlocks(StorageManager* smgr, RelId rel) {
  std::vector<std::vector<char>> blocks(*smgr->NumBlocks(rel));
  for (BlockId b = 0; b < blocks.size(); ++b) {
    blocks[b].resize(smgr->page_size());
    EXPECT_TRUE(smgr->ReadBlock(rel, b, blocks[b].data()).ok());
  }
  return blocks;
}

/// Appends one distinct 40-byte item to pinned block `block` of `rel`,
/// logs it through WalManager::LogAppend (`fresh`: the page came from
/// NewPage and has no record yet) and unpins the page dirty.
void AppendItem(BufferManager* bufmgr, WalManager* wal, RelId rel,
                BlockId block, const BufferHandle& handle, char fill,
                bool fresh) {
  PageView page(handle.data, bufmgr->page_size());
  const std::vector<char> item(40, fill);
  const OffsetNumber slot = page.AddItem(item.data(), 40);
  ASSERT_NE(slot, kInvalidOffset);
  bufmgr->MarkDirty(handle);
  ASSERT_TRUE(
      wal->LogAppend(rel, block, handle.data, bufmgr->page_size(), slot, fresh)
          .ok());
  bufmgr->Unpin(handle, /*dirty=*/true);
}

TEST(WalItemTest, ItemAndInitRecordsReplayByteIdentically) {
  const std::string data_dir = TestDir("data");
  const std::string wal_path = data_dir + "/wal.log";
  RelId rel;
  std::vector<std::vector<char>> want;
  {
    auto smgr = std::make_unique<StorageManager>(
        StorageManager::Open(data_dir, 512).ValueOrDie());
    auto wal = std::move(WalManager::Open(wal_path)).ValueOrDie();
    BufferManager bufmgr(smgr.get(), 8);
    rel = *smgr->CreateRelation("r");
    // Block 0: fresh, with 8 bytes of special space -> one init record.
    auto fresh = std::move(bufmgr.NewPage(rel)).ValueOrDie();
    PageView page(fresh.second.data, 512);
    page.Init(8);
    std::memset(page.Special(), 0x5A, 8);
    AppendItem(&bufmgr, &wal, rel, fresh.first, fresh.second, 1,
               /*fresh=*/true);
    // Two more appends to it -> item records.
    for (char fill : {2, 3}) {
      AppendItem(&bufmgr, &wal, rel, 0,
                 std::move(bufmgr.Pin(rel, 0)).ValueOrDie(), fill,
                 /*fresh=*/false);
    }
    EXPECT_EQ(RecordKinds(&wal, wal_path),
              (std::vector<std::string>{"init", "item", "item"}));
    // Copies of the pool's pages; then the pool is dropped unflushed.
    for (BlockId b = 0; b < *smgr->NumBlocks(rel); ++b) {
      auto handle = std::move(bufmgr.Pin(rel, b)).ValueOrDie();
      want.emplace_back(handle.data, handle.data + 512);
      bufmgr.Unpin(handle, false);
    }
  }
  auto smgr = std::make_unique<StorageManager>(
      StorageManager::Open(data_dir, 512).ValueOrDie());
  // The file holds block 0 as NewPage left it: zeroed. Tear it too.
  std::vector<char> torn(512, static_cast<char>(0xEE));
  ASSERT_TRUE(smgr->WriteBlock(rel, 0, torn.data()).ok());
  ASSERT_TRUE(WalManager::Recover(wal_path, smgr.get()).ok());
  EXPECT_EQ(ReadBlocks(smgr.get(), rel), want);
}

TEST(WalItemTest, InitRecordRebuildsAMissingBlock) {
  const std::string data_dir = TestDir("data");
  const std::string wal_path = data_dir + "/wal.log";
  RelId rel;
  std::vector<char> want;
  {
    auto smgr = std::make_unique<StorageManager>(
        StorageManager::Open(data_dir, 512).ValueOrDie());
    auto wal = std::move(WalManager::Open(wal_path)).ValueOrDie();
    rel = *smgr->CreateRelation("r");
    std::vector<char> page(512);
    PageView view(page.data(), 512);
    view.Init(0);
    const std::vector<char> item(24, 7);
    ASSERT_EQ(view.AddItem(item.data(), 24), 1);
    ASSERT_TRUE(wal.LogAppend(rel, 2, page.data(), 512, 1, true).ok());
    want = page;
  }
  // The relation file has no blocks at all: the init record extends it.
  auto smgr = std::make_unique<StorageManager>(
      StorageManager::Open(data_dir, 512).ValueOrDie());
  ASSERT_EQ(*smgr->NumBlocks(rel), 0u);
  ASSERT_TRUE(WalManager::Recover(wal_path, smgr.get()).ok());
  const auto blocks = ReadBlocks(smgr.get(), rel);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[2], want);
  EXPECT_EQ(blocks[0], std::vector<char>(512, 0));
}

TEST(WalItemTest, ItemRecordThatSkipsASlotIsCorruption) {
  const std::string data_dir = TestDir("data");
  const std::string wal_path = data_dir + "/wal.log";
  RelId rel;
  {
    auto smgr = std::make_unique<StorageManager>(
        StorageManager::Open(data_dir, 512).ValueOrDie());
    auto wal = std::move(WalManager::Open(wal_path)).ValueOrDie();
    rel = *smgr->CreateRelation("r");
    std::vector<char> page(512);
    PageView view(page.data(), 512);
    view.Init(0);
    const std::vector<char> item(24, 7);
    ASSERT_EQ(view.AddItem(item.data(), 24), 1);
    ASSERT_TRUE(wal.LogFullPage(rel, 0, page.data(), 512).ok());
    // Slot 2 is never logged; slot 3's record then finds one item.
    ASSERT_EQ(view.AddItem(item.data(), 24), 2);
    ASSERT_EQ(view.AddItem(item.data(), 24), 3);
    ASSERT_TRUE(wal.LogAppend(rel, 0, page.data(), 512, 3, false).ok());
    EXPECT_EQ(RecordKinds(&wal, wal_path),
              (std::vector<std::string>{"image", "item"}));
  }
  auto smgr = std::make_unique<StorageManager>(
      StorageManager::Open(data_dir, 512).ValueOrDie());
  EXPECT_TRUE(WalManager::Recover(wal_path, smgr.get()).IsCorruption());
}

TEST(WalItemTest, FirstChangeAfterCheckpointIsAnImage) {
  const std::string wal_path = TestLog("log");
  auto wal = std::move(WalManager::Open(wal_path)).ValueOrDie();
  std::vector<char> page(512);
  PageView view(page.data(), 512);
  view.Init(0);
  const std::vector<char> item(24, 7);
  // Not imaged yet and not fresh: an image.
  ASSERT_EQ(view.AddItem(item.data(), 24), 1);
  ASSERT_TRUE(wal.LogAppend(1, 0, page.data(), 512, 1, false).ok());
  ASSERT_EQ(view.AddItem(item.data(), 24), 2);
  ASSERT_TRUE(wal.LogAppend(1, 0, page.data(), 512, 2, false).ok());
  EXPECT_EQ(RecordKinds(&wal, wal_path),
            (std::vector<std::string>{"image", "item"}));
  ASSERT_TRUE(wal.LogCheckpoint().ok());
  ASSERT_EQ(view.AddItem(item.data(), 24), 3);
  ASSERT_TRUE(wal.LogAppend(1, 0, page.data(), 512, 3, false).ok());
  ASSERT_EQ(view.AddItem(item.data(), 24), 4);
  ASSERT_TRUE(wal.LogAppend(1, 0, page.data(), 512, 4, false).ok());
  EXPECT_EQ(RecordKinds(&wal, wal_path),
            (std::vector<std::string>{"image", "item"}));
}

TEST(WalItemTest, DeadRowsOfOneStatementAreOneRecord) {
  const std::string wal_path = TestLog("log");
  const std::string data_dir = TestDir("data");
  auto smgr = std::make_unique<StorageManager>(
      StorageManager::Open(data_dir, 512).ValueOrDie());
  const RelId rel = *smgr->CreateRelation("r");
  {
    auto wal = std::move(WalManager::Open(wal_path)).ValueOrDie();
    ASSERT_TRUE(wal.LogDeadRows(rel, {4, 9, 1000}).ok());
    ASSERT_TRUE(wal.LogDeadRows(rel, {}).ok());  // logs nothing
    ASSERT_EQ(wal.next_lsn(), 2u);
  }
  std::vector<WalTombstone> dead;
  ASSERT_TRUE(
      WalManager::Recover(Vfs::Default(), wal_path, smgr.get(), &dead).ok());
  ASSERT_EQ(dead.size(), 3u);
  EXPECT_EQ(dead[0].position, 4u);
  EXPECT_EQ(dead[1].position, 9u);
  EXPECT_EQ(dead[2].position, 1000u);
  EXPECT_TRUE(dead[2].by_position);
}

// A heap insert whose WAL append fails takes its row back off the page
// and returns the error, on a page with room and on the insert that starts
// a new page. The heap stays dense, and recovery finds exactly the rows
// whose inserts succeeded.
TEST(WalItemTest, FailedLogLeavesTheRowOutOfTheHeap) {
  const std::string data_dir = TestDir("data");
  const std::string wal_path = data_dir + "/wal.log";
  FaultInjectionVfs vfs(Vfs::Default());
  RelId rel;
  int64_t rows = 0;
  {
    auto smgr = std::make_unique<StorageManager>(
        StorageManager::Open(data_dir, 512).ValueOrDie());
    auto wal = std::move(WalManager::Open(&vfs, wal_path)).ValueOrDie();
    BufferManager bufmgr(smgr.get(), 8);
    bufmgr.SetWal(&wal);
    auto table =
        std::move(HeapTable::Create(&bufmgr, smgr.get(), "t", 4)).ValueOrDie();
    rel = table.rel();
    const int64_t per_page = table.rows_per_page();
    const float vec[4] = {1.f, 2.f, 3.f, 4.f};
    for (; rows < 2 * per_page; ++rows) {
      if (rows == 3 || rows == per_page) {
        vfs.ArmAfterBytes(0);
        EXPECT_TRUE(table.Insert(-1, vec).status().IsIOError());
        vfs.Disarm();
        EXPECT_EQ(table.num_rows(), static_cast<size_t>(rows));
        table.CheckInvariants();
      }
      ASSERT_TRUE(table.Insert(rows, vec).ok());
    }
    table.CheckInvariants();
    ASSERT_EQ(*smgr->NumBlocks(rel), 2u);
    ASSERT_TRUE(wal.Flush().ok());
  }
  auto smgr = std::make_unique<StorageManager>(
      StorageManager::Open(data_dir, 512).ValueOrDie());
  ASSERT_TRUE(WalManager::Recover(wal_path, smgr.get()).ok());
  BufferManager bufmgr(smgr.get(), 8);
  auto table =
      std::move(HeapTable::Attach(&bufmgr, smgr.get(), "t", 4)).ValueOrDie();
  std::vector<int64_t> ids;
  ASSERT_TRUE(table
                  .SeqScan([&](TupleId, int64_t id, const float*) {
                    ids.push_back(id);
                    return true;
                  })
                  .ok());
  ASSERT_EQ(ids.size(), static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) EXPECT_EQ(ids[i], i);
}

// Heap rows across many pages through a small pool (so pages are evicted
// and re-read), a checkpoint halfway, then the pool dropped unflushed:
// REDO must rebuild every block byte for byte, from init records, item
// records and at most one image per page per checkpoint cycle.
TEST(WalItemTest, RecoveredHeapEqualsThePoolByteForByte) {
  const std::string data_dir = TestDir("data");
  const std::string wal_path = data_dir + "/wal.log";
  constexpr uint32_t kDim = 32;
  constexpr int kRows = 1200;
  RelId rel;
  std::vector<std::vector<char>> want;
  {
    auto smgr = std::make_unique<StorageManager>(
        StorageManager::Open(data_dir, 8192).ValueOrDie());
    auto wal = std::move(WalManager::Open(wal_path)).ValueOrDie();
    BufferManager bufmgr(smgr.get(), 4);
    bufmgr.SetWal(&wal);
    auto table = std::move(HeapTable::Create(&bufmgr, smgr.get(), "t", kDim,
                                             /*num_attrs=*/1))
                     .ValueOrDie();
    rel = table.rel();
    std::vector<float> vec(kDim);
    for (int i = 0; i < kRows; ++i) {
      for (uint32_t d = 0; d < kDim; ++d) vec[d] = static_cast<float>(i + d);
      const int64_t attr = i * 3;
      ASSERT_TRUE(table.Insert(i, vec.data(), &attr).ok());
      if (i == kRows / 2) {
        ASSERT_TRUE(bufmgr.FlushAll().ok());
        ASSERT_TRUE(smgr->SyncAll().ok());
        ASSERT_TRUE(wal.LogCheckpoint().ok());
      }
    }
    ASSERT_GT(*smgr->NumBlocks(rel), 20u);
    // After the checkpoint only the then-tail page needed an image.
    size_t images = 0;
    for (const std::string& kind : RecordKinds(&wal, wal_path)) {
      images += kind == "image";
    }
    EXPECT_EQ(images, 1u);
    for (BlockId b = 0; b < *smgr->NumBlocks(rel); ++b) {
      auto handle = std::move(bufmgr.Pin(rel, b)).ValueOrDie();
      want.emplace_back(handle.data, handle.data + 8192);
      bufmgr.Unpin(handle, false);
    }
  }
  auto smgr = std::make_unique<StorageManager>(
      StorageManager::Open(data_dir, 8192).ValueOrDie());
  ASSERT_TRUE(WalManager::Recover(wal_path, smgr.get()).ok());
  const auto got = ReadBlocks(smgr.get(), rel);
  ASSERT_EQ(got.size(), want.size());
  for (size_t b = 0; b < got.size(); ++b) {
    EXPECT_EQ(got[b], want[b]) << "block " << b;
  }
}

}  // namespace
}  // namespace vecdb::pgstub
