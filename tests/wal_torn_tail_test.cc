// Property test for WAL torn-tail handling: a crash can cut the log at ANY
// byte. For every possible cut point of a multi-record log, replay and
// recovery must never error, must deliver exactly the records whose frames
// are fully intact, and the reopened log must append cleanly after the
// surviving prefix without reusing LSNs. A log mixing page images, init
// records and item records must recover, at every cut, to exactly the
// pages its intact prefix describes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "pgstub/page.h"
#include "pgstub/smgr.h"
#include "pgstub/wal.h"

namespace vecdb::pgstub {
namespace {

std::string TestLog(const char* suffix) {
  std::string path = ::testing::TempDir() + "/wal_torn_" +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name() +
                     "_" + suffix + "_" + std::to_string(::getpid()) + ".wal";
  std::remove(path.c_str());
  std::remove((path + ".new").c_str());
  return path;
}

struct BuiltLog {
  std::vector<char> bytes;          ///< the intact log image
  std::vector<uint64_t> frame_end;  ///< end offset of record i's frame
};

std::vector<char> ReadAll(const std::string& path) {
  std::vector<char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

/// Writes a log of `n` distinct full-page records (page size `psize`) plus
/// a tombstone, recording each record's frame-end offset by observing the
/// file size after every append.
BuiltLog BuildLog(const std::string& path, int n, uint32_t psize) {
  BuiltLog out;
  auto wal = std::move(WalManager::Open(path)).ValueOrDie();
  std::vector<char> page(psize);
  for (int i = 0; i < n; ++i) {
    page.assign(psize, static_cast<char>(0x10 + i));
    EXPECT_TRUE(wal.LogFullPage(1, i, page.data(), psize).ok());
    out.frame_end.push_back(wal.size_bytes());
  }
  EXPECT_TRUE(wal.LogTombstone(1, 424242).ok());
  out.frame_end.push_back(wal.size_bytes());
  EXPECT_TRUE(wal.Flush().ok());

  out.bytes = ReadAll(path);
  return out;
}

void WriteTruncated(const std::string& path, const BuiltLog& log,
                    size_t cut) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(log.bytes.data(), 1, cut, f), cut);
  std::fclose(f);
}

/// Records with frame_end <= cut are fully intact; everything after is a
/// torn tail that must vanish silently.
size_t IntactPrefix(const BuiltLog& log, size_t cut) {
  size_t n = 0;
  while (n < log.frame_end.size() && log.frame_end[n] <= cut) ++n;
  return n;
}

TEST(WalTornTailTest, EveryTruncationOffsetReplaysTheIntactPrefix) {
  const std::string master = TestLog("master");
  // Small pages keep the log a few KB so every-offset stays fast.
  const BuiltLog log = BuildLog(master, 5, 64);
  const std::string path = TestLog("cut");

  for (size_t cut = 0; cut <= log.bytes.size(); ++cut) {
    WriteTruncated(path, log, cut);
    const size_t want = IntactPrefix(log, cut);
    std::vector<WalRecord> seen;
    Status s = WalManager::Replay(path, [&](const WalRecord& record) {
      seen.push_back(record);
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << "cut at " << cut << ": " << s.ToString();
    ASSERT_EQ(seen.size(), want) << "cut at " << cut;
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].lsn, i + 1) << "cut at " << cut;
      if (seen[i].type == WalRecordType::kFullPage) {
        EXPECT_EQ(seen[i].payload[0], static_cast<char>(0x10 + i));
      }
    }
  }
  std::remove(master.c_str());
  std::remove(path.c_str());
}

TEST(WalTornTailTest, EveryTruncationOffsetReopensAndAppends) {
  const std::string master = TestLog("master");
  const BuiltLog log = BuildLog(master, 5, 64);
  const std::string path = TestLog("cut");
  std::vector<char> page(64, 0x7F);

  for (size_t cut = 0; cut <= log.bytes.size(); ++cut) {
    WriteTruncated(path, log, cut);
    const size_t want = IntactPrefix(log, cut);
    auto opened = WalManager::Open(path);
    ASSERT_TRUE(opened.ok()) << "cut at " << cut;
    auto wal = std::move(*opened);
    // next_lsn is strictly greater than every surviving record's LSN.
    ASSERT_EQ(wal.next_lsn(), want + 1) << "cut at " << cut;
    // The torn tail was truncated on open; the next append lands on a
    // clean frame boundary and replays along with the prefix.
    ASSERT_TRUE(wal.LogFullPage(2, 0, page.data(), 64).ok());
    ASSERT_TRUE(wal.Flush().ok());
    size_t seen = 0;
    Lsn last_lsn = 0;
    ASSERT_TRUE(WalManager::Replay(path, [&](const WalRecord& record) {
                  ++seen;
                  last_lsn = record.lsn;
                  return Status::OK();
                }).ok());
    ASSERT_EQ(seen, want + 1) << "cut at " << cut;
    ASSERT_EQ(last_lsn, want + 1) << "cut at " << cut;
  }
  std::remove(master.c_str());
  std::remove(path.c_str());
}

TEST(WalTornTailTest, TruncationInsideFileHeaderIsAnEmptyLog) {
  // Cuts inside the 32-byte file header leave no valid header; Open must
  // treat that as a brand-new log and rewrite it, and Replay must deliver
  // nothing rather than erroring.
  const std::string master = TestLog("master");
  const BuiltLog log = BuildLog(master, 2, 64);
  const std::string path = TestLog("cut");
  std::vector<char> page(64, 0x3C);

  for (size_t cut = 0; cut < 32; ++cut) {
    WriteTruncated(path, log, cut);
    size_t seen = 0;
    ASSERT_TRUE(WalManager::Replay(path, [&](const WalRecord&) {
                  ++seen;
                  return Status::OK();
                }).ok());
    EXPECT_EQ(seen, 0u) << "cut at " << cut;
    auto opened = WalManager::Open(path);
    ASSERT_TRUE(opened.ok()) << "cut at " << cut;
    auto wal = std::move(*opened);
    EXPECT_EQ(wal.next_lsn(), 1u);
    ASSERT_TRUE(wal.LogFullPage(1, 0, page.data(), 64).ok());
    ASSERT_TRUE(wal.Flush().ok());
  }
  std::remove(master.c_str());
  std::remove(path.c_str());
}

/// A log over relation `rel` (512-byte pages) mixing every page record
/// kind: block 0 imaged, then appended to; block 1 fresh (an init record
/// carrying 8 bytes of special space), then appended to; interleaved.
/// `pages[i]` is every block's bytes after record i.
struct MixedLog : BuiltLog {
  std::vector<std::vector<std::vector<char>>> pages;
};

constexpr uint32_t kMixedPage = 512;

MixedLog BuildMixedLog(const std::string& path, RelId rel) {
  MixedLog out;
  auto wal = std::move(WalManager::Open(path)).ValueOrDie();
  std::vector<std::vector<char>> pages(1, std::vector<char>(kMixedPage));
  auto add = [&](BlockId block, char fill) {
    PageView view(pages[block].data(), kMixedPage);
    const std::vector<char> item(16, fill);
    const OffsetNumber slot = view.AddItem(item.data(), 16);
    EXPECT_NE(slot, kInvalidOffset);
    return slot;
  };
  auto append = [&](BlockId block, char fill, bool fresh) {
    const OffsetNumber slot = add(block, fill);
    EXPECT_TRUE(wal.LogAppend(rel, block, pages[block].data(), kMixedPage,
                              slot, fresh)
                    .ok());
    out.frame_end.push_back(wal.size_bytes());
    out.pages.push_back(pages);
  };
  PageView(pages[0].data(), kMixedPage).Init(0);
  add(0, 1);
  EXPECT_TRUE(wal.LogFullPage(rel, 0, pages[0].data(), kMixedPage).ok());
  out.frame_end.push_back(wal.size_bytes());
  out.pages.push_back(pages);
  append(0, 2, false);
  pages.emplace_back(kMixedPage);
  PageView fresh(pages[1].data(), kMixedPage);
  fresh.Init(8);
  std::memset(fresh.Special(), 0x5A, 8);
  append(1, 3, true);
  append(0, 4, false);
  append(1, 5, false);
  append(1, 6, false);
  EXPECT_TRUE(wal.Flush().ok());
  out.bytes = ReadAll(path);
  return out;
}

TEST(WalTornTailTest, EveryTruncationOffsetRecoversAMixedLog) {
  const std::string master = TestLog("master");
  const std::string dir = master + ".data";
  const std::string path = TestLog("cut");
  std::filesystem::remove_all(dir);
  RelId rel;
  {
    auto smgr = std::move(StorageManager::Open(dir, kMixedPage)).ValueOrDie();
    rel = *smgr.CreateRelation("r");
  }
  const MixedLog log = BuildMixedLog(master, rel);
  ASSERT_EQ(log.frame_end.size(), 6u);

  std::vector<char> block(kMixedPage);
  for (size_t cut = 0; cut <= log.bytes.size(); ++cut) {
    WriteTruncated(path, log, cut);
    const size_t intact = IntactPrefix(log, cut);
    std::filesystem::remove_all(dir);
    auto smgr = std::move(StorageManager::Open(dir, kMixedPage)).ValueOrDie();
    ASSERT_EQ(*smgr.CreateRelation("r"), rel);
    Status s = WalManager::Recover(path, &smgr);
    ASSERT_TRUE(s.ok()) << "cut at " << cut << ": " << s.ToString();
    const std::vector<std::vector<char>> want =
        intact == 0 ? std::vector<std::vector<char>>{}
                    : log.pages[intact - 1];
    ASSERT_EQ(*smgr.NumBlocks(rel), want.size()) << "cut at " << cut;
    for (BlockId b = 0; b < want.size(); ++b) {
      ASSERT_TRUE(smgr.ReadBlock(rel, b, block.data()).ok());
      EXPECT_EQ(block, want[b]) << "cut at " << cut << ", block " << b;
    }
  }
  std::filesystem::remove_all(dir);
  std::remove(master.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vecdb::pgstub
