#include "pgstub/smgr.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>

#include <cstring>
#include <vector>

#include "pgstub/vfs.h"
#include "temp_path.h"

namespace vecdb::pgstub {
namespace {

class SmgrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/smgr_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    auto smgr = StorageManager::Open(dir_, 4096);
    ASSERT_TRUE(smgr.ok()) << smgr.status().ToString();
    smgr_ = std::make_unique<StorageManager>(std::move(*smgr));
  }
  std::string dir_;
  std::unique_ptr<StorageManager> smgr_;
};

TEST_F(SmgrTest, RejectsBadPageSize) {
  EXPECT_FALSE(StorageManager::Open("/tmp/x", 100).ok());   // < 512
  EXPECT_FALSE(StorageManager::Open("/tmp/x", 5000).ok());  // not pow2
}

TEST_F(SmgrTest, CreateFindDrop) {
  auto rel = smgr_->CreateRelation("t1");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(*smgr_->FindRelation("t1"), *rel);
  EXPECT_TRUE(smgr_->FindRelation("nope").status().IsNotFound());
  EXPECT_TRUE(smgr_->CreateRelation("t1").status().IsAlreadyExists());
  EXPECT_TRUE(smgr_->DropRelation(*rel).ok());
  EXPECT_TRUE(smgr_->FindRelation("t1").status().IsNotFound());
  // The name becomes available again after a drop.
  EXPECT_TRUE(smgr_->CreateRelation("t1").ok());
}

TEST_F(SmgrTest, RejectsBadRelationNames) {
  EXPECT_FALSE(smgr_->CreateRelation("").ok());
  EXPECT_FALSE(smgr_->CreateRelation("a/b").ok());
}

TEST_F(SmgrTest, ExtendReadWriteRoundTrip) {
  auto rel = smgr_->CreateRelation("rw").ValueOrDie();
  EXPECT_EQ(*smgr_->NumBlocks(rel), 0u);
  auto b0 = smgr_->ExtendRelation(rel).ValueOrDie();
  auto b1 = smgr_->ExtendRelation(rel).ValueOrDie();
  EXPECT_EQ(b0, 0u);
  EXPECT_EQ(b1, 1u);
  EXPECT_EQ(*smgr_->NumBlocks(rel), 2u);

  std::vector<char> out(4096, 0x5A);
  ASSERT_TRUE(smgr_->WriteBlock(rel, 1, out.data()).ok());
  std::vector<char> in(4096);
  ASSERT_TRUE(smgr_->ReadBlock(rel, 1, in.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), in.data(), 4096), 0);

  // Fresh blocks read back zeroed.
  ASSERT_TRUE(smgr_->ReadBlock(rel, 0, in.data()).ok());
  for (char c : in) EXPECT_EQ(c, 0);
}

TEST_F(SmgrTest, OutOfRangeBlockRejected) {
  auto rel = smgr_->CreateRelation("small").ValueOrDie();
  smgr_->ExtendRelation(rel).ValueOrDie();
  std::vector<char> buf(4096);
  EXPECT_TRUE(smgr_->ReadBlock(rel, 5, buf.data()).IsOutOfRange());
  EXPECT_TRUE(smgr_->WriteBlock(rel, 5, buf.data()).IsOutOfRange());
}

TEST_F(SmgrTest, InvalidRelIdRejected) {
  std::vector<char> buf(4096);
  EXPECT_TRUE(smgr_->ReadBlock(999, 0, buf.data()).IsNotFound());
  EXPECT_TRUE(smgr_->NumBlocks(999).status().IsNotFound());
  EXPECT_TRUE(smgr_->DropRelation(999).IsNotFound());
}

TEST_F(SmgrTest, MultipleRelationsAreIndependent) {
  auto a = smgr_->CreateRelation("a").ValueOrDie();
  auto b = smgr_->CreateRelation("b").ValueOrDie();
  smgr_->ExtendRelation(a).ValueOrDie();
  std::vector<char> out(4096, 0x11);
  ASSERT_TRUE(smgr_->WriteBlock(a, 0, out.data()).ok());
  EXPECT_EQ(*smgr_->NumBlocks(b), 0u);
  smgr_->ExtendRelation(b).ValueOrDie();
  std::vector<char> in(4096);
  ASSERT_TRUE(smgr_->ReadBlock(b, 0, in.data()).ok());
  for (char c : in) EXPECT_EQ(c, 0);
}

// The stdio file skips the seek when a write continues the previous one,
// so appends wait in its buffer. Random interleavings of mostly appending
// writes with reads, size probes, truncates, flushes and writes elsewhere
// (past the end too) must read back exactly what a byte model holds,
// through the handle after every step and through a second reader after
// every Sync.
TEST(StdioVfsTest, InterleavedOperationsReadBackTheModel) {
  const std::string path = TempPath("stdio_vfs_interleaved");
  std::filesystem::remove(path);
  Vfs* vfs = Vfs::Default();
  auto opened = vfs->Open(path, /*create=*/true);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<VfsFile> file = std::move(*opened);
  std::string model;
  uint64_t append_at = 0;
  std::mt19937_64 rng(30);
  auto pick = [&](uint64_t n) { return rng() % n; };
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = pick(20);
    if (op < 10) {  // continue the last write, like a log append
      std::string bytes(1 + pick(300), '\0');
      for (char& c : bytes) c = static_cast<char>('a' + pick(26));
      ASSERT_TRUE(file->WriteAt(append_at, bytes.data(), bytes.size()).ok());
      if (model.size() < append_at + bytes.size()) {
        model.resize(append_at + bytes.size(), '\0');
      }
      model.replace(append_at, bytes.size(), bytes);
      append_at += bytes.size();
    } else if (op < 12) {  // a write anywhere, past the end included
      const uint64_t at = pick(model.size() + 64);
      std::string bytes(1 + pick(100), static_cast<char>('A' + pick(26)));
      ASSERT_TRUE(file->WriteAt(at, bytes.data(), bytes.size()).ok());
      if (model.size() < at + bytes.size()) {
        model.resize(at + bytes.size(), '\0');
      }
      model.replace(at, bytes.size(), bytes);
      append_at = at + bytes.size();
    } else if (op < 16) {  // read a range back
      const uint64_t at = pick(model.size() + 16);
      std::string got(pick(200), '?');
      auto n = file->ReadAt(at, got.data(), got.size());
      ASSERT_TRUE(n.ok());
      const std::string want =
          at < model.size() ? model.substr(at, got.size()) : std::string();
      ASSERT_EQ(got.substr(0, *n), want) << "step " << step;
    } else if (op < 17) {
      auto size = file->Size();
      ASSERT_TRUE(size.ok());
      ASSERT_EQ(*size, model.size()) << "step " << step;
    } else if (op < 18) {
      const uint64_t to = pick(model.size() + 32);
      ASSERT_TRUE(file->Truncate(to).ok());
      model.resize(to, '\0');
      append_at = std::min<uint64_t>(append_at, to);
    } else {
      ASSERT_TRUE(file->Sync().ok());
      std::ifstream in(path, std::ios::binary);
      const std::string on_disk((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
      ASSERT_EQ(on_disk, model) << "step " << step;
    }
  }
  ASSERT_TRUE(file->Sync().ok());
  file.reset();
  std::ifstream in(path, std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, model);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace vecdb::pgstub
