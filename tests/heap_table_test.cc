#include "pgstub/heap_table.h"

#include <gtest/gtest.h>

#include <filesystem>

#include <memory>
#include <vector>

#include "common/random.h"
#include "temp_path.h"

namespace vecdb::pgstub {
namespace {

class HeapTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name =
        std::string("heap_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = TempPath(name.c_str());
    std::filesystem::remove_all(dir_);
    smgr_ = std::make_unique<StorageManager>(
        StorageManager::Open(dir_, 8192).ValueOrDie());
    bufmgr_ = std::make_unique<BufferManager>(smgr_.get(), 64);
  }

  void TearDown() override {
    bufmgr_.reset();
    smgr_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<StorageManager> smgr_;
  std::unique_ptr<BufferManager> bufmgr_;
};

TEST_F(HeapTableTest, InsertAndReadBack) {
  auto table =
      HeapTable::Create(bufmgr_.get(), smgr_.get(), "t", 4).ValueOrDie();
  std::vector<float> vec = {1.f, 2.f, 3.f, 4.f};
  auto tid = table.Insert(42, vec.data()).ValueOrDie();
  EXPECT_TRUE(tid.valid());

  int64_t row_id = 0;
  std::vector<float> out(4);
  ASSERT_TRUE(table.Read(tid, &row_id, out.data()).ok());
  EXPECT_EQ(row_id, 42);
  EXPECT_EQ(out, vec);
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST_F(HeapTableTest, SpillsAcrossPages) {
  // 512-dim rows (~2KB each): a few rows per 8KB page.
  auto table =
      HeapTable::Create(bufmgr_.get(), smgr_.get(), "big", 512).ValueOrDie();
  Rng rng(1);
  std::vector<float> vec(512);
  std::vector<TupleId> tids;
  for (int i = 0; i < 40; ++i) {
    for (auto& v : vec) v = rng.UniformFloat();
    tids.push_back(table.Insert(i, vec.data()).ValueOrDie());
  }
  EXPECT_GT(*smgr_->NumBlocks(table.rel()), 5u);
  // Every row is readable with the right id.
  std::vector<float> out(512);
  for (int i = 0; i < 40; ++i) {
    int64_t row_id = -1;
    ASSERT_TRUE(table.Read(tids[i], &row_id, out.data()).ok());
    EXPECT_EQ(row_id, i);
  }
}

TEST_F(HeapTableTest, SeqScanVisitsAllRowsInOrder) {
  auto table =
      HeapTable::Create(bufmgr_.get(), smgr_.get(), "scan", 8).ValueOrDie();
  std::vector<float> vec(8, 0.f);
  for (int i = 0; i < 100; ++i) {
    vec[0] = static_cast<float>(i);
    ASSERT_TRUE(table.Insert(i, vec.data()).ok());
  }
  std::vector<int64_t> seen;
  ASSERT_TRUE(table
                  .SeqScan([&](TupleId, int64_t id, const float* v) {
                    EXPECT_FLOAT_EQ(v[0], static_cast<float>(id));
                    seen.push_back(id);
                    return true;
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[i], i);
}

TEST_F(HeapTableTest, SeqScanEarlyStop) {
  auto table =
      HeapTable::Create(bufmgr_.get(), smgr_.get(), "stop", 4).ValueOrDie();
  std::vector<float> vec(4, 0.f);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(table.Insert(i, vec.data()).ok());
  int visited = 0;
  ASSERT_TRUE(table
                  .SeqScan([&](TupleId, int64_t, const float*) {
                    return ++visited < 3;
                  })
                  .ok());
  EXPECT_EQ(visited, 3);
}

TEST_F(HeapTableTest, ReadInvalidTidFails) {
  auto table =
      HeapTable::Create(bufmgr_.get(), smgr_.get(), "bad", 4).ValueOrDie();
  std::vector<float> vec(4, 0.f);
  table.Insert(1, vec.data()).ValueOrDie();
  EXPECT_FALSE(table.Read(TupleId{}, nullptr, nullptr).ok());
  EXPECT_FALSE(table.Read(TupleId{0, 99}, nullptr, nullptr).ok());
}

TEST_F(HeapTableTest, RejectsOversizedTuple) {
  // dim 4096 => 16KB tuple > 8KB page.
  EXPECT_FALSE(
      HeapTable::Create(bufmgr_.get(), smgr_.get(), "huge", 4096).ok());
}

TEST_F(HeapTableTest, RejectsZeroDim) {
  EXPECT_FALSE(HeapTable::Create(bufmgr_.get(), smgr_.get(), "zero", 0).ok());
}

}  // namespace
}  // namespace vecdb::pgstub
