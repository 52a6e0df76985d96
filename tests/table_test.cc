#include "storage/table.h"

#include <gtest/gtest.h>

namespace screp {
namespace {

Schema KvSchema() {
  return Schema({{"id", ValueType::kInt64}, {"val", ValueType::kInt64}});
}

TEST(TableTest, GetMissingKeyIsNotFound) {
  Table t(0, "t", KvSchema());
  EXPECT_TRUE(t.Get(1, 0).status().IsNotFound());
  EXPECT_FALSE(t.Exists(1, 0));
}

TEST(TableTest, InstallAndGet) {
  Table t(0, "t", KvSchema());
  t.Install(1, 1, false, {Value(1), Value(10)});
  Result<Row> row = t.Get(1, 1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsInt(), 10);
}

TEST(TableTest, SnapshotVisibility) {
  Table t(0, "t", KvSchema());
  t.Install(1, 5, false, {Value(1), Value(10)});
  // Before version 5 the row does not exist.
  EXPECT_TRUE(t.Get(1, 4).status().IsNotFound());
  EXPECT_TRUE(t.Get(1, 5).ok());
  EXPECT_TRUE(t.Get(1, 100).ok());
}

TEST(TableTest, VersionChainsReturnNewestVisible) {
  Table t(0, "t", KvSchema());
  t.Install(1, 1, false, {Value(1), Value(10)});
  t.Install(1, 3, false, {Value(1), Value(30)});
  t.Install(1, 7, false, {Value(1), Value(70)});
  EXPECT_EQ((*t.Get(1, 1))[1].AsInt(), 10);
  EXPECT_EQ((*t.Get(1, 2))[1].AsInt(), 10);
  EXPECT_EQ((*t.Get(1, 3))[1].AsInt(), 30);
  EXPECT_EQ((*t.Get(1, 6))[1].AsInt(), 30);
  EXPECT_EQ((*t.Get(1, 7))[1].AsInt(), 70);
}

TEST(TableTest, DeleteTombstones) {
  Table t(0, "t", KvSchema());
  t.Install(1, 1, false, {Value(1), Value(10)});
  t.Install(1, 2, true, {});
  EXPECT_TRUE(t.Get(1, 1).ok());
  EXPECT_TRUE(t.Get(1, 2).status().IsNotFound());
  EXPECT_FALSE(t.Exists(1, 2));
  // Re-insert after delete.
  t.Install(1, 3, false, {Value(1), Value(99)});
  EXPECT_EQ((*t.Get(1, 3))[1].AsInt(), 99);
}

TEST(TableTest, SameVersionOverwriteWins) {
  Table t(0, "t", KvSchema());
  t.Install(1, 1, false, {Value(1), Value(10)});
  t.Install(1, 1, false, {Value(1), Value(11)});
  EXPECT_EQ((*t.Get(1, 1))[1].AsInt(), 11);
  EXPECT_EQ(t.VersionCount(), 1u);
}

TEST(TableDeathTest, OutOfOrderInstallAborts) {
  Table t(0, "t", KvSchema());
  t.Install(1, 5, false, {Value(1), Value(10)});
  EXPECT_DEATH(t.Install(1, 4, false, {Value(1), Value(9)}),
               "out-of-order");
}

TEST(TableTest, ScanInKeyOrderAtSnapshot) {
  Table t(0, "t", KvSchema());
  t.Install(3, 1, false, {Value(3), Value(30)});
  t.Install(1, 1, false, {Value(1), Value(10)});
  t.Install(2, 2, false, {Value(2), Value(20)});
  std::vector<int64_t> keys;
  t.Scan(1, [&](int64_t key, const Row&) {
    keys.push_back(key);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 3}));  // key 2 not visible at v1
  keys.clear();
  t.Scan(2, [&](int64_t key, const Row&) {
    keys.push_back(key);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2, 3}));
}

TEST(TableTest, ScanEarlyStop) {
  Table t(0, "t", KvSchema());
  for (int64_t k = 0; k < 10; ++k) {
    t.Install(k, 1, false, {Value(k), Value(k)});
  }
  int visited = 0;
  t.Scan(1, [&](int64_t, const Row&) { return ++visited < 3; });
  EXPECT_EQ(visited, 3);
}

TEST(TableTest, ScanRangeBounds) {
  Table t(0, "t", KvSchema());
  for (int64_t k = 0; k < 10; ++k) {
    t.Install(k, 1, false, {Value(k), Value(k)});
  }
  std::vector<int64_t> keys;
  t.ScanRange(3, 6, 1, [&](int64_t key, const Row&) {
    keys.push_back(key);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{3, 4, 5, 6}));
}

TEST(TableTest, ScanSkipsDeleted) {
  Table t(0, "t", KvSchema());
  t.Install(1, 1, false, {Value(1), Value(10)});
  t.Install(2, 1, false, {Value(2), Value(20)});
  t.Install(1, 2, true, {});
  std::vector<int64_t> keys;
  t.Scan(2, [&](int64_t key, const Row&) {
    keys.push_back(key);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{2}));
}

TEST(TableTest, LiveRowCount) {
  Table t(0, "t", KvSchema());
  t.Install(1, 1, false, {Value(1), Value(1)});
  t.Install(2, 2, false, {Value(2), Value(2)});
  t.Install(1, 3, true, {});
  EXPECT_EQ(t.LiveRowCount(1), 1u);
  EXPECT_EQ(t.LiveRowCount(2), 2u);
  EXPECT_EQ(t.LiveRowCount(3), 1u);
}

TEST(TableTest, TruncateVersionsKeepsNewestVisible) {
  Table t(0, "t", KvSchema());
  EXPECT_FALSE(t.Install(1, 1, false, {Value(1), Value(10)}).has_value());
  std::optional<Table::ChainRef> chain;
  for (DbVersion v = 2; v <= 5; ++v) {
    chain = t.Install(1, v, false, {Value(1), Value(v * 10)});
    ASSERT_TRUE(chain.has_value());  // each install supersedes v - 1
  }
  EXPECT_EQ(t.VersionCount(), 5u);
  // The supersession at version 2 pruned at horizon 3.
  const size_t discarded = t.PruneChain(*chain, 2, 3);
  EXPECT_EQ(discarded, 2u);  // versions 1,2 unreachable
  EXPECT_EQ(t.VersionCount(), 3u);
  // Snapshot 3 still reads value 30; snapshot 5 reads 50.
  EXPECT_EQ((*t.Get(1, 3))[1].AsInt(), 30);
  EXPECT_EQ((*t.Get(1, 5))[1].AsInt(), 50);
}

TEST(TableTest, TruncateRemovesOldTombstonedKeys) {
  Table t(0, "t", KvSchema());
  t.Install(1, 1, false, {Value(1), Value(1)});
  const auto chain = t.Install(1, 2, true, {});
  ASSERT_TRUE(chain.has_value());
  t.PruneChain(*chain, 2, 10);
  EXPECT_EQ(t.KeyCount(), 0u);
  EXPECT_EQ(t.VersionCount(), 0u);
}

}  // namespace
}  // namespace screp
