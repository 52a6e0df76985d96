// Multi-threaded stress tests for the storage engine: the simulator drives
// it single-threaded, but the engine itself is thread-safe and these tests
// exercise that contract (readers at fixed snapshots racing a committing
// writer must always observe consistent states).

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/database.h"
#include "storage/transaction.h"

namespace screp {
namespace {

TEST(StorageConcurrencyTest, ReadersNeverSeePartialCommits) {
  Database db;
  auto table = db.CreateTable(
      "t", Schema({{"id", ValueType::kInt64}, {"val", ValueType::kInt64}}));
  ASSERT_TRUE(table.ok());
  constexpr int kRows = 16;
  for (int64_t k = 0; k < kRows; ++k) {
    ASSERT_TRUE(db.BulkLoad(*table, {Value(k), Value(int64_t{0})}).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  // Writer: each commit sets ALL rows to the same new value v; a reader at
  // any snapshot must therefore see all rows equal.
  std::thread writer([&] {
    for (DbVersion v = 1; v <= 300; ++v) {
      WriteSet ws;
      ws.commit_version = v;
      for (int64_t k = 0; k < kRows; ++k) {
        ws.Add(*table, k, WriteType::kUpdate, Row{Value(k), Value(v)});
      }
      ASSERT_TRUE(db.ApplyWriteSet(ws).ok());
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto txn = db.Begin();
        int64_t first = -1;
        bool consistent = true;
        for (int64_t k = 0; k < kRows; ++k) {
          auto row = txn->Get(*table, k);
          if (!row.ok()) {
            consistent = false;
            break;
          }
          const int64_t v = (*row)[1].AsInt();
          if (first < 0) {
            first = v;
          } else if (v != first) {
            consistent = false;
            break;
          }
        }
        if (!consistent) violations.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(db.CommittedVersion(), 300);
}

TEST(StorageConcurrencyTest, ConcurrentScansDuringWrites) {
  Database db;
  auto table = db.CreateTable(
      "t", Schema({{"id", ValueType::kInt64}, {"val", ValueType::kInt64}}));
  ASSERT_TRUE(table.ok());
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(db.BulkLoad(*table, {Value(k), Value(k)}).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Each commit inserts one new row.
    for (DbVersion v = 1; v <= 200; ++v) {
      WriteSet ws;
      ws.commit_version = v;
      ws.Add(*table, 1000 + v, WriteType::kInsert,
             Row{Value(1000 + v), Value(v)});
      ASSERT_TRUE(db.ApplyWriteSet(ws).ok());
    }
    stop.store(true);
  });
  std::atomic<int> bad_counts{0};
  std::vector<std::thread> scanners;
  for (int r = 0; r < 3; ++r) {
    scanners.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto txn = db.Begin();
        const DbVersion snapshot = txn->snapshot();
        size_t count = 0;
        txn->Scan(*table, [&](int64_t, const Row&) {
          ++count;
          return true;
        });
        // At snapshot v there are exactly 100 + v live rows... but rows
        // may have been committed after our snapshot was taken; the scan
        // must still return exactly the snapshot's count.
        if (count != 100 + static_cast<size_t>(snapshot)) {
          bad_counts.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : scanners) t.join();
  EXPECT_EQ(bad_counts.load(), 0);
}

TEST(StorageConcurrencyTest, TruncateClampsToLiveSnapshots) {
  Database db;
  auto table = db.CreateTable(
      "t", Schema({{"id", ValueType::kInt64}, {"val", ValueType::kInt64}}));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(db.BulkLoad(*table, {Value(0), Value(int64_t{0})}).ok());
  auto apply = [&](DbVersion v) {
    WriteSet ws;
    ws.commit_version = v;
    ws.Add(*table, 0, WriteType::kUpdate, Row{Value(0), Value(v)});
    ASSERT_TRUE(db.ApplyWriteSet(ws).ok());
  };
  for (DbVersion v = 1; v <= 5; ++v) apply(v);
  // Idle applies prune everything they supersede.
  EXPECT_EQ(db.table(*table)->VersionCount(), 1u);
  EXPECT_EQ(db.PruneQueueDepth(), 0u);
  auto old_txn = db.Begin();  // pins snapshot 5
  for (DbVersion v = 6; v <= 20; ++v) apply(v);
  // The pruning horizon is clamped to the live snapshot.
  auto row = old_txn->Get(*table, 0);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsInt(), 5);
  const size_t kept = db.table(*table)->VersionCount();
  EXPECT_EQ(kept, 16u);  // versions 5..20
  EXPECT_EQ(db.PruneQueueDepth(), 15u);
  old_txn.reset();
  // With the old reader gone the next apply prunes up to itself.
  apply(21);
  EXPECT_LT(db.table(*table)->VersionCount(), kept);
  EXPECT_EQ(db.table(*table)->VersionCount(), 1u);
  EXPECT_EQ(db.PruneQueueDepth(), 0u);
  auto txn = db.Begin();
  row = txn->Get(*table, 0);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsInt(), 21);
}

TEST(StorageConcurrencyTest, GcRacesReadersSafely) {
  Database db;
  auto table = db.CreateTable(
      "t", Schema({{"id", ValueType::kInt64}, {"val", ValueType::kInt64}}));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(db.BulkLoad(*table, {Value(0), Value(int64_t{0})}).ok());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (DbVersion v = 1; v <= 500; ++v) {
      WriteSet ws;
      ws.commit_version = v;
      ws.Add(*table, 0, WriteType::kUpdate, Row{Value(0), Value(v)});
      ASSERT_TRUE(db.ApplyWriteSet(ws).ok());  // prunes as it goes
    }
    stop.store(true);
  });
  std::atomic<int> errors{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto txn = db.Begin();  // snapshot is always >= the prune horizon
      auto row = txn->Get(*table, 0);
      if (!row.ok()) errors.fetch_add(1);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(errors.load(), 0);
  // While readers are live pruning clamps to their snapshots, so the
  // chain may lag; with all readers gone one more apply bounds it.
  WriteSet ws;
  ws.commit_version = 501;
  ws.Add(*table, 0, WriteType::kUpdate, Row{Value(0), Value(501)});
  ASSERT_TRUE(db.ApplyWriteSet(ws).ok());
  EXPECT_LT(db.table(*table)->VersionCount(), 100u);
  EXPECT_EQ(db.PruneQueueDepth(), 0u);
}

}  // namespace
}  // namespace screp
