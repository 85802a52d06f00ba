#include "txn/txn_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/versioned_store.h"

namespace lazysi {
namespace txn {
namespace {

class TxnManagerTest : public ::testing::Test {
 protected:
  storage::VersionedStore store_;
  TxnManager manager_{&store_};
};

TEST_F(TxnManagerTest, TimestampsMonotonic) {
  auto t1 = manager_.Begin();
  auto t2 = manager_.Begin();
  EXPECT_LT(t1->start_ts(), t2->start_ts());
  ASSERT_TRUE(t1->Put("a", "1").ok());
  ASSERT_TRUE(t1->Commit().ok());
  // Commit timestamp exceeds every previously issued timestamp (Sec. 2.1).
  EXPECT_GT(t1->commit_ts(), t2->start_ts());
  EXPECT_GT(t1->commit_ts(), t1->start_ts());
}

TEST_F(TxnManagerTest, StrongSIStartSeesLatestCommit) {
  auto t1 = manager_.Begin();
  ASSERT_TRUE(t1->Put("a", "1").ok());
  ASSERT_TRUE(t1->Commit().ok());
  // Strong SI (Definition 2.1): a transaction beginning after t1's commit
  // must see t1's update — its snapshot covers t1's commit timestamp. The
  // read-only begin is lock-free and consumes no clock tick, so its
  // start_ts equals its snapshot rather than a fresh clock value.
  auto t2 = manager_.Begin(/*read_only=*/true);
  EXPECT_GE(t2->snapshot_ts(), t1->commit_ts());
  EXPECT_EQ(t2->start_ts(), t2->snapshot_ts());
  EXPECT_EQ(t2->Get("a").value(), "1");
  // Update transactions still draw start timestamps from the clock, above
  // every issued commit timestamp.
  auto t3 = manager_.Begin();
  EXPECT_GT(t3->start_ts(), t1->commit_ts());
}

TEST_F(TxnManagerTest, SnapshotIgnoresLaterCommits) {
  auto writer0 = manager_.Begin();
  ASSERT_TRUE(writer0->Put("a", "0").ok());
  ASSERT_TRUE(writer0->Commit().ok());

  auto reader = manager_.Begin(/*read_only=*/true);
  auto writer = manager_.Begin();
  ASSERT_TRUE(writer->Put("a", "1").ok());
  ASSERT_TRUE(writer->Commit().ok());
  // Reader's snapshot predates writer's commit.
  EXPECT_EQ(reader->Get("a").value(), "0");
  // A new reader sees the new value.
  EXPECT_EQ(manager_.Begin(true)->Get("a").value(), "1");
}

TEST_F(TxnManagerTest, FirstCommitterWins) {
  auto base = manager_.Begin();
  ASSERT_TRUE(base->Put("x", "0").ok());
  ASSERT_TRUE(base->Commit().ok());

  auto t1 = manager_.Begin();
  auto t2 = manager_.Begin();
  ASSERT_TRUE(t1->Put("x", "1").ok());
  ASSERT_TRUE(t2->Put("x", "2").ok());
  ASSERT_TRUE(t1->Commit().ok());
  Status s = t2->Commit();
  EXPECT_TRUE(s.IsWriteConflict()) << s;
  EXPECT_EQ(t2->state(), Transaction::State::kAborted);
  EXPECT_EQ(manager_.Begin(true)->Get("x").value(), "1");
}

TEST_F(TxnManagerTest, DisjointWritesBothCommit) {
  // Concurrent transactions without write-write conflict both commit under
  // SI (Section 2.4, the T1/T2 example from the introduction).
  auto t1 = manager_.Begin();
  auto t2 = manager_.Begin();
  ASSERT_TRUE(t1->Put("x", "1").ok());
  ASSERT_TRUE(t2->Put("y", "2").ok());
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Commit().ok());
}

TEST_F(TxnManagerTest, WriteSkewAllowed) {
  // P5 is possible under SI: T1 reads x,y writes y; T2 reads x,y writes x.
  auto init = manager_.Begin();
  ASSERT_TRUE(init->Put("x", "1").ok());
  ASSERT_TRUE(init->Put("y", "1").ok());
  ASSERT_TRUE(init->Commit().ok());

  auto t1 = manager_.Begin();
  auto t2 = manager_.Begin();
  EXPECT_TRUE(t1->Get("x").ok());
  EXPECT_TRUE(t1->Get("y").ok());
  EXPECT_TRUE(t2->Get("x").ok());
  EXPECT_TRUE(t2->Get("y").ok());
  ASSERT_TRUE(t1->Put("y", "t1").ok());
  ASSERT_TRUE(t2->Put("x", "t2").ok());
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Commit().ok());  // no write-write conflict -> both commit
}

TEST_F(TxnManagerTest, SequentialWritersNoConflict) {
  auto t1 = manager_.Begin();
  ASSERT_TRUE(t1->Put("x", "1").ok());
  ASSERT_TRUE(t1->Commit().ok());
  auto t2 = manager_.Begin();
  ASSERT_TRUE(t2->Put("x", "2").ok());
  EXPECT_TRUE(t2->Commit().ok());  // t2 started after t1 committed
}

TEST_F(TxnManagerTest, AbortDiscardsWrites) {
  auto t = manager_.Begin();
  ASSERT_TRUE(t->Put("a", "1").ok());
  t->Abort();
  EXPECT_EQ(t->state(), Transaction::State::kAborted);
  EXPECT_TRUE(manager_.Begin(true)->Get("a").status().IsNotFound());
  EXPECT_EQ(manager_.AbortedCount(), 1u);
}

TEST_F(TxnManagerTest, ReadOnlyCommitAlwaysSucceeds) {
  auto t = manager_.Begin(/*read_only=*/true);
  EXPECT_TRUE(t->Get("missing").status().IsNotFound());
  EXPECT_TRUE(t->Commit().ok());
  EXPECT_EQ(t->commit_ts(), kInvalidTimestamp);  // installs no state
}

TEST_F(TxnManagerTest, EmptyUpdateTxnGetsCommitTs) {
  // Update-declared transactions emit commit records even when empty, so
  // their refresh transactions resolve at the secondaries.
  auto t = manager_.Begin(/*read_only=*/false);
  EXPECT_TRUE(t->Commit().ok());
  EXPECT_NE(t->commit_ts(), kInvalidTimestamp);
}

TEST_F(TxnManagerTest, CountersTrackOutcomes) {
  for (int i = 0; i < 3; ++i) {
    auto t = manager_.Begin();
    ASSERT_TRUE(t->Put("k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  auto t1 = manager_.Begin();
  auto t2 = manager_.Begin();
  ASSERT_TRUE(t1->Put("c", "1").ok());
  ASSERT_TRUE(t2->Put("c", "2").ok());
  ASSERT_TRUE(t1->Commit().ok());
  ASSERT_FALSE(t2->Commit().ok());
  EXPECT_EQ(manager_.CommittedCount(), 4u);
  EXPECT_EQ(manager_.AbortedCount(), 1u);
  EXPECT_EQ(manager_.LatestCommitTs(), t1->commit_ts());
}

TEST_F(TxnManagerTest, ReaderSlotBanksGrowBeyondOneBank) {
  // More concurrent read-only transactions than one 256-slot bank holds:
  // begins must stay on the lock-free slot path by growing the bank chain
  // instead of falling back to the mutex-guarded multiset.
  ASSERT_TRUE([&] {
    auto t = manager_.Begin();
    return t->Put("a", "1").ok() && t->Commit().ok();
  }());
  EXPECT_EQ(manager_.slot_bank_count(), 1u);

  constexpr std::size_t kReaders = 600;  // needs at least three banks
  std::vector<std::unique_ptr<Transaction>> readers;
  readers.reserve(kReaders);
  for (std::size_t i = 0; i < kReaders; ++i) {
    readers.push_back(manager_.Begin(/*read_only=*/true));
  }
  EXPECT_GE(manager_.slot_bank_count(), 3u);

  // Every held snapshot — including those parked in grown banks — pins the
  // GC horizon; a commit after the begins must not raise it.
  const Timestamp snapshot = readers.front()->snapshot_ts();
  for (const auto& r : readers) EXPECT_EQ(r->snapshot_ts(), snapshot);
  {
    auto t = manager_.Begin();
    ASSERT_TRUE(t->Put("a", "2").ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  EXPECT_EQ(manager_.MinActiveSnapshot(), snapshot);
  // Readers in late banks still read their snapshot, not the new commit.
  auto v = readers.back()->Get("a");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");

  for (auto& r : readers) ASSERT_TRUE(r->Commit().ok());
  readers.clear();
  EXPECT_GT(manager_.MinActiveSnapshot(), snapshot);

  // Banks are never unlinked; a second wave reuses the freed slots without
  // growing the chain further.
  const std::size_t banks = manager_.slot_bank_count();
  for (std::size_t i = 0; i < kReaders; ++i) {
    readers.push_back(manager_.Begin(/*read_only=*/true));
  }
  EXPECT_EQ(manager_.slot_bank_count(), banks);
  for (auto& r : readers) ASSERT_TRUE(r->Commit().ok());
}

TEST_F(TxnManagerTest, ConcurrentReadersAcrossBankGrowth) {
  // Hammer the claim/grow/release path from several threads while a writer
  // keeps committing: no reader may ever observe a torn snapshot (a value
  // newer than its validated snapshot), and the chain must end up with more
  // than one bank. TSan target for the bank-link publication protocol.
  ASSERT_TRUE([&] {
    auto t = manager_.Begin();
    return t->Put("k", "0").ok() && t->Commit().ok();
  }());
  std::atomic<bool> stop{false};
  std::atomic<int> claimed{0};
  std::thread writer([&] {
    for (int i = 1; !stop.load(std::memory_order_acquire);) {
      // Paced to the readers: every Get walks the versions newer than its
      // snapshot, so an unpaced writer grows the chain faster than starved
      // readers can walk it, and the test stalls on a loaded host.
      if (i > 8 * (claimed.load(std::memory_order_acquire) + 1)) {
        std::this_thread::yield();
        continue;
      }
      auto t = manager_.Begin();
      ASSERT_TRUE(t->Put("k", std::to_string(i++)).ok());
      ASSERT_TRUE(t->Commit().ok());
    }
  });
  constexpr int kReaderThreads = 4;
  constexpr int kIterations = 50;
  constexpr int kClump = 80;  // 4 x 80 held at once > one 256-slot bank
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaderThreads; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        // Hold a clump of concurrent snapshots, then rendezvous so all
        // threads' clumps are live at once — the claim count must cross a
        // bank boundary every iteration, even on a single core.
        std::vector<std::unique_ptr<Transaction>> held;
        for (int j = 0; j < kClump; ++j) {
          held.push_back(manager_.Begin(/*read_only=*/true));
        }
        claimed.fetch_add(1, std::memory_order_acq_rel);
        while (claimed.load(std::memory_order_acquire) <
               kReaderThreads * (i + 1)) {
          std::this_thread::yield();
        }
        for (auto& t : held) {
          auto v = t->Get("k");
          ASSERT_TRUE(v.ok());
          // The snapshot-read contract: the version seen was committed at or
          // before the transaction's snapshot.
          EXPECT_LE(t->reads().back().version_commit_ts, t->snapshot_ts());
          ASSERT_TRUE(t->Commit().ok());
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_GE(manager_.slot_bank_count(), 2u);
}

TEST_F(TxnManagerTest, DroppedActiveHandleAborts) {
  {
    auto t = manager_.Begin();
    ASSERT_TRUE(t->Put("a", "1").ok());
    // RAII abort on scope exit.
  }
  EXPECT_EQ(manager_.AbortedCount(), 1u);
  EXPECT_TRUE(manager_.Begin(true)->Get("a").status().IsNotFound());
}

}  // namespace
}  // namespace txn
}  // namespace lazysi
