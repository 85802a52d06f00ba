#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "replication/primary.h"
#include "replication/secondary.h"

namespace lazysi {
namespace replication {
namespace {

struct Lifespan {
  Timestamp start_ts = kInvalidTimestamp;
  Timestamp commit_ts = kInvalidTimestamp;
};

// Extracts (start, commit) lifespans of committed update transactions from a
// site's logical log, in commit-timestamp order.
std::vector<Lifespan> CommittedLifespans(engine::Database* db) {
  std::map<TxnId, Lifespan> by_txn;
  std::vector<TxnId> commit_order;
  for (std::size_t lsn = 0; lsn < db->log()->Size(); ++lsn) {
    auto r = db->log()->At(lsn);
    if (r->type == wal::LogRecordType::kStart) {
      by_txn[r->txn_id].start_ts = r->timestamp;
    } else if (r->type == wal::LogRecordType::kCommit) {
      by_txn[r->txn_id].commit_ts = r->timestamp;
      commit_order.push_back(r->txn_id);
    }
  }
  std::vector<Lifespan> out;
  for (TxnId id : commit_order) out.push_back(by_txn[id]);
  return out;
}

// The paper's synchronization relationships (Section 3.1):
//  1. start_p(T2) > commit_p(T1) => start_s(R2) > commit_s(R1)
//  2. commit_p(T2) > start_p(T1) => commit_s(R2) > start_s(R1)
//  3. commit_p(T2) > commit_p(T1) => commit_s(R2) > commit_s(R1)
// We generate a concurrent primary workload, replicate it, reconstruct the
// refresh transactions' lifespans from the secondary's own log, and check
// all three implications over every pair (Lemmas 3.1-3.3).
TEST(RefreshOrderTest, LemmasHoldOverConcurrentWorkload) {
  engine::Database primary_db;
  Primary primary(&primary_db);
  engine::Database secondary_db(engine::DatabaseOptions{1, "sec", true});
  Secondary secondary(&secondary_db);
  primary.AttachSecondary(&secondary);
  secondary.Start();
  primary.Start();

  constexpr int kWriters = 4;
  constexpr int kTxnsPerWriter = 40;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(500 + w);
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        auto t = primary_db.Begin();
        // Disjoint key spaces keep all transactions committable while still
        // producing overlapping lifespans.
        const int ops = static_cast<int>(rng.UniformInt(1, 4));
        for (int o = 0; o < ops; ++o) {
          ASSERT_TRUE(t->Put("w" + std::to_string(w) + "/k" +
                                 std::to_string(rng.Next(10)),
                             std::to_string(i))
                          .ok());
        }
        if (rng.Bernoulli(0.1)) {
          t->Abort();  // aborted transactions must not disturb the order
        } else {
          ASSERT_TRUE(t->Commit().ok());
        }
        if (rng.Bernoulli(0.3)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(secondary.WaitForSeq(primary_db.LatestCommitTs(),
                                   std::chrono::milliseconds(10000)));
  primary.Stop();
  secondary.Stop();

  const auto primary_spans = CommittedLifespans(&primary_db);
  const auto refresh_spans = CommittedLifespans(&secondary_db);
  ASSERT_EQ(primary_spans.size(), refresh_spans.size());
  ASSERT_GT(primary_spans.size(), 100u);

  const std::size_t n = primary_spans.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const Lifespan& ti = primary_spans[i];
      const Lifespan& tj = primary_spans[j];
      const Lifespan& ri = refresh_spans[i];
      const Lifespan& rj = refresh_spans[j];
      if (tj.start_ts > ti.commit_ts) {
        ASSERT_GT(rj.start_ts, ri.commit_ts)
            << "relationship 1 violated at pair (" << i << "," << j << ")";
      }
      if (tj.commit_ts > ti.start_ts) {
        ASSERT_GT(rj.commit_ts, ri.start_ts)
            << "relationship 2 violated at pair (" << i << "," << j << ")";
      }
      if (tj.commit_ts > ti.commit_ts) {
        ASSERT_GT(rj.commit_ts, ri.commit_ts)
            << "relationship 3 violated at pair (" << i << "," << j << ")";
      }
    }
  }

  // And the states themselves agree (Theorem 3.1).
  EXPECT_EQ(primary_db.StateHash(), secondary_db.StateHash());
}

// Concurrency actually happens at the secondary: with a multi-thread
// applicator pool, refresh transactions whose primary lifespans overlapped
// may also overlap locally (that is the point of exploiting the local
// concurrency control instead of serializing, Section 3.3).
TEST(RefreshOrderTest, RefreshTransactionsOverlapLocally) {
  engine::Database primary_db;
  Primary primary(&primary_db);
  engine::Database secondary_db(engine::DatabaseOptions{1, "sec", true});
  Secondary secondary(&secondary_db);
  primary.AttachSecondary(&secondary);

  // Build an overlapping batch at the primary BEFORE starting replication,
  // so the secondary sees it all at once and can refresh concurrently.
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  for (int i = 0; i < 8; ++i) txns.push_back(primary_db.Begin());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(txns[i]->Put("k" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(txns[i]->Commit().ok());

  secondary.Start();
  primary.Start();
  ASSERT_TRUE(secondary.WaitForSeq(primary_db.LatestCommitTs(),
                                   std::chrono::milliseconds(10000)));
  primary.Stop();
  secondary.Stop();

  const auto spans = CommittedLifespans(&secondary_db);
  ASSERT_EQ(spans.size(), 8u);
  // At least one pair of refresh transactions overlapped: start of a later
  // one before commit of an earlier one.
  bool overlapped = false;
  for (std::size_t i = 0; i < spans.size() && !overlapped; ++i) {
    for (std::size_t j = i + 1; j < spans.size() && !overlapped; ++j) {
      if (spans[j].start_ts < spans[i].commit_ts) overlapped = true;
    }
  }
  EXPECT_TRUE(overlapped)
      << "refresh pipeline serialized transactions that could run "
         "concurrently";
}

}  // namespace
}  // namespace replication
}  // namespace lazysi
