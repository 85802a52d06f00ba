// Cascading (chained) replication: because every secondary applies refresh
// transactions through its own engine, its logical log is itself a valid
// propagation source. A tertiary site fed from a secondary's log converges
// to the same state chain — the architecture composes transitively.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "replication/primary.h"
#include "replication/secondary.h"

namespace lazysi {
namespace replication {
namespace {

TEST(CascadeTest, TertiaryConvergesThroughMiddleTier) {
  engine::Database primary_db;
  engine::Database mid_db(engine::DatabaseOptions{1, "mid", true});
  engine::Database leaf_db(engine::DatabaseOptions{2, "leaf", true});

  Primary primary(&primary_db);
  Secondary mid(&mid_db);
  primary.AttachSecondary(&mid);

  // Second tier: a propagator tailing the *mid* site's log.
  Propagator mid_propagator(mid_db.log());
  Secondary leaf(&leaf_db);
  mid_propagator.AttachSink(leaf.update_queue());

  mid.Start();
  leaf.Start();
  primary.Start();
  mid_propagator.Start();

  for (int i = 0; i < 100; ++i) {
    auto t = primary_db.Begin();
    ASSERT_TRUE(t->Put("k" + std::to_string(i % 13), std::to_string(i)).ok());
    if (i % 10 == 3) {
      ASSERT_TRUE(t->Delete("k" + std::to_string((i + 1) % 13)).ok());
    }
    ASSERT_TRUE(t->Commit().ok());
  }

  ASSERT_TRUE(mid.WaitForSeq(primary_db.LatestCommitTs(),
                             std::chrono::milliseconds(10000)));
  // The leaf's seq(DBsec) is expressed in *mid-local* commit timestamps.
  ASSERT_TRUE(leaf.WaitForSeq(mid_db.LatestCommitTs(),
                              std::chrono::milliseconds(10000)));

  mid_propagator.Stop();
  primary.Stop();
  mid.Stop();
  leaf.Stop();

  // Full convergence across all three tiers.
  const auto primary_state =
      primary_db.store()->Materialize(primary_db.LatestCommitTs());
  EXPECT_EQ(mid_db.store()->Materialize(mid_db.LatestCommitTs()),
            primary_state);
  EXPECT_EQ(leaf_db.store()->Materialize(leaf_db.LatestCommitTs()),
            primary_state);

  // Completeness holds tier over tier: identical state-hash chains.
  ASSERT_EQ(primary_db.StateChainHistory().size(),
            leaf_db.StateChainHistory().size());
  EXPECT_EQ(primary_db.StateHash(), mid_db.StateHash());
  EXPECT_EQ(mid_db.StateHash(), leaf_db.StateHash());
}

TEST(CascadeTest, FanOutFromMiddleTier) {
  // One mid-tier feeding two leaves (a replication tree).
  engine::Database primary_db;
  engine::Database mid_db(engine::DatabaseOptions{1, "mid", true});
  engine::Database leaf1_db(engine::DatabaseOptions{2, "leaf1", true});
  engine::Database leaf2_db(engine::DatabaseOptions{3, "leaf2", true});

  Primary primary(&primary_db);
  Secondary mid(&mid_db);
  primary.AttachSecondary(&mid);
  Propagator mid_propagator(mid_db.log());
  Secondary leaf1(&leaf1_db);
  Secondary leaf2(&leaf2_db);
  mid_propagator.AttachSink(leaf1.update_queue());
  mid_propagator.AttachSink(leaf2.update_queue());

  mid.Start();
  leaf1.Start();
  leaf2.Start();
  primary.Start();
  mid_propagator.Start();

  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(primary_db.Put("key" + std::to_string(i % 9),
                               std::to_string(i)).ok());
  }
  ASSERT_TRUE(mid.WaitForSeq(primary_db.LatestCommitTs(),
                             std::chrono::milliseconds(10000)));
  ASSERT_TRUE(leaf1.WaitForSeq(mid_db.LatestCommitTs(),
                               std::chrono::milliseconds(10000)));
  ASSERT_TRUE(leaf2.WaitForSeq(mid_db.LatestCommitTs(),
                               std::chrono::milliseconds(10000)));

  mid_propagator.Stop();
  primary.Stop();
  mid.Stop();
  leaf1.Stop();
  leaf2.Stop();

  EXPECT_EQ(leaf1_db.StateHash(), primary_db.StateHash());
  EXPECT_EQ(leaf2_db.StateHash(), primary_db.StateHash());
}

}  // namespace
}  // namespace replication
}  // namespace lazysi
