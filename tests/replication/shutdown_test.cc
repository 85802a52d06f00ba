// Shutdown robustness of the refresh pipeline: stopping a secondary with a
// deep backlog, blocked applicators and a mid-flight pending queue must not
// hang, crash or corrupt the local database.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "replication/primary.h"
#include "replication/secondary.h"

namespace lazysi {
namespace replication {
namespace {

TEST(ShutdownTest, StopWithDeepBacklogDoesNotHang) {
  engine::Database primary_db;
  engine::Database secondary_db;
  Primary primary(&primary_db);
  Secondary secondary(&secondary_db);
  primary.AttachSecondary(&secondary);

  // Build a large backlog before the secondary even starts.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(primary_db.Put("k" + std::to_string(i), "v").ok());
  }
  primary.Start();
  secondary.Start();
  // Stop almost immediately: most records are still queued or mid-apply.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  secondary.Stop();
  primary.Stop();

  // Whatever was applied is a consistent prefix: the local store never
  // contains a partially applied transaction, and seq(DBsec) matches the
  // number of completed refreshes.
  const std::size_t applied = secondary.refreshed_count();
  EXPECT_LE(applied, 500u);
  EXPECT_EQ(secondary_db.txn_manager()->CommittedCount(), applied);
}

TEST(ShutdownTest, StopAndRestartPipelineResumesCleanly) {
  // A stopped Secondary object can be started again and keeps consuming its
  // queue (the propagator kept feeding it while stopped).
  engine::Database primary_db;
  engine::Database secondary_db;
  Primary primary(&primary_db);
  Secondary secondary(&secondary_db);
  primary.AttachSecondary(&secondary);
  primary.Start();
  secondary.Start();

  ASSERT_TRUE(primary_db.Put("a", "1").ok());
  ASSERT_TRUE(secondary.WaitForSeq(primary_db.LatestCommitTs(),
                                   std::chrono::milliseconds(5000)));
  secondary.Stop();

  ASSERT_TRUE(primary_db.Put("b", "2").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The update queue was closed by Stop; records broadcast while stopped
  // are dropped, which is exactly the "crashed secondary loses its queue"
  // failure model (Section 3.4). Recovery is the documented path — but
  // restarting the pipeline must at least be safe and make no false claims.
  secondary.Start();
  EXPECT_FALSE(secondary.WaitForSeq(primary_db.LatestCommitTs(),
                                    std::chrono::milliseconds(100)));
  secondary.Stop();
  primary.Stop();
  EXPECT_EQ(secondary_db.Get("a").value(), "1");
}

TEST(ShutdownTest, RestartedPipelineReplicatesNewCommits) {
  // The other direction of the restart contract: queues reopen on Start(),
  // so commits made *after* the restart flow through the whole pipeline
  // again (before the Reopen fix the closed queues silently ate them and
  // the pipeline was dead for good).
  engine::Database primary_db;
  engine::Database secondary_db;
  Primary primary(&primary_db);
  Secondary secondary(&secondary_db);
  primary.AttachSecondary(&secondary);
  primary.Start();
  secondary.Start();

  ASSERT_TRUE(primary_db.Put("a", "1").ok());
  ASSERT_TRUE(secondary.WaitForSeq(primary_db.LatestCommitTs(),
                                   std::chrono::milliseconds(5000)));
  secondary.Stop();
  secondary.Start();

  ASSERT_TRUE(primary_db.Put("b", "2").ok());
  ASSERT_TRUE(secondary.WaitForSeq(primary_db.LatestCommitTs(),
                                   std::chrono::milliseconds(5000)));
  secondary.Stop();
  primary.Stop();
  EXPECT_EQ(secondary_db.Get("a").value(), "1");
  EXPECT_EQ(secondary_db.Get("b").value(), "2");
}

TEST(ShutdownTest, DoubleStartAndDoubleStopAreIdempotent) {
  engine::Database primary_db;
  engine::Database secondary_db;
  Primary primary(&primary_db);
  Secondary secondary(&secondary_db);
  primary.AttachSecondary(&secondary);
  secondary.Start();
  secondary.Start();
  primary.Start();
  primary.Start();
  ASSERT_TRUE(primary_db.Put("k", "v").ok());
  ASSERT_TRUE(secondary.WaitForSeq(primary_db.LatestCommitTs(),
                                   std::chrono::milliseconds(5000)));
  primary.Stop();
  primary.Stop();
  secondary.Stop();
  secondary.Stop();
  EXPECT_EQ(secondary_db.Get("k").value(), "v");
}

}  // namespace
}  // namespace replication
}  // namespace lazysi
