#include "replication/propagator.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "engine/checkpointer.h"
#include "engine/database.h"
#include "replication/primary.h"
#include "wal/durable_log.h"

namespace lazysi {
namespace replication {
namespace {

using Queue = BlockingQueue<PropagationRecord>;

std::optional<PropagationRecord> PopWithin(Queue& q, int ms = 2000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (auto r = q.TryPop()) return r;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return std::nullopt;
}

/// A database with a group-commit durable log in a fresh temp directory
/// (named per process, so concurrent runs of this binary do not collide).
class DurableSite {
 public:
  explicit DurableSite(std::chrono::microseconds linger) {
    dir_ = std::filesystem::path(testing::TempDir()) /
           ("propagator_test_" + std::to_string(::getpid()) + "_" +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    wal::DurableLog::Options lo;
    lo.group_flush_interval = linger;
    auto state = engine::OpenDataDir(&db, dir_.string(), lo);
    if (state.ok()) durable = std::move(state->durable);
  }
  ~DurableSite() {
    if (durable) durable->Close();
    std::filesystem::remove_all(dir_);
  }

  engine::Database db;
  std::unique_ptr<wal::DurableLog> durable;

 private:
  std::filesystem::path dir_;
};

double StopMillis(Propagator* prop) {
  const auto t0 = std::chrono::steady_clock::now();
  prop->Stop();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(PropagatorTest, CommitCarriesUpdateList) {
  engine::Database db;
  Propagator prop(db.log());
  Queue sink;
  prop.AttachSink(&sink);
  prop.Start();

  auto t = db.Begin();
  ASSERT_TRUE(t->Put("a", "1").ok());
  ASSERT_TRUE(t->Put("b", "2").ok());
  ASSERT_TRUE(t->Commit().ok());

  auto start = PopWithin(sink);
  ASSERT_TRUE(start.has_value());
  auto* s = std::get_if<PropStart>(&*start);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->start_ts, t->start_ts());

  auto commit = PopWithin(sink);
  ASSERT_TRUE(commit.has_value());
  auto* c = std::get_if<PropCommit>(&*commit);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->commit_ts, t->commit_ts());
  ASSERT_EQ(c->updates.size(), 2u);
  EXPECT_EQ(c->updates[0].key, "a");
  EXPECT_EQ(c->updates[1].key, "b");
  prop.Stop();
}

TEST(PropagatorTest, AbortedTxnUpdatesNeverShipped) {
  engine::Database db;
  Propagator prop(db.log());
  Queue sink;
  prop.AttachSink(&sink);
  prop.Start();

  auto t = db.Begin();
  ASSERT_TRUE(t->Put("a", "1").ok());
  t->Abort();

  auto start = PopWithin(sink);
  ASSERT_TRUE(start.has_value());
  EXPECT_TRUE(std::holds_alternative<PropStart>(*start));
  auto abort = PopWithin(sink);
  ASSERT_TRUE(abort.has_value());
  EXPECT_TRUE(std::holds_alternative<PropAbort>(*abort));
  // Nothing else: in particular no commit with updates.
  EXPECT_FALSE(PopWithin(sink, 100).has_value());
  prop.Stop();
}

TEST(PropagatorTest, BroadcastToMultipleSinks) {
  engine::Database db;
  Propagator prop(db.log());
  Queue sink1, sink2;
  prop.AttachSink(&sink1);
  prop.AttachSink(&sink2);
  prop.Start();

  ASSERT_TRUE(db.Put("a", "1").ok());
  for (Queue* q : {&sink1, &sink2}) {
    ASSERT_TRUE(PopWithin(*q).has_value());  // start
    auto c = PopWithin(*q);
    ASSERT_TRUE(c.has_value());
    EXPECT_TRUE(std::holds_alternative<PropCommit>(*c));
  }
  prop.Stop();
}

TEST(PropagatorTest, RecordsArriveInTimestampOrder) {
  engine::Database db;
  Propagator prop(db.log());
  Queue sink;
  prop.AttachSink(&sink);
  prop.Start();

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i % 7), std::to_string(i)).ok());
  }

  Timestamp last_ts = 0;
  for (int i = 0; i < 100; ++i) {  // 50 starts + 50 commits
    auto r = PopWithin(sink);
    ASSERT_TRUE(r.has_value());
    const Timestamp ts = RecordTimestamp(*r);
    EXPECT_GT(ts, last_ts);
    last_ts = ts;
  }
  prop.Stop();
}

TEST(PropagatorTest, DetachSinkStopsDelivery) {
  engine::Database db;
  Propagator prop(db.log());
  Queue sink;
  prop.AttachSink(&sink);
  prop.Start();
  ASSERT_TRUE(db.Put("a", "1").ok());
  ASSERT_TRUE(PopWithin(sink).has_value());
  ASSERT_TRUE(PopWithin(sink).has_value());

  prop.DetachSink(&sink);
  ASSERT_TRUE(db.Put("b", "2").ok());
  // Give the propagator time to process; nothing should arrive.
  EXPECT_FALSE(PopWithin(sink, 150).has_value());
  prop.Stop();
}

TEST(PropagatorTest, AttachSinkAtReplaysQuiescedSlice) {
  engine::Database db;
  Propagator prop(db.log());
  Queue early;
  prop.AttachSink(&early);
  prop.Start();

  ASSERT_TRUE(db.Put("a", "1").ok());
  ASSERT_TRUE(db.Put("b", "2").ok());
  // Wait until the propagator consumed everything.
  while (prop.position() < db.log()->Size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Queue late;
  ASSERT_TRUE(prop.AttachSinkAt(&late, 0).ok());
  // The late sink receives the full replayed history.
  int commits = 0;
  for (int i = 0; i < 4; ++i) {
    auto r = PopWithin(late);
    ASSERT_TRUE(r.has_value());
    if (std::holds_alternative<PropCommit>(*r)) ++commits;
  }
  EXPECT_EQ(commits, 2);
  // And future records too.
  ASSERT_TRUE(db.Put("c", "3").ok());
  ASSERT_TRUE(PopWithin(late).has_value());
  prop.Stop();
}

TEST(PropagatorTest, AttachSinkAtRejectsNonQuiescedLsn) {
  engine::Database db;
  Propagator prop(db.log());
  Queue early;
  prop.AttachSink(&early);
  prop.Start();

  // An in-flight transaction spans the candidate LSN.
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("a", "1").ok());
  const std::size_t mid_lsn = db.log()->Size();  // after start+update
  ASSERT_TRUE(t->Commit().ok());
  while (prop.position() < db.log()->Size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Queue late;
  Status s = prop.AttachSinkAt(&late, mid_lsn).status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  prop.Stop();
}

TEST(PropagatorTest, AttachSinkAtDerivesBaseSeqFromSyncPoints) {
  engine::Database db;
  Propagator prop(db.log());
  Queue early;
  prop.AttachSink(&early);
  prop.Start();

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.Put("a" + std::to_string(i), "1").ok());
  }
  while (prop.position() < db.log()->Size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::size_t mid_lsn = db.log()->Size();  // quiesced
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(db.Put("b" + std::to_string(i), "2").ok());
  }
  while (prop.position() < db.log()->Size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Ground truth by full log scan: every non-update record below the attach
  // LSN produced exactly one propagation record. AttachSinkAt must agree
  // while counting only from the nearest recorded sync point.
  std::uint64_t expected = 0;
  for (std::size_t lsn = 0; lsn < mid_lsn; ++lsn) {
    auto r = db.log()->At(lsn);
    ASSERT_TRUE(r.has_value());
    if (r->type != wal::LogRecordType::kUpdate) ++expected;
  }
  Queue mid;
  auto seq = prop.AttachSinkAt(&mid, mid_lsn);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, expected);

  Queue origin;
  auto zero = prop.AttachSinkAt(&origin, 0);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero, 0u);
  prop.Stop();
}

TEST(PropagatorTest, SyncPointsStayCloseFarBehindTheHead) {
  // A reconnecting receiver far behind the head resyncs from the sync point
  // at or below its position. That point must stay near the position (the
  // overlap is replayed and deduplicated), not fall back to the origin once
  // the receiver is more than a fixed number of points behind.
  engine::Database db;
  Propagator prop(db.log());
  prop.Start();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db.Put("k" + std::to_string(i % 13), "v").ok());
  }
  while (prop.position() < db.log()->Size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t head = prop.records_broadcast();
  ASSERT_EQ(head, 4000u);  // a start and a commit record per transaction
  for (std::uint64_t behind : {2u, 100u, 600u, 1000u, 3000u, 3998u}) {
    const std::uint64_t want = head - behind;
    const auto point = prop.SyncPointAtOrBefore(want);
    EXPECT_LE(point.record_seq, want) << "behind=" << behind;
    EXPECT_LE(want - point.record_seq, behind / 8 + 2) << "behind=" << behind;
    Queue resync;
    auto base = prop.AttachSinkAt(&resync, point.lsn);
    ASSERT_TRUE(base.ok()) << base.status();
    EXPECT_EQ(*base, point.record_seq);
    prop.DetachSink(&resync);
  }
  prop.Stop();
}

TEST(PropagatorTest, BatchedModeDeliversInCycles) {
  engine::Database db;
  PropagatorOptions batched;
  batched.batch_interval = std::chrono::milliseconds(80);
  Propagator prop(db.log(), batched);
  Queue sink;
  prop.AttachSink(&sink);
  prop.Start();
  // The first drain happens immediately; subsequent records wait a cycle.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(db.Put("a", "1").ok());
  // Should arrive after roughly one batch interval.
  auto r = PopWithin(sink, 1000);
  EXPECT_TRUE(r.has_value());
  prop.Stop();
}

TEST(PropagatorTest, StopReturnsPromptly) {
  // An idle propagator blocks on the log; Stop must wake it at once, not
  // after a poll interval.
  {
    engine::Database db;
    Propagator prop(db.log());
    prop.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_LT(StopMillis(&prop), 10.0);
  }
  // Same behind the durability barrier: the open transaction's start and
  // update records are appended but not synced (no boundary yet), so the
  // propagator waits for a flush that does not come.
  DurableSite site(std::chrono::microseconds(0));
  ASSERT_NE(site.durable, nullptr);
  Primary primary(&site.db);
  primary.Start();
  auto t = site.db.Begin();
  ASSERT_TRUE(t->Put("a", "1").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LT(site.db.log()->ReadableEnd(), site.db.log()->Size());
  EXPECT_LT(StopMillis(primary.propagator()), 10.0);
  t->Abort();
}

TEST(PropagatorTest, DurableRecordsReachSinksOnlyAfterTheirFlush) {
  // A long linger holds the commit's fsync for ~100 ms.
  DurableSite site(std::chrono::milliseconds(100));
  ASSERT_NE(site.durable, nullptr);
  Primary primary(&site.db);
  Queue sink;
  primary.propagator()->AttachSink(&sink);
  primary.Start();
  // A second tailer drains every 5 ms whether or not anything woke it, so
  // the barrier itself is checked, not just the wake-up that follows it.
  Propagator cycling(site.db.log(),
                     PropagatorOptions{std::chrono::milliseconds(5)});
  Queue cycled;
  cycling.AttachSink(&cycled);
  cycling.Start();
  std::thread committer([&] {
    auto t = site.db.Begin();
    ASSERT_TRUE(t->Put("a", "1").ok());
    ASSERT_TRUE(t->Commit().ok());
  });
  // Start, update, commit at LSNs 0..2. Inside the linger nothing is on
  // disk, so nothing may be replicated.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(site.durable->flushed_end(), 0u);
  EXPECT_FALSE(sink.TryPop().has_value());
  EXPECT_FALSE(cycled.TryPop().has_value());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (site.durable->flushed_end() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_GE(site.durable->flushed_end(), 3u);
  // The flush itself wakes the propagator: the records follow within a
  // few ms, not after a poll interval.
  const auto flushed = std::chrono::steady_clock::now();
  auto start = sink.PopFor(std::chrono::seconds(2));
  auto commit = sink.PopFor(std::chrono::seconds(2));
  const double lag_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - flushed)
                            .count();
  committer.join();
  ASSERT_TRUE(start.has_value());
  EXPECT_TRUE(std::holds_alternative<PropStart>(*start));
  ASSERT_TRUE(commit.has_value());
  EXPECT_TRUE(std::holds_alternative<PropCommit>(*commit));
  EXPECT_LT(lag_ms, 20.0);
  EXPECT_TRUE(cycled.PopFor(std::chrono::seconds(2)).has_value());
  cycling.Stop();
  primary.Stop();
}

}  // namespace
}  // namespace replication
}  // namespace lazysi
