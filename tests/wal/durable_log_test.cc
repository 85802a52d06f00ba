// DurableLog unit tests: segment round-trips across reopen, torn-tail
// recovery by direct file surgery (the on-disk image a mid-write crash
// leaves behind), quiesced-boundary rotation, truncation, the fsync-mode
// contract, and the boundary rule (one sync per commit/abort, linger
// counted from the boundary). Crash injection through the process-kill harness lives in
// engine/durable_recovery_test.cc; here the "crash" is ftruncate.

#include "wal/durable_log.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "wal/log_record.h"

namespace lazysi {
namespace wal {
namespace {

namespace fs = std::filesystem;

class DurableLogTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) /
           ("durable_log_test_" +
            std::string(
                testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DurableLog::Options Opts(DurableLog::FsyncMode mode) {
    DurableLog::Options o;
    o.dir = dir_.string();
    o.fsync_mode = mode;
    return o;
  }

  /// Appends one quiesced transaction (start, update, commit) at the next
  /// three LSNs and returns the new end LSN.
  std::uint64_t AppendTxn(DurableLog* log, std::uint64_t lsn, TxnId txn,
                          Timestamp ts) {
    log->Append(lsn, LogRecord::Start(txn, ts));
    log->Append(lsn + 1, LogRecord::Update(txn, "k" + std::to_string(txn),
                                           "v" + std::to_string(txn), false));
    log->Append(lsn + 2, LogRecord::Commit(txn, ts + 1));
    return lsn + 3;
  }

  std::vector<fs::path> Segments() {
    std::vector<fs::path> segs;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      std::uint64_t start = 0;
      if (ParseSegmentName(entry.path().filename().string(), &start)) {
        segs.push_back(entry.path());
      }
    }
    std::sort(segs.begin(), segs.end());
    return segs;
  }

  fs::path dir_;
};

TEST_F(DurableLogTest, RoundTripsAcrossReopen) {
  std::vector<LogRecord> written;
  {
    DurableLog::Recovered rec;
    auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
    ASSERT_TRUE(log.ok()) << log.status();
    EXPECT_TRUE(rec.records.empty());
    EXPECT_EQ(rec.base_lsn, 0u);
    std::uint64_t lsn = 0;
    for (TxnId t = 1; t <= 5; ++t) {
      (*log)->Append(lsn, LogRecord::Start(t, t * 10));
      written.push_back(LogRecord::Start(t, t * 10));
      (*log)->Append(lsn + 1, LogRecord::Update(t, "key", "value", false));
      written.push_back(LogRecord::Update(t, "key", "value", false));
      (*log)->Append(lsn + 2, LogRecord::Commit(t, t * 10 + 1));
      written.push_back(LogRecord::Commit(t, t * 10 + 1));
      lsn += 3;
    }
    ASSERT_TRUE((*log)->WaitDurable(lsn).ok());
    (*log)->Close();
  }
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(rec.base_lsn, 0u);
  EXPECT_EQ(rec.base_record_seq, 0u);
  EXPECT_FALSE(rec.tail_truncated);
  ASSERT_EQ(rec.records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(rec.records[i], written[i]) << "record " << i;
  }
  EXPECT_EQ((*log)->next_lsn(), written.size());
}

TEST_F(DurableLogTest, TornTailIsTruncatedOnOpen) {
  {
    DurableLog::Recovered rec;
    auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
    ASSERT_TRUE(log.ok());
    std::uint64_t lsn = 0;
    for (TxnId t = 1; t <= 3; ++t) lsn = AppendTxn(log->get(), lsn, t, t * 10);
    ASSERT_TRUE((*log)->WaitDurable(lsn).ok());
    (*log)->Close();
  }
  auto segs = Segments();
  ASSERT_EQ(segs.size(), 1u);
  // Chop one byte off the final frame: the image of a crash mid-write.
  const auto full = fs::file_size(segs[0]);
  fs::resize_file(segs[0], full - 1);

  DurableLog::Recovered rec;
  auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_TRUE(rec.tail_truncated);
  ASSERT_EQ(rec.records.size(), 8u);  // 9 written, torn commit dropped
  EXPECT_EQ(rec.records.back().type, LogRecordType::kUpdate);
  // The torn bytes are gone from disk too: appending at the truncated end
  // and reopening must not resurrect them.
  EXPECT_EQ((*log)->next_lsn(), 8u);
  (*log)->Append(8, LogRecord::Commit(3, 31));
  ASSERT_TRUE((*log)->WaitDurable(9).ok());
  (*log)->Close();
  DurableLog::Recovered rec2;
  auto log2 = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec2);
  ASSERT_TRUE(log2.ok());
  EXPECT_FALSE(rec2.tail_truncated);
  ASSERT_EQ(rec2.records.size(), 9u);
  EXPECT_EQ(rec2.records.back(), LogRecord::Commit(3, 31));
}

TEST_F(DurableLogTest, CorruptTailCrcIsTruncatedOnOpen) {
  {
    DurableLog::Recovered rec;
    auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
    ASSERT_TRUE(log.ok());
    std::uint64_t lsn = 0;
    for (TxnId t = 1; t <= 2; ++t) lsn = AppendTxn(log->get(), lsn, t, t * 10);
    ASSERT_TRUE((*log)->WaitDurable(lsn).ok());
    (*log)->Close();
  }
  auto segs = Segments();
  ASSERT_EQ(segs.size(), 1u);
  {
    // Flip the last payload byte; the frame length still matches, so only
    // the CRC can tell this record never fully hit disk.
    std::fstream f(segs[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-1, std::ios::end);
    char b = 0;
    f.get(b);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(b ^ 0x5a));
  }
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_TRUE(rec.tail_truncated);
  EXPECT_EQ(rec.records.size(), 5u);
  EXPECT_EQ((*log)->next_lsn(), 5u);
}

TEST_F(DurableLogTest, TornRecordInEarlierSegmentIsCorruption) {
  {
    auto opts = Opts(DurableLog::FsyncMode::kGroup);
    opts.segment_target_bytes = 32;  // rotate after every quiesced txn
    DurableLog::Recovered rec;
    auto log = DurableLog::Open(opts, &rec);
    ASSERT_TRUE(log.ok());
    std::uint64_t lsn = 0;
    for (TxnId t = 1; t <= 3; ++t) lsn = AppendTxn(log->get(), lsn, t, t * 10);
    ASSERT_TRUE((*log)->WaitDurable(lsn).ok());
    (*log)->Close();
  }
  auto segs = Segments();
  ASSERT_GE(segs.size(), 2u);
  fs::resize_file(segs[0], fs::file_size(segs[0]) - 1);

  DurableLog::Recovered rec;
  auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DurableLogTest, TrailingHeaderStubSegmentIsDropped) {
  std::uint64_t end = 0;
  {
    DurableLog::Recovered rec;
    auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
    ASSERT_TRUE(log.ok());
    end = AppendTxn(log->get(), 0, 1, 10);
    ASSERT_TRUE((*log)->WaitDurable(end).ok());
    (*log)->Close();
  }
  // A crash between creating the next segment file and writing its full
  // header leaves a short stub sorting after every complete segment.
  {
    std::ofstream stub(dir_ / SegmentName(end), std::ios::binary);
    stub << "LZSI";
  }
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(rec.records.size(), 3u);
  EXPECT_FALSE(fs::exists(dir_ / SegmentName(end)));
}

TEST_F(DurableLogTest, RotatesOnlyAtQuiescedBoundaries) {
  auto opts = Opts(DurableLog::FsyncMode::kGroup);
  opts.segment_target_bytes = 1;  // want rotation at every opportunity
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(opts, &rec);
  ASSERT_TRUE(log.ok());
  // One long transaction: many updates, all above the rotation target, but
  // no quiesced boundary until the commit — so no rotation mid-transaction.
  (*log)->Append(0, LogRecord::Start(1, 10));
  std::uint64_t lsn = 1;
  for (int i = 0; i < 20; ++i) {
    (*log)->Append(lsn++, LogRecord::Update(1, "key" + std::to_string(i),
                                            std::string(100, 'x'), false));
  }
  (*log)->Append(lsn++, LogRecord::Commit(1, 11));
  ASSERT_TRUE((*log)->WaitDurable(lsn).ok());
  EXPECT_EQ(Segments().size(), 1u);

  // The next transaction starts past a quiesced cut: new segment.
  lsn = AppendTxn(log->get(), lsn, 2, 20);
  ASSERT_TRUE((*log)->WaitDurable(lsn).ok());
  auto segs = Segments();
  ASSERT_EQ(segs.size(), 2u);
  std::uint64_t second_start = 0;
  ASSERT_TRUE(ParseSegmentName(segs[1].filename().string(), &second_start));
  EXPECT_EQ(second_start, 22u);  // start + 20 updates + commit
  (*log)->Close();

  // Every segment start is a valid replay base with correct stream seq:
  // 2 non-update records (start, commit) precede LSN 22.
  DurableLog::Recovered rec2;
  auto reopened = DurableLog::Open(opts, &rec2);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(rec2.records.size(), 25u);
  EXPECT_EQ(rec2.base_lsn, 0u);
}

TEST_F(DurableLogTest, TruncateBelowDropsWholeSegmentsOnly) {
  auto opts = Opts(DurableLog::FsyncMode::kGroup);
  opts.segment_target_bytes = 32;
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(opts, &rec);
  ASSERT_TRUE(log.ok());
  std::uint64_t lsn = 0;
  for (TxnId t = 1; t <= 4; ++t) lsn = AppendTxn(log->get(), lsn, t, t * 10);
  ASSERT_TRUE((*log)->WaitDurable(lsn).ok());
  ASSERT_GE(Segments().size(), 3u);

  // A floor inside the second segment only releases the first.
  auto base = (*log)->TruncateBelow(4);
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_EQ(*base, 3u);
  EXPECT_EQ((*log)->base_lsn(), 3u);

  // The newest segment survives even a floor above everything.
  base = (*log)->TruncateBelow(lsn + 100);
  ASSERT_TRUE(base.ok());
  EXPECT_LT(*base, lsn);
  EXPECT_GT((*log)->counters().bytes_truncated, 0u);
  (*log)->Close();

  // Reopen resumes from the truncated base with the right stream seq:
  // 2 non-update records per dropped transaction.
  DurableLog::Recovered rec2;
  auto reopened = DurableLog::Open(opts, &rec2);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(rec2.base_lsn, *base);
  EXPECT_EQ(rec2.base_record_seq, (*base / 3) * 2);
  EXPECT_EQ(rec2.records.size(), lsn - *base);
  EXPECT_EQ((*reopened)->next_lsn(), lsn);
}

TEST_F(DurableLogTest, AlwaysModeFlushesInline) {
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kAlways), &rec);
  ASSERT_TRUE(log.ok());
  std::uint64_t lsn = AppendTxn(log->get(), 0, 1, 10);
  ASSERT_TRUE((*log)->WaitDurable(lsn).ok());
  EXPECT_EQ((*log)->flushed_end(), lsn);
  const auto c1 = (*log)->counters();
  EXPECT_GE(c1.fsyncs, 1u);
  lsn = AppendTxn(log->get(), lsn, 2, 20);
  ASSERT_TRUE((*log)->WaitDurable(lsn).ok());
  const auto c2 = (*log)->counters();
  EXPECT_GT(c2.fsyncs, c1.fsyncs);  // one fsync per commit, no sharing
  EXPECT_EQ(c2.records_flushed, lsn);
  (*log)->Close();
}

TEST_F(DurableLogTest, NeverModeAcksWithoutFsync) {
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kNever), &rec);
  ASSERT_TRUE(log.ok());
  std::uint64_t lsn = AppendTxn(log->get(), 0, 1, 10);
  ASSERT_TRUE((*log)->WaitDurable(lsn).ok());  // immediate, no durability
  ASSERT_TRUE((*log)->Flush(lsn).ok());        // waits for the write...
  EXPECT_EQ((*log)->counters().fsyncs, 0u);    // ...but never fsyncs
  EXPECT_EQ((*log)->counters().records_flushed, lsn);
  (*log)->Close();
  // The records were still written, so a clean reopen sees them.
  DurableLog::Recovered rec2;
  auto reopened = DurableLog::Open(Opts(DurableLog::FsyncMode::kNever), &rec2);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(rec2.records.size(), 3u);
}

TEST_F(DurableLogTest, GroupModeBatchesAndCounts) {
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
  ASSERT_TRUE(log.ok());
  std::uint64_t lsn = 0;
  for (TxnId t = 1; t <= 10; ++t) lsn = AppendTxn(log->get(), lsn, t, t * 10);
  ASSERT_TRUE((*log)->WaitDurable(lsn).ok());
  const auto c = (*log)->counters();
  EXPECT_GE(c.fsyncs, 1u);
  EXPECT_EQ(c.records_flushed, lsn);
  EXPECT_GE(c.flush_batches, 1u);
  EXPECT_GE(c.max_group_size, 1u);
  EXPECT_LE(c.flush_batches, c.records_flushed);
  EXPECT_GE(c.segments_created, 1u);
  (*log)->Close();
}

TEST_F(DurableLogTest, GroupModeSyncsOncePerTransaction) {
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
  ASSERT_TRUE(log.ok());
  const auto before = (*log)->counters();
  // Start and updates trickle in: none of them is a boundary, so none is
  // synced on its own.
  (*log)->Append(0, LogRecord::Start(1, 10));
  for (std::uint64_t lsn = 1; lsn <= 3; ++lsn) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    (*log)->Append(lsn, LogRecord::Update(1, "k" + std::to_string(lsn), "v",
                                          false));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ((*log)->flushed_end(), 0u);
  EXPECT_EQ((*log)->counters().fsyncs, before.fsyncs);
  // The commit syncs the whole transaction in one fdatasync.
  (*log)->Append(4, LogRecord::Commit(1, 11));
  ASSERT_TRUE((*log)->WaitDurable(5).ok());
  EXPECT_EQ((*log)->flushed_end(), 5u);
  const auto after = (*log)->counters();
  EXPECT_EQ(after.fsyncs - before.fsyncs, 1u);
  EXPECT_EQ(after.flush_batches - before.flush_batches, 1u);
  EXPECT_EQ(after.records_flushed, 5u);
  (*log)->Close();
}

TEST_F(DurableLogTest, AbortReachesDiskWithoutWaiter) {
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
  ASSERT_TRUE(log.ok());
  (*log)->Append(0, LogRecord::Start(1, 10));
  (*log)->Append(1, LogRecord::Update(1, "k", "v", false));
  (*log)->Append(2, LogRecord::Abort(1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((*log)->flushed_end() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ((*log)->flushed_end(), 3u);
  (*log)->Close();
}

TEST_F(DurableLogTest, NonBoundaryTargetsStillComplete) {
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(Opts(DurableLog::FsyncMode::kGroup), &rec);
  ASSERT_TRUE(log.ok());
  (*log)->Append(0, LogRecord::Start(1, 10));
  (*log)->Append(1, LogRecord::Update(1, "a", "1", false));
  ASSERT_TRUE((*log)->WaitDurable(1).ok());
  EXPECT_GE((*log)->flushed_end(), 1u);
  ASSERT_TRUE((*log)->Flush(2).ok());
  EXPECT_EQ((*log)->flushed_end(), 2u);
  // A target ahead of the log completes once its records arrive, though
  // neither of them is a boundary.
  Status waited = Status::Internal("not returned");
  std::thread waiter([&] { waited = (*log)->WaitDurable(4); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  (*log)->Append(2, LogRecord::Update(1, "b", "2", false));
  (*log)->Append(3, LogRecord::Update(1, "c", "3", false));
  waiter.join();
  EXPECT_TRUE(waited.ok()) << waited;
  EXPECT_EQ((*log)->flushed_end(), 4u);
  (*log)->Close();
}

TEST_F(DurableLogTest, LingerCountsFromTheBoundary) {
  auto opts = Opts(DurableLog::FsyncMode::kGroup);
  opts.group_flush_interval = std::chrono::milliseconds(2);
  DurableLog::Recovered rec;
  auto log = DurableLog::Open(opts, &rec);
  ASSERT_TRUE(log.ok());
  // A start record queued 1.5 ms before the commit must not eat the
  // commit's linger: the window opens at the commit.
  (*log)->Append(0, LogRecord::Start(1, 10));
  std::this_thread::sleep_for(std::chrono::microseconds(1500));
  const auto committed = std::chrono::steady_clock::now();
  (*log)->Append(1, LogRecord::Commit(1, 11));
  ASSERT_TRUE((*log)->WaitDurable(2).ok());
  EXPECT_GE(std::chrono::steady_clock::now() - committed,
            std::chrono::microseconds(1500));
  (*log)->Close();
}

TEST_F(DurableLogTest, ParseFsyncModeRecognizesKnobValues) {
  DurableLog::FsyncMode mode = DurableLog::FsyncMode::kGroup;
  EXPECT_TRUE(ParseFsyncMode("always", &mode));
  EXPECT_EQ(mode, DurableLog::FsyncMode::kAlways);
  EXPECT_TRUE(ParseFsyncMode("never", &mode));
  EXPECT_EQ(mode, DurableLog::FsyncMode::kNever);
  EXPECT_TRUE(ParseFsyncMode("group", &mode));
  EXPECT_EQ(mode, DurableLog::FsyncMode::kGroup);
  EXPECT_FALSE(ParseFsyncMode("sometimes", &mode));
  EXPECT_EQ(mode, DurableLog::FsyncMode::kGroup);  // untouched on failure
  EXPECT_FALSE(ParseFsyncMode("", &mode));
}

TEST_F(DurableLogTest, SegmentNameRoundTrips) {
  std::uint64_t lsn = 0;
  EXPECT_TRUE(ParseSegmentName(SegmentName(0), &lsn));
  EXPECT_EQ(lsn, 0u);
  EXPECT_TRUE(ParseSegmentName(SegmentName(123456789), &lsn));
  EXPECT_EQ(lsn, 123456789u);
  EXPECT_FALSE(ParseSegmentName("MANIFEST", &lsn));
  EXPECT_FALSE(ParseSegmentName("x.seg", &lsn));
  // Zero padding keeps lexicographic order == numeric order.
  EXPECT_LT(SegmentName(9), SegmentName(10));
}

}  // namespace
}  // namespace wal
}  // namespace lazysi
