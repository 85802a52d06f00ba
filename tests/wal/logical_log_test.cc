#include "wal/logical_log.h"

#include <gtest/gtest.h>

#include <thread>

namespace lazysi {
namespace wal {
namespace {

TEST(LogicalLogTest, AppendAssignsSequentialLsns) {
  LogicalLog log;
  EXPECT_EQ(log.Append(LogRecord::Start(1, 1)), 0u);
  EXPECT_EQ(log.Append(LogRecord::Commit(1, 2)), 1u);
  EXPECT_EQ(log.Size(), 2u);
}

TEST(LogicalLogTest, AtReturnsRecord) {
  LogicalLog log;
  log.Append(LogRecord::Start(7, 42));
  auto r = log.At(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->txn_id, 7u);
  EXPECT_FALSE(log.At(1).has_value());
}

TEST(LogicalLogTest, WaitReadableBlocksUntilAppend) {
  LogicalLog log;
  std::thread appender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    log.Append(LogRecord::Start(1, 1));
  });
  EXPECT_TRUE(log.WaitReadable(0, std::stop_token()));
  appender.join();
  EXPECT_EQ(log.At(0)->txn_id, 1u);
}

TEST(LogicalLogTest, DurableEndGatesReaders) {
  LogicalLog log;
  log.SetDurableEnd(0);
  log.Append(LogRecord::Start(1, 1));
  log.Append(LogRecord::Commit(1, 2));
  // Appended but not durable: not readable yet.
  EXPECT_EQ(log.Size(), 2u);
  EXPECT_EQ(log.ReadableEnd(), 0u);
  std::thread flusher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    log.SetDurableEnd(2);
  });
  EXPECT_TRUE(log.WaitReadable(1, std::stop_token()));
  flusher.join();
  EXPECT_EQ(log.ReadableEnd(), 2u);
  // The durable end never moves back, and never passes the log's end.
  log.SetDurableEnd(1);
  EXPECT_EQ(log.ReadableEnd(), 2u);
  log.SetDurableEnd(10);
  EXPECT_EQ(log.ReadableEnd(), 2u);
}

TEST(LogicalLogTest, StopRequestWakesWaiter) {
  LogicalLog log;
  std::stop_source stop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.request_stop();
  });
  EXPECT_FALSE(log.WaitReadable(0, stop.get_token()));
  stopper.join();
}

TEST(LogicalLogTest, CloseWakesWaiters) {
  LogicalLog log;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log.Close();
  });
  EXPECT_FALSE(log.WaitReadable(0, std::stop_token()));
  closer.join();
}

TEST(LogicalLogTest, EncodeDecodeSuffix) {
  LogicalLog log;
  log.Append(LogRecord::Start(1, 1));
  log.Append(LogRecord::Update(1, "k", "v", false));
  log.Append(LogRecord::Commit(1, 2));
  const std::string bytes = log.EncodeFrom(1);
  auto records = LogicalLog::DecodeAll(bytes);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].type, LogRecordType::kUpdate);
  EXPECT_EQ((*records)[1].type, LogRecordType::kCommit);
}

TEST(LogicalLogTest, DecodeAllRejectsCorruption) {
  auto bad = LogicalLog::DecodeAll("\x09garbage");
  EXPECT_FALSE(bad.ok());
}

TEST(LogicalLogTest, ConcurrentAppendersPreserveCount) {
  LogicalLog log;
  constexpr int kThreads = 4;
  constexpr int kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        log.Append(LogRecord::Start(t * kEach + i, i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.Size(), static_cast<std::size_t>(kThreads * kEach));
}

}  // namespace
}  // namespace wal
}  // namespace lazysi
