#ifndef LAZYSI_WAL_LOGICAL_LOG_H_
#define LAZYSI_WAL_LOGICAL_LOG_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <stop_token>
#include <vector>

#include "wal/log_record.h"

namespace lazysi {
namespace wal {

/// Append-only logical log of one site. The primary's transaction manager
/// appends under its timestamp mutex, so the log order of start and commit
/// records equals timestamp order — the property Section 3 assumes ("start
/// and commit timestamps are consistent with the actual order of start and
/// commit operations at the site").
///
/// The propagator tails the log (a "log sniffer" in the paper's terms,
/// Section 5: it does not go through the concurrency control), reading only
/// below ReadableEnd(): on a durable primary that is the flushed prefix, so
/// no record reaches a secondary before it reaches disk.
/// LSNs are *absolute*: they keep counting across checkpoint truncation and
/// restarts. `base_lsn()` is the oldest retained LSN; At below it returns
/// nullopt (the record was truncated away).
class LogicalLog {
 public:
  /// Appends a record; wakes blocked tailers unless the log is gated on a
  /// durable end. Returns the record's log sequence number (LSN, 0-based,
  /// absolute).
  std::size_t Append(LogRecord record);

  /// One past the last appended LSN (absolute), i.e. the next LSN.
  std::size_t Size() const;

  /// Oldest retained LSN (0 unless the log was truncated or restored).
  std::size_t base_lsn() const;

  /// Re-bases an *empty* log so the next append gets LSN `base` (recovery:
  /// the on-disk suffix starts there). No-op if records were ever appended.
  void ResetBase(std::size_t base);

  /// Drops in-memory records with LSN < `lsn` (clamped to [base, Size()]).
  /// Absolute LSNs are unaffected; reads below the new base yield nullopt.
  void TruncateBelow(std::size_t lsn);

  /// Returns the record at `lsn` if it exists and is still retained.
  std::optional<LogRecord> At(std::size_t lsn) const;

  /// Gates tailers on a durable prefix: after the first call, only records
  /// below the highest `end` passed here are readable. Wakes blocked
  /// tailers. A durable primary calls this on every flush of its log.
  void SetDurableEnd(std::size_t end);

  /// One past the last readable LSN: Size(), or the durable end when lower.
  std::size_t ReadableEnd() const;

  /// Blocks until the record at `lsn` is readable (returns true), `stop` is
  /// requested, or the log is closed with no record at or after `lsn`
  /// (both return false). An append to an ungated log, SetDurableEnd, Close
  /// and the stop request each wake it.
  bool WaitReadable(std::size_t lsn, std::stop_token stop) const;

  /// Closes the log (site shutdown); blocked tailers wake.
  void Close();

  /// Serializes records [from, Size()) to a byte string (for checkpointing
  /// and for shipping a recovery delta, Section 3.4). The range is snapshot
  /// under the lock and encoded outside it, so a large encode never stalls
  /// Append or the propagator's cursors.
  std::string EncodeFrom(std::size_t from) const;

  /// Parses a byte string produced by EncodeFrom.
  static Result<std::vector<LogRecord>> DecodeAll(const std::string& data);

 private:
  std::size_t ReadableEndLocked() const;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::deque<LogRecord> records_;
  std::size_t base_lsn_ = 0;  // absolute LSN of records_.front()
  bool gated_ = false;        // set by the first SetDurableEnd
  std::size_t durable_end_ = 0;
  bool closed_ = false;
};

}  // namespace wal
}  // namespace lazysi

#endif  // LAZYSI_WAL_LOGICAL_LOG_H_
