#ifndef LAZYSI_WAL_DURABLE_LOG_H_
#define LAZYSI_WAL_DURABLE_LOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "wal/log_record.h"

namespace lazysi {
namespace wal {

/// Segmented on-disk image of the primary's logical log with group commit.
///
/// Layout: `<dir>/<start_lsn>.seg`, each segment being
///
///   "LZSIWAL1" | LE64 start_lsn | LE64 start_record_seq   (header, 24 bytes)
///   [ LE32 payload_len | LE32 crc32c(payload) | payload ]* (frames)
///
/// where a payload is one LogRecord::EncodeTo encoding. `start_record_seq`
/// is the propagation-stream sequence number at the segment boundary (the
/// count of non-update records below it), so a restarted propagator can be
/// re-seeded straight from the oldest segment header. Segments rotate only
/// at *quiesced* record boundaries (no transaction spans the cut), so every
/// segment start is a valid replay base.
///
/// Appends are queued in memory; durability is governed by `fsync_mode`:
///  - kGroup:  a log-writer thread batches queued records into one
///             write+fdatasync and advances the flushed watermark; commits
///             wait on the watermark, so N concurrent commits share a fsync.
///  - kAlways: no writer thread; each WaitDurable call flushes and fsyncs
///             the queued prefix up to its own LSN inline (the classic
///             per-commit-fsync baseline, serialized).
///  - kNever:  the writer thread writes batches but never fsyncs, and
///             WaitDurable returns immediately (durability off; the bench
///             baseline for "what does the queueing itself cost").
///
/// Boundary rule (kGroup / kNever): the writer syncs at transaction
/// boundaries, not per record. Only a commit or abort record, a
/// WaitDurable/Flush target, or `max_group_bytes` of queued records wakes
/// it; it then writes and syncs everything queued up to the highest
/// requested end (the last queued commit/abort LSN + 1, or a waiter's
/// target, whichever is higher) in one fdatasync. Start and update records
/// ride along with the commit or abort that follows them: nothing reads
/// them from disk before that record (the propagator ships a transaction's
/// updates with its commit), and recovery aborts a transaction whose
/// commit never reached disk. WaitDurable on any LSN still returns once
/// that prefix is on disk. The optional kGroup linger
/// (`group_flush_interval`) counts from the oldest unsynced boundary, not
/// from the oldest queued record.
///
/// Every advance of the flushed watermark is reported to the flush
/// listener (see SetFlushListener): the primary's propagator blocks on it
/// instead of polling.
///
/// On Open, a torn tail in the final segment (crash mid-write) is truncated
/// away; a torn record in any earlier segment is corruption and fails.
class DurableLog {
 public:
  enum class FsyncMode { kAlways, kGroup, kNever };

  struct Options {
    std::string dir;  // segment directory; created if missing
    FsyncMode fsync_mode = FsyncMode::kGroup;
    /// In kGroup mode, how long the writer lingers to let a batch
    /// accumulate, counted from the oldest unsynced boundary (the first
    /// commit/abort or WaitDurable target since the last batch was taken;
    /// a start record queued earlier does not shorten it). 0 = flush as
    /// soon as the writer wakes (batching then comes for free from fsync
    /// latency itself).
    std::chrono::microseconds group_flush_interval{0};
    /// A batch is flushed no later than when this many encoded bytes are
    /// queued, regardless of the flush interval or of any boundary.
    std::size_t max_group_bytes = 1 << 20;
    /// Rotate to a new segment once the current one exceeds this size (at
    /// the next quiesced boundary).
    std::size_t segment_target_bytes = 4u << 20;
  };

  /// What Open found on disk, for the engine's restore path.
  struct Recovered {
    std::vector<LogRecord> records;  // every record on disk, in LSN order
    std::uint64_t base_lsn = 0;      // LSN of records.front()
    std::uint64_t base_record_seq = 0;  // propagation seq at base_lsn
    bool tail_truncated = false;  // a torn tail was dropped from the last seg
  };

  struct Counters {
    std::uint64_t fsyncs = 0;
    std::uint64_t records_flushed = 0;
    std::uint64_t flush_batches = 0;   // group size mean = flushed/batches
    std::uint64_t max_group_size = 0;  // largest single batch, in records
    std::uint64_t bytes_truncated = 0;
    std::uint64_t segments_created = 0;
  };

  /// Crash-injection points for recovery tests (see SetCrashHook).
  enum class CrashPoint { kAfterWrite, kAfterFsync };

  /// Opens (or creates) the log in `opts.dir`, recovering existing segments
  /// into `recovered` (always filled; empty log => no records, base 0).
  static Result<std::unique_ptr<DurableLog>> Open(const Options& opts,
                                                  Recovered* recovered);

  ~DurableLog();

  /// Queues a record for the writer. `lsn` must be exactly the next LSN
  /// (appends mirror the in-memory LogicalLog one-for-one, in order). Only
  /// a commit or abort record requests a sync (the boundary rule above).
  void Append(std::uint64_t lsn, const LogRecord& record);

  /// Commit-gate wait: blocks until every record with LSN < `end_lsn` is
  /// durable per the configured mode (kNever: returns immediately). Any
  /// LSN works, boundary or not: the target itself requests a sync.
  Status WaitDurable(std::uint64_t end_lsn);

  /// Forces records with LSN < `end_lsn` onto disk now, bypassing the group
  /// flush interval (checkpointer / shutdown path). In kNever mode this
  /// waits for the write but still skips the fsync.
  Status Flush(std::uint64_t end_lsn);

  /// Deletes whole segments lying entirely below `lsn`. The newest segment
  /// is never deleted. Returns the new base LSN (start of the oldest
  /// retained segment).
  Result<std::uint64_t> TruncateBelow(std::uint64_t lsn);

  /// Flushes everything queued and stops the writer. Idempotent.
  void Close();

  std::uint64_t base_lsn() const;
  std::uint64_t flushed_end() const;  // watermark: all LSNs < this are flushed
  std::uint64_t next_lsn() const;
  Counters counters() const;

  /// Installs the flush listener, called with the new flushed watermark
  /// each time it advances, and right away with the current one. It runs
  /// under the log's mutex, so calls arrive in watermark order and none
  /// runs after Close returns; it must be cheap and must not call back
  /// into this log.
  void SetFlushListener(std::function<void(std::uint64_t)> listener);

  /// Test hook, called at crash-injection points on the flushing thread.
  /// Set once right after Open, before any Append.
  void SetCrashHook(std::function<void(CrashPoint)> hook) {
    crash_hook_ = std::move(hook);
  }

 private:
  struct PendingRecord {
    std::uint64_t lsn;
    LogRecord record;
  };

  explicit DurableLog(Options opts) : opts_(std::move(opts)) {}

  void WriterLoop();
  /// Registers a sync request for every LSN < `end`, starting the linger
  /// clock if no request was outstanding. Returns false when an earlier
  /// request already covers `end`. Must be called with mu_ held.
  bool RequestSyncLocked(std::uint64_t end,
                         std::chrono::steady_clock::time_point now);
  /// True when the writer has something to write now: a sync request or
  /// the byte cap. Must be called with mu_ held.
  bool WriteDueLocked() const;
  /// Dequeues pending records with LSN < `end`, stopping once the batch
  /// holds `max_bytes` (approximate encoded size). mu_ held.
  std::vector<PendingRecord> TakePendingLocked(std::uint64_t end,
                                               std::size_t max_bytes);
  /// Raises the flushed watermark and tells the listener. mu_ held.
  void AdvanceFlushedLocked(std::uint64_t end);
  /// Blocks until the watermark reaches `end_lsn`, an I/O error sticks, or
  /// the log closes.
  Status WaitFlushedLocked(std::unique_lock<std::mutex>& lock,
                           std::uint64_t end_lsn);
  /// Encodes and writes `batch` to the active segment (rotating at quiesced
  /// boundaries), then fsyncs per mode. Called by the writer thread, or
  /// under io_mu_ in kAlways mode.
  Status WriteBatch(const std::vector<PendingRecord>& batch);
  Status RotateLocked(std::uint64_t next_lsn);
  Status InlineFlush(std::uint64_t end_lsn);  // kAlways path
  void Fire(CrashPoint p) {
    if (crash_hook_) crash_hook_(p);
  }

  const Options opts_;
  std::function<void(CrashPoint)> crash_hook_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // wakes the writer
  std::condition_variable flush_cv_;  // wakes WaitDurable/Flush waiters
  std::deque<PendingRecord> pending_;
  std::size_t pending_bytes_ = 0;  // approximate encoded size of pending_
  std::uint64_t next_lsn_ = 0;     // next append LSN
  std::uint64_t flushed_end_ = 0;  // all LSNs < this are on disk
  std::uint64_t sync_end_ = 0;     // highest requested end (boundary/wait)
  // When the oldest request not yet taken by the writer arrived: the
  // linger origin. Meaningful only while sync_end_ is above pending_'s head.
  std::chrono::steady_clock::time_point sync_since_;
  std::uint64_t flush_target_ = 0;  // writer skips the linger below this
  std::function<void(std::uint64_t)> flush_listener_;
  Status io_status_;               // sticky first I/O failure
  bool stop_ = false;

  std::mutex io_mu_;     // serializes inline flushes in kAlways mode
  std::mutex trunc_mu_;  // serializes TruncateBelow calls
  // Flusher-only state (writer thread, or io_mu_ holder in kAlways mode).
  int seg_fd_ = -1;
  std::uint64_t seg_start_lsn_ = 0;
  std::size_t seg_bytes_ = 0;
  std::uint64_t records_seen_ = 0;     // non-update records written, total
  std::int64_t open_txns_ = 0;         // starts minus commit/aborts written
  std::uint64_t base_lsn_ = 0;

  std::thread writer_;

  // Counters (mutated by the flusher; read from stats threads).
  std::atomic<std::uint64_t> c_fsyncs_{0};
  std::atomic<std::uint64_t> c_records_flushed_{0};
  std::atomic<std::uint64_t> c_flush_batches_{0};
  std::atomic<std::uint64_t> c_max_group_{0};
  std::atomic<std::uint64_t> c_bytes_truncated_{0};
  std::atomic<std::uint64_t> c_segments_{0};
};

/// Parses "<decimal>.seg" segment file names; returns false otherwise.
bool ParseSegmentName(const std::string& name, std::uint64_t* start_lsn);

/// Formats a segment file name for `start_lsn` (zero-padded for sort order).
std::string SegmentName(std::uint64_t start_lsn);

/// Parses a knob string ("always" | "group" | "never") into an FsyncMode;
/// returns false on anything else, leaving *mode untouched.
bool ParseFsyncMode(const std::string& name, DurableLog::FsyncMode* mode);

}  // namespace wal
}  // namespace lazysi

#endif  // LAZYSI_WAL_DURABLE_LOG_H_
