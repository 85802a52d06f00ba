#include "wal/durable_log.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/logging.h"

namespace lazysi {
namespace wal {

namespace {

constexpr char kSegmentMagic[] = "LZSIWAL1";
constexpr std::size_t kMagicSize = 8;
constexpr std::size_t kHeaderSize = kMagicSize + 8 + 8;
constexpr std::size_t kFrameHeaderSize = 8;  // LE32 len + LE32 crc

void AppendLE32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t ReadLE32(const std::string& data, std::size_t offset) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(data[offset + i]))
         << (8 * i);
  }
  return v;
}

void AppendLE64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t ReadLE64(const std::string& data, std::size_t offset) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data[offset + i]))
         << (8 * i);
  }
  return v;
}

Status WriteAll(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("log write: ") +
                              std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

std::size_t ApproxEncodedSize(const LogRecord& r) {
  return kFrameHeaderSize + 24 + r.key.size() + r.value.size();
}

bool IsUpdate(const LogRecord& r) {
  return r.type == LogRecordType::kUpdate;
}

bool IsBoundary(const LogRecord& r) {
  return r.type == LogRecordType::kCommit || r.type == LogRecordType::kAbort;
}

}  // namespace

bool ParseFsyncMode(const std::string& name, DurableLog::FsyncMode* mode) {
  if (name == "always") {
    *mode = DurableLog::FsyncMode::kAlways;
  } else if (name == "group") {
    *mode = DurableLog::FsyncMode::kGroup;
  } else if (name == "never") {
    *mode = DurableLog::FsyncMode::kNever;
  } else {
    return false;
  }
  return true;
}

std::string SegmentName(std::uint64_t start_lsn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu.seg",
                static_cast<unsigned long long>(start_lsn));
  return buf;
}

bool ParseSegmentName(const std::string& name, std::uint64_t* start_lsn) {
  if (name.size() < 5 || name.substr(name.size() - 4) != ".seg") return false;
  std::uint64_t lsn = 0;
  for (std::size_t i = 0; i + 4 < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    lsn = lsn * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  *start_lsn = lsn;
  return true;
}

Result<std::unique_ptr<DurableLog>> DurableLog::Open(const Options& opts,
                                                     Recovered* recovered) {
  *recovered = Recovered{};
  LAZYSI_RETURN_NOT_OK(EnsureDirectory(opts.dir));

  // Enumerate segments, oldest first.
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  {
    DIR* d = ::opendir(opts.dir.c_str());
    if (d == nullptr) {
      return Status::Internal("opendir " + opts.dir + ": " +
                              std::strerror(errno));
    }
    struct dirent* ent;
    while ((ent = ::readdir(d)) != nullptr) {
      std::uint64_t start = 0;
      if (ParseSegmentName(ent->d_name, &start)) {
        segments.emplace_back(start, opts.dir + "/" + ent->d_name);
      }
    }
    ::closedir(d);
  }
  std::sort(segments.begin(), segments.end());

  auto log = std::unique_ptr<DurableLog>(new DurableLog(opts));
  const bool do_sync = opts.fsync_mode != FsyncMode::kNever;

  // A crash can leave the newest segment with a torn header (created but
  // never fully written). It then holds no records at all: the log ends at
  // the previous segment, so drop the stub before picking the active one.
  while (!segments.empty()) {
    std::string contents;
    Status read = ReadWholeFile(segments.back().second, &contents);
    if (!read.ok()) return read;
    if (contents.size() >= kHeaderSize &&
        std::memcmp(contents.data(), kSegmentMagic, kMagicSize) == 0) {
      break;
    }
    LAZYSI_WARN("durable_log: dropping torn segment stub "
                << segments.back().second);
    ::unlink(segments.back().second.c_str());
    recovered->tail_truncated = true;
    segments.pop_back();
  }

  std::uint64_t expected_lsn = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const bool last = (i + 1 == segments.size());
    const std::string& path = segments[i].second;
    std::string contents;
    LAZYSI_RETURN_NOT_OK(ReadWholeFile(path, &contents));
    if (contents.size() < kHeaderSize ||
        std::memcmp(contents.data(), kSegmentMagic, kMagicSize) != 0) {
      return Status::InvalidArgument("bad segment header: " + path);
    }
    const std::uint64_t start_lsn = ReadLE64(contents, kMagicSize);
    const std::uint64_t start_seq = ReadLE64(contents, kMagicSize + 8);
    if (start_lsn != segments[i].first) {
      return Status::InvalidArgument("segment name/header mismatch: " + path);
    }
    if (i == 0) {
      recovered->base_lsn = start_lsn;
      recovered->base_record_seq = start_seq;
      expected_lsn = start_lsn;
    }
    if (start_lsn != expected_lsn) {
      return Status::InvalidArgument(
          "segment gap: " + path + " starts at " + std::to_string(start_lsn) +
          ", expected " + std::to_string(expected_lsn));
    }

    std::size_t offset = kHeaderSize;
    std::size_t good_end = offset;
    while (offset < contents.size()) {
      Status frame_status = Status::OK();
      if (offset + kFrameHeaderSize > contents.size()) {
        frame_status = Status::InvalidArgument("short frame header");
      } else {
        const std::uint32_t len = ReadLE32(contents, offset);
        const std::uint32_t want_crc = ReadLE32(contents, offset + 4);
        if (offset + kFrameHeaderSize + len > contents.size()) {
          frame_status = Status::InvalidArgument("short frame payload");
        } else {
          const std::string payload =
              contents.substr(offset + kFrameHeaderSize, len);
          if (Crc32c(payload) != want_crc) {
            frame_status = Status::InvalidArgument("frame crc mismatch");
          } else {
            std::size_t rec_off = 0;
            auto rec = LogRecord::Decode(payload, &rec_off);
            if (!rec.ok() || rec_off != payload.size()) {
              frame_status = Status::InvalidArgument("frame decode failure");
            } else {
              recovered->records.push_back(std::move(rec).value());
              offset += kFrameHeaderSize + len;
              good_end = offset;
              continue;
            }
          }
        }
      }
      // Torn or corrupt frame.
      if (!last) {
        return Status::InvalidArgument("torn record in non-final segment " +
                                       path + ": " + frame_status.message());
      }
      LAZYSI_WARN("durable_log: truncating torn tail of "
                  << path << " at offset " << good_end << " ("
                  << frame_status.message() << ")");
      const int fd = ::open(path.c_str(), O_RDWR);
      if (fd < 0) {
        return Status::Internal("open " + path + ": " + std::strerror(errno));
      }
      if (::ftruncate(fd, static_cast<off_t>(good_end)) != 0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        return Status::Internal("ftruncate " + path + ": " + err);
      }
      if (do_sync) ::fsync(fd);
      ::close(fd);
      contents.resize(good_end);
      recovered->tail_truncated = true;
      break;
    }
    expected_lsn = recovered->base_lsn + recovered->records.size();
    if (last) {
      log->seg_start_lsn_ = start_lsn;
      log->seg_bytes_ = contents.size();
    }
  }

  log->base_lsn_ = recovered->base_lsn;
  log->next_lsn_ = recovered->base_lsn + recovered->records.size();
  log->flushed_end_ = log->next_lsn_;
  log->records_seen_ = recovered->base_record_seq;
  for (const auto& r : recovered->records) {
    if (!IsUpdate(r)) ++log->records_seen_;
    if (r.type == LogRecordType::kStart) {
      ++log->open_txns_;
    } else if (IsBoundary(r)) {
      --log->open_txns_;
    }
  }

  if (segments.empty()) {
    // Fresh log: create the first segment eagerly so the active fd always
    // exists.
    LAZYSI_RETURN_NOT_OK(log->RotateLocked(0));
  } else {
    const std::string path = opts.dir + "/" + SegmentName(log->seg_start_lsn_);
    log->seg_fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (log->seg_fd_ < 0) {
      return Status::Internal("open " + path + ": " + std::strerror(errno));
    }
  }

  if (opts.fsync_mode != FsyncMode::kAlways) {
    log->writer_ = std::thread(&DurableLog::WriterLoop, log.get());
  }
  return log;
}

DurableLog::~DurableLog() { Close(); }

void DurableLog::Append(std::uint64_t lsn, const LogRecord& record) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(PendingRecord{lsn, record});
    pending_bytes_ += ApproxEncodedSize(record);
    next_lsn_ = lsn + 1;
    if (IsBoundary(record)) {
      RequestSyncLocked(lsn + 1, std::chrono::steady_clock::now());
    }
    // A start or update record wakes the writer only when a waiter's
    // target already covers it, or at the byte cap.
    wake = lsn < sync_end_ || pending_bytes_ >= opts_.max_group_bytes;
  }
  if (wake) cv_.notify_all();
}

bool DurableLog::RequestSyncLocked(std::uint64_t end,
                                   std::chrono::steady_clock::time_point now) {
  if (end <= sync_end_) return false;
  const std::uint64_t head = pending_.empty() ? next_lsn_ : pending_.front().lsn;
  if (sync_end_ <= head) sync_since_ = now;  // no request outstanding
  sync_end_ = end;
  return true;
}

bool DurableLog::WriteDueLocked() const {
  if (pending_.empty()) return false;
  return std::max(sync_end_, flush_target_) > pending_.front().lsn ||
         pending_bytes_ >= opts_.max_group_bytes;
}

std::vector<DurableLog::PendingRecord> DurableLog::TakePendingLocked(
    std::uint64_t end, std::size_t max_bytes) {
  std::vector<PendingRecord> batch;
  std::size_t bytes = 0;
  while (!pending_.empty() && pending_.front().lsn < end && bytes < max_bytes) {
    bytes += ApproxEncodedSize(pending_.front().record);
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  pending_bytes_ -= bytes;
  return batch;
}

void DurableLog::AdvanceFlushedLocked(std::uint64_t end) {
  if (end <= flushed_end_) return;
  flushed_end_ = end;
  if (flush_listener_) flush_listener_(flushed_end_);
}

void DurableLog::SetFlushListener(
    std::function<void(std::uint64_t)> listener) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_listener_ = std::move(listener);
  if (flush_listener_) flush_listener_(flushed_end_);
}

Status DurableLog::RotateLocked(std::uint64_t next_lsn) {
  const bool do_sync = opts_.fsync_mode != FsyncMode::kNever;
  if (seg_fd_ >= 0) {
    if (do_sync) {
      ::fdatasync(seg_fd_);
      c_fsyncs_.fetch_add(1, std::memory_order_relaxed);
    }
    ::close(seg_fd_);
    seg_fd_ = -1;
  }
  const std::string path = opts_.dir + "/" + SegmentName(next_lsn);
  seg_fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0644);
  if (seg_fd_ < 0) {
    return Status::Internal("create segment " + path + ": " +
                            std::strerror(errno));
  }
  std::string header(kSegmentMagic, kMagicSize);
  AppendLE64(&header, next_lsn);
  AppendLE64(&header, records_seen_);
  LAZYSI_RETURN_NOT_OK(WriteAll(seg_fd_, header.data(), header.size()));
  if (do_sync) {
    // Make the segment's directory entry durable before any frame lands in
    // it; otherwise recovery could find frames in a file that "does not
    // exist" yet.
    LAZYSI_RETURN_NOT_OK(FsyncDirectory(opts_.dir));
  }
  seg_start_lsn_ = next_lsn;
  seg_bytes_ = kHeaderSize;
  c_segments_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DurableLog::WriteBatch(const std::vector<PendingRecord>& batch) {
  if (batch.empty()) return Status::OK();
  std::string buf;
  for (const auto& p : batch) {
    // Rotate only at quiesced boundaries (no transaction spans the cut), so
    // every segment header is a valid replay base and sync point.
    if (seg_bytes_ + buf.size() >= opts_.segment_target_bytes &&
        open_txns_ == 0) {
      LAZYSI_RETURN_NOT_OK(WriteAll(seg_fd_, buf.data(), buf.size()));
      seg_bytes_ += buf.size();
      buf.clear();
      LAZYSI_RETURN_NOT_OK(RotateLocked(p.lsn));
    }
    std::string payload;
    p.record.EncodeTo(&payload);
    AppendLE32(&buf, static_cast<std::uint32_t>(payload.size()));
    AppendCrc32(&buf, Crc32c(payload));
    buf += payload;
    if (p.record.type == LogRecordType::kStart) {
      ++open_txns_;
    } else if (IsBoundary(p.record)) {
      --open_txns_;
    }
    if (!IsUpdate(p.record)) ++records_seen_;
  }
  LAZYSI_RETURN_NOT_OK(WriteAll(seg_fd_, buf.data(), buf.size()));
  seg_bytes_ += buf.size();
  Fire(CrashPoint::kAfterWrite);
  if (opts_.fsync_mode != FsyncMode::kNever) {
    if (::fdatasync(seg_fd_) != 0) {
      return Status::Internal(std::string("fdatasync: ") +
                              std::strerror(errno));
    }
    c_fsyncs_.fetch_add(1, std::memory_order_relaxed);
    Fire(CrashPoint::kAfterFsync);
  }
  c_records_flushed_.fetch_add(batch.size(), std::memory_order_relaxed);
  c_flush_batches_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t prev = c_max_group_.load(std::memory_order_relaxed);
  while (batch.size() > prev &&
         !c_max_group_.compare_exchange_weak(prev, batch.size(),
                                             std::memory_order_relaxed)) {
  }
  return Status::OK();
}

void DurableLog::WriterLoop() {
  for (;;) {
    std::vector<PendingRecord> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || WriteDueLocked(); });
      if (pending_.empty()) return;  // stopped with nothing left to write
      if (!stop_ && opts_.fsync_mode == FsyncMode::kGroup &&
          opts_.group_flush_interval.count() > 0) {
        // Linger from the oldest unsynced boundary so concurrent committers
        // can pile into the same fsync. An explicit Flush() target, the
        // byte cap, or shutdown cuts the linger short.
        cv_.wait_until(lock, sync_since_ + opts_.group_flush_interval, [&] {
          return stop_ || flush_target_ > pending_.front().lsn ||
                 pending_bytes_ >= opts_.max_group_bytes;
        });
      }
      // Everything up to the highest requested end, in batches of at most
      // max_group_bytes; at the byte cap (or shutdown), whatever is queued.
      const bool take_all =
          stop_ || pending_bytes_ >= opts_.max_group_bytes;
      batch = TakePendingLocked(
          take_all ? UINT64_MAX : std::max(sync_end_, flush_target_),
          opts_.max_group_bytes);
    }
    Status s = WriteBatch(batch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!s.ok()) {
        if (io_status_.ok()) io_status_ = s;
        LAZYSI_ERROR("durable_log: writer error: " << s.ToString());
      } else {
        AdvanceFlushedLocked(batch.back().lsn + 1);
      }
    }
    flush_cv_.notify_all();
  }
}

Status DurableLog::InlineFlush(std::uint64_t end_lsn) {
  std::lock_guard<std::mutex> io(io_mu_);
  std::vector<PendingRecord> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!io_status_.ok()) return io_status_;
    if (flushed_end_ >= end_lsn) return Status::OK();
    end_lsn = std::min(end_lsn, next_lsn_);
    batch = TakePendingLocked(end_lsn, SIZE_MAX);
  }
  Status s = WriteBatch(batch);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!s.ok()) {
      if (io_status_.ok()) io_status_ = s;
      return s;
    }
    AdvanceFlushedLocked(end_lsn);
  }
  flush_cv_.notify_all();
  return Status::OK();
}

Status DurableLog::WaitDurable(std::uint64_t end_lsn) {
  switch (opts_.fsync_mode) {
    case FsyncMode::kNever:
      return Status::OK();
    case FsyncMode::kAlways:
      return InlineFlush(end_lsn);
    case FsyncMode::kGroup:
      break;
  }
  std::unique_lock<std::mutex> lock(mu_);
  // A commit's own record already requested its sync; only a target past
  // every queued boundary needs to wake the writer.
  if (flushed_end_ < end_lsn &&
      RequestSyncLocked(end_lsn, std::chrono::steady_clock::now())) {
    cv_.notify_all();
  }
  return WaitFlushedLocked(lock, end_lsn);
}

Status DurableLog::Flush(std::uint64_t end_lsn) {
  if (opts_.fsync_mode == FsyncMode::kAlways) return InlineFlush(end_lsn);
  std::unique_lock<std::mutex> lock(mu_);
  end_lsn = std::min(end_lsn, next_lsn_);
  if (end_lsn > flush_target_) {
    flush_target_ = end_lsn;
    cv_.notify_all();
  }
  return WaitFlushedLocked(lock, end_lsn);
}

Status DurableLog::WaitFlushedLocked(std::unique_lock<std::mutex>& lock,
                                     std::uint64_t end_lsn) {
  flush_cv_.wait(lock, [&] {
    return flushed_end_ >= end_lsn || !io_status_.ok() || stop_;
  });
  if (flushed_end_ >= end_lsn) return Status::OK();
  if (!io_status_.ok()) return io_status_;
  return Status::Unavailable("durable log closed");
}

Result<std::uint64_t> DurableLog::TruncateBelow(std::uint64_t lsn) {
  std::lock_guard<std::mutex> io(trunc_mu_);
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  {
    DIR* d = ::opendir(opts_.dir.c_str());
    if (d == nullptr) {
      return Status::Internal("opendir " + opts_.dir + ": " +
                              std::strerror(errno));
    }
    struct dirent* ent;
    while ((ent = ::readdir(d)) != nullptr) {
      std::uint64_t start = 0;
      if (ParseSegmentName(ent->d_name, &start)) {
        segments.emplace_back(start, opts_.dir + "/" + ent->d_name);
      }
    }
    ::closedir(d);
  }
  std::sort(segments.begin(), segments.end());
  bool deleted = false;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    // A segment is disposable when its successor starts at or below the
    // floor: every record in it is then < lsn.
    if (segments[i + 1].first > lsn) break;
    struct stat st;
    if (::stat(segments[i].second.c_str(), &st) == 0) {
      c_bytes_truncated_.fetch_add(static_cast<std::uint64_t>(st.st_size),
                                   std::memory_order_relaxed);
    }
    ::unlink(segments[i].second.c_str());
    segments[i].first = 0;
    segments[i].second.clear();
    deleted = true;
  }
  std::uint64_t new_base = base_lsn();
  for (const auto& seg : segments) {
    if (!seg.second.empty()) {
      new_base = seg.first;
      break;
    }
  }
  if (deleted && opts_.fsync_mode != FsyncMode::kNever) {
    LAZYSI_RETURN_NOT_OK(FsyncDirectory(opts_.dir));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    base_lsn_ = new_base;
  }
  return new_base;
}

void DurableLog::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
  }
  // Flush whatever is queued, then stop the writer.
  std::uint64_t end;
  {
    std::lock_guard<std::mutex> lock(mu_);
    end = next_lsn_;
  }
  (void)Flush(end);  // best effort; io_status_ already records failures
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    flush_listener_ = nullptr;
  }
  cv_.notify_all();
  flush_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (seg_fd_ >= 0) {
    if (opts_.fsync_mode != FsyncMode::kNever) ::fdatasync(seg_fd_);
    ::close(seg_fd_);
    seg_fd_ = -1;
  }
}

std::uint64_t DurableLog::base_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_;
}

std::uint64_t DurableLog::flushed_end() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushed_end_;
}

std::uint64_t DurableLog::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

DurableLog::Counters DurableLog::counters() const {
  Counters c;
  c.fsyncs = c_fsyncs_.load(std::memory_order_relaxed);
  c.records_flushed = c_records_flushed_.load(std::memory_order_relaxed);
  c.flush_batches = c_flush_batches_.load(std::memory_order_relaxed);
  c.max_group_size = c_max_group_.load(std::memory_order_relaxed);
  c.bytes_truncated = c_bytes_truncated_.load(std::memory_order_relaxed);
  c.segments_created = c_segments_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace wal
}  // namespace lazysi
