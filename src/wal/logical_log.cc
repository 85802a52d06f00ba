#include "wal/logical_log.h"

#include <algorithm>

namespace lazysi {
namespace wal {

std::size_t LogicalLog::Append(LogRecord record) {
  std::size_t lsn;
  bool readable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lsn = base_lsn_ + records_.size();
    records_.push_back(std::move(record));
    readable = !gated_;  // a gated record waits for SetDurableEnd
  }
  if (readable) cv_.notify_all();
  return lsn;
}

std::size_t LogicalLog::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_ + records_.size();
}

std::size_t LogicalLog::base_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_;
}

void LogicalLog::ResetBase(std::size_t base) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!records_.empty() || base_lsn_ != 0) return;
  base_lsn_ = base;
}

void LogicalLog::TruncateBelow(std::size_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t end = base_lsn_ + records_.size();
  if (lsn > end) lsn = end;
  while (base_lsn_ < lsn) {
    records_.pop_front();
    ++base_lsn_;
  }
}

std::optional<LogRecord> LogicalLog::At(std::size_t lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (lsn < base_lsn_ || lsn - base_lsn_ >= records_.size()) {
    return std::nullopt;
  }
  return records_[lsn - base_lsn_];
}

void LogicalLog::SetDurableEnd(std::size_t end) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    durable_end_ = gated_ ? std::max(durable_end_, end) : end;
    gated_ = true;
  }
  cv_.notify_all();
}

std::size_t LogicalLog::ReadableEnd() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadableEndLocked();
}

std::size_t LogicalLog::ReadableEndLocked() const {
  const std::size_t size = base_lsn_ + records_.size();
  return gated_ ? std::min(size, durable_end_) : size;
}

bool LogicalLog::WaitReadable(std::size_t lsn, std::stop_token stop) const {
  // The callback takes mu_, so a stop request cannot slip in between the
  // predicate check and the wait. It is registered before mu_ is locked
  // (it runs at once if a stop was already requested) and outlives `lock`.
  std::stop_callback wake(stop, [this] {
    std::lock_guard<std::mutex> guard(mu_);
    cv_.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return lsn < ReadableEndLocked() || stop.stop_requested() ||
           (closed_ && lsn >= base_lsn_ + records_.size());
  });
  return lsn < ReadableEndLocked();
}

void LogicalLog::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::string LogicalLog::EncodeFrom(std::size_t from) const {
  // Snapshot the range under the lock, encode outside it: serialization is
  // O(total bytes) and must not stall Append or blocked cursors.
  std::vector<LogRecord> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (from < base_lsn_) from = base_lsn_;
    if (from > base_lsn_ + records_.size()) from = base_lsn_ + records_.size();
    snapshot.assign(records_.begin() +
                        static_cast<std::ptrdiff_t>(from - base_lsn_),
                    records_.end());
  }
  std::string out;
  for (const auto& record : snapshot) {
    record.EncodeTo(&out);
  }
  return out;
}

Result<std::vector<LogRecord>> LogicalLog::DecodeAll(const std::string& data) {
  std::vector<LogRecord> out;
  std::size_t offset = 0;
  while (offset < data.size()) {
    auto rec = LogRecord::Decode(data, &offset);
    if (!rec.ok()) return rec.status();
    out.push_back(std::move(rec).value());
  }
  return out;
}

}  // namespace wal
}  // namespace lazysi
