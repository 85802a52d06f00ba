#include "replication/propagator.h"

#include <algorithm>
#include <bit>
#include <condition_variable>

#include "common/logging.h"

namespace lazysi {
namespace replication {

Propagator::Propagator(wal::LogicalLog* log, PropagatorOptions options)
    : log_(log), options_(options) {}

Propagator::~Propagator() { Stop(); }

namespace {

/// Applies a sink's coverage filter to one record in place: commits keep
/// only covered updates and count the dropped ones in `filtered`; starts
/// and aborts pass through untouched.
void FilterRecordInPlace(PropagationRecord* record, const SinkFilter& filter) {
  auto* commit = std::get_if<PropCommit>(record);
  if (commit == nullptr) return;
  std::vector<storage::Write> kept;
  kept.reserve(commit->updates.size());
  for (auto& w : commit->updates) {
    if (filter.CoversKey(w.key)) {
      kept.push_back(std::move(w));
    } else {
      ++commit->filtered;
    }
  }
  commit->updates = std::move(kept);
}

}  // namespace

std::uint64_t Propagator::AttachSink(BlockingQueue<PropagationRecord>* sink,
                                     SinkFilter filter) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(SinkEntry{sink, std::move(filter)});
  return records_broadcast_.load(std::memory_order_relaxed);
}

Result<std::uint64_t> Propagator::AttachSinkAt(
    BlockingQueue<PropagationRecord>* sink, std::size_t from_lsn,
    SinkFilter filter) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t upto = position_.load(std::memory_order_acquire);
  if (from_lsn > upto) {
    return Status::InvalidArgument("from_lsn is ahead of the propagator");
  }
  // Global sequence number of the first replayed record: every non-update
  // log record below from_lsn produced exactly one propagation record. Count
  // forward from the nearest recorded sync point at or below from_lsn (both
  // map components ascend) instead of rescanning the log from LSN 0, so the
  // cost is O(sync points + resync window), not O(log size).
  std::uint64_t base_seq = 0;
  std::size_t base_lsn = 0;
  for (const auto& [seq, lsn] : sync_points_) {
    if (lsn > from_lsn) break;
    base_seq = seq;
    base_lsn = lsn;
  }
  for (std::size_t lsn = base_lsn; lsn < from_lsn; ++lsn) {
    auto rec = log_->At(lsn);
    if (!rec.has_value()) {
      return Status::Internal("log truncated below propagator position");
    }
    if (rec->type != wal::LogRecordType::kUpdate) ++base_seq;
  }
  // Rebuild update lists from the log slice and emit the records this sink
  // missed. A commit whose start record is not inside the slice means the
  // checkpoint was not quiesced.
  std::map<TxnId, std::vector<storage::Write>> lists;
  std::vector<PropagationRecord> replay;
  for (std::size_t lsn = from_lsn; lsn < upto; ++lsn) {
    auto rec = log_->At(lsn);
    if (!rec.has_value()) {
      return Status::Internal("log truncated below propagator position");
    }
    switch (rec->type) {
      case wal::LogRecordType::kStart:
        lists[rec->txn_id];  // mark txn as started inside the slice
        replay.push_back(
            PropStart{rec->txn_id, rec->timestamp, base_seq + replay.size()});
        break;
      case wal::LogRecordType::kUpdate:
        if (!lists.count(rec->txn_id)) {
          return Status::FailedPrecondition(
              "checkpoint LSN is not quiesced: update of a transaction "
              "started before the checkpoint");
        }
        lists[rec->txn_id].push_back(storage::Write{
            rec->key, rec->value, rec->deleted});
        break;
      case wal::LogRecordType::kCommit: {
        auto it = lists.find(rec->txn_id);
        if (it == lists.end()) {
          return Status::FailedPrecondition(
              "checkpoint LSN is not quiesced: commit of a transaction "
              "started before the checkpoint");
        }
        replay.push_back(PropCommit{rec->txn_id, rec->timestamp,
                                    std::move(it->second),
                                    base_seq + replay.size()});
        lists.erase(it);
        break;
      }
      case wal::LogRecordType::kAbort:
        lists.erase(rec->txn_id);
        replay.push_back(PropAbort{rec->txn_id, base_seq + replay.size()});
        break;
    }
  }
  if (filter.active()) {
    for (auto& record : replay) FilterRecordInPlace(&record, filter);
  }
  sink->PushAll(std::move(replay));
  sinks_.push_back(SinkEntry{sink, std::move(filter)});
  return base_seq;
}

Propagator::SyncPoint Propagator::SyncPointAtOrBefore(
    std::uint64_t record_seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sync_points_.upper_bound(record_seq);
  if (it == sync_points_.begin()) {
    // record_seq predates every retained point (possible after truncation
    // on a recovered primary): return the oldest one; the caller notices
    // the returned seq is ahead of what it asked for.
    return SyncPoint{it->second, it->first};
  }
  --it;
  return SyncPoint{it->second, it->first};
}

void Propagator::SeedForRecovery(std::size_t base_lsn,
                                 std::uint64_t base_record_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  position_.store(base_lsn, std::memory_order_release);
  records_broadcast_.store(base_record_seq, std::memory_order_relaxed);
  // The truncation floor is always a quiesced point (segment rotation and
  // checkpoints only happen with no transaction in flight), so it replaces
  // the origin as the resync point of last resort.
  sync_points_.clear();
  sync_points_[base_record_seq] = base_lsn;
}

void Propagator::DetachSink(BlockingQueue<PropagationRecord>* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(sinks_, [sink](const SinkEntry& e) { return e.queue == sink; });
}

void Propagator::Start() {
  if (thread_.joinable()) return;
  thread_ = std::jthread([this](std::stop_token stop) { Run(stop); });
}

void Propagator::Stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();
  thread_.join();
}

void Propagator::Run(std::stop_token stop) {
  std::mutex think_mu;
  std::condition_variable_any think_cv;  // only Stop wakes it
  while (!stop.stop_requested()) {
    if (options_.batch_interval.count() > 0) {
      // Batched cycles: think for one propagation delay *before* each drain
      // (Table 1's propagation_delay is the propagator's think time).
      std::unique_lock<std::mutex> lock(think_mu);
      think_cv.wait_for(lock, stop, options_.batch_interval,
                        [] { return false; });
    }
    // Drain everything currently readable, in log order, one burst (and
    // one per-sink PushAll) per lock hold.
    bool drained_any = false;
    while (DrainBurst() > 0) drained_any = true;
    if (options_.batch_interval.count() == 0 && !drained_any &&
        !log_->WaitReadable(position(), stop)) {
      break;  // stopped, or the log closed and is drained
    }
  }
  // Final drain so a Stop after workload completion loses nothing.
  while (DrainBurst() > 0) {
  }
}

std::size_t Propagator::DrainBurst() {
  std::lock_guard<std::mutex> lock(mu_);
  // Sampled once per burst: the readable end only advances, so a stale
  // sample merely under-drains this round.
  const std::size_t limit = log_->ReadableEnd();
  std::size_t consumed = 0;
  while (consumed < kBroadcastBurst) {
    const std::size_t pos = position_.load(std::memory_order_relaxed);
    if (pos >= limit) break;  // not appended, or not durable yet
    auto rec = log_->At(pos);
    if (!rec.has_value()) break;
    ConsumeLocked(*rec);
    ++consumed;
  }
  FlushBurstLocked();
  return consumed;
}

void Propagator::ConsumeLocked(const wal::LogRecord& record) {
  switch (record.type) {
    case wal::LogRecordType::kStart:
      update_lists_[record.txn_id];
      BufferLocked(PropStart{record.txn_id, record.timestamp});
      break;
    case wal::LogRecordType::kUpdate:
      update_lists_[record.txn_id].push_back(
          storage::Write{record.key, record.value, record.deleted});
      break;
    case wal::LogRecordType::kCommit: {
      auto it = update_lists_.find(record.txn_id);
      std::vector<storage::Write> updates;
      if (it != update_lists_.end()) {
        updates = std::move(it->second);
        update_lists_.erase(it);
      }
      BufferLocked(
          PropCommit{record.txn_id, record.timestamp, std::move(updates)});
      commits_propagated_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case wal::LogRecordType::kAbort:
      update_lists_.erase(record.txn_id);
      BufferLocked(PropAbort{record.txn_id});
      break;
  }
  position_.fetch_add(1, std::memory_order_release);
  if (update_lists_.empty()) {
    // No transaction spans the new position: remember it as a quiesced
    // resync target for reconnecting channels.
    sync_points_[records_broadcast_.load(std::memory_order_relaxed)] =
        position_.load(std::memory_order_relaxed);
    if (sync_points_.size() > sync_point_limit_) CompactSyncPointsLocked();
  }
}

void Propagator::CompactSyncPointsLocked() {
  // A receiver far behind the head must still resync from near its own
  // position: dropping the oldest points instead would send every resync
  // from beyond the retained window back to the origin, replaying the
  // whole backlog after each cut.
  const std::uint64_t head = sync_points_.rbegin()->first;
  int prev_level = -1;
  std::uint64_t prev_bucket = 0;
  for (auto it = std::next(sync_points_.begin()); it != sync_points_.end();) {
    const std::uint64_t age = head - it->first;
    const int level =
        age < kSyncPointDensity
            ? 0
            : static_cast<int>(std::bit_width(age / kSyncPointDensity)) - 1;
    const std::uint64_t bucket = it->first >> level;
    if (level == prev_level && bucket == prev_bucket) {
      it = sync_points_.erase(it);
      continue;
    }
    prev_level = level;
    prev_bucket = bucket;
    ++it;
  }
  // Amortized: the next pass waits until the map has doubled again.
  sync_point_limit_ =
      std::max(kSyncPointCompactionThreshold, 2 * sync_points_.size());
}

void Propagator::BufferLocked(PropagationRecord record) {
  // Counted at buffering time: the flush happens under the same mu_ hold, so
  // a sink attached afterwards (AttachSink also takes mu_) starts exactly at
  // the post-burst sequence number it will first observe. The pre-increment
  // value is also the record's stream position, stamped into the record so
  // receivers can spot discontinuities after the wire and transport layers
  // have had their way with the batch framing.
  const std::uint64_t seq =
      records_broadcast_.fetch_add(1, std::memory_order_relaxed);
  std::visit([seq](auto& r) { r.seq = seq; }, record);
  burst_.push_back(std::move(record));
}

void Propagator::FlushBurstLocked() {
  if (burst_.empty()) return;
  if (sinks_.size() == 1 && !sinks_[0].filter.active()) {
    sinks_[0].queue->PushAll(std::move(burst_));
  } else {
    for (auto& sink : sinks_) {
      if (!sink.filter.active()) {
        sink.queue->PushAll(burst_);
        continue;
      }
      // Filtered sinks get their own copy with uncovered updates dropped;
      // the shared burst_ stays intact for the remaining sinks.
      std::vector<PropagationRecord> filtered = burst_;
      for (auto& record : filtered) FilterRecordInPlace(&record, sink.filter);
      sink.queue->PushAll(std::move(filtered));
    }
  }
  burst_.clear();
}

}  // namespace replication
}  // namespace lazysi
