#include "replication/secondary.h"

#include <algorithm>

#include "common/logging.h"

namespace lazysi {
namespace replication {

Secondary::Secondary(engine::Database* db, SecondaryOptions options)
    : db_(db), options_(options) {
  // Publish the local->primary commit-timestamp translation atomically with
  // version visibility (the hook runs under the engine's timestamp mutex),
  // so any reader whose snapshot includes a refresh commit can translate it.
  db_->SetCommitHook([this](TxnId local_txn, Timestamp local_commit_ts) {
    std::unique_lock lock(translate_mu_);
    auto it = pending_translation_.find(local_txn);
    if (it != pending_translation_.end()) {
      local_to_primary_[local_commit_ts] = it->second;
      // Refresh commits allocate local timestamps in primary-commit order,
      // so appending here keeps the deque ascending in both coordinates.
      primary_local_order_.emplace_back(it->second, local_commit_ts);
      pending_translation_.erase(it);
    }
  });
}

Secondary::~Secondary() { Stop(); }

void Secondary::Start() {
  if (started_) return;
  started_ = true;
  // A restart after Stop() finds every queue closed; reopen them so the new
  // threads actually run instead of exiting immediately while started_
  // claims the site is live. Records broadcast while stopped were dropped by
  // the closed update queue (Section 3.4's failure model) — replication
  // resumes from the next record the propagator pushes.
  update_queue_.Reopen();
  tasks_.Reopen();
  direct_tasks_.Reopen();
  pending_queue_.Reopen();
  refresher_ = std::thread([this] { RefresherLoop(); });
  if (options_.direct_apply) {
    applicators_.emplace_back([this] { DirectApplicatorLoop(); });
  } else {
    applicators_.reserve(kLegacyApplicators);
    for (std::size_t i = 0; i < kLegacyApplicators; ++i) {
      applicators_.emplace_back([this] { ApplicatorLoop(); });
    }
  }
}

void Secondary::Stop() {
  if (!started_) return;
  update_queue_.Close();
  refresher_.join();
  tasks_.Close();
  direct_tasks_.Close();
  pending_queue_.Close();
  // Legacy applicators abort whatever WaitHead hands back after the close;
  // the direct applicator instead drains direct_tasks_ completely (Pop after
  // Close returns queued items), because every queued task's commit record
  // and timestamp are already published and skipping its installation would
  // wedge the visibility watermark below it forever.
  for (auto& t : applicators_) t.join();
  applicators_.clear();
  refresh_txns_.clear();  // aborts leftovers via RAII
  direct_txns_.clear();
  started_ = false;
}

bool Secondary::WaitForSeq(Timestamp seq,
                           std::chrono::milliseconds timeout) const {
  if (applied_seq() >= seq) return true;
  std::unique_lock<std::mutex> lock(seq_mu_);
  return seq_cv_.wait_for(lock, timeout, [&] { return applied_seq() >= seq; });
}

void Secondary::InitializeSeq(Timestamp seq, Timestamp local_install_ts) {
  {
    std::unique_lock lock(translate_mu_);
    local_to_primary_[local_install_ts] = seq;
    // A checkpoint install contains *all* primary commits <= seq, so the
    // (seq, install) pair is a valid bound entry for every snapshot at or
    // below it.
    primary_local_order_.emplace_back(seq, local_install_ts);
  }
  AdvanceSeq(seq);
}

Timestamp Secondary::TranslateLocalToPrimary(Timestamp local_ts) const {
  std::shared_lock lock(translate_mu_);
  auto it = local_to_primary_.find(local_ts);
  return it == local_to_primary_.end() ? kInvalidTimestamp : it->second;
}

std::size_t Secondary::PruneTranslations(Timestamp primary_horizon) {
  std::unique_lock lock(translate_mu_);
  std::size_t erased = 0;
  for (auto it = local_to_primary_.begin(); it != local_to_primary_.end();) {
    if (it->second < primary_horizon) {
      it = local_to_primary_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  // Trim the bound deque too, but keep the newest entry below the horizon as
  // a boundary sentinel: a snapshot between that entry and the horizon still
  // resolves to the exact local bound (only per-version translation below
  // the horizon becomes approximate).
  while (primary_local_order_.size() >= 2 &&
         primary_local_order_[1].first < primary_horizon) {
    primary_local_order_.pop_front();
  }
  return erased;
}

Timestamp Secondary::PrimaryPrefixAtLocal(Timestamp local_snapshot_ts) const {
  std::shared_lock lock(translate_mu_);
  // Last refresh commit with local ts <= the snapshot; both coordinates
  // ascend, so binary search on the local coordinate is valid.
  auto it = std::upper_bound(
      primary_local_order_.begin(), primary_local_order_.end(),
      local_snapshot_ts,
      [](Timestamp ls, const std::pair<Timestamp, Timestamp>& e) {
        return ls < e.second;
      });
  if (it == primary_local_order_.begin()) return 0;
  return std::prev(it)->first;
}

Result<Timestamp> Secondary::LocalBoundForPrimary(
    Timestamp primary_snapshot) const {
  std::shared_lock lock(translate_mu_);
  auto it = std::upper_bound(
      primary_local_order_.begin(), primary_local_order_.end(),
      primary_snapshot,
      [](Timestamp ps, const std::pair<Timestamp, Timestamp>& e) {
        return ps < e.first;
      });
  if (it == primary_local_order_.begin()) {
    if (primary_local_order_.empty()) {
      // No refresh commit ever: the empty local prefix is the exact image of
      // every primary prefix this replica has applied (none).
      return Timestamp(0);
    }
    return Status::FailedPrecondition(
        "primary snapshot below the translation-prune horizon");
  }
  return std::prev(it)->second;
}

Result<Secondary::RemoteRead> Secondary::ReadAtPrimarySnapshot(
    const std::string& key, Timestamp primary_snapshot) {
  if (applied_seq() < primary_snapshot) {
    return Status::Unavailable(
        "secondary has not applied the requested snapshot prefix");
  }
  // applied_seq >= snapshot means every refresh commit with primary ts <=
  // snapshot is appended and visible, so the bound below is at or under the
  // local watermark and BeginAtSnapshot accepts it. The pinned snapshot
  // keeps GC from pruning the versions this read needs.
  auto bound = LocalBoundForPrimary(primary_snapshot);
  if (!bound.ok()) return bound.status();
  auto txn = db_->BeginAtSnapshot(bound.value());
  if (!txn.ok()) return txn.status();
  RemoteRead out;
  auto value = (*txn)->Get(key);
  if (value.ok()) {
    out.found = true;
    out.value = std::move(value).value();
    if (!(*txn)->reads().empty()) {
      out.version_primary_ts =
          TranslateLocalToPrimary((*txn)->reads().back().version_commit_ts);
    }
  } else if (!value.status().IsNotFound()) {
    return value.status();
  }
  (void)(*txn)->Commit();
  remote_reads_served_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<std::vector<Secondary::RemoteScanItem>> Secondary::ScanAtPrimarySnapshot(
    const std::string& begin, const std::string& end,
    Timestamp primary_snapshot) {
  if (applied_seq() < primary_snapshot) {
    return Status::Unavailable(
        "secondary has not applied the requested snapshot prefix");
  }
  auto bound = LocalBoundForPrimary(primary_snapshot);
  if (!bound.ok()) return bound.status();
  auto txn = db_->BeginAtSnapshot(bound.value());
  if (!txn.ok()) return txn.status();
  auto result = (*txn)->Scan(begin, end);
  if (!result.ok()) return result.status();
  // Read-only scans observe exactly the returned keys, in the same sorted
  // order; pair them up to carry each version's primary timestamp out.
  const auto& observations = (*txn)->reads();
  std::vector<RemoteScanItem> out;
  out.reserve(result->size());
  for (std::size_t i = 0; i < result->size(); ++i) {
    RemoteScanItem item;
    item.key = std::move((*result)[i].first);
    item.value = std::move((*result)[i].second);
    if (i < observations.size() && observations[i].key == item.key) {
      item.version_primary_ts =
          TranslateLocalToPrimary(observations[i].version_commit_ts);
    }
    out.push_back(std::move(item));
  }
  (void)(*txn)->Commit();
  remote_reads_served_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void Secondary::CountIncoming(const PropagationRecord& record) {
  const auto* commit = std::get_if<PropCommit>(&record);
  if (commit == nullptr) return;
  if (commit->filtered > 0) {
    records_filtered_.fetch_add(commit->filtered, std::memory_order_relaxed);
  }
  if (!commit->updates.empty()) {
    updates_received_.fetch_add(commit->updates.size(),
                                std::memory_order_relaxed);
    std::uint64_t bytes = 0;
    for (const storage::Write& w : commit->updates) {
      bytes += w.key.size() + w.value.size();
    }
    update_bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
  }
}

std::size_t Secondary::translation_count() const {
  std::shared_lock lock(translate_mu_);
  return local_to_primary_.size() + pending_translation_.size();
}

std::uint64_t Secondary::SampleLoadEstimate() {
  // ewma += (sample - ewma) / 8, in x1024 fixed point so small loads do not
  // truncate to zero steps. Lock-free CAS loop: concurrent samplers each
  // fold in their own observation; losing a race just retries against the
  // fresher estimate. When the quotient truncates to zero the estimate still
  // steps by one toward the sample, so it converges exactly instead of
  // sticking within 7 counts of the target forever.
  const auto sample =
      static_cast<std::uint64_t>(active_reads_.load(std::memory_order_relaxed))
      << 10;
  std::uint64_t prev = load_ewma_.load(std::memory_order_relaxed);
  std::uint64_t next;
  do {
    const auto delta =
        static_cast<std::int64_t>(sample) - static_cast<std::int64_t>(prev);
    auto step = delta / 8;
    if (step == 0 && delta != 0) step = delta > 0 ? 1 : -1;
    next = static_cast<std::uint64_t>(static_cast<std::int64_t>(prev) + step);
  } while (!load_ewma_.compare_exchange_weak(prev, next,
                                             std::memory_order_relaxed));
  return next;
}

void Secondary::AdvanceSeq(Timestamp primary_commit_ts) {
  {
    std::lock_guard<std::mutex> lock(seq_mu_);
    Timestamp current = applied_seq_.load(std::memory_order_relaxed);
    if (primary_commit_ts > current) {
      applied_seq_.store(primary_commit_ts, std::memory_order_release);
    }
  }
  seq_cv_.notify_all();
}

void Secondary::AdvanceSeqToWatermark(Timestamp local_watermark) {
  // seq(DBsec) may only cover refresh commits a reader can already see, so
  // it is driven off the visibility watermark, not off the installed batch:
  // pop every allocated refresh commit the watermark has passed and advance
  // to the newest primary timestamp among them.
  Timestamp newest_primary = kInvalidTimestamp;
  {
    std::lock_guard<std::mutex> lock(visibility_mu_);
    while (!visibility_fifo_.empty() &&
           visibility_fifo_.front().first <= local_watermark) {
      newest_primary = visibility_fifo_.front().second;
      visibility_fifo_.pop_front();
    }
  }
  if (newest_primary != kInvalidTimestamp) AdvanceSeq(newest_primary);
}

void Secondary::RefresherLoop() {
  // Algorithm 3.2. Records are drained in batches — one queue lock
  // round-trip per burst instead of one per record — but still processed
  // strictly in FIFO (= primary log) order, which is what Lemmas 3.1-3.3
  // require of the refresh schedule.
  std::uint64_t expected_seq = 0;
  bool have_expected = false;
  for (;;) {
    std::vector<PropagationRecord> batch =
        update_queue_.PopBatch(kRefresherBatchSize);
    if (batch.empty()) return;  // closed and drained
    bool shutdown = false;
    for (PropagationRecord& record : batch) {
      // The propagator stamps gapless stream positions; a gap or repeat here
      // means a transport or stream join lost or duplicated records.
      const std::uint64_t seq = RecordSeq(record);
      if (have_expected && seq != expected_seq) {
        stream_discontinuities_.fetch_add(1, std::memory_order_relaxed);
        LAZYSI_WARN("secondary: propagation stream discontinuity, expected seq "
                    << expected_seq << " got " << seq);
      }
      expected_seq = seq + 1;
      have_expected = true;
      CountIncoming(record);
      if (options_.direct_apply) {
        DirectRefreshRecord(record);
      } else {
        LegacyRefreshRecord(record, &shutdown);
        if (shutdown) return;
      }
    }
  }
}

void Secondary::DirectRefreshRecord(PropagationRecord& record) {
  txn::TxnManager* tm = db_->txn_manager();
  if (auto* start = std::get_if<PropStart>(&record)) {
    // Emit the local start record immediately — no pending-queue drain. The
    // refresh transaction's snapshot is defined by its position in the log:
    // it sees exactly the refresh commits whose records precede it, which the
    // visibility watermark will have installed before any timestamp at or
    // past this start is handed to a reader. That is the guarantee the old
    // WaitEmpty stall bought, for free.
    const TxnId local_id = tm->AllocateTxnId();
    tm->ExternalStart(local_id);
    direct_txns_[start->txn_id] = local_id;
  } else if (auto* commit = std::get_if<PropCommit>(&record)) {
    const TxnId local_id = ResolveCommitTxn(commit->txn_id);
    auto writes = std::make_unique<storage::WriteSet>();
    for (const storage::Write& w : commit->updates) {
      if (w.deleted) {
        writes->Delete(w.key);
      } else {
        writes->Put(w.key, w.value);
      }
    }
    {
      // Stage the translation before allocating the local commit timestamp:
      // BeginExternalCommit runs the commit hook synchronously, and the hook
      // must find the staged primary timestamp.
      std::unique_lock lock(translate_mu_);
      pending_translation_[local_id] = commit->commit_ts;
    }
    // Local commit timestamps are allocated here, on the single refresher
    // thread, in primary-commit order — local refresh commit order equals
    // primary commit order by construction (Lemma 3.3).
    const Timestamp local_ts = tm->BeginExternalCommit(local_id, *writes);
    {
      std::lock_guard<std::mutex> lock(visibility_mu_);
      visibility_fifo_.emplace_back(local_ts, commit->commit_ts);
    }
    direct_tasks_.Push(
        DirectTask{std::move(writes), local_ts, commit->commit_ts});
  } else if (auto* abort = std::get_if<PropAbort>(&record)) {
    auto abort_it = direct_txns_.find(abort->txn_id);
    if (abort_it != direct_txns_.end()) {
      tm->ExternalAbort(abort_it->second);
      direct_txns_.erase(abort_it);
    }
  }
}

void Secondary::LegacyRefreshRecord(PropagationRecord& record, bool* shutdown) {
  if (auto* start = std::get_if<PropStart>(&record)) {
    // Block until the pending queue is empty so the new refresh
    // transaction's snapshot includes every refresh commit that precedes
    // it in primary order.
    if (!pending_queue_.WaitEmpty()) {
      *shutdown = true;
      return;
    }
    refresh_txns_[start->txn_id] = db_->Begin(/*read_only=*/false);
  } else if (auto* commit = std::get_if<PropCommit>(&record)) {
    std::unique_ptr<txn::Transaction> txn;
    auto it = refresh_txns_.find(commit->txn_id);
    if (it != refresh_txns_.end()) {
      txn = std::move(it->second);
      refresh_txns_.erase(it);
    } else {
      // See the direct-path comment: mid-stream attach without a checkpoint.
      LAZYSI_WARN("secondary: commit without start record, txn="
                  << commit->txn_id);
      if (!pending_queue_.WaitEmpty()) {
        *shutdown = true;
        return;
      }
      txn = db_->Begin(/*read_only=*/false);
    }
    pending_queue_.Append(commit->commit_ts);
    tasks_.Push(ApplyTask{std::move(txn), std::move(commit->updates),
                          commit->commit_ts});
  } else if (auto* abort = std::get_if<PropAbort>(&record)) {
    // Abandon the refresh transaction; Transaction's destructor aborts it.
    refresh_txns_.erase(abort->txn_id);
  }
}

TxnId Secondary::ResolveCommitTxn(TxnId primary_txn_id) {
  txn::TxnManager* tm = db_->txn_manager();
  auto it = direct_txns_.find(primary_txn_id);
  if (it != direct_txns_.end()) {
    const TxnId local_id = it->second;
    direct_txns_.erase(it);
    return local_id;
  }
  // Commit for a transaction whose start record we never saw. This happens
  // only for sinks attached mid-stream without a quiesced checkpoint;
  // recover by starting the refresh transaction now (its updates are value
  // writes, so a later snapshot is safe).
  LAZYSI_WARN("secondary: commit without start record, txn="
              << primary_txn_id);
  const TxnId local_id = tm->AllocateTxnId();
  tm->ExternalStart(local_id);
  return local_id;
}

void Secondary::CountGroupApply(std::size_t batch_size) {
  // The direct applicator is the only writer; readers load concurrently.
  group_applies_.fetch_add(1, std::memory_order_relaxed);
  group_applied_commits_.fetch_add(batch_size, std::memory_order_relaxed);
  if (batch_size > max_group_apply_.load(std::memory_order_relaxed)) {
    max_group_apply_.store(batch_size, std::memory_order_relaxed);
  }
}

void Secondary::DirectApplicatorLoop() {
  // Algorithm 3.3, group-apply form: drain a run of consecutive refresh
  // commits and install all their writes in one store pass. Tasks arrive in
  // local-commit-timestamp order (single refresher producer), so each batch
  // is an increasing run, as ApplyBatch requires.
  for (;;) {
    std::vector<DirectTask> batch = direct_tasks_.PopBatch(kGroupApplyLimit);
    if (batch.empty()) return;  // closed and drained
    std::vector<storage::VersionedStore::TimestampedWrites> installs;
    installs.reserve(batch.size());
    for (const DirectTask& task : batch) {
      installs.push_back({task.writes.get(), task.local_commit_ts});
    }
    db_->store()->ApplyBatch(installs);
    CountGroupApply(batch.size());
    // Mark the whole group installed, then advance seq(DBsec) once: the
    // watermark is monotone, so the last returned value covers everything
    // this batch unblocked.
    Timestamp watermark = kInvalidTimestamp;
    for (const DirectTask& task : batch) {
      watermark = db_->txn_manager()->FinishExternalCommit(task.local_commit_ts);
    }
    refreshed_count_.fetch_add(batch.size(), std::memory_order_relaxed);
    AdvanceSeqToWatermark(watermark);
  }
}

void Secondary::ApplicatorLoop() {
  // Algorithm 3.3, one iteration per task.
  while (auto task = tasks_.Pop()) {
    for (const auto& w : task->updates) {
      Status s = w.deleted ? task->txn->Delete(w.key)
                           : task->txn->Put(w.key, w.value);
      if (!s.ok()) {
        LAZYSI_ERROR("applicator: buffering update failed: " << s);
      }
    }
    // Commit only when our primary commit timestamp reaches the head of the
    // pending queue, so local refresh commit order equals primary commit
    // order (Lemma 3.3).
    if (!pending_queue_.WaitHead(task->commit_ts)) {
      // Shutdown: abandon the refresh transaction.
      task->txn->Abort();
      continue;
    }
    {
      // Stage the translation; the commit hook publishes it under the
      // timestamp mutex when the commit installs its versions.
      std::unique_lock lock(translate_mu_);
      pending_translation_[task->txn->id()] = task->commit_ts;
    }
    Status s = task->txn->Commit();
    if (!s.ok()) {
      // Cannot happen for refresh transactions: concurrent refreshes have
      // disjoint write sets (conflicting primary transactions are never
      // concurrent after FCW at the primary), and the local control is
      // deadlock-free. Surface loudly if the invariant is ever broken.
      LAZYSI_ERROR("applicator: refresh commit failed: " << s);
      std::unique_lock lock(translate_mu_);
      pending_translation_.erase(task->txn->id());
    } else {
      refreshed_count_.fetch_add(1, std::memory_order_relaxed);
      // seq(DBsec) := commit_p(T), then remove from the pending queue
      // (Section 4's ordering: set before delete).
      AdvanceSeq(task->commit_ts);
    }
    pending_queue_.PopHead(task->commit_ts);
  }
}

}  // namespace replication
}  // namespace lazysi
