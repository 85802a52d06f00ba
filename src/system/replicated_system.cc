#include "system/replicated_system.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include "common/logging.h"

namespace lazysi {
namespace system {

// ---------------------------------------------------------------------------
// SystemTransaction

SystemTransaction::SystemTransaction(
    ReplicatedSystem* sys, std::shared_ptr<session::Session> session,
    std::unique_ptr<txn::Transaction> txn, replication::Secondary* secondary,
    SiteId site, bool read_only, std::uint64_t first_op_seq,
    Timestamp snapshot_primary)
    : sys_(sys), session_(std::move(session)), txn_(std::move(txn)),
      secondary_(secondary), site_(site), read_only_(read_only),
      first_op_seq_(first_op_seq), snapshot_primary_(snapshot_primary) {
  if (secondary_ != nullptr) secondary_->OnReadStart();
}

SystemTransaction::~SystemTransaction() {
  if (!finished_) Abort();
}

void SystemTransaction::RecordRead(const std::string& key,
                                   Timestamp local_version_ts, bool found,
                                   bool own_write) {
  if (own_write) return;
  Timestamp primary_ts = local_version_ts;
  if (secondary_ != nullptr && found) {
    // Express the observed version in primary-state coordinates.
    primary_ts = secondary_->TranslateLocalToPrimary(local_version_ts);
  }
  RecordPrimaryRead(key, primary_ts, found);
}

void SystemTransaction::RecordPrimaryRead(const std::string& key,
                                          Timestamp primary_ts, bool found) {
  if (found && primary_ts > snapshot_floor_) snapshot_floor_ = primary_ts;
  if (sys_->config().record_history) {
    recorded_reads_.push_back(history::RecordedRead{key, primary_ts, found});
  }
}

bool SystemTransaction::RemoteRouted(const std::string& key) const {
  if (!read_only_ || secondary_ == nullptr) return false;
  const auto& map = sys_->partition_map();
  if (!map.partial()) return false;
  return !map.CoversKey(static_cast<std::size_t>(site_) - 1, key);
}

Result<replication::Secondary::RemoteRead> SystemTransaction::RemoteReadKey(
    const std::string& key) {
  const auto& map = sys_->partition_map();
  const std::size_t partition = map.PartitionOf(key);
  sys_->remote_partition_reads_.fetch_add(1, std::memory_order_relaxed);
  for (int round = 0; round < 2; ++round) {
    replication::Secondary* freshest = nullptr;
    Timestamp freshest_seq = 0;
    for (std::size_t idx : map.Replicas(partition)) {
      auto* site = sys_->site(idx);
      if (site == nullptr) continue;
      replication::Secondary* replica = site->replica.get();
      const Timestamp seq = replica->applied_seq();
      if (seq < snapshot_primary_) {
        // SCAR validation failure: this replica's applied prefix does not
        // yet contain the transaction's snapshot. Reject it and try the
        // next covering replica instead of blocking.
        sys_->scar_stale_rejects_.fetch_add(1, std::memory_order_relaxed);
        if (freshest == nullptr || seq > freshest_seq) {
          freshest = replica;
          freshest_seq = seq;
        }
        continue;
      }
      auto read = replica->ReadAtPrimarySnapshot(key, snapshot_primary_);
      if (read.ok()) return read;
      // Raced with translation pruning or a restart; try the next replica.
    }
    if (round == 0 && freshest != nullptr) {
      // Every covering replica was stale. Wait on the freshest one for just
      // the snapshot prefix — far weaker than full freshness — and retry.
      if (!freshest->WaitForSeq(snapshot_primary_,
                                sys_->config().read_block_timeout)) {
        break;
      }
      continue;
    }
    break;
  }
  return Status::Unavailable(
      "no covering replica could serve the partition at this snapshot");
}

Result<std::vector<replication::Secondary::RemoteScanItem>>
SystemTransaction::RemoteScanPartition(std::size_t partition,
                                       const std::string& begin,
                                       const std::string& end) {
  const auto& map = sys_->partition_map();
  sys_->remote_partition_reads_.fetch_add(1, std::memory_order_relaxed);
  for (int round = 0; round < 2; ++round) {
    replication::Secondary* freshest = nullptr;
    Timestamp freshest_seq = 0;
    for (std::size_t idx : map.Replicas(partition)) {
      auto* site = sys_->site(idx);
      if (site == nullptr) continue;
      replication::Secondary* replica = site->replica.get();
      const Timestamp seq = replica->applied_seq();
      if (seq < snapshot_primary_) {
        sys_->scar_stale_rejects_.fetch_add(1, std::memory_order_relaxed);
        if (freshest == nullptr || seq > freshest_seq) {
          freshest = replica;
          freshest_seq = seq;
        }
        continue;
      }
      auto items =
          replica->ScanAtPrimarySnapshot(begin, end, snapshot_primary_);
      if (!items.ok()) continue;
      // The serving replica may cover several partitions; keep only the one
      // the home replica is missing (the rest are already served locally).
      std::vector<replication::Secondary::RemoteScanItem> kept;
      for (auto& item : *items) {
        if (map.PartitionOf(item.key) == partition) {
          kept.push_back(std::move(item));
        }
      }
      return kept;
    }
    if (round == 0 && freshest != nullptr) {
      if (!freshest->WaitForSeq(snapshot_primary_,
                                sys_->config().read_block_timeout)) {
        break;
      }
      continue;
    }
    break;
  }
  return Status::Unavailable(
      "no covering replica could serve the partition at this snapshot");
}

Result<std::string> SystemTransaction::Get(const std::string& key) {
  if (RemoteRouted(key)) {
    auto remote = RemoteReadKey(key);
    if (!remote.ok()) return remote.status();
    RecordPrimaryRead(key, remote->version_primary_ts, remote->found);
    if (!remote->found) return Status::NotFound();
    return std::move(remote->value);
  }
  const std::size_t before = txn_->reads().size();
  auto result = txn_->Get(key);
  // The underlying transaction appended exactly one observation.
  if (txn_->reads().size() == before + 1) {
    const auto& obs = txn_->reads().back();
    RecordRead(key, obs.version_commit_ts, obs.found, obs.from_own_write);
  }
  return result;
}

Status SystemTransaction::Put(const std::string& key, std::string value) {
  if (read_only_) {
    return Status::InvalidArgument(
        "updates must go through BeginUpdate (read-only transaction)");
  }
  return txn_->Put(key, std::move(value));
}

Status SystemTransaction::Delete(const std::string& key) {
  if (read_only_) {
    return Status::InvalidArgument(
        "updates must go through BeginUpdate (read-only transaction)");
  }
  return txn_->Delete(key);
}

Result<std::vector<std::pair<std::string, std::string>>>
SystemTransaction::Scan(const std::string& begin, const std::string& end) {
  const std::size_t before = txn_->reads().size();
  auto result = txn_->Scan(begin, end);
  if (!result.ok()) return result;
  for (std::size_t i = before; i < txn_->reads().size(); ++i) {
    const auto& obs = txn_->reads()[i];
    RecordRead(obs.key, obs.version_commit_ts, obs.found, obs.from_own_write);
  }
  const auto& map = sys_->partition_map();
  if (!read_only_ || secondary_ == nullptr || !map.partial()) return result;
  const std::size_t home = static_cast<std::size_t>(site_) - 1;
  if (map.Coverage(home).size() == map.num_partitions()) return result;
  // Partition-spanning scan: the local store holds only the home replica's
  // partitions, so fetch each uncovered partition's slice from a covering
  // replica at this transaction's primary snapshot and merge.
  std::vector<std::pair<std::string, std::string>> merged = std::move(*result);
  for (std::size_t p = 0; p < map.num_partitions(); ++p) {
    if (map.Covers(home, p)) continue;
    auto remote = RemoteScanPartition(p, begin, end);
    if (!remote.ok()) return remote.status();
    for (auto& item : *remote) {
      RecordPrimaryRead(item.key, item.version_primary_ts, /*found=*/true);
      merged.emplace_back(std::move(item.key), std::move(item.value));
    }
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

Status SystemTransaction::Commit() {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  Status s = txn_->Commit();
  finished_ = true;
  if (secondary_ != nullptr) secondary_->OnReadFinish();
  if (!s.ok()) return s;
  if (!read_only_) {
    commit_primary_ts_ = txn_->commit_ts();
    // seq(c) := commit_p(T) (Section 4).
    session_->AdvanceSeq(commit_primary_ts_);
  } else if (sys_->session_manager()->ReadsAdvanceSessionSeq()) {
    // Definition 2.2 also orders read-read pairs: fold the snapshot this
    // read provably saw into seq(c) so a later read in the session (possibly
    // at another secondary) can never regress. PCSI skips this (Section 7).
    session_->AdvanceSeq(snapshot_floor_);
  }
  if (sys_->config().record_history) {
    history::TxnRecord record;
    record.label = session_->label();
    record.site = site_;
    record.read_only = read_only_;
    record.first_op_seq = first_op_seq_;
    record.commit_seq = sys_->recorder()->NextEventSeq();
    record.commit_primary_ts = read_only_ ? kInvalidTimestamp
                                          : commit_primary_ts_;
    record.reads = std::move(recorded_reads_);
    record.writes = txn_->write_set().ToVector();
    sys_->recorder()->Record(std::move(record));
  }
  return Status::OK();
}

void SystemTransaction::Abort() {
  if (finished_) return;
  txn_->Abort();
  finished_ = true;
  if (secondary_ != nullptr) secondary_->OnReadFinish();
}

// ---------------------------------------------------------------------------
// ClientConnection

Result<std::unique_ptr<SystemTransaction>> ClientConnection::BeginRead() {
  std::size_t read_index = secondary_index_;
  ReplicatedSystem::SecondarySite* site = nullptr;
  if (sys_->config().freshness_routing) {
    // Freshness-aware placement: pick a secondary whose seq(DBsec) already
    // covers what this session is owed, so the blocking rule below is
    // satisfied on arrival. Guarantees that never gate reads on seq(c)
    // (weak SI) route purely by load.
    const Timestamp need = sys_->session_manager()->ReadsBlockOnSessionSeq()
                               ? session_->seq()
                               : 0;
    site = sys_->RouteRead(need, &read_index);
  } else if (sys_->config().roam_reads) {
    // Roaming mode: each read-only transaction goes to the next *live*
    // secondary round-robin. The session guarantee machinery must then do
    // all the ordering work (Section 7's PCSI-vs-strong-session-SI
    // distinction).
    for (std::size_t attempt = 0; attempt < sys_->num_secondaries();
         ++attempt) {
      read_index =
          sys_->next_secondary_.fetch_add(1, std::memory_order_relaxed) %
          sys_->num_secondaries();
      site = sys_->site(read_index);
      if (site != nullptr) break;
    }
  } else {
    site = sys_->site(read_index);
  }
  if (site == nullptr) {
    return Status::Unavailable("secondary has failed");
  }
  // The transaction's place in the real-time order is its submission point;
  // taken before the blocking wait so the recorded history never demands
  // visibility of commits that arrived only while we were already waiting.
  const std::uint64_t first_op_seq =
      sys_->config().record_history ? sys_->recorder()->NextEventSeq() : 0;
  if (sys_->session_manager()->ReadsBlockOnSessionSeq()) {
    // ALG-STRONG-SESSION-SI blocking rule: a read-only transaction in
    // session c waits while seq(c) > seq(DBsec). Under ALG-STRONG-SI the
    // session is global and may advance while we wait, so re-read it until
    // the predicate is stable.
    for (;;) {
      const Timestamp target = session_->seq();
      if (!site->replica->WaitForSeq(target,
                                     sys_->config().read_block_timeout)) {
        return Status::TimedOut("secondary did not catch up to seq(c)");
      }
      if (session_->seq() == target) break;
    }
  }
  auto txn = site->db->Begin(/*read_only=*/true);
  Timestamp snapshot_primary = 0;
  if (sys_->partition_map().partial()) {
    // Cross-partition reads must observe the same primary prefix this local
    // snapshot contains; compute it once at begin (SCAR-style snapshot
    // timestamp).
    snapshot_primary =
        site->replica->PrimaryPrefixAtLocal(txn->snapshot_ts());
  }
  return std::unique_ptr<SystemTransaction>(new SystemTransaction(
      sys_, session_, std::move(txn), site->replica.get(),
      static_cast<SiteId>(read_index + 1), /*read_only=*/true,
      first_op_seq, snapshot_primary));
}

Result<std::unique_ptr<SystemTransaction>> ClientConnection::BeginUpdate() {
  // Update transactions are forwarded to the primary (Figure 1). The primary
  // guarantees strong SI locally, so no blocking is ever needed here
  // (Theorem 4.1, case 1).
  const std::uint64_t first_op_seq =
      sys_->config().record_history ? sys_->recorder()->NextEventSeq() : 0;
  auto txn = sys_->primary_db()->Begin(/*read_only=*/false);
  return std::unique_ptr<SystemTransaction>(new SystemTransaction(
      sys_, session_, std::move(txn), /*secondary=*/nullptr, kPrimarySiteId,
      /*read_only=*/false, first_op_seq, /*snapshot_primary=*/0));
}

Status ClientConnection::ExecuteUpdate(
    const std::function<Status(SystemTransaction&)>& body, int max_attempts) {
  Status last = Status::Internal("no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    auto txn = BeginUpdate();
    if (!txn.ok()) return txn.status();
    Status s = body(**txn);
    if (!s.ok()) {
      (*txn)->Abort();
      return s;
    }
    last = (*txn)->Commit();
    if (last.ok()) return last;
    if (!last.IsWriteConflict()) return last;
    // First-committer-wins abort: retry with a fresh snapshot.
  }
  return last;
}

Status ClientConnection::ExecuteRead(
    const std::function<Status(SystemTransaction&)>& body) {
  auto txn = BeginRead();
  if (!txn.ok()) return txn.status();
  Status s = body(**txn);
  if (!s.ok()) {
    (*txn)->Abort();
    return s;
  }
  return (*txn)->Commit();
}

// ---------------------------------------------------------------------------
// ReplicatedSystem

namespace {

// In-process streams redial over loopback, where a refused dial means only
// that the listener is between connections: retry fast.
constexpr std::chrono::milliseconds kStreamRedialInitial{1};
constexpr std::chrono::milliseconds kStreamRedialMax{20};
// How long Start/RecoverSecondary wait for a stream's first attach, and Stop
// for the streams to drain what the propagator already broadcast.
constexpr std::chrono::seconds kStreamTimeout{10};

}  // namespace

ReplicatedSystem::ReplicatedSystem(SystemConfig config)
    : config_(config),
      partition_map_(std::make_shared<const replication::PartitionMap>(
          replication::PartitionMap::Config{config.num_partitions,
                                            config.partition_replication,
                                            config.partition_scheme},
          config.num_secondaries)),
      primary_db_(engine::DatabaseOptions{kPrimarySiteId, "primary",
                                          config.record_state_chain}),
      primary_(&primary_db_, replication::PropagatorOptions{
                                 config.propagation_batch_interval}),
      sessions_(config.guarantee) {
  // Durable primary: restore from the data directory's checkpoint + log
  // suffix before anything attaches to the propagator, then gate commit
  // acks on the flushed-LSN watermark (AttachDurableLog inside OpenDataDir).
  engine::Database::Checkpoint boot_cp;
  bool bootstrap_secondaries = false;
  if (config_.durable_log && !config_.data_dir.empty()) {
    wal::DurableLog::Options lopts;
    if (!wal::ParseFsyncMode(config_.fsync_mode, &lopts.fsync_mode)) {
      LAZYSI_WARN("unknown fsync_mode '" << config_.fsync_mode
                  << "', using group");
    }
    lopts.group_flush_interval = config_.group_flush_interval;
    lopts.max_group_bytes = config_.max_group_bytes;
    auto state = engine::OpenDataDir(&primary_db_, config_.data_dir, lopts);
    if (!state.ok()) {
      LAZYSI_ERROR("cannot open data dir '" << config_.data_dir
                   << "': " << state.status() << "; running without "
                   << "durability");
    } else {
      durable_log_ = std::move(state->durable);
      restore_report_ = state->report;
      // Seed the propagator at the restored log's end: the fleet is built
      // fresh below from a checkpoint of the restored state, so nothing
      // needs the suffix re-broadcast, and the stream numbering continues
      // exactly where the pre-restart primary's left off.
      const std::size_t end_lsn = primary_db_.log()->Size();
      std::uint64_t end_seq = state->base_record_seq;
      for (std::size_t lsn = state->base_lsn; lsn < end_lsn; ++lsn) {
        auto rec = primary_db_.log()->At(lsn);
        if (rec.has_value() && rec->type != wal::LogRecordType::kUpdate) {
          ++end_seq;
        }
      }
      primary_.propagator()->SeedForRecovery(end_lsn, end_seq);
      if (state->had_state) {
        boot_cp = primary_db_.TakeCheckpoint();
        bootstrap_secondaries = boot_cp.lsn > 0;
      }
      engine::Checkpointer::Options copts;
      copts.data_dir = config_.data_dir;
      copts.interval = config_.checkpoint_interval;
      copts.log_floor = [this] { return PropagationFloor(); };
      checkpointer_ = std::make_unique<engine::Checkpointer>(
          &primary_db_, durable_log_.get(), copts);
    }
  }
  for (std::size_t i = 0; i < config_.num_secondaries; ++i) {
    auto site = std::make_unique<SecondarySite>();
    site->db = std::make_unique<engine::Database>(engine::DatabaseOptions{
        static_cast<SiteId>(i + 1), "secondary-" + std::to_string(i),
        config_.record_state_chain});
    // A restored primary starts ahead of the empty fleet: initialize each
    // secondary from a checkpoint of the restored state, exactly like
    // RecoverSecondary does after a crash (Section 3.4).
    Timestamp boot_local = kInvalidTimestamp;
    if (bootstrap_secondaries) {
      auto install = site->db->InstallCheckpoint(CoveredCheckpoint(i, boot_cp));
      if (!install.ok()) {
        LAZYSI_ERROR("secondary " << i << " bootstrap from restored "
                     << "checkpoint failed: " << install.status());
      } else {
        boot_local = *install;
      }
    }
    replication::SecondaryOptions sec_opts;
    sec_opts.direct_apply = config_.direct_apply_refresh;
    site->replica = std::make_unique<replication::Secondary>(site->db.get(),
                                                             sec_opts);
    if (boot_local != kInvalidTimestamp) {
      site->replica->InitializeSeq(boot_cp.as_of, boot_local);
    }
    site->channel = LatencyChannelFor(site->replica.get(), 1000 + i);
    // Start() builds the replication stream, which attaches itself to the
    // propagator.
    secondaries_.push_back(std::move(site));
  }
  loop_.Start();
}

engine::Database::Checkpoint ReplicatedSystem::CoveredCheckpoint(
    std::size_t i, engine::Database::Checkpoint checkpoint) const {
  const replication::SinkFilter filter = FilterFor(i);
  if (!filter.active()) return checkpoint;
  for (auto it = checkpoint.state.begin(); it != checkpoint.state.end();) {
    if (filter.CoversKey(it->first)) {
      ++it;
    } else {
      it = checkpoint.state.erase(it);
    }
  }
  return checkpoint;
}

std::unique_ptr<replication::LatencyChannel>
ReplicatedSystem::LatencyChannelFor(replication::Secondary* replica,
                                    std::uint64_t seed) const {
  if (config_.network_latency.count() <= 0 &&
      config_.network_jitter.count() <= 0) {
    return nullptr;
  }
  return std::make_unique<replication::LatencyChannel>(
      replica->update_queue(),
      replication::LatencyChannel::Options{config_.network_latency,
                                           config_.network_jitter, seed});
}

Status ReplicatedSystem::StartStream(std::size_t i, std::size_t from_lsn,
                                     std::uint64_t fault_seed) {
  SecondarySite* site = secondaries_[i].get();
  replication::ReplicationListener::Options lo;
  lo.loop = &loop_;
  lo.filter = FilterFor(i);
  // Faults are drawn per frame. One record per frame keeps a seeded
  // schedule's fault density per record, instead of depending on how many
  // records happened to coalesce into each BATCH frame.
  lo.batching = !config_.transport_faults.any();
  site->listener = std::make_unique<replication::ReplicationListener>(
      primary_.propagator(), lo);
  Status started = site->listener->Start();
  if (!started.ok()) {
    site->listener.reset();
    return started;
  }
  replication::ReplicationReceiver::Options ro;
  ro.primary_port = site->listener->port();
  ro.loop = &loop_;
  ro.from_lsn = from_lsn;
  ro.reconnect_backoff = kStreamRedialInitial;
  ro.reconnect_backoff_max = kStreamRedialMax;
  ro.faults = config_.transport_faults;
  ro.fault_seed = fault_seed;
  site->receiver = std::make_unique<replication::ReplicationReceiver>(
      site->channel ? site->channel->inlet() : site->replica->update_queue(),
      ro);
  site->receiver->Start();
  // The attach replays [from_lsn, propagator position); waiting for it here
  // makes a Start-time attach happen before the propagator moves again, so
  // from_lsn never has to be a sync point.
  const auto deadline = std::chrono::steady_clock::now() + kStreamTimeout;
  while (site->listener->stats().replay_attaches == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      StopStream(site);
      return Status::TimedOut("replication stream did not attach");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return Status::OK();
}

void ReplicatedSystem::StopStream(SecondarySite* site) {
  if (site->receiver) site->receiver->Stop();
  if (site->listener) site->listener->Stop();
  site->receiver.reset();
  site->listener.reset();
}

ReplicatedSystem::~ReplicatedSystem() { Stop(); }

void ReplicatedSystem::Start() {
  if (started_) return;
  started_ = true;
  // Streams resume where the propagator stopped: everything below its
  // position was delivered before the last Stop returned.
  const std::size_t resume_lsn = primary_.propagator()->position();
  for (std::size_t i = 0; i < secondaries_.size(); ++i) {
    SecondarySite* site = secondaries_[i].get();
    site->replica->Start();
    if (site->channel) site->channel->Start();
    if (!site->listener && !site->failed.load(std::memory_order_acquire)) {
      Status s = StartStream(i, resume_lsn, config_.transport_seed + i);
      if (!s.ok()) {
        LAZYSI_ERROR("secondary " << i << " replication stream: " << s);
      }
    }
  }
  primary_.Start();
  if (checkpointer_) checkpointer_->Start();
  if (config_.gc_interval.count() > 0) {
    {
      std::lock_guard<std::mutex> lock(gc_mu_);
      gc_stop_ = false;
    }
    gc_thread_ = std::thread(&ReplicatedSystem::GcLoop, this);
  }
}

void ReplicatedSystem::GcLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(gc_mu_);
      if (gc_cv_.wait_for(lock, config_.gc_interval,
                          [this] { return gc_stop_; })) {
        return;
      }
    }
    // Translation pruning at non-quiesced points makes primary-coordinate
    // history approximate below the horizon, so the cadence skips it when
    // the run records history for offline SI checking.
    GarbageCollectAll(/*prune_translations=*/!config_.record_history);
    gc_passes_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ReplicatedSystem::Stop() {
  if (!started_) return;
  if (gc_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(gc_mu_);
      gc_stop_ = true;
    }
    gc_cv_.notify_all();
    gc_thread_.join();
  }
  if (checkpointer_) checkpointer_->Stop();
  primary_.Stop();
  // Let every stream deliver what the propagator already broadcast, so a
  // later Start resumes at the propagator's position without a gap.
  const std::uint64_t broadcast = primary_.propagator()->records_broadcast();
  const auto deadline = std::chrono::steady_clock::now() + kStreamTimeout;
  for (auto& site : secondaries_) {
    while (site->receiver && site->receiver->next_expected() < broadcast &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  for (auto& site : secondaries_) {
    StopStream(site.get());
    if (site->channel) site->channel->Stop();
    site->replica->Stop();
  }
  if (durable_log_) durable_log_->Close();
  started_ = false;
}

std::uint64_t ReplicatedSystem::PropagationFloor() {
  // A stream can rewind (a resync replays from a sync point at or below the
  // receiver's position), so each live stream pins the floor at that sync
  // point. The listener's MinAckFloor covers connected streams; between a
  // cut and the next HELLO it holds no connection, and the receiver's
  // position is what the resync will replay from.
  replication::Propagator* prop = primary_.propagator();
  std::uint64_t floor = prop->position();
  std::shared_lock lock(sites_mu_);
  for (auto& s : secondaries_) {
    if (s->failed.load(std::memory_order_acquire) || !s->listener) continue;
    floor = std::min(floor, s->listener->MinAckFloor());
    floor = std::min<std::uint64_t>(
        floor, prop->SyncPointAtOrBefore(s->receiver->next_expected()).lsn);
  }
  return floor;
}

std::unique_ptr<ClientConnection> ReplicatedSystem::Connect() {
  const std::size_t index =
      next_secondary_.fetch_add(1, std::memory_order_relaxed) %
      secondaries_.size();
  return ConnectTo(index);
}

std::unique_ptr<ClientConnection> ReplicatedSystem::ConnectTo(
    std::size_t secondary_index) {
  return std::unique_ptr<ClientConnection>(new ClientConnection(
      this, sessions_.CreateSession(), secondary_index));
}

replication::Secondary* ReplicatedSystem::secondary(std::size_t i) {
  auto* s = site(i);
  return s == nullptr ? nullptr : s->replica.get();
}

engine::Database* ReplicatedSystem::secondary_db(std::size_t i) {
  auto* s = site(i);
  return s == nullptr ? nullptr : s->db.get();
}

ReplicatedSystem::SecondarySite* ReplicatedSystem::site(std::size_t i) {
  std::shared_lock lock(sites_mu_);
  if (i >= secondaries_.size()) return nullptr;
  auto* s = secondaries_[i].get();
  if (s->failed.load(std::memory_order_acquire)) return nullptr;
  return s;
}

ReplicatedSystem::SecondarySite* ReplicatedSystem::RouteRead(
    Timestamp need, std::size_t* index_out) {
  std::shared_lock lock(sites_mu_);
  SecondarySite* fresh_pick = nullptr;  // best score among fresh-enough
  std::size_t fresh_index = 0;
  std::uint64_t fresh_score = 0;
  std::size_t fresh_covered = 0;
  SecondarySite* freshest = nullptr;  // fallback: maximum applied_seq
  std::size_t freshest_index = 0;
  Timestamp freshest_seq = 0;
  for (std::size_t i = 0; i < secondaries_.size(); ++i) {
    auto* s = secondaries_[i].get();
    if (s->failed.load(std::memory_order_acquire)) continue;
    const Timestamp seq = s->replica->applied_seq();
    if (freshest == nullptr || seq > freshest_seq) {
      freshest = s;
      freshest_index = i;
      freshest_seq = seq;
    }
    // EWMA load estimate rather than the instantaneous gauge: a transient
    // burst of reads on one site decays over ~8 routing decisions instead of
    // flipping the pick (and the herd) on every sample, which is the
    // hysteresis that keeps placement stable under bursty load.
    const std::uint64_t load = s->replica->SampleLoadEstimate();
    // Coverage-aware score: a partial replica serves only covered keys
    // locally and must proxy the rest, so its effective capacity scales
    // with its coverage fraction. load+1 keeps coverage decisive at zero
    // load; under full replication every site covers everything and this
    // degenerates to pure least-loaded. Ties go to the wider replica
    // (fewer cross-partition hops).
    const std::size_t covered =
        std::max<std::size_t>(partition_map_->Coverage(i).size(), 1);
    const std::uint64_t score =
        (load + 1) * partition_map_->num_partitions() / covered;
    if (seq >= need &&
        (fresh_pick == nullptr || score < fresh_score ||
         (score == fresh_score && covered > fresh_covered))) {
      fresh_pick = s;
      fresh_index = i;
      fresh_score = score;
      fresh_covered = covered;
    }
  }
  // applied_seq only advances, so a site observed fresh stays fresh; the
  // caller's WaitForSeq loop still covers the fallback pick (and a seq(c)
  // that advanced after we sampled it, under ALG-STRONG-SI's global
  // session).
  if (fresh_pick != nullptr) {
    fresh_pick->replica->CountRoutedFresh();
    *index_out = fresh_index;
    return fresh_pick;
  }
  if (freshest != nullptr) {
    freshest->replica->CountBlockedOnFreshness();
    *index_out = freshest_index;
    return freshest;
  }
  return nullptr;
}

std::string ReplicatedSystem::SystemStats::ToString() const {
  std::ostringstream os;
  os << "primary: latest_commit_ts=" << primary_latest_commit_ts
     << " committed=" << primary_committed << " aborted=" << primary_aborted
     << " propagated=" << commits_propagated << "\n";
  if (durable) {
    os << "durability: fsyncs=" << fsyncs
       << " records_flushed=" << records_flushed
       << " group[mean=" << mean_group_size << " max=" << max_group_size
       << "] checkpoints=" << checkpoint_count
       << " log_bytes_truncated=" << log_bytes_truncated << "\n";
  }
  for (const auto& s : secondaries) {
    os << "secondary " << s.index << ": "
       << (s.failed ? "FAILED"
                    : "seq=" + std::to_string(s.applied_seq) +
                          " lag=" + std::to_string(s.lag) +
                          " refreshed=" + std::to_string(s.refreshed_count) +
                          " queue=" + std::to_string(s.update_queue_depth) +
                          " translations=" +
                          std::to_string(s.translation_count) +
                          " disc=" +
                          std::to_string(s.stream_discontinuities));
    if (!s.failed && (s.ro_routed_fresh > 0 || s.ro_blocked_on_freshness > 0)) {
      os << " router[fresh=" << s.ro_routed_fresh
         << " blocked=" << s.ro_blocked_on_freshness
         << " active=" << s.active_reads
         << " ewma=" << (s.load_estimate / 1024.0) << "]";
    }
    if (!s.failed && s.group_applies > 0) {
      os << " group_apply[passes=" << s.group_applies
         << " commits=" << s.group_applied_commits
         << " max=" << s.max_group_apply << "]";
    }
    if (!s.failed &&
        (s.records_filtered > 0 || s.remote_reads_served > 0)) {
      os << " partition[covered=" << s.covered_partitions
         << " filtered=" << s.records_filtered
         << " updates=" << s.updates_received
         << " bytes=" << s.update_bytes_received
         << " remote_served=" << s.remote_reads_served << "]";
    }
    if (!s.failed &&
        (s.receiver.records_delivered > 0 || s.faults.dropped > 0)) {
      os << " transport[delivered=" << s.receiver.records_delivered
         << " resyncs=" << s.receiver.reconnects
         << " rejected=" << s.receiver.decode_rejected
         << " dups=" << s.receiver.duplicates_dropped
         << " drops=" << s.faults.dropped << " corrupt=" << s.faults.corrupted
         << " disc=" << s.faults.disconnects << "]";
    }
    if (!s.failed && s.listener.frames_sent > 0) {
      os << " wire[frames=" << s.listener.frames_sent << "/"
         << s.receiver.frames_received << " bytes=" << s.listener.bytes_sent
         << "/" << s.receiver.bytes_received << "]";
    }
    os << "\n";
  }
  if (!partition_floors.empty()) {
    os << "partitions: floors=[";
    for (std::size_t p = 0; p < partition_floors.size(); ++p) {
      if (p > 0) os << " ";
      os << partition_floors[p];
    }
    os << "] scar_rejects=" << scar_stale_rejects
       << " remote_reads=" << remote_partition_reads << "\n";
  }
  return os.str();
}

ReplicatedSystem::SystemStats ReplicatedSystem::Stats() {
  SystemStats stats;
  stats.primary_latest_commit_ts = primary_db_.LatestCommitTs();
  stats.primary_committed = primary_db_.txn_manager()->CommittedCount();
  stats.primary_aborted = primary_db_.txn_manager()->AbortedCount();
  stats.commits_propagated = primary_.propagator()->commits_propagated();
  if (durable_log_) {
    stats.durable = true;
    const auto c = durable_log_->counters();
    stats.fsyncs = c.fsyncs;
    stats.records_flushed = c.records_flushed;
    stats.mean_group_size =
        c.flush_batches > 0
            ? static_cast<double>(c.records_flushed) / c.flush_batches
            : 0.0;
    stats.max_group_size = c.max_group_size;
    stats.log_bytes_truncated = c.bytes_truncated;
    if (checkpointer_) {
      stats.checkpoint_count = checkpointer_->checkpoint_count();
    }
  }
  std::shared_lock lock(sites_mu_);
  for (std::size_t i = 0; i < secondaries_.size(); ++i) {
    auto* s = secondaries_[i].get();
    SecondaryStats sec;
    sec.index = i;
    sec.failed = s->failed.load(std::memory_order_acquire);
    if (!sec.failed) {
      sec.applied_seq = s->replica->applied_seq();
      sec.lag = stats.primary_latest_commit_ts > sec.applied_seq
                    ? stats.primary_latest_commit_ts - sec.applied_seq
                    : 0;
      sec.refreshed_count = s->replica->refreshed_count();
      sec.update_queue_depth = s->replica->update_queue_depth();
      sec.ro_routed_fresh = s->replica->ro_routed_fresh();
      sec.ro_blocked_on_freshness = s->replica->ro_blocked_on_freshness();
      sec.active_reads = s->replica->active_reads();
      sec.load_estimate = s->replica->load_estimate();
      sec.translation_count = s->replica->translation_count();
      sec.stream_discontinuities = s->replica->stream_discontinuities();
      sec.records_filtered = s->replica->records_filtered();
      sec.updates_received = s->replica->updates_received();
      sec.update_bytes_received = s->replica->update_bytes_received();
      sec.remote_reads_served = s->replica->remote_reads_served();
      sec.covered_partitions = partition_map_->Coverage(i).size();
      sec.group_applies = s->replica->group_applies();
      sec.group_applied_commits = s->replica->group_applied_commits();
      sec.max_group_apply = s->replica->max_group_apply();
      if (s->receiver) {
        // Receiver first: everything it has read was already counted as
        // sent, so the wire block never shows more delivered than sent.
        sec.receiver = s->receiver->stats();
        sec.faults = s->receiver->fault_counters();
        sec.listener = s->listener->stats();
      }
    }
    stats.secondaries.push_back(sec);
  }
  if (partition_map_->partial()) {
    stats.partition_floors = PartitionFloorsLocked();
  }
  stats.scar_stale_rejects =
      scar_stale_rejects_.load(std::memory_order_relaxed);
  stats.remote_partition_reads =
      remote_partition_reads_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<Timestamp> ReplicatedSystem::PartitionFloorsLocked() {
  std::vector<Timestamp> floors(partition_map_->num_partitions(), 0);
  for (std::size_t p = 0; p < floors.size(); ++p) {
    Timestamp floor = 0;
    bool have = false;
    for (std::size_t idx : partition_map_->Replicas(p)) {
      if (idx >= secondaries_.size()) continue;
      auto* s = secondaries_[idx].get();
      if (s->failed.load(std::memory_order_acquire)) continue;
      const Timestamp seq = s->replica->applied_seq();
      if (!have || seq < floor) floor = seq;
      have = true;
    }
    // No live replica: floor 0 — nothing below this partition may be
    // pruned until one recovers.
    floors[p] = have ? floor : 0;
  }
  return floors;
}

std::vector<Timestamp> ReplicatedSystem::PartitionFloors() {
  std::shared_lock lock(sites_mu_);
  return PartitionFloorsLocked();
}

std::size_t ReplicatedSystem::GarbageCollectAll(bool prune_translations) {
  std::size_t reclaimed = primary_db_.GarbageCollect();
  std::shared_lock lock(sites_mu_);
  // Per-partition applied floors: the minimum applied_seq over each
  // partition's live replicas. A secondary's translation-prune horizon is
  // the minimum floor across the partitions it covers — below it every live
  // replica of its data already serves newer state, so no future session
  // floor can depend on a pruned translation. Under full replication every
  // secondary covers every partition and this is exactly the old fleet-wide
  // minimum.
  const std::vector<Timestamp> floors = PartitionFloorsLocked();
  for (std::size_t i = 0; i < secondaries_.size(); ++i) {
    auto* s = secondaries_[i].get();
    if (s->failed.load(std::memory_order_acquire)) continue;
    reclaimed += s->db->GarbageCollect();
    if (!prune_translations) continue;
    Timestamp horizon = 0;
    bool have = false;
    for (std::size_t p : partition_map_->Coverage(i)) {
      if (!have || floors[p] < horizon) horizon = floors[p];
      have = true;
    }
    if (have) s->replica->PruneTranslations(horizon);
  }
  return reclaimed;
}

bool ReplicatedSystem::WaitForReplication(std::chrono::milliseconds timeout) {
  const Timestamp target = primary_db_.LatestCommitTs();
  std::shared_lock lock(sites_mu_);
  for (auto& s : secondaries_) {
    if (s->failed.load(std::memory_order_acquire)) continue;
    if (!s->replica->WaitForSeq(target, timeout)) return false;
  }
  return true;
}

Status ReplicatedSystem::FailSecondary(std::size_t i) {
  std::unique_lock lock(sites_mu_);
  if (i >= secondaries_.size()) {
    return Status::InvalidArgument("no such secondary");
  }
  auto* s = secondaries_[i].get();
  if (s->failed.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("secondary already failed");
  }
  s->failed.store(true, std::memory_order_release);
  // Crash: the pipeline stops; queued updates and refresh state are lost
  // along with the site's database (Section 3.4). The listener detaches its
  // propagator sink, so broadcasts never touch the dead queue.
  StopStream(s);
  if (s->channel) s->channel->Stop();
  s->replica->Stop();
  return Status::OK();
}

Status ReplicatedSystem::RecoverSecondary(std::size_t i) {
  std::unique_lock lock(sites_mu_);
  if (i >= secondaries_.size()) {
    return Status::InvalidArgument("no such secondary");
  }
  auto* s = secondaries_[i].get();
  if (!s->failed.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("secondary has not failed");
  }

  // Fresh copy of the primary database (Section 3.4's periodic quiesced
  // copy, taken on demand here).
  engine::Database::Checkpoint checkpoint = primary_db_.TakeCheckpoint();
  // The checkpoint can include commits the propagator has not consumed yet,
  // and attaching at its LSN requires the propagator to have reached it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (primary_.propagator()->position() < checkpoint.lsn) {
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::TimedOut("propagator did not reach the checkpoint LSN");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  checkpoint = CoveredCheckpoint(i, std::move(checkpoint));

  auto fresh_db = std::make_unique<engine::Database>(engine::DatabaseOptions{
      static_cast<SiteId>(i + 1), "secondary-" + std::to_string(i) + "-r",
      config_.record_state_chain});
  auto install = fresh_db->InstallCheckpoint(checkpoint);
  if (!install.ok()) return install.status();

  replication::SecondaryOptions sec_opts;
  sec_opts.direct_apply = config_.direct_apply_refresh;
  auto fresh_replica =
      std::make_unique<replication::Secondary>(fresh_db.get(), sec_opts);
  // Dummy-transaction re-seed of seq(DBsec) (Section 4): the checkpoint
  // corresponds to the primary state checkpoint.as_of.
  const Timestamp seq = checkpoint.as_of;
  fresh_replica->InitializeSeq(seq, *install);
  fresh_replica->Start();
  auto fresh_channel = LatencyChannelFor(fresh_replica.get(), 2000 + i);
  if (fresh_channel) fresh_channel->Start();

  s->db = std::move(fresh_db);
  s->replica = std::move(fresh_replica);
  s->channel = std::move(fresh_channel);
  // A fresh stream with a fresh fault schedule, replaying the missed log
  // suffix from the checkpoint like any other record.
  LAZYSI_RETURN_NOT_OK(
      StartStream(i, checkpoint.lsn, config_.transport_seed + 1000 + i));
  s->failed.store(false, std::memory_order_release);
  return Status::OK();
}

}  // namespace system
}  // namespace lazysi
