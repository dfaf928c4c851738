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

Result<storage::Value> SystemTransaction::Get(const std::string& key) {
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

Status SystemTransaction::Put(const std::string& key, storage::Value value) {
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

Result<std::vector<std::pair<std::string, storage::Value>>>
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
  std::vector<std::pair<std::string, storage::Value>> merged =
      std::move(*result);
  for (std::size_t p = 0; p < map.num_partitions(); ++p) {
    if (map.Covers(home, p)) continue;
    auto remote = RemoteScanPartition(p, begin, end);
    if (!remote.ok()) return remote.status();
    for (auto& item : *remote) {
      RecordPrimaryRead(item.key, item.version_primary_ts, /*found=*/true);
      merged.emplace_back(std::move(item.key), std::move(item.value));
    }
  }
  // Keys are unique across partitions: ordering by key is the scan order.
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
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
    // First-committer-wins abort: retry with a fresh snapshot. The winner
    // committed above this snapshot and may still be installing; a retry
    // that began before it turned visible would lose to it again, burning
    // attempts while its thread is descheduled. The winner always
    // publishes, so wait for the watermark to pass this snapshot.
    const Timestamp stale = (*txn)->txn_->snapshot_ts();
    while (sys_->primary_db()->LatestCommitTs() <= stale) {
      std::this_thread::yield();
    }
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

/// Redial backoff of the in-process receivers: loopback redials are cheap,
/// and a fault-injected stream is cut every few frames.
constexpr std::chrono::milliseconds kRedialBackoff{1};
constexpr std::chrono::milliseconds kRedialBackoffMax{20};
/// One record per frame in process: faults are drawn per frame, and how many
/// records a frame would coalesce depends on thread timing, so this keeps a
/// seeded fault schedule falling on the same records run after run.
constexpr std::size_t kStreamBatchRecords = 1;

/// Propagator options for the primary: batching per config, plus (for a
/// durable primary) the read barrier that keeps replication behind the
/// flushed-LSN watermark — no record reaches a secondary before disk.
replication::PropagatorOptions PropagatorOptionsFor(const SystemConfig& config,
                                                    engine::Database* db) {
  replication::PropagatorOptions opts;
  opts.batch_interval = config.propagation_batch_interval;
  if (config.durable_log && !config.data_dir.empty()) {
    opts.read_limit = [db]() -> std::size_t {
      wal::DurableLog* durable = db->durable();
      return durable != nullptr
                 ? static_cast<std::size_t>(durable->flushed_end())
                 : SIZE_MAX;
    };
  }
  return opts;
}

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
      primary_(&primary_db_, PropagatorOptionsFor(config_, &primary_db_)),
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
  if (transported()) {
    loop_ = std::make_unique<net::EventLoop>();
    loop_->Start();
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
      engine::Database::Checkpoint cp = boot_cp;
      const replication::SinkFilter filter = FilterFor(i);
      if (filter.active()) {
        for (auto it = cp.state.begin(); it != cp.state.end();) {
          if (filter.CoversKey(it->first)) {
            ++it;
          } else {
            it = cp.state.erase(it);
          }
        }
      }
      auto install = site->db->InstallCheckpoint(cp);
      if (!install.ok()) {
        LAZYSI_ERROR("secondary " << i << " bootstrap from restored "
                     << "checkpoint failed: " << install.status());
      } else {
        boot_local = *install;
      }
    }
    replication::SecondaryOptions sec_opts;
    sec_opts.applicator_threads = config_.applicator_threads;
    sec_opts.direct_apply = config_.direct_apply_refresh;
    sec_opts.decode_threads = config_.decode_threads;
    site->replica = std::make_unique<replication::Secondary>(site->db.get(),
                                                             sec_opts);
    if (boot_local != kInvalidTimestamp) {
      site->replica->InitializeSeq(boot_cp.as_of, boot_local);
    }
    const bool wan = config_.network_latency.count() > 0 ||
                     config_.network_jitter.count() > 0;
    if (wan) {
      // WAN model: a latency channel delays records on their way into the
      // secondary's update queue.
      site->channel = std::make_unique<replication::LatencyChannel>(
          site->replica->update_queue(),
          replication::LatencyChannel::Options{config_.network_latency,
                                               config_.network_jitter,
                                               1000 + i});
    }
    if (transported()) {
      // The secondary's stream attaches where the empty (or bootstrapped)
      // fleet stands: the propagator's position before it starts.
      const Status opened = OpenStream(site.get(), i, config_.transport_seed + i,
                                       primary_.propagator()->position());
      if (!opened.ok()) {
        LAZYSI_ERROR("secondary " << i << " replication stream: " << opened);
      }
    } else if (wan) {
      primary_.propagator()->AttachSink(site->channel->inlet(), FilterFor(i));
    } else {
      primary_.AttachSecondary(site->replica.get(), FilterFor(i));
    }
    secondaries_.push_back(std::move(site));
  }
}

Status ReplicatedSystem::OpenStream(SecondarySite* site, std::size_t i,
                                    std::uint64_t fault_seed,
                                    std::size_t from_lsn) {
  replication::ReplicationListener::Options lo;
  lo.loop = loop_.get();
  lo.max_batch_records = kStreamBatchRecords;
  lo.filter = FilterFor(i);
  lo.faults = config_.transport_faults;
  lo.fault_seed = fault_seed;
  site->listener = std::make_unique<replication::ReplicationListener>(
      primary_.propagator(), lo);
  LAZYSI_RETURN_NOT_OK(site->listener->Start());
  replication::ReplicationReceiver::Options ro;
  ro.primary_port = site->listener->port();
  ro.reconnect_backoff = kRedialBackoff;
  ro.reconnect_backoff_max = kRedialBackoffMax;
  ro.jitter_seed = fault_seed;
  ro.from_lsn = from_lsn;
  ro.loop = loop_.get();
  site->receiver = std::make_unique<replication::ReplicationReceiver>(
      site->channel ? site->channel->inlet() : site->replica->update_queue(),
      ro);
  return Status::OK();
}

ReplicatedSystem::~ReplicatedSystem() { Stop(); }

void ReplicatedSystem::Start() {
  if (started_) return;
  started_ = true;
  for (auto& site : secondaries_) {
    if (site->failed.load(std::memory_order_acquire)) continue;
    site->replica->Start();
    if (site->channel) site->channel->Start();
    // After a Stop the receiver redials at its position; the replay
    // overlap is deduplicated by record seq.
    if (site->receiver) site->receiver->Start();
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
  for (auto& site : secondaries_) {
    // The listener stays up; its side of the connection closes with the
    // receiver's.
    if (site->receiver) site->receiver->Stop();
    if (site->channel) site->channel->Stop();
    site->replica->Stop();
  }
  if (durable_log_) durable_log_->Close();
  started_ = false;
}

std::uint64_t ReplicatedSystem::PropagationFloor() {
  // Records below the propagator's position were broadcast to every direct
  // sink; only a stream can rewind, replaying from the sync point at or
  // below its receiver's position. The listener knows that position from
  // acks while a connection is up; between a cut and the redial only the
  // receiver does.
  replication::Propagator* propagator = primary_.propagator();
  std::uint64_t floor = propagator->position();
  std::shared_lock lock(sites_mu_);
  for (auto& s : secondaries_) {
    if (s->failed.load(std::memory_order_acquire) || !s->receiver) continue;
    floor = std::min<std::uint64_t>(
        {floor, s->listener->MinAckFloor(),
         propagator->SyncPointAtOrBefore(s->receiver->next_expected()).lsn});
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
    if (!s.failed && (s.transport_delivered > 0 || s.link_dropped > 0)) {
      os << " transport[delivered=" << s.transport_delivered
         << " resyncs=" << s.transport_resyncs
         << " crc_rej=" << s.transport_crc_rejected
         << " dups=" << s.transport_duplicates
         << " drops=" << s.link_dropped << " corrupt=" << s.link_corrupted
         << " disc=" << s.link_disconnects << "]";
    }
    if (!s.failed && s.link_frames_sent > 0) {
      os << " wire[frames=" << s.link_frames_sent << "/"
         << s.link_frames_delivered << " bytes=" << s.link_bytes_sent << "/"
         << s.link_bytes_delivered << "]";
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
        // Receiver first: bytes it read were sent before, so the delivered
        // side never overtakes the sent side in one snapshot.
        const auto rx = s->receiver->stats();
        const auto tx = s->listener->stats();
        sec.transport_delivered = rx.records_delivered;
        sec.transport_resyncs = rx.reconnects;
        sec.transport_crc_rejected = rx.crc_rejected;
        sec.transport_duplicates = rx.duplicates_dropped;
        sec.link_dropped = tx.faults.dropped;
        sec.link_corrupted = tx.faults.corrupted;
        sec.link_disconnects = tx.faults.disconnects;
        sec.link_frames_sent = tx.frames_sent;
        sec.link_frames_delivered = rx.frames_received;
        sec.link_bytes_sent = tx.bytes_sent;
        sec.link_bytes_delivered = rx.bytes_received;
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
  // along with the site's database (Section 3.4). Detach from the
  // propagator first so broadcasts never touch the dead queue.
  if (s->receiver) {
    s->receiver->Stop();
    s->listener->Stop();  // detaches its propagator sinks
    if (s->channel) s->channel->Stop();
  } else if (s->channel) {
    primary_.propagator()->DetachSink(s->channel->inlet());
    s->channel->Stop();
  } else {
    primary_.propagator()->DetachSink(s->replica->update_queue());
  }
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
  const replication::SinkFilter filter = FilterFor(i);
  if (filter.active()) {
    // A partial replica installs only its covered partitions — uncovered
    // keys never live here (scans and differential checks rely on that),
    // and the replayed log suffix is filtered the same way below.
    for (auto it = checkpoint.state.begin(); it != checkpoint.state.end();) {
      if (filter.CoversKey(it->first)) {
        ++it;
      } else {
        it = checkpoint.state.erase(it);
      }
    }
  }

  // The checkpoint can be ahead of the propagator by the last few commits;
  // attaching at its LSN needs them consumed first.
  const auto deadline =
      std::chrono::steady_clock::now() + config_.read_block_timeout;
  while (started_ && primary_.propagator()->position() < checkpoint.lsn) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::TimedOut("propagator did not reach the checkpoint");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Built aside and swapped in only once attached; on an error return its
  // members are torn down receiver first.
  SecondarySite fresh;
  fresh.db = std::make_unique<engine::Database>(engine::DatabaseOptions{
      static_cast<SiteId>(i + 1), "secondary-" + std::to_string(i) + "-r",
      config_.record_state_chain});
  auto install = fresh.db->InstallCheckpoint(checkpoint);
  if (!install.ok()) return install.status();

  replication::SecondaryOptions sec_opts;
  sec_opts.applicator_threads = config_.applicator_threads;
  sec_opts.direct_apply = config_.direct_apply_refresh;
  sec_opts.decode_threads = config_.decode_threads;
  fresh.replica =
      std::make_unique<replication::Secondary>(fresh.db.get(), sec_opts);
  // Dummy-transaction re-seed of seq(DBsec) (Section 4): the checkpoint
  // corresponds to the primary state checkpoint.as_of.
  const Timestamp seq = checkpoint.as_of;
  fresh.replica->InitializeSeq(seq, *install);
  fresh.replica->Start();
  const bool wan = config_.network_latency.count() > 0 ||
                   config_.network_jitter.count() > 0;
  if (wan) {
    fresh.channel = std::make_unique<replication::LatencyChannel>(
        fresh.replica->update_queue(),
        replication::LatencyChannel::Options{config_.network_latency,
                                             config_.network_jitter,
                                             2000 + i});
    fresh.channel->Start();
  }
  if (transported()) {
    // The recovered site gets a fresh stream (new listener, new fault
    // schedule) whose receiver asks for the replay from the checkpoint, so
    // the missed log suffix crosses the wire like any other record. The
    // attach runs on the listener's side; wait for it so a refused attach
    // still surfaces here.
    LAZYSI_RETURN_NOT_OK(OpenStream(&fresh, i,
                                    config_.transport_seed + 1000 + i,
                                    checkpoint.lsn));
    fresh.receiver->Start();
    while (!fresh.receiver->welcomed()) {
      const auto listener_stats = fresh.listener->stats();
      if (listener_stats.attach_refusals + listener_stats.resume_refusals >
          0) {
        return Status::FailedPrecondition(
            "propagator refused the replay attach at lsn " +
            std::to_string(checkpoint.lsn));
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::TimedOut("recovered secondary's stream did not attach");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } else if (wan) {
    LAZYSI_RETURN_NOT_OK(primary_.propagator()
                             ->AttachSinkAt(fresh.channel->inlet(),
                                            checkpoint.lsn, filter)
                             .status());
  } else {
    LAZYSI_RETURN_NOT_OK(primary_.AttachSecondaryAt(fresh.replica.get(),
                                                    checkpoint.lsn, filter));
  }

  // Old stream first: its receiver feeds the old replica's queue.
  s->receiver = std::move(fresh.receiver);
  s->listener = std::move(fresh.listener);
  s->channel = std::move(fresh.channel);
  s->replica = std::move(fresh.replica);
  s->db = std::move(fresh.db);
  s->failed.store(false, std::memory_order_release);
  return Status::OK();
}

}  // namespace system
}  // namespace lazysi
