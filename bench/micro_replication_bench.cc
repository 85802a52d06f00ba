// Micro-benchmarks of the real (threaded) replication pipeline: end-to-end
// refresh throughput and the cost of the session blocking rule. These
// complement the simulation figures by showing the actual engine keeps up
// with far more than the model's offered load.
//
// Rows whose timed loop waits on other threads (propagator, stream event
// loop, refresher) use UseRealTime(): their items_per_second then comes from
// wall-clock time, so a slower replication path shows up even though the
// benchmark thread spends it blocked rather than on CPU.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/checkpointer.h"
#include "engine/database.h"
#include "replication/primary.h"
#include "replication/propagator.h"
#include "replication/secondary.h"
#include "replication/tcp_replication.h"
#include "simmodel/model.h"
#include "system/replicated_system.h"

namespace {

using lazysi::session::Guarantee;
using lazysi::system::ReplicatedSystem;
using lazysi::system::SystemConfig;
using lazysi::system::SystemTransaction;
namespace engine = lazysi::engine;
namespace replication = lazysi::replication;

void BM_ReplicationPipeline(benchmark::State& state) {
  // Measures primary-commit -> secondary-applied end to end, batched.
  SystemConfig config;
  config.num_secondaries = static_cast<std::size_t>(state.range(0));
  config.guarantee = Guarantee::kWeakSI;
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.ConnectTo(0);
  std::uint64_t i = 0;
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int n = 0; n < kBatch; ++n) {
      (void)client->ExecuteUpdate([&](SystemTransaction& t) {
        return t.Put("key" + std::to_string(i % 1024), std::to_string(i));
      });
      ++i;
    }
    benchmark::DoNotOptimize(sys.WaitForReplication());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  sys.Stop();
}
BENCHMARK(BM_ReplicationPipeline)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Appends `rounds` rounds of kConcurrent overlapping primary transactions,
// numbered from `first_round`: keys are disjoint within a round (every
// transaction is committable) and shared across rounds (the same keys are
// rewritten, so chains grow). The legacy refresher must drain its pending
// queue at every start record of this shape; the direct engine never stalls.
// With `mixed`, every fifth round also deletes and every seventh aborts one
// transaction, so replay sees the full record mix. Returns the number of
// commits.
std::uint64_t CommitRounds(engine::Database* db, int first_round, int rounds,
                           bool mixed) {
  constexpr int kConcurrent = 8;
  constexpr int kOpsPerTxn = 4;
  std::uint64_t commits = 0;
  for (int r = first_round; r < first_round + rounds; ++r) {
    std::vector<std::unique_ptr<lazysi::txn::Transaction>> txns;
    for (int t = 0; t < kConcurrent; ++t) txns.push_back(db->Begin());
    for (int t = 0; t < kConcurrent; ++t) {
      for (int o = 0; o < kOpsPerTxn; ++o) {
        const std::string key =
            "k" + std::to_string((t * kOpsPerTxn + o) % 512) + "/" +
            std::to_string(t);
        if (mixed && o == kOpsPerTxn - 1 && r % 5 == 0) {
          (void)txns[t]->Delete(key);
        } else {
          (void)txns[t]->Put(key, std::to_string(r));
        }
      }
    }
    for (int t = 0; t < kConcurrent; ++t) {
      if (mixed && t == kConcurrent - 1 && r % 7 == 0) {
        txns[t]->Abort();  // abort records flow down the wire too
      } else if (txns[t]->Commit().ok()) {
        ++commits;
      }
    }
  }
  return commits;
}

// A fresh secondary fed in process by a propagator that replays `log` from
// its start. The propagator is not started, so the caller decides when
// replay begins.
struct ReplayRig {
  ReplayRig(lazysi::wal::LogicalLog* log, bool direct)
      : sec(&sec_db, replication::SecondaryOptions{direct}), prop(log) {
    sec.Start();
    prop.AttachSink(sec.update_queue());
  }
  ~ReplayRig() {
    prop.Stop();
    sec.Stop();
  }
  ReplayRig(const ReplayRig&) = delete;
  ReplayRig& operator=(const ReplayRig&) = delete;

  engine::Database sec_db{engine::DatabaseOptions{1, "sec", false}};
  replication::Secondary sec;
  replication::Propagator prop;
};

// Replay catch-up and freshness of one engine. Each iteration replays the
// identical pre-built backlog of `rounds` rounds into a fresh secondary;
// reported items are refresh commits/second over exactly the catch-up window
// (teardown, notably the propagator's 50 ms poll-interval shutdown, is
// excluded).
//
// Then p95_lag_ts: a caught-up secondary follows a primary that commits one
// round (8 commits, 16 timestamps) every kRoundPeriod on a fixed schedule,
// and each round's end samples the lag — primary latest commit ts minus
// seq(DBsec), in timestamp units. A replica that keeps up has applied every
// earlier round by then, so the p95 is one round (16); it rises once more
// than 5% of rounds find the previous round still unapplied.
void ReplayCatchup(benchmark::State& state, bool direct, int rounds,
                   bool mixed) {
  constexpr auto kRoundPeriod = std::chrono::microseconds(1000);
  constexpr int kSteadyRounds = 2000;
  constexpr auto kTimeout = std::chrono::milliseconds(60000);

  engine::Database primary_db(
      engine::DatabaseOptions{lazysi::kPrimarySiteId, "primary", false});
  const std::uint64_t commits = CommitRounds(&primary_db, 0, rounds, mixed);
  const lazysi::Timestamp target = primary_db.LatestCommitTs();
  for (auto _ : state) {
    ReplayRig rig(primary_db.log(), direct);
    const auto begin = std::chrono::steady_clock::now();
    rig.prop.Start();
    const bool ok = rig.sec.WaitForSeq(target, kTimeout);
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count());
    if (!ok) {
      state.SkipWithError("secondary failed to catch up within 60s");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * commits);

  ReplayRig rig(primary_db.log(), direct);
  rig.prop.Start();
  if (!rig.sec.WaitForSeq(target, kTimeout)) {
    state.SkipWithError("secondary failed to catch up within 60s");
    return;
  }
  std::vector<double> lags;
  lags.reserve(kSteadyRounds);
  auto due = std::chrono::steady_clock::now();
  for (int r = 0; r < kSteadyRounds; ++r) {
    due += kRoundPeriod;
    std::this_thread::sleep_until(due);
    CommitRounds(&primary_db, rounds + r, 1, mixed);
    // seq(DBsec) first: it never passes the primary's latest commit, so
    // reading it before the primary keeps the difference non-negative.
    const lazysi::Timestamp applied = rig.sec.applied_seq();
    lags.push_back(static_cast<double>(primary_db.LatestCommitTs() - applied));
  }
  if (!rig.sec.WaitForSeq(primary_db.LatestCommitTs(), kTimeout)) {
    state.SkipWithError("secondary fell behind the fixed-rate phase");
    return;
  }
  std::sort(lags.begin(), lags.end());
  state.counters["p95_lag_ts"] = lags[lags.size() * 95 / 100];
}

void BM_RefreshCatchup(benchmark::State& state) {
  // The direct-vs-legacy engine comparison on the contended backlog.
  ReplayCatchup(state, /*direct=*/state.range(0) != 0, /*rounds=*/100,
                /*mixed=*/false);
}
BENCHMARK(BM_RefreshCatchup)
    ->ArgNames({"direct"})
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_ParallelReplayCatchup(benchmark::State& state) {
  // The same comparison on a longer backlog with deletes and aborts.
  ReplayCatchup(state, /*direct=*/state.range(0) != 0, /*rounds=*/150,
                /*mixed=*/true);
}
BENCHMARK(BM_ParallelReplayCatchup)
    ->ArgNames({"direct"})
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_SessionReadAfterWrite(benchmark::State& state) {
  // The read-your-writes round trip under ALG-STRONG-SESSION-SI: update at
  // the primary, then a session read that must wait for the refresh.
  SystemConfig config;
  config.num_secondaries = 1;
  config.guarantee = Guarantee::kStrongSessionSI;
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.ConnectTo(0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    (void)client->ExecuteUpdate([&](SystemTransaction& t) {
      return t.Put("key", std::to_string(i++));
    });
    auto read = client->BeginRead();
    benchmark::DoNotOptimize((*read)->Get("key"));
    (void)(*read)->Commit();
  }
  state.SetItemsProcessed(state.iterations());
  sys.Stop();
}
BENCHMARK(BM_SessionReadAfterWrite)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_WeakReadThroughput(benchmark::State& state) {
  // Read-only transactions at a secondary are never blocked; this is the
  // raw secondary read path.
  SystemConfig config;
  config.num_secondaries = 1;
  config.guarantee = Guarantee::kWeakSI;
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.ConnectTo(0);
  (void)client->ExecuteUpdate([](SystemTransaction& t) {
    return t.Put("key", "value");
  });
  sys.WaitForReplication();
  for (auto _ : state) {
    auto read = client->BeginRead();
    benchmark::DoNotOptimize((*read)->Get("key"));
    (void)(*read)->Commit();
  }
  state.SetItemsProcessed(state.iterations());
  sys.Stop();
}
BENCHMARK(BM_WeakReadThroughput);

void BM_ReadRoutingFreshVsBlind(benchmark::State& state) {
  // Freshness routing vs blind round-robin roaming under per-secondary
  // delivery jitter: after each session update the two secondaries catch up
  // at independently jittered times, so at read time one is usually fresh
  // and the other stale. Blind roaming sends half the reads to whichever
  // site the round-robin picks — stale half the time, blocking on seq(c) —
  // while the router places each read on a site that already covers the
  // session (or the freshest one, which also unblocks soonest). Arg:
  // routed=0 is the blind baseline, routed=1 the freshness router.
  SystemConfig config;
  config.num_secondaries = 2;
  config.guarantee = Guarantee::kStrongSessionSI;
  config.network_latency = std::chrono::milliseconds(1);
  config.network_jitter = std::chrono::milliseconds(3);
  if (state.range(0) != 0) {
    config.freshness_routing = true;
  } else {
    config.roam_reads = true;
  }
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.ConnectTo(0);
  std::uint64_t i = 0;
  constexpr int kReadsPerUpdate = 4;
  for (auto _ : state) {
    (void)client->ExecuteUpdate([&](SystemTransaction& t) {
      return t.Put("key", std::to_string(i++));
    });
    for (int r = 0; r < kReadsPerUpdate; ++r) {
      auto read = client->BeginRead();
      benchmark::DoNotOptimize((*read)->Get("key"));
      (void)(*read)->Commit();
    }
  }
  state.SetItemsProcessed(state.iterations() * kReadsPerUpdate);
  sys.Stop();
}
BENCHMARK(BM_ReadRoutingFreshVsBlind)
    ->ArgNames({"routed"})
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ChaosTransportThroughput(benchmark::State& state) {
  // Primary-commit -> secondary-applied throughput over the replication
  // stream at 1% / 5% frame loss (Arg is loss in percent): each lost frame
  // adds a reconnect and a sync-point replay. The loss-free baseline is
  // BM_ReplicationPipeline/1, which runs the same stream.
  SystemConfig config;
  config.num_secondaries = 1;
  config.guarantee = Guarantee::kWeakSI;
  config.transport_faults.drop_probability =
      static_cast<double>(state.range(0)) / 100.0;
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.ConnectTo(0);
  std::uint64_t i = 0;
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int n = 0; n < kBatch; ++n) {
      (void)client->ExecuteUpdate([&](SystemTransaction& t) {
        return t.Put("key" + std::to_string(i % 1024), std::to_string(i));
      });
      ++i;
    }
    benchmark::DoNotOptimize(sys.WaitForReplication());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  sys.Stop();
}
BENCHMARK(BM_ChaosTransportThroughput)
    ->Arg(1)
    ->Arg(5)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_TcpPropagation(benchmark::State& state) {
  // Primary-commit -> secondary-applied throughput over the reactor-based
  // cross-process stream (ReplicationListener -> loopback TCP ->
  // ReplicationReceiver): the wire the multi-process deployment actually
  // runs. Args are {secondaries, max_batch_records}; batch 0 disables
  // coalescing (one DATA frame + flush per record, the PR 8 wire shape).
  // The counters read the listener's own syscall accounting across the
  // timed region: syscalls_per_record is flush syscalls per record streamed
  // (the headline reactor win — batching must cut it >= 4x at the default
  // knobs), bytes_per_record the framing + encoding overhead per record.
  // Both are gated lower-is-better by compare_bench_json.py.
  const auto n_secondaries = static_cast<std::size_t>(state.range(0));
  const auto batch_records = static_cast<std::size_t>(state.range(1));

  engine::Database primary_db;
  replication::Primary primary(&primary_db);
  replication::ReplicationListener::Options lo;
  lo.batching = batch_records > 0;
  if (batch_records > 0) lo.max_batch_records = batch_records;
  replication::ReplicationListener listener(primary.propagator(), lo);
  if (!listener.Start().ok()) {
    state.SkipWithError("listener failed to start");
    return;
  }
  primary.Start();

  struct Sink {
    engine::Database db;
    replication::Secondary secondary;
    replication::ReplicationReceiver receiver;
    Sink(std::uint16_t port, std::size_t id)
        : db(engine::DatabaseOptions{static_cast<lazysi::SiteId>(id),
                                     "bench-sec"}),
          secondary(&db),
          receiver(secondary.update_queue(), [port] {
            replication::ReplicationReceiver::Options o;
            o.primary_port = port;
            return o;
          }()) {
      secondary.Start();
      receiver.Start();
    }
    ~Sink() {
      receiver.Stop();
      secondary.Stop();
    }
  };
  std::vector<std::unique_ptr<Sink>> sinks;
  for (std::size_t s = 0; s < n_secondaries; ++s) {
    sinks.push_back(std::make_unique<Sink>(listener.port(), s + 1));
  }

  std::uint64_t i = 0;
  constexpr int kBatch = 256;
  const auto before = listener.stats();
  for (auto _ : state) {
    lazysi::Timestamp last = 0;
    for (int n = 0; n < kBatch; ++n) {
      auto t = primary_db.Begin();
      (void)t->Put("key" + std::to_string(i % 1024), std::to_string(i));
      (void)t->Commit();
      last = t->commit_ts();
      ++i;
    }
    for (auto& sink : sinks) {
      benchmark::DoNotOptimize(
          sink->secondary.WaitForSeq(last, std::chrono::milliseconds(10000)));
    }
  }
  const auto after = listener.stats();
  const double records =
      static_cast<double>(after.records_streamed - before.records_streamed);
  if (records > 0) {
    state.counters["syscalls_per_record"] =
        static_cast<double>(after.writev_calls - before.writev_calls) /
        records;
    state.counters["bytes_per_record"] =
        static_cast<double>(after.bytes_sent - before.bytes_sent) / records;
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  for (auto& sink : sinks) sink.reset();
  primary.Stop();
  listener.Stop();
}
BENCHMARK(BM_TcpPropagation)
    ->ArgNames({"secondaries", "batch"})
    ->Args({1, 0})
    ->Args({1, 128})
    ->Args({2, 0})
    ->Args({2, 128})
    ->Args({4, 128})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_PartitionedPropagation(benchmark::State& state) {
  // Partial-replication propagation volume and catch-up: 4 partitions over
  // 4 secondaries at replication factor Arg in {4, 2, 1}, i.e. each sink
  // covers 1/1, 1/2 or 1/4 of the keyspace. Every iteration commits a batch
  // spread uniformly across the keyspace and waits until every sink has
  // applied it, so the reported time is fleet catch-up at that coverage.
  // The counters are the delivered volume per sink per committed update:
  // updates_per_sink / bytes_per_sink shrink with the coverage fraction
  // (at 2-way over 4 secondaries a sink carries ~half the full-replication
  // volume — the filtered remainder crosses the wire only as coverage
  // markers, which is the point of partitioning the fleet). Both are gated
  // lower-is-better by compare_bench_json.py.
  SystemConfig config;
  config.num_secondaries = 4;
  config.num_partitions = 4;
  config.partition_replication = static_cast<std::size_t>(state.range(0));
  config.guarantee = Guarantee::kWeakSI;
  ReplicatedSystem sys(config);
  sys.Start();
  auto client = sys.ConnectTo(0);
  std::uint64_t i = 0;
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int n = 0; n < kBatch; ++n) {
      (void)client->ExecuteUpdate([&](SystemTransaction& t) {
        return t.Put("key" + std::to_string(i % 1024), std::to_string(i));
      });
      ++i;
    }
    benchmark::DoNotOptimize(sys.WaitForReplication());
  }
  const auto stats = sys.Stats();
  double updates = 0.0, bytes = 0.0;
  for (const auto& sec : stats.secondaries) {
    updates += static_cast<double>(sec.updates_received);
    bytes += static_cast<double>(sec.update_bytes_received);
  }
  const double sinks = static_cast<double>(stats.secondaries.size());
  const double commits =
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch);
  state.counters["updates_per_sink"] = updates / sinks / commits;
  state.counters["bytes_per_sink"] = bytes / sinks / commits;
  state.SetItemsProcessed(state.iterations() * kBatch);
  sys.Stop();
}
BENCHMARK(BM_PartitionedPropagation)
    ->ArgNames({"replicas"})
    ->Arg(4)
    ->Arg(2)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GroupCommitThroughput(benchmark::State& state) {
  // The durable commit pipeline under concurrent committers: mode 0 is the
  // in-memory engine (no WAL at all), 1/2/3 attach the durable log with
  // fsync_mode never/group/always. The headline comparison: group commit at
  // 16 committers should beat per-commit fsync ("always") by sharing one
  // fdatasync across the batch, while "never" prices the queueing alone and
  // stays within noise of the in-memory path.
  const int mode = static_cast<int>(state.range(0));
  const int committers = static_cast<int>(state.range(1));
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("lazysi_group_commit_bench_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  engine::Database db;
  std::unique_ptr<lazysi::wal::DurableLog> durable;
  if (mode != 0) {
    lazysi::wal::DurableLog::Options lo;
    lo.fsync_mode = mode == 1   ? lazysi::wal::DurableLog::FsyncMode::kNever
                    : mode == 2 ? lazysi::wal::DurableLog::FsyncMode::kGroup
                                : lazysi::wal::DurableLog::FsyncMode::kAlways;
    auto opened = lazysi::engine::OpenDataDir(&db, dir.string(), lo);
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      return;
    }
    durable = std::move(opened->durable);
  }

  constexpr int kPerThread = 32;
  std::mutex lat_mu;
  std::vector<double> lat_us;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(committers);
    for (int t = 0; t < committers; ++t) {
      threads.emplace_back([&, t] {
        std::vector<double> local;
        local.reserve(kPerThread);
        for (int i = 0; i < kPerThread; ++i) {
          const auto begin = std::chrono::steady_clock::now();
          // Distinct key space per committer: no write conflicts, so every
          // latency sample is a clean commit+durability-gate round trip.
          (void)db.Put("c" + std::to_string(t) + "-k" + std::to_string(i % 8),
                       "v" + std::to_string(i));
          local.push_back(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - begin)
                              .count());
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        lat_us.insert(lat_us.end(), local.begin(), local.end());
      });
    }
    for (auto& th : threads) th.join();
  }

  std::sort(lat_us.begin(), lat_us.end());
  if (!lat_us.empty()) {
    state.counters["p95_commit_us"] = lat_us[lat_us.size() * 95 / 100];
  }
  if (durable) {
    const auto c = durable->counters();
    state.counters["fsyncs_per_commit"] =
        lat_us.empty() ? 0.0
                       : static_cast<double>(c.fsyncs) /
                             static_cast<double>(lat_us.size());
    state.counters["mean_group_records"] =
        c.flush_batches == 0 ? 0.0
                             : static_cast<double>(c.records_flushed) /
                                   static_cast<double>(c.flush_batches);
    durable->Close();
  }
  state.SetItemsProcessed(state.iterations() * committers * kPerThread);
  fs::remove_all(dir);
}
BENCHMARK(BM_GroupCommitThroughput)
    ->ArgNames({"mode", "committers"})
    ->Args({0, 1})
    ->Args({0, 4})
    ->Args({0, 16})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 16})
    ->Args({2, 1})
    ->Args({2, 4})
    ->Args({2, 16})
    ->Args({3, 1})
    ->Args({3, 4})
    ->Args({3, 16})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // Raw discrete-event engine speed: how many simulated client events per
  // wall second the CSIM-replacement sustains (drives the figure sweeps).
  for (auto _ : state) {
    lazysi::simmodel::Params p;
    p.num_secondaries = 2;
    p.total_clients_override = 40;
    p.warmup_time = 30;
    p.measure_time = 300;
    lazysi::simmodel::Model model(p, 1);
    benchmark::DoNotOptimize(model.Run());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorEventThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
