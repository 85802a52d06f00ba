// Differential and regression tests for the replay engines: the legacy
// transactional engine (the paper-literal oracle) and the direct-apply
// engine must produce byte-identical replica states and state chains for the
// same propagated workload (aborts, deletes, and commit-without-start
// recovery included), the local->primary translation table must stay bounded
// under pruning, and the shared-mutex translation path must be clean under
// contention (exercised hardest under TSan).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "replication/primary.h"
#include "replication/secondary.h"

namespace lazysi {
namespace replication {
namespace {

constexpr auto kWait = std::chrono::milliseconds(15000);

/// One replay-engine configuration under test.
struct EngineParam {
  const char* name;
  bool direct_apply;
};

SecondaryOptions MakeOptions(const EngineParam& p) {
  return SecondaryOptions{p.direct_apply};
}

const EngineParam kAllEngines[] = {
    {"Legacy", false},
    {"Direct", true},
};

std::string EngineName(const ::testing::TestParamInfo<EngineParam>& info) {
  return info.param.name;
}

// The core differential: every engine replays the same concurrent primary
// workload and must land on the same state, the same per-commit state chain,
// and the same refresh-commit count.
TEST(DirectApplyTest, AllReplayEnginesProduceIdenticalState) {
  engine::Database primary_db;
  Primary primary(&primary_db);
  std::vector<std::unique_ptr<engine::Database>> dbs;
  std::vector<std::unique_ptr<Secondary>> secs;
  for (std::size_t i = 0; i < std::size(kAllEngines); ++i) {
    dbs.push_back(std::make_unique<engine::Database>(engine::DatabaseOptions{
        static_cast<SiteId>(i + 1), kAllEngines[i].name, true}));
    secs.push_back(std::make_unique<Secondary>(dbs.back().get(),
                                               MakeOptions(kAllEngines[i])));
    primary.AttachSecondary(secs.back().get());
    secs.back()->Start();
  }
  primary.Start();

  // Seeded concurrent workload over a SHARED hot keyspace: puts, deletes,
  // voluntary aborts, plus involuntary first-committer-wins aborts.
  constexpr int kWriters = 4;
  constexpr int kTxnsPerWriter = 50;
  std::atomic<int> committed{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(900 + w);
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        auto t = primary_db.Begin();
        const int ops = static_cast<int>(rng.UniformInt(1, 4));
        for (int o = 0; o < ops; ++o) {
          const std::string key = "k" + std::to_string(rng.Next(24));
          if (rng.Bernoulli(0.2)) {
            ASSERT_TRUE(t->Delete(key).ok());
          } else {
            ASSERT_TRUE(t->Put(key, std::to_string(i) + "/" +
                                        std::to_string(o)).ok());
          }
        }
        if (rng.Bernoulli(0.15)) {
          t->Abort();
        } else if (t->Commit().ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_GT(committed.load(), 50);

  for (auto& sec : secs) {
    ASSERT_TRUE(sec->WaitForSeq(primary_db.LatestCommitTs(), kWait));
  }
  primary.Stop();
  for (auto& sec : secs) sec->Stop();

  // Theorem 3.1, executable form: identical per-commit state chains...
  const auto primary_chain = primary_db.StateChainHistory();
  const auto want =
      primary_db.store()->Materialize(primary_db.LatestCommitTs());
  for (std::size_t e = 0; e < secs.size(); ++e) {
    SCOPED_TRACE(kAllEngines[e].name);
    EXPECT_EQ(primary_db.StateHash(), dbs[e]->StateHash());
    const auto chain = dbs[e]->StateChainHistory();
    ASSERT_EQ(primary_chain.size(), chain.size());
    for (std::size_t i = 0; i < primary_chain.size(); ++i) {
      EXPECT_EQ(primary_chain[i].hash, chain[i].hash) << "entry " << i;
    }
    // ...and identical materialized states.
    EXPECT_EQ(want, dbs[e]->store()->Materialize(dbs[e]->LatestCommitTs()));
    // Every engine committed one refresh transaction per primary commit.
    EXPECT_EQ(secs[e]->refreshed_count(),
              static_cast<std::uint64_t>(committed.load()));
    // The propagation stream reached each site gapless.
    EXPECT_EQ(secs[e]->stream_discontinuities(), 0u);
  }
}

class ReplayEngineTest : public ::testing::TestWithParam<EngineParam> {};

// A sink attached mid-stream can receive a commit whose start record it never
// saw; every engine must recover by starting the refresh transaction at
// commit time and still converge.
TEST_P(ReplayEngineTest, CommitWithoutStartRecovers) {
  engine::Database primary_db;
  Primary primary(&primary_db);

  // Begin (and log the start of) a transaction BEFORE the secondary attaches.
  auto orphan = primary_db.Begin();
  ASSERT_TRUE(orphan->Put("orphan", "v1").ok());
  primary.Start();
  while (primary.propagator()->position() < primary_db.log()->Size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  engine::Database sec_db(engine::DatabaseOptions{1, "sec", true});
  Secondary sec(&sec_db, MakeOptions(GetParam()));
  primary.AttachSecondary(&sec);
  sec.Start();

  ASSERT_TRUE(orphan->Commit().ok());  // arrives with no start record
  ASSERT_TRUE(primary_db.Put("after", "v2").ok());
  ASSERT_TRUE(sec.WaitForSeq(primary_db.LatestCommitTs(), kWait));
  primary.Stop();
  sec.Stop();

  const auto state = sec_db.store()->Materialize(sec_db.LatestCommitTs());
  EXPECT_EQ(state.at("orphan"), "v1");
  EXPECT_EQ(state.at("after"), "v2");
  // The secondary saw every commit, so the chains still agree.
  EXPECT_EQ(primary_db.StateHash(), sec_db.StateHash());
  // The newest local commit translates exactly.
  EXPECT_EQ(sec.TranslateLocalToPrimary(sec_db.LatestCommitTs()),
            primary_db.LatestCommitTs());
}

// A stop/restart cycle mid-stream drops queued records (Section 3.4's
// failure model) and every engine must keep working afterwards.
TEST_P(ReplayEngineTest, SurvivesStopStartCycle) {
  engine::Database primary_db;
  Primary primary(&primary_db);
  engine::Database sec_db;
  Secondary sec(&sec_db, MakeOptions(GetParam()));
  primary.AttachSecondary(&sec);
  sec.Start();
  primary.Start();

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(primary_db.Put("a" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(sec.WaitForSeq(primary_db.LatestCommitTs(), kWait));
  sec.Stop();
  sec.Start();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(primary_db.Put("b" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(sec.WaitForSeq(primary_db.LatestCommitTs(), kWait));
  primary.Stop();
  sec.Stop();

  const auto state = sec_db.store()->Materialize(sec_db.LatestCommitTs());
  EXPECT_EQ(state.at("a0"), "v");
  EXPECT_EQ(state.at("b19"), "v");
}

// The propagator stamps gapless stream positions; a record stream that skips
// one must be counted as exactly one discontinuity by either engine, and the
// records on both sides of the gap must still apply.
TEST_P(ReplayEngineTest, CountsOneSeqGapAsOneDiscontinuity) {
  engine::Database sec_db;
  Secondary sec(&sec_db, MakeOptions(GetParam()));
  sec.Start();
  auto* queue = sec.update_queue();
  queue->Push(PropStart{1, 1, /*seq=*/0});
  queue->Push(PropCommit{1, 2, {storage::Write{"a", "1"}}, /*seq=*/1});
  // seq 2 never arrives.
  queue->Push(PropStart{2, 3, /*seq=*/3});
  queue->Push(PropCommit{2, 4, {storage::Write{"b", "2"}}, /*seq=*/4});
  ASSERT_TRUE(sec.WaitForSeq(4, kWait));
  sec.Stop();

  EXPECT_EQ(sec.stream_discontinuities(), 1u);
  EXPECT_EQ(sec.refreshed_count(), 2u);
  EXPECT_EQ(sec_db.Get("b").value(), "2");
}

INSTANTIATE_TEST_SUITE_P(Engines, ReplayEngineTest,
                         ::testing::ValuesIn(kAllEngines), EngineName);

// Without pruning local_to_primary_ grows by one entry per refresh commit
// forever; pruning at the applied horizon must bound it while keeping the
// newest translation exact.
TEST(DirectApplyTest, TranslationTableIsPrunedToHorizon) {
  engine::Database primary_db;
  Primary primary(&primary_db);
  engine::Database sec_db(engine::DatabaseOptions{1, "sec", true});
  Secondary sec(&sec_db, SecondaryOptions{/*direct_apply=*/true});
  primary.AttachSecondary(&sec);
  sec.Start();
  primary.Start();

  constexpr int kCommits = 200;
  for (int i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(primary_db.Put("k" + std::to_string(i % 5),
                               std::to_string(i)).ok());
  }
  ASSERT_TRUE(sec.WaitForSeq(primary_db.LatestCommitTs(), kWait));

  // One translation per refresh commit accumulated...
  EXPECT_EQ(sec.translation_count(), static_cast<std::size_t>(kCommits));
  // ...pruning at the applied horizon keeps only the entry at the horizon.
  const std::size_t erased = sec.PruneTranslations(sec.applied_seq());
  EXPECT_EQ(erased, static_cast<std::size_t>(kCommits - 1));
  EXPECT_EQ(sec.translation_count(), 1u);
  EXPECT_EQ(sec.TranslateLocalToPrimary(sec_db.LatestCommitTs()),
            primary_db.LatestCommitTs());

  primary.Stop();
  sec.Stop();
}

// Readers translate under a shared lock while the refresher and commit hook
// write and a pruner sweeps — the lock discipline must hold under load
// (this is the TSan target for the shared_mutex conversion).
TEST(DirectApplyTest, ContendedTranslationReadsDuringRefresh) {
  engine::Database primary_db;
  Primary primary(&primary_db);
  engine::Database sec_db(engine::DatabaseOptions{1, "sec", true});
  Secondary sec(&sec_db, SecondaryOptions{/*direct_apply=*/true});
  primary.AttachSecondary(&sec);
  sec.Start();
  primary.Start();

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        (void)sec.TranslateLocalToPrimary(sec_db.LatestCommitTs());
        (void)sec.translation_count();
      }
    });
  }
  std::thread pruner([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)sec.PruneTranslations(sec.applied_seq() / 2);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kCommits = 300;
  for (int i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(primary_db.Put("k" + std::to_string(i % 7),
                               std::to_string(i)).ok());
  }
  ASSERT_TRUE(sec.WaitForSeq(primary_db.LatestCommitTs(), kWait));
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  pruner.join();
  primary.Stop();
  sec.Stop();

  EXPECT_EQ(primary_db.StateHash(), sec_db.StateHash());
}

// Group-apply accounting: every refresh commit is covered by exactly one
// store pass, and passes never exceed commits. A pre-built backlog gives the
// applicator a chance to coalesce (but the assertions hold for any batching
// it produces).
TEST(DirectApplyTest, GroupApplyCountersAccountForEveryCommit) {
  engine::Database primary_db;
  Primary primary(&primary_db);
  engine::Database sec_db(engine::DatabaseOptions{1, "sec", true});
  Secondary sec(&sec_db, SecondaryOptions{/*direct_apply=*/true});
  primary.AttachSecondary(&sec);

  constexpr std::uint64_t kCommits = 32;
  for (std::uint64_t i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(primary_db.Put("k" + std::to_string(i), "v").ok());
  }
  sec.Start();
  primary.Start();
  ASSERT_TRUE(sec.WaitForSeq(primary_db.LatestCommitTs(), kWait));
  primary.Stop();
  sec.Stop();

  EXPECT_EQ(sec.refreshed_count(), kCommits);
  EXPECT_EQ(sec.group_applied_commits(), kCommits);
  EXPECT_GE(sec.group_applies(), 1u);
  EXPECT_LE(sec.group_applies(), kCommits);
  EXPECT_GE(sec.max_group_apply(), 1u);
  EXPECT_LE(sec.max_group_apply(), kCommits);
  EXPECT_EQ(primary_db.StateHash(), sec_db.StateHash());
}

// The legacy engine never touches the group-apply machinery.
TEST(DirectApplyTest, LegacyEngineReportsNoGroupApplies) {
  engine::Database primary_db;
  Primary primary(&primary_db);
  engine::Database sec_db(engine::DatabaseOptions{1, "sec", true});
  Secondary sec(&sec_db, SecondaryOptions{/*direct_apply=*/false});
  primary.AttachSecondary(&sec);
  sec.Start();
  primary.Start();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(primary_db.Put("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(sec.WaitForSeq(primary_db.LatestCommitTs(), kWait));
  primary.Stop();
  sec.Stop();
  EXPECT_EQ(sec.group_applies(), 0u);
  EXPECT_EQ(sec.group_applied_commits(), 0u);
  EXPECT_EQ(sec.max_group_apply(), 0u);
}

}  // namespace
}  // namespace replication
}  // namespace lazysi
