//===-- tests/StoreSearchTest.cpp - Warm-vs-cold store invariants ---------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The golden invariant of the persistent ResultStore under the search
/// pipeline: a warm-cache run (results served from disk) and a cold run
/// (results computed) produce bit-identical SearchResults for all 16
/// paper pairs — same Best config, same cycle counts, same candidate
/// sets — with the warm run performing zero simulations. Also covered:
/// every injected store fault degrades the sweep to a correct
/// storeless run (never a wrong answer, never a crash), warm budgeted
/// sweeps match cold budgeted sweeps, and a schema bump quarantines
/// old records and recomputes rather than serving stale payloads.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "profile/PairRunner.h"
#include "support/FaultInjector.h"
#include "support/ResultStore.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <unistd.h>
#include <vector>

using namespace hfuse;
using namespace hfuse::bench;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("hfuse-store-search-" + Tag + "-" + std::to_string(::getpid()));
    fs::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

/// Store options that never sleep: under every-match injected faults
/// each disk access walks the full retry schedule, and the default
/// backoff would turn a quick sweep into seconds of waiting.
ResultStore::Options quietStoreOptions() {
  ResultStore::Options O;
  O.Retry.Sleep = [](uint64_t) {};
  return O;
}

PairRunner::Options quickOptions(const std::shared_ptr<CompileCache> &Cache) {
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scale1 = 0.2;
  Opts.Scale2 = 0.2;
  Opts.Verify = false;
  Opts.Budget = SearchBudgetMode::Off;
  Opts.Cache = Cache;
  return Opts;
}

SearchResult runSweep(const BenchPair &P, const PairRunner::Options &Opts) {
  PairRunner R(P.A, P.B, Opts);
  EXPECT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  EXPECT_TRUE(SR.Ok) << SR.Error;
  return SR;
}

std::map<std::tuple<int, int, unsigned>, uint64_t>
candidateMap(const SearchResult &SR) {
  std::map<std::tuple<int, int, unsigned>, uint64_t> M;
  for (const FusionCandidate &C : SR.All)
    M[{C.D1, C.D2, C.RegBound}] = C.Cycles;
  return M;
}

void expectBitIdentical(const SearchResult &A, const SearchResult &B) {
  EXPECT_EQ(A.Best.D1, B.Best.D1);
  EXPECT_EQ(A.Best.D2, B.Best.D2);
  EXPECT_EQ(A.Best.RegBound, B.Best.RegBound);
  EXPECT_EQ(A.Best.Cycles, B.Best.Cycles);
  EXPECT_EQ(candidateMap(A), candidateMap(B));
  EXPECT_EQ(A.Pruned.size(), B.Pruned.size());
}

std::string caseName(const testing::TestParamInfo<BenchPair> &Info) {
  return std::string(kernelDisplayName(Info.param.A)) + "_" +
         kernelDisplayName(Info.param.B);
}

class StoreSearch : public testing::TestWithParam<BenchPair> {};

} // namespace

TEST_P(StoreSearch, WarmRunIsBitIdenticalToColdAndSimulatesNothing) {
  const BenchPair &P = GetParam();
  TempDir D("warmcold");

  // Cold: fresh cache, fresh store — everything computed and persisted.
  auto ColdCache = std::make_shared<CompileCache>();
  {
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    ASSERT_TRUE(Store);
    ColdCache->attachStore(Store);
  }
  SearchResult Cold = runSweep(P, quickOptions(ColdCache));
  if (!Cold.Ok)
    return;
  CompileCache::Stats ColdStats = ColdCache->stats();
  EXPECT_GT(ColdStats.SimRuns, 0u);
  EXPECT_GT(ColdStats.DiskWrites, 0u);
  EXPECT_EQ(ColdStats.DiskHits, 0u);

  // Warm: a brand-new process image as far as the pipeline can tell —
  // fresh CompileCache (no in-memory memo), reopened store.
  auto WarmCache = std::make_shared<CompileCache>();
  {
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    ASSERT_TRUE(Store);
    EXPECT_EQ(Store->stats().Quarantined, 0u);
    WarmCache->attachStore(Store);
  }
  SearchResult Warm = runSweep(P, quickOptions(WarmCache));
  ASSERT_TRUE(Warm.Ok) << Warm.Error;

  expectBitIdentical(Warm, Cold);

  // The headline: with Budget=Off every candidate was persisted, so
  // the warm sweep re-simulates nothing.
  CompileCache::Stats WarmStats = WarmCache->stats();
  EXPECT_EQ(WarmStats.SimRuns, 0u);
  EXPECT_GT(WarmStats.DiskHits, 0u);
  EXPECT_EQ(WarmStats.DiskHits, ColdStats.DiskWrites);
}

TEST_P(StoreSearch, WarmBudgetedSweepMatchesColdBudgetedSweep) {
  const BenchPair &P = GetParam();
  TempDir D("warmbudget");

  // Cold budgeted run populates the store with every *completed*
  // candidate (abandoned ones are never persisted).
  auto ColdCache = std::make_shared<CompileCache>();
  {
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    ASSERT_TRUE(Store);
    ColdCache->attachStore(Store);
  }
  PairRunner::Options ColdOpts = quickOptions(ColdCache);
  ColdOpts.Budget = SearchBudgetMode::Incumbent;
  SearchResult Cold = runSweep(P, ColdOpts);
  if (!Cold.Ok)
    return;

  // Warm budgeted run must reach the same Best and the same
  // completed/abandoned split: a stored full result above the budget
  // is resynthesized as BudgetExceeded, not smuggled in as a survivor.
  auto WarmCache = std::make_shared<CompileCache>();
  {
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    ASSERT_TRUE(Store);
    WarmCache->attachStore(Store);
  }
  PairRunner::Options WarmOpts = quickOptions(WarmCache);
  WarmOpts.Budget = SearchBudgetMode::Incumbent;
  SearchResult Warm = runSweep(P, WarmOpts);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;

  expectBitIdentical(Warm, Cold);
  EXPECT_EQ(Warm.Abandoned.size(), Cold.Abandoned.size());
  EXPECT_EQ(Warm.Stats.IncumbentCycles, Cold.Stats.IncumbentCycles);
}

INSTANTIATE_TEST_SUITE_P(AllPaperPairs, StoreSearch,
                         testing::ValuesIn(paperPairs()), caseName);

namespace {

/// One representative pair for the fault-containment sweeps (the
/// invariant is store-level, not pair-level; the parameterized suite
/// above covers the cross-pair surface).
BenchPair faultPair() { return paperPairs().front(); }

} // namespace

TEST(StoreFaultTest, EveryInjectedStoreFaultDegradesToACorrectRun) {
  InjectorGuard G;

  // Storeless reference.
  auto RefCache = std::make_shared<CompileCache>();
  SearchResult Ref = runSweep(faultPair(), quickOptions(RefCache));
  ASSERT_TRUE(Ref.Ok) << Ref.Error;

  const char *Faults[] = {"store-write-torn", "store-corrupt",
                          "store-lock-timeout", "store-read-fail"};
  for (const char *Fault : Faults) {
    SCOPED_TRACE(Fault);
    TempDir D(std::string("fault-") + Fault);

    // Seed the store with one clean cold run so read-side faults have
    // records to chew on. store-write-torn starts from an empty store
    // instead — against a seeded one its reads would simply hit, which
    // is correct but exercises nothing.
    if (std::string(Fault) != "store-write-torn") {
      auto SeedCache = std::make_shared<CompileCache>();
      auto Store =
          ResultStore::open(D.str(), kStoreSchemaVersion, nullptr,
                            quietStoreOptions());
      ASSERT_TRUE(Store);
      SeedCache->attachStore(Store);
      SearchResult Seed = runSweep(faultPair(), quickOptions(SeedCache));
      ASSERT_TRUE(Seed.Ok) << Seed.Error;
    }

    // Now run with the fault firing on every matching site. The sweep
    // must complete with the storeless reference's exact answer: a
    // faulted store degrades to recomputation, never to a wrong or
    // missing result.
    ASSERT_TRUE(FaultInjector::instance().configure(Fault));
    auto Cache = std::make_shared<CompileCache>();
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion, nullptr,
                                   quietStoreOptions());
    ASSERT_TRUE(Store);
    Cache->attachStore(Store);
    SearchResult Got = runSweep(faultPair(), quickOptions(Cache));
    FaultInjector::instance().reset();
    ASSERT_TRUE(Got.Ok) << Fault << ": " << Got.Error;
    expectBitIdentical(Got, Ref);
    // Nothing could be served from disk, so everything was simulated.
    EXPECT_EQ(Cache->stats().DiskHits, 0u);
    EXPECT_EQ(Cache->stats().SimRuns, RefCache->stats().SimRuns);
  }
}

TEST(StoreFaultTest, SchemaBumpQuarantinesOldRecordsAndRecomputes) {
  TempDir D("schemabump");

  auto ColdCache = std::make_shared<CompileCache>();
  {
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    ASSERT_TRUE(Store);
    ColdCache->attachStore(Store);
  }
  SearchResult Cold = runSweep(faultPair(), quickOptions(ColdCache));
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  const uint64_t Persisted = ColdCache->stats().DiskWrites;
  ASSERT_GT(Persisted, 0u);

  // Reopen under a bumped schema: every old record is quarantined (not
  // deleted), nothing is served stale, and the sweep recomputes to the
  // identical answer.
  auto Cache = std::make_shared<CompileCache>();
  auto Store = ResultStore::open(D.str(), kStoreSchemaVersion + 1);
  ASSERT_TRUE(Store);
  EXPECT_GE(Store->stats().Quarantined, Persisted);
  Cache->attachStore(Store);
  SearchResult Got = runSweep(faultPair(), quickOptions(Cache));
  ASSERT_TRUE(Got.Ok) << Got.Error;
  expectBitIdentical(Got, Cold);
  EXPECT_EQ(Cache->stats().DiskHits, 0u);
  EXPECT_GT(Cache->stats().SimRuns, 0u);

  size_t QuarantineFiles = 0;
  for (const auto &E : fs::directory_iterator(Store->quarantineDir())) {
    (void)E;
    ++QuarantineFiles;
  }
  EXPECT_GE(QuarantineFiles, Persisted);
}

TEST(StoreFaultTest, Version1RecordsAreQuarantined) {
  // Schema 1 keyed simulation records by stats level; schema 2 dropped
  // it. A store written by a schema-1 build must be quarantined whole
  // on open, and the sweep must recompute to the same answer.
  static_assert(kStoreSchemaVersion == 2);
  TempDir D("schemav1");

  auto OldCache = std::make_shared<CompileCache>();
  {
    auto Store = ResultStore::open(D.str(), /*SchemaVersion=*/1);
    ASSERT_TRUE(Store);
    OldCache->attachStore(Store);
  }
  SearchResult Old = runSweep(faultPair(), quickOptions(OldCache));
  ASSERT_TRUE(Old.Ok) << Old.Error;
  const uint64_t Persisted = OldCache->stats().DiskWrites;
  ASSERT_GT(Persisted, 0u);

  auto Cache = std::make_shared<CompileCache>();
  auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
  ASSERT_TRUE(Store);
  EXPECT_GE(Store->stats().Quarantined, Persisted);
  Cache->attachStore(Store);
  SearchResult Got = runSweep(faultPair(), quickOptions(Cache));
  ASSERT_TRUE(Got.Ok) << Got.Error;
  expectBitIdentical(Got, Old);
  EXPECT_EQ(Cache->stats().DiskHits, 0u);
}
