//===-- tests/SearchBudgetTest.cpp - Incumbent-budgeted search ------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result-preservation contract of the incumbent-driven
/// branch-and-bound search (Options::Budget == Incumbent): for all 16
/// paper pairs, on quick workloads, across SearchJobs 1 and 4, the
/// budgeted search must return the bit-identical Best config and Best
/// cycle count as the exhaustive sweep. The invariant behind it — a
/// candidate abandoned at the incumbent budget has strictly more
/// cycles than the incumbent and can never be Best, while every
/// candidate at or below the incumbent (ties included) completes with
/// exact cycles — is checked structurally too: survivors carry the
/// exhaustive sweep's cycles, abandoned candidates are exactly the
/// exhaustive candidates above the incumbent, and the accounting
/// (measured + pruned + abandoned = enumerated) closes.
///
/// The whole Incumbent-mode ledger — Best, All, every abandonment's
/// budget and issued count, and the simulated/abandoned instruction
/// totals — is also pinned, at SearchJobs 1 and 4, to values captured
/// before the simulate phase started candidates alongside the
/// incumbent seed and stopped re-profiling the winner: neither change
/// may move a single count.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "profile/NWayRunner.h"
#include "profile/PairRunner.h"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

using namespace hfuse;
using namespace hfuse::bench;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

namespace {

/// One compilation cache across all cases (the nine input kernels
/// repeat across the 16 pairs).
std::shared_ptr<CompileCache> testCache() {
  static std::shared_ptr<CompileCache> Cache =
      std::make_shared<CompileCache>();
  return Cache;
}

PairRunner::Options quickOptions() {
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scale1 = 0.2;
  Opts.Scale2 = 0.2;
  Opts.Verify = false;
  Opts.Cache = testCache();
  return Opts;
}

std::map<std::tuple<int, int, unsigned>, uint64_t>
candidateMap(const SearchResult &SR) {
  std::map<std::tuple<int, int, unsigned>, uint64_t> M;
  for (const FusionCandidate &C : SR.All)
    M[{C.D1, C.D2, C.RegBound}] = C.Cycles;
  return M;
}

SearchResult runSearch(const BenchPair &P, SearchBudgetMode Budget,
                       int Jobs) {
  PairRunner::Options Opts = quickOptions();
  Opts.Budget = Budget;
  Opts.SearchJobs = Jobs;
  PairRunner R(P.A, P.B, Opts);
  EXPECT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  EXPECT_TRUE(SR.Ok) << SR.Error;
  return SR;
}

/// One line per ledger: "best D:rB=C; all ...; abandoned D:rB@budget#
/// issued ...; insts simulated/abandoned", with D the partition sizes.
template <class Result, class DimsOf>
std::string ledger(const Result &R, DimsOf Dims) {
  auto Cand = [&](const auto &C) {
    return Dims(C) + ":r" + std::to_string(C.RegBound);
  };
  std::string S = "best " + Cand(R.Best) + "=" +
                  std::to_string(R.Best.Cycles) + "; all";
  for (const auto &C : R.All)
    S += " " + Cand(C) + "=" + std::to_string(C.Cycles);
  S += "; abandoned";
  for (const auto &A : R.Abandoned)
    S += " " + Cand(A) + "@" + std::to_string(A.BudgetCycles) + "#" +
         std::to_string(A.IssuedInsts);
  return S + "; insts " + std::to_string(R.Stats.SimulatedInsts) + "/" +
         std::to_string(R.Stats.AbandonedInsts);
}

std::string pairLedger(const SearchResult &R) {
  return ledger(R, [](const auto &C) {
    return std::to_string(C.D1) + "/" + std::to_string(C.D2);
  });
}

/// Incumbent-mode ledgers of the 16 paper pairs under quickOptions().
const std::map<std::string, std::string> &pinnedLedgers() {
  static const std::map<std::string, std::string> Pins = {
    {"Batchnorm_Upsample",
     "best 512/512:r32=153182; all 384/640:r32=158211 512/512:r32=153182 "
     "640/384:r32=161091; abandoned 128/896:r0@161091#190960 "
     "128/896:r32@161091#392730 256/768:r0@161091#354418 "
     "256/768:r32@161091#641662 384/640:r0@161091#484173 "
     "512/512:r0@161091#601518 640/384:r0@161091#602440 "
     "768/256:r0@161091#461474 768/256:r32@161091#797785 "
     "896/128:r0@161091#286306 896/128:r32@161091#521046; insts "
     "7960496/5334512"},
    {"Batchnorm_Hist",
     "best 896/128:r0=192989; all 512/512:r32=198067 640/384:r0=201174 "
     "640/384:r32=197621 768/256:r0=200690 768/256:r32=208672 "
     "896/128:r0=192989; abandoned 128/896:r0@208672#158958 "
     "128/896:r32@208672#285683 256/768:r0@208672#289048 "
     "256/768:r32@208672#486056 384/640:r0@208672#412534 "
     "384/640:r32@208672#654188 512/512:r0@208672#542644 "
     "896/128:r32@208672#1079030; insts 8619965/3908141"},
    {"Batchnorm_Im2Col",
     "best 512/512:r32=152542; all 512/512:r32=152542 "
     "640/384:r32=158988; abandoned 128/896:r0@158988#261664 "
     "128/896:r32@158988#443906 256/768:r0@158988#406966 "
     "256/768:r32@158988#681031 384/640:r0@158988#499726 "
     "384/640:r32@158988#864571 512/512:r0@158988#641292 "
     "640/384:r0@158988#712187 768/256:r0@158988#760224 "
     "768/256:r32@158988#1083459 896/128:r0@158988#449898 "
     "896/128:r32@158988#725260; insts 9483080/7530184"},
    {"Batchnorm_Maxpool",
     "best 640/384:r32=139365; all 640/384:r32=139365; abandoned "
     "128/896:r0@139365#149989 128/896:r32@139365#260559 "
     "256/768:r0@139365#249492 256/768:r32@139365#400889 "
     "384/640:r0@139365#333016 384/640:r32@139365#542753 "
     "512/512:r0@139365#409000 512/512:r32@139365#672636 "
     "640/384:r0@139365#470789 768/256:r0@139365#368644 "
     "768/256:r32@139365#701355 896/128:r0@139365#265567 "
     "896/128:r32@139365#505253; insts 6080854/5329942"},
    {"Hist_Im2Col",
     "best 256/768:r32=73975; all 256/768:r32=73975 384/640:r32=83343; "
     "abandoned 128/896:r0@83343#362006 128/896:r32@83343#500930 "
     "256/768:r0@83343#416190 384/640:r0@83343#350419 "
     "512/512:r0@83343#331631 512/512:r32@83343#460182 "
     "640/384:r0@83343#282707 640/384:r32@83343#415723 "
     "768/256:r0@83343#207795 768/256:r32@83343#327897 "
     "896/128:r0@83343#117007 896/128:r32@83343#216317; insts "
     "4998948/3988804"},
    {"Hist_Maxpool",
     "best 384/640:r32=74411; all 384/640:r32=74411; abandoned "
     "128/896:r0@74411#136619 128/896:r32@74411#187169 "
     "256/768:r0@74411#130920 256/768:r32@74411#196588 "
     "384/640:r0@74411#122648 512/512:r0@74411#114904 "
     "512/512:r32@74411#205402 640/384:r0@74411#99705 "
     "640/384:r32@74411#171227 768/256:r0@74411#66021 "
     "768/256:r32@74411#140555 896/128:r0@74411#44341 "
     "896/128:r32@74411#88775; insts 1947450/1704874"},
    {"Hist_Upsample",
     "best 128/896:r32=81347; all 128/896:r32=81347 256/768:r32=85196 "
     "384/640:r32=93461; abandoned 128/896:r0@93461#312049 "
     "256/768:r0@93461#306751 384/640:r0@93461#260102 "
     "512/512:r0@93461#229792 512/512:r32@93461#402032 "
     "640/384:r0@93461#178000 640/384:r32@93461#340941 "
     "768/256:r0@93461#130656 768/256:r32@93461#242583 "
     "896/128:r0@93461#73800 896/128:r32@93461#142563; insts "
     "3959861/2619269"},
    {"Im2Col_Maxpool",
     "best 512/512:r32=107136; all 512/512:r32=107136; abandoned "
     "128/896:r0@107136#175632 128/896:r32@107136#297844 "
     "256/768:r0@107136#307448 256/768:r32@107136#448769 "
     "384/640:r0@107136#370485 384/640:r32@107136#549920 "
     "512/512:r0@107136#366444 640/384:r0@107136#328305 "
     "640/384:r32@107136#586982 768/256:r0@107136#209324 "
     "768/256:r32@107136#450424 896/128:r0@107136#157277 "
     "896/128:r32@107136#317027; insts 5151129/4565881"},
    {"Im2Col_Upsample",
     "best 512/512:r32=121525; all 512/512:r32=121525; abandoned "
     "128/896:r0@121525#224594 128/896:r32@121525#389785 "
     "256/768:r0@121525#419762 256/768:r32@121525#637737 "
     "384/640:r0@121525#530918 384/640:r32@121525#754826 "
     "512/512:r0@121525#486204 640/384:r0@121525#378818 "
     "640/384:r32@121525#660377 768/256:r0@121525#287472 "
     "768/256:r32@121525#509429 896/128:r0@121525#175656 "
     "896/128:r32@121525#336574; insts 6576056/5792152"},
    {"Maxpool_Upsample",
     "best 384/640:r32=114877; all 384/640:r32=114877 "
     "512/512:r32=115376; abandoned 128/896:r0@115376#115852 "
     "128/896:r32@115376#235024 256/768:r0@115376#192968 "
     "256/768:r32@115376#371376 384/640:r0@115376#303370 "
     "512/512:r0@115376#314290 640/384:r0@115376#254266 "
     "640/384:r32@115376#436833 768/256:r0@115376#187738 "
     "768/256:r32@115376#331300 896/128:r0@115376#113000 "
     "896/128:r32@115376#210068; insts 4099301/3066085"},
    {"Blake2B_Ethash",
     "best 256/256:r0=904415; all 256/256:r0=904415; abandoned "
     "256/256:r64@904415#2336354; insts 4143074/2336354"},
    {"Blake256_Ethash",
     "best 256/256:r0=331919; all 256/256:r0=331919; abandoned "
     "256/256:r32@331919#1728954; insts 3953082/1728954"},
    {"Ethash_SHA256",
     "best 256/256:r0=325902; all 256/256:r0=325902; abandoned "
     "256/256:r32@325902#1697447; insts 4026023/1697447"},
    {"Blake256_Blake2B",
     "best 256/256:r0=972096; all 256/256:r0=972096 256/256:r64=1741806; "
     "abandoned; insts 9959424/0"},
    {"Blake256_SHA256",
     "best 256/256:r0=537576; all 256/256:r0=537576; abandoned "
     "256/256:r32@537576#3189608; insts 7449704/3189608"},
    {"Blake2B_SHA256",
     "best 256/256:r0=989664; all 256/256:r0=989664 256/256:r64=1757064; "
     "abandoned; insts 10178688/0"},
  };
  return Pins;
}

std::string caseName(const testing::TestParamInfo<BenchPair> &Info) {
  return std::string(kernelDisplayName(Info.param.A)) + "_" +
         kernelDisplayName(Info.param.B);
}

class SearchBudget : public testing::TestWithParam<BenchPair> {};

TEST_P(SearchBudget, BitIdenticalBestAcrossBudgetModesAndJobs) {
  const BenchPair &P = GetParam();
  SearchResult Off = runSearch(P, SearchBudgetMode::Off, 1);
  if (!Off.Ok)
    return;
  auto Exhaustive = candidateMap(Off);

  for (int Jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    SearchResult Bud = runSearch(P, SearchBudgetMode::Incumbent, Jobs);
    if (!Bud.Ok)
      continue;

    // The headline contract: bit-identical Best config and cycles.
    EXPECT_EQ(Bud.Best.D1, Off.Best.D1);
    EXPECT_EQ(Bud.Best.D2, Off.Best.D2);
    EXPECT_EQ(Bud.Best.RegBound, Off.Best.RegBound);
    EXPECT_EQ(Bud.Best.Cycles, Off.Best.Cycles);

    // The incumbent came from a completed candidate of the sweep.
    ASSERT_NE(Bud.Stats.IncumbentCycles, 0u);
    EXPECT_GE(Bud.Stats.IncumbentCycles, Bud.Best.Cycles);

    // Every budgeted survivor measured the exhaustive sweep's exact
    // cycles, and everything at or below the incumbent survived.
    auto Measured = candidateMap(Bud);
    for (const auto &[Key, Cycles] : Measured) {
      auto It = Exhaustive.find(Key);
      ASSERT_NE(It, Exhaustive.end());
      EXPECT_EQ(It->second, Cycles);
    }
    for (const auto &[Key, Cycles] : Exhaustive)
      if (Cycles <= Bud.Stats.IncumbentCycles)
        EXPECT_TRUE(Measured.count(Key))
            << "candidate within the incumbent was not measured";

    // Abandoned candidates are exactly the ones the exhaustive sweep
    // measured above the incumbent — never the winner.
    EXPECT_EQ(Measured.size() + Bud.Abandoned.size(), Exhaustive.size());
    for (const AbandonedCandidate &A : Bud.Abandoned) {
      auto It = Exhaustive.find({A.D1, A.D2, A.RegBound});
      ASSERT_NE(It, Exhaustive.end());
      EXPECT_GT(It->second, Bud.Stats.IncumbentCycles);
      EXPECT_EQ(A.BudgetCycles, Bud.Stats.IncumbentCycles);
    }

    // Accounting closes and the instruction counters are consistent.
    EXPECT_EQ(Bud.Stats.Candidates,
              Bud.All.size() + Bud.Pruned.size() + Bud.Abandoned.size());
    EXPECT_EQ(Bud.Stats.Abandoned, Bud.Abandoned.size());
    EXPECT_LE(Bud.Stats.AbandonedInsts, Bud.Stats.SimulatedInsts);

    // And the ledger is exactly the pinned one.
    auto Pin = pinnedLedgers().find(caseName({P, 0}));
    ASSERT_NE(Pin, pinnedLedgers().end());
    EXPECT_EQ(pairLedger(Bud), Pin->second);
  }
}

TEST_P(SearchBudget, TightBudgetAndMeasuredBoundPreserveBest) {
  // incumbent-tight shrinks budgets mid-sweep and re-issues the ledger
  // under the final incumbent; the measured bound replaces the static
  // instruction-count ranking with solo issued counts. Both are
  // ordering/cost optimizations only: Best must stay bit-identical to
  // plain incumbent mode, across worker counts.
  const BenchPair &P = GetParam();
  SearchResult Base = runSearch(P, SearchBudgetMode::Incumbent, 1);
  if (!Base.Ok)
    return;

  for (int Jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    PairRunner::Options Opts = quickOptions();
    Opts.Budget = SearchBudgetMode::IncumbentTight;
    Opts.SearchJobs = Jobs;
    PairRunner R(P.A, P.B, Opts);
    ASSERT_TRUE(R.ok()) << R.error();
    SearchResult Tight = R.searchBestConfig();
    ASSERT_TRUE(Tight.Ok) << Tight.Error;
    EXPECT_EQ(Tight.Best.D1, Base.Best.D1);
    EXPECT_EQ(Tight.Best.D2, Base.Best.D2);
    EXPECT_EQ(Tight.Best.RegBound, Base.Best.RegBound);
    EXPECT_EQ(Tight.Best.Cycles, Base.Best.Cycles);
    // Deterministic reporting: the final incumbent IS the winner, and
    // every reported survivor fits under it (exact ties included).
    EXPECT_EQ(Tight.Stats.IncumbentCycles, Tight.Best.Cycles);
    for (const FusionCandidate &C : Tight.All)
      EXPECT_LE(C.Cycles, Tight.Stats.IncumbentCycles);
    EXPECT_EQ(Tight.Stats.Candidates,
              Tight.All.size() + Tight.Pruned.size() +
                  Tight.Abandoned.size());
  }

  PairRunner::Options Opts = quickOptions();
  Opts.Budget = SearchBudgetMode::Incumbent;
  Opts.MeasuredBound = true;
  PairRunner R(P.A, P.B, Opts);
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult Meas = R.searchBestConfig();
  ASSERT_TRUE(Meas.Ok) << Meas.Error;
  EXPECT_EQ(Meas.Best.D1, Base.Best.D1);
  EXPECT_EQ(Meas.Best.D2, Base.Best.D2);
  EXPECT_EQ(Meas.Best.RegBound, Base.Best.RegBound);
  EXPECT_EQ(Meas.Best.Cycles, Base.Best.Cycles);
}

INSTANTIATE_TEST_SUITE_P(AllPaperPairs, SearchBudget,
                         testing::ValuesIn(paperPairs()), caseName);

TEST(SearchBudgetPins, CryptoTripleLedgerMatchesPin) {
  // The N-way runner shares the gated seeding: its ledger is pinned the
  // same way (scale 0.25, the hfusec --quick portfolio scale).
  const std::string Pin =
     "best 256/256/256:r0=667115; all 256/256/256:r0=667115; abandoned; "
     "insts 4448256/0";
  for (int Jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    NWayRunner::Options Opts;
    Opts.Arch = makeGTX1080Ti();
    Opts.SimSMs = 2;
    Opts.Scale = 0.25;
    Opts.Verify = false;
    Opts.Cache = testCache();
    Opts.Budget = SearchBudgetMode::Incumbent;
    Opts.SearchJobs = Jobs;
    NWayRunner R({BenchKernelId::Blake256, BenchKernelId::SHA256,
                  BenchKernelId::Ethash},
                 Opts);
    ASSERT_TRUE(R.ok()) << R.error();
    NWaySearchResult SR = R.searchBestConfig();
    ASSERT_TRUE(SR.Ok) << SR.Error;
    EXPECT_EQ(ledger(SR, [](const auto &C) { return dimsLabel(C.Dims); }),
              Pin);
  }
}

//===----------------------------------------------------------------------===//
// Determinism of the budgeted sweep across worker counts
//===----------------------------------------------------------------------===//

TEST(SearchBudgetDeterminism, AbandonmentSetIdenticalAcrossJobs) {
  // Budgets are fixed before the parallel phase (incumbent from a
  // deterministic best-first seed), so not just Best but the whole
  // measured/abandoned split and the abandoned instruction counts must
  // be identical across SearchJobs.
  BenchPair P{BenchKernelId::Batchnorm, BenchKernelId::Hist};
  SearchResult A = runSearch(P, SearchBudgetMode::Incumbent, 1);
  SearchResult B = runSearch(P, SearchBudgetMode::Incumbent, 4);
  if (!A.Ok || !B.Ok)
    return;
  EXPECT_EQ(A.Stats.IncumbentCycles, B.Stats.IncumbentCycles);
  EXPECT_EQ(candidateMap(A), candidateMap(B));
  ASSERT_EQ(A.Abandoned.size(), B.Abandoned.size());
  for (size_t I = 0; I < A.Abandoned.size(); ++I) {
    EXPECT_EQ(A.Abandoned[I].D1, B.Abandoned[I].D1);
    EXPECT_EQ(A.Abandoned[I].RegBound, B.Abandoned[I].RegBound);
    EXPECT_EQ(A.Abandoned[I].IssuedInsts, B.Abandoned[I].IssuedInsts);
  }
  EXPECT_EQ(A.Stats.SimulatedInsts, B.Stats.SimulatedInsts);
  EXPECT_EQ(A.Stats.AbandonedInsts, B.Stats.AbandonedInsts);
}

//===----------------------------------------------------------------------===//
// Measured-margin re-admission under aggressive pruning
//===----------------------------------------------------------------------===//

TEST(SearchBudgetMargin, AggressivePruningIsBoundedByTheStatedMargin) {
  BenchPair P{BenchKernelId::Batchnorm, BenchKernelId::Hist};
  SearchResult Off = runSearch(P, SearchBudgetMode::Off, 1);
  if (!Off.Ok)
    return;

  PairRunner::Options Opts = quickOptions();
  Opts.Budget = SearchBudgetMode::Incumbent;
  Opts.PruneLevel = 2;
  Opts.BudgetMarginPct = 10.0;
  PairRunner R(P.A, P.B, Opts);
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  ASSERT_TRUE(SR.Ok) << SR.Error;

  // Under the budget, occupancy-dominated candidates are re-admitted
  // and measured instead of silently skipped: nothing is dropped on
  // occupancy dominance alone.
  for (const PrunedCandidate &C : SR.Pruned)
    EXPECT_EQ(C.Reason.find("dominated"), std::string::npos) << C.Reason;

  // The stated bound: Best within (1 + margin) of the true optimum.
  EXPECT_LE(SR.Best.Cycles,
            static_cast<uint64_t>(1.10 * Off.Best.Cycles) + 1);

  // Re-admitted candidates abandoned early ran under the tighter
  // margin budget; their true cycles exceed incumbent/(1+margin).
  auto Exhaustive = candidateMap(Off);
  uint64_t MarginBudget = static_cast<uint64_t>(
      static_cast<double>(SR.Stats.IncumbentCycles) / 1.10);
  for (const AbandonedCandidate &A : SR.Abandoned) {
    EXPECT_TRUE(A.BudgetCycles == SR.Stats.IncumbentCycles ||
                A.BudgetCycles == std::max<uint64_t>(1, MarginBudget))
        << A.BudgetCycles;
    auto It = Exhaustive.find({A.D1, A.D2, A.RegBound});
    ASSERT_NE(It, Exhaustive.end());
    EXPECT_GT(It->second, A.BudgetCycles);
  }
}

} // namespace
