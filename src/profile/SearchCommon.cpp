//===-- profile/SearchCommon.cpp - Shared search-runner machinery ---------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/SearchCommon.h"

#include "profile/Compile.h"
#include "profile/PairRunner.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <vector>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::profile;

Status hfuse::profile::checkSearchOptions(const SearchOptions &O) {
  const GpuArch &A = O.Arch;
  // Every field the simulator divides by or sizes machine state with.
  const std::pair<const char *, double> Positive[] = {
      {"NumSMs", A.NumSMs},
      {"SchedulersPerSM", A.SchedulersPerSM},
      {"MaxThreadsPerSM", A.MaxThreadsPerSM},
      {"MaxBlocksPerSM", A.MaxBlocksPerSM},
      {"MaxThreadsPerBlock", A.MaxThreadsPerBlock},
      {"RegsPerSM", A.RegsPerSM},
      {"MaxRegsPerThread", A.MaxRegsPerThread},
      {"RegAllocUnit", A.RegAllocUnit},
      {"SharedMemPerSM", A.SharedMemPerSM},
      {"SharedAllocUnit", A.SharedAllocUnit},
      {"ClockGHz", A.ClockGHz},
      {"BytesPerCycleDevice", A.BytesPerCycleDevice},
      {"MaxInflightSectorsPerSM", A.MaxInflightSectorsPerSM},
      {"SectorBytes", A.SectorBytes},
  };
  for (const auto &[Field, Value] : Positive)
    if (!(Value > 0))
      return Status(ErrorCode::InvalidArgument,
                    formatString("GpuArch '%s': %s must be positive (got %g)",
                                 A.Name.c_str(), Field, Value));
  if (A.WarpSize != 32)
    return Status(ErrorCode::InvalidArgument,
                  formatString("GpuArch '%s': WarpSize must be 32 (got %d)",
                               A.Name.c_str(), A.WarpSize));
  if (O.SimSMs <= 0)
    return Status(ErrorCode::InvalidArgument,
                  formatString("SimSMs must be positive (got %d)", O.SimSMs));
  return Status();
}

Status hfuse::profile::statusFromSim(const SimResult &R) {
  // A cancelled run is a verdict about the request, not the candidate;
  // transient so retry machinery never treats it as a kernel property.
  if (R.Cancelled)
    return Status::transient(
        R.Error.find("deadline") != std::string::npos
            ? ErrorCode::DeadlineExceeded
            : ErrorCode::Cancelled,
        R.Error);
  ErrorCode Code = ErrorCode::SimError;
  if (R.Deadlock)
    Code = ErrorCode::SimDeadlock;
  else if (R.TimedOut)
    Code = ErrorCode::SimTimeout;
  else if (R.BudgetExceeded)
    Code = ErrorCode::SimBudget;
  else if (R.Error.rfind("verification failed", 0) == 0)
    Code = ErrorCode::VerifyError;
  return R.FaultInjected ? Status::transient(Code, R.Error)
                         : Status(Code, R.Error);
}

namespace {

/// The verdict a run budgeted at \p Budget reaches on a launch whose
/// full result is \p R: \p R itself, or an abandonment at the budget.
SimResult underBudget(SimResult R, uint64_t Budget) {
  if (!R.Ok || Budget == 0 || R.TotalCycles <= Budget)
    return R;
  SimResult A;
  A.BudgetExceeded = true;
  A.Error = "cycle budget exceeded";
  A.TotalCycles = Budget;
  return A;
}

SimResult gateAborted() {
  SimResult R;
  R.GateAborted = true;
  R.Error = "incumbent seed failed";
  return R;
}

/// The budget \p B stands for, waiting for a follower's gate to
/// resolve (CycleGate::Aborted when its seed failed).
uint64_t settledBudget(const RunBudget &B) {
  if (!B.Gate || B.Seed)
    return B.Cycles;
  uint64_t Floor = 0;
  return B.Gate->await(UINT64_MAX, Floor);
}

} // namespace

void SimMemo::retire(const Key &K, const Entry &E) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Entries.find(K);
  if (It != Entries.end() && It->second == E)
    Entries.erase(It);
}

SimResult SimMemo::run(const Key &K, const std::string &DiskKey,
                       bool UseMemo, CompileCache &Cache,
                       const RunBudget &Budget, SearchStats *Stats,
                       const std::function<SimResult()> &Simulate) {
  // The retry loop exists for two cases: a memoized budget abort looser
  // than this caller needs, and a gate-aborted run still visible to a
  // waiter. The caller retires that entry (if nobody else has yet) and
  // re-enters the memo as a fresh runner.
  for (;;) {
    std::promise<SimResult> Promise;
    bool IsRunner = false;
    Entry E;
    if (UseMemo) {
      {
        std::lock_guard<std::mutex> Lock(Mu);
        auto It = Entries.find(K);
        if (It != Entries.end()) {
          E = It->second;
        } else {
          IsRunner = true;
          E = std::make_shared<std::shared_future<SimResult>>(
              Promise.get_future().share());
          Entries.emplace(K, E);
        }
      }
      if (!IsRunner) {
        // Served by a completed — or currently running — identical
        // launch; failures replay too (the simulator is deterministic).
        SimResult R = E->get();
        if (R.GateAborted) {
          retire(K, E);
          continue;
        }
        const uint64_t B = settledBudget(Budget);
        if (B == CycleGate::Aborted)
          return gateAborted();
        // A stored abort at its own budget (R.TotalCycles) is the
        // verdict for any caller at least as tight; one needing more
        // simulation retires it and retries.
        if (R.BudgetExceeded && (B == 0 || B > R.TotalCycles)) {
          retire(K, E);
          continue;
        }
        Cache.count(&CompileCache::Stats::SimMemoHits);
        if (Stats)
          ++Stats->MemoHits;
        return underBudget(std::move(R), B);
      }

      // This thread owns the memo entry: consult the disk before
      // simulating. A hit is always a completed Ok run (failures are
      // never persisted), published to the memo in full so waiters
      // apply their own budget logic as they would to a fresh result.
      if (!DiskKey.empty()) {
        if (std::optional<SimResult> Disk = Cache.loadSimResult(DiskKey)) {
          Promise.set_value(*Disk);
          const uint64_t B = settledBudget(Budget);
          if (B == CycleGate::Aborted)
            return gateAborted();
          if (Stats)
            ++Stats->MemoHits;
          return underBudget(std::move(*Disk), B);
        }
      }
    }

    SimResult R = Simulate();
    // A follower that finished before its seed learns now whether its
    // run counts at all.
    if (!R.GateAborted && settledBudget(Budget) == CycleGate::Aborted)
      R = gateAborted();
    if (!R.GateAborted) {
      Cache.count(&CompileCache::Stats::SimRuns);
      if (Stats) {
        ++Stats->Simulations;
        Stats->SimulatedInsts += R.TotalIssued;
        if (R.BudgetExceeded)
          Stats->AbandonedInsts += R.TotalIssued;
      }
    }
    if (IsRunner) {
      // Transient results (fault-injected, cancelled, gate-aborted)
      // are retired before publishing: waiters see them, later
      // requests re-simulate. Only completed, healthy runs are
      // persisted (storeSimResult enforces R.Ok): budget aborts depend
      // on the caller's budget, and no failure may be servable.
      if (R.FaultInjected || R.Cancelled || R.GateAborted)
        retire(K, E);
      if (!DiskKey.empty())
        Cache.storeSimResult(DiskKey, R);
      Promise.set_value(R);
    }
    return R;
  }
}

uint64_t hfuse::profile::seedIncumbent(
    ThreadPool *Pool, size_t N, size_t &Next,
    const std::function<bool(size_t)> &MayFollow,
    const std::function<uint64_t(size_t, const RunBudget &)> &Measure,
    const std::function<void(size_t)> &Forget) {
  const size_t Width = Pool ? std::max<size_t>(1, Pool->numThreads()) : 1;
  while (Next < N) {
    const size_t Seed = Next;
    size_t End = Seed + 1;
    while (End < N && End - Seed < Width && MayFollow(End))
      ++End;
    CycleGate Gate;
    uint64_t Incumbent = 0;
    // One task per position and no more positions than threads: every
    // follower blocked on the gate leaves the seed a thread of its own.
    parallelFor(End - Seed > 1 ? Pool : nullptr, End - Seed, [&](size_t I) {
      if (I == 0) {
        Incumbent = Measure(Seed, {0, &Gate, /*Seed=*/true});
        if (Incumbent != 0)
          Gate.resolve(Incumbent);
        else
          Gate.abort();
        return;
      }
      uint64_t Floor = 0;
      if (Gate.await(1, Floor) != CycleGate::Aborted)
        Measure(Seed + I, {0, &Gate, /*Seed=*/false});
    });
    if (Incumbent != 0) {
      Next = End;
      return Incumbent;
    }
    for (size_t P = Seed + 1; P < End; ++P)
      Forget(P);
    Next = Seed + 1;
  }
  return 0;
}
