//===-- profile/SearchCommon.h - Shared search-runner machinery -*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the pair runner (profile::PairRunner) and the N-way runner
/// (profile::NWayRunner) share below their candidate enumeration:
///
///  - option validation at runner construction;
///  - the SimResult -> Status failure taxonomy;
///  - SimMemo, the memoized candidate simulation (in-process shared
///    futures plus the ResultStore disk layer);
///  - seedIncumbent, the gated incumbent seeding of the budgeted
///    sweep's simulate phase.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_PROFILE_SEARCHCOMMON_H
#define HFUSE_PROFILE_SEARCHCOMMON_H

#include "gpusim/Simulator.h"
#include "profile/SearchOptions.h"
#include "support/Status.h"

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

namespace hfuse {
class ThreadPool;
} // namespace hfuse

namespace hfuse::ir {
class IRKernel;
} // namespace hfuse::ir

namespace hfuse::profile {

class CompileCache;
struct SearchStats;

/// InvalidArgument naming the first field of \p O that makes every
/// simulation meaningless (a default GpuArch has NumSMs = 0 and no
/// memory bandwidth, which would otherwise surface as a cycle-limit
/// failure on every candidate); Ok when the options can run.
Status checkSearchOptions(const SearchOptions &O);

/// Classifies a failed SimResult into the error taxonomy, preserving
/// the transient flag of fault-injected runs.
Status statusFromSim(const gpusim::SimResult &R);

/// Memoized candidate simulations keyed on the exact launch: same IR
/// object, grid, block size and dynamic shared bytes replay the stored
/// result (every search simulation runs at StatsLevel::Full). Entries
/// are shared futures, so concurrent workers requesting one launch
/// block on the first runner instead of simulating twice.
///
///  - A BudgetExceeded result stays memoized: its verdict holds for any
///    caller at least as tight. The first caller needing more
///    simulation (no budget, or a looser one) retires it and re-runs.
///  - Fault-injected, cancelled and gate-aborted results are retired
///    by their own runner before publication: waiters see them, later
///    requests re-simulate. Deterministic failures stay memoized.
///  - A gate follower (RunBudget with a gate, not the seed) resolves
///    its budget from the gate before applying a memoized verdict, and
///    publishes its own run only after the gate resolves — a follower
///    of a failed seed is never memoized, persisted or counted.
///
/// The shared_ptr wrapper gives entries identity, so a retirement
/// no-ops when a concurrent one already installed a fresh entry.
class SimMemo {
public:
  using Key = std::tuple<const ir::IRKernel *, int, int, uint32_t>;

  /// Result of launch \p K under \p Budget: served from the memo, from
  /// \p Cache's ResultStore under \p DiskKey (when non-empty), or
  /// produced by \p Simulate (which must honour \p Budget). \p UseMemo
  /// false bypasses both caches. Counts into \p Stats (may be null)
  /// and \p Cache's counters.
  gpusim::SimResult
  run(const Key &K, const std::string &DiskKey, bool UseMemo,
      CompileCache &Cache, const gpusim::RunBudget &Budget,
      SearchStats *Stats,
      const std::function<gpusim::SimResult()> &Simulate);

private:
  using Entry = std::shared_ptr<std::shared_future<gpusim::SimResult>>;
  void retire(const Key &K, const Entry &E);

  std::map<Key, Entry> Entries;
  std::mutex Mu;
};

/// Incumbent seeding for phase 3 of a budgeted sweep over N positions
/// in best-first order. The seed, position \p Next, runs to completion
/// while the following positions start alongside it — up to the pool's
/// width in all, stopping at the first one \p MayFollow rejects — as
/// followers of one CycleGate: each runs exactly as if budgeted at the
/// seed's final cycles from its first cycle, without waiting for them.
/// Followers start only once the seed is simulating (or resolved), so
/// the seed claims its memo entry and passes its checkpoints first.
///
/// \p Measure(Pos, Budget) simulates position Pos and returns its
/// cycles, or 0 when it did not complete. If the seed yields no
/// incumbent, every follower is handed to \p Forget (its run was
/// aborted, or its verdict depends on a budget that never existed) and
/// the next position seeds instead, exactly like a serial retry.
///
/// Returns the incumbent (0 when every position failed as a seed) and
/// leaves \p Next at the first position not yet measured.
uint64_t seedIncumbent(
    ThreadPool *Pool, size_t N, size_t &Next,
    const std::function<bool(size_t)> &MayFollow,
    const std::function<uint64_t(size_t, const gpusim::RunBudget &)>
        &Measure,
    const std::function<void(size_t)> &Forget);

} // namespace hfuse::profile

#endif // HFUSE_PROFILE_SEARCHCOMMON_H
