//===-- perfbench/perfbench.cpp - HFuse search benchmark ------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search benchmark. One closed-loop client sends Figure 6 search
/// requests through service::SearchService::search with the settings of
/// `hfusec --search --quick --search-jobs 4`, checks every winner
/// against the CPU references, and prints the end-to-end metrics
/// (untraced run) or the per-layer ledger (traced run). Usage:
///
///   perfbench --workload dl_pairs|crypto_mix|warm_store --seed N
///             --seconds S --trace 0|1 --work-dir DIR
///             [--expect FILE | --record FILE] [--requests N]
///
/// The untraced run repeats whole passes over the workload's request
/// list until --seconds have elapsed. The traced run makes one pass
/// with a span around each search call (for the counts and the tracing
/// overhead), then one SearchJobs = 1 pass whose requests are each
/// replayed layer by layer through the layers' public entry points
/// right after they return, each call timed by the benchmark's own
/// spans. The spans are written to DIR as a Chrome trace.
///
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// The exit code is 0 only when every request completed, every winner
/// verified, and every Best matched across passes and the expected
/// file.
///
//===----------------------------------------------------------------------===//

#include "gpusim/GpuArch.h"
#include "gpusim/Simulator.h"
#include "ir/RegAlloc.h"
#include "kernels/Kernels.h"
#include "kernels/Workload.h"
#include "profile/Compile.h"
#include "profile/NWayRunner.h"
#include "profile/PaperPairs.h"
#include "profile/PairRunner.h"
#include "service/SearchService.h"
#include "support/ResultStore.h"
#include "support/ThreadPool.h"
#include "transform/Fusion.h"
#include "transform/Pipeline.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

using namespace hfuse;
using kernels::BenchKernelId;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

[[noreturn]] void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Request {
  std::string Name; ///< "Batchnorm+Upsample"
  std::vector<BenchKernelId> Ids;
  /// warm_store: the second send of a request against the same store.
  bool Warm = false;
};

struct WorkloadSpec {
  std::vector<Request> Requests; ///< one pass, in send order
  bool UsesStore = false;
};

Request makeRequest(std::vector<BenchKernelId> Ids) {
  Request R;
  for (BenchKernelId Id : Ids)
    R.Name += (R.Name.empty() ? "" : "+") +
              std::string(kernels::kernelDisplayName(Id));
  R.Ids = std::move(Ids);
  return R;
}

/// The request lists (README.md says why each was chosen).
/// \p MaxRequests > 0 truncates the distinct-request list (self-test).
std::optional<WorkloadSpec> workloadSpec(const std::string &Name,
                                         size_t MaxRequests) {
  const std::vector<profile::PaperPair> &Pairs = profile::paperPairs();
  std::vector<Request> Base;
  // Figure 9 order: the first 10 paper pairs are the DL pairs, the
  // last 6 the crypto pairs.
  if (Name == "dl_pairs" || Name == "warm_store") {
    for (size_t I = 0; I < 10; ++I)
      Base.push_back(makeRequest({Pairs[I].A, Pairs[I].B}));
  } else if (Name == "crypto_mix") {
    for (size_t I = 10; I < Pairs.size(); ++I)
      Base.push_back(makeRequest({Pairs[I].A, Pairs[I].B}));
    Base.push_back(makeRequest(
        {BenchKernelId::Blake256, BenchKernelId::SHA256, BenchKernelId::Ethash}));
  } else {
    return std::nullopt;
  }
  if (MaxRequests > 0 && Base.size() > MaxRequests)
    Base.resize(MaxRequests);

  WorkloadSpec S;
  S.Requests = Base;
  if (Name == "warm_store") {
    S.UsesStore = true;
    for (Request R : Base) {
      R.Warm = true;
      S.Requests.push_back(std::move(R));
    }
  }
  return S;
}

/// Number of distinct requests at the front of a pass (warm_store sends
/// each of them twice).
size_t distinctRequests(const WorkloadSpec &S) {
  return S.UsesStore ? S.Requests.size() / 2 : S.Requests.size();
}

std::vector<BenchKernelId> distinctKernels(const WorkloadSpec &S) {
  std::vector<BenchKernelId> Out;
  for (const Request &R : S.Requests)
    for (BenchKernelId Id : R.Ids)
      if (std::find(Out.begin(), Out.end(), Id) == Out.end())
        Out.push_back(Id);
  return Out;
}

/// `hfusec --search --quick` defaults: GTX 1080 Ti model on 2 simulated
/// SMs at input scale 0.25, incumbent budget, safe pruning, static
/// bound, no verification inside the search.
constexpr int SimSMs = 2;
constexpr double Scale = 0.25;

profile::PairRunner::Options
searchOptions(uint32_t Seed, int Jobs,
              std::shared_ptr<profile::CompileCache> Cache) {
  profile::PairRunner::Options O;
  O.Arch = gpusim::makeGTX1080Ti();
  O.SimSMs = SimSMs;
  O.Scale1 = O.Scale2 = Scale;
  O.Verify = false;
  O.Seed = Seed;
  O.SearchJobs = Jobs;
  O.PruneLevel = 1;
  O.Budget = profile::SearchBudgetMode::Incumbent;
  O.Cache = std::move(Cache);
  return O;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// The benchmark's own span recorder: spans are kept in memory, nested
/// by a parent index, and written out as a Chrome trace at the end.
class SpanLog {
public:
  template <typename F> auto time(const char *Layer, F &&Fn) {
    size_t Id = Spans.size();
    Spans.push_back({Layer, "", Parent, since(T0), 0.0});
    if constexpr (std::is_void_v<decltype(Fn())>) {
      Fn();
      Spans[Id].End = since(T0);
    } else {
      auto R = Fn();
      Spans[Id].End = since(T0);
      return R;
    }
  }

  /// Opens a parent span (one per request); layer spans nest under it.
  void beginRequest(const std::string &Name) {
    Parent = static_cast<int>(Spans.size());
    Spans.push_back({"request", Name, -1, since(T0), 0.0});
  }
  void endRequest() {
    Spans[static_cast<size_t>(Parent)].End = since(T0);
    Parent = -1;
  }

  double total(const std::string &Layer) const {
    double S = 0.0;
    for (const Span &Sp : Spans)
      if (Sp.Layer == Layer)
        S += Sp.End - Sp.Start;
    return S;
  }

  void writeChromeTrace(const std::string &Path) const {
    std::ofstream OS(Path);
    OS << "{\"traceEvents\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &Sp = Spans[I];
      OS << (I ? ",\n" : "\n") << "{\"name\":\"" << Sp.Layer
         << (Sp.Name.empty() ? "" : " " + Sp.Name)
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << Sp.Start * 1e6
         << ",\"dur\":" << (Sp.End - Sp.Start) * 1e6
         << ",\"args\":{\"parent\":" << Sp.Parent << "}}";
    }
    OS << "\n]}\n";
  }

private:
  struct Span {
    std::string Layer;
    std::string Name;
    int Parent;
    double Start, End;
  };
  Clock::time_point T0 = Clock::now();
  std::vector<Span> Spans;
  int Parent = -1;
};

//===----------------------------------------------------------------------===//
// Set-up and request execution
//===----------------------------------------------------------------------===//

/// Opens a new, empty store under WorkDir/stores, which main() empties
/// before anything is timed.
std::shared_ptr<ResultStore> openFreshStore(const std::string &WorkDir) {
  static int Seq = 0;
  std::string Dir = WorkDir + "/stores/" + std::to_string(Seq++);
  Status Err;
  std::shared_ptr<ResultStore> S =
      ResultStore::open(Dir, profile::kStoreSchemaVersion, &Err);
  if (!S)
    fatal("cannot open result store " + Dir + ": " + Err.str());
  return S;
}

/// What set-up builds: the shared compile cache, the store (warm_store
/// only) and the service.
struct Env {
  std::shared_ptr<profile::CompileCache> Cache;
  std::shared_ptr<ResultStore> Store;
  std::unique_ptr<service::SearchService> Svc;
};

Env setUp(const WorkloadSpec &Spec, const std::string &WorkDir) {
  Env E;
  E.Cache = std::make_shared<profile::CompileCache>();
  RetryPolicy Retry; // hfusec's --compile-retries default
  Retry.MaxAttempts = 3;
  Retry.BackoffBaseMs = 5;
  E.Cache->setRetryPolicy(Retry);
  if (Spec.UsesStore) {
    E.Store = openFreshStore(WorkDir);
    E.Cache->attachStore(E.Store);
  }
  service::SearchService::Config SC;
  SC.Workers = 1;
  SC.Cache = E.Cache;
  E.Svc = std::make_unique<service::SearchService>(SC);
  for (BenchKernelId Id : distinctKernels(Spec)) {
    DiagnosticEngine Diags;
    Status Err;
    if (!E.Cache->getBenchKernel(Id, /*RegBound=*/0, Diags, &Err))
      fatal(std::string("compiling ") + kernels::kernelDisplayName(Id) +
            ": " + Err.str());
  }
  return E;
}

/// A winning configuration: partition (2 dims for a pair), register
/// bound, simulated cycles.
struct BestConfig {
  std::vector<int> Dims;
  unsigned RegBound = 0;
  uint64_t Cycles = 0;

  std::string str() const {
    std::string S;
    for (int D : Dims)
      S += (S.empty() ? "" : "/") + std::to_string(D);
    return S + " r" + std::to_string(RegBound) + " " + std::to_string(Cycles);
  }
};

/// One request as sent.
struct Sent {
  size_t Req = 0; ///< index into WorkloadSpec::Requests
  double WallS = 0.0;
  bool Ok = false;
  std::string Error;
  BestConfig Best;
  profile::SearchStats Stats;
  std::optional<service::SearchOutcome> Outcome; ///< kept for the replay
};

Sent sendOne(Env &E, const WorkloadSpec &Spec, size_t Idx, uint32_t Seed,
             int Jobs, bool Keep) {
  const Request &Req = Spec.Requests[Idx];
  service::SearchRequest R;
  if (Req.Ids.size() == 2) {
    R.A = Req.Ids[0];
    R.B = Req.Ids[1];
  } else {
    R.Kernels = Req.Ids;
  }
  R.Runner = searchOptions(Seed, Jobs, E.Cache);

  Sent S;
  S.Req = Idx;
  auto T0 = Clock::now();
  Expected<service::SearchOutcome> Res = E.Svc->search(R);
  S.WallS = since(T0);
  if (!Res) {
    S.Error = "rejected: " + Res.status().str();
    return S;
  }
  service::SearchOutcome Out = Res.take();
  const profile::SearchResult &SR = Out.Search;
  S.Stats = SR.Stats;
  if (!SR.Ok) {
    S.Error = "search failed: " + SR.Err.str();
  } else if (SR.Partial) {
    S.Error = "partial result: " + SR.PartialReason.str();
  } else if (Out.NWay) {
    S.Ok = true;
    S.Best = {Out.NWay->Best.Dims, Out.NWay->Best.RegBound,
              Out.NWay->Best.Cycles};
  } else {
    S.Ok = true;
    S.Best = {{SR.Best.D1, SR.Best.D2}, SR.Best.RegBound, SR.Best.Cycles};
  }
  if (Keep)
    S.Outcome = std::move(Out);
  return S;
}

struct Pass {
  std::vector<Sent> Sends;
  double WallS = 0.0;
  double CpuS = 0.0;
  ResultStore::Stats StoreAtStart, StoreAtWarm, StoreAtEnd;
};

/// Sends every request of one pass, closed loop. warm_store passes
/// after the first get a fresh store, opened outside the measured time,
/// so every pass has the same cold/warm shape. \p After, when set, sees
/// each request's full outcome right after it returns. \p SetupTimes,
/// when set, receives the time of one extra set-up after each request;
/// the pass's wall and CPU time leave those set-ups out.
Pass runPass(Env &E, const WorkloadSpec &Spec, uint32_t Seed, int Jobs,
             bool FreshStore, const std::string &WorkDir, SpanLog *Log,
             const std::function<void(const Sent &)> &After = nullptr,
             std::vector<double> *SetupTimes = nullptr) {
  if (Spec.UsesStore && FreshStore) {
    E.Store = openFreshStore(WorkDir);
    E.Cache->attachStore(E.Store);
  }
  Pass P;
  if (E.Store)
    P.StoreAtStart = P.StoreAtWarm = E.Store->stats();
  double Cpu0 = cpuSeconds();
  double AsideWall = 0.0, AsideCpu = 0.0;
  auto T0 = Clock::now();
  for (size_t I = 0; I < Spec.Requests.size(); ++I) {
    if (E.Store && I > 0 && Spec.Requests[I].Warm &&
        !Spec.Requests[I - 1].Warm)
      P.StoreAtWarm = E.Store->stats();
    const bool Keep = static_cast<bool>(After);
    if (Log) {
      P.Sends.push_back(Log->time("service.search", [&] {
        return sendOne(E, Spec, I, Seed, Jobs, Keep);
      }));
    } else {
      P.Sends.push_back(sendOne(E, Spec, I, Seed, Jobs, Keep));
    }
    if (After) {
      After(P.Sends.back());
      P.Sends.back().Outcome.reset();
    }
    if (SetupTimes) {
      double C0 = cpuSeconds();
      auto S0 = Clock::now();
      {
        Env Extra = setUp(Spec, WorkDir);
        SetupTimes->push_back(since(S0));
      }
      AsideWall += since(S0);
      AsideCpu += cpuSeconds() - C0;
    }
  }
  P.WallS = since(T0) - AsideWall;
  P.CpuS = cpuSeconds() - Cpu0 - AsideCpu;
  if (E.Store)
    P.StoreAtEnd = E.Store->stats();
  return P;
}

//===----------------------------------------------------------------------===//
// Correctness
//===----------------------------------------------------------------------===//

bool sameStats(const profile::SearchStats &A, const profile::SearchStats &B) {
  return A.Candidates == B.Candidates && A.Simulations == B.Simulations &&
         A.MemoHits == B.MemoHits && A.Pruned == B.Pruned &&
         A.Abandoned == B.Abandoned && A.Failed == B.Failed &&
         A.Unvisited == B.Unvisited && A.SimulatedInsts == B.SimulatedInsts &&
         A.AbandonedInsts == B.AbandonedInsts &&
         A.IncumbentCycles == B.IncumbentCycles;
}

/// The checks made on each winner, each on its own runner so they
/// spread over threads: the winner re-run with its outputs verified
/// against the CPU references, and the unfused baselines
/// (PairRunner::runNative for a pair; streams and serial for an N-way
/// group).
enum class Check { Winner, Native, Serial };

gpusim::SimResult runCheck(const Request &Req, const BestConfig &Best,
                           Check C, uint32_t Seed,
                           std::shared_ptr<profile::CompileCache> Cache) {
  profile::PairRunner::Options O = searchOptions(Seed, 1, std::move(Cache));
  O.Verify = true;
  gpusim::SimResult Failed;
  if (Req.Ids.size() == 2) {
    profile::PairRunner R(Req.Ids[0], Req.Ids[1], O);
    if (!R.ok()) {
      Failed.Error = R.error();
      return Failed;
    }
    return C == Check::Winner
               ? R.runHFused(Best.Dims[0], Best.Dims[1], Best.RegBound)
               : R.runNative();
  }
  profile::NWayRunner::Options NO;
  static_cast<profile::SearchOptions &>(NO) =
      static_cast<const profile::SearchOptions &>(O);
  NO.Scale = Scale;
  profile::NWayRunner R(Req.Ids, NO);
  if (!R.ok()) {
    Failed.Error = R.error();
    return Failed;
  }
  if (C == Check::Winner)
    return R.runHFused(Best.Dims, Best.RegBound);
  return C == Check::Native ? R.runNative() : R.runSerial();
}

struct Verdict {
  std::string Error; ///< empty when verified
  uint64_t BaselineCycles = 0; ///< best unfused baseline
};

/// Runs every check of the distinct requests on 4 worker threads.
std::vector<Verdict> verifyAll(const WorkloadSpec &Spec,
                               const std::vector<BestConfig> &Bests,
                               uint32_t Seed) {
  struct Job {
    size_t Req;
    Check C;
    gpusim::SimResult R;
  };
  std::vector<Job> Jobs;
  for (size_t I = 0; I < Bests.size(); ++I) {
    Jobs.push_back({I, Check::Winner, {}});
    Jobs.push_back({I, Check::Native, {}});
    if (Spec.Requests[I].Ids.size() > 2)
      Jobs.push_back({I, Check::Serial, {}});
  }
  auto Cache = std::make_shared<profile::CompileCache>();
  ThreadPool Pool(4);
  parallelFor(&Pool, Jobs.size(), [&](size_t I) {
    Jobs[I].R = runCheck(Spec.Requests[Jobs[I].Req], Bests[Jobs[I].Req],
                         Jobs[I].C, Seed, Cache);
  });

  std::vector<Verdict> Out(Bests.size());
  for (const Job &J : Jobs) {
    Verdict &V = Out[J.Req];
    if (!J.R.Ok) {
      V.Error += (J.C == Check::Winner ? "winner failed verification: "
                                       : "baseline failed: ") +
                 J.R.Error + "; ";
    } else if (J.C == Check::Winner) {
      if (J.R.TotalCycles != Bests[J.Req].Cycles)
        V.Error += "verified winner ran " + std::to_string(J.R.TotalCycles) +
                   " cycles, search reported " +
                   std::to_string(Bests[J.Req].Cycles) + "; ";
    } else if (V.BaselineCycles == 0 || J.R.TotalCycles < V.BaselineCycles) {
      V.BaselineCycles = J.R.TotalCycles;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Layer replay (traced run)
//===----------------------------------------------------------------------===//

/// One ledger row of a finished search, arity-independent.
struct LedgerRow {
  std::vector<int> Dims;
  unsigned RegBound = 0;
  bool Completed = false; ///< in All, with exact Cycles
  bool Abandoned = false; ///< cut off at Budget after Issued instructions
  uint64_t Cycles = 0, Budget = 0, Issued = 0;
};

std::vector<LedgerRow> ledger(const service::SearchOutcome &O) {
  std::vector<LedgerRow> Rows;
  if (O.NWay) {
    for (const auto &C : O.NWay->All)
      Rows.push_back({C.Dims, C.RegBound, true, false, C.Cycles, 0, 0});
    for (const auto &A : O.NWay->Abandoned)
      Rows.push_back(
          {A.Dims, A.RegBound, false, true, 0, A.BudgetCycles, A.IssuedInsts});
    for (const auto &P : O.NWay->Pruned)
      Rows.push_back({P.Dims, P.RegBound, false, false, 0, 0, 0});
    return Rows;
  }
  const profile::SearchResult &SR = O.Search;
  for (const auto &C : SR.All)
    Rows.push_back({{C.D1, C.D2}, C.RegBound, true, false, C.Cycles, 0, 0});
  for (const auto &A : SR.Abandoned)
    Rows.push_back({{A.D1, A.D2}, A.RegBound, false, true, 0, A.BudgetCycles,
                    A.IssuedInsts});
  for (const auto &P : SR.Pruned)
    Rows.push_back({{P.D1, P.D2}, P.RegBound, false, false, 0, 0, 0});
  return Rows;
}

struct ReplayTotals {
  uint64_t IrInsts = 0;
  uint64_t Spilled = 0;
  uint64_t WarpInsts = 0;
  uint64_t Cycles = 0;
  /// Replayed runs whose cycles differ from the search's ledger.
  uint64_t Mismatches = 0;
};

/// Re-executes the work one SearchJobs = 1 search did, layer by layer,
/// through each layer's public entry point: one simulator context, one
/// fusion and lowering per enumerated partition, one register
/// allocation per (partition, bound), one simulation per candidate the
/// search simulated (under the budget it ran with), the Full-stats
/// winner run, and an N-way group's baselines. Store I/O mirrors the
/// search's: a get before each simulation, a put after each Ok one, and
/// no simulation on a warm hit.
void replay(SpanLog &Log, const Request &Req,
            const service::SearchOutcome &Out, uint32_t Seed,
            profile::CompileCache &Cache, ResultStore &Store,
            ReplayTotals &T) {
  const size_t N = Req.Ids.size();
  std::vector<std::shared_ptr<const profile::CompiledKernel>> Ks;
  for (BenchKernelId Id : Req.Ids) {
    DiagnosticEngine Diags;
    Ks.push_back(Cache.getBenchKernel(Id, 0, Diags));
    if (!Ks.back())
      fatal("replay: kernel compile failed");
  }

  std::vector<std::unique_ptr<kernels::Workload>> Ws;
  std::unique_ptr<gpusim::Simulator> Sim;
  Log.time("kernels.workload_setup", [&] {
    gpusim::SimConfig SC;
    SC.Arch = gpusim::makeGTX1080Ti();
    SC.SimSMs = SimSMs;
    Sim = std::make_unique<gpusim::Simulator>(SC);
    for (size_t I = 0; I < N; ++I) {
      kernels::WorkloadConfig WC;
      WC.SizeScale = Scale;
      WC.SimSMs = SimSMs;
      WC.Seed = Seed + static_cast<uint32_t>(I);
      Ws.push_back(kernels::makeWorkload(Req.Ids[I], WC));
      Ws.back()->setup(*Sim);
    }
  });
  int Grid = 0;
  uint32_t DynShared = 0;
  for (const auto &W : Ws) {
    Grid = std::max(Grid, W->preferredGrid());
    DynShared += W->dynSharedBytes();
  }

  // Fuse and lower each enumerated partition once, then allocate
  // registers per bound; a bound at or above the unbounded allocation
  // aliases the unbounded kernel, as in the search.
  std::vector<LedgerRow> Rows = ledger(Out);
  std::vector<std::unique_ptr<cuda::ASTContext>> Ctxs;
  std::map<std::pair<std::vector<int>, unsigned>,
           std::shared_ptr<ir::IRKernel>>
      IRs;
  std::set<std::vector<int>> Partitions;
  for (const LedgerRow &R : Rows)
    Partitions.insert(R.Dims);
  for (const std::vector<int> &Dims : Partitions) {
    Ctxs.push_back(std::make_unique<cuda::ASTContext>());
    cuda::ASTContext &Ctx = *Ctxs.back();
    DiagnosticEngine Diags;
    cuda::FunctionDecl *Fused = Log.time("transform.fuse", [&] {
      if (N == 2) {
        transform::HorizontalFusionOptions HO;
        HO.D1 = Dims[0];
        HO.D2 = Dims[1];
        HO.Y1 = Ws[0]->preferredBlockY();
        HO.Y2 = Ws[1]->preferredBlockY();
        transform::FusionResult FR =
            transform::fuseHorizontal(Ctx, Ks[0]->fn(), Ks[1]->fn(), HO, Diags);
        return FR.Ok ? FR.Fused : nullptr;
      }
      std::vector<const cuda::FunctionDecl *> Fns;
      std::vector<std::pair<int, int>> Shapes;
      for (size_t I = 0; I < N; ++I) {
        Fns.push_back(Ks[I]->fn());
        Shapes.emplace_back(Ws[I]->preferredBlockY(), 1);
      }
      transform::MultiFusionResult MR = transform::fuseHorizontalMany(
          Ctx, Fns, Dims, /*FusedName=*/"", Diags, Shapes);
      return MR.Ok ? MR.Fused : nullptr;
    });
    if (!Fused)
      fatal("replay: fusion failed for " + Req.Name + ": " + Diags.str());
    std::unique_ptr<ir::IRKernel> Base = Log.time("codegen.lower", [&] {
      return profile::lowerFunctionNoRegAlloc(Ctx, Fused, Diags);
    });
    if (!Base)
      fatal("replay: lowering failed for " + Req.Name + ": " + Diags.str());
    T.IrInsts += Base->numInstructions();

    std::set<unsigned> Bounds{0};
    for (const LedgerRow &R : Rows)
      if (R.Dims == Dims)
        Bounds.insert(R.RegBound);
    unsigned UnboundedRegs = 0;
    for (unsigned B : Bounds) { // ascending: the unbounded variant first
      if (B != 0 && B >= UnboundedRegs) {
        IRs[{Dims, B}] = IRs[{Dims, 0}];
        continue;
      }
      auto IR = std::make_shared<ir::IRKernel>(*Base);
      ir::RegAllocResult RA =
          Log.time("ir.regalloc", [&] { return ir::allocateRegisters(*IR, B); });
      if (!RA.Ok)
        fatal("replay: register allocation failed: " + RA.Error);
      T.Spilled += RA.NumSpilled;
      if (B == 0)
        UnboundedRegs = IR->ArchRegsPerThread;
      IRs[{Dims, B}] = IR;
    }
  }

  auto launchFor = [&](const std::vector<int> &Dims, unsigned Bound) {
    gpusim::KernelLaunch L;
    L.Kernel = IRs.at({Dims, Bound}).get();
    L.GridDim = Grid;
    L.BlockDim = 0;
    for (int D : Dims)
      L.BlockDim += D;
    L.DynSharedBytes = DynShared;
    for (const auto &W : Ws)
      L.Params.insert(L.Params.end(), W->params().begin(), W->params().end());
    return L;
  };
  auto simulate = [&](const std::vector<gpusim::KernelLaunch> &Ls,
                      gpusim::StatsLevel Level, uint64_t Budget,
                      const char *Layer) {
    for (const auto &W : Ws)
      W->clearOutputs(*Sim);
    gpusim::SimResult R =
        Log.time(Layer, [&] { return Sim->run(Ls, Level, Budget); });
    T.WarpInsts += R.TotalIssued;
    T.Cycles += R.TotalCycles;
    return R;
  };
  // A run the search would serve from the store on a warm pass is not
  // simulated; every other run is, and Ok results are persisted.
  auto storeKey = [&](const std::vector<int> &Dims, unsigned Bound,
                      const char *Level) {
    std::string K = "perfbench|" + Req.Name + "|" + std::to_string(Seed);
    for (int D : Dims)
      K += "|" + std::to_string(D);
    return K + "|r" + std::to_string(Bound) + "|" + Level;
  };
  auto servedFromStore = [&](const std::string &Key) {
    std::optional<std::string> Hit =
        Log.time("store.get", [&] { return Store.get(Key); });
    return Hit.has_value() && Req.Warm;
  };
  auto persist = [&](const std::string &Key, const gpusim::SimResult &R) {
    if (R.Ok)
      Log.time("store.put", [&] { return Store.put(Key, profile::encodeSimResult(R)); });
  };

  std::set<const ir::IRKernel *> Simulated;
  for (const LedgerRow &R : Rows) {
    if (!R.Completed && !(R.Abandoned && R.Issued > 0))
      continue; // pruned, or abandoned from a memoized result
    gpusim::KernelLaunch L = launchFor(R.Dims, R.RegBound);
    if (!Simulated.insert(L.Kernel).second)
      continue; // an aliased bound: the simulation memo serves it
    std::string Key = storeKey(R.Dims, R.RegBound, "minimal");
    if (servedFromStore(Key))
      continue;
    gpusim::SimResult SR = simulate({L}, gpusim::StatsLevel::Minimal,
                                    R.Abandoned ? R.Budget : 0, "gpusim.sim");
    if ((R.Completed && SR.TotalCycles != R.Cycles) ||
        (R.Abandoned && !SR.BudgetExceeded))
      ++T.Mismatches;
    persist(Key, SR);
  }

  BestConfig Best;
  if (Out.NWay)
    Best = {Out.NWay->Best.Dims, Out.NWay->Best.RegBound, Out.NWay->Best.Cycles};
  else
    Best = {{Out.Search.Best.D1, Out.Search.Best.D2}, Out.Search.Best.RegBound,
            Out.Search.Best.Cycles};
  std::string BestKey = storeKey(Best.Dims, Best.RegBound, "full");
  if (!servedFromStore(BestKey)) {
    gpusim::SimResult R = simulate({launchFor(Best.Dims, Best.RegBound)},
                                   gpusim::StatsLevel::Full, 0,
                                   "gpusim.winner_full");
    if (R.TotalCycles != Best.Cycles)
      ++T.Mismatches;
    persist(BestKey, R);
  }

  // The service runs an N-way group's streams and serial baselines
  // inside the request.
  if (Out.NWay) {
    std::vector<gpusim::KernelLaunch> Native;
    for (size_t I = 0; I < N; ++I) {
      gpusim::KernelLaunch L;
      L.Kernel = Ks[I]->IR.get();
      L.GridDim = Ws[I]->preferredGrid();
      L.BlockDim = Ws[I]->preferredBlock();
      L.BlockDimY = Ws[I]->preferredBlockY();
      L.DynSharedBytes = Ws[I]->dynSharedBytes();
      L.Params = Ws[I]->params();
      Native.push_back(L);
    }
    simulate(Native, gpusim::StatsLevel::Full, 0, "gpusim.sim");
    for (const gpusim::KernelLaunch &L : Native)
      simulate({L}, gpusim::StatsLevel::Full, 0, "gpusim.sim");
  }
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note; ///< human report only
};

void printReport(const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-30s %18.6f %-10s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
}

void printJson(bool Correct, uint64_t Attempted, uint64_t Failed,
               const std::vector<Metric> &Ms) {
  std::string S = std::string("{\"correct\": ") +
                  (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Ms.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Ms[I].Value);
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  std::printf("%s}}\n", S.c_str());
}

/// The counts of one pass, read from the public result structs.
std::vector<Metric> countMetrics(const Pass &P, bool HasStore,
                                 const profile::CompileCache::Stats &CS,
                                 const service::SearchService::Stats &SS) {
  profile::SearchStats Sum;
  for (const Sent &S : P.Sends) {
    Sum.Candidates += S.Stats.Candidates;
    Sum.Simulations += S.Stats.Simulations;
    Sum.Pruned += S.Stats.Pruned;
    Sum.Abandoned += S.Stats.Abandoned;
    Sum.MemoHits += S.Stats.MemoHits;
    Sum.SimulatedInsts += S.Stats.SimulatedInsts;
    Sum.AbandonedInsts += S.Stats.AbandonedInsts;
  }
  const ResultStore::Stats &A = P.StoreAtStart, &W = P.StoreAtWarm,
                           &Z = P.StoreAtEnd;
  double WarmHits = static_cast<double>(Z.Hits - W.Hits);
  double WarmLookups = WarmHits + static_cast<double>(Z.Misses - W.Misses);
  auto D = [](auto V) { return static_cast<double>(V); };
  return {
      {"profile.candidates", D(Sum.Candidates), "count", ""},
      {"profile.simulated", D(Sum.Simulations), "count", ""},
      {"profile.pruned", D(Sum.Pruned), "count", ""},
      {"profile.abandoned", D(Sum.Abandoned), "count", ""},
      {"profile.memo_hits", D(Sum.MemoHits), "count", ""},
      {"profile.sim_insts", D(Sum.SimulatedInsts), "count", ""},
      {"profile.wasted_insts_share",
       Sum.SimulatedInsts ? D(Sum.AbandonedInsts) / D(Sum.SimulatedInsts) : 0.0,
       "ratio", "abandoned / simulated instructions"},
      {"cudalang.kernel_compiles", D(CS.KernelCompiles), "count", ""},
      {"cudalang.compile_hits", D(CS.KernelHits), "count", ""},
      {"transform.fusions", D(CS.FusionRuns), "count", ""},
      {"codegen.lowerings", D(CS.Lowerings), "count", ""},
      {"store.hits", D(Z.Hits - A.Hits), "count", ""},
      {"store.misses", D(Z.Misses - A.Misses), "count", ""},
      {"store.writes", D(Z.Writes - A.Writes), "count", ""},
      {"store.hit_share", WarmLookups > 0 ? WarmHits / WarmLookups : 0.0,
       "ratio", HasStore ? "warm pass" : "no store"},
      {"service.completed", D(SS.Completed), "count", ""},
      {"service.rejected", D(SS.RejectedFull + SS.RejectedDrain), "count", ""},
  };
}

struct Args {
  std::string Workload;
  uint32_t Seed = 42;
  double Seconds = 10.0;
  bool Trace = false;
  std::string WorkDir = ".";
  std::string Expect, Record;
  size_t MaxRequests = 0;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      fatal("missing value for " + K);
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = static_cast<uint32_t>(std::stoul(V));
    else if (K == "--seconds")
      A.Seconds = std::stod(V);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--work-dir")
      A.WorkDir = V;
    else if (K == "--expect")
      A.Expect = V;
    else if (K == "--record")
      A.Record = V;
    else if (K == "--requests")
      A.MaxRequests = std::stoul(V);
    else
      fatal("unknown argument " + K);
  }
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::optional<WorkloadSpec> SpecOr = workloadSpec(A.Workload, A.MaxRequests);
  if (!SpecOr)
    fatal("unknown workload '" + A.Workload +
          "' (dl_pairs, crypto_mix, warm_store)");
  const WorkloadSpec &Spec = *SpecOr;
  std::filesystem::remove_all(A.WorkDir + "/stores");
  std::filesystem::create_directories(A.WorkDir);
  constexpr int Jobs = 4;

  // The set-up that serves the run. The untraced run repeats set-up
  // once after every request as well: samples spread over the run follow
  // the host's state as the searches see it, where back-to-back
  // millisecond set-ups at process start varied by 30% between runs.
  auto T0 = Clock::now();
  Env E = setUp(Spec, A.WorkDir);
  std::vector<double> SetupTimes{since(T0)};

  std::vector<Pass> Passes;
  SpanLog Log;
  if (!A.Trace) {
    T0 = Clock::now();
    do
      Passes.push_back(runPass(E, Spec, A.Seed, Jobs, !Passes.empty(),
                               A.WorkDir, nullptr, nullptr, &SetupTimes));
    while (since(T0) < A.Seconds);
  } else {
    Passes.push_back(runPass(E, Spec, A.Seed, Jobs, false, A.WorkDir, &Log));
  }
  // Counts are read after the first pass (they repeat exactly); the
  // peak is taken before verification adds runners of its own.
  const profile::CompileCache::Stats CacheStats = E.Cache->stats();
  const service::SearchService::Stats SvcStats = E.Svc->stats();
  const double PeakRssMb = peakRssMb();

  // Traced run: a SearchJobs = 1 pass whose requests are each replayed
  // layer by layer right after they return.
  ReplayTotals Replayed;
  std::optional<Pass> Serial;
  if (A.Trace) {
    for (BenchKernelId Id : distinctKernels(Spec))
      Log.time("cudalang.frontend", [&] {
        DiagnosticEngine Diags;
        if (!transform::parseAndPreprocessOr(kernels::kernelSource(Id),
                                             kernels::kernelFunctionName(Id),
                                             Diags))
          fatal("frontend failed");
      });
    std::shared_ptr<ResultStore> ReplayStore =
        Log.time("store.open", [&] { return openFreshStore(A.WorkDir); });
    Serial = runPass(
        E, Spec, A.Seed, 1, true, A.WorkDir, &Log, [&](const Sent &S) {
          if (!S.Outcome)
            return;
          const Request &Req = Spec.Requests[S.Req];
          Log.beginRequest(Req.Name);
          replay(Log, Req, *S.Outcome, A.Seed, *E.Cache, *ReplayStore,
                 Replayed);
          Log.endRequest();
        });
  }

  // Correctness, outside every timed window.
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems;
  const size_t Distinct = distinctRequests(Spec);
  std::vector<std::optional<BestConfig>> Firsts(Distinct);
  std::vector<const profile::SearchStats *> FirstStats(Spec.Requests.size());
  std::vector<const Pass *> All;
  for (const Pass &P : Passes)
    All.push_back(&P);
  if (Serial)
    All.push_back(&*Serial);
  for (const Pass *P : All) {
    for (const Sent &S : P->Sends) {
      ++Attempted;
      const Request &Req = Spec.Requests[S.Req];
      size_t Base = S.Req % Distinct;
      std::string Problem;
      if (!S.Ok) {
        Problem = S.Error;
      } else if (!Firsts[Base]) {
        Firsts[Base] = S.Best;
      } else if (S.Best.str() != Firsts[Base]->str()) {
        Problem = "Best " + S.Best.str() + " differs from an earlier " +
                  Firsts[Base]->str();
      }
      // Counts must repeat exactly from pass to pass (SearchJobs does
      // not change them either).
      if (P == All.front())
        FirstStats[S.Req] = &S.Stats;
      else if (Problem.empty() && !sameStats(S.Stats, *FirstStats[S.Req]))
        Problem = "search counts differ from the first pass";
      if (!Problem.empty()) {
        ++Failed;
        Problems.push_back(Req.Name + (Req.Warm ? " (warm)" : "") + ": " +
                           Problem);
      }
    }
  }

  std::vector<BestConfig> Bests;
  for (const std::optional<BestConfig> &B : Firsts)
    Bests.push_back(B.value_or(BestConfig()));
  double LogSpeedup = 0.0;
  if (std::all_of(Firsts.begin(), Firsts.end(),
                  [](const auto &B) { return B.has_value(); })) {
    std::vector<Verdict> Verdicts = verifyAll(Spec, Bests, A.Seed);
    for (size_t I = 0; I < Distinct; ++I) {
      if (!Verdicts[I].Error.empty()) {
        ++Failed;
        Problems.push_back(Spec.Requests[I].Name + ": " + Verdicts[I].Error);
      } else {
        LogSpeedup += std::log(static_cast<double>(Verdicts[I].BaselineCycles) /
                               static_cast<double>(Bests[I].Cycles));
      }
    }
  }

  // Best must be identical across every run of a seed: compare with the
  // expected file, or record one.
  std::ostringstream BestText;
  for (size_t I = 0; I < Distinct; ++I)
    BestText << Spec.Requests[I].Name << " " << Bests[I].str() << "\n";
  if (!A.Expect.empty()) {
    std::ifstream IS(A.Expect);
    std::stringstream Want;
    Want << IS.rdbuf();
    if (!IS || Want.str() != BestText.str()) {
      ++Failed;
      Problems.push_back("Best MISMATCH against " + A.Expect +
                         "\n  expected:\n" + Want.str() + "  got:\n" +
                         BestText.str());
    }
  }
  if (!A.Record.empty() && Problems.empty())
    std::ofstream(A.Record) << BestText.str();

  const bool Correct = Problems.empty();
  for (const std::string &P : Problems)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", P.c_str());

  std::printf("workload %s, seed %u, %s run: %zu pass(es) of %zu requests, "
              "1 client, service workers 1, search jobs %d, scale %.2f, "
              "%d simulated SMs\n",
              A.Workload.c_str(), A.Seed, A.Trace ? "traced" : "untraced",
              Passes.size(), Spec.Requests.size(), Jobs, Scale, SimSMs);
  std::printf("best configurations:\n%s", BestText.str().c_str());
  for (size_t I = 0; I < Passes.size(); ++I)
    std::printf("pass %zu: %.3f s wall, %.3f s cpu\n", I + 1,
                Passes[I].WallS, Passes[I].CpuS);

  std::vector<double> RequestTimes;
  for (const Pass &P : Passes)
    for (const Sent &S : P.Sends)
      RequestTimes.push_back(S.WallS);
  const double P50 = median(RequestTimes);
  std::vector<Metric> Counts =
      countMetrics(Passes.front(), Spec.UsesStore, CacheStats, SvcStats);
  std::vector<Metric> Out;
  if (!A.Trace) {
    double Wall = 0.0, Cpu = 0.0;
    size_t N = 0;
    for (const Pass &P : Passes) {
      Wall += P.WallS;
      Cpu += P.CpuS;
      N += P.Sends.size();
    }
    Out = {
        {"searches_per_s", static_cast<double>(N) / Wall, "1/s", "host"},
        {"search_p50_s", P50, "s",
         "host, n=" + std::to_string(N) + " requests"},
        {"search_cpu_s", Cpu / static_cast<double>(N), "s",
         "host, user+sys per request"},
        {"setup_s", median(SetupTimes), "s",
         "host, median of " + std::to_string(SetupTimes.size())},
        {"peak_rss_mb", PeakRssMb, "MB", "host"},
        {"fused_speedup_geomean",
         std::exp(LogSpeedup / static_cast<double>(Distinct)), "x",
         "simulated, unvalidated model"},
        {"verified_share",
         1.0 - static_cast<double>(Failed) / static_cast<double>(Attempted),
         "ratio", "requests verified / attempted"},
    };
    std::printf("end-to-end metrics:\n");
    printReport(Out);
    std::printf("  %-30s %18.6f %-10s %s\n", "failed_share",
                static_cast<double>(Failed) / static_cast<double>(Attempted),
                "ratio", "= failed / attempted");
    std::printf("per-layer counts (first pass):\n");
    printReport(Counts);
  } else {
    const ReplayTotals &T = Replayed;
    double RequestS = 0.0;
    for (const Sent &S : Serial->Sends)
      RequestS += S.WallS;
    if (T.Mismatches)
      std::fprintf(stderr,
                   "perfbench: note: %llu replayed runs differ in cycles "
                   "from the search's ledger\n",
                   static_cast<unsigned long long>(T.Mismatches));
    Log.writeChromeTrace(A.WorkDir + "/trace-" + A.Workload + "-seed" +
                         std::to_string(A.Seed) + ".json");

    auto Timed = [&](const std::string &Name) {
      double S = Log.total(Name);
      Out.push_back({Name + "_s", S, "s", ""});
      Out.push_back({Name + "_share", S / RequestS, "ratio",
                     "of SearchJobs=1 request time"});
      return S;
    };
    double Attributed = 0.0;
    Timed("cudalang.frontend");
    Attributed += Timed("transform.fuse");
    Attributed += Timed("codegen.lower");
    Out.push_back({"codegen.ir_insts", static_cast<double>(T.IrInsts), "count",
                   ""});
    Attributed += Timed("ir.regalloc");
    Out.push_back({"ir.spilled_regs", static_cast<double>(T.Spilled), "count",
                   ""});
    Attributed += Timed("kernels.workload_setup");
    double SimS = Timed("gpusim.sim");
    Attributed += SimS;
    double FullS = Timed("gpusim.winner_full");
    Attributed += FullS;
    Out.push_back({"gpusim.minstr_per_s",
                   static_cast<double>(T.WarpInsts) / (SimS + FullS) / 1e6,
                   "Minstr/s", ""});
    Out.push_back({"gpusim.warp_insts", static_cast<double>(T.WarpInsts),
                   "count", ""});
    Out.push_back(
        {"gpusim.cycles", static_cast<double>(T.Cycles), "cycles", "simulated"});
    Timed("store.open");
    double StoreIO = Timed("store.get");
    StoreIO += Timed("store.put");
    // Without a store in the search, the store rows time the same
    // results through a scratch store; they are not part of the request.
    if (Spec.UsesStore)
      Attributed += StoreIO;
    Out.push_back({"trace.other_share", 1.0 - Attributed / RequestS, "ratio",
                   "unattributed share of SearchJobs=1 request time"});
    // The spans wrap only the benchmark's own calls, so a traced search
    // differs from an untraced one by one span record.
    SpanLog Probe;
    auto P0 = Clock::now();
    for (int I = 0; I < 100000; ++I)
      Probe.time("probe", [] {});
    Out.push_back({"trace.overhead_share", since(P0) / 100000 / P50, "ratio",
                   "span cost per traced search / search_p50_s"});
    Out.insert(Out.begin(), Counts.begin(), Counts.end());
    std::printf("per-layer metrics (counts: first pass; times: replay of the "
                "SearchJobs=1 pass, %.3f s of requests):\n",
                RequestS);
    printReport(Out);
  }
  std::fflush(stdout);
  printJson(Correct, Attempted, Failed, Out);
  return Correct ? 0 : 1;
}
