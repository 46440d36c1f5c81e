//===- main.cpp - perfbench: clfuzz's end-to-end benchmark ----------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload through clfuzz's public campaign API
/// (CampaignScheduler over makeHuntCampaign / makeDiffTask,
/// or GeneratorSource + ShardedCampaignRun), checks every campaign's
/// report against a reference, and prints one JSON result line.
///
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             [--out-dir D] [--expected-dir D] [--commit C]
///   perfbench --workload W --seed N --write-expected K --expected-dir D
///
/// --trace 0 measures the end-to-end metrics over S seconds of campaign
/// iterations; --trace 1 runs a fixed number of iterations untraced,
/// then twice traced, and prints the per-layer split (Trace.h). Each
/// workload is a closed loop: one coordinator thread grants one step
/// (one shard, or one witness reduction) at a time. perfbench/README.md
/// explains why each workload exists and what it loads.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include "device/DeviceConfig.h"
#include "exec/Pipeline.h"
#include "exec/WorkerLoop.h"
#include "gen/Generator.h"
#include "sched/Campaigns.h"
#include "support/Hash.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace clfuzz;
using namespace perfbench;

namespace {

const uint64_t ProcessStartNs = nowNs();

/// The seed whose expected report digests are committed under
/// perfbench/expected/; any other seed is checked against an inline run.
constexpr uint64_t DefaultSeed = 1;
/// Set-ups per run besides the one that builds the measured stack, in
/// SetupPhases groups spread over the run; setup_s is the median of all.
constexpr unsigned SetupReps = 50;
constexpr unsigned SetupPhases = 10;
/// Shard bound of every campaign (the CLI default).
constexpr unsigned ShardSize = 64;
/// Candidate budget of one witness reduction (`reduce-max`): bounds the
/// cost of a witness so a run holds enough of them (about 180) that the
/// number of witnesses a seed's kernels produce averages out.
constexpr unsigned ReduceMax = 4;

enum class Kind { HuntReduceTriage, SweepVm, SweepCompile };

struct Workload {
  const char *Name;
  Kind K;
  BackendKind Backend;
  bool Cache;
  /// Kernels per iteration: the hunt count, or the sweep's kernels.
  unsigned Count;
};

const Workload Workloads[] = {
    {"hunt_reduce_triage", Kind::HuntReduceTriage, BackendKind::Threads,
     true, 16},
    {"sweep_vm", Kind::SweepVm, BackendKind::Threads, false, 64},
    {"sweep_compile_procs", Kind::SweepCompile, BackendKind::Procs, true, 8},
    {"sweep_compile_fleet", Kind::SweepCompile, BackendKind::Remote, false,
     8},
};

/// Concurrency of every backend: 4, never above the host's core count.
unsigned width() {
  unsigned N = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, N ? N : 1u));
}

/// First generator seed of iteration \p K of a run seeded \p Seed.
/// Iterations own disjoint 64K-seed blocks, so no kernel repeats across
/// iterations and the inputs are a pure function of (Seed, K).
uint64_t iterationBase(uint64_t Seed, uint64_t K) {
  uint64_t X = Seed * 0x9E3779B97F4A7C15ULL + K * 0xBF58476D1CE4E5B9ULL + 1;
  X ^= X >> 31;
  X *= 0x94D049BB133111EBULL;
  X ^= X >> 29;
  return (X & 0xFFFFFFFFULL) << 16;
}

/// The compile-heavy generator geometry of bench/compile_throughput.cpp:
/// many helper functions, deep blocks, a handful of work-items and
/// one-iteration loops, so the front end and optimiser outweigh the VM.
GenOptions compileHeavy() {
  GenOptions GO;
  GO.MinThreads = 2;
  GO.MaxThreads = 8;
  GO.MaxGroupSize = 4;
  GO.NumFunctions = 24;
  GO.MaxBlockStmts = 10;
  GO.MaxBlockDepth = 5;
  GO.MaxExprDepth = 5;
  GO.MaxLoopIterations = 1;
  return GO;
}

/// A report stream in memory (campaigns print to a FILE*; the benchmark
/// writes nothing outside its checkout).
struct MemStream {
  char *Buf = nullptr;
  size_t Len = 0;
  std::FILE *F = nullptr;

  MemStream() : F(open_memstream(&Buf, &Len)) {
    if (!F)
      throw std::runtime_error("open_memstream failed");
  }
  ~MemStream() {
    std::fclose(F);
    std::free(Buf);
  }
  MemStream(const MemStream &) = delete;
  MemStream &operator=(const MemStream &) = delete;

  std::string text() {
    std::fflush(F);
    return std::string(Buf, Len);
  }
};

/// The differential sweep of the compile workloads: generated kernels
/// (GeneratorSource) streamed shard by shard (ShardedCampaignRun), each
/// expanded to the reference plus every above-threshold configuration at
/// both opt levels, every outcome written as a JSONL record.
class SweepTask final : public CampaignTask {
public:
  SweepTask(uint64_t SeedBase, unsigned Count, ExecBackend &Backend,
            std::FILE *Out)
      : Source(GenMode::All, compileHeavy(), SeedBase, Count,
               /*Prefilter=*/false, /*Config1=*/nullptr, RunSettings(),
               Backend) {
    std::vector<DeviceConfig> Registry = buildConfigRegistry();
    std::vector<std::string> Labels;
    for (int Id : paperAboveThresholdIds()) {
      Targets.push_back(configById(Registry, Id));
      Labels.push_back("ref" + std::to_string(Id));
      Labels.push_back(std::to_string(Id) + "-");
      Labels.push_back(std::to_string(Id) + "+");
    }
    Sink = std::make_unique<JsonlOutcomeSink>(Out, Labels);
    Run = std::make_unique<ShardedCampaignRun>(
        Source, Backend, ShardSize,
        [this](size_t, const TestCase &T, std::vector<ExecJob> &Jobs) {
          for (const DeviceConfig &C : Targets) {
            Jobs.push_back(ExecJob::onReference(T, false, RunSettings()));
            Jobs.push_back(ExecJob::onConfig(T, C, false, RunSettings()));
            Jobs.push_back(ExecJob::onConfig(T, C, true, RunSettings()));
          }
        },
        *Sink);
  }

  bool done() const override { return Run->done(); }
  void step() override { Run->step(); }
  size_t testsDone() const override { return Run->stats().Tests; }
  size_t jobsDone() const override { return Run->stats().Jobs; }

private:
  GeneratorSource Source;
  std::vector<DeviceConfig> Targets;
  std::unique_ptr<ResultSink> Sink;
  std::unique_ptr<ShardedCampaignRun> Run;
};

/// The reference: clfuzz's serial inline backend, presenting the kind of
/// the backend under test so reports that name the backend compare
/// byte for byte.
class ReferenceBackend final : public ExecBackend {
public:
  explicit ReferenceBackend(BackendKind K) : K(K) {}
  BackendKind kind() const override { return K; }
  unsigned concurrency() const override { return 1; }
  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) override {
    return Inline.run(Jobs);
  }
  std::vector<RunOutcome>
  runColumns(const std::vector<ExecColumn> &Columns) override {
    return Inline.runColumns(Columns);
  }

private:
  BackendKind K;
  InlineBackend Inline;
};

//===----------------------------------------------------------------------===//
// Environment: what setup builds
//===----------------------------------------------------------------------===//

struct Env {
  // Destroyed bottom-up: the backend (and its fleet links) first, the
  // loopback workers last.
  std::vector<std::unique_ptr<WorkerServer>> Servers;
  std::shared_ptr<OutcomeCache> Cache;
  std::unique_ptr<Recorder> Rec;
  std::unique_ptr<Replayer> Replay;
  std::unique_ptr<ExecBackend> Backend;
};

/// Builds the workload's backend stack: loopback workers when remote,
/// the concrete backend, the outcome cache and — traced — the two
/// decorators around it. One warm-up reference cell runs on the
/// concrete backend so lazily forked workers and fleet handshakes count
/// as set-up.
std::unique_ptr<Env> makeEnv(const Workload &W, bool Traced) {
  auto E = std::make_unique<Env>();
  ExecOptions O = ExecOptions::withThreads(width());
  O.Backend = W.Backend;
  if (W.Backend == BackendKind::Remote) {
    for (int I = 0; I != 2; ++I) {
      WorkerOptions WO;
      WO.Jobs = std::max(1u, width() / 2);
      E->Servers.push_back(std::make_unique<WorkerServer>(WO));
      if (!E->Servers.back()->start())
        throw std::runtime_error("cannot start a loopback worker");
      O.RemoteWorkers.push_back("127.0.0.1:" +
                                std::to_string(E->Servers.back()->port()));
    }
  }
  if (W.Cache) {
    OutcomeCacheOptions CO;
    CO.Mode = CacheMode::Mem;
    CO.KeySalt = cacheKeySalt(O);
    E->Cache = makeOutcomeCache(CO);
  }
  std::unique_ptr<ExecBackend> B = makeBackend(O); // O.Cache is null

  // The same one-work-item kernel for every seed: the warm-up is part of
  // set-up, not of the workload, so it carries no seed-dependent cost.
  GenOptions Warm;
  Warm.MinThreads = Warm.MaxGroupSize = 1;
  Warm.MaxThreads = 2; // the generator draws from [Min, Max)
  Warm.NumFunctions = 1;
  Warm.MaxLoopIterations = 1;
  TestCase WarmTest = TestCase::fromGenerated(generateKernel(Warm));
  B->run({ExecJob::onReference(WarmTest, false, RunSettings())});

  if (Traced) {
    E->Rec = std::make_unique<Recorder>(E->Cache.get());
    bool OutOfProcess = W.Backend == BackendKind::Procs ||
                        W.Backend == BackendKind::Remote;
    E->Replay = std::make_unique<Replayer>(OutOfProcess, width());
    B = std::make_unique<TracingBackend>(std::move(B), *E->Rec,
                                         /*Outer=*/false, E->Replay.get());
  }
  if (E->Cache)
    B = wrapWithOutcomeCache(std::move(B), E->Cache);
  if (Traced)
    B = std::make_unique<TracingBackend>(std::move(B), *E->Rec,
                                         /*Outer=*/true, nullptr);
  E->Backend = std::move(B);
  return E;
}

//===----------------------------------------------------------------------===//
// Iterations: one scheduler over one set of campaigns
//===----------------------------------------------------------------------===//

struct Iteration {
  std::vector<std::unique_ptr<MemStream>> Streams; ///< one per campaign
  HuntCampaign Hunt;
  std::vector<std::unique_ptr<CampaignTask>> Tasks;
  std::vector<std::unique_ptr<TracedTask>> Traced;
  std::vector<CampaignTask *> Foreground; ///< cells_per_s counts these
  std::unique_ptr<CampaignScheduler> Sched;
};

std::unique_ptr<Iteration>
buildIteration(const Workload &W, ExecBackend &B,
               const std::shared_ptr<OutcomeCache> &Cache, Recorder *Rec,
               uint64_t Seed, uint64_t K, const std::string &ReduceTrace) {
  auto It = std::make_unique<Iteration>();
  SchedOptions SO;
  SO.Cache = Cache;
  It->Sched = std::make_unique<CampaignScheduler>(B, SO);
  uint64_t Base = iterationBase(Seed, K);
  auto Stream = [&]() {
    It->Streams.push_back(std::make_unique<MemStream>());
    return It->Streams.back()->F;
  };
  auto Add = [&](const char *Name, CampaignTask &T) {
    if (!Rec) {
      It->Sched->add(Name, T);
      return;
    }
    int C = Rec->addCampaign(Name, T.lane() == SchedLane::Reduction);
    It->Traced.push_back(std::make_unique<TracedTask>(T, *Rec, C));
    It->Sched->add(Name, *It->Traced.back());
  };

  switch (W.K) {
  case Kind::HuntReduceTriage: {
    HuntSpec HS;
    HS.Mode = GenMode::All;
    HS.ModeName = "ALL";
    HS.Seed = Base;
    HS.Count = W.Count;
    HS.Reduce = true;
    HS.Triage = true;
    HS.ReduceOpts.Backend = &B;
    HS.ReduceOpts.DispatchPriority = 1;
    HS.ReduceOpts.Exec.Threads = 1;
    HS.ReduceOpts.MaxCandidates = ReduceMax;
    HS.ReduceWorkers = 0;
    HS.ReduceTracePath = ReduceTrace;
    It->Hunt = makeHuntCampaign(HS, ShardSize, B, Stream());
    // The diff is one kernel an iteration; a small geometry keeps that
    // single kernel's cost from setting the iteration's.
    DiffSpec DS;
    DS.Gen.Seed = Base + 5000;
    DS.Gen.MinThreads = 8;
    DS.Gen.MaxThreads = 64;
    DS.Gen.MaxGroupSize = 16;
    It->Tasks.push_back(makeDiffTask(DS, B, Stream()));
    Add("hunt", *It->Hunt.Main);
    Add("hunt/reduce", *It->Hunt.Lane);
    Add("diff", *It->Tasks[0]);
    It->Foreground = {It->Hunt.Main.get(), It->Tasks[0].get()};
    break;
  }
  case Kind::SweepVm: {
    HuntSpec HS;
    HS.Mode = GenMode::All;
    HS.ModeName = "ALL";
    HS.Seed = Base;
    HS.Count = W.Count;
    HS.Format = "jsonl"; // every kernel's outcomes become records
    It->Hunt = makeHuntCampaign(HS, ShardSize, B, Stream());
    Add("hunt", *It->Hunt.Main);
    It->Foreground = {It->Hunt.Main.get()};
    break;
  }
  case Kind::SweepCompile:
    It->Tasks.push_back(
        std::make_unique<SweepTask>(Base, W.Count, B, Stream()));
    Add("sweep", *It->Tasks[0]);
    It->Foreground = {It->Tasks[0].get()};
    break;
  }
  return It;
}

struct IterResult {
  std::vector<std::string> Reports; ///< one per campaign stream
  uint64_t FgCells = 0;
  double WallS = 0;               ///< grant loop wall time
  std::vector<double> LaneGrantS; ///< reduction-lane grant wall times
  std::string Error;              ///< set when a campaign threw
};

bool allDone(const CampaignScheduler &S) {
  for (const ScheduledCampaign &C : S.campaigns())
    if (!C.Task->done())
      return false;
  return true;
}

/// The closed loop: one grant at a time until every campaign is done.
IterResult runIteration(Iteration &It, Recorder *Rec) {
  IterResult R;
  CampaignScheduler &S = *It.Sched;
  uint64_t Start = nowNs();
  try {
    while (!allDone(S)) {
      size_t G = Rec ? Rec->beginGrant() : 0;
      uint64_t T0 = nowNs();
      bool Stepped = false;
      try {
        Stepped = S.stepOnce();
      } catch (...) {
        if (Rec)
          Rec->endGrant(G);
        throw;
      }
      uint64_t T1 = nowNs();
      if (Rec)
        Rec->endGrant(G);
      if (!Stepped)
        break;
      size_t C = S.allocationTrace().back();
      if (S.campaigns()[C].Task->lane() == SchedLane::Reduction)
        R.LaneGrantS.push_back(static_cast<double>(T1 - T0) / 1e9);
    }
  } catch (const std::exception &E) {
    R.Error = E.what();
  }
  R.WallS = static_cast<double>(nowNs() - Start) / 1e9;
  for (CampaignTask *T : It.Foreground)
    R.FgCells += T->jobsDone();
  for (std::unique_ptr<MemStream> &M : It.Streams)
    R.Reports.push_back(M->text());
  return R;
}

/// Runs iterations [0, N) on the reference backend, Width at a time.
/// Each iteration is independent (own backend, scheduler and streams),
/// so they run concurrently; this happens outside every timed region.
std::vector<IterResult> referenceRuns(const Workload &W, uint64_t Seed,
                                      const std::vector<uint64_t> &Ks) {
  std::vector<IterResult> Out(Ks.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&]() {
    for (size_t I = Next++; I < Ks.size(); I = Next++) {
      ReferenceBackend B(W.Backend);
      std::unique_ptr<Iteration> It =
          buildIteration(W, B, nullptr, nullptr, Seed, Ks[I], "");
      Out[I] = runIteration(*It, nullptr);
    }
  };
  std::vector<std::thread> Threads;
  unsigned N = std::min<unsigned>(width(), static_cast<unsigned>(Ks.size()));
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
  return Out;
}

//===----------------------------------------------------------------------===//
// Correctness
//===----------------------------------------------------------------------===//

std::vector<std::string> splitLines(const std::string &S) {
  std::vector<std::string> L;
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t NL = S.find('\n', Pos);
    if (NL == std::string::npos)
      NL = S.size();
    L.push_back(S.substr(Pos, NL - Pos));
    Pos = NL + 1;
  }
  return L;
}

/// Expected report of one campaign: its line count and text digest.
struct Expected {
  uint64_t Lines = 0;
  uint64_t Digest = 0;
};

using ExpectedSet = std::map<uint64_t, std::vector<Expected>>;

std::string expectedPath(const std::string &Dir, const Workload &W) {
  return Dir + "/" + W.Name + ".txt";
}

ExpectedSet loadExpected(const std::string &Path) {
  ExpectedSet Set;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    uint64_t K = 0, Camp = 0;
    Expected E;
    std::string Hex;
    if (!(SS >> K >> Camp >> E.Lines >> Hex))
      throw std::runtime_error("malformed expected line in " + Path);
    E.Digest = std::stoull(Hex, nullptr, 16);
    std::vector<Expected> &V = Set[K];
    if (V.size() <= Camp)
      V.resize(Camp + 1);
    V[Camp] = E;
  }
  return Set;
}

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Records are report lines. Against a reference run each line is
/// compared in place; against committed digests a campaign whose digest
/// differs has every one of its records counted as failed. A campaign
/// that threw fails every record it owed.
void checkAgainstReference(const IterResult &Got, const IterResult &Ref,
                           Tally &T) {
  if (!Ref.Error.empty())
    throw std::runtime_error("reference run failed: " + Ref.Error);
  for (size_t C = 0; C != Ref.Reports.size(); ++C) {
    std::vector<std::string> Want = splitLines(Ref.Reports[C]);
    if (!Got.Error.empty() || C >= Got.Reports.size()) {
      T.Attempted += Want.size();
      T.Failed += Want.size();
      continue;
    }
    std::vector<std::string> Have = splitLines(Got.Reports[C]);
    size_t N = std::max(Want.size(), Have.size());
    T.Attempted += N;
    for (size_t I = 0; I != N; ++I)
      if (I >= Want.size() || I >= Have.size() || Want[I] != Have[I])
        ++T.Failed;
  }
}

void checkAgainstDigests(const IterResult &Got,
                         const std::vector<Expected> &Want, Tally &T) {
  for (size_t C = 0; C != Want.size(); ++C) {
    if (!Got.Error.empty() || C >= Got.Reports.size()) {
      T.Attempted += Want[C].Lines;
      T.Failed += Want[C].Lines;
      continue;
    }
    uint64_t Lines = splitLines(Got.Reports[C]).size();
    uint64_t N = std::max(Lines, Want[C].Lines);
    T.Attempted += N;
    if (Lines != Want[C].Lines || fnv64(Got.Reports[C]) != Want[C].Digest)
      T.Failed += N;
  }
}

/// Checks iteration results (Results[I] ran iteration I) against the
/// committed digests for the default seed, and against reference runs
/// for every other seed or any iteration the digests do not cover.
Tally checkResults(const Workload &W, uint64_t Seed,
                   const std::string &ExpectedDir,
                   const std::vector<const std::vector<IterResult> *> &Sets) {
  size_t N = 0;
  for (const std::vector<IterResult> *S : Sets)
    N = std::max(N, S->size());
  ExpectedSet Exp;
  if (Seed == DefaultSeed && !ExpectedDir.empty())
    Exp = loadExpected(expectedPath(ExpectedDir, W));
  std::vector<uint64_t> Missing;
  for (uint64_t K = 0; K != N; ++K)
    if (!Exp.count(K))
      Missing.push_back(K);
  std::vector<IterResult> Refs = referenceRuns(W, Seed, Missing);
  std::map<uint64_t, const IterResult *> RefByK;
  for (size_t I = 0; I != Missing.size(); ++I)
    RefByK[Missing[I]] = &Refs[I];

  Tally T;
  for (const std::vector<IterResult> *S : Sets)
    for (uint64_t K = 0; K != S->size(); ++K) {
      auto E = Exp.find(K);
      if (E != Exp.end())
        checkAgainstDigests((*S)[K], E->second, T);
      else
        checkAgainstReference((*S)[K], *RefByK.at(K), T);
    }
  return T;
}

//===----------------------------------------------------------------------===//
// Toggles, host block, output
//===----------------------------------------------------------------------===//

/// Fails when a CLFUZZ_* environment variable moved a process-wide
/// code-path toggle off its default (A/B pairs must share a code path).
bool togglesAtDefaults(std::string &Why) {
  VmDispatch Def =
      vmHasGotoDispatch() ? VmDispatch::Goto : VmDispatch::Switch;
  if (vmDispatchMode() != Def)
    Why = "CLFUZZ_VM_DISPATCH overrides the default VM dispatch";
  else if (!vmFusionEnabled())
    Why = "CLFUZZ_VM_FUSE overrides the default superinstruction fusion";
  else if (!compileCloneEnabled())
    Why = "CLFUZZ_COMPILE_CLONE overrides the default compile clone";
  return Why.empty();
}

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    O += C;
  }
  return O;
}

std::string hostBlock(const std::string &Commit) {
#ifdef __OPTIMIZE__
  const char *Optimize = "true";
#else
  const char *Optimize = "false";
#endif
#ifdef NDEBUG
  const char *NDebug = "true";
#else
  const char *NDebug = "false";
#endif
  std::string S = "{\"nproc\":" +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ",\"width\":" + std::to_string(width()) +
                  ",\"compiler\":\"" + jsonEscape(__VERSION__) +
                  "\",\"optimize\":" + Optimize + ",\"ndebug\":" + NDebug +
                  ",\"commit\":\"" + jsonEscape(Commit) + "\"}";
  return S;
}

std::string togglesBlock() {
  return std::string("{\"vm_dispatch\":\"") +
         vmDispatchName(vmDispatchMode()) + "\",\"vm_fusion\":" +
         (vmFusionEnabled() ? "true" : "false") + ",\"compile_clone\":" +
         (compileCloneEnabled() ? "true" : "false") + "}";
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  char Buf[64];
  for (size_t I = 0; I != Ms.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.12g", Ms[I].Value);
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  return S + "}";
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

//===----------------------------------------------------------------------===//
// Per-layer attribution of one traced pass
//===----------------------------------------------------------------------===//

struct PassCounts {
  uint64_t Cells = 0, VmInstructions = 0, CacheHits = 0, CacheMisses = 0,
           TriageProbes = 0, TriageClusters = 0, Parses = 0;
};

struct LayerReport {
  std::vector<Metric> Metrics;
  PassCounts Counts;
  std::string Dominant; ///< human-readable dominant-layer line
  double TracedS = 0;   ///< pass wall time, replays excluded
};

LayerReport attribute(const Env &E, const Workload &W, uint64_t Accepts,
                      uint64_t Rejects) {
  const std::vector<Span> &Sp = E.Rec->spans();
  const std::vector<bool> &IsLane = E.Rec->campaignIsLane();
  std::vector<Interval> Iv(Sp.size());
  for (size_t I = 0; I != Sp.size(); ++I)
    Iv[I] = Interval{Sp[I].Start, Sp[I].End, Sp[I].Parent};
  std::vector<uint64_t> Self = selfTimes(Iv);
  auto Dur = [&](size_t I) { return Sp[I].End - Sp[I].Start; };
  auto Lane = [&](const Span &S) {
    return S.Campaign >= 0 && IsLane[static_cast<size_t>(S.Campaign)];
  };

  std::vector<uint64_t> TaskNsUnderGrant(Sp.size(), 0);
  for (size_t I = 0; I != Sp.size(); ++I)
    if (std::strcmp(Sp[I].Name, "task.step") == 0 && Sp[I].Parent >= 0)
      TaskNsUnderGrant[static_cast<size_t>(Sp[I].Parent)] += Dur(I);

  uint64_t Grants = 0, Reductions = 0, LaneSelfNs = 0, LaneCells = 0,
           LaneBackendNs = 0, Batches = 0, Cells = 0, OuterNs = 0,
           OuterSelfNs = 0, InnerNs = 0, ReplayNs = 0, GenKernels = 0,
           GenNs = 0;
  std::vector<double> GrantOverheadUs, WitnessS, BatchMs, CellsPerBatch;
  for (size_t I = 0; I != Sp.size(); ++I) {
    const Span &S = Sp[I];
    if (std::strcmp(S.Name, "sched.stepOnce") == 0) {
      ++Grants;
      GrantOverheadUs.push_back(
          static_cast<double>(Dur(I) - std::min(Dur(I), TaskNsUnderGrant[I])) /
          1e3);
      if (Lane(S))
        WitnessS.push_back(static_cast<double>(Dur(I)) / 1e9);
    } else if (std::strcmp(S.Name, "task.step") == 0) {
      if (Lane(S)) {
        ++Reductions;
        LaneSelfNs += Self[I];
      }
    } else if (std::strcmp(S.Name, "exec.outer.run") == 0 ||
               std::strcmp(S.Name, "exec.outer.runColumns") == 0) {
      ++Batches;
      Cells += S.Items;
      OuterNs += Dur(I);
      OuterSelfNs += Self[I];
      BatchMs.push_back(static_cast<double>(Dur(I)) / 1e6);
      CellsPerBatch.push_back(static_cast<double>(S.Items));
      if (Lane(S)) {
        LaneCells += S.Items;
        LaneBackendNs += Dur(I);
      }
    } else if (std::strcmp(S.Name, "exec.outer.forEachIndex") == 0) {
      GenKernels += S.Items;
      GenNs += Dur(I);
    } else if (std::strcmp(S.Name, "exec.inner.run") == 0 ||
               std::strcmp(S.Name, "exec.inner.runColumns") == 0) {
      InnerNs += Dur(I);
    } else if (std::strcmp(S.Name, "replay") == 0) {
      ReplayNs += Dur(I);
    }
  }

  const Span &Root = Sp.at(0);
  const Snapshot &P = Root.Delta;
  const ReplayStats &RS = E.Replay->stats();
  bool Replayed = E.Replay->executes();
  const CompileCounters &C = Replayed ? RS.Compile : P.Compile;
  const VmCounters &V = Replayed ? RS.Vm : P.Vm;
  double Conc = static_cast<double>(E.Backend->concurrency());
  auto Sec = [](uint64_t Ns) { return static_cast<double>(Ns) / 1e9; };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  double Witness = median(WitnessS);
  double TailP = tailPercentileFor(WitnessS.size());
  uint64_t Hits = P.Cache.Hits, Misses = P.Cache.Misses;
  double PhaseNs = static_cast<double>(C.totalNs());

  LayerReport L;
  L.TracedS = Sec(Root.End - Root.Start - ReplayNs);
  L.Metrics = {
      {"sched.grants", static_cast<double>(Grants), "count"},
      {"sched.grant_overhead_us_p50", median(GrantOverheadUs), "us"},
      {"oracle.reductions", static_cast<double>(Reductions), "count"},
      {"oracle.probe_cells", static_cast<double>(LaneCells), "count"},
      {"oracle.probe_share", Ratio(static_cast<double>(LaneBackendNs),
                                   static_cast<double>(OuterNs)),
       "frac"},
      {"oracle.accept_rate",
       Ratio(static_cast<double>(Accepts),
             static_cast<double>(Accepts + Rejects)),
       "frac"},
      {"oracle.self_s", Sec(LaneSelfNs), "s"},
      {"oracle.witness_s_p50", Witness, "s"},
      {"oracle.witness_samples", static_cast<double>(WitnessS.size()),
       "count"},
      {"oracle.witness_tail_pct", TailP, "pct"},
      {"oracle.witness_s_tail", TailP > 0 ? percentile(WitnessS, TailP) : 0.0,
       "s"},
      {"triage.witnesses", static_cast<double>(P.Triage.Witnesses), "count"},
      {"triage.probes", static_cast<double>(P.Triage.Probes), "count"},
      {"triage.clusters", static_cast<double>(P.Triage.Clusters), "count"},
      {"triage.probes_per_witness",
       Ratio(static_cast<double>(P.Triage.Probes),
             static_cast<double>(P.Triage.Witnesses)),
       "count"},
      {"gen.kernels", static_cast<double>(GenKernels), "count"},
      {"gen.s", Sec(GenNs), "s"},
      {"minicl.parses", static_cast<double>(C.Parses), "count"},
      {"minicl.parse_s", Sec(C.ParseNs), "s"},
      {"minicl.sema_s", Sec(C.SemaNs), "s"},
      {"minicl.clones", static_cast<double>(C.Clones), "count"},
      {"minicl.clone_s", Sec(C.CloneNs), "s"},
      {"opt.runs", static_cast<double>(C.Opts), "count"},
      {"opt.s", Sec(C.OptNs), "s"},
      {"vm.codegens", static_cast<double>(C.Codegens), "count"},
      {"vm.codegen_s", Sec(C.CodegenNs), "s"},
      {"vm.launches", static_cast<double>(V.Launches), "count"},
      {"vm.exec_s", Sec(C.ExecNs), "s"},
      {"vm.instructions", static_cast<double>(V.Instructions), "count"},
      {"vm.minstr_per_s",
       Ratio(static_cast<double>(V.Instructions) / 1e6, Sec(C.ExecNs)),
       "Minstr/s"},
      {"exec.batches", static_cast<double>(Batches), "count"},
      {"exec.cells", static_cast<double>(Cells), "count"},
      {"exec.batch_s", Sec(OuterNs), "s"},
      {"exec.batch_ms_p50", median(BatchMs), "ms"},
      {"exec.cells_per_batch_p50", median(CellsPerBatch), "count"},
      {"exec.worker_util", Ratio(PhaseNs, static_cast<double>(InnerNs) * Conc),
       "frac"},
      {"exec.cache.hits", static_cast<double>(Hits), "count"},
      {"exec.cache.misses", static_cast<double>(Misses), "count"},
      {"exec.cache.coalesced", static_cast<double>(P.Cache.Coalesced),
       "count"},
      {"exec.cache.hit_rate",
       Ratio(static_cast<double>(Hits), static_cast<double>(Hits + Misses)),
       "frac"},
      {"exec.cache.overhead_s", Sec(OuterSelfNs), "s"},
      {"exec.serialize.bytes_per_cell",
       Ratio(static_cast<double>(RS.Bytes), static_cast<double>(RS.Cells)),
       "B/cell"},
      {"exec.serialize.encode_ns_per_cell",
       Ratio(static_cast<double>(RS.EncodeNs), static_cast<double>(RS.Cells)),
       "ns/cell"},
      {"exec.serialize.decode_ns_per_cell",
       Ratio(static_cast<double>(RS.DecodeNs), static_cast<double>(RS.Cells)),
       "ns/cell"},
      {"exec.serialize.hash_ns_per_cell",
       Ratio(static_cast<double>(RS.HashNs), static_cast<double>(RS.Cells)),
       "ns/cell"},
      {"exec.transport_s",
       Replayed ? std::max(0.0, Sec(InnerNs) - PhaseNs / 1e9 / Conc) : 0.0,
       "s"},
      {"exec.wire.requeues", static_cast<double>(P.Fleet.Requeues), "count"},
      {"exec.wire.evictions", static_cast<double>(P.Fleet.Evictions),
       "count"},
      {"exec.wire.redials", static_cast<double>(P.Fleet.Redials), "count"},
      {"share.minicl",
       Ratio(static_cast<double>(C.ParseNs + C.SemaNs + C.CloneNs), PhaseNs),
       "frac"},
      {"share.opt", Ratio(static_cast<double>(C.OptNs), PhaseNs), "frac"},
      {"share.vm_codegen", Ratio(static_cast<double>(C.CodegenNs), PhaseNs),
       "frac"},
      {"share.vm_exec", Ratio(static_cast<double>(C.ExecNs), PhaseNs),
       "frac"},
      {"trace.residual_frac", residualFrac(Iv, 0), "frac"},
      {"trace.replayed", Replayed ? 1.0 : 0.0, "flag"},
      {"trace.replay_mismatches", static_cast<double>(RS.Mismatches),
       "count"},
  };

  L.Counts.Cells = Cells;
  L.Counts.VmInstructions = V.Instructions;
  L.Counts.CacheHits = Hits;
  L.Counts.CacheMisses = Misses;
  L.Counts.TriageProbes = P.Triage.Probes;
  L.Counts.TriageClusters = P.Triage.Clusters;
  L.Counts.Parses = Replayed ? 0 : C.Parses; // in-process backends only

  // Name the dominant layer: by phase time for the compile/VM pipeline,
  // and by backend time for the reduction lane versus the foreground.
  struct {
    const char *Name;
    uint64_t Ns;
  } Phases[] = {{"minicl (parse+sema+clone)", C.ParseNs + C.SemaNs + C.CloneNs},
                {"opt", C.OptNs},
                {"vm.codegen", C.CodegenNs},
                {"vm.exec", C.ExecNs}};
  size_t Top = 0;
  for (size_t I = 1; I != 4; ++I)
    if (Phases[I].Ns > Phases[Top].Ns)
      Top = I;
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "%s: dominant pipeline layer %s (%.0f%% of phase time%s); "
      "opt+vm.codegen %.0f%%; reduction-lane probes %.0f%% of backend "
      "time, %llu of %llu cells",
      W.Name, Phases[Top].Name,
      100.0 * Ratio(static_cast<double>(Phases[Top].Ns), PhaseNs),
      Replayed ? ", replayed in-process" : "",
      100.0 * Ratio(static_cast<double>(C.OptNs + C.CodegenNs), PhaseNs),
      100.0 * Ratio(static_cast<double>(LaneBackendNs),
                    static_cast<double>(OuterNs)),
      static_cast<unsigned long long>(LaneCells),
      static_cast<unsigned long long>(Cells));
  L.Dominant = Buf;
  return L;
}

/// Counts the accept and reject events of a reduce JSONL trace, then
/// removes the file.
void countReduceTrace(const std::string &Path, uint64_t &Accepts,
                      uint64_t &Rejects) {
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.find("\"event\":\"accept\"") != std::string::npos)
      ++Accepts;
    else if (Line.find("\"event\":\"reject\"") != std::string::npos)
      ++Rejects;
  }
  In.close();
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  int Trace = 0;
  std::string OutDir = ".";
  std::string ExpectedDir;
  std::string Commit = "unknown";
  unsigned WriteExpected = 0;
};

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I], Val;
    size_t Eq = Key.find('=');
    if (Eq != std::string::npos) {
      Val = Key.substr(Eq + 1);
      Key = Key.substr(0, Eq);
    } else if (I + 1 < Argc) {
      Val = Argv[++I];
    } else {
      Err = "missing value for " + Key;
      return false;
    }
    try {
      if (Key == "--workload")
        A.Workload = Val;
      else if (Key == "--seed")
        A.Seed = std::stoull(Val);
      else if (Key == "--seconds")
        A.Seconds = std::stod(Val);
      else if (Key == "--trace")
        A.Trace = std::stoi(Val);
      else if (Key == "--out-dir")
        A.OutDir = Val;
      else if (Key == "--expected-dir")
        A.ExpectedDir = Val;
      else if (Key == "--commit")
        A.Commit = Val;
      else if (Key == "--write-expected")
        A.WriteExpected = static_cast<unsigned>(std::stoul(Val));
      else {
        Err = "unknown argument " + Key;
        return false;
      }
    } catch (const std::exception &) {
      Err = "bad value '" + Val + "' for " + Key;
      return false;
    }
  }
  if (A.Trace != 0 && A.Trace != 1) {
    Err = "--trace takes 0 or 1";
    return false;
  }
  if (!(A.Seconds > 0)) {
    Err = "--seconds must be positive";
    return false;
  }
  return true;
}

/// Runs iterations from \p First (iteration 0, already built) until
/// \p Seconds have passed or \p MaxIters ran. After each iteration it
/// calls \p Between, if set, with the seconds measured so far; the time
/// Between takes is neither measured nor counted against \p Seconds.
/// Returns the measured seconds.
double runLoop(const Workload &W, Env &E, uint64_t Seed,
               std::unique_ptr<Iteration> First, double Seconds,
               size_t MaxIters, const std::string &ReduceTrace,
               uint64_t *Accepts, uint64_t *Rejects,
               std::vector<IterResult> &Results,
               const std::function<void(double)> &Between = nullptr) {
  uint64_t Start = nowNs();
  uint64_t Excluded = 0;
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  for (uint64_t K = 0; K < MaxIters; ++K) {
    std::unique_ptr<Iteration> It =
        K == 0 && First ? std::move(First)
                        : buildIteration(W, *E.Backend, E.Cache, E.Rec.get(),
                                         Seed, K, ReduceTrace);
    Results.push_back(runIteration(*It, E.Rec.get()));
    It.reset();
    if (!ReduceTrace.empty())
      countReduceTrace(ReduceTrace, *Accepts, *Rejects);
    if (Between) {
      uint64_t T0 = nowNs();
      Between(static_cast<double>(T0 - Start - Excluded) / 1e9);
      Excluded += nowNs() - T0;
    }
    if (MaxIters == SIZE_MAX && nowNs() >= Deadline + Excluded)
      break;
  }
  return static_cast<double>(nowNs() - Start - Excluded) / 1e9;
}

int writeExpected(const Workload &W, const Args &A) {
  std::vector<uint64_t> Ks;
  for (uint64_t K = 0; K != A.WriteExpected; ++K)
    Ks.push_back(K);
  std::vector<IterResult> Refs = referenceRuns(W, A.Seed, Ks);
  std::string Path = expectedPath(A.ExpectedDir, W);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return 2;
  }
  std::fprintf(F,
               "# Expected campaign reports of workload %s, seed %llu: one "
               "line per (iteration, campaign) giving its report's line "
               "count and FNV-1a digest. Written by `perfbench "
               "--write-expected`.\n",
               W.Name, static_cast<unsigned long long>(A.Seed));
  for (size_t I = 0; I != Refs.size(); ++I) {
    if (!Refs[I].Error.empty()) {
      std::fprintf(stderr, "perfbench: reference iteration %zu failed: %s\n",
                   I, Refs[I].Error.c_str());
      std::fclose(F);
      return 1;
    }
    for (size_t C = 0; C != Refs[I].Reports.size(); ++C)
      std::fprintf(F, "%zu %zu %zu %016llx\n", I, C,
                   splitLines(Refs[I].Reports[C]).size(),
                   static_cast<unsigned long long>(
                       fnv64(Refs[I].Reports[C])));
  }
  std::fclose(F);
  std::fprintf(stderr, "perfbench: wrote %s (%zu iterations)\n",
               Path.c_str(), Refs.size());
  return 0;
}

void writeResultFile(const Args &A, const Workload &W,
                     const std::string &Host, const std::string &Json,
                     const std::string &Extra) {
  std::string Path = A.OutDir + "/result-" + W.Name + "-seed" +
                     std::to_string(A.Seed) + "-trace" +
                     std::to_string(A.Trace) + ".json";
  if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
    std::fprintf(F,
                 "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
                 "\"host\":%s,\"toggles\":%s,%s\"result\":%s}\n",
                 W.Name, static_cast<unsigned long long>(A.Seed), A.Trace,
                 Host.c_str(), togglesBlock().c_str(), Extra.c_str(),
                 Json.c_str());
    std::fclose(F);
  }
}

int runEndToEnd(const Workload &W, const Args &A, const std::string &Host) {
  // The first set-up counts from process start and builds the stack the
  // run measures. The others are spread over the run in SetupPhases
  // groups (one at the start, the rest due at even steps of the timed
  // region, the remainder after it), so setup_s samples the host across
  // the whole run rather than one instant of it.
  std::vector<double> SetupS;
  auto SetUp = [&](uint64_t T0) {
    std::unique_ptr<Env> E = makeEnv(W, false);
    std::unique_ptr<Iteration> It =
        buildIteration(W, *E->Backend, E->Cache, nullptr, A.Seed, 0, "");
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    It.reset();
    return E;
  };
  unsigned PhasesDone = 0;
  auto Phase = [&]() {
    for (unsigned R = 0; R != SetupReps / SetupPhases; ++R)
      SetUp(nowNs());
    ++PhasesDone;
  };
  std::unique_ptr<Env> E = makeEnv(W, false);
  std::unique_ptr<Iteration> First =
      buildIteration(W, *E->Backend, E->Cache, nullptr, A.Seed, 0, "");
  SetupS.push_back(static_cast<double>(nowNs() - ProcessStartNs) / 1e9);
  Phase();

  std::vector<IterResult> Results;
  double Elapsed = runLoop(
      W, *E, A.Seed, std::move(First), A.Seconds, SIZE_MAX, "", nullptr,
      nullptr, Results, [&](double MeasuredS) {
        while (PhasesDone < SetupPhases &&
               MeasuredS >= A.Seconds * PhasesDone / SetupPhases)
          Phase();
      });
  while (PhasesDone < SetupPhases)
    Phase();
  double Rss = peakRssMb();
  E.reset();

  Tally T = checkResults(W, A.Seed, A.ExpectedDir, {&Results});
  uint64_t FgCells = 0;
  std::vector<double> Witness;
  for (const IterResult &R : Results) {
    FgCells += R.FgCells;
    Witness.insert(Witness.end(), R.LaneGrantS.begin(), R.LaneGrantS.end());
  }
  double CellsPerS = static_cast<double>(FgCells) / Elapsed;
  double FailedFrac =
      T.Attempted ? static_cast<double>(T.Failed) / T.Attempted : 0.0;
  double TailP = tailPercentileFor(Witness.size());

  std::fprintf(stderr,
               "perfbench %s seed=%llu: %zu iterations, %llu foreground "
               "cells in %.3f s = %.1f cells/s; setup_s=%.6f; "
               "peak_rss_mb=%.1f; failed_frac=%.6f (%llu/%llu records)\n",
               W.Name, static_cast<unsigned long long>(A.Seed),
               Results.size(), static_cast<unsigned long long>(FgCells),
               Elapsed, CellsPerS, median(SetupS), Rss, FailedFrac,
               static_cast<unsigned long long>(T.Failed),
               static_cast<unsigned long long>(T.Attempted));
  if (!Witness.empty()) {
    std::array<double, 3> Q = quartiles(Witness);
    std::fprintf(stderr, "perfbench %s: witness_s_p50=%.4f s (quartiles "
                         "%.4f-%.4f) over %zu witnesses",
                 W.Name, Q[1], Q[0], Q[2], Witness.size());
    if (TailP > 0)
      std::fprintf(stderr, ", p%g=%.4f s", TailP, percentile(Witness, TailP));
    std::fprintf(stderr, "\n");
  }
  std::fprintf(stderr, "perfbench host=%s toggles=%s\n", Host.c_str(),
               togglesBlock().c_str());

  std::vector<Metric> Ms = {{"cells_per_s", CellsPerS, "1/s"},
                            {"setup_s", median(SetupS), "s"},
                            {"peak_rss_mb", Rss, "MB"}};
  bool Correct = T.Failed == 0;
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") + ", \"attempted\": " +
                     std::to_string(T.Attempted) + ", \"failed\": " +
                     std::to_string(T.Failed) + ", \"metrics\": " +
                     metricsJson(Ms) + "}";
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "\"iterations\":%zu,\"failed_frac\":%.9g,"
                "\"witness_s_p50\":%.9g,\"witness_samples\":%zu,",
                Results.size(), FailedFrac, median(Witness), Witness.size());
  std::string Extra = Buf;
  Extra += "\"iteration_s\":[";
  for (size_t I = 0; I != Results.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s%.6f", I ? "," : "",
                  Results[I].WallS);
    Extra += Buf;
  }
  std::array<double, 3> SQ = quartiles(SetupS);
  std::snprintf(Buf, sizeof(Buf), "],\"setup_s_quartiles\":[%.9g,%.9g,%.9g]",
                SQ[0], SQ[1], SQ[2]);
  Extra += Buf;
  Extra += ",\"setup_samples_s\":[";
  for (size_t I = 0; I != SetupS.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s%.6f", I ? "," : "", SetupS[I]);
    Extra += Buf;
  }
  Extra += "],";
  writeResultFile(A, W, Host, Json, Extra);
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}

int runTraced(const Workload &W, const Args &A, const std::string &Host) {
  // The first untraced pass fixes the iteration count; every later pass
  // runs the same iterations. Untraced passes open and close the run so
  // warm-up effects do not land on one side of the tracing overhead.
  std::vector<IterResult> R0, R1, R2, R3;
  double UntracedS;
  {
    std::unique_ptr<Env> E = makeEnv(W, false);
    UntracedS = runLoop(W, *E, A.Seed, nullptr, A.Seconds / 4, SIZE_MAX, "",
                        nullptr, nullptr, R0);
  }
  size_t N = R0.size();
  std::string ReduceTrace = A.OutDir + "/reduce-trace.jsonl";

  // Passes 1 and 2, traced, over the same iterations.
  LayerReport L[2];
  for (int Pass = 0; Pass != 2; ++Pass) {
    std::unique_ptr<Env> E = makeEnv(W, true);
    uint64_t Accepts = 0, Rejects = 0;
    size_t Root = E->Rec->begin("pass");
    runLoop(W, *E, A.Seed, nullptr, 0, N, ReduceTrace, &Accepts, &Rejects,
            Pass == 0 ? R1 : R2);
    E->Rec->end(Root);
    L[Pass] = attribute(*E, W, Accepts, Rejects);
    if (Pass == 0) {
      std::string Path = A.OutDir + "/spans-" + W.Name + "-seed" +
                         std::to_string(A.Seed) + ".jsonl";
      if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
        E->Rec->write(F);
        std::fclose(F);
      }
    }
  }

  {
    std::unique_ptr<Env> E = makeEnv(W, false);
    UntracedS +=
        runLoop(W, *E, A.Seed, nullptr, 0, N, "", nullptr, nullptr, R3);
  }
  double TracedS = L[0].TracedS + L[1].TracedS;

  Tally T = checkResults(W, A.Seed, A.ExpectedDir, {&R0, &R1, &R2, &R3});
  const PassCounts &C1 = L[0].Counts, &C2 = L[1].Counts;
  struct {
    const char *Name;
    uint64_t A, B;
  } Exact[] = {{"exec.cells", C1.Cells, C2.Cells},
               {"vm.instructions", C1.VmInstructions, C2.VmInstructions},
               {"exec.cache.hits", C1.CacheHits, C2.CacheHits},
               {"exec.cache.misses", C1.CacheMisses, C2.CacheMisses},
               {"triage.probes", C1.TriageProbes, C2.TriageProbes},
               {"triage.clusters", C1.TriageClusters, C2.TriageClusters},
               {"minicl.parses", C1.Parses, C2.Parses}};
  unsigned Drift = 0;
  for (const auto &X : Exact)
    if (X.A != X.B) {
      ++Drift;
      std::fprintf(stderr, "perfbench: count %s drifted between traced "
                           "runs: %llu vs %llu\n",
                   X.Name, static_cast<unsigned long long>(X.A),
                   static_cast<unsigned long long>(X.B));
    }
  double Mismatches = 0;
  for (const Metric &M : L[0].Metrics)
    if (M.Name == "trace.replay_mismatches")
      Mismatches = M.Value;

  std::vector<Metric> Ms = L[0].Metrics;
  Ms.push_back({"trace.count_drift", static_cast<double>(Drift), "count"});
  Ms.push_back(
      {"trace.overhead_frac", (TracedS - UntracedS) / UntracedS, "frac"});
  std::fprintf(stderr, "perfbench %s seed=%llu traced: %zu iterations per "
                       "pass, untraced %.3f s, traced %.3f s\n%s\n",
               W.Name, static_cast<unsigned long long>(A.Seed), N, UntracedS,
               TracedS,
               L[0].Dominant.c_str());
  for (const Metric &M : Ms)
    std::fprintf(stderr, "  %-36s %14.6g %s\n", M.Name.c_str(), M.Value,
                 M.Unit);
  std::fprintf(stderr, "perfbench host=%s toggles=%s\n", Host.c_str(),
               togglesBlock().c_str());

  bool Correct = T.Failed == 0 && Drift == 0 && Mismatches == 0;
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") + ", \"attempted\": " +
                     std::to_string(T.Attempted) + ", \"failed\": " +
                     std::to_string(T.Failed) + ", \"metrics\": " +
                     metricsJson(Ms) + "}";
  std::string Extra = "\"iterations\":" + std::to_string(N) +
                      ",\"dominant\":\"" + jsonEscape(L[0].Dominant) + "\",";
  writeResultFile(A, W, Host, Json, Extra);
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Err;
  if (!parseArgs(Argc, Argv, A, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  const Workload *W = nullptr;
  for (const Workload &X : Workloads)
    if (A.Workload == X.Name)
      W = &X;
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  std::string Why;
  if (!togglesAtDefaults(Why)) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", Why.c_str());
    return 2;
  }
  try {
    if (A.WriteExpected)
      return writeExpected(*W, A);
    std::string Host = hostBlock(A.Commit);
    return A.Trace ? runTraced(*W, A, Host) : runEndToEnd(*W, A, Host);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
