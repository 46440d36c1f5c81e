//===- SchedulerConformanceTest.cpp - Campaign scheduler conformance ---------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The scheduler's tentpole invariant: each of K interleaved campaigns
// produces byte-identical output to its solo run, at every backend x
// worker count x cache state. This suite pins that, plus the policy
// properties (round-robin fairness, the Reduction priority lane,
// yield-weighted budget shifting), the per-campaign accounting (the
// --stats breakdown sums to the global counters, and a shared cache
// attributes hits to the campaign that earned them), the prioritized
// dispatch permutation layer, and the --campaigns= spec grammar.
//
//===----------------------------------------------------------------------===//

#include "device/DeviceConfig.h"
#include "exec/OutcomeCache.h"
#include "exec/WorkerLoop.h"
#include "sched/CampaignScheduler.h"
#include "sched/CampaignSpec.h"
#include "sched/Campaigns.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>

using namespace clfuzz;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// Reads everything written to \p F and closes it.
std::string readAll(std::FILE *F) {
  std::fflush(F);
  std::rewind(F);
  std::string S;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    S.append(Buf, N);
  std::fclose(F);
  return S;
}

/// The three campaigns every identity test interleaves. The hunt
/// range covers a known wrong-code seed so findings are non-trivial.
DiffSpec diffSpec() {
  DiffSpec S;
  S.Gen.Seed = 9;
  return S;
}

HuntSpec huntSpec() {
  HuntSpec S;
  S.Mode = GenMode::Basic;
  S.ModeName = "BASIC";
  S.Seed = 1014;
  S.Count = 4;
  return S;
}

EmiSpec emiSpec() {
  EmiSpec S;
  S.Bases = 1;
  S.SeedBase = 4242;
  return S;
}

std::string describe(const ExecOptions &O) {
  return std::string(backendKindName(O.Backend)) + "/" +
         std::to_string(O.Threads) + "w" + (O.Cache ? "/cache" : "");
}

/// Solo reference run of one campaign task through runCampaignTask,
/// the plain step loop.
std::string soloDiff(ExecBackend &B) {
  std::FILE *F = std::tmpfile();
  std::unique_ptr<CampaignTask> T = makeDiffTask(diffSpec(), B, F);
  runCampaignTask(*T);
  return readAll(F);
}

std::string soloHunt(ExecBackend &B, unsigned ShardSize) {
  std::FILE *F = std::tmpfile();
  HuntCampaign C = makeHuntCampaign(huntSpec(), ShardSize, B, F);
  runCampaignTask(*C.Main);
  return readAll(F);
}

std::string soloEmi(ExecBackend &B, unsigned ShardSize) {
  std::FILE *F = std::tmpfile();
  std::unique_ptr<CampaignTask> T = makeEmiTask(emiSpec(), ShardSize, B, F);
  runCampaignTask(*T);
  return readAll(F);
}

struct K3Out {
  std::string Diff, Hunt, Emi;
};

/// Runs diff+hunt+emi interleaved over one shared backend and returns
/// each campaign's report.
K3Out runK3(ExecBackend &B, unsigned ShardSize,
            std::shared_ptr<OutcomeCache> Cache,
            SchedPolicyKind Policy = SchedPolicyKind::RoundRobin) {
  SchedOptions SO;
  SO.Policy = Policy;
  SO.Cache = std::move(Cache);
  CampaignScheduler Sched(B, SO);
  std::FILE *FD = std::tmpfile(), *FH = std::tmpfile(),
            *FE = std::tmpfile();
  std::unique_ptr<CampaignTask> D = makeDiffTask(diffSpec(), B, FD);
  HuntCampaign H = makeHuntCampaign(huntSpec(), ShardSize, B, FH);
  std::unique_ptr<CampaignTask> E = makeEmiTask(emiSpec(), ShardSize, B, FE);
  Sched.add("d", *D);
  Sched.add("h", *H.Main);
  Sched.add("e", *E);
  Sched.runToCompletion();
  K3Out Out;
  Out.Diff = readAll(FD);
  Out.Hunt = readAll(FH);
  Out.Emi = readAll(FE);
  return Out;
}

/// Synthetic campaign for policy tests: counts down a fixed number of
/// steps, optionally producing one distinct witness per step.
class FakeTask final : public CampaignTask {
public:
  FakeTask(unsigned Total, bool Yielding = false,
           SchedLane Lane = SchedLane::Foreground)
      : Total(Total), Yielding(Yielding), Lane(Lane) {}

  bool done() const override { return Done >= Total; }
  void step() override {
    ++Done;
    if (Yielding)
      ++Witnesses;
  }
  SchedLane lane() const override { return Lane; }
  size_t distinctWitnesses() const override { return Witnesses; }
  size_t testsDone() const override { return Done; }

  unsigned Done = 0;

private:
  unsigned Total;
  bool Yielding;
  SchedLane Lane;
  size_t Witnesses = 0;
};

//===----------------------------------------------------------------------===//
// Prioritized dispatch: a permutation layer, never an outcome change
//===----------------------------------------------------------------------===//

TEST(SchedulerConformanceTest, PrioritizedDispatchMatchesSubmissionOrder) {
  std::vector<DeviceConfig> Zoo = buildConfigRegistry();
  TestCase T = TestCase::fromGenerated(generateKernel(GenOptions()));
  std::vector<ExecJob> Jobs;
  for (int Id : {1, 12, 14, 19})
    for (bool Opt : {false, true})
      Jobs.push_back(
          ExecJob::onConfig(T, configById(Zoo, Id), Opt, RunSettings()));
  std::vector<ExecColumn> Cols = groupIntoColumns(Jobs);

  for (ExecOptions O :
       {ExecOptions::withBackend(BackendKind::Inline),
        ExecOptions::withBackend(BackendKind::Threads, 3),
        ExecOptions::withBackend(BackendKind::Procs, 2)}) {
    std::unique_ptr<ExecBackend> B = makeBackend(O);
    std::vector<RunOutcome> Ref = B->runColumns(Cols);
    // Uniform, ascending, descending, mixed: the outcome vector must
    // always come back in submission order.
    std::vector<std::vector<unsigned>> PrioritySets;
    PrioritySets.push_back(std::vector<unsigned>(Cols.size(), 7));
    std::vector<unsigned> Asc, Desc, Mixed;
    for (size_t I = 0; I != Cols.size(); ++I) {
      Asc.push_back(static_cast<unsigned>(I));
      Desc.push_back(static_cast<unsigned>(Cols.size() - I));
      Mixed.push_back(static_cast<unsigned>((I * 7 + 3) % 5));
    }
    PrioritySets.push_back(Asc);
    PrioritySets.push_back(Desc);
    PrioritySets.push_back(Mixed);
    for (const std::vector<unsigned> &P : PrioritySets) {
      std::vector<RunOutcome> Got = B->runColumnsPrioritized(Cols, P);
      ASSERT_EQ(Got.size(), Ref.size()) << describe(O);
      for (size_t I = 0; I != Ref.size(); ++I) {
        EXPECT_EQ(Got[I].Status, Ref[I].Status) << describe(O) << " " << I;
        EXPECT_EQ(Got[I].OutputHash, Ref[I].OutputHash)
            << describe(O) << " " << I;
        EXPECT_EQ(Got[I].Message, Ref[I].Message) << describe(O) << " " << I;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Policies
//===----------------------------------------------------------------------===//

TEST(SchedulerConformanceTest, RoundRobinSharesSlotsEqually) {
  FakeTask A(12), B(12), C(12);
  ExecOptions O;
  std::unique_ptr<ExecBackend> Backend = makeBackend(O);
  CampaignScheduler Sched(*Backend);
  Sched.add("a", A);
  Sched.add("b", B);
  Sched.add("c", C);
  Sched.runToCompletion();
  EXPECT_EQ(A.Done, 12u);
  EXPECT_EQ(B.Done, 12u);
  EXPECT_EQ(C.Done, 12u);
  // Strict cycling: every window of three grants covers all three.
  const std::vector<size_t> &Trace = Sched.allocationTrace();
  ASSERT_EQ(Trace.size(), 36u);
  for (size_t I = 0; I + 2 < Trace.size(); I += 3) {
    EXPECT_NE(Trace[I], Trace[I + 1]);
    EXPECT_NE(Trace[I + 1], Trace[I + 2]);
    EXPECT_NE(Trace[I], Trace[I + 2]);
  }
}

TEST(SchedulerConformanceTest, ReductionLanePreemptsForeground) {
  FakeTask Fg(5);
  FakeTask Lane(3, /*Yielding=*/false, SchedLane::Reduction);
  ExecOptions O;
  std::unique_ptr<ExecBackend> Backend = makeBackend(O);
  CampaignScheduler Sched(*Backend);
  Sched.add("fg", Fg);
  Sched.add("lane", Lane);
  Sched.runToCompletion();
  // The lane is ready from the start, so it must be fully drained
  // before any foreground grant.
  const std::vector<size_t> &Trace = Sched.allocationTrace();
  ASSERT_EQ(Trace.size(), 8u);
  EXPECT_EQ(Trace[0], 1u);
  EXPECT_EQ(Trace[1], 1u);
  EXPECT_EQ(Trace[2], 1u);
  for (size_t I = 3; I != Trace.size(); ++I)
    EXPECT_EQ(Trace[I], 0u);
}

TEST(SchedulerConformanceTest, YieldWeightedShiftsBudgetWithoutStarving) {
  // One campaign yields a fresh witness every step, the other is
  // barren. Over a fixed grant budget the yielding campaign must get
  // at least twice the slots, and the barren one must keep its
  // weight-1 floor (never starved).
  FakeTask Yielding(200, /*Yielding=*/true);
  FakeTask Barren(200);
  ExecOptions O;
  std::unique_ptr<ExecBackend> Backend = makeBackend(O);
  SchedOptions SO;
  SO.Policy = SchedPolicyKind::YieldWeighted;
  CampaignScheduler Sched(*Backend, SO);
  Sched.add("yielding", Yielding);
  Sched.add("barren", Barren);
  for (unsigned I = 0; I != 100; ++I)
    ASSERT_TRUE(Sched.stepOnce());
  size_t YieldingGrants = 0, BarrenGrants = 0;
  for (size_t Pick : Sched.allocationTrace())
    (Pick == 0 ? YieldingGrants : BarrenGrants)++;
  EXPECT_GE(YieldingGrants, 2 * BarrenGrants);
  EXPECT_GT(BarrenGrants, 0u);
  EXPECT_EQ(Sched.campaigns()[0].Stats.Witnesses, Yielding.Done);
}

/// A campaign that waits on work no registered task will ever produce.
class StalledTask final : public CampaignTask {
public:
  bool done() const override { return false; }
  bool ready() const override { return false; }
  void step() override { ADD_FAILURE() << "stepped a not-ready task"; }
};

TEST(SchedulerConformanceTest, StallThrowsInsteadOfSpinning) {
  // A hunt whose reduction lane was never registered looks like this:
  // nothing is ready and nothing is done. That is a wiring bug, and
  // the grant loop must say so rather than report progress forever.
  StalledTask Stalled;
  ExecOptions O;
  std::unique_ptr<ExecBackend> Backend = makeBackend(O);
  CampaignScheduler Sched(*Backend);
  Sched.add("stalled", Stalled);
  EXPECT_THROW(Sched.stepOnce(), std::logic_error);
  EXPECT_THROW(runCampaignTask(Stalled), std::logic_error);
  EXPECT_TRUE(Sched.allocationTrace().empty());
}

//===----------------------------------------------------------------------===//
// The tentpole: interleaved == solo, byte for byte
//===----------------------------------------------------------------------===//

TEST(SchedulerConformanceTest, InterleavedMatchesSoloEverywhere) {
  for (ExecOptions Base :
       {ExecOptions::withBackend(BackendKind::Inline),
        ExecOptions::withBackend(BackendKind::Threads, 2),
        ExecOptions::withBackend(BackendKind::Procs, 2)}) {
    // Reference reports from solo runs at THIS backend (the hunt
    // summary names its backend, so solo output legitimately differs
    // across backends — the invariant is solo == interleaved at every
    // single one).
    std::unique_ptr<ExecBackend> RefBackend = makeBackend(Base);
    unsigned RefShard = Base.resolvedShardSize();
    std::string WantDiff = soloDiff(*RefBackend);
    std::string WantHunt = soloHunt(*RefBackend, RefShard);
    std::string WantEmi = soloEmi(*RefBackend, RefShard);
    ASSERT_NE(WantHunt.find("wrong code"), std::string::npos)
        << "hunt range must contain a witness for the test to bite";
    for (bool WithCache : {false, true}) {
      ExecOptions O = Base;
      std::shared_ptr<OutcomeCache> Cache;
      if (WithCache) {
        OutcomeCacheOptions CO;
        CO.Mode = CacheMode::Mem;
        CO.KeySalt = cacheKeySalt(O);
        Cache = makeOutcomeCache(CO);
        O.Cache = Cache;
      }
      std::unique_ptr<ExecBackend> B = makeBackend(O);
      K3Out Got = runK3(*B, O.resolvedShardSize(), Cache);
      EXPECT_EQ(Got.Diff, WantDiff) << describe(O);
      EXPECT_EQ(Got.Hunt, WantHunt) << describe(O);
      EXPECT_EQ(Got.Emi, WantEmi) << describe(O);
    }
  }

  // The policy only decides when a campaign steps, never what a step
  // does: yield-weighted interleaving is byte-identical too.
  ExecOptions Ref = ExecOptions::withBackend(BackendKind::Inline);
  std::unique_ptr<ExecBackend> RefBackend = makeBackend(Ref);
  unsigned RefShard = Ref.resolvedShardSize();
  std::string WantDiff = soloDiff(*RefBackend);
  std::string WantHunt = soloHunt(*RefBackend, RefShard);
  std::string WantEmi = soloEmi(*RefBackend, RefShard);
  std::unique_ptr<ExecBackend> B = makeBackend(Ref);
  K3Out Got = runK3(*B, RefShard, nullptr, SchedPolicyKind::YieldWeighted);
  EXPECT_EQ(Got.Diff, WantDiff) << "yield policy";
  EXPECT_EQ(Got.Hunt, WantHunt) << "yield policy";
  EXPECT_EQ(Got.Emi, WantEmi) << "yield policy";
}

#if defined(__unix__) || defined(__APPLE__)

TEST(SchedulerConformanceTest, InterleavedMatchesSoloOnRemoteFleet) {
  // Diff and EMI reports are backend-silent: the inline solo run is
  // their reference everywhere.
  ExecOptions Ref = ExecOptions::withBackend(BackendKind::Inline);
  std::unique_ptr<ExecBackend> RefBackend = makeBackend(Ref);
  unsigned RefShard = Ref.resolvedShardSize();
  std::string WantDiff = soloDiff(*RefBackend);
  std::string WantEmi = soloEmi(*RefBackend, RefShard);

  // A 2-worker fleet; the second worker dies mid-run (fault
  // injection), so the identity also covers requeue-after-loss.
  WorkerOptions W1O, W2O;
  W1O.Jobs = 2;
  W2O.Jobs = 2;
  W2O.DieAfterJobs = 40;
  WorkerServer W1(W1O), W2(W2O);
  ASSERT_TRUE(W1.start());
  ASSERT_TRUE(W2.start());

  ExecOptions O;
  O.Backend = BackendKind::Remote;
  O.RemoteWorkers = {"127.0.0.1:" + std::to_string(W1.port()),
                     "127.0.0.1:" + std::to_string(W2.port())};
  O.RemoteHeartbeatMs = 2000;
  // The hunt summary names its backend, so its reference is a solo
  // hunt on this same fleet (worker loss and all).
  std::unique_ptr<ExecBackend> SoloB = makeBackend(O);
  std::string WantHunt = soloHunt(*SoloB, O.resolvedShardSize());
  std::unique_ptr<ExecBackend> B = makeBackend(O);
  K3Out Got = runK3(*B, O.resolvedShardSize(), nullptr);
  EXPECT_EQ(Got.Diff, WantDiff);
  EXPECT_EQ(Got.Hunt, WantHunt);
  EXPECT_EQ(Got.Emi, WantEmi);
  W1.stop();
  W2.stop();
}

TEST(SchedulerConformanceTest, FleetCountersSumPerCampaignToGlobal) {
  // Every fleet event (join adoption, drain, eviction, requeue)
  // happens inside RemoteBackend::run(), which the scheduler
  // serializes per step — so the per-campaign fleet_* deltas must sum
  // field-by-field to the global counter movement, exactly.
  WorkerOptions StaticO;
  StaticO.Jobs = 2;
  WorkerServer Static(StaticO);
  ASSERT_TRUE(Static.start());
  std::shared_ptr<FleetRegistry> R = makeFleetRegistry("127.0.0.1", 0);
  WorkerOptions DrainO;
  DrainO.Connect = "127.0.0.1:" + std::to_string(R->port());
  DrainO.Jobs = 2;
  DrainO.DrainAfterJobs = 10;
  WorkerServer Draining(DrainO);
  ASSERT_TRUE(Draining.start());

  ExecOptions O;
  O.Backend = BackendKind::Remote;
  O.RemoteWorkers = {"127.0.0.1:" + std::to_string(Static.port())};
  O.Fleet = R;
  std::unique_ptr<ExecBackend> B = makeBackend(O);

  FleetCounters Before = fleetCounters();
  CampaignScheduler Sched(*B);
  std::FILE *FD = std::tmpfile(), *FH = std::tmpfile();
  std::unique_ptr<CampaignTask> D = makeDiffTask(diffSpec(), *B, FD);
  HuntCampaign H = makeHuntCampaign(huntSpec(), O.resolvedShardSize(), *B, FH);
  Sched.add("d", *D);
  Sched.add("h", *H.Main);
  Sched.runToCompletion();
  FleetCounters After = fleetCounters();

  FleetCounters Sum;
  for (const ScheduledCampaign &C : Sched.campaigns()) {
    Sum.Joins += C.Stats.Fleet.Joins;
    Sum.Leaves += C.Stats.Fleet.Leaves;
    Sum.Evictions += C.Stats.Fleet.Evictions;
    Sum.Redials += C.Stats.Fleet.Redials;
    Sum.Requeues += C.Stats.Fleet.Requeues;
  }
  EXPECT_EQ(Sum.Joins, After.Joins - Before.Joins);
  EXPECT_EQ(Sum.Leaves, After.Leaves - Before.Leaves);
  EXPECT_EQ(Sum.Evictions, After.Evictions - Before.Evictions);
  EXPECT_EQ(Sum.Redials, After.Redials - Before.Redials);
  EXPECT_EQ(Sum.Requeues, After.Requeues - Before.Requeues);
  // The rendezvous worker joined inside some campaign's step.
  EXPECT_GE(Sum.Joins, 1u);
  readAll(FD);
  readAll(FH);
}

#endif // unix

//===----------------------------------------------------------------------===//
// The reduction lane: its own backend or a shared one, same report
//===----------------------------------------------------------------------===//

TEST(SchedulerConformanceTest, ReduceBackendScheduleMatchesSharedLane) {
  HuntSpec Spec = huntSpec();
  Spec.Seed = 1016; // known wrong-code seed in BASIC
  Spec.Count = 1;
  Spec.Reduce = true;
  Spec.ReduceOpts.MaxCandidates = 20;
  Spec.ReduceOpts.DispatchPriority = 1;

  // Solo `hunt --reduce --reduce-backend=procs`: a one-campaign
  // schedule whose lane reduces on a dedicated backend. Same campaign
  // backend kind as the shared run below, since the hunt summary
  // names it.
  ExecOptions RefO = ExecOptions::withBackend(BackendKind::Threads, 2);
  std::unique_ptr<ExecBackend> RefB = makeBackend(RefO);
  std::unique_ptr<ExecBackend> ReduceB =
      makeBackend(ExecOptions::withBackend(BackendKind::Procs, 2));
  HuntSpec SoloSpec = Spec;
  SoloSpec.ReduceOpts.Backend = ReduceB.get();
  std::FILE *FS = std::tmpfile();
  HuntCampaign Solo =
      makeHuntCampaign(SoloSpec, RefO.resolvedShardSize(), *RefB, FS);
  ASSERT_NE(Solo.Lane, nullptr);
  CampaignScheduler SoloSched(*RefB);
  SoloSched.add("h", *Solo.Main);
  SoloSched.add("h/reduce", *Solo.Lane);
  SoloSched.runToCompletion();
  std::string Want = readAll(FS);
  ASSERT_NE(Want.find("wrong code"), std::string::npos);
  ASSERT_NE(Want.find("reduced in the background"), std::string::npos);
  EXPECT_EQ(Want.find("reduction failed"), std::string::npos) << Want;

  // Shared: reductions drain through the Reduction lane on the
  // campaign's own backend, interleaved with a second campaign.
  ExecOptions O = ExecOptions::withBackend(BackendKind::Threads, 2);
  std::unique_ptr<ExecBackend> B = makeBackend(O);
  HuntSpec SchedSpec = Spec;
  SchedSpec.ReduceOpts.Backend = B.get();
  std::FILE *FH = std::tmpfile(), *FD = std::tmpfile();
  HuntCampaign H =
      makeHuntCampaign(SchedSpec, O.resolvedShardSize(), *B, FH);
  ASSERT_NE(H.Lane, nullptr);
  std::unique_ptr<CampaignTask> D = makeDiffTask(diffSpec(), *B, FD);
  CampaignScheduler Sched(*B);
  Sched.add("h", *H.Main);
  Sched.add("h/reduce", *H.Lane);
  Sched.add("d", *D);
  Sched.runToCompletion();
  EXPECT_EQ(readAll(FH), Want);
  // Both lanes actually serviced their queues (one job per wrong cell).
  EXPECT_GT(SoloSched.campaigns()[1].Stats.Jobs, 0u);
  EXPECT_EQ(Sched.campaigns()[1].Stats.Jobs,
            SoloSched.campaigns()[1].Stats.Jobs);
  readAll(FD);
}

//===----------------------------------------------------------------------===//
// Accounting: the breakdown sums to the globals, hits attribute right
//===----------------------------------------------------------------------===//

TEST(SchedulerConformanceTest, SharedCacheAttributesHitsPerCampaign) {
  // Two identical diff campaigns share one cache: the first pays the
  // misses, the second is served entirely from cache — and the
  // breakdown must say so, not aggregate globally.
  ExecOptions O;
  OutcomeCacheOptions CO;
  CO.Mode = CacheMode::Mem;
  CO.KeySalt = cacheKeySalt(O);
  std::shared_ptr<OutcomeCache> Cache = makeOutcomeCache(CO);
  O.Cache = Cache;
  std::unique_ptr<ExecBackend> B = makeBackend(O);

  SchedOptions SO;
  SO.Cache = Cache;
  CampaignScheduler Sched(*B, SO);
  std::FILE *FA = std::tmpfile(), *FB = std::tmpfile();
  std::unique_ptr<CampaignTask> A = makeDiffTask(diffSpec(), *B, FA);
  std::unique_ptr<CampaignTask> C = makeDiffTask(diffSpec(), *B, FB);
  Sched.add("first", *A);
  Sched.add("second", *C);
  Sched.runToCompletion();

  const CampaignStats &SA = Sched.campaigns()[0].Stats;
  const CampaignStats &SB = Sched.campaigns()[1].Stats;
  EXPECT_EQ(SA.Cache.Hits, 0u);
  EXPECT_GT(SA.Cache.Misses, 0u);
  EXPECT_EQ(SB.Cache.Misses, 0u);
  EXPECT_EQ(SB.Cache.Hits, SA.Cache.Misses);
  // Identical campaigns, identical reports (the cached run included).
  EXPECT_EQ(readAll(FA), readAll(FB));
  // Per-campaign deltas sum to the shared cache's own counters.
  OutcomeCacheStats Global = Cache->stats();
  EXPECT_EQ(SA.Cache.Hits + SB.Cache.Hits, Global.Hits);
  EXPECT_EQ(SA.Cache.Misses + SB.Cache.Misses, Global.Misses);
  EXPECT_EQ(SA.Cache.Coalesced + SB.Cache.Coalesced, Global.Coalesced);
}

TEST(SchedulerConformanceTest, StatsBreakdownSumsToGlobalCounters) {
  ExecOptions O;
  std::unique_ptr<ExecBackend> B = makeBackend(O);
  VmCounters Before = vmCounters();
  CampaignScheduler Sched(*B);
  std::FILE *FD = std::tmpfile(), *FH = std::tmpfile();
  std::unique_ptr<CampaignTask> D = makeDiffTask(diffSpec(), *B, FD);
  HuntCampaign H = makeHuntCampaign(huntSpec(), O.resolvedShardSize(), *B, FH);
  Sched.add("d", *D);
  Sched.add("h", *H.Main);
  Sched.runToCompletion();
  VmCounters After = vmCounters();

  uint64_t SumInstr = 0, SumLaunches = 0, SumFused = 0, SumReuses = 0;
  size_t SumSteps = 0;
  for (const ScheduledCampaign &C : Sched.campaigns()) {
    SumInstr += C.Stats.VmInstructions;
    SumLaunches += C.Stats.VmLaunches;
    SumFused += C.Stats.VmFused;
    SumReuses += C.Stats.VmEngineReuses;
    SumSteps += C.Stats.Steps;
    EXPECT_GT(C.Stats.Jobs, 0u) << C.Name;
    EXPECT_GT(C.Stats.Tests, 0u) << C.Name;
  }
  // Every VM launch during the run happened inside some campaign's
  // step, so the attributed deltas sum exactly to the global deltas.
  EXPECT_EQ(SumInstr, After.Instructions - Before.Instructions);
  EXPECT_EQ(SumLaunches, After.Launches - Before.Launches);
  EXPECT_EQ(SumFused, After.FusedExecuted - Before.FusedExecuted);
  EXPECT_EQ(SumReuses, After.EngineReuses - Before.EngineReuses);
  EXPECT_EQ(SumSteps, Sched.allocationTrace().size());
  readAll(FD);
  readAll(FH);
}

//===----------------------------------------------------------------------===//
// --campaigns= grammar
//===----------------------------------------------------------------------===//

TEST(CampaignSpecTest, ParsesInlineSpec) {
  std::vector<CampaignDecl> Ds;
  std::string Err;
  ASSERT_TRUE(parseCampaignSpec(
      "hunt(mode=BASIC,count=5,reduce,name=h); diff(seed=9) ;emi", Ds, Err))
      << Err;
  ASSERT_EQ(Ds.size(), 3u);
  EXPECT_EQ(Ds[0].Type, "hunt");
  EXPECT_EQ(Ds[0].Name, "h");
  EXPECT_EQ(Ds[0].Params.at("count"), "5");
  EXPECT_EQ(Ds[0].Params.at("reduce"), "1"); // bare flag
  EXPECT_EQ(Ds[1].Type, "diff");
  EXPECT_EQ(Ds[1].Name, "c1-diff"); // default name
  EXPECT_EQ(Ds[2].Type, "emi");
  EXPECT_TRUE(Ds[2].Params.empty()); // bare type, all defaults
}

TEST(CampaignSpecTest, RejectsBadSpecs) {
  std::vector<CampaignDecl> Ds;
  std::string Err;
  EXPECT_FALSE(parseCampaignSpec("jog(count=5)", Ds, Err));
  EXPECT_NE(Err.find("unknown campaign type"), std::string::npos);
  Ds.clear();
  EXPECT_FALSE(parseCampaignSpec("hunt(count=5", Ds, Err));
  EXPECT_NE(Err.find("missing ')'"), std::string::npos);
  Ds.clear();
  EXPECT_FALSE(parseCampaignSpec(" ; ;", Ds, Err));
  EXPECT_NE(Err.find("empty"), std::string::npos);
  Ds.clear();
  EXPECT_FALSE(parseCampaignSpec("@/no/such/file", Ds, Err));
  EXPECT_NE(Err.find("cannot open"), std::string::npos);
}

TEST(CampaignSpecTest, LoadsFileWithCommentsAndLines) {
  const char *Path = "campaignspec_test.tmp";
  std::FILE *F = std::fopen(Path, "w");
  ASSERT_NE(F, nullptr);
  std::fputs("# fleet plan\n"
             "hunt(mode=BASIC, count=10)  # the main hunt\n"
             "\n"
             "diff(seed=9); emi(bases=1)\n",
             F);
  std::fclose(F);
  std::vector<CampaignDecl> Ds;
  std::string Err;
  ASSERT_TRUE(parseCampaignSpec(std::string("@") + Path, Ds, Err)) << Err;
  std::remove(Path);
  ASSERT_EQ(Ds.size(), 3u);
  EXPECT_EQ(Ds[0].Type, "hunt");
  EXPECT_EQ(Ds[0].Params.at("count"), "10");
  EXPECT_EQ(Ds[1].Type, "diff");
  EXPECT_EQ(Ds[2].Type, "emi");
}

} // namespace
