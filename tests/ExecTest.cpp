//===- ExecTest.cpp - ExecutionEngine tests ------------------------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The engine's contract is that parallel execution is unobservable:
// every campaign result must be bit-identical to the serial path for
// any worker count, because results aggregate by submission index and
// jobs share no mutable state. These tests pin that contract for the
// raw engine, for all three campaign drivers (Table 1/4/5 cells), and
// for the reducer's speculative candidate evaluation.
//
//===----------------------------------------------------------------------===//

#include "exec/ExecutionEngine.h"
#include "corpus/Benchmarks.h"
#include "device/DeviceConfig.h"
#include "exec/ExecBackend.h"
#include "oracle/Campaign.h"
#include "oracle/Reducer.h"
#include "support/Rng.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>

using namespace clfuzz;

namespace {

std::vector<DeviceConfig> smallZoo() {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Zoo;
  for (int Id : {1, 12, 14, 19})
    Zoo.push_back(configById(Registry, Id));
  return Zoo;
}

CampaignSettings smallCampaign(unsigned Threads) {
  CampaignSettings S;
  S.KernelsPerMode = 4;
  S.Exec.Threads = Threads;
  S.BaseGen.MinThreads = 48;
  S.BaseGen.MaxThreads = 128;
  return S;
}

/// Field-by-field equality of two outcomes, with a message per field.
void expectSameOutcome(const RunOutcome &Got, const RunOutcome &Want,
                       const std::string &Ctx) {
  EXPECT_EQ(Got.Status, Want.Status) << Ctx;
  EXPECT_EQ(Got.Message, Want.Message) << Ctx;
  EXPECT_EQ(Got.Steps, Want.Steps) << Ctx;
  EXPECT_EQ(Got.RaceFound, Want.RaceFound) << Ctx;
  EXPECT_EQ(Got.RaceMessage, Want.RaceMessage) << Ctx;
  EXPECT_EQ(Got.OutputHash, Want.OutputHash) << Ctx;
  EXPECT_EQ(Got.OutputHead, Want.OutputHead) << Ctx;
}

bool sameTables(const std::vector<ModeTable> &A,
                const std::vector<ModeTable> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I) {
    if (A[I].Mode != B[I].Mode || A[I].NumTests != B[I].NumTests)
      return false;
    if (A[I].Cells.size() != B[I].Cells.size())
      return false;
    auto ItA = A[I].Cells.begin(), ItB = B[I].Cells.begin();
    for (; ItA != A[I].Cells.end(); ++ItA, ++ItB) {
      if (ItA->first.ConfigId != ItB->first.ConfigId ||
          ItA->first.Opt != ItB->first.Opt)
        return false;
      const OutcomeCounts &CA = ItA->second, &CB = ItB->second;
      if (CA.W != CB.W || CA.BF != CB.BF || CA.C != CB.C ||
          CA.TO != CB.TO || CA.Pass != CB.Pass)
        return false;
    }
  }
  return true;
}

} // namespace

TEST(ExecOptionsTest, PolicyAndResolution) {
  EXPECT_EQ(ExecOptions::serial().policy(), ExecPolicy::Serial);
  EXPECT_EQ(ExecOptions::withThreads(8).policy(), ExecPolicy::Parallel);
  EXPECT_EQ(ExecOptions::withThreads(8).resolvedThreads(), 8u);
  // 0 = auto; must resolve to something usable.
  EXPECT_GE(ExecOptions::withThreads(0).resolvedThreads(), 1u);
}

TEST(ExecutionEngineTest, ForEachIndexCoversEveryIndexOnce) {
  // Stress: far more jobs than workers, over repeated batches.
  ExecutionEngine Engine(ExecOptions::withThreads(8));
  EXPECT_EQ(Engine.threadCount(), 8u);
  for (int Round = 0; Round != 3; ++Round) {
    const size_t N = 500;
    std::vector<std::atomic<unsigned>> Hits(N);
    Engine.forEachIndex(N, [&](size_t I) { Hits[I].fetch_add(1); });
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
  }
}

TEST(ExecutionEngineTest, ChunkedClaimingCoversEveryIndexOnce) {
  // Cheap batches claim several indices per lock acquisition; coverage
  // and results must be identical to single-index claiming.
  ExecutionEngine Engine(ExecOptions::withThreads(4));
  for (unsigned Chunk : {1u, 2u, 8u, 64u}) {
    const size_t N = 333; // deliberately not a multiple of any chunk
    std::vector<std::atomic<unsigned>> Hits(N);
    Engine.forEachIndex(N, [&](size_t I) { Hits[I].fetch_add(1); },
                        Chunk);
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(Hits[I].load(), 1u)
          << "chunk " << Chunk << " index " << I;
  }
}

TEST(ExecutionEngineTest, ChunkedClaimingPropagatesExceptions) {
  ExecutionEngine Engine(ExecOptions::withThreads(4));
  EXPECT_THROW(Engine.forEachIndex(
                   100,
                   [&](size_t I) {
                     if (I == 41)
                       throw std::runtime_error("boom");
                   },
                   ExecutionEngine::CheapClaimChunk),
               std::runtime_error);
  // The pool must still be usable with chunked claiming afterwards.
  std::atomic<size_t> Sum{0};
  Engine.forEachIndex(10, [&](size_t I) { Sum += I; },
                      ExecutionEngine::CheapClaimChunk);
  EXPECT_EQ(Sum.load(), 45u);
}

TEST(ExecutionEngineTest, ResultsKeyedBySubmissionIndex) {
  ExecutionEngine Engine(ExecOptions::withThreads(4));
  const size_t N = 300;
  std::vector<uint64_t> Out(N);
  Engine.forEachIndex(N, [&](size_t I) { Out[I] = I * I + 7; });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Out[I], I * I + 7);
}

TEST(ExecutionEngineTest, PropagatesJobExceptions) {
  ExecutionEngine Engine(ExecOptions::withThreads(4));
  EXPECT_THROW(
      Engine.forEachIndex(64,
                          [&](size_t I) {
                            if (I == 13)
                              throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  // The pool must still be usable after a throwing batch.
  std::atomic<size_t> Sum{0};
  Engine.forEachIndex(10, [&](size_t I) { Sum += I; });
  EXPECT_EQ(Sum.load(), 45u);
}

TEST(ExecutionEngineTest, ThreadPoolRunMatchesDirectDriverCalls) {
  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Mode = GenMode::Barrier;
  GO.Seed = 4242;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));

  std::vector<ExecJob> Jobs;
  std::vector<RunOutcome> Expected;
  for (const DeviceConfig &C : Zoo)
    for (bool Opt : {false, true}) {
      Jobs.push_back(ExecJob::onConfig(T, C, Opt, RunSettings()));
      Expected.push_back(runTestOnConfig(T, C, Opt));
    }
  Jobs.push_back(ExecJob::onReference(T, true, RunSettings()));
  Expected.push_back(runTestOnReference(T, true));

  ThreadPoolBackend Backend(ExecOptions::withThreads(3));
  std::vector<RunOutcome> Got = Backend.run(Jobs);
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].Status, Expected[I].Status) << "job " << I;
    EXPECT_EQ(Got[I].OutputHash, Expected[I].OutputHash) << "job " << I;
  }
}

TEST(ExecDeterminismTest, DifferentialCampaignThreadCountInvariant) {
  // Same seed => identical Table 4 cells for 1, 2 and 8 workers.
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<GenMode> Modes = {GenMode::Barrier, GenMode::All};

  std::vector<ModeTable> Serial =
      runDifferentialCampaign(Zoo, Modes, smallCampaign(1));
  ASSERT_FALSE(Serial.empty());
  for (unsigned Threads : {2u, 8u}) {
    std::vector<ModeTable> Parallel =
        runDifferentialCampaign(Zoo, Modes, smallCampaign(Threads));
    EXPECT_TRUE(sameTables(Serial, Parallel))
        << "thread count " << Threads
        << " changed the campaign result";
  }
}

TEST(ExecDeterminismTest, ClassificationThreadCountInvariant) {
  // Same seed => identical Table 1 rows for 1, 2 and 8 workers.
  std::vector<DeviceConfig> Zoo = smallZoo();
  CampaignSettings S = smallCampaign(1);
  S.KernelsPerMode = 2;
  std::vector<ReliabilityRow> Serial = classifyConfigurations(Zoo, S);
  for (unsigned Threads : {2u, 8u}) {
    S.Exec.Threads = Threads;
    std::vector<ReliabilityRow> Parallel = classifyConfigurations(Zoo, S);
    ASSERT_EQ(Serial.size(), Parallel.size());
    for (size_t I = 0; I != Serial.size(); ++I) {
      EXPECT_EQ(Serial[I].ConfigId, Parallel[I].ConfigId);
      EXPECT_EQ(Serial[I].AboveThreshold, Parallel[I].AboveThreshold);
      EXPECT_EQ(Serial[I].Counts.W, Parallel[I].Counts.W);
      EXPECT_EQ(Serial[I].Counts.BF, Parallel[I].Counts.BF);
      EXPECT_EQ(Serial[I].Counts.C, Parallel[I].Counts.C);
      EXPECT_EQ(Serial[I].Counts.TO, Parallel[I].Counts.TO);
      EXPECT_EQ(Serial[I].Counts.Pass, Parallel[I].Counts.Pass);
    }
  }
}

TEST(ExecDeterminismTest, EmiCampaignThreadCountInvariant) {
  // Same seed => identical Table 5 columns for 1, 2 and 8 workers.
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Zoo = {configById(Registry, 12),
                                   configById(Registry, 19)};
  EmiCampaignSettings S;
  S.NumBases = 2;
  S.Base.BaseGen.MinThreads = 48;
  S.Base.BaseGen.MaxThreads = 96;

  S.Base.Exec.Threads = 1;
  unsigned SerialUsable = 0;
  std::vector<EmiCampaignColumn> Serial =
      runEmiCampaign(Zoo, S, SerialUsable);

  for (unsigned Threads : {2u, 8u}) {
    S.Base.Exec.Threads = Threads;
    unsigned Usable = 0;
    std::vector<EmiCampaignColumn> Parallel =
        runEmiCampaign(Zoo, S, Usable);
    EXPECT_EQ(SerialUsable, Usable);
    ASSERT_EQ(Serial.size(), Parallel.size());
    for (size_t I = 0; I != Serial.size(); ++I) {
      EXPECT_EQ(Serial[I].Key.ConfigId, Parallel[I].Key.ConfigId);
      EXPECT_EQ(Serial[I].Key.Opt, Parallel[I].Key.Opt);
      EXPECT_EQ(Serial[I].BaseFails, Parallel[I].BaseFails);
      EXPECT_EQ(Serial[I].Wrong, Parallel[I].Wrong);
      EXPECT_EQ(Serial[I].InducedBF, Parallel[I].InducedBF);
      EXPECT_EQ(Serial[I].InducedCrash, Parallel[I].InducedCrash);
      EXPECT_EQ(Serial[I].InducedTimeout, Parallel[I].InducedTimeout);
      EXPECT_EQ(Serial[I].Stable, Parallel[I].Stable);
    }
  }
}

TEST(ExecDeterminismTest, ReducerThreadCountInvariant) {
  // The reducer's speculative parallel evaluation must replay the
  // serial acceptance sequence exactly: same final witness, same stats.
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  const DeviceConfig &Oclgrind = configById(Registry, 19);

  TestCase T;
  T.Name = "padded comma bug";
  T.Source = "int helper(int v) { return v * 3 + 1; }\n"
             "kernel void k(global ulong *out) {\n"
             "  int noise0 = 11;\n"
             "  int noise1 = helper(noise0);\n"
             "  for (int i = 0; i < 4; i++) noise1 += i;\n"
             "  short x = 1; uint y;\n"
             "  for (y = -1; y >= 1; ++y) { if (x , 1) break; }\n"
             "  out[get_global_id(0)] = y;\n"
             "}\n";
  T.Range.Global[0] = 1;
  T.Range.Local[0] = 1;
  BufferSpec Out;
  Out.InitBytes.assign(8, 0);
  Out.IsOutput = true;
  T.Buffers.push_back(Out);

  auto StillInteresting = [&](const TestCase &Candidate) {
    RunOutcome R = runTestOnReference(Candidate, false);
    RunOutcome B = runTestOnConfig(Candidate, Oclgrind, false);
    return R.ok() && B.ok() && R.OutputHash != B.OutputHash;
  };

  ReducerOptions Opts;
  Opts.Exec.Threads = 1;
  ReduceStats SerialStats;
  TestCase SerialBest = reduceTest(T, StillInteresting, Opts, &SerialStats);

  for (unsigned Threads : {2u, 8u}) {
    Opts.Exec.Threads = Threads;
    ReduceStats Stats;
    TestCase Best = reduceTest(T, StillInteresting, Opts, &Stats);
    EXPECT_EQ(Best.Source, SerialBest.Source)
        << "thread count " << Threads;
    EXPECT_EQ(Stats.CandidatesTried, SerialStats.CandidatesTried);
    EXPECT_EQ(Stats.CandidatesKept, SerialStats.CandidatesKept);
    EXPECT_EQ(Stats.FinalLines, SerialStats.FinalLines);
  }
}

TEST(LaunchMemoTest, ColumnMatchesPerCellJobsOnEveryConfiguration) {
  // One column per kernel holds every configuration x {O0, O2} plus
  // both reference cells, each under four settings variants (default,
  // race detection, inverted dead array, another scheduler seed). The
  // column shares launches through its memo; per-cell runExecJob
  // shares nothing. Every outcome must match field by field.
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  // A small budget keeps the timeout-heavy configurations quick; the
  // differing per-configuration budgets (SpeedFactor) stay in play.
  RunSettings Base;
  Base.BaseStepBudget = 1'000'000;
  std::vector<RunSettings> Variants(4, Base);
  Variants[1].DetectRaces = true;
  Variants[2].InvertDead = true;
  Variants[3].SchedulerSeed = 7;

  // Generated kernels of every mode, plus the corpus benchmarks with
  // the paper's planted data races, so race reports cross the memo.
  std::vector<TestCase> Tests;
  const GenMode Modes[] = {GenMode::Basic, GenMode::Vector,
                           GenMode::Barrier, GenMode::AtomicSection,
                           GenMode::AtomicReduction};
  for (GenMode M : Modes) {
    GenOptions GO;
    GO.Mode = M;
    GO.Seed = 5150 + static_cast<uint64_t>(M);
    GO.MinThreads = 32;
    GO.MaxThreads = 128;
    GO.NumEmiBlocks = 2; // gives InvertDead something to flip
    Tests.push_back(TestCase::fromGenerated(generateKernel(GO)));
  }
  for (const Benchmark &B : buildBenchmarkSuite())
    if (B.HasPlantedRace)
      Tests.push_back(B.Test);

  size_t Seen[4] = {}; // per RunStatus, over every test
  size_t Races = 0;
  for (const TestCase &T : Tests) {
    ExecColumn Col;
    for (const RunSettings &S : Variants) {
      for (bool Opt : {false, true})
        Col.Jobs.push_back(ExecJob::onReference(T, Opt, S));
      for (const DeviceConfig &C : Registry)
        for (bool Opt : {false, true})
          Col.Jobs.push_back(ExecJob::onConfig(T, C, Opt, S));
    }

    VmCounters Before = vmCounters();
    std::vector<RunOutcome> Got = runExecColumn(Col);
    VmCounters Mid = vmCounters();
    std::vector<RunOutcome> Want;
    for (const ExecJob &J : Col.Jobs)
      Want.push_back(runExecJob(J));
    VmCounters After = vmCounters();

    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I != Got.size(); ++I) {
      expectSameOutcome(Got[I], Want[I],
                        T.Name + " cell " + std::to_string(I));
      ++Seen[static_cast<size_t>(Want[I].Status)];
      Races += Want[I].RaceFound;
    }
    uint64_t Launched = Mid.Launches - Before.Launches;
    uint64_t Served = Mid.SharedLaunches - Before.SharedLaunches;
    EXPECT_LT(Launched, Col.Jobs.size()) << T.Name;
    EXPECT_GT(Served, 0u) << T.Name;
    // The per-cell path is the memo-free reference: it launches every
    // cell that reaches the VM, which is every cell the column either
    // launched or served.
    EXPECT_EQ(After.SharedLaunches, Mid.SharedLaunches) << T.Name;
    EXPECT_EQ(After.Launches - Mid.Launches, Launched + Served) << T.Name;
  }
  // The columns exercised every outcome class and the race detector.
  for (size_t St = 0; St != 4; ++St)
    EXPECT_GT(Seen[St], 0u) << runStatusName(static_cast<RunStatus>(St));
  EXPECT_GT(Races, 0u);
}

TEST(LaunchMemoTest, StepBudgetEdgesWithinOneColumn) {
  // A configuration with SpeedFactor 1, so a cell's step budget is
  // exactly its BaseStepBudget.
  DeviceConfig C = configById(buildConfigRegistry(), 1);
  C.BugsO0.SpeedFactor = 1.0;
  C.BugsO0.CrashLottery = 0.0;
  C.BugsO0.BuildFailLottery = 0.0;

  // The first kernel that finishes: S steps, no timeout.
  TestCase T;
  uint64_t S = 0;
  for (uint64_t Seed = 777; S == 0 && Seed != 777 + 50; ++Seed) {
    GenOptions GO;
    GO.Seed = Seed;
    GO.MinThreads = 32;
    GO.MaxThreads = 64;
    T = TestCase::fromGenerated(generateKernel(GO));
    RunSettings Big;
    Big.BaseStepBudget = 50'000'000;
    RunOutcome O = runExecJob(ExecJob::onConfig(T, C, false, Big));
    if (O.Status == RunStatus::Ok)
      S = O.Steps;
  }
  ASSERT_GT(S, 1u) << "no generated kernel finished";

  // Budgets in column order, and whether the memo serves each cell.
  struct Cell {
    uint64_t Budget;
    bool Served;
  };
  const Cell Cells[] = {
      {4 * S, false}, // launched: finishes in S steps
      {S, true},      // a finished run of S steps holds at budget S
      {S - 1, false}, // re-runs to Timeout, replacing the entry
      {S + 5, false}, // a stored Timeout is never served upward
      {S - 1, false}, // the stored finished run needs S > S - 1
      {S - 1, true},  // equal budget: the stored Timeout holds
  };
  ExecColumn Col;
  for (const Cell &Ce : Cells) {
    RunSettings St;
    St.BaseStepBudget = Ce.Budget;
    Col.Jobs.push_back(ExecJob::onConfig(T, C, false, St));
  }
  VmCounters Before = vmCounters();
  std::vector<RunOutcome> Got = runExecColumn(Col);
  VmCounters After = vmCounters();

  uint64_t WantServed = 0;
  for (size_t I = 0; I != Col.Jobs.size(); ++I) {
    expectSameOutcome(Got[I], runExecJob(Col.Jobs[I]),
                      "budget cell " + std::to_string(I));
    WantServed += Cells[I].Served;
  }
  EXPECT_EQ(Got[1].Status, RunStatus::Ok);
  EXPECT_EQ(Got[1].Steps, S);
  for (size_t I : {2u, 4u, 5u}) {
    EXPECT_EQ(Got[I].Status, RunStatus::Timeout) << "cell " << I;
    EXPECT_EQ(Got[I].Steps, Cells[I].Budget + 1) << "cell " << I;
  }
  EXPECT_EQ(Got[3].Status, RunStatus::Ok);
  EXPECT_EQ(After.SharedLaunches - Before.SharedLaunches, WantServed);
  EXPECT_EQ(After.Launches - Before.Launches,
            Col.Jobs.size() - WantServed);
}

TEST(RngForkForJobTest, IndexedStreamsAreStableAndIndependent) {
  Rng Parent(123);
  Rng A = Parent.forkForJob(5);
  Rng B = Parent.forkForJob(5);
  // Same parent state + same index => same stream (forkForJob is
  // const and does not advance the parent).
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());

  // Adjacent indices must diverge.
  Rng C = Parent.forkForJob(6);
  Rng D = Parent.forkForJob(5);
  unsigned Same = 0;
  for (int I = 0; I != 100; ++I)
    Same += C.next() == D.next();
  EXPECT_LT(Same, 5u);

  // The parent stream is untouched by forking.
  Rng Fresh(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Parent.next(), Fresh.next());
}
