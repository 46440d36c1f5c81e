//===- TriageConformanceTest.cpp - Triage conformance under fault injection --===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The triage stage (src/triage/) makes verifiable claims: bisection
// names EXACTLY the minimal faulty pass combination, the cluster key
// identifies a defect independently of the witness that exposed it,
// and the whole report is byte-identical across backends, worker
// counts and cache states. Those claims are only testable against
// bugs with a known ground truth, so this suite injects deliberately
// buggy passes (opt/Pass.h: break-on-shift, break-on-and, and the
// shift-mark/mark-break pair that only misbehaves in combination)
// through custom DeviceConfigs no registry entry ever enables, and
// pins:
//
//  * single injected bug -> bisection names exactly that pass;
//  * two coexisting neutral-alone passes -> the minimal *combination*;
//  * byte-identity across inline / threads(1,2,8) / procs, with the
//    outcome cache off, in-memory, disk-cold and disk-warm;
//  * clustering stability over a 100-seed sweep (one injected bug =>
//    one cluster; distinct injected bugs => distinct clusters);
//  * triage riding the ReductionQueue identically on every candidate
//    and probe backend;
//  * a remote fleet with a worker killed mid-run (--die-after-jobs)
//    still producing the byte-identical report.
//
//===----------------------------------------------------------------------===//

#include "device/DeviceConfig.h"
#include "exec/OutcomeCache.h"
#include "gen/Generator.h"
#include "oracle/Reducer.h"
#include "oracle/ReductionQueue.h"
#include "support/StringUtil.h"
#include "triage/Triage.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

using namespace clfuzz;

namespace {

/// A fresh private directory under the system temp dir, removed on
/// destruction (the OutcomeCacheTest fixture).
struct TempDir {
  std::filesystem::path Path;

  TempDir() {
    static int Counter = 0;
    Path = std::filesystem::temp_directory_path() /
           ("clfuzz-triagetest-" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + std::to_string(Counter++));
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// A configuration whose ONLY defects are the requested fault-injected
/// passes, at both opt levels. No registry entry sets these flags, so
/// the minimal faulty set is ground truth by construction.
DeviceConfig faultConfig(int Id, bool BreakOnShift, bool BreakOnAnd,
                         bool ShiftMark, bool MarkBreak) {
  DeviceConfig C;
  C.Id = Id;
  C.Device = "fault-injected triage device";
  C.Driver = "test";
  for (DeviceBugModel *B : {&C.BugsO0, &C.BugsO2}) {
    B->BreakOnShiftBug = BreakOnShift;
    B->BreakOnAndBug = BreakOnAnd;
    B->ShiftMarkBug = ShiftMark;
    B->MarkBreakBug = MarkBreak;
  }
  return C;
}

/// A small single-kernel test case over one 8-byte output buffer.
TestCase kernelFromSource(const char *Name, std::string Source) {
  TestCase T;
  T.Name = Name;
  T.Source = std::move(Source);
  T.Range.Global[0] = 1;
  T.Range.Local[0] = 1;
  BufferSpec Out;
  Out.InitBytes.assign(8, 0);
  Out.IsOutput = true;
  T.Buffers.push_back(Out);
  return T;
}

/// Output = safe_lshift(3, 2) = 12; break-on-shift turns it into
/// safe_rshift(3, 2) = 0, and the shift-mark/mark-break pair into 13.
TestCase shiftKernel() {
  return kernelFromSource("shift witness",
                          "kernel void k(global ulong *out) {\n"
                          "  ulong a = 3uL;\n"
                          "  ulong b = 2uL;\n"
                          "  out[get_global_id(0)] = safe_lshift(a, b);\n"
                          "}\n");
}

/// Output = 0xF0 & 0x3C = 0x30; break-on-and turns it into | = 0xFC.
TestCase andKernel() {
  return kernelFromSource("bitand witness",
                          "kernel void k(global ulong *out) {\n"
                          "  ulong a = 240uL;\n"
                          "  ulong b = 60uL;\n"
                          "  out[get_global_id(0)] = a & b;\n"
                          "}\n");
}

/// The shift witness buried in unrelated statements, so a reduction
/// has real work to do before triage runs.
TestCase paddedShiftKernel() {
  return kernelFromSource(
      "padded shift witness",
      "int helper(int v) { return v * 3 + 1; }\n"
      "kernel void k(global ulong *out) {\n"
      "  int noise0 = 11;\n"
      "  int noise1 = helper(noise0);\n"
      "  for (int i = 0; i < 4; i++) noise1 += i;\n"
      "  if (noise1 > 100) { noise0 = 2; } else { noise0 = 3; }\n"
      "  ulong a = 3uL;\n"
      "  ulong b = 2uL;\n"
      "  int noise2 = noise0 + noise1;\n"
      "  noise2 = noise2 * 2;\n"
      "  out[get_global_id(0)] = safe_lshift(a, b);\n"
      "}\n");
}

TriageOptions inlineTriage() {
  TriageOptions TO;
  TO.Exec = ExecOptions::withBackend(BackendKind::Inline);
  return TO;
}

/// Everything observable about a result in one string, so equality
/// checks cover every field and every renderer at once.
std::string describeResult(const TriageResult &R) {
  return renderTriageLine(R) + "\n" + renderTriageCsvRow("w", R) +
         renderTriageJsonl("w", R) +
         "pipeline=" + join(R.PipelinePasses, "+") +
         " probes=" + std::to_string(R.Probes);
}

} // namespace

//===----------------------------------------------------------------------===//
// Exact bisection against injected ground truth
//===----------------------------------------------------------------------===//

TEST(TriageConformanceTest, SingleInjectedBugIsNamedExactly) {
  // Two injected passes in the pipeline, only one of which can touch
  // each witness: bisection must name exactly the guilty one.
  DeviceConfig C = faultConfig(901, /*BreakOnShift=*/true,
                               /*BreakOnAnd=*/true, false, false);

  TriageResult Shift = triageWitness(shiftKernel(), C, false, inlineTriage());
  EXPECT_TRUE(Shift.Reproduced);
  EXPECT_TRUE(Shift.BugInPasses);
  EXPECT_EQ(Shift.PipelinePasses,
            (std::vector<std::string>{"break-on-shift(test-bug)",
                                      "break-on-and(test-bug)"}));
  EXPECT_EQ(Shift.FaultyPasses,
            std::vector<std::string>{"break-on-shift(test-bug)"});
  EXPECT_EQ(Shift.ClusterKey.rfind("break-on-shift(test-bug)/", 0), 0u);

  TriageResult And = triageWitness(andKernel(), C, false, inlineTriage());
  EXPECT_TRUE(And.Reproduced);
  EXPECT_TRUE(And.BugInPasses);
  EXPECT_EQ(And.FaultyPasses,
            std::vector<std::string>{"break-on-and(test-bug)"});

  // Two different defects, two different clusters.
  EXPECT_NE(Shift.ClusterKey, And.ClusterKey);
}

TEST(TriageConformanceTest, CoexistingPassesYieldMinimalCombination) {
  // shift-mark plants a neutral marker, mark-break only fires on the
  // marker: each is a no-op alone, the PAIR miscompiles. The minimal
  // faulty set must be the combination, not any single pass.
  DeviceConfig C = faultConfig(902, false, false, /*ShiftMark=*/true,
                               /*MarkBreak=*/true);
  TriageResult R = triageWitness(shiftKernel(), C, false, inlineTriage());
  EXPECT_TRUE(R.Reproduced);
  EXPECT_TRUE(R.BugInPasses);
  EXPECT_EQ(R.FaultyPasses,
            (std::vector<std::string>{"shift-mark(test-bug)",
                                      "mark-break(test-bug)"}));
  EXPECT_EQ(R.ClusterKey.rfind(
                "shift-mark(test-bug)+mark-break(test-bug)/", 0),
            0u);
}

TEST(TriageConformanceTest, NonReproducingWitnessIsReported) {
  // A clean configuration: the full-pipeline run matches the
  // reference, so triage must say so instead of inventing a verdict.
  DeviceConfig C = faultConfig(903, false, false, false, false);
  TriageResult R = triageWitness(shiftKernel(), C, false, inlineTriage());
  EXPECT_FALSE(R.Reproduced);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_TRUE(R.FaultyPasses.empty());
  EXPECT_TRUE(R.ClusterKey.empty());
}

TEST(TriageConformanceTest, NonPassBugGetsFeatureOnlyCluster) {
  // Config 19's wrong-code defect on seed 1029 lives outside the pass
  // pipeline: the empty-mask probe still diverges, so attribution must
  // say non-pass and the cluster key must be feature-only.
  std::vector<DeviceConfig> Zoo = buildConfigRegistry();
  GenOptions GO;
  GO.Mode = GenMode::Basic;
  GO.Seed = 1029;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  TriageResult R =
      triageWitness(T, configById(Zoo, 19), false, inlineTriage());
  EXPECT_TRUE(R.Reproduced);
  EXPECT_FALSE(R.BugInPasses);
  EXPECT_TRUE(R.FaultyPasses.empty());
  EXPECT_EQ(R.ClusterKey.rfind("nonpass/", 0), 0u);
}

TEST(TriageConformanceTest, CountersChargeOncePerWitness) {
  DeviceConfig C = faultConfig(904, true, false, false, false);
  TriageCounters Before = triageCounters();
  TriageResult R = triageWitness(shiftKernel(), C, false, inlineTriage());
  TriageCounters After = triageCounters();
  EXPECT_EQ(After.Witnesses, Before.Witnesses + 1);
  EXPECT_EQ(After.Probes, Before.Probes + R.Probes);
  EXPECT_EQ(After.Clusters, Before.Clusters); // consumers charge these
}

//===----------------------------------------------------------------------===//
// Byte-identity across backends, worker counts and cache states
//===----------------------------------------------------------------------===//

TEST(TriageConformanceTest, ByteIdenticalAcrossBackendsAndCacheStates) {
  // All four injected passes at once: a 4-pass pipeline whose greedy
  // bisection takes several probe rounds — enough surface for a
  // backend or cache divergence to show.
  DeviceConfig C = faultConfig(905, true, true, true, true);
  TestCase T = shiftKernel();

  TriageResult Baseline = triageWitness(T, C, false, inlineTriage());
  ASSERT_TRUE(Baseline.Reproduced);
  std::string Expected = describeResult(Baseline);

  std::vector<ExecOptions> Matrix;
  Matrix.push_back(ExecOptions::withBackend(BackendKind::Inline));
  for (unsigned Threads : {1u, 2u, 8u})
    Matrix.push_back(
        ExecOptions::withBackend(BackendKind::Threads, Threads));
  Matrix.push_back(ExecOptions::withBackend(BackendKind::Procs, 2));

  for (const ExecOptions &Base : Matrix) {
    std::string Where = std::string(backendKindName(Base.Backend)) + "/" +
                        std::to_string(Base.Threads) + "w";
    // Cache off.
    {
      TriageOptions TO;
      TO.Exec = Base;
      EXPECT_EQ(describeResult(triageWitness(T, C, false, TO)), Expected)
          << Where << " cache=off";
    }
    // In-memory cache.
    {
      TriageOptions TO;
      TO.Exec = Base;
      OutcomeCacheOptions CO;
      CO.Mode = CacheMode::Mem;
      CO.KeySalt = cacheKeySalt(TO.Exec);
      TO.Exec.Cache = makeOutcomeCache(CO);
      EXPECT_EQ(describeResult(triageWitness(T, C, false, TO)), Expected)
          << Where << " cache=mem";
    }
    // Disk cache, cold then warm: the warm run must answer probes
    // from the store AND stay byte-identical.
    {
      TempDir Dir;
      for (const char *Pass : {"cold", "warm"}) {
        TriageOptions TO;
        TO.Exec = Base;
        OutcomeCacheOptions CO;
        CO.Mode = CacheMode::Disk;
        CO.Dir = Dir.str();
        CO.KeySalt = cacheKeySalt(TO.Exec);
        TO.Exec.Cache = makeOutcomeCache(CO);
        EXPECT_EQ(describeResult(triageWitness(T, C, false, TO)),
                  Expected)
            << Where << " cache=disk-" << Pass;
        if (Pass == std::string("warm"))
          EXPECT_GT(TO.Exec.Cache->stats().Hits +
                        TO.Exec.Cache->stats().DiskHits,
                    0u)
              << Where << ": warm disk run never hit the cache";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Clustering stability: a defect is one cluster, whatever exposes it
//===----------------------------------------------------------------------===//

TEST(TriageConformanceTest, ClusteringIsStableOverHundredSeedSweep) {
  DeviceConfig ShiftBug = faultConfig(906, true, false, false, false);
  DeviceConfig AndBug = faultConfig(907, false, true, false, false);

  // Probes on tiny kernels are cheap; a shared in-memory cache keeps
  // the reference runs from repeating across the two configs.
  TriageOptions TO = inlineTriage();
  OutcomeCacheOptions CO;
  CO.Mode = CacheMode::Mem;
  CO.KeySalt = cacheKeySalt(TO.Exec);
  TO.Exec.Cache = makeOutcomeCache(CO);

  std::set<std::string> ShiftKeys, AndKeys;
  unsigned ShiftHits = 0, AndHits = 0;
  for (uint64_t Seed = 2000; Seed != 2100; ++Seed) {
    GenOptions GO;
    GO.Mode = GenMode::Basic;
    GO.Seed = Seed;
    TestCase T = TestCase::fromGenerated(generateKernel(GO));
    TriageResult S = triageWitness(T, ShiftBug, false, TO);
    if (S.Reproduced) {
      ASSERT_TRUE(S.BugInPasses) << "seed " << Seed;
      EXPECT_EQ(S.FaultyPasses,
                std::vector<std::string>{"break-on-shift(test-bug)"})
          << "seed " << Seed;
      ShiftKeys.insert(S.ClusterKey);
      ++ShiftHits;
    }
    TriageResult A = triageWitness(T, AndBug, false, TO);
    if (A.Reproduced) {
      ASSERT_TRUE(A.BugInPasses) << "seed " << Seed;
      EXPECT_EQ(A.FaultyPasses,
                std::vector<std::string>{"break-on-and(test-bug)"})
          << "seed " << Seed;
      AndKeys.insert(A.ClusterKey);
      ++AndHits;
    }
  }

  // The sweep must actually exercise both defects...
  EXPECT_GE(ShiftHits, 5u);
  EXPECT_GE(AndHits, 5u);
  // ...every witness of one injected bug lands in ONE cluster...
  EXPECT_EQ(ShiftKeys.size(), 1u) << join(
      std::vector<std::string>(ShiftKeys.begin(), ShiftKeys.end()), " ");
  EXPECT_EQ(AndKeys.size(), 1u) << join(
      std::vector<std::string>(AndKeys.begin(), AndKeys.end()), " ");
  // ...and distinct bugs land in distinct clusters.
  EXPECT_NE(*ShiftKeys.begin(), *AndKeys.begin());
}

//===----------------------------------------------------------------------===//
// Triage through the ReductionQueue
//===----------------------------------------------------------------------===//

namespace {

/// Reduces + triages the padded shift witness through a ReductionQueue
/// whose jobs evaluate on a backend built from \p Exec, returning the
/// full observable report.
std::string reduceAndTriage(const DeviceConfig &C, const ExecOptions &Exec) {
  ReducerOptions RO;
  RO.Exec = Exec;
  ReductionQueue Q(RO);
  ReductionJob J;
  J.OrderKey = 0;
  J.Label = "padded shift";
  J.Witness = paddedShiftKernel();
  J.Oracle = std::make_shared<DifferentialReductionOracle>(C, false);
  J.Triage = TriageRequest{C, false};
  Q.submit(std::move(J));
  // The caller's thread services the queue, exactly like the
  // scheduler's reduction lane.
  while (Q.runNextPending())
    ;
  std::vector<ReductionResult> Results = Q.drain();
  if (Results.size() != 1)
    return "wrong result count";
  const ReductionResult &R = Results[0];
  if (!R.Error.empty())
    return "reduction failed: " + R.Error;
  if (!R.Triage)
    return "no triage result";
  return R.Reduced.Source + describeResult(*R.Triage);
}

} // namespace

TEST(TriageConformanceTest, QueueModesAndBackendsAgreeOnTriage) {
  DeviceConfig C = faultConfig(908, true, false, false, false);
  std::string Expected =
      reduceAndTriage(C, ExecOptions::withBackend(BackendKind::Inline));
  ASSERT_EQ(Expected.rfind("reduction failed", 0), std::string::npos)
      << Expected;

  // The candidate/probe backends of the matrix.
  for (unsigned Threads : {1u, 2u, 8u})
    EXPECT_EQ(reduceAndTriage(
                  C, ExecOptions::withBackend(BackendKind::Threads, Threads)),
              Expected)
        << "threads/" << Threads;
  EXPECT_EQ(
      reduceAndTriage(C, ExecOptions::withBackend(BackendKind::Procs, 2)),
      Expected)
      << "procs/2";
}

//===----------------------------------------------------------------------===//
// Remote fleet: a worker killed mid-run must not perturb the report
//===----------------------------------------------------------------------===//

#if defined(__unix__) || defined(__APPLE__)

#include "exec/WorkerLoop.h"

TEST(TriageConformanceTest, RemoteWorkerDeathMidRunIsByteIdentical) {
  DeviceConfig C = faultConfig(909, true, false, false, false);
  std::string Expected =
      reduceAndTriage(C, ExecOptions::withBackend(BackendKind::Inline));
  ASSERT_EQ(Expected.rfind("reduction failed", 0), std::string::npos)
      << Expected;

  // Worker 2 self-destructs after 3 jobs — mid-reduction, with the
  // triage probes still to come. The coordinator must requeue its
  // in-flight jobs onto worker 1 and the report must not move a byte.
  WorkerOptions W1O;
  W1O.Jobs = 2;
  WorkerOptions W2O;
  W2O.Jobs = 2;
  W2O.DieAfterJobs = 3;
  WorkerServer W1(W1O), W2(W2O);
  ASSERT_TRUE(W1.start());
  ASSERT_TRUE(W2.start());

  ExecOptions Remote;
  Remote.Backend = BackendKind::Remote;
  Remote.RemoteWorkers = {"127.0.0.1:" + std::to_string(W1.port()),
                          "127.0.0.1:" + std::to_string(W2.port())};
  Remote.RemoteHeartbeatMs = 2000;

  EXPECT_EQ(reduceAndTriage(C, Remote), Expected);
  EXPECT_TRUE(W2.died()) << "fault injection never tripped";

  W1.stop();
  W2.stop();
}

#endif // unix
