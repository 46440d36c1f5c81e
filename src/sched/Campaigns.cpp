//===- Campaigns.cpp - Schedulable campaign task builders --------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
// The report-formatting code here IS the solo commands' output path
// (`clfuzz hunt/diff/reduce` construct these tasks), so every printf
// format below is load-bearing for byte-identity between solo and
// scheduled runs — and for the CI jobs that diff the two.
//
//===----------------------------------------------------------------------===//

#include "sched/Campaigns.h"

#include "device/DeviceConfig.h"
#include "exec/JobSerialize.h"
#include "exec/Pipeline.h"
#include "oracle/Campaign.h"
#include "oracle/Oracle.h"
#include "support/Rng.h"
#include "support/StringUtil.h"
#include "triage/Triage.h"

#include <algorithm>
#include <set>

using namespace clfuzz;

namespace {

//===----------------------------------------------------------------------===//
// diff
//===----------------------------------------------------------------------===//

/// One kernel across the whole zoo: a single backend batch, then the
/// report — one step.
class DiffTask final : public CampaignTask {
public:
  DiffTask(DiffSpec Spec, ExecBackend &Backend, std::FILE *Out)
      : Spec(std::move(Spec)), Backend(Backend), Out(Out) {}

  bool done() const override { return Finished; }

  void step() override {
    TestCase T = TestCase::fromGenerated(generateKernel(Spec.Gen));
    std::vector<DeviceConfig> Zoo = buildConfigRegistry();
    std::vector<ExecJob> Jobs;
    std::vector<std::string> Labels;
    for (const DeviceConfig &C : Zoo) {
      for (bool Opt : {false, true}) {
        Jobs.push_back(ExecJob::onConfig(T, C, Opt, RunSettings()));
        Labels.push_back(std::to_string(C.Id) + (Opt ? "+" : "-"));
      }
    }
    // The whole zoo runs one kernel: a single column, parsed once per
    // worker instead of once per cell.
    std::vector<RunOutcome> Outs =
        Backend.runColumns(groupIntoColumns(Jobs));
    JobsRun = Jobs.size();

    if (Spec.Format == "csv" || Spec.Format == "jsonl") {
      std::unique_ptr<ResultSink> Sink;
      if (Spec.Format == "csv")
        Sink = std::make_unique<CsvOutcomeSink>(Out, Labels);
      else
        Sink = std::make_unique<JsonlOutcomeSink>(Out, Labels);
      Sink->consumeTest(0, T, Outs);
      Sink->finish();
      Finished = true;
      return;
    }
    std::vector<Verdict> Vs = classifyAgainstMajority(Outs);
    unsigned Wrong = 0;
    for (size_t I = 0; I != Vs.size(); ++I) {
      std::fprintf(Out, "%-5s %-4s", Labels[I].c_str(),
                   verdictName(Vs[I]));
      if (Outs[I].ok())
        std::fprintf(Out, " %s", toHex(Outs[I].OutputHash).c_str());
      else
        std::fprintf(Out, " %s", Outs[I].Message.c_str());
      std::fprintf(Out, "\n");
      if (Vs[I] == Verdict::Wrong) {
        ++Wrong;
        Fingerprints.insert(hashDescriptor(Jobs[I]));
      }
    }
    std::fprintf(Out, "\n%u wrong-code verdicts\n", Wrong);
    Finished = true;
  }

  size_t distinctWitnesses() const override { return Fingerprints.size(); }
  size_t testsDone() const override { return Finished ? 1 : 0; }
  size_t jobsDone() const override { return JobsRun; }

private:
  DiffSpec Spec;
  ExecBackend &Backend;
  std::FILE *Out;
  std::set<uint64_t> Fingerprints;
  size_t JobsRun = 0;
  bool Finished = false;
};

//===----------------------------------------------------------------------===//
// hunt
//===----------------------------------------------------------------------===//

/// Streams hunt findings: votes per kernel as its cells arrive and
/// prints wrong-code witnesses immediately, in seed order; with a
/// reduction queue attached, every witness is also submitted for
/// background shrinking while the hunt keeps going. Memory is one
/// kernel's outcomes, regardless of the count.
class HuntSink final : public ResultSink {
public:
  HuntSink(uint64_t SeedBase, std::vector<std::string> Labels,
           const std::vector<DeviceConfig> &Targets,
           ReductionQueue *Reductions, bool Triage, std::FILE *Out)
      : SeedBase(SeedBase), Labels(std::move(Labels)), Targets(Targets),
        Reductions(Reductions), Triage(Triage), Out(Out) {}

  void consumeTest(size_t TestIndex, const TestCase &T,
                   const std::vector<RunOutcome> &Outs) override {
    std::vector<Verdict> Vs = classifyAgainstMajority(Outs);
    for (size_t I = 0; I != Vs.size(); ++I) {
      if (Vs[I] != Verdict::Wrong)
        continue;
      ++Findings;
      // The witness cell's job descriptor is the distinctness
      // fingerprint: the same (kernel, config, opt) witness found
      // twice counts once for the yield-weighted policy.
      Fingerprints.insert(hashDescriptor(ExecJob::onConfig(
          T, Targets[I / 2], /*Opt=*/I % 2 != 0, RunSettings())));
      std::fprintf(Out, "seed %llu: wrong code on config %s\n",
                   static_cast<unsigned long long>(SeedBase + TestIndex),
                   Labels[I].c_str());
      if (Reductions) {
        ReductionJob Job;
        Job.OrderKey = TestIndex * Labels.size() + I;
        Job.Label = "seed " +
                    std::to_string(SeedBase + TestIndex) + " config " +
                    Labels[I];
        Job.Witness = T;
        Job.Oracle = std::make_shared<DifferentialReductionOracle>(
            Targets[I / 2], /*Opt=*/I % 2 != 0);
        if (Triage)
          Job.Triage = TriageRequest{Targets[I / 2], /*Opt=*/I % 2 != 0};
        Reductions->submit(std::move(Job));
      }
    }
  }

  uint64_t SeedBase;
  std::vector<std::string> Labels;
  const std::vector<DeviceConfig> &Targets;
  ReductionQueue *Reductions;
  bool Triage;
  std::FILE *Out;
  unsigned Findings = 0;
  std::set<uint64_t> Fingerprints;
};

class HuntTask final : public CampaignTask {
public:
  HuntTask(HuntSpec Spec, unsigned ShardSize, ExecBackend &Backend,
           ReductionQueue *Queue, std::FILE *Out)
      : Spec(std::move(Spec)), Backend(Backend), Queue(Queue), Out(Out) {
    std::vector<DeviceConfig> Zoo = buildConfigRegistry();
    for (int Id : paperAboveThresholdIds())
      Targets.push_back(configById(Zoo, Id));
    for (const DeviceConfig &C : Targets)
      for (bool Opt : {false, true})
        Labels.push_back(std::to_string(C.Id) + (Opt ? "+" : "-"));

    Source = std::make_unique<GeneratorSource>(
        this->Spec.Mode, GenOptions(), this->Spec.Seed, this->Spec.Count,
        /*Prefilter=*/false, /*Config1=*/nullptr, RunSettings(), Backend);

    if (this->Spec.Format == "csv")
      Sink = std::make_unique<CsvOutcomeSink>(Out, Labels);
    else if (this->Spec.Format == "jsonl")
      Sink = std::make_unique<JsonlOutcomeSink>(Out, Labels);
    else {
      auto HS = std::make_unique<HuntSink>(this->Spec.Seed, Labels,
                                           Targets, Queue,
                                           this->Spec.Triage, Out);
      Findings = HS.get();
      Sink = std::move(HS);
    }

    Run = std::make_unique<ShardedCampaignRun>(
        *Source, Backend, ShardSize,
        [this](size_t, const TestCase &T, std::vector<ExecJob> &Jobs) {
          for (const DeviceConfig &C : Targets)
            for (bool Opt : {false, true})
              Jobs.push_back(ExecJob::onConfig(T, C, Opt, RunSettings()));
        },
        *Sink);
  }

  bool done() const override { return Phase == PhaseKind::Done; }

  /// True while the campaign proper is still running (the reduction
  /// lane closes when this goes false: no further submissions).
  bool mainPhaseActive() const { return Phase == PhaseKind::Main; }

  bool ready() const override {
    // Waiting for the lane's reductions to finish is the only
    // not-ready state; the lane is ready exactly while jobs are
    // queued, so one of the two always progresses.
    if (Phase == PhaseKind::WaitReductions)
      return !Queue->hasPending();
    return Phase != PhaseKind::Done;
  }

  void step() override {
    switch (Phase) {
    case PhaseKind::Main:
      if (!Run->step()) {
        if (Findings)
          std::fprintf(
              Out,
              "%u findings over %zu kernels on the %s backend; rerun "
              "`clfuzz gen --mode=%s --seed=<seed>` to inspect a "
              "witness\n",
              Findings->Findings, Run->stats().Tests, Backend.name(),
              Spec.ModeName.c_str());
        Phase = (Queue && Findings) ? PhaseKind::WaitReductions
                                    : PhaseKind::Done;
      }
      return;
    case PhaseKind::WaitReductions:
      printReductions();
      Phase = PhaseKind::Done;
      return;
    case PhaseKind::Done:
      return;
    }
  }

  size_t distinctWitnesses() const override {
    return Findings ? Findings->Fingerprints.size() : 0;
  }
  size_t testsDone() const override { return Run->stats().Tests; }
  size_t jobsDone() const override { return Run->stats().Jobs; }
  int exitCode() const override { return ExitCodeV; }

private:
  enum class PhaseKind { Main, WaitReductions, Done };

  void printReductions() {
    std::vector<ReductionResult> Reduced = Queue->drain();
    if (!Reduced.empty())
      std::fprintf(Out, "\n%zu witnesses reduced in the background:\n",
                   Reduced.size());
    for (const ReductionResult &R : Reduced) {
      if (!R.Error.empty()) {
        std::fprintf(Out,
                     "\n%s: reduction failed (%s); witness kept as-is\n",
                     R.Label.c_str(), R.Error.c_str());
        continue;
      }
      std::fprintf(Out,
                   "\n%s: %u -> %u lines (%u candidates tried, %u kept)\n",
                   R.Label.c_str(), R.Stats.InitialLines,
                   R.Stats.FinalLines, R.Stats.CandidatesTried,
                   R.Stats.CandidatesKept);
      std::fprintf(Out, "%s", R.Reduced.Source.c_str());
      if (R.Triage)
        std::fprintf(Out, "%s: %s\n", R.Label.c_str(),
                     renderTriageLine(*R.Triage).c_str());
    }
    if (Spec.Triage)
      printTriageSummary(Reduced);
    if (!Spec.ReduceTracePath.empty()) {
      std::FILE *F = Spec.ReduceTracePath == "-"
                         ? stderr
                         : std::fopen(Spec.ReduceTracePath.c_str(), "w");
      if (!F) {
        std::fprintf(stderr, "cannot open trace file '%s'\n",
                     Spec.ReduceTracePath.c_str());
        ExitCodeV = 1;
        return;
      }
      // Traces were buffered per witness; emitting them in drain
      // order keeps the file byte-identical however the background
      // jobs interleaved.
      for (const ReductionResult &R : Reduced)
        std::fwrite(R.Trace.data(), 1, R.Trace.size(), F);
      if (F != stderr)
        std::fclose(F);
    }
  }

  /// The distinct-bug epilogue for `hunt --reduce --triage`: one
  /// summary line on the report stream, plus the optional csv/jsonl
  /// sink file. Drain order is deterministic, so both are
  /// byte-identical however the background jobs interleaved.
  void printTriageSummary(const std::vector<ReductionResult> &Reduced) {
    std::set<std::string> Keys;
    size_t Triaged = 0;
    for (const ReductionResult &R : Reduced)
      if (R.Triage) {
        ++Triaged;
        if (!R.Triage->ClusterKey.empty())
          Keys.insert(R.Triage->ClusterKey);
      }
    // Charged here (not in triageWitness) so the increment lands
    // inside this campaign's own step under the scheduler: the
    // per-campaign stats delta attributes it exactly.
    addTriageClusters(Keys.size());
    if (Triaged)
      std::fprintf(Out,
                   "\ntriage: %zu distinct bug cluster(s) across %zu "
                   "triaged witness(es)\n",
                   Keys.size(), Triaged);
    if (Spec.TriageOut.empty())
      return;
    std::FILE *F = Spec.TriageOut == "-"
                       ? stderr
                       : std::fopen(Spec.TriageOut.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot open triage report file '%s'\n",
                   Spec.TriageOut.c_str());
      ExitCodeV = 1;
      return;
    }
    std::string Report;
    if (Spec.TriageFormat == "csv")
      Report += triageCsvHeader();
    for (const ReductionResult &R : Reduced) {
      if (!R.Triage)
        continue;
      Report += Spec.TriageFormat == "csv"
                    ? renderTriageCsvRow(R.Label, *R.Triage)
                    : renderTriageJsonl(R.Label, *R.Triage);
    }
    std::fwrite(Report.data(), 1, Report.size(), F);
    if (F != stderr)
      std::fclose(F);
  }

  HuntSpec Spec;
  ExecBackend &Backend;
  ReductionQueue *Queue;
  std::FILE *Out;
  std::vector<DeviceConfig> Targets;
  std::vector<std::string> Labels;
  std::unique_ptr<GeneratorSource> Source;
  std::unique_ptr<ResultSink> Sink;
  HuntSink *Findings = nullptr; ///< null for csv/jsonl
  std::unique_ptr<ShardedCampaignRun> Run;
  PhaseKind Phase = PhaseKind::Main;
  int ExitCodeV = 0;
};

//===----------------------------------------------------------------------===//
// EMI
//===----------------------------------------------------------------------===//

/// The §7.4 campaign as a schedulable task: base collection runs one
/// candidate wave per step, then each base's variant sweep streams
/// shard by shard, and the epilogue prints one row per (config, opt)
/// cell. The collection/sweep logic mirrors
/// oracle/Campaign.cpp:runEmiCampaign over the above-threshold
/// configurations.
class EmiTask final : public CampaignTask {
public:
  EmiTask(EmiSpec Spec, unsigned ShardSize, ExecBackend &Backend,
          std::FILE *Out)
      : Spec(Spec), ShardSize(ShardSize), Backend(Backend), Out(Out),
        BlockCount(Spec.SeedBase ^ 0xb10cULL) {
    std::vector<DeviceConfig> Zoo = buildConfigRegistry();
    for (int Id : paperAboveThresholdIds())
      Targets.push_back(configById(Zoo, Id));
    for (const DeviceConfig &C : Targets)
      for (bool Opt : {false, true})
        Keys.push_back(ConfigKey{C.Id, Opt});
    Columns.resize(Keys.size());
    NextSeed = Spec.SeedBase + 777;
    MaxAttempts = Spec.Bases * 8;
  }

  bool done() const override { return Phase == PhaseKind::Done; }

  void step() override {
    switch (Phase) {
    case PhaseKind::Collect:
      collectWave();
      return;
    case PhaseKind::Sweep:
      sweepStep();
      return;
    case PhaseKind::Done:
      return;
    }
  }

  size_t distinctWitnesses() const override { return Fingerprints.size(); }
  size_t testsDone() const override {
    return SweptTests + (Run ? Run->stats().Tests : 0);
  }
  size_t jobsDone() const override {
    return ProbeJobs + SweptJobs + (Run ? Run->stats().Jobs : 0);
  }

private:
  enum class PhaseKind { Collect, Sweep, Done };

  /// One wave of base candidates: generate through the backend's
  /// in-process parallelism, probe (normal, dead-array-inverted) on
  /// the reference, accept in seed order. Identical scan to
  /// runEmiCampaign, so the accepted base set is invariant across
  /// backends and worker counts.
  void collectWave() {
    if (Bases.size() >= Spec.Bases || ScanPos >= MaxAttempts) {
      finishCollect();
      return;
    }
    unsigned Needed = Spec.Bases - static_cast<unsigned>(Bases.size());
    unsigned Wave = std::min(MaxAttempts - ScanPos,
                             std::max(Needed, Backend.concurrency()));

    std::vector<GenOptions> Candidates(Wave);
    std::vector<TestCase> Tests(Wave);
    Backend.forEachIndex(Wave, [&](size_t I) {
      GenOptions GO;
      GO.Mode = GenMode::All;
      GO.Seed = NextSeed + I;
      Rng JobRng = BlockCount.forkForJob(ScanPos + I);
      GO.NumEmiBlocks = static_cast<unsigned>(
          JobRng.range(Spec.MinBlocks, Spec.MaxBlocks));
      Candidates[I] = GO;
      Tests[I] = TestCase::fromGenerated(generateKernel(GO));
    });

    RunSettings Inverted;
    Inverted.InvertDead = true;
    std::vector<ExecJob> Jobs;
    Jobs.reserve(2 * Wave);
    for (const TestCase &T : Tests) {
      Jobs.push_back(ExecJob::onReference(T, /*Opt=*/true, RunSettings()));
      Jobs.push_back(ExecJob::onReference(T, /*Opt=*/true, Inverted));
    }
    std::vector<RunOutcome> Outs = Backend.run(Jobs);
    ProbeJobs += Jobs.size();

    for (unsigned I = 0; I != Wave && Bases.size() < Spec.Bases; ++I) {
      ++ScanPos;
      // The base must compute a value on the reference, and inverting
      // the dead array must change the result (§7.4 discards
      // candidates whose EMI blocks sit in already-dead code).
      const RunOutcome &Normal = Outs[2 * I];
      const RunOutcome &Live = Outs[2 * I + 1];
      if (!Normal.ok())
        continue;
      if (Live.ok() && Live.OutputHash == Normal.OutputHash)
        continue;
      Bases.push_back(Candidates[I]);
    }
    NextSeed += Wave;
    if (Bases.size() >= Spec.Bases || ScanPos >= MaxAttempts)
      finishCollect();
  }

  void finishCollect() {
    std::fprintf(Out,
                 "emi: %zu usable bases (seed %llu, %u-%u dead blocks, "
                 "%zu cells)\n",
                 Bases.size(),
                 static_cast<unsigned long long>(Spec.SeedBase),
                 Spec.MinBlocks, Spec.MaxBlocks, Keys.size());
    Phase = Bases.empty() ? PhaseKind::Done : PhaseKind::Sweep;
    if (Phase == PhaseKind::Done)
      printTable();
  }

  void sweepStep() {
    if (!Run)
      beginBase();
    if (Run->step())
      return;
    // This base's variants drained: vote each cell, then move on.
    for (size_t Cell = 0; Cell != Keys.size(); ++Cell) {
      EmiBaseVerdict V = classifyEmiVariants(CellSink->PerCell[Cell]);
      EmiColumn &Col = Columns[Cell];
      Col.BaseFails += V.BadBase;
      Col.Wrong += V.Wrong;
      Col.InducedBF += V.InducedBF && !V.BadBase;
      Col.InducedCrash += V.InducedCrash && !V.BadBase;
      Col.InducedTimeout += V.InducedTimeout && !V.BadBase;
      Col.Stable += V.Stable;
      // A wrong cell is a distinct witness per (base, cell): the
      // base's first variant descriptor anchors the fingerprint.
      if (V.Wrong)
        Fingerprints.insert(BaseFingerprint ^
                            (0x9e3779b97f4a7c15ULL * (Cell + 1)));
    }
    SweptTests += Run->stats().Tests;
    SweptJobs += Run->stats().Jobs;
    Run.reset();
    CellSink.reset();
    Source.reset();
    if (++BaseIdx == Bases.size()) {
      printTable();
      Phase = PhaseKind::Done;
    }
  }

  void beginBase() {
    Source = std::make_unique<EmiVariantSource>(Bases[BaseIdx], Backend);
    CellSink = std::make_unique<CellCollector>(Keys.size());
    BaseFingerprint = 0;
    Run = std::make_unique<ShardedCampaignRun>(
        *Source, Backend, ShardSize,
        [this](size_t, const TestCase &T, std::vector<ExecJob> &Jobs) {
          size_t First = Jobs.size();
          for (const DeviceConfig &C : Targets)
            for (bool Opt : {false, true})
              Jobs.push_back(ExecJob::onConfig(T, C, Opt, RunSettings()));
          if (BaseFingerprint == 0 && Jobs.size() > First)
            BaseFingerprint = hashDescriptor(Jobs[First]);
        },
        *CellSink);
  }

  void printTable() {
    std::fprintf(Out,
                 "cell  base-fail wrong induced-bf induced-crash "
                 "induced-timeout stable\n");
    for (size_t I = 0; I != Keys.size(); ++I) {
      std::string Label =
          std::to_string(Keys[I].ConfigId) + (Keys[I].Opt ? "+" : "-");
      const EmiColumn &C = Columns[I];
      std::fprintf(Out, "%-5s %9u %5u %10u %13u %15u %6u\n",
                   Label.c_str(), C.BaseFails, C.Wrong, C.InducedBF,
                   C.InducedCrash, C.InducedTimeout, C.Stable);
    }
  }

  /// Per-cell outcome regroup for one base (mirrors Campaign.cpp's
  /// EmiCellSink): bounded by outcomes-per-cell, variants stream.
  class CellCollector final : public ResultSink {
  public:
    explicit CellCollector(size_t NumCells) : PerCell(NumCells) {}
    void consumeTest(size_t, const TestCase &,
                     const std::vector<RunOutcome> &Outcomes) override {
      for (size_t Cell = 0; Cell != PerCell.size(); ++Cell)
        PerCell[Cell].push_back(Outcomes[Cell]);
    }
    std::vector<std::vector<RunOutcome>> PerCell;
  };

  struct EmiColumn {
    unsigned BaseFails = 0, Wrong = 0, InducedBF = 0, InducedCrash = 0,
             InducedTimeout = 0, Stable = 0;
  };

  EmiSpec Spec;
  unsigned ShardSize;
  ExecBackend &Backend;
  std::FILE *Out;
  Rng BlockCount;
  std::vector<DeviceConfig> Targets;
  std::vector<ConfigKey> Keys;
  std::vector<EmiColumn> Columns;
  std::vector<GenOptions> Bases;
  uint64_t NextSeed = 0;
  unsigned ScanPos = 0;
  unsigned MaxAttempts = 0;
  size_t BaseIdx = 0;
  uint64_t BaseFingerprint = 0;
  std::unique_ptr<EmiVariantSource> Source;
  std::unique_ptr<CellCollector> CellSink;
  std::unique_ptr<ShardedCampaignRun> Run;
  std::set<uint64_t> Fingerprints;
  size_t SweptTests = 0, SweptJobs = 0, ProbeJobs = 0;
  PhaseKind Phase = PhaseKind::Collect;
};

//===----------------------------------------------------------------------===//
// reduce
//===----------------------------------------------------------------------===//

/// One witness reduction as a campaign. The whole reduceTest runs in
/// a single step: reduction rounds are internally sharded over the
/// backend, but the fixpoint loop is not re-entrant, so the scheduler
/// treats a reduce campaign as one coarse grant (queued hunt
/// reductions behave the same way through the lane).
class ReduceTask final : public CampaignTask {
public:
  ReduceTask(ReduceSpec Spec, std::FILE *Out)
      : Spec(std::move(Spec)), Out(Out) {}

  bool done() const override { return Finished; }

  void step() override {
    Finished = true;
    std::vector<DeviceConfig> Zoo = buildConfigRegistry();
    const DeviceConfig &Config = configById(Zoo, Spec.ConfigId);

    std::unique_ptr<ReductionOracle> Oracle;
    if (Spec.Expect == "wrong")
      Oracle = std::make_unique<DifferentialReductionOracle>(Config,
                                                             Spec.Opt);
    else if (Spec.Expect == "crash")
      Oracle = std::make_unique<StatusReductionOracle>(Config, Spec.Opt,
                                                       RunStatus::Crash);
    else if (Spec.Expect == "timeout")
      Oracle = std::make_unique<StatusReductionOracle>(
          Config, Spec.Opt, RunStatus::Timeout);
    else
      Oracle = std::make_unique<StatusReductionOracle>(
          Config, Spec.Opt, RunStatus::BuildFailure);

    ReducerOptions RO = Spec.Opts;
    std::FILE *TraceFile = nullptr;
    if (!Spec.TracePath.empty()) {
      TraceFile = Spec.TracePath == "-"
                      ? stderr
                      : std::fopen(Spec.TracePath.c_str(), "w");
      if (!TraceFile) {
        std::fprintf(stderr, "cannot open trace file '%s'\n",
                     Spec.TracePath.c_str());
        ExitCodeV = 2;
        return;
      }
      RO.Trace = makeJsonlReduceTrace(TraceFile);
    }

    TestCase T = TestCase::fromGenerated(generateKernel(Spec.Gen));
    ReduceStats Stats;
    TestCase Reduced = reduceTest(T, *Oracle, RO, &Stats);
    if (TraceFile && TraceFile != stderr)
      std::fclose(TraceFile);
    CandidatesTried = Stats.CandidatesTried;

    std::string Cell =
        std::to_string(Config.Id) + (Spec.Opt ? "+" : "-");
    if (!Stats.WitnessWasInteresting) {
      std::fprintf(stderr,
                   "witness is not interesting: seed %llu does not %s on "
                   "config %s\n",
                   static_cast<unsigned long long>(Spec.Gen.Seed),
                   Spec.Expect == "wrong" ? "miscompile"
                                          : Spec.Expect.c_str(),
                   Cell.c_str());
      ExitCodeV = 1;
      return;
    }
    Interesting = true;

    // The report is deliberately backend-silent: `reduce` output is
    // byte-identical across backends and worker counts.
    std::fprintf(Out, "// reduced witness: seed %llu, config %s, %s\n",
                 static_cast<unsigned long long>(Spec.Gen.Seed),
                 Cell.c_str(), Spec.Expect.c_str());
    std::fprintf(Out,
                 "// lines %u -> %u; %u candidates tried, %u kept, %u "
                 "skipped; %u rounds, %u escalations\n",
                 Stats.InitialLines, Stats.FinalLines,
                 Stats.CandidatesTried, Stats.CandidatesKept,
                 Stats.CandidatesSkipped, Stats.Rounds,
                 Stats.Escalations);
    std::fprintf(Out, "%s", Reduced.Source.c_str());
  }

  size_t distinctWitnesses() const override { return Interesting ? 1 : 0; }
  size_t testsDone() const override { return Finished ? 1 : 0; }
  size_t jobsDone() const override { return CandidatesTried; }
  int exitCode() const override { return ExitCodeV; }

private:
  ReduceSpec Spec;
  std::FILE *Out;
  bool Finished = false;
  bool Interesting = false;
  size_t CandidatesTried = 0;
  int ExitCodeV = 0;
};

//===----------------------------------------------------------------------===//
// triage
//===----------------------------------------------------------------------===//

/// One witness reduced then bisected, as a campaign. Like ReduceTask
/// the whole job is one coarse step (the reducer's fixpoint loop and
/// the bisection's greedy loop are both internally sharded but not
/// re-entrant). Triage is wrong-code-only: the bisection oracle is
/// output divergence against the reference.
class TriageTask final : public CampaignTask {
public:
  TriageTask(TriageSpec Spec, std::FILE *Out)
      : Spec(std::move(Spec)), Out(Out) {}

  bool done() const override { return Finished; }

  void step() override {
    Finished = true;
    std::vector<DeviceConfig> Zoo = buildConfigRegistry();
    const DeviceConfig &Config = configById(Zoo, Spec.ConfigId);
    DifferentialReductionOracle Oracle(Config, Spec.Opt);

    TestCase T = TestCase::fromGenerated(generateKernel(Spec.Gen));
    ReduceStats Stats;
    TestCase Reduced = reduceTest(T, Oracle, Spec.Opts, &Stats);
    CandidatesTried = Stats.CandidatesTried;

    std::string Cell =
        std::to_string(Config.Id) + (Spec.Opt ? "+" : "-");
    if (!Stats.WitnessWasInteresting) {
      std::fprintf(stderr,
                   "witness is not interesting: seed %llu does not "
                   "miscompile on config %s\n",
                   static_cast<unsigned long long>(Spec.Gen.Seed),
                   Cell.c_str());
      ExitCodeV = 1;
      return;
    }
    Interesting = true;

    // Probes ride the reducer's scheduling verbatim: same backend
    // (shared under the scheduler), same priority, same settings.
    TriageOptions TO;
    TO.Exec = Spec.Opts.Exec;
    TO.Backend = Spec.Opts.Backend;
    TO.DispatchPriority = Spec.Opts.DispatchPriority;
    TO.Run = Spec.Opts.Run;
    TriageResult R = triageWitness(Reduced, Config, Spec.Opt, TO);
    Probes = R.Probes;
    // One witness: its cluster (if any) is first-seen by definition.
    addTriageClusters(R.ClusterKey.empty() ? 0 : 1);

    std::string Label = "seed " +
                        std::to_string(Spec.Gen.Seed) + " config " + Cell;
    if (Spec.Format == "csv") {
      std::string Report = triageCsvHeader() + renderTriageCsvRow(Label, R);
      std::fwrite(Report.data(), 1, Report.size(), Out);
      return;
    }
    if (Spec.Format == "jsonl") {
      std::string Report = renderTriageJsonl(Label, R);
      std::fwrite(Report.data(), 1, Report.size(), Out);
      return;
    }
    // Text report, backend-silent like `reduce`: the reduced witness
    // first (the thing a human files upstream), then the verdict.
    std::fprintf(Out, "// triaged witness: seed %llu, config %s\n",
                 static_cast<unsigned long long>(Spec.Gen.Seed),
                 Cell.c_str());
    std::fprintf(Out, "// lines %u -> %u; %u candidates tried\n",
                 Stats.InitialLines, Stats.FinalLines,
                 Stats.CandidatesTried);
    std::fprintf(Out, "%s", Reduced.Source.c_str());
    std::fprintf(Out, "%s: %s\n", Label.c_str(),
                 renderTriageLine(R).c_str());
  }

  size_t distinctWitnesses() const override { return Interesting ? 1 : 0; }
  size_t testsDone() const override { return Finished ? 1 : 0; }
  size_t jobsDone() const override { return CandidatesTried + Probes; }
  int exitCode() const override { return ExitCodeV; }

private:
  TriageSpec Spec;
  std::FILE *Out;
  bool Finished = false;
  bool Interesting = false;
  size_t CandidatesTried = 0;
  unsigned Probes = 0;
  int ExitCodeV = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

std::unique_ptr<CampaignTask> clfuzz::makeDiffTask(const DiffSpec &Spec,
                                                   ExecBackend &Backend,
                                                   std::FILE *Out) {
  return std::make_unique<DiffTask>(Spec, Backend, Out);
}

HuntCampaign clfuzz::makeHuntCampaign(const HuntSpec &Spec,
                                      unsigned ShardSize,
                                      ExecBackend &Backend,
                                      std::FILE *Out) {
  HuntCampaign C;
  // Reduction rides the text report only (csv/jsonl sinks have no
  // verdict stream to submit witnesses from).
  bool WantReduce = Spec.Reduce && Spec.Format == "text";
  if (WantReduce)
    C.Queue = std::make_unique<ReductionQueue>(
        Spec.ReduceOpts, /*CaptureTrace=*/!Spec.ReduceTracePath.empty());

  auto Main = std::make_unique<HuntTask>(Spec, ShardSize, Backend,
                                         C.Queue.get(), Out);
  if (WantReduce) {
    // The priority lane services the queue; closed once the hunt's
    // campaign phase stops submitting.
    HuntTask *MainPtr = Main.get();
    C.Lane = std::make_unique<ReductionLaneTask>(
        *C.Queue, [MainPtr] { return !MainPtr->mainPhaseActive(); });
  }
  C.Main = std::move(Main);
  return C;
}

std::unique_ptr<CampaignTask> clfuzz::makeEmiTask(const EmiSpec &Spec,
                                                  unsigned ShardSize,
                                                  ExecBackend &Backend,
                                                  std::FILE *Out) {
  return std::make_unique<EmiTask>(Spec, ShardSize, Backend, Out);
}

std::unique_ptr<CampaignTask> clfuzz::makeReduceTask(const ReduceSpec &Spec,
                                                     std::FILE *Out) {
  return std::make_unique<ReduceTask>(Spec, Out);
}

std::unique_ptr<CampaignTask> clfuzz::makeTriageTask(const TriageSpec &Spec,
                                                     std::FILE *Out) {
  return std::make_unique<TriageTask>(Spec, Out);
}
