//===- Driver.cpp - Simulated OpenCL driver (compile + run) -----------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "device/Driver.h"
#include "device/CompileCounters.h"
#include "minicl/ASTClone.h"
#include "minicl/ASTQueries.h"
#include "minicl/Parser.h"
#include "minicl/Sema.h"
#include "opt/ConstEval.h"
#include "opt/Pass.h"
#include "support/Hash.h"
#include "vm/Codegen.h"
#include "vm/VM.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>

using namespace clfuzz;

const char *clfuzz::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::BuildFailure:
    return "bf";
  case RunStatus::Crash:
    return "c";
  case RunStatus::Timeout:
    return "to";
  case RunStatus::Ok:
    return "ok";
  }
  return "?";
}

TestCase TestCase::fromGenerated(const GeneratedKernel &K) {
  TestCase T;
  T.Name = std::string(genModeName(K.Mode)) + " seed " +
           std::to_string(K.Seed);
  T.Source = K.Source;
  T.Range = K.Range;
  T.Buffers = K.Buffers;
  return T;
}

namespace {

/// Phase-timing scope: charges elapsed wall-clock to one CompilePhase
/// counter on destruction.
class PhaseTimer {
public:
  explicit PhaseTimer(CompilePhase P)
      : P(P), Start(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    addCompilePhaseSample(
        P, static_cast<uint64_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - Start)
                   .count()));
  }

private:
  CompilePhase P;
  std::chrono::steady_clock::time_point Start;
};

/// Strips implicit casts for pattern checks against the pre-conversion
/// operand types.
const Expr *stripImplicit(const Expr *E) {
  while (const auto *ICE = dyn_cast<ImplicitCastExpr>(E))
    E = ICE->getSubExpr();
  return E;
}

/// True if the expression subtree contains a size_t-typed node (a
/// work-item query or arithmetic over one).
bool mentionsSizeT(const Expr *E) {
  if (const auto *ST = dyn_cast_if_present<ScalarType>(E->getType()))
    if (ST->isSizeT())
      return true;
  bool Found = false;
  // Cheap recursion through the few child kinds that matter.
  switch (E->getKind()) {
  case Expr::ExprKind::Unary:
    Found = mentionsSizeT(cast<UnaryExpr>(E)->getSubExpr());
    break;
  case Expr::ExprKind::Binary:
    Found = mentionsSizeT(cast<BinaryExpr>(E)->getLHS()) ||
            mentionsSizeT(cast<BinaryExpr>(E)->getRHS());
    break;
  case Expr::ExprKind::ImplicitCast:
    Found = mentionsSizeT(cast<ImplicitCastExpr>(E)->getSubExpr());
    break;
  default:
    break;
  }
  return Found;
}

/// Front-end defect checks of the configuration bug models. Returns a
/// non-empty message when the program is rejected.
std::string frontEndChecks(const ASTContext &Ctx,
                           const DeviceBugModel &Bugs) {
  std::string Error;

  if (Bugs.RejectVectorsInStructs) {
    for (const RecordType *RT : Ctx.types().records())
      for (const RecordField &F : RT->fields())
        if (F.Ty->isVector())
          return "internal error: LLVM IR generation failed for vector "
                 "member '" +
                 F.Name + "'";
  }

  for (const FunctionDecl *F : Ctx.program().functions()) {
    if (!F->getBody() || !Error.empty())
      break;
    forEachExprUntil(F->getBody(), [&](const Expr *E) -> bool {
      if (Bugs.RejectSizeTMix) {
        // Compound assignments mixing int with size_t (`x |= gx`, §6).
        if (const auto *A = dyn_cast<AssignExpr>(E)) {
          if (A->getOp() != AssignOp::Assign) {
            const auto *LS = dyn_cast_if_present<ScalarType>(
                A->getLHS()->getType());
            if (LS && LS->isSigned() && !LS->isSizeT() &&
                mentionsSizeT(stripImplicit(A->getRHS()))) {
              Error = "error: invalid operands to binary expression "
                      "('int' and 'size_t')";
              return true;
            }
          }
        }
      }
      if (const auto *B = dyn_cast<BinaryExpr>(E)) {
        if (Bugs.RejectVectorLogicalOps && isLogicalOp(B->getOp()) &&
            B->getLHS()->getType()->isVector()) {
          Error = "error: logical operation on vector operands is not "
                  "supported";
          return true;
        }
        if (Bugs.RejectSizeTMix && !isComparisonOp(B->getOp()) &&
            !isLogicalOp(B->getOp()) && B->getOp() != BinOp::Comma) {
          const Expr *L = stripImplicit(B->getLHS());
          const Expr *R = stripImplicit(B->getRHS());
          const auto *LS = dyn_cast_if_present<ScalarType>(L->getType());
          const auto *RS = dyn_cast_if_present<ScalarType>(R->getType());
          if (LS && RS) {
            bool Mixes = (mentionsSizeT(L) && RS->isSigned() &&
                          !RS->isSizeT()) ||
                         (mentionsSizeT(R) && LS->isSigned() &&
                          !LS->isSizeT());
            if (Mixes) {
              Error = "error: invalid operands to binary expression "
                      "('int' and 'size_t')";
              return true;
            }
          }
        }
      }
      return false;
    });
    if (Bugs.CompileHangOnInfiniteLoop && Error.empty()) {
      forEachStmtUntil(F->getBody(), [&](const Stmt *S) -> bool {
        const Expr *Cond = nullptr;
        if (const auto *W = dyn_cast<WhileStmt>(S))
          Cond = W->getCond();
        else if (const auto *Fo = dyn_cast<ForStmt>(S))
          Cond = Fo->getCond();
        if (!Cond) {
          if (isa<ForStmt>(S) && !cast<ForStmt>(S)->getCond()) {
            Error = "<compile hang>"; // for(;;)
            return true;
          }
          return false;
        }
        if (auto V = evalConstExpr(Cond))
          if (V->Lanes[0] != 0) {
            Error = "<compile hang>";
            return true;
          }
        return false;
      });
    }
  }
  return Error;
}

/// True when the Figure 1(f) slow-compilation model triggers: a large
/// record together with any barrier.
bool slowStructBarrierTriggers(const ASTContext &Ctx) {
  LayoutEngine L;
  bool BigStruct = false;
  for (const RecordType *RT : Ctx.types().records())
    if (RT->isComplete() && !RT->isUnion() && L.sizeOf(RT) >= 64)
      BigStruct = true;
  if (!BigStruct)
    return false;
  for (const FunctionDecl *F : Ctx.program().functions())
    if (functionContainsBarrier(F))
      return true;
  return false;
}

/// Deterministic lottery draw in [0,1) keyed on (source, salt, opt).
double lotteryDraw(uint64_t SourceHash, uint64_t Salt, bool Opt,
                   uint64_t Stream) {
  Fnv64 H;
  H.addU64(SourceHash);
  H.addU64(Salt);
  H.addU64(Opt ? 0x5eed : 0xdead);
  H.addU64(Stream);
  return static_cast<double>(H.value() >> 11) * 0x1.0p-53;
}

/// True when compilation with \p Bugs at \p RunOptimizer schedules no
/// pass at all, i.e. the AST that leaves the front end is the AST the
/// code generator sees. Mirrors buildPipeline: passes are added for
/// the four o2 stages, BarrierCallRetvalBug, EmiDceBugRate, and the
/// RotateFoldBug-forced constant folder.
bool pipelineIsEmpty(const DeviceBugModel &Bugs, bool RunOptimizer) {
  return !RunOptimizer && !Bugs.RotateFoldBug &&
         !Bugs.BarrierCallRetvalBug && Bugs.EmiDceBugRate == 0.0 &&
         !Bugs.BreakOnShiftBug && !Bugs.BreakOnAndBug &&
         !Bugs.ShiftMarkBug && !Bugs.MarkBreakBug;
}

/// The PassOptions the pipeline stage runs with — shared between
/// compileAndRun and the exported passPipelineOptionsFor so the
/// triage bisector names exactly the passes a cell executed.
PassOptions passPipelineOptions(const DeviceBugModel &Bugs,
                                bool RunOptimizer, uint64_t Salt,
                                uint64_t SourceHash) {
  PassOptions PO = RunOptimizer ? PassOptions::o2() : PassOptions::o0();
  if (!RunOptimizer && Bugs.RotateFoldBug) {
    // Mandatory constant-folding stage (see configuration 14).
    PO.EnableConstFold = true;
  }
  PO.RotateFoldBug = Bugs.RotateFoldBug;
  PO.ShiftSafeFoldBug = Bugs.ShiftSafeFoldBug;
  PO.CmpMinusOneBug = Bugs.CmpMinusOneBug;
  PO.BarrierCallRetvalBug = Bugs.BarrierCallRetvalBug;
  PO.EmiDceBugRate = Bugs.EmiDceBugRate;
  PO.BreakOnShiftBug = Bugs.BreakOnShiftBug;
  PO.BreakOnAndBug = Bugs.BreakOnAndBug;
  PO.ShiftMarkBug = Bugs.ShiftMarkBug;
  PO.MarkBreakBug = Bugs.MarkBreakBug;
  // Mix the variant's source into the salt: the defect depends on the
  // exact surrounding code, which is what makes it EMI-sensitive.
  PO.BugSalt = Salt ^ SourceHash;
  return PO;
}

/// Steps 6 and 7 of compileAndRun: builds the host buffers, launches
/// \p Module and reads back the printed result. Everything a launch
/// depends on beyond the test itself is in \p Settings and \p LO.
RunOutcome launchAndReadBack(const TestCase &Test,
                             const CompiledModule &Module,
                             const RunSettings &Settings,
                             const LaunchOptions &LO) {
  RunOutcome Out;
  std::vector<Buffer> Buffers;
  int OutIndex = -1;
  for (const BufferSpec &Spec : Test.Buffers) {
    Buffer B;
    B.Space = Spec.Space;
    B.Bytes = Spec.InitBytes;
    if (Spec.IsDeadArray && Settings.InvertDead) {
      // dead[j] = d-1-j makes every EMI guard true.
      size_t N = B.Bytes.size() / 4;
      for (size_t J = 0; J != N; ++J) {
        int32_t V = static_cast<int32_t>(N - 1 - J);
        std::memcpy(&B.Bytes[J * 4], &V, 4);
      }
    }
    if (Spec.IsOutput)
      OutIndex = static_cast<int>(Buffers.size());
    Buffers.push_back(std::move(B));
  }
  std::vector<KernelArg> Args;
  for (unsigned I = 0; I != Buffers.size(); ++I)
    Args.push_back(KernelArg::buffer(I));

  LaunchResult LR = [&] {
    PhaseTimer T(CompilePhase::Exec);
    return launchKernel(Module, Buffers, Args, LO);
  }();
  Out.Steps = LR.StepsExecuted;
  Out.RaceFound = LR.RaceFound;
  Out.RaceMessage = LR.RaceMessage;
  switch (LR.Status) {
  case LaunchStatus::Success:
    break;
  case LaunchStatus::Timeout:
    Out.Status = RunStatus::Timeout;
    Out.Message = LR.Message;
    return Out;
  case LaunchStatus::Trap:
  case LaunchStatus::BarrierDivergence:
  case LaunchStatus::InvalidLaunch:
    Out.Status = RunStatus::Crash;
    Out.Message = LR.Message;
    return Out;
  }

  // --- 7. read back the printed result
  Out.Status = RunStatus::Ok;
  if (OutIndex >= 0) {
    const Buffer &OB = Buffers[OutIndex];
    Out.OutputHash = fnv64(OB.Bytes.data(), OB.Bytes.size());
    size_t Words = OB.Bytes.size() / 8;
    for (size_t I = 0; I != std::min<size_t>(Words, 8); ++I)
      Out.OutputHead.push_back(OB.readScalar(I * 8, 8));
  }
  return Out;
}

/// A type as the VM sees it: kind, scalar kind, lane count, and the
/// address space of a pointer. Types are compared structurally because
/// each cell's module points into its own cloned ASTContext. 0xffff
/// encodes a null type.
uint16_t vmTypeCode(const Type *Ty) {
  if (!Ty)
    return 0xffff;
  uint16_t Code = static_cast<uint16_t>(Ty->getKind()); // bits 0-2
  if (const auto *ST = dyn_cast<ScalarType>(Ty)) {
    Code |= static_cast<uint16_t>(ST->getScalarKind()) << 3; // bits 3-6
  } else if (const auto *VT = dyn_cast<VectorType>(Ty)) {
    Code |= static_cast<uint16_t>(VT->getElementType()->getScalarKind())
            << 3;
    Code |= static_cast<uint16_t>(VT->getNumLanes()) << 7; // bits 7-11
  } else if (const auto *PT = dyn_cast<PointerType>(Ty)) {
    Code |= static_cast<uint16_t>(PT->getAddressSpace()) << 12;
  }
  return Code;
}

/// The exact LaunchMemo key of launching \p M under \p Settings and
/// \p LO, minus the step budget (see LaunchMemo).
std::string launchMemoKey(const CompiledModule &M,
                          const RunSettings &Settings,
                          const LaunchOptions &LO) {
  constexpr size_t InsnBytes = 1 + 4 + 4 + 8 + 2;
  constexpr size_t ParamBytes = 8 + 2;
  constexpr size_t FunctionBytes = 8 + 8 + 8;
  constexpr size_t HeaderBytes = 4 + 8 + 4 + 8 + 1 + 1 + 6 * 4 + 8 + 4 + 4;
  size_t Size = HeaderBytes;
  for (const CompiledFunction &F : M.Functions)
    Size += FunctionBytes + F.Params.size() * ParamBytes +
            F.Code.size() * InsnBytes;
  std::string Key(Size, '\0');
  char *At = Key.data();
  auto Put = [&At](auto V) {
    std::memcpy(At, &V, sizeof V);
    At += sizeof V;
  };
  Put(static_cast<uint32_t>(M.KernelIndex));
  Put(M.LocalArenaSize);
  Put(static_cast<uint32_t>(M.NumBarrierSites));
  Put(Settings.SchedulerSeed);
  Put(static_cast<uint8_t>(Settings.InvertDead));
  Put(static_cast<uint8_t>(Settings.DetectRaces));
  for (int D = 0; D != 3; ++D) {
    Put(LO.Range.Global[D]);
    Put(LO.Range.Local[D]);
  }
  Put(LO.PrivateArenaSize);
  Put(static_cast<uint32_t>(LO.MaxCallDepth));
  Put(static_cast<uint32_t>(M.Functions.size()));
  for (const CompiledFunction &F : M.Functions) {
    Put(F.FrameSize);
    Put(static_cast<uint64_t>(F.Params.size()));
    Put(static_cast<uint64_t>(F.Code.size()));
    for (const CompiledParam &P : F.Params) {
      Put(P.FrameOffset);
      Put(vmTypeCode(P.Ty));
    }
    for (const Insn &I : F.Code) {
      Put(static_cast<uint8_t>(I.Opcode));
      Put(I.A);
      Put(I.B);
      Put(I.Imm);
      Put(vmTypeCode(I.Ty));
    }
  }
  assert(At == Key.data() + Key.size() && "key size mismatch");
  return Key;
}

RunOutcome compileAndRun(const TestCase &Test, const DeviceBugModel &Bugs,
                         bool RunOptimizer, bool OptFlagForLottery,
                         uint64_t Salt,
                         const std::vector<std::string> &IceMessages,
                         const RunSettings &Settings,
                         const TestFrontEnd *SharedFE, LaunchMemo *Memo) {
  RunOutcome Out;
  uint64_t SourceHash = fnv64(Test.Source);
  // Geometry hash: identical across EMI variants of one base. Crash
  // and ICE lotteries draw a base-level susceptibility from it and a
  // per-variant coin from the source, so flaky failures cluster per
  // base (as real driver instability does) while the marginal rate in
  // differential campaigns stays at the configured value.
  Fnv64 GH;
  for (int I = 0; I != 3; ++I) {
    GH.addU64(Test.Range.Global[I]);
    GH.addU64(Test.Range.Local[I]);
  }
  for (const BufferSpec &B : Test.Buffers)
    GH.addU64(B.InitBytes.size());
  uint64_t GeomHash = GH.value();
  auto SplitLottery = [&](double Rate, uint64_t Stream) {
    if (Rate <= 0.0)
      return false;
    double BaseDraw = lotteryDraw(GeomHash, Salt, OptFlagForLottery,
                                  Stream);
    double VariantDraw = lotteryDraw(SourceHash, Salt,
                                     OptFlagForLottery, Stream + 100);
    return BaseDraw < 2.0 * Rate && VariantDraw < 0.5;
  };

  // --- 1. front end (parse + sema). A shared front end replaces the
  // per-cell re-parse. Pass-free cells read it directly: codegen and
  // the front-end defect checks never mutate. Cells whose pipeline
  // mutates the AST deep-clone it instead — structurally identical to
  // what a re-parse would build, so outputs are byte-identical — and
  // hand the private copy to the PassManager, leaving the shared AST
  // pristine for the other cells of the column.
  bool PipelineEmpty = pipelineIsEmpty(Bugs, RunOptimizer);
  ASTContext OwnCtx;
  std::unique_ptr<ASTContext> ClonedCtx;
  ASTContext *CtxPtr = nullptr;
  if (SharedFE && (PipelineEmpty || compileCloneEnabled())) {
    if (!SharedFE->ok()) {
      Out.Status = RunStatus::BuildFailure;
      Out.Message = SharedFE->diagnostics();
      return Out;
    }
    if (PipelineEmpty) {
      CtxPtr = &SharedFE->context();
    } else {
      PhaseTimer T(CompilePhase::Clone);
      ClonedCtx = cloneContext(SharedFE->context());
      CtxPtr = ClonedCtx.get();
    }
  } else {
    DiagEngine Diags;
    bool FeOk;
    {
      PhaseTimer T(CompilePhase::Parse);
      FeOk = parseProgram(Test.Source, OwnCtx, Diags);
    }
    if (FeOk) {
      PhaseTimer T(CompilePhase::Sema);
      FeOk = checkProgram(OwnCtx, Diags);
    }
    if (!FeOk) {
      Out.Status = RunStatus::BuildFailure;
      Out.Message = Diags.str();
      return Out;
    }
    CtxPtr = &OwnCtx;
  }
  ASTContext &Ctx = *CtxPtr;

  // --- 2. configuration-specific front-end defects
  std::string FeError = frontEndChecks(Ctx, Bugs);
  if (FeError == "<compile hang>") {
    Out.Status = RunStatus::Timeout;
    Out.Message = "compiler did not terminate";
    return Out;
  }
  if (!FeError.empty()) {
    Out.Status = RunStatus::BuildFailure;
    Out.Message = FeError;
    return Out;
  }
  if (Bugs.SlowStructBarrierCompile && slowStructBarrierTriggers(Ctx)) {
    Out.Status = RunStatus::Timeout;
    Out.Message = "compilation exceeded the time limit (large struct "
                  "with barrier)";
    return Out;
  }
  if (SplitLottery(Bugs.BuildFailLottery, 1)) {
    Out.Status = RunStatus::BuildFailure;
    Out.Message = IceMessages.empty()
                      ? "internal compiler error"
                      : IceMessages[fnv64(Test.Source) %
                                    IceMessages.size()];
    return Out;
  }

  // --- 3. pass pipeline (skipped outright when pipelineIsEmpty
  // guarantees buildPipeline would schedule nothing; running an empty
  // PassManager is a no-op, so skipping changes nothing).
  if (!PipelineEmpty) {
    PhaseTimer T(CompilePhase::Opt);
    PassOptions PO =
        passPipelineOptions(Bugs, RunOptimizer, Salt, SourceHash);
    PassManager PM = buildPipeline(PO, Ctx);
    // The triage bisector's subset probes select pipeline positions
    // via Settings.PassMask; the default mask runs everything.
    PM.run(Ctx, Settings.PassMask);
  }

  // --- 4. code generation
  CodegenOptions CG;
  CG.Layout = Bugs.Layout;
  CG.CommaDropsRhsBug = Bugs.CommaDropsRhsBug;
  CG.SwizzleHighLaneBug = Bugs.SwizzleHighLaneBug;
  CG.VolatileStructCopyBug = Bugs.VolatileStructCopyBug;
  CodegenResult CR = [&] {
    PhaseTimer T(CompilePhase::Codegen);
    return compileToBytecode(Ctx, CG);
  }();
  if (!CR.Ok) {
    Out.Status = RunStatus::BuildFailure;
    Out.Message = CR.Error;
    return Out;
  }

  // --- 5. runtime defect models
  if (Bugs.BarrierInFunctionCrash) {
    for (const FunctionDecl *F : Ctx.program().functions())
      if (!F->isKernel() && functionContainsBarrier(F)) {
        Out.Status = RunStatus::Crash;
        Out.Message = "segmentation fault (barrier inside function)";
        return Out;
      }
  }
  if (SplitLottery(Bugs.CrashLottery, 2)) {
    Out.Status = RunStatus::Crash;
    Out.Message = "runtime crash (driver instability model)";
    return Out;
  }

  // --- 6. host setup and launch, unless the column's launch memo
  // already holds this exact launch.
  LaunchOptions LO;
  LO.Range = Test.Range;
  LO.SchedulerSeed = Settings.SchedulerSeed;
  LO.DetectRaces = Settings.DetectRaces;
  LO.StepBudget = static_cast<uint64_t>(
      static_cast<double>(Settings.BaseStepBudget) * Bugs.SpeedFactor);
  if (LO.StepBudget == 0)
    LO.StepBudget = 1;
  if (!Memo)
    return launchAndReadBack(Test, CR.Module, Settings, LO);
  std::string Key = launchMemoKey(CR.Module, Settings, LO);
  if (const RunOutcome *Hit = Memo->find(Key, LO.StepBudget)) {
    countSharedLaunch();
    return *Hit;
  }
  Out = launchAndReadBack(Test, CR.Module, Settings, LO);
  Memo->record(std::move(Key), LO.StepBudget, Out);
  return Out;
}

} // namespace

TestFrontEnd::TestFrontEnd(const TestCase &Test)
    : Ctx(std::make_unique<ASTContext>()) {
  DiagEngine Diags;
  {
    PhaseTimer T(CompilePhase::Parse);
    ParseOk = parseProgram(Test.Source, *Ctx, Diags);
  }
  if (ParseOk) {
    PhaseTimer T(CompilePhase::Sema);
    ParseOk = checkProgram(*Ctx, Diags);
  }
  if (!ParseOk)
    this->Diags = Diags.str();
}

TestFrontEnd::~TestFrontEnd() = default;
TestFrontEnd::TestFrontEnd(TestFrontEnd &&) noexcept = default;
TestFrontEnd &TestFrontEnd::operator=(TestFrontEnd &&) noexcept = default;

namespace {

/// -1 = unresolved (consult the environment once), else 0/1.
std::atomic<int> GCloneMode{-1};

} // namespace

bool clfuzz::compileCloneEnabled() {
  int Mode = GCloneMode.load(std::memory_order_relaxed);
  if (Mode < 0) {
    Mode = 1;
    if (const char *Env = std::getenv("CLFUZZ_COMPILE_CLONE"))
      if (std::strcmp(Env, "0") == 0 || std::strcmp(Env, "off") == 0 ||
          std::strcmp(Env, "false") == 0)
        Mode = 0;
    GCloneMode.store(Mode, std::memory_order_relaxed);
  }
  return Mode != 0;
}

void clfuzz::setCompileCloneEnabled(bool Enabled) {
  GCloneMode.store(Enabled ? 1 : 0, std::memory_order_relaxed);
}

FrontEndUse clfuzz::frontEndUseFor(const DeviceConfig *Config,
                                   bool OptEnabled) {
  bool Empty;
  if (!Config) {
    // Reference runs use the clean bug model: its pipeline is empty
    // exactly when the optimiser is off.
    Empty = !OptEnabled;
  } else {
    bool RunOptimizer = OptEnabled && !Config->NoOptimizer;
    Empty = pipelineIsEmpty(Config->bugs(OptEnabled), RunOptimizer);
  }
  if (Empty)
    return FrontEndUse::ReadShared;
  return compileCloneEnabled() ? FrontEndUse::ClonePrivate
                               : FrontEndUse::Reparse;
}

RunOutcome clfuzz::runTestOnConfig(const TestCase &Test,
                                   const DeviceConfig &Config,
                                   bool OptEnabled,
                                   const RunSettings &Settings,
                                   const TestFrontEnd *SharedFE,
                                   LaunchMemo *Memo) {
  const DeviceBugModel &Bugs = Config.bugs(OptEnabled);
  bool RunOptimizer = OptEnabled && !Config.NoOptimizer;
  return compileAndRun(Test, Bugs, RunOptimizer, OptEnabled, Config.Salt,
                       Config.IceMessages, Settings, SharedFE, Memo);
}

PassOptions clfuzz::passPipelineOptionsFor(const DeviceConfig &Config,
                                           bool OptEnabled,
                                           const TestCase &Test) {
  const DeviceBugModel &Bugs = Config.bugs(OptEnabled);
  bool RunOptimizer = OptEnabled && !Config.NoOptimizer;
  return passPipelineOptions(Bugs, RunOptimizer, Config.Salt,
                             fnv64(Test.Source));
}

RunOutcome clfuzz::runTestOnReference(const TestCase &Test, bool Optimize,
                                      const RunSettings &Settings,
                                      const TestFrontEnd *SharedFE,
                                      LaunchMemo *Memo) {
  DeviceBugModel Clean;
  Clean.SpeedFactor = 16.0; // a fast, reliable host
  return compileAndRun(Test, Clean, Optimize, Optimize,
                       /*Salt=*/0, {}, Settings, SharedFE, Memo);
}

const RunOutcome *LaunchMemo::find(const std::string &Key,
                                   uint64_t Budget) const {
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return nullptr;
  const Entry &E = It->second;
  if (Budget == E.Budget ||
      (E.Out.Status != RunStatus::Timeout && E.Out.Steps <= Budget))
    return &E.Out;
  return nullptr;
}

void LaunchMemo::record(std::string Key, uint64_t Budget,
                        const RunOutcome &Out) {
  Entries.insert_or_assign(std::move(Key), Entry{Budget, Out});
}
