//===- certbench/Plan.cpp - Seeded inputs and the verdict-table oracle ----===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "CertBench.h"

#include "vm/Engine.h"
#include "wile/Codegen.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace talft;

namespace certbench {

const char *modeName(Mode M) { return M == Mode::Plain ? "plain" : "recover"; }

// Sweep: steps/24 is dense enough that a pass lasts about two seconds and
// is dominated by the injection phase. Recover: a task costs about 27x a
// plain one, so two injection points per kernel (steps 0 and just past the
// middle; the +1 keeps a third point from appearing at the last step).
// Serve: steps/6 makes a cold submit tens of milliseconds, so a run holds
// hundreds of them; 16 strides per kernel give each client 120 cold keys,
// more than the server's 64-entry memo holds.
Sizing fullSizing() {
  Sizing Z;
  Z.Sweep = {24, 0, 4};
  Z.Recover = {2, 1, 4};
  Z.Serve = {6, 0, 16};
  return Z;
}

// One injection point (step 0) on the three shortest kernels.
Sizing tinySizing() {
  Sizing Z;
  Z.Sweep = {1, 0, 1};
  Z.Recover = {1, 0, 1};
  Z.Serve = {1, 0, 4};
  Z.Kernels = 3;
  Z.MaxRounds = 2;
  Z.MinPasses = 1;
  return Z;
}

Expected<wile::CompiledProgram> compileKernel(TypeContext &TC,
                                              const wile::Kernel &K) {
  DiagnosticEngine Diags;
  return wile::compileWile(TC, K.Source, wile::CodegenMode::FaultTolerant,
                           Diags);
}

bool loadKernels(const Sizing &Z, std::vector<KernelInput> &Out,
                 std::string &Err) {
  Out.clear();
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    TypeContext TC;
    Expected<wile::CompiledProgram> CP = compileKernel(TC, K);
    if (!CP) {
      Err = K.Name + ": " + CP.message();
      return false;
    }
    Expected<MachineState> S0 = CP->Prog.initialState();
    if (Error E = S0.takeError()) {
      Err = K.Name + ": " + E.message();
      return false;
    }
    std::unique_ptr<ExecEngine> Eng = vm::createEngine(CP->Prog.code());
    TheoremConfig Probe;
    MachineState S = *S0;
    RunResult RR =
        Eng->run(S, CP->Prog.exitAddress(), Probe.MaxSteps, Probe.Policy);
    if (RR.Status != RunStatus::Halted) {
      Err = K.Name + ": reference run did not halt";
      return false;
    }
    Out.push_back({&K, RR.Steps});
  }
  if (Z.Kernels < Out.size()) {
    // Keep the shortest kernels, in the paper's order.
    std::vector<uint64_t> Steps;
    for (const KernelInput &KI : Out)
      Steps.push_back(KI.Steps);
    std::sort(Steps.begin(), Steps.end());
    uint64_t Cut = Steps[Z.Kernels - 1];
    std::erase_if(Out, [&](const KernelInput &KI) { return KI.Steps > Cut; });
    Out.resize(std::min(Out.size(), Z.Kernels));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

FoldedTable foldTable(const VerdictTable &T) {
  FoldedTable F{};
  for (size_t I = 0; I != FoldedVerdicts; ++I)
    F[I] = T.Counts[I];
  F[size_t(Verdict::Masked)] += T[Verdict::StaticallyMasked];
  F[size_t(Verdict::Detected)] += T[Verdict::StaticallyDetected];
  return F;
}

bool Oracle::load(const std::string &Path, std::string &Err) {
  std::ifstream In(Path);
  if (!In)
    return true;
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    std::string ModeS;
    CaseKey K;
    ExpectedCase E;
    unsigned Ok = 0;
    SS >> ModeS >> K.Kernel >> K.Stride >> Ok >> E.ReferenceSteps;
    for (uint64_t &V : E.Table)
      SS >> V;
    if (!SS || (ModeS != "plain" && ModeS != "recover")) {
      Err = Path + ":" + std::to_string(LineNo) + ": malformed oracle line";
      return false;
    }
    K.M = ModeS == "plain" ? Mode::Plain : Mode::Recover;
    E.Ok = Ok != 0;
    Cases[K] = E;
  }
  return true;
}

bool Oracle::write(const std::string &Path, std::string &Err) const {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp);
    if (!Out) {
      Err = "cannot write " + Tmp;
      return false;
    }
    Out << "# Expected Theorem 4 verdict tables for the certification "
           "benchmark, computed by\n# the structural reference interpreter "
           "with prune, lanes and convergence off.\n# Prune-only verdicts "
           "are folded: statically_masked into masked, statically_detected\n"
           "# into detected. Regenerate with: python3 certbench/run.py "
           "--gen-oracle\n";
    Out << "# mode\tkernel\tstride\tok\treference_steps";
    for (size_t I = 0; I != FoldedVerdicts; ++I)
      Out << '\t' << verdictJsonKey(Verdict(I));
    Out << '\n';
    for (const auto &[K, E] : Cases) {
      Out << modeName(K.M) << '\t' << K.Kernel << '\t' << K.Stride << '\t'
          << (E.Ok ? 1 : 0) << '\t' << E.ReferenceSteps;
      for (uint64_t V : E.Table)
        Out << '\t' << V;
      Out << '\n';
    }
    if (!Out) {
      Err = "short write to " + Tmp;
      return false;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Err = "cannot rename " + Tmp;
    return false;
  }
  return true;
}

const ExpectedCase *Oracle::find(const CaseKey &K) const {
  auto It = Cases.find(K);
  return It == Cases.end() ? nullptr : &It->second;
}

namespace {

/// The oracle campaign for one case.
CampaignResult runOracleCase(const wile::Kernel &K, uint64_t Stride, Mode M,
                             unsigned Threads) {
  TypeContext TC;
  Expected<wile::CompiledProgram> CP = compileKernel(TC, K);
  CampaignResult R;
  if (!CP) {
    R.Ok = false;
    return R;
  }
  TheoremConfig Config;
  Config.InjectionStride = Stride;
  Config.Recovery.Enabled = M == Mode::Recover;
  CampaignOptions Opts;
  Opts.Threads = Threads;
  Opts.Engine = nullptr; // the structural reference interpreter
  Opts.Prune = false;
  Opts.Converge = false;
  Opts.Lanes = false;
  return runSingleFaultCampaign(CP->Prog, Config, Opts);
}

} // namespace

size_t Oracle::generate(const std::vector<KernelInput> &Kernels,
                        const std::vector<CaseKey> &Keys, unsigned Threads) {
  size_t Made = 0;
  for (const CaseKey &K : Keys) {
    if (find(K))
      continue;
    const wile::Kernel *Src = nullptr;
    for (const KernelInput &KI : Kernels)
      if (KI.K->Name == K.Kernel)
        Src = KI.K;
    if (!Src)
      continue;
    CampaignResult R = runOracleCase(*Src, K.Stride, K.M, Threads);
    Cases[K] = {R.Ok, R.ReferenceSteps, foldTable(R.Table)};
    ++Made;
  }
  return Made;
}

std::string Oracle::check(const CaseKey &K, const CampaignResult &R) const {
  std::string Where =
      std::string(modeName(K.M)) + " " + K.Kernel + " stride " +
      std::to_string(K.Stride);
  const ExpectedCase *E = find(K);
  if (!E)
    return Where + ": no expected table";
  if (!R.Ok)
    return Where + ": campaign reported violations";
  if (R.Ok != E->Ok)
    return Where + ": ok flag differs from the oracle";
  if (R.ReferenceSteps != E->ReferenceSteps)
    return Where + ": reference steps " + std::to_string(R.ReferenceSteps) +
           ", expected " + std::to_string(E->ReferenceSteps);
  FoldedTable F = foldTable(R.Table);
  for (size_t I = 0; I != FoldedVerdicts; ++I)
    if (F[I] != E->Table[I])
      return Where + ": " + verdictJsonKey(Verdict(I)) + " " +
             std::to_string(F[I]) + ", expected " +
             std::to_string(E->Table[I]);
  return "";
}

//===----------------------------------------------------------------------===//
// Cases
//===----------------------------------------------------------------------===//

namespace {

void addBand(std::vector<CaseKey> &Out, Mode M, const Band &B,
             const std::vector<KernelInput> &Kernels) {
  for (const KernelInput &KI : Kernels)
    for (uint64_t J = 0; J != B.Width; ++J)
      Out.push_back({M, KI.K->Name, B.stride(KI.Steps, J)});
}

} // namespace

std::vector<CaseKey> allCases(const std::vector<KernelInput> &Kernels,
                              const Sizing &Z) {
  std::vector<CaseKey> Out;
  addBand(Out, Mode::Plain, Z.Sweep, Kernels);
  addBand(Out, Mode::Recover, Z.Recover, Kernels);
  addBand(Out, Mode::Plain, Z.Serve, Kernels);
  return Out;
}

std::vector<CaseKey> casesFor(const std::string &Workload,
                              const std::vector<KernelInput> &Kernels,
                              const Sizing &Z, uint64_t Seed) {
  std::vector<CaseKey> Out;
  if (Workload == "serve-mix") {
    addBand(Out, Mode::Plain, Z.Serve, Kernels);
    return Out;
  }
  Mode M = Workload == "fig10-recover" ? Mode::Recover : Mode::Plain;
  // A batch workload draws each kernel's stride from its band.
  const Band &B = M == Mode::Plain ? Z.Sweep : Z.Recover;
  Rng R(Seed * 2 + (M == Mode::Plain ? 0 : 1));
  for (const KernelInput &KI : Kernels)
    Out.push_back({M, KI.K->Name, B.stride(KI.Steps, R.below(B.Width))});
  return Out;
}

bool setupInputs(const RunOptions &O, const std::string &Workload,
                 std::vector<KernelInput> &Kernels,
                 std::vector<CaseKey> &Keys, const Oracle &Full,
                 std::string &Err) {
  Oracle Committed;
  if (!Committed.load(O.OraclePath, Err))
    return false;
  if (!loadKernels(O.Z, Kernels, Err))
    return false;
  Keys = casesFor(Workload, Kernels, O.Z, O.Seed);
  for (const CaseKey &K : Keys)
    if (!Committed.find(K) && !Full.find(K)) {
      Err = std::string("no expected table for ") + modeName(K.M) + " " +
            K.Kernel + " stride " + std::to_string(K.Stride);
      return false;
    }
  return true;
}

} // namespace certbench
