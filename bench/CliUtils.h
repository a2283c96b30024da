//===- bench/CliUtils.h - Shared CLI, report and kernel-loading helpers ---===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// Every bench harness parses the same kinds of flags, writes the same
// kinds of JSON reports and sweeps the same Figure 10 kernels. Three
// policies live here so they cannot drift:
//
//   - numeric flags parse strictly: the entire argument must be a base-10
//     integer, so '--threads abc' (or '8x', or '') is a usage error in
//     every harness instead of silently becoming 0;
//   - report files are written atomically — temp file in the same
//     directory, then rename — so a crashed or OOM-killed run can never
//     leave a truncated report for a workflow to upload. The actual
//     write lives in support/AtomicFile.h so non-bench code (the
//     certification server's memo store) links the same logic;
//   - a Figure 10 sweep injects at every max(1, steps/12)-th reference
//     state, so fault_coverage --fig10 and campaign_matrix sweep the
//     same tasks (loadFig10Kernel).
//
//===----------------------------------------------------------------------===//

#ifndef TALFT_BENCH_CLIUTILS_H
#define TALFT_BENCH_CLIUTILS_H

#include "fault/Campaign.h"
#include "support/AtomicFile.h"
#include "vm/Engine.h"
#include "wile/Codegen.h"
#include "wile/Kernels.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace talft::cli {

/// Strict base-10 parse of the whole string \p V into \p Out.
inline bool parseU64(const char *V, uint64_t &Out) {
  if (!V || *V == '\0')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long N = std::strtoull(V, &End, 10);
  if (End == V || *End != '\0' || errno == ERANGE || V[0] == '-')
    return false;
  Out = N;
  return true;
}

/// Consumes the next argument as a strict u64: the common pattern of a
/// flag loop where \p I indexes the flag itself.
inline bool numArg(int Argc, char **Argv, int &I, uint64_t &Out) {
  if (I + 1 >= Argc)
    return false;
  return parseU64(Argv[++I], Out);
}

/// Strict comma-separated list of u64s ("1,4,16"); empty items reject.
inline bool parseU64List(const char *V, std::vector<uint64_t> &Out) {
  Out.clear();
  std::string S(V ? V : "");
  if (S.empty())
    return false;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    std::string Item =
        S.substr(Pos, Comma == std::string::npos ? Comma : Comma - Pos);
    uint64_t N;
    if (!parseU64(Item.c_str(), N))
      return false;
    Out.push_back(N);
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return true;
}

/// The execution-engine names every harness accepts, in ladder order;
/// also the set printed by engine-flag errors so they cannot drift from
/// the parser.
inline const char *engineNames() { return "reference, vm, jit"; }

inline bool isEngineName(const char *V) {
  return std::strcmp(V, "reference") == 0 || std::strcmp(V, "vm") == 0 ||
         std::strcmp(V, "jit") == 0;
}

/// Consumes the next argument as an engine name, with \p I indexing the
/// flag itself. A bare '--engine' (no value, or the next token is another
/// flag) and an unknown name are both usage errors that name the accepted
/// set — previously a trailing '--engine' fell through to the generic
/// usage line with no hint at what went wrong.
inline bool engineArg(int Argc, char **Argv, int &I, std::string &Out) {
  if (I + 1 >= Argc || Argv[I + 1][0] == '-') {
    std::fprintf(stderr, "%s needs a value (one of: %s)\n", Argv[I],
                 engineNames());
    return false;
  }
  const char *V = Argv[++I];
  if (!isEngineName(V)) {
    std::fprintf(stderr, "unknown engine '%s' (one of: %s)\n", V,
                 engineNames());
    return false;
  }
  Out = V;
  return true;
}

/// Writes \p Contents to \p Path atomically (support/AtomicFile.h): temp
/// file alongside the target, fflush, then rename, so the target is either
/// the old version or the complete new one — never a truncated report.
inline bool writeFileAtomic(const std::string &Path,
                            const std::string &Contents) {
  return support::writeFileAtomic(Path, Contents);
}

/// A Figure 10 kernel compiled for a sweep.
struct Fig10Kernel {
  wile::CompiledProgram CP;
  /// Length of the fault-free reference run.
  uint64_t RefSteps = 0;
  /// Inject at every Stride-th reference state: max(1, RefSteps / 12).
  uint64_t Stride = 1;
};

/// Compiles \p K into \p TC (which must outlive the result) and probes its
/// fault-free reference length on the vm engine. The stride adapts to that
/// length so every kernel's sweep stays tractable; step counts are
/// engine-independent by the engine contract, so no verdict table can
/// depend on the engine through the stride. Prints why to stderr and
/// returns nothing when the kernel does not compile or halt.
inline std::optional<Fig10Kernel> loadFig10Kernel(TypeContext &TC,
                                                  const wile::Kernel &K) {
  DiagnosticEngine Diags;
  Expected<wile::CompiledProgram> CP = wile::compileWile(
      TC, K.Source.c_str(), wile::CodegenMode::FaultTolerant, Diags);
  if (!CP) {
    std::fprintf(stderr, "%s: %s\n", K.Name.c_str(), CP.message().c_str());
    return std::nullopt;
  }
  Expected<MachineState> S0 = CP->Prog.initialState();
  if (Error Err = S0.takeError()) {
    std::fprintf(stderr, "%s: %s\n", K.Name.c_str(), Err.message().c_str());
    return std::nullopt;
  }
  TheoremConfig Probe;
  RunResult RR = vm::createEngine(CP->Prog.code())
                     ->run(*S0, CP->Prog.exitAddress(), Probe.MaxSteps,
                           Probe.Policy);
  if (RR.Status != RunStatus::Halted) {
    std::fprintf(stderr, "%s: reference run did not halt (%s)\n",
                 K.Name.c_str(), runStatusName(RR.Status));
    return std::nullopt;
  }
  return Fig10Kernel{std::move(*CP), RR.Steps,
                     std::max<uint64_t>(1, RR.Steps / 12)};
}

} // namespace talft::cli

#endif // TALFT_BENCH_CLIUTILS_H
