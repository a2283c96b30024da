//===- certbench/Trace.cpp - Spans, statistics and layer probes -----------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "CertBench.h"

#include "check/ProgramChecker.h"
#include "vm/Engine.h"
#include "vm/JitEngine.h"
#include "wile/Codegen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <unordered_map>

using namespace talft;

namespace certbench {

int Tracer::add(std::string Name, Clock::time_point Start,
                Clock::time_point End, int Parent, uint64_t Op, unsigned Tid) {
  Spans.push_back({std::move(Name), Start, End, Parent, Op, Tid});
  return (int)Spans.size() - 1;
}

std::map<std::string, double> Tracer::selfTimes(int Root) const {
  // Parents precede their children, so one forward scan finds the subtree.
  std::vector<char> In(Spans.size(), 0);
  std::vector<double> Self(Spans.size(), 0);
  for (size_t I = (size_t)Root; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if ((int)I != Root && (S.Parent < Root || !In[(size_t)S.Parent]))
      continue;
    In[I] = 1;
    Self[I] += msBetween(S.Start, S.End);
    if ((int)I != Root)
      Self[(size_t)S.Parent] -= msBetween(S.Start, S.End);
  }
  std::map<std::string, double> Out;
  for (size_t I = (size_t)Root; I != Spans.size(); ++I)
    if (In[I])
      Out[Spans[I].Name] += Self[I];
  return Out;
}

void Tracer::append(const Tracer &O) {
  int Base = (int)Spans.size();
  for (Span S : O.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(std::move(S));
  }
}

bool Tracer::writeChrome(const std::string &Path, Clock::time_point Origin,
                         const std::string &Meta, std::string &Err) const {
  std::ofstream Out(Path);
  if (!Out) {
    Err = "cannot write " + Path;
    return false;
  }
  auto Us = [&](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  };
  Out << "{\"otherData\": " << Meta << ",\n\"traceEvents\": [\n";
  char Buf[512];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                  "\"parent\": %d, \"op\": %llu}}%s\n",
                  S.Name.c_str(), S.Tid, Us(S.Start), Us(S.End) - Us(S.Start),
                  I, S.Parent, (unsigned long long)S.Op,
                  I + 1 == Spans.size() ? "" : ",");
    Out << Buf;
  }
  Out << "]}\n";
  if (!Out) {
    Err = "short write to " + Path;
    return false;
  }
  return true;
}

void RunReport::fail(std::string Why) {
  ++Failed;
  if (Failures.size() < 16)
    Failures.push_back(std::move(Why));
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

void reportSetup(const std::vector<double> &SetupS, RunReport &R) {
  std::vector<double> Scaled;
  std::string Note = "set-up (ms):";
  char Buf[32];
  for (size_t I = 0; I != SetupS.size(); ++I) {
    Scaled.push_back(SetupS[I] / R.SetupHost.factor(I));
    std::snprintf(Buf, sizeof(Buf), " %.3f", SetupS[I] * 1000.0);
    Note += Buf;
  }
  R.e2e("setup_s", median(Scaled), median(SetupS), "s");
  R.Notes.push_back(Note);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = (size_t)std::ceil(P / 100.0 * (double)V.size());
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double peakRssMb(int Pid) {
  std::string Path = Pid ? "/proc/" + std::to_string(Pid) + "/status"
                         : std::string("/proc/self/status");
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

namespace {

double threadCpuMs() {
  timespec T{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return (double)T.tv_sec * 1000.0 + (double)T.tv_nsec / 1e6;
}

std::atomic<uint64_t> CalibrationSink{0};

} // namespace

double calibrationSliceMs() {
  // CPU time, not wall time: a slice that is preempted by another process
  // must not read as a slower host.
  double T0 = threadCpuMs();
  uint64_t X = 88172645463325252ull;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  std::unordered_map<uint64_t, uint64_t> Hash;
  std::map<uint64_t, uint64_t> Tree;
  std::vector<std::string> Strings;
  for (uint64_t I = 0; I != 8000; ++I) {
    uint64_t K = Next() % 30000;
    Hash[K] += I;
    Tree[K] ^= I;
    if (I % 4 == 0)
      Strings.push_back(std::to_string(Next()));
  }
  uint64_t Acc = 0;
  for (uint64_t I = 0; I != 30000; ++I) {
    auto It = Hash.find(Next() % 30000);
    Acc += It == Hash.end() ? I : It->second;
  }
  std::sort(Strings.begin(), Strings.end());
  CalibrationSink += Acc + Tree.size() + Strings.front().size();
  return threadCpuMs() - T0;
}

void HostGaps::run() {
  // The first slice after a pass re-warms the caches the pass evicted, so
  // its time depends on the code under test; it is run and discarded.
  calibrationSliceMs();
  Starts.push_back(Slices.size());
  for (unsigned I = 0; I != SlicesPerGap; ++I)
    Slices.push_back(calibrationSliceMs());
}

double HostGaps::factor(size_t I) const {
  if (I >= Starts.size())
    return 1.0;
  size_t End = I + 2 < Starts.size() ? Starts[I + 2] : Slices.size();
  double Slice = median(std::vector<double>(
      Slices.begin() + (ptrdiff_t)Starts[I], Slices.begin() + (ptrdiff_t)End));
  return Slice / ReferenceSliceMs;
}

double HostGaps::medianSliceMs() const { return median(Slices); }

void probeLayers(const std::vector<KernelInput> &Kernels, RunReport &R) {
  // Fault-free ExecEngine::run on every kernel, vm and jit; the median of
  // several sweeps so one descheduling does not set the rate.
  struct Compiled {
    TypeContext TC;
    std::optional<wile::CompiledProgram> CP;
    bool Typable = false;
  };
  std::vector<std::unique_ptr<Compiled>> Progs;
  for (const KernelInput &KI : Kernels) {
    auto C = std::make_unique<Compiled>();
    Expected<wile::CompiledProgram> CP = compileKernel(C->TC, *KI.K);
    if (!CP)
      continue;
    C->CP.emplace(std::move(*CP));
    C->Typable = KI.K->Typable;
    Progs.push_back(std::move(C));
  }

  for (const char *Which : {"vm", "jit"}) {
    std::vector<std::unique_ptr<ExecEngine>> Engines;
    for (const auto &C : Progs) {
      if (std::string(Which) == "vm") {
        Engines.push_back(vm::createEngine(C->CP->Prog.code()));
        continue;
      }
      Engines.push_back(vm::createJitEngine(C->CP->Prog.code()));
      auto *J = dynamic_cast<const vm::JitEngine *>(Engines.back().get());
      R.JitNative = R.JitNative.value_or(true) && J && J->native();
    }
    std::vector<double> Rates;
    for (unsigned Rep = 0; Rep != 15; ++Rep) {
      uint64_t Steps = 0;
      Clock::time_point T0 = Clock::now();
      for (size_t I = 0; I != Progs.size(); ++I) {
        const Program &P = Progs[I]->CP->Prog;
        Expected<MachineState> S0 = P.initialState();
        if (!S0)
          continue;
        TheoremConfig Cfg;
        RunResult RR =
            Engines[I]->run(*S0, P.exitAddress(), Cfg.MaxSteps, Cfg.Policy);
        Steps += RR.Steps;
      }
      double Ms = msBetween(T0, Clock::now());
      Rates.push_back(Ms > 0 ? (double)Steps / (Ms * 1000.0) : 0);
    }
    R.layer(std::string("vm.ref_msteps_per_s.") + Which, median(Rates),
            "Msteps/s");
  }

  // The type checker alone on the typable kernels (certifyProgram runs it
  // first, so this is the typed share of analysis.certify_ms).
  std::vector<double> Sums;
  for (unsigned Rep = 0; Rep != 5; ++Rep) {
    double Sum = 0;
    for (const auto &C : Progs) {
      if (!C->Typable)
        continue;
      DiagnosticEngine Diags;
      Clock::time_point T0 = Clock::now();
      Expected<CheckedProgram> CPd = checkProgram(C->TC, C->CP->Prog, Diags);
      Sum += msBetween(T0, Clock::now());
      ++R.Attempted;
      if (!CPd)
        R.fail("type checker rejected a typable kernel");
    }
    Sums.push_back(Sum);
  }
  R.layer("check.typecheck_ms", median(Sums), "ms");
}

} // namespace certbench
