//===- certbench/CertBench.h - Certification benchmark internals ---------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the certification benchmark: the seeded input
/// plan, the independent verdict-table oracle, the span recorder and the
/// metric sink. The benchmark drives only the library's public entry
/// points (wile/, analysis/, check/, vm/, fault/, serve/) and measures
/// every layer from outside — by timing its own calls into each module
/// and by reading the counters those calls already return.
///
//===----------------------------------------------------------------------===//

#ifndef CERTBENCH_CERTBENCH_H
#define CERTBENCH_CERTBENCH_H

#include "fault/Campaign.h"
#include "wile/Codegen.h"
#include "wile/Kernels.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

namespace certbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// splitmix64: the same seed gives the same inputs on every host and
/// standard library (std::uniform_int_distribution is not portable).
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

//===----------------------------------------------------------------------===//
// Input plan
//===----------------------------------------------------------------------===//

/// The campaign flavour a case runs: the classic fail-stop sweep or the
/// checkpoint/rollback recovery sweep.
enum class Mode : uint8_t { Plain, Recover };
const char *modeName(Mode M);

/// One Figure 10 kernel as the benchmark sees it.
struct KernelInput {
  const talft::wile::Kernel *K = nullptr;
  /// Fault-free reference length (engine-independent), which the stride
  /// bands are derived from.
  uint64_t Steps = 0;
};

/// Stride bands. Each band is a few consecutive strides, so every seed
/// does nearly the same work while still choosing its own injection
/// points; the committed oracle covers every stride of every band.
struct Band {
  uint64_t Divisor = 1; ///< base stride = Steps / Divisor
  uint64_t Offset = 0;  ///< added to the base stride
  uint64_t Width = 1;   ///< strides in the band
  uint64_t stride(uint64_t Steps, uint64_t J) const {
    return std::max<uint64_t>(1, Steps / Divisor) + Offset + J;
  }
};

/// Workload sizes. The full sizes are what BENCHMARK.json promises; the
/// tiny sizes let the self-tests run every code path in seconds.
struct Sizing {
  Band Sweep;   ///< fig10-sweep, prune on
  Band Recover; ///< fig10-recover, prune on, recovery on
  Band Serve;   ///< serve-mix cold keys (split evenly between clients)
  /// Kernels used (the smallest ones first when fewer than all 15).
  size_t Kernels = 15;
  /// Serve-mix rounds per client (0 = until the deadline).
  unsigned MaxRounds = 0;
  unsigned MinPasses = 3;
};
Sizing fullSizing();
Sizing tinySizing();

/// Compiles \p K in fault-tolerant mode, for the call sites that do not
/// time the compile itself.
talft::Expected<talft::wile::CompiledProgram>
compileKernel(talft::TypeContext &TC, const talft::wile::Kernel &K);

/// Compiles every kernel and measures its reference length. This is the
/// input generation half of set-up.
bool loadKernels(const Sizing &Z, std::vector<KernelInput> &Out,
                 std::string &Err);

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

/// Verdict slots compared by the oracle: every verdict except the two
/// prune-only ones, which fold into masked and detected.
inline constexpr size_t FoldedVerdicts = 10;
using FoldedTable = std::array<uint64_t, FoldedVerdicts>;
FoldedTable foldTable(const talft::VerdictTable &T);

struct CaseKey {
  Mode M = Mode::Plain;
  std::string Kernel;
  uint64_t Stride = 1;
  bool operator<(const CaseKey &O) const {
    return std::tie(M, Kernel, Stride) < std::tie(O.M, O.Kernel, O.Stride);
  }
};

struct ExpectedCase {
  bool Ok = true;
  uint64_t ReferenceSteps = 0;
  FoldedTable Table{};
};

/// The independent correctness oracle: expected folded tables computed by
/// the structural reference interpreter with prune, lanes and convergence
/// off — none of the accelerators the timed paths exercise.
class Oracle {
public:
  /// Reads a TSV written by write(). A missing file is an empty oracle.
  bool load(const std::string &Path, std::string &Err);
  bool write(const std::string &Path, std::string &Err) const;
  const ExpectedCase *find(const CaseKey &K) const;
  /// Computes every case in \p Keys the oracle does not hold yet.
  /// Returns the number generated.
  size_t generate(const std::vector<KernelInput> &Kernels,
                  const std::vector<CaseKey> &Keys, unsigned Threads);
  /// Empty when \p R matches; otherwise why not.
  std::string check(const CaseKey &K, const talft::CampaignResult &R) const;
  size_t size() const { return Cases.size(); }

private:
  std::map<CaseKey, ExpectedCase> Cases;
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One traced layer call: name, interval, the span that caused it, and
/// the pass or submit it belongs to.
struct Span {
  std::string Name;
  Clock::time_point Start, End;
  int Parent = -1;
  uint64_t Op = 0;
  unsigned Tid = 0;
};

/// In-memory span buffer; written as Chrome trace-event JSON at exit.
class Tracer {
public:
  int add(std::string Name, Clock::time_point Start, Clock::time_point End,
          int Parent, uint64_t Op, unsigned Tid = 0);
  /// Sets the end of span \p I (a parent is added before its children).
  void close(int I, Clock::time_point End) { Spans[(size_t)I].End = End; }
  /// Self time (ms) per span name over the subtree rooted at \p Root:
  /// each span's duration minus what its children cover.
  std::map<std::string, double> selfTimes(int Root) const;
  void append(const Tracer &O);
  bool writeChrome(const std::string &Path, Clock::time_point Origin,
                   const std::string &Meta, std::string &Err) const;
  const std::vector<Span> &spans() const { return Spans; }

private:
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// Shared hosts swing in speed by ±20%, over seconds and over minutes, and
/// every metric moves with them at once. A fixed slice of work like the
/// front end's (hashing, tree inserts, string sorting), run while the
/// workload is quiescent, tracks the swings without being slowed by the
/// code under test. Reported times are scaled to the host speed at which
/// one slice takes this much CPU time.
inline constexpr double ReferenceSliceMs = 3.5;

/// CPU milliseconds of one calibration slice on the calling thread.
double calibrationSliceMs();

/// Slices measured in each gap.
inline constexpr unsigned SlicesPerGap = 3;

/// Calibration gaps: quiescent stretches around the timed intervals (the
/// passes, rounds or set-ups), gap I before interval I and gap I + 1 after
/// it, so the last interval needs one more gap.
class HostGaps {
public:
  /// Runs one gap on the calling thread: a warm-up slice, whose time is
  /// discarded, then SlicesPerGap measured slices.
  void run();
  /// Host factor of interval \p I: the median slice of the gaps on both
  /// sides of it over ReferenceSliceMs; 1 when there are none.
  double factor(size_t I) const;
  /// The median of every measured slice.
  double medianSliceMs() const;
  size_t slices() const { return Slices.size(); }

private:
  std::vector<double> Slices;
  /// Index in Slices of each gap's first slice.
  std::vector<size_t> Starts;
};

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
  bool Integer = false;
};

/// What a workload run produced.
struct RunReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Human-readable failure descriptions (capped).
  std::vector<std::string> Failures;
  /// End-to-end metrics scaled to the reference host speed, and as
  /// measured.
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> RawEndToEnd;
  std::map<std::string, Metric> PerLayer;
  /// Extra lines for the human report.
  std::vector<std::string> Notes;
  Tracer Trace;
  /// Set when the run measured a different program than the one the
  /// benchmark names (the jit's vm fallback), so its figures must not be
  /// compared with others.
  std::string Invalid;
  /// Whether the jit engines this run built emitted native code; unset
  /// when the run built none.
  std::optional<bool> JitNative;
  /// Calibration gaps around the measured passes or rounds, and around
  /// the set-ups.
  HostGaps Host, SetupHost;

  void fail(std::string Why);
  /// Records an end-to-end metric both ways.
  void e2e(const std::string &Name, double Scaled, double Raw,
           const char *Unit) {
    EndToEnd[Name] = {Scaled, Unit, false};
    RawEndToEnd[Name] = {Raw, Unit, false};
  }
  void layer(const std::string &Name, double V, const char *Unit) {
    PerLayer[Name] = {V, Unit, false};
  }
  void count(const std::string &Name, uint64_t V) {
    PerLayer[Name] = {(double)V, "count", true};
  }
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr unsigned SetupReps = 21;

/// Options shared by the workloads.
struct RunOptions {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  Sizing Z;
  /// The committed oracle file.
  std::string OraclePath;
};

/// One set-up: read the committed oracle, compile every kernel, measure
/// the reference lengths and draw the seeded strides. Fails when a case
/// has no expected table in the file or in \p Full (the gaps the oracle
/// filled before set-up, which set-up does not pay for).
bool setupInputs(const RunOptions &O, const std::string &Workload,
                 std::vector<KernelInput> &Kernels,
                 std::vector<CaseKey> &Keys, const Oracle &Full,
                 std::string &Err);


inline double ratio(double A, double B) { return B > 0 ? A / B : 0; }
double median(std::vector<double> V);
/// Records setup_s, the median set-up with each scaled by the gaps around
/// it, and a note listing every set-up as measured.
void reportSetup(const std::vector<double> &SetupS, RunReport &R);
/// Nearest-rank percentile, P in (0, 100].
double percentile(std::vector<double> V, double P);
/// VmHWM of \p Pid (0 = this process) in MiB; 0 when unreadable.
double peakRssMb(int Pid = 0);

/// Per-layer metrics every workload reports: the reference step rates of
/// the vm and jit engines and the type checker's time on the typable
/// kernels. Measured outside the timed passes.
void probeLayers(const std::vector<KernelInput> &Kernels, RunReport &R);

/// The batch workloads (fig10-sweep, fig10-recover).
bool runBatch(Mode M, const RunOptions &O, Oracle &Orc, RunReport &R,
              std::string &Err);
/// The serve-mix workload.
bool runServeMix(const RunOptions &O, Oracle &Orc, RunReport &R,
                 std::string &Err);

/// Every (kernel, stride, mode) case a workload will check for seed
/// \p Seed, so the oracle can fill gaps before timing starts.
std::vector<CaseKey> casesFor(const std::string &Workload,
                              const std::vector<KernelInput> &Kernels,
                              const Sizing &Z, uint64_t Seed);
/// Every case of every band (what the committed oracle holds).
std::vector<CaseKey> allCases(const std::vector<KernelInput> &Kernels,
                              const Sizing &Z);

} // namespace certbench

#endif // CERTBENCH_CERTBENCH_H
