//===- certbench/main.cpp - The certification benchmark's entry point -----===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The repository's end-to-end benchmark: wall-clock time to certify a
// program, from Wile source to a checked Theorem 4 verdict table, on
// three workloads (fig10-sweep, fig10-recover, serve-mix).
//
//   certbench --workload W --seed N --seconds S --trace 0|1
//             --oracle FILE [--tiny] [--write-oracle FILE]
//             [--trace-dir DIR]
//   certbench --gen-oracle --oracle FILE [--tiny]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes Chrome trace-event JSON to DIR). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --gen-oracle computes every expected table of every stride
// band with the structural reference interpreter and writes FILE.
//
//===----------------------------------------------------------------------===//

#include "CertBench.h"

#include "support/StringUtils.h"
#include "vm/LaneSimd.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unistd.h>

using namespace talft;
using namespace certbench;

namespace {

struct Cli {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  bool GenOracle = false;
  std::string OraclePath;
  std::string WriteOracle;
  std::string TraceDir = ".";
};

void usage() {
  std::fprintf(stderr,
               "usage: certbench --workload fig10-sweep|fig10-recover|"
               "serve-mix --seed N --seconds S --trace 0|1 --oracle FILE\n"
               "                 [--tiny] [--write-oracle FILE] "
               "[--trace-dir DIR]\n"
               "       certbench --gen-oracle --oracle FILE [--tiny]\n");
}

bool parseCli(int Argc, char **Argv, Cli &C) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--tiny") {
      C.Tiny = true;
    } else if (A == "--gen-oracle") {
      C.GenOracle = true;
    } else if (!(V = Value())) {
      std::fprintf(stderr, "certbench: %s needs a value\n", A.c_str());
      return false;
    } else if (A == "--workload") {
      C.Workload = V;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      C.Seconds = std::strtod(V, nullptr);
    } else if (A == "--trace") {
      C.Trace = std::strcmp(V, "0") != 0;
    } else if (A == "--oracle") {
      C.OraclePath = V;
    } else if (A == "--write-oracle") {
      C.WriteOracle = V;
    } else if (A == "--trace-dir") {
      C.TraceDir = V;
    } else {
      std::fprintf(stderr, "certbench: unknown argument %s\n", A.c_str());
      return false;
    }
  }
  if (C.OraclePath.empty())
    return false;
  if (C.GenOracle)
    return true;
  return (C.Workload == "fig10-sweep" || C.Workload == "fig10-recover" ||
          C.Workload == "serve-mix") &&
         C.Seconds > 0 && std::isfinite(C.Seconds);
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(CERTBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

/// What the numbers were measured on. jit.native is null when the run
/// built no jit engine (an untraced serve-mix run uses the vm engine).
std::string fingerprintJson(const RunReport &R) {
  long N = ::sysconf(_SC_NPROCESSORS_ONLN);
  return formatv("{\"nproc\": %ld, \"build_type\": \"%s\", "
                 "\"sanitizers\": %s, \"jit.native\": %s, "
                 "\"simd_lane_width\": %u}",
                 N, CERTBENCH_BUILD_TYPE, sanitized() ? "true" : "false",
                 !R.JitNative ? "null" : *R.JitNative ? "true" : "false",
                 vm::simd::laneWidth());
}

/// The shortest text that reads back as the same double: every measured
/// digit, no invented ones.
std::string number(const Metric &M) {
  if (M.Integer)
    return std::to_string((uint64_t)M.Value);
  char Buf[64];
  std::to_chars_result Res = std::to_chars(Buf, Buf + sizeof(Buf), M.Value);
  return std::string(Buf, Res.ptr);
}

std::string metricsJson(const std::map<std::string, Metric> &Ms) {
  std::string S = "{";
  for (const auto &[Name, M] : Ms) {
    if (S.size() > 1)
      S += ", ";
    S += formatv("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", Name.c_str(),
                 number(M).c_str(), M.Unit.c_str());
  }
  return S + "}";
}

int genOracle(const Cli &C) {
  Sizing Z = C.Tiny ? tinySizing() : fullSizing();
  std::vector<KernelInput> Kernels;
  std::string Err;
  Oracle Orc;
  if (!loadKernels(Z, Kernels, Err) || !Orc.load(C.OraclePath, Err)) {
    std::fprintf(stderr, "certbench: %s\n", Err.c_str());
    return 1;
  }
  Clock::time_point T0 = Clock::now();
  size_t Made = Orc.generate(Kernels, allCases(Kernels, Z),
                             std::max(1u, std::thread::hardware_concurrency()));
  if (!Orc.write(C.OraclePath, Err)) {
    std::fprintf(stderr, "certbench: %s\n", Err.c_str());
    return 1;
  }
  std::printf("oracle: %zu cases (%zu generated in %.1f s) -> %s\n",
              Orc.size(), Made, msBetween(T0, Clock::now()) / 1000.0,
              C.OraclePath.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C;
  if (!parseCli(Argc, Argv, C)) {
    usage();
    return 2;
  }
  if (C.GenOracle)
    return genOracle(C);

  RunOptions O;
  O.Seed = C.Seed;
  O.Seconds = C.Seconds;
  O.Trace = C.Trace;
  O.Z = C.Tiny ? tinySizing() : fullSizing();
  O.OraclePath = C.OraclePath;

  // Fill the oracle's gaps for this seed before anything is timed; this
  // is reported on its own, not as set-up.
  std::string Err;
  Oracle Orc;
  std::vector<KernelInput> Kernels;
  if (!Orc.load(C.OraclePath, Err) || !loadKernels(O.Z, Kernels, Err)) {
    std::fprintf(stderr, "certbench: %s\n", Err.c_str());
    return 1;
  }
  size_t Committed = Orc.size();
  Clock::time_point G0 = Clock::now();
  std::vector<CaseKey> Needed = casesFor(C.Workload, Kernels, O.Z, O.Seed);
  if (C.Workload == "fig10-sweep" && C.Trace) {
    // The traced sweep also runs one recovery pass.
    std::vector<CaseKey> More =
        casesFor("fig10-recover", Kernels, O.Z, O.Seed);
    Needed.insert(Needed.end(), More.begin(), More.end());
  }
  size_t Generated = Orc.generate(
      Kernels, Needed, std::max(1u, std::thread::hardware_concurrency()));
  double OracleS = msBetween(G0, Clock::now()) / 1000.0;
  if (!C.WriteOracle.empty() && !Orc.write(C.WriteOracle, Err)) {
    std::fprintf(stderr, "certbench: %s\n", Err.c_str());
    return 1;
  }

  RunReport R;
  Clock::time_point Origin = Clock::now();
  bool Ran = C.Workload == "serve-mix"
                 ? runServeMix(O, Orc, R, Err)
                 : runBatch(C.Workload == "fig10-sweep" ? Mode::Plain
                                                        : Mode::Recover,
                            O, Orc, R, Err);
  if (!Ran) {
    std::fprintf(stderr, "certbench: %s\n", Err.c_str());
    return 1;
  }
  if (sanitized())
    R.Invalid = "the build has sanitizers on";

  // The workloads scale each end-to-end sample by the host factor around
  // it (see HostGaps). Layer figures come from a few traced passes or
  // from whole runs, so they are scaled by the run's median slice, which
  // the traced run reports with its factor.
  double Slice = R.Host.medianSliceMs();
  double Speed = Slice > 0 ? Slice / ReferenceSliceMs : 1.0;
  for (auto &[Name, M] : R.PerLayer) {
    if (M.Unit == "s" || M.Unit == "ms" || M.Unit == "us")
      M.Value /= Speed;
    else if (M.Unit == "Msteps/s")
      M.Value *= Speed;
  }
  if (C.Trace) {
    R.layer("bench.host_factor", Speed, "x");
    R.layer("bench.calibration_slice_ms", Slice, "ms");
  }

  std::printf("certbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              C.Workload.c_str(), (unsigned long long)C.Seed, C.Seconds,
              C.Trace ? 1 : 0, C.Tiny ? " tiny" : "");
  std::string Host = fingerprintJson(R);
  std::printf("host: %s\n", Host.c_str());
  std::printf("oracle: %zu committed cases; %zu generated in %.3f s "
              "(not part of setup_s)\n",
              Committed, Generated, OracleS);
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  std::printf("host speed: %zu calibration slices around passes or rounds, "
              "median %.4f ms of CPU (reference %.1f ms), factor %.4f; times "
              "below are scaled to the reference speed\n",
              R.Host.slices(), Slice, ReferenceSliceMs, Speed);
  const std::map<std::string, Metric> &Ms = C.Trace ? R.PerLayer : R.EndToEnd;
  for (const auto &[Name, M] : Ms) {
    std::printf("  %-36s %16s %-9s", Name.c_str(), number(M).c_str(),
                M.Unit.c_str());
    if (!C.Trace)
      std::printf(" raw %s", number(R.RawEndToEnd[Name]).c_str());
    std::printf("\n");
  }
  if (C.Trace) {
    // The layer self times of the median traced pass sum to its length.
    double Sum = 0;
    for (const char *L : {"wile.compile_ms", "analysis.certify_ms",
                          "vm.engine_build_ms", "fault.json_ms",
                          "bench.other_ms"})
      Sum += R.PerLayer[L].Value;
    Sum += R.PerLayer["fault.campaign_s"].Value * 1000.0;
    if (C.Workload != "serve-mix")
      std::printf("layers: compile + certify + engine_build + campaign + "
                  "json + other = %.3f ms; pass = %.3f ms\n",
                  Sum, R.PerLayer["bench.pass_ms"].Value);
    std::string Path =
        C.TraceDir + "/certbench-" + C.Workload + "-seed" +
        std::to_string(C.Seed) + ".trace.json";
    std::string Meta = formatv(
        "{\"workload\": \"%s\", \"seed\": %llu, \"host\": %s}",
        C.Workload.c_str(), (unsigned long long)C.Seed, Host.c_str());
    if (R.Trace.writeChrome(Path, Origin, Meta, Err))
      std::printf("trace: %zu spans -> %s\n", R.Trace.spans().size(),
                  Path.c_str());
    else
      std::fprintf(stderr, "certbench: %s\n", Err.c_str());
  }
  std::printf("failed_frac: %.6f (%llu of %llu operations)\n",
              R.Attempted ? (double)R.Failed / (double)R.Attempted : 0.0,
              (unsigned long long)R.Failed, (unsigned long long)R.Attempted);
  for (const std::string &Why : R.Failures)
    std::printf("FAILED: %s\n", Why.c_str());
  if (!R.Invalid.empty())
    std::printf("INVALID: %s\n", R.Invalid.c_str());

  bool Correct = R.Failed == 0 && R.Invalid.empty() && R.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              (unsigned long long)std::max<uint64_t>(1, R.Attempted),
              (unsigned long long)R.Failed, metricsJson(Ms).c_str());
  std::fflush(stdout);
  return 0;
}
