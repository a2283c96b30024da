//===- bench/CoveragePrograms.h - The non-kernel fault_coverage programs --===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The programs fault_coverage sweeps before the Figure 10 kernels: two
// hand-written TAL programs and one small compiled Wile kernel, each
// with its default injection stride. Shared with the test suite, which
// holds every accelerator's fold on exactly these programs
// (convergence_test's CoverageProgramsFoldInEveryCell).
//
//===----------------------------------------------------------------------===//

#ifndef TALFT_BENCH_COVERAGEPROGRAMS_H
#define TALFT_BENCH_COVERAGEPROGRAMS_H

#include <cstdint>

namespace talft::coverage {

// The Section 2.2 paired-store example.
inline constexpr const char *PairedStore = R"(
entry main
exit done
data { 256: int = 0 }
block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  mov r3, B 5
  mov r4, B 256
  stB r4, r3
  mov r5, G @done
  mov r6, B @done
  jmpG r5
  jmpB r6
}
block done {
  pre { forall m: mem; queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
)";

// A loop with branches, stores and forwarding.
inline constexpr const char *CountdownLoop = R"(
entry main
exit done
data { 500: int = 0 }
block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 4
  mov r2, B 4
  mov r10, G @loop
  mov r11, B @loop
  jmpG r10
  jmpB r11
}
block loop {
  pre { forall n: int, m: mem;
        r1: (G, int, n); r2: (B, int, n);
        queue []; mem m }
  mov r20, G @done
  mov r21, B @done
  bzG r1, r20
  bzB r2, r21
  mov r3, G 500
  stG r3, r1
  mov r4, B 500
  stB r4, r2
  sub r1, r1, G 1
  sub r2, r2, B 1
  mov r10, G @loop
  mov r11, B @loop
  jmpG r10
  jmpB r11
}
block done {
  pre { forall m: mem; queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
)";

// A compiled kernel: stride the injection points to keep the sweep
// tractable (every 7th reference state; all sites and values at each).
inline constexpr const char *SumSquares = R"(
var n = 3; var acc = 0;
while (n != 0) { acc = acc + n * n; n = n - 1; }
output(acc);
)";

struct SweptProgram {
  const char *Name;
  const char *Source;
  /// Wile source (compiled fault-tolerant) rather than TAL.
  bool Wile;
  uint64_t Stride;
};

inline constexpr SweptProgram Programs[] = {
    {"paired-store", PairedStore, false, 1},
    {"countdown-loop", CountdownLoop, false, 1},
    {"wile-sum-squares", SumSquares, true, 7},
};

} // namespace talft::coverage

#endif // TALFT_BENCH_COVERAGEPROGRAMS_H
