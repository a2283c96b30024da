#!/usr/bin/env python3
"""Builds and runs the certification benchmark.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 certbench/run.py --gen-oracle [--tiny]

NAME is fig10-sweep, fig10-recover or serve-mix. The benchmark binary is
built from certbench/CMakeLists.txt (Release) into
$CARGO_TARGET_DIR/certbench, or .bench_build/certbench when the variable
is unset, both relative to the repository root. The build log goes to
standard error; the benchmark's report goes to standard output and ends with
one JSON line. Unless --oracle is given, the committed expected tables in
certbench/oracle.tsv are used, and traced runs write their Chrome trace
next to the binary. Run from a full checkout: the library sources in src/
are part of the build.

A run that has not ended RUN_MARGIN_S seconds after twice its --seconds is
killed together with every process it started (the server's pool workers),
and run.py exits with status 1 without printing a result.
"""

import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_MARGIN_S = 60


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "certbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("certbench: no library sources in %s; run from a full "
                 "checkout" % os.path.join(ROOT, "src"))
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "certbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("certbench: build failed: %s" % " ".join(cmd))


def run_timeout(args):
    """Seconds the binary may run, or None (oracle generation)."""
    if "--seconds" not in args or "--gen-oracle" in args:
        return None
    try:
        seconds = float(args[args.index("--seconds") + 1])
    except (IndexError, ValueError):
        return None  # the binary rejects the flag itself
    if not math.isfinite(seconds) or seconds <= 0:
        return None  # likewise
    return 2 * seconds + RUN_MARGIN_S


def main():
    args = sys.argv[1:]
    bdir = build_dir()
    build(bdir)
    defaults = ["--oracle", os.path.join(HERE, "oracle.tsv")]
    if "--gen-oracle" not in args:
        defaults += ["--trace-dir", bdir]
    # Later flags win, so an explicit --oracle overrides the default.
    cmd = [os.path.join(bdir, "certbench")] + defaults + args
    # Its own process group, so a hung run is stopped with its pool workers.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=run_timeout(args))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stdout.flush()
        sys.exit("certbench: no result after %.0f s; the run was killed" %
                 run_timeout(args))
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
