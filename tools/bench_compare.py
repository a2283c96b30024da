#!/usr/bin/env python3
"""Compare a talft-bench-v1 report against a committed baseline.

The perf-regression gate for the campaign benchmarks: given a baseline
report (bench/baselines/BENCH_*.json, refreshed by the nightly workflow)
and a freshly measured one, fail when the acceleration regressed.

The gated metric is the *speedup ratio* (accelerated vs. unaccelerated
time measured in the same process on the same machine), not absolute
seconds: ratios transfer between runners, absolute timings do not. The
totals ratio is held to --threshold percent (default 15); individual
kernels are held to the looser --kernel-threshold (default 35) because a
single short kernel is far noisier than the whole sweep. Exactness flags
(tables_identical) are hard failures regardless of thresholds.

Beside each ratio the report prints both of its sides in absolute seconds
(full/accel, scalar/lanes, vm/jit or cold/warm), for the baseline and the
current report. They are not gated, but they tell a falling ratio whose
denominator got faster from one whose numerator got slower.

Exit status: 0 = no regression, 1 = regression or exactness failure,
2 = malformed/mismatched reports.

Usage:
  tools/bench_compare.py BASELINE CURRENT [--threshold PCT]
                         [--kernel-threshold PCT]
"""

import argparse
import json
import sys

SCHEMA = "talft-bench-v1"


def fail(msg):
    print(f"::error::{msg}", file=sys.stderr)


def load(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if report.get("schema") != SCHEMA:
        print(f"bench_compare: {path}: schema {report.get('schema')!r} "
              f"is not {SCHEMA!r}", file=sys.stderr)
        sys.exit(2)
    return report


def speedup_of(obj):
    """The self-normalizing ratio a report row carries."""
    return obj.get("speedup")


# The (numerator, denominator) seconds behind each benchmark's ratio.
SECONDS_PAIRS = [("full", "accel"), ("scalar", "lanes"), ("vm", "jit"),
                 ("cold", "warm")]


def seconds_of(obj):
    """Both sides of a row's ratio in seconds, e.g. 'vm 0.73 s / jit
    0.26 s', or '' when the row carries neither pair."""
    for num, den in SECONDS_PAIRS:
        a, b = obj.get(f"{num}_seconds"), obj.get(f"{den}_seconds")
        if a is not None and b is not None:
            return f"{num} {a:.4g} s / {den} {b:.4g} s"
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed baseline report")
    ap.add_argument("current", help="freshly measured report")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="max totals-speedup regression, percent "
                         "(default 15)")
    ap.add_argument("--kernel-threshold", type=float, default=35.0,
                    help="max per-kernel speedup regression, percent "
                         "(default 35)")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    if base.get("benchmark") != cur.get("benchmark"):
        print(f"bench_compare: benchmark mismatch: "
              f"{base.get('benchmark')!r} vs {cur.get('benchmark')!r}",
              file=sys.stderr)
        sys.exit(2)
    name = cur.get("benchmark", "?")

    bad = False

    # Exactness first: a bench run whose accelerated verdict tables are
    # not bit-identical to its own scalar baseline is broken outright.
    if cur.get("tables_identical") is False:
        fail(f"{name}: verdict tables are not bit-identical")
        bad = True
    for k in cur.get("kernels", []):
        if k.get("tables_identical") is False:
            fail(f"{name}/{k.get('name')}: verdict tables are not "
                 f"bit-identical")
            bad = True

    def check(label, b, c, pct):
        nonlocal bad
        bs, cs = speedup_of(b), speedup_of(c)
        if bs is None or cs is None or bs <= 0:
            return
        delta = 100.0 * (cs - bs) / bs
        marker = "ok"
        if delta < -pct:
            marker = "REGRESSED"
            fail(f"{name}/{label}: speedup {cs:.2f}x is {-delta:.1f}% "
                 f"below the baseline {bs:.2f}x (threshold {pct:.0f}%)")
            bad = True
        print(f"  {label:<16} baseline {bs:6.2f}x  current {cs:6.2f}x  "
              f"({delta:+.1f}%)  {marker}")
        bsec, csec = seconds_of(b), seconds_of(c)
        if bsec or csec:
            print(f"  {'':<16} baseline {bsec or '-'}  current {csec or '-'}")

    print(f"{name}: speedup vs {args.baseline}")
    base_kernels = {k.get("name"): k for k in base.get("kernels", [])}
    for k in cur.get("kernels", []):
        bk = base_kernels.get(k.get("name"))
        if bk is None:
            print(f"  {k.get('name'):<16} (no baseline entry, skipped)")
            continue
        check(k.get("name", "?"), bk, k, args.kernel_threshold)
    if "totals" in base and "totals" in cur:
        check("TOTAL", base["totals"], cur["totals"], args.threshold)
    else:
        fail(f"{name}: report is missing the totals object")
        bad = True

    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
