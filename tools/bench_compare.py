#!/usr/bin/env python3
"""Compare a campaign benchmark report against a committed baseline.

The perf-regression gate for the campaign benchmarks: given a baseline
report (bench/baselines/BENCH_*.json, refreshed by the nightly workflow)
and a freshly measured one, fail when an acceleration regressed.

The gated metric is the *speedup ratio* (accelerated vs. unaccelerated
time measured in the same process on the same machine), not absolute
seconds: ratios transfer between runners, absolute timings do not. A
report carries one or more ratio families, each with one ratio per kernel
and one for the totals. A talft-bench-v2 report (campaign_matrix) nests
its families under each row's "ratios" object; a talft-bench-v1 report
(serve_latency) is the one-family case, its rows being the ratios
themselves. Every totals ratio is held to --threshold percent (default
15); kernel ratios are held to the looser --kernel-threshold (default 35)
because a single short kernel is far noisier than the whole sweep. A
family or kernel of the baseline that the current report lacks fails, and
so does any exactness flag (tables_identical, or campaign_matrix's ok)
that is false, regardless of thresholds.

Beside each ratio the report prints both of its sides in absolute seconds
(full/accel, scalar/lanes, vm/jit or cold/warm), for the baseline and the
current report. They are not gated, but they tell a falling ratio whose
denominator got faster from one whose numerator got slower.

Exit status: 0 = no regression, 1 = regression, missing entry or
exactness failure, 2 = malformed/mismatched reports.

Usage:
  tools/bench_compare.py BASELINE CURRENT [--threshold PCT]
                         [--kernel-threshold PCT]
"""

import argparse
import json
import sys

SCHEMAS = ("talft-bench-v1", "talft-bench-v2")
TOTAL = "TOTAL"


def fail(msg):
    print(f"::error::{msg}", file=sys.stderr)


def malformed(msg):
    print(f"bench_compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        malformed(f"cannot read {path}: {e}")
    if report.get("schema") not in SCHEMAS:
        malformed(f"{path}: schema {report.get('schema')!r} is not one of "
                  f"{', '.join(SCHEMAS)}")
    return report


def families(report):
    """The report's ratios as {family: {row: ratio}}, the totals row
    named TOTAL, in report order."""
    if report["schema"] == "talft-bench-v1":
        def ratios_of(row):
            return {report.get("benchmark", "?"): row}
    else:
        def ratios_of(row):
            return row.get("ratios", {})
    rows = [(k.get("name", "?"), k) for k in report.get("kernels", [])]
    if "totals" in report:
        rows.append((TOTAL, report["totals"]))
    out = {}
    for name, row in rows:
        for family, ratio in ratios_of(row).items():
            out.setdefault(family, {})[name] = ratio
    return out


# The (numerator, denominator) seconds behind each family's ratio.
SECONDS_PAIRS = [("full", "accel"), ("scalar", "lanes"), ("vm", "jit"),
                 ("cold", "warm")]


def seconds_of(obj):
    """Both sides of a ratio in seconds, e.g. 'vm 0.73 s / jit 0.26 s',
    or '' when the ratio carries neither pair."""
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
    for key in ("schema", "benchmark"):
        if base.get(key) != cur.get(key):
            malformed(f"{key} mismatch: {base.get(key)!r} vs "
                      f"{cur.get(key)!r}")
    name = cur.get("benchmark", "?")

    bad = False

    # Exactness first: a bench run whose accelerated verdict tables are
    # not bit-identical to its own unaccelerated baseline is broken
    # outright.
    for label, row in [(name, cur)] + [(f"{name}/{k.get('name')}", k)
                                       for k in cur.get("kernels", [])]:
        for key in ("tables_identical", "ok"):
            if row.get(key) is False:
                fail(f"{label}: {key} is false")
                bad = True
    for report, which in ((base, "baseline"), (cur, "current")):
        if "totals" not in report:
            fail(f"{name}: the {which} report is missing the totals object")
            bad = True

    def check(label, b, c, pct):
        nonlocal bad
        bs, cs = b.get("speedup"), c.get("speedup")
        if bs is None or bs <= 0:
            return
        if cs is None:
            fail(f"{label}: speedup missing from the current report")
            bad = True
            return
        delta = 100.0 * (cs - bs) / bs
        marker = "ok"
        if delta < -pct:
            marker = "REGRESSED"
            fail(f"{label}: speedup {cs:.2f}x is {-delta:.1f}% below the "
                 f"baseline {bs:.2f}x (threshold {pct:.0f}%)")
            bad = True
        print(f"  {label.rsplit('/', 1)[-1]:<16} baseline {bs:6.2f}x  "
              f"current {cs:6.2f}x  ({delta:+.1f}%)  {marker}")
        bsec, csec = seconds_of(b), seconds_of(c)
        if bsec or csec:
            print(f"  {'':<16} baseline {bsec or '-'}  current {csec or '-'}")

    base_families, cur_families = families(base), families(cur)
    for family, base_rows in base_families.items():
        cur_rows = cur_families.get(family)
        if cur_rows is None:
            fail(f"{name}/{family}: ratio family missing from the current "
                 f"report")
            bad = True
            continue
        print(f"{name}/{family}: speedup vs {args.baseline}")
        for row, b in base_rows.items():
            c = cur_rows.get(row)
            if c is None:
                fail(f"{name}/{family}/{row}: missing from the current "
                     f"report")
                bad = True
                continue
            check(f"{name}/{family}/{row}", b, c,
                  args.threshold if row == TOTAL else args.kernel_threshold)
        for row in cur_rows.keys() - base_rows.keys():
            print(f"  {row:<16} (no baseline entry, skipped)")
    for family in cur_families.keys() - base_families.keys():
        print(f"{name}/{family}: no baseline entry, skipped")

    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
