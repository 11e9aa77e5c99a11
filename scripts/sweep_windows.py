#!/usr/bin/env python3
"""Tabulate verdict tallies across the classified coefficient windows.

For each n in the requested range this sweeps every reduced p/q with
q <= bound inside [(2n-1)/2n^2, 2/(2n+1)), and the two low-n windows
[9/25, 4/11) and [13/49, 4/15) as well.  Each row's tally from
verdict_summary is checked against the tally of classify over every
enumerated structure; a row where they differ is marked MISMATCH.
Both read the same rules (atlas._rule), so the check covers the
aggregation only: the weighting by cells and classes, not the verdicts.
"""

import argparse
from collections import Counter

from fareytight.slopes import Slope, make_slope, rationals_in
from fareytight.atlas import classify, enumerate_structures, verdict_summary


def sweep(label: str, lo: Slope, hi: Slope, bound: int) -> int:
    bad = 0
    rows = 0
    for r in rationals_in(lo, hi, bound):
        summary = verdict_summary(r)
        enumerated = Counter(classify(sid).status for sid in enumerate_structures(r))
        mark = "" if summary == enumerated else "  <- MISMATCH"
        if mark:
            bad += 1
        cells = ["%s=%d" % (status.json_key, cnt) for status, cnt in summary.items()]
        print("%-10s %-9s %s%s" % (label, r, " ".join(cells), mark))
        rows += 1
    print("%-10s %d slopes, %d mismatches" % (label, rows, bad))
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=int, default=120, help="max denominator")
    ap.add_argument("--n-min", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=8)
    args = ap.parse_args()

    bad = 0
    for n in range(args.n_min, args.n_max + 1):
        lo = make_slope(2 * n - 1, 2 * n * n)
        hi = make_slope(2, 2 * n + 1)
        bad += sweep("n=%d" % n, lo, hi, args.bound)
    bad += sweep("n=2 low", make_slope(9, 25), make_slope(4, 11), args.bound)
    bad += sweep("n=3 low", make_slope(13, 49), make_slope(4, 15), args.bound)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
