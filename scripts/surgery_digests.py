#!/usr/bin/env python3
"""Print one line per Legendrian cable surgery over a fixed grid: the
torus, the minus counts of its structure, the cable and the count, then
the result's meridian, block vectors and minus counts, or the text of
the DomainError it raised.

Each surgery runs through fareytight.legendrian_cable_surgery in this
process, from the src directory of the tree that holds this script, so
the output of two checkouts can be compared line by line:

    python3 scripts/surgery_digests.py > surgery.txt
    diff surgery.txt <(python3 ../other-checkout/scripts/surgery_digests.py)

The grid: meridians inf, 0, 1/3 and -2; every dividing slope num/den
other than the meridian with den <= --max-den and |num| <= --max-num;
every tight structure on each torus (enumerate_tight); every cable
(p, q) with 2 <= p <= --max-p, |q| <= --max-q and gcd(p, q) = 1, and the
cables (1, 1) and (4, 2), which are not; counts 0, 1, 2, 7 and 4000.
No CLI command reaches the surgery, so this is the library's
counterpart of cli_digests.py.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fareytight import DomainError, enumerate_tight, legendrian_cable_surgery, make_slope, parse_slope  # noqa: E402

MERIDIANS = ["inf", "0", "1/3", "-2"]
COUNTS = [0, 1, 2, 7, 4000]


def tori(max_den: int, max_num: int):
    """(meridian, dividing) for every torus of the grid."""
    for r in map(parse_slope, MERIDIANS):
        for den in range(1, max_den + 1):
            for num in range(-max_num, max_num + 1):
                s = make_slope(num, den)
                if math.gcd(abs(num), den) == 1 and s != r:
                    yield r, s


def surgery_line(x, p: int, q: int, count: int) -> str:
    head = "%s %s %s (%d,%d) x%d ->" % (
        x.meridian, x.dividing, list(x.iso_class.minus_counts), p, q, count)
    try:
        y = legendrian_cable_surgery(x, p, q, count)
    except DomainError as exc:
        return "%s DomainError: %s" % (head, exc)
    return "%s %s %s %s" % (head, y.meridian, y.iso_class.path.block_vectors,
                            list(y.iso_class.minus_counts))


def run() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-den", type=int, default=4, help="largest dividing denominator (default 4)")
    ap.add_argument("--max-num", type=int, default=6, help="largest dividing |numerator| (default 6)")
    ap.add_argument("--max-p", type=int, default=4, help="largest cable p (default 4)")
    ap.add_argument("--max-q", type=int, default=6, help="largest cable |q| (default 6)")
    args = ap.parse_args()
    cables = [(p, q) for p in range(2, args.max_p + 1) for q in range(-args.max_q, args.max_q + 1)
              if math.gcd(p, q) == 1] + [(1, 1), (4, 2)]
    for r, s in tori(args.max_den, args.max_num):
        for x in enumerate_tight(r, s):
            for p, q in cables:
                for count in COUNTS:
                    print(surgery_line(x, p, q, count))
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
