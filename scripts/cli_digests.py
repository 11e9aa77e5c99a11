#!/usr/bin/env python3
"""Print one line per CLI command: exit code, sha256 of stdout, sha256 of
stderr, then the command's arguments.

Each command runs through fareytight.cli.main in this process, from the
src directory of the tree that holds this script, so the output of two
checkouts can be compared line by line:

    python3 scripts/cli_digests.py > digests.txt
    diff digests.txt <(python3 ../other-checkout/scripts/cli_digests.py)

The commands: for every reduced p/q in (0, 1) with q <= --max-den,
`summary` (text, json), `classify` (text, json, tsv), each with and
without --strict, `enumerate p/q` (text, json, tsv) and `dot triangle
p/q`; then `sweep --interval 1/60 1 --bound 60` in tsv and json.  Then
the solid-torus commands, over the box of slopes num/den with den <= 3
and |num| <= 4, and inf: for every ordered pair a, b, `path a b` (text,
json, dot), `dot path a b`, `count a b` and `enumerate a b` (text,
json, tsv); `path` (text, json, dot) on the fans of 0 and inf from
1/40 to -1/40, -40 to 40, 0 to 40 and -1/2 to -1/40; for every slope x,
`phi x` and `cf x` (text, json); for
every slope s0 and every ordered pair of its Farey neighbours s1, s_neg1
in the box, `exceptional s0 s1 s_neg1` in text, and in json with
--paper-mode; and `exceptional 1/n 2/(2n+1) 1/(n-1) --paper-mode` for
n = 2..6, the pattern that --paper-mode changes.  Last the cable
commands, for every p in 1..5, q in -3..3 and --sign 1 and -1:
`cable-slope` (text, json) and `cable-map` in five forms (_CABLE_MAPS),
which take --power negative, 0 and positive, and --apply absent, inf and
a negative slope, in text and json.  Pairs, slopes and cables outside a
command's domain are run too: their digests cover the error text.
"""

import argparse
import contextlib
import hashlib
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fareytight.cli import main  # noqa: E402


class _Digest:
    """A text stream that keeps only the sha256 of what is written to it, as UTF-8."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)

    def flush(self):
        pass


def _box() -> dict[str, tuple[int, int]]:
    """The text and (num, den) of inf and of every reduced num/den with
    den <= 3 and |num| <= 4."""
    box = {"inf": (1, 0)}
    for den in range(1, 4):
        box.update((str(num) if den == 1 else "%d/%d" % (num, den), (num, den))
                   for num in range(-4, 5) if math.gcd(num, den) == 1)
    return box


# the options of each cable-map command after p, q and --sign
_CABLE_MAPS = [
    ["--format", "text"],
    ["--format", "json"],
    ["--power", "-2", "--apply", "inf", "--format", "json"],
    ["--power", "0", "--apply", "-1/2"],
    ["--power", "3", "--apply", "-1/2", "--format", "json"],
]


def commands(max_den: int):
    for q in range(2, max_den + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            r = "%d/%d" % (p, q)
            for fmt in ("text", "json"):
                yield ["summary", r, "--format", fmt]
                yield ["summary", r, "--format", fmt, "--strict"]
            for fmt in ("text", "json", "tsv"):
                yield ["classify", r, "--format", fmt]
                yield ["classify", r, "--format", fmt, "--strict"]
            for fmt in ("text", "json", "tsv"):
                yield ["enumerate", r, "--format", fmt]
            yield ["dot", "triangle", r]
    for fmt in ("tsv", "json"):
        yield ["sweep", "--interval", "1/60", "1", "--bound", "60", "--format", fmt]
    box = _box()
    for a in box:
        for b in box:
            for fmt in ("text", "json", "dot"):
                yield ["path", a, b, "--format", fmt]
            yield ["dot", "path", a, b]
            yield ["count", a, b]
            for fmt in ("text", "json", "tsv"):
                yield ["enumerate", a, b, "--format", fmt]
    # fans of 0 and inf beyond the box: across inf, across 0 and into the negatives
    for a, b in (("1/40", "-1/40"), ("-40", "40"), ("0", "40"), ("-1/2", "-1/40")):
        for fmt in ("text", "json", "dot"):
            yield ["path", a, b, "--format", fmt]
    for x in box:
        for fmt in ("text", "json"):
            yield ["phi", x, "--format", fmt]
            yield ["cf", x, "--format", fmt]
    for s0, (n0, d0) in box.items():
        near = [s for s, (n, d) in box.items() if abs(n0 * d - n * d0) == 1]
        for s1 in near:
            for s_neg1 in near:
                yield ["exceptional", s0, s1, s_neg1]
                yield ["exceptional", s0, s1, s_neg1, "--format", "json", "--paper-mode"]
    for n in range(2, 7):
        yield ["exceptional", "1/%d" % n, "2/%d" % (2 * n + 1), "1/%d" % (n - 1), "--paper-mode"]
    for p in range(1, 6):
        for q in range(-3, 4):
            for sign in ("1", "-1"):
                cable = [str(p), str(q), "--sign", sign]
                for fmt in ("text", "json"):
                    yield ["cable-slope", *cable, "--format", fmt]
                for options in _CABLE_MAPS:
                    yield ["cable-map", *cable, *options]


def digest_line(argv: list[str]) -> str:
    out, err = _Digest(), _Digest()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return "%d %s %s %s" % (code, out.sha.hexdigest(), err.sha.hexdigest(), " ".join(argv))


def run() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-den", type=int, default=50, help="largest denominator q (default 50)")
    args = ap.parse_args()
    for argv in commands(args.max_den):
        print(digest_line(argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
