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
p/q`; then `sweep --interval 1/60 1 --bound 60` in tsv and json.
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
