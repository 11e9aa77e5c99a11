#!/usr/bin/env python3
"""Write DOT renderings of the standard geodesics and verdict triangles.

Produces one .dot file per object under --out-dir; render with
`dot -Tsvg file.dot -o file.svg` if graphviz is installed.
"""

import argparse
import pathlib

from fareytight.slopes import parse_slope
from fareytight.paths import minimal_path
from fareytight._output import emit_dot_triangle, path_text

PATHS = [("9/25", "1/2"), ("13/49", "1/3")]
TRIANGLES = ["1/7", "9/25", "13/49", "7/32"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("figures"))
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for a, b in PATHS:
        name = "path_%s_to_%s.dot" % (a.replace("/", "_"), b.replace("/", "_"))
        out = args.out_dir / name
        out.write_text("".join(path_text(minimal_path(parse_slope(a), parse_slope(b)), "dot")))
        print(out)
    for r in TRIANGLES:
        out = args.out_dir / ("triangle_%s.dot" % r.replace("/", "_"))
        out.write_text("".join(emit_dot_triangle(parse_slope(r))))
        print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
