"""Command line front end: single queries, batch sweeps, DOT export.

Exit codes: 0 success, 1 when the reader closed stdout before the
output ended, 2 malformed input, 3 domain error, 4 when --strict is set
and some structure falls outside the encoded classification (status
NotCoveredByPaper).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Iterator

from .slopes import DomainError, ParseError, Slope, cf_minus, make_slope, parse_slope
from .slopes import rationals_in, slope_sort_key
from .paths import blocks, minimal_path
from .tori import ShuffleClass, all_minus_counts, count_tight, phi
from .cables import cable_surgery_slope, reglue_map
from .atlas import (
    Fillability,
    MixedTorus,
    TrianglePosition,
    cell_tallies,
    exceptional_slopes,
    n_of,
    structure_cells,
    verdict_summary,
)

_DOT_COLORS = {
    "Stein": "palegreen",
    "StrongNotExact": "lightcoral",
    "StrongSteinConditional": "khaki",
    "NotCoveredByPaper": "lightgray",
}


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _slope(text: str) -> Slope:
    try:
        return parse_slope(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# a path is written this many vertices, or edge indices, at a time, so
# that no write holds a whole long geodesic
_VERTICES_PER_WRITE = 4096


def _path_text(path) -> Iterator[str]:
    yield str(path.start)
    yield from path.format_vertices(" → %s", _VERTICES_PER_WRITE)
    yield " → %s" % path.end


def _path_json(path) -> Iterator[str]:
    """The text of {"vertices": [...], "blocks": [[1], [2, 3, 4]]}, with
    one-based edge indices, in pieces."""
    yield '{"vertices":["%s"' % path.start
    yield from path.format_vertices(',"%s"', _VERTICES_PER_WRITE)
    yield ',"%s"],"blocks":[' % path.end
    e = 1
    for size in blocks(path).sizes:
        yield "[" if e == 1 else ",["
        for lo in range(e, e + size, _VERTICES_PER_WRITE):
            yield ("" if lo == e else ",") + _numbers(lo, min(lo + _VERTICES_PER_WRITE, e + size))
        yield "]"
        e += size
    yield "]}"


def _numbers(lo: int, hi: int) -> str:
    """lo, ..., hi - 1 joined by commas."""
    return ",".join(map(str, range(lo, hi)))


def emit_dot_path(path) -> Iterator[str]:
    """DOT text of the path in pieces, with no newline at the end."""
    yield 'digraph farey_path {\n  rankdir=LR;\n  node [shape=ellipse];\n  "%s" -> "' % path.start
    yield from path.format_vertices('%s";\n  "%s" -> "', _VERTICES_PER_WRITE)
    yield '%s";\n}' % path.end


def emit_dot_triangle(r: Slope) -> Iterator[str]:
    """DOT text of r's verdict triangle, one row of cells per chunk and no
    newline at the end; r is checked before the first chunk."""
    n = n_of(r)
    styles = {}  # label text and colour of a cell, per position
    for pos, found in cell_tallies(r).items():
        counts = sorted((status.value, cnt) for status, cnt in found.items())
        color = _DOT_COLORS[counts[0][0]] if len(counts) == 1 else "orange"
        styles[pos] = ("\\n".join("%s %d" % sc for sc in counts), color)
    yield 'digraph classification_triangle {\n  label="surgery coefficient %s";' % r
    yield "\n  node [shape=box, style=filled];"
    for k in range(1, n + 1):
        yield "".join(
            '\n  "k%d_l%d" [label="k=%d l=%d\\n%s", fillcolor="%s"];'
            % ((k, l, k, l) + styles[TrianglePosition.of(n, k, l)])
            for l in range(n - k + 1)
        )
    for k in range(1, n + 1):
        row = " ".join('"k%d_l%d";' % (k, l) for l in range(n - k + 1))
        yield "\n  { rank=same; %s }" % row
    yield "".join('\n  "k%d_l0" -> "k%d_l0" [style=invis];' % (k, k + 1) for k in range(1, n))
    yield "\n}"


def _cmd_phi(args) -> int:
    value = phi(args.r)
    if args.format == "json":
        print(_json({"r": str(args.r), "phi": value}))
    else:
        print(value)
    return 0


def _cmd_cf(args) -> int:
    cf = cf_minus(args.x)
    if args.format == "json":
        print(_json({"x": str(args.x), "entries": list(cf.entries)}))
    else:
        print(cf)
    return 0


_PATH_FORMATS = {"text": _path_text, "json": _path_json, "dot": emit_dot_path}


def _cmd_path(args) -> int:
    path = minimal_path(args.a, args.b)  # raises on a bad pair before any output
    sys.stdout.writelines(_PATH_FORMATS[args.format](path))
    sys.stdout.write("\n")
    return 0


def _cmd_cable_slope(args) -> int:
    slope = cable_surgery_slope(args.p, args.q, args.sign)
    if args.format == "json":
        print(_json({"p": args.p, "q": args.q, "sign": args.sign, "slope": str(slope)}))
    else:
        print(slope)
    return 0


def _cmd_cable_map(args) -> int:
    m = reglue_map(args.p, args.q, args.sign) ** args.power
    if args.format == "json":
        obj = m.to_json()
        if args.apply is not None:
            obj["apply"] = str(args.apply)
            obj["image"] = str(m.apply(args.apply))
        print(_json(obj))
    else:
        if args.apply is not None:
            print(m.apply(args.apply))
        else:
            print(m)
    return 0


def _cmd_count(args) -> int:
    value = count_tight(args.r, args.s)
    if args.format == "json":
        print(_json({"r": str(args.r), "s": str(args.s), "count": value}))
    else:
        print(value)
    return 0


# a cell with more classes than this is written in slices of this many
# rows, so that no write holds a whole cell of a large listing; smaller
# cells keep one write each
_ROWS_PER_WRITE = 512


def _write_cells(cells, head: str, rows: dict, sep: str = "", ends=None) -> None:
    """Write a listing of structure_cells one cell per write, or one slice
    of _ROWS_PER_WRITE rows per write for a larger cell.  A row is
    head % (k, l), then rows[position][i] for the i-th class, then
    ends(k, l) when given; rows are separated by sep."""
    lead = ""
    for k, l, position in cells:
        h, e, texts = head % (k, l), ends(k, l) if ends else "", rows[position]
        glue = e + sep + h
        for start in range(0, len(texts), _ROWS_PER_WRITE):
            piece = glue.join(texts[start : start + _ROWS_PER_WRITE])
            sys.stdout.write((sep if start else lead) + h + piece + e)
        lead = sep


def _p_head(path) -> str:
    """The start of the JSON text of P.to_json() that every class on the
    path shares: its path, its blocks and the unsigned first block's
    minus count."""
    obj = ShuffleClass(path, (0,) * len(path.signed_blocks.sizes)).to_json()
    return '{"path":%s,"blocks":%s,"minus":[0' % (_json(obj["path"]), _json(obj["blocks"]))


def _p_tail(counts) -> Iterator[str]:
    """The rest of P's JSON text after _p_head, for each tuple of minus
    counts, made lazily."""
    return ("".join([",%d" % c for c in cs]) + "]}" for cs in counts)


def _reciprocal_tails(n: int):
    """ends(k, l) for the text of `enumerate r`: the edges 1/n -> ... -> 1/k
    that full_path appends to P, with l minus signs at the clockwise end,
    then the newline."""
    edges = [" →+ %s" % make_slope(1, j) for j in range(n - 1, 0, -1)]
    plus = "".join(edges)
    minus = plus.replace("+", "-")
    # plus[:cut[j]] holds the edges into 1/(n-1), ..., 1/j
    cut = [0] * (n + 1)
    for j, edge in zip(range(n - 1, 0, -1), edges):
        cut[j] = cut[j + 1] + len(edge)
    return lambda k, l: plus[: cut[k + l]] + minus[cut[k + l] : cut[k]] + "\n"


def _write_listing(fmt: str, r: Slope, classes, cells, rows: dict, columns: str, text_head: str,
                   ends=None) -> None:
    """Write the listing of `classify r` or `enumerate r` through
    _write_cells: a JSON array, whose row head holds the text that P's
    JSON shares on every class, TSV under a header ending in columns, or
    text rows headed text_head."""
    if fmt == "json":
        sys.stdout.write("[")
        head = '{"r":%s,"k":%%d,"l":%%d,"P":%s' % (_json(str(r)), _p_head(classes[0].path))
        _write_cells(cells, head, rows, ",")
        sys.stdout.write("]\n")
    elif fmt == "tsv":
        sys.stdout.write("r\tk\tl\t%s\n" % columns)
        _write_cells(cells, "%s\t%%d\t%%d" % r, rows)
    else:
        _write_cells(cells, text_head, rows, ends=ends)


def _cmd_enumerate(args) -> int:
    if args.s is None:
        classes, verdicts, cells = structure_cells(args.r)  # raises on a bad r before any output
        if args.format == "json":
            texts = [t + "}" for t in _p_tail(P.minus_counts for P in classes)]
        elif args.format == "tsv":
            texts = ["\t%s\n" % P for P in classes]
        else:
            texts = [str(P) for P in classes]
        rows = dict.fromkeys(verdicts, texts)  # the same texts in every cell
        ends = _reciprocal_tails(n_of(args.r)) if args.format == "text" else None
        _write_listing(args.format, args.r, classes, cells, rows, "P", "k=%d l=%d ", ends)
    else:
        path = minimal_path(args.r, args.s)  # raises on a bad pair before any output
        counts = all_minus_counts(path)  # one class at least
        if args.format == "json":
            head, tails = _p_head(path), _p_tail(counts)
            sys.stdout.write("[" + head + next(tails))
            sys.stdout.writelines("," + head + t for t in tails)
            sys.stdout.write("]\n")
        elif args.format == "tsv":
            print("r\ts\tminus\tP")
            for c in counts:
                minus = ",".join(str(cnt) for cnt in c)
                print("%s\t%s\t%s\t%s" % (args.r, args.s, minus, ShuffleClass(path, c)))
        else:
            for c in counts:
                print(ShuffleClass(path, c))
    return 0


def _verdict_text(fmt: str, position, verdict) -> str:
    """The part of a classify row after P: position, status, cite, note."""
    tag, status, cite, note = position.tag, verdict.status.value, verdict.cite, verdict.note
    if fmt == "json":
        text = ',"position":%s,"status":%s,"cite":%s' % (_json(tag), _json(status), _json(cite))
        return text + (',"note":%s}' % _json(note) if note is not None else "}")
    if fmt == "tsv":
        return "\t%s\t%s\t%s\t%s\n" % (tag, status, cite or "", note or "")
    return " position=%s status=%s%s\n" % (tag, status, " cite=%s" % cite if cite else "")


def _cmd_classify(args) -> int:
    classes, verdicts, cells = structure_cells(args.r)  # raises on a bad r before any output
    fmt = args.format
    tails = list(_p_tail(P.minus_counts for P in classes)) if fmt == "json" else [""] * len(classes)
    rows = {}
    for position, found in verdicts.items():
        # a verdict reads only P's features: one text per value
        texts = {f: _verdict_text(fmt, position, verdict) for f, verdict in found.items()}
        rows[position] = [tail + texts[P.features] for tail, P in zip(tails, classes)]
    del tails  # the rows hold them
    _write_listing(fmt, args.r, classes, cells, rows, "position\tstatus\tcite\tnote", "k=%d l=%d")
    statuses = {verdict.status for found in verdicts.values() for verdict in found.values()}
    if args.strict and Fillability.NOT_COVERED in statuses:
        return 4
    return 0


def _summary_obj(r: Slope) -> dict:
    counts = verdict_summary(r)
    obj = {"total": sum(counts.values())}
    for status, cnt in counts.items():
        obj[status.json_key] = cnt
    return obj


def _cmd_summary(args) -> int:
    obj = _summary_obj(args.r)
    if args.format == "json":
        print(_json(obj))
    else:
        for key, value in obj.items():
            print("%s %d" % (key, value))
    if args.strict and obj.get(Fillability.NOT_COVERED.json_key):
        return 4
    return 0


_SWEEP_COLUMNS = [status.json_key for status in Fillability]


def _cmd_sweep(args) -> int:
    a, b = args.interval
    rows = [(r, _summary_obj(r)) for r in rationals_in(a, b, args.bound)]
    if args.format == "json":
        print(_json([{"r": str(r), **obj} for r, obj in rows]))
    else:
        print("r\ttotal\t" + "\t".join(_SWEEP_COLUMNS))
        for r, obj in rows:
            cells = [str(r), str(obj["total"])] + [str(obj.get(c, 0)) for c in _SWEEP_COLUMNS]
            print("\t".join(cells))
    if args.strict and any(obj.get(Fillability.NOT_COVERED.json_key) for _, obj in rows):
        return 4
    return 0


def _cmd_exceptional(args) -> int:
    torus = MixedTorus(args.s0, args.s1, args.s_neg1)
    found = sorted(exceptional_slopes(torus, args.paper_mode), key=slope_sort_key)
    if args.format == "json":
        print(
            _json(
                {
                    "s0": str(args.s0),
                    "s1": str(args.s1),
                    "s_neg1": str(args.s_neg1),
                    "paper_mode": args.paper_mode,
                    "exceptional": [str(s) for s in found],
                }
            )
        )
    else:
        print(" ".join(str(s) for s in found))
    return 0


def _cmd_dot(args) -> int:
    if args.mode == "path":
        if len(args.slopes) != 2:
            print("error: dot path expects two slopes", file=sys.stderr)
            return 2
        sys.stdout.writelines(emit_dot_path(minimal_path(parse_slope(args.slopes[0]),
                                                         parse_slope(args.slopes[1]))))
        sys.stdout.write("\n")
    else:
        if len(args.slopes) != 1:
            print("error: dot triangle expects one slope", file=sys.stderr)
            return 2
        sys.stdout.writelines(emit_dot_triangle(parse_slope(args.slopes[0])))
        sys.stdout.write("\n")
    return 0


def _add_format(sub, choices, default="text"):
    sub.add_argument("--format", choices=choices, default=default)


@cache  # built on the first call, then shared by every later main()
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fareytight",
        description="Tight contact structures on trefoil surgeries, exactly.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("phi", help="solid-torus count phi(r) for r in (0,1)")
    p.add_argument("r", type=_slope)
    _add_format(p, ["text", "json"])
    p.set_defaults(func=_cmd_phi)

    p = subs.add_parser("cf", help="minus continued fraction of a rational > 1")
    p.add_argument("x", type=_slope)
    _add_format(p, ["text", "json"])
    p.set_defaults(func=_cmd_cf)

    p = subs.add_parser("path", help="minimal clockwise Farey path")
    p.add_argument("a", type=_slope)
    p.add_argument("b", type=_slope)
    _add_format(p, ["text", "json", "dot"])
    p.set_defaults(func=_cmd_path)

    p = subs.add_parser("cable-slope", help="surgery coefficient (pq+sign)/p^2")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--sign", type=int, choices=[1, -1], default=-1)
    _add_format(p, ["text", "json"])
    p.set_defaults(func=_cmd_cable_slope)

    p = subs.add_parser("cable-map", help="re-gluing matrix of a cable surgery")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--sign", type=int, choices=[1, -1], default=-1)
    p.add_argument("--power", type=int, default=1, help="exponent k of M**k, any integer")
    p.add_argument("--apply", type=_slope, default=None, help="slope to map")
    _add_format(p, ["text", "json"])
    p.set_defaults(func=_cmd_cable_map)

    p = subs.add_parser("count", help="number of tight structures on the solid torus")
    p.add_argument("r", type=_slope)
    p.add_argument("s", type=_slope)
    _add_format(p, ["text", "json"])
    p.set_defaults(func=_cmd_count)

    p = subs.add_parser(
        "enumerate",
        help="structures on the r-surgery, or on the solid torus when s is given",
    )
    p.add_argument("r", type=_slope)
    p.add_argument("s", type=_slope, nargs="?", default=None)
    _add_format(p, ["text", "json", "tsv"])
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("classify", help="verdict for every structure on the r-surgery")
    p.add_argument("r", type=_slope)
    p.add_argument("--strict", action="store_true")
    _add_format(p, ["text", "json", "tsv"])
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("summary", help="verdict tallies for the r-surgery")
    p.add_argument("r", type=_slope)
    p.add_argument("--strict", action="store_true")
    _add_format(p, ["text", "json"])
    p.set_defaults(func=_cmd_summary)

    p = subs.add_parser("sweep", help="verdict tallies over an interval of coefficients")
    p.add_argument("--interval", type=_slope, nargs=2, metavar=("A", "B"), required=True)
    p.add_argument("--bound", type=int, default=50, help="max denominator")
    p.add_argument("--strict", action="store_true")
    _add_format(p, ["tsv", "json"], default="tsv")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("exceptional", help="exceptional slopes of a mixed torus")
    p.add_argument("s0", type=_slope)
    p.add_argument("s1", type=_slope)
    p.add_argument("s_neg1", type=_slope)
    p.add_argument("--paper-mode", action="store_true")
    _add_format(p, ["text", "json"])
    p.set_defaults(func=_cmd_exceptional)

    p = subs.add_parser("dot", help="DOT export: 'dot path A B' or 'dot triangle R'")
    p.add_argument("mode", choices=["path", "triangle"])
    p.add_argument("slopes", nargs="+")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout early (`| head`).  Point stdout at
        # devnull so that the flush at exit cannot fail again, as the
        # signal module's documentation recommends.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
