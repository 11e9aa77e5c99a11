"""Command line front end: single queries, batch sweeps, DOT export.

Every command yields its output text in pieces, and main, the only code
that writes, writes each piece as it comes.  main sets the exit code: 0
success, 1 when the reader closed stdout before the output ended, 2
malformed input, 3 domain error, 4 when --strict is set and some
structure falls outside the encoded classification (status
NotCoveredByPaper), which a command returns.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterator
from functools import cache, lru_cache
from operator import add

from .slopes import DomainError, ParseError, Slope, cf_minus, make_slope, parse_slope
from .slopes import _farey_walk, slope_sort_key
from .paths import blocks, minimal_path
from .tori import ShuffleClass, count_tight, decorated_texts, feature_column, minus_texts, phi
from .tori import _signed_run
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


def _line(args, obj, text: str) -> str:
    """The output of a scalar command: obj as JSON under --format json,
    else text, then a newline."""
    return (_json(obj) if args.format == "json" else text) + "\n"


def _slope(text: str) -> Slope:
    try:
        return parse_slope(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# a path is written this many vertices, or edge indices, at a time, or
# fewer where vertices are long: no more vertices than _BYTES_PER_WRITE
# holds, but one at least.  No write holds a whole long geodesic.  No
# write of a path, a listing or a DOT triangle keeps more than
# _BYTES_PER_WRITE bytes in its string, besides one vertex, row or cell:
# half of glibc's default mmap threshold (128 KiB), so that the string
# and its UTF-8 copy are not mapped afresh for every write
_VERTICES_PER_WRITE = 4096
_BYTES_PER_WRITE = 1 << 16


def _path_text(path) -> Iterator[str]:
    yield str(path.start)
    # the text holds the arrow →, two bytes a character (_size)
    yield from path.format_vertices(" → %s", _VERTICES_PER_WRITE, _BYTES_PER_WRITE // 2)
    yield " → %s" % path.end


def _path_json(path) -> Iterator[str]:
    """The text of {"vertices": [...], "blocks": [[1], [2, 3, 4]]}, with
    one-based edge indices, in pieces."""
    yield '{"vertices":["%s"' % path.start
    yield from path.format_vertices(',"%s"', _VERTICES_PER_WRITE, _BYTES_PER_WRITE)
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
    yield from path.format_vertices('%s";\n  "%s" -> "', _VERTICES_PER_WRITE, _BYTES_PER_WRITE)
    yield '%s";\n}' % path.end


def emit_dot_triangle(r: Slope) -> Iterator[str]:
    """DOT text of r's verdict triangle, each row of cells in pieces
    (_cuts), and no newline at the end; r is checked before the first
    piece."""
    n = n_of(r)
    styles = {}  # label text and colour of a cell, per position
    for pos, found in cell_tallies(r).items():
        counts = sorted((status.value, cnt) for status, cnt in found.items())
        color = _DOT_COLORS[counts[0][0]] if len(counts) == 1 else "orange"
        styles[pos] = ("\\n".join("%s %d" % sc for sc in counts), color)
    node = '\n  "k%d_l%d" [label="k=%d l=%d\\n%s", fillcolor="%s"];'
    widest = node % ((n, n, n, n) + max(styles.values(), key=lambda style: len("".join(style))))
    yield 'digraph classification_triangle {\n  label="surgery coefficient %s";' % r
    yield "\n  node [shape=box, style=filled];"
    for k in range(1, n + 1):
        for lo, hi in _cuts(n - k + 1, widest):
            yield "".join(node % ((k, l, k, l) + styles[TrianglePosition.of(n, k, l)])
                          for l in range(lo, hi))
    rank = ' "k%d_l%d";'
    for k in range(1, n + 1):
        yield "\n  { rank=same;"
        for lo, hi in _cuts(n - k + 1, rank % (n, n)):
            yield "".join(rank % (k, l) for l in range(lo, hi))
        yield " }"
    edge = '\n  "k%d_l0" -> "k%d_l0" [style=invis];'
    for lo, hi in _cuts(n - 1, edge % (n, n)):
        yield "".join(edge % (k, k + 1) for k in range(lo + 1, hi + 1))
    yield "\n}"


def _cuts(count: int, widest: str) -> Iterator[tuple[int, int]]:
    """(lo, hi) for the pieces of a row of count cells: as many cells as
    _BYTES_PER_WRITE holds at the _size of widest, a cell's longest
    text, but one at least."""
    step = max(1, _BYTES_PER_WRITE // _size(widest))
    return ((lo, min(lo + step, count)) for lo in range(0, count, step))


def _cmd_phi(args) -> Iterator[str]:
    value = phi(args.r)
    yield _line(args, {"r": str(args.r), "phi": value}, str(value))


def _cmd_cf(args) -> Iterator[str]:
    cf = cf_minus(args.x)
    yield _line(args, {"x": str(args.x), "entries": list(cf.entries)}, str(cf))


_PATH_FORMATS = {"text": _path_text, "json": _path_json, "dot": emit_dot_path}


def _cmd_path(args) -> Iterator[str]:
    path = minimal_path(args.a, args.b)  # raises on a bad pair before any output
    yield from _PATH_FORMATS[args.format](path)
    yield "\n"


def _cmd_cable_slope(args) -> Iterator[str]:
    slope = str(cable_surgery_slope(args.p, args.q, args.sign))
    yield _line(args, {"p": args.p, "q": args.q, "sign": args.sign, "slope": slope}, slope)


def _cmd_cable_map(args) -> Iterator[str]:
    m = reglue_map(args.p, args.q, args.sign) ** args.power
    obj, text = m.to_json(), str(m)
    if args.apply is not None:
        text = str(m.apply(args.apply))
        obj.update(apply=str(args.apply), image=text)
    yield _line(args, obj, text)


def _cmd_count(args) -> Iterator[str]:
    value = count_tight(args.r, args.s)
    yield _line(args, {"r": str(args.r), "s": str(args.s), "count": value}, str(value))


# a listing is written this many rows at a time, gathered across cells,
# or fewer where rows are long: as many as _BYTES_PER_WRITE holds at the
# size of the longest row, but one at least.  No write holds a whole
# cell of a large listing, and a listing of many small cells makes one
# write per this many rows, not one per cell
_ROWS_PER_WRITE = 512


def _size(text: str) -> int:
    """The bytes that CPython keeps text in, but for the header: one per
    character of an ASCII text, two per character of a text that holds
    the arrow →.  Its UTF-8 copy, three bytes to an arrow, is no larger
    than one and a half times that."""
    return len(text) * (1 if text.isascii() else 2)


def _rows_per_write(row: str) -> int:
    """Rows to a write of a listing whose longest row is row: as many as
    _BYTES_PER_WRITE holds at its _size, at most _ROWS_PER_WRITE, one at
    least."""
    return min(_ROWS_PER_WRITE, max(1, _BYTES_PER_WRITE // _size(row)))


def _write_rows(runs, pre, post: str, count: int, texts, longest: str, sep: str = "",
                ends=None) -> Iterator[str]:
    """Yield the rows of a listing, _ROWS_PER_WRITE rows to a write, or
    fewer: as many as _BYTES_PER_WRITE holds at the _size of the longest
    row, so that a write of more than one row holds no more.  runs
    yields (k, lo, hi, key) for the cells (k, l), lo <= l < hi, that
    share key; the first run is the cells (1, l), l < n, of a triangle,
    or the one cell (0, 0, 1, key) of a listing without k and l.  A cell
    holds count rows, texts(key, a, b) gives rows a..b-1 as _cell
    groups, and no row's text is longer than longest, which is ASCII
    exactly when they are.  A row of cell (k, l) is pre % k, l (neither
    when pre is None), post, its text, then ends(k, l) if given, no
    longer than ends(1, l); sep separates rows.  No text is made per
    row: a cell is one _cell, of rows kept once per key where a write
    holds the cell whole, and sliced from them where a write cuts it; a
    run of one-row cells with no ends is one join over the numbers l."""
    pieces, per_write, whole, labels = [], 0, {}, []  # labels[l] is label(l), made once
    # "".format(l) is empty, as l is written only with k; the first row drops sep
    label, skip = (str if pre is not None else "".format), len(sep)
    for k, lo, hi, key in runs:
        start = sep + (pre % k if pre is not None else "")
        if not per_write:
            # a row as long as the longest: no k or l is longer than n = hi
            row = sep + (pre % hi if pre is not None else "") + label(hi - 1) + post + longest
            row += ends(k, lo) if ends else ""
            per_write = room = _rows_per_write(row)
        full = whole.get(key)
        if full is None and count <= per_write:
            full = whole[key] = [p + t for p, ts in texts(key, 0, count) for t in ts]
        l, a = lo, 0  # the next row is row a of cell (k, l)
        while l < hi:
            if count == 1 and ends is None:
                stop, row = min(hi, l + room), post + full[0]
                labels += map(label, range(len(labels), stop))
                pieces += (start, (row + start).join(labels[l:stop]), row)
                l, room = stop, room - (stop - l)
            else:
                h, e, b = start + label(l) + post, ends(k, l) if ends else "", min(count, a + room)
                pieces += _cell(h, e, [("", full[a:b])] if full else texts(key, a, b))
                room -= b - a
                l, a = (l + 1, 0) if b == count else (l, b)
            if skip:
                pieces[0], skip = pieces[0][skip:], 0
            if not room:
                yield "".join(pieces)
                pieces.clear()
                room = per_write
    yield "".join(pieces)


def _tsv_rows(head: str, minus, texts) -> Iterator[str]:
    """Yield the rows head + m + t of `enumerate r s --format tsv`, m
    and t the texts of a class in minus and in texts, as many rows to a
    write as _write_rows puts there.  The two ClassTexts have as many
    texts for each signed block, so they split alike and each pair of
    their groups covers the same classes: a write is one join over the
    heads and texts of its groups, taken in turn, and no text is made
    per row."""
    per_write, count = _rows_per_write(head + minus.longest + texts.longest), len(texts)
    for a in range(0, count, per_write):
        pieces, b = [], min(a + per_write, count)
        for (mh, ms), (th, ts) in zip(minus.groups(a, b), texts.groups(a, b), strict=True):
            rows = [head + mh, None, th, None] * len(ms)
            rows[1::4], rows[3::4] = ms, ts
            pieces += rows
        yield "".join(pieces)


def _cell(h: str, e: str, groups) -> list[str]:
    """h + (e + h).join(rows) + e in pieces, one join per prefix of the (prefix, texts) groups."""
    pieces = [h]
    for p, ts in groups:
        pieces += (p, (e + h + p).join(ts), e, h)
    pieces.pop()
    return pieces


def _p_head(path) -> str:
    """The start of the JSON text of P.to_json() that every class on the
    path shares: its path, its blocks and the unsigned first block's
    minus count."""
    obj = ShuffleClass(path, (0,) * len(path.signed_blocks.sizes)).to_json()
    return '{"path":%s,"blocks":%s,"minus":[0' % (_json(obj["path"]), _json(obj["blocks"]))


def _reciprocal_tails(n: int):
    """ends(k, l) for the text of `enumerate r`: the edges 1/n -> ... -> 1/k
    that full_path appends to P, with l minus signs at the clockwise end,
    then the newline."""
    # the edges into 1/(n-1), ..., 1/1: the first n - j end at 1/j
    plus, minus, cuts = _signed_run([str(make_slope(1, j)) for j in range(n - 1, 0, -1)])
    return lambda k, l: plus[: cuts[n - k - l]] + minus[cuts[n - k - l] : cuts[n - k]] + "\n"


def _write_listing(fmt: str, r: Slope, path, runs, texts, count: int, longest: str,
                   columns: str, text_post: str, ends=None) -> Iterator[str]:
    """Yield the listing of `classify r` or `enumerate r` through
    _write_rows, the rows of each cell made of texts(position, a, b),
    none longer than longest: a JSON array, whose row head holds the
    text that P's JSON shares on every class, TSV under a header ending
    in columns, or text rows headed "k=K l=L" and text_post."""
    if fmt == "json":
        yield "["
        pre = '{"r":%s,"k":%%d,"l":' % _json(str(r))
        yield from _write_rows(runs, pre, ',"P":' + _p_head(path), count, texts, longest, ",")
        yield "]\n"
    elif fmt == "tsv":
        yield "r\tk\tl\t%s\n" % columns
        yield from _write_rows(runs, "%s\t%%d\t" % r, "\t", count, texts, longest)
    else:
        yield from _write_rows(runs, "k=%d l=", text_post, count, texts, longest, ends=ends)


def _cmd_enumerate(args) -> Iterator[str]:
    texts = lambda _, a, b: rows.groups(a, b)  # of the rows made below
    if args.s is None:
        path, _, runs = structure_cells(args.r)  # raises on a bad r before any output
        if args.format == "json":
            rows = minus_texts(path, "]}}")
        else:
            rows = decorated_texts(path, "\n" if args.format == "tsv" else "")
        ends = _reciprocal_tails(n_of(args.r)) if args.format == "text" else None
        yield from _write_listing(args.format, args.r, path, runs, texts, len(rows), rows.longest,
                                  "P", " ", ends)
        return
    path = minimal_path(args.r, args.s)  # raises on a bad pair before any output
    sep = post = ""
    if args.format == "json":
        rows, sep, post = minus_texts(path, "]}"), ",", _p_head(path)
        longest = rows.longest
        yield "["
    elif args.format == "tsv":
        yield "r\ts\tminus\tP\n"
        head = "%s\t%s\t" % (args.r, args.s)
        yield from _tsv_rows(head, minus_texts(path, "\t", ""), decorated_texts(path, "\n"))
        return
    else:
        rows = decorated_texts(path, "\n")
        longest = rows.longest
    yield from _write_rows([(0, 0, 1, None)], None, post, len(rows), texts, longest, sep)  # one cell
    if args.format == "json":
        yield "]\n"


@lru_cache(maxsize=256)  # about 15 to a listing; a note names n, so the cache is bounded
def _verdict_text(fmt: str, position, verdict) -> str:
    """The part of a classify row after P (after k and l in TSV, which
    has no P): position, status, cite, note."""
    tag, status, cite, note = position.tag, verdict.status.value, verdict.cite, verdict.note
    if fmt == "json":
        text = ',"position":%s,"status":%s,"cite":%s' % (_json(tag), _json(status), _json(cite))
        return text + (',"note":%s}' % _json(note) if note is not None else "}")
    if fmt == "tsv":
        return "%s\t%s\t%s\t%s\n" % (tag, status, cite or "", note or "")
    return " position=%s status=%s%s\n" % (tag, status, " cite=%s" % cite if cite else "")


def _cmd_classify(args) -> Iterator[str]:
    path, verdicts, runs = structure_cells(args.r)  # raises on a bad r before any output
    fmt, column = args.format, feature_column(path)
    # a verdict reads only P's features: one text per position and value
    found = {position: {f: _verdict_text(fmt, position, verdict) for f, (verdict, _) in vs.items()}
             for position, vs in verdicts.items()}
    # a JSON row glues its verdict text onto a text of ClassTexts.last, one head at a time
    minus = minus_texts(path, "]}") if fmt == "json" else None
    longest = max((text for vs in found.values() for text in vs.values()), key=len)
    longest = (minus.longest if minus is not None else "") + longest

    def texts(position, a, b):
        rows = map(found[position].__getitem__, column[a:b])  # read in order across the groups
        if minus is None:
            return [("", rows)]
        return [(h, map(add, ts, rows)) for h, ts in minus.groups(a, b)]

    yield from _write_listing(fmt, args.r, path, runs, texts, len(column), longest,
                              "position\tstatus\tcite\tnote", "")
    statuses = {verdict.status for vs in verdicts.values() for verdict, _ in vs.values()}
    if args.strict and Fillability.NOT_COVERED in statuses:
        return 4


def _summary_obj(r: Slope) -> dict:
    counts = verdict_summary(r)
    obj = {"total": sum(counts.values())}
    for status, cnt in counts.items():
        obj[status.json_key] = cnt
    return obj


def _cmd_summary(args) -> Iterator[str]:
    obj = _summary_obj(args.r)
    yield _line(args, obj, "\n".join("%s %d" % item for item in obj.items()))
    if args.strict and obj.get(Fillability.NOT_COVERED.json_key):
        return 4


_SWEEP_COLUMNS = ["total"] + [status.json_key for status in Fillability]


def _cmd_sweep(args) -> Iterator[str]:
    a, b = args.interval
    terms = _farey_walk(a, b, args.bound)  # raises on a bad interval or bound before any output
    as_json, uncovered = args.format == "json", False
    yield "[" if as_json else "r\t%s\n" % "\t".join(_SWEEP_COLUMNS)
    for i, r in enumerate(terms):
        obj = _summary_obj(r)
        uncovered = uncovered or bool(obj.get(Fillability.NOT_COVERED.json_key))
        if as_json:
            yield ("," if i else "") + _json({"r": str(r), **obj})
        else:
            yield "\t".join([str(r)] + [str(obj.get(c, 0)) for c in _SWEEP_COLUMNS]) + "\n"
    if as_json:
        yield "]\n"
    if args.strict and uncovered:
        return 4


def _cmd_exceptional(args) -> Iterator[str]:
    torus = MixedTorus(args.s0, args.s1, args.s_neg1)
    found = sorted(exceptional_slopes(torus, args.paper_mode), key=slope_sort_key)
    found = [str(s) for s in found]
    obj = {"s0": str(args.s0), "s1": str(args.s1), "s_neg1": str(args.s_neg1),
           "paper_mode": args.paper_mode, "exceptional": found}
    yield _line(args, obj, " ".join(found))


def _cmd_dot(args) -> Iterator[str]:
    path = args.mode == "path"
    if len(args.slopes) != (2 if path else 1):
        raise ParseError("dot %s expects %s" % (args.mode, "two slopes" if path else "one slope"))
    slopes = map(parse_slope, args.slopes)
    yield from emit_dot_path(minimal_path(*slopes)) if path else emit_dot_triangle(*slopes)
    yield "\n"


def _add_format(sub, choices, default="text"):
    sub.add_argument("--format", choices=choices, default=default)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative fraction such as -1/2 as an
    argument, as argparse reads -1 and -0.5, not as an option; the
    subcommands' parsers are made of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")


def _build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@cache  # built on the first call, then shared by every later main()
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each subcommand, by name."""
    parser = _Parser(
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

    return parser, subs.choices


def main(argv=None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argv[1:] goes to the parser of the command that argv[0] names,
        # into a namespace that holds the name, as the top-level parser
        # would hand it over; the top-level parser runs only to report
        # what it alone reports: no command, an unknown one, its own -h,
        # and arguments that the command's parser leaves over
        sub = commands.get(argv[0]) if argv else None
        if sub is None:
            args = parser.parse_args(argv)
        else:
            args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if rest:
                args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return _run(args)


def _run(args) -> int:
    """Write the output of the parsed command piece by piece; the exit code."""
    pieces, write = args.func(args), sys.stdout.write
    try:
        while True:
            write(next(pieces))
    except StopIteration as done:
        return done.value or 0
    except (ParseError, DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 3
    except BrokenPipeError:
        # the reader closed stdout early (`| head`).  Point stdout at
        # devnull so that the flush at exit cannot fail again, as the
        # signal module's documentation recommends.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
