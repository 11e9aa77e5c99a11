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
import os
import re
import sys
from collections.abc import Iterator
from functools import cache

from .slopes import DomainError, ParseError, Slope, cf_minus, parse_slope
from .slopes import _farey_walk, slope_sort_key
from .paths import minimal_path
from .tori import count_tight, phi
from .cables import cable_surgery_slope, reglue_map
from .atlas import Fillability, MixedTorus, exceptional_slopes, structure_cells, verdict_summary
from ._output import _json, class_listing, classify_listing, emit_dot_path, emit_dot_triangle, path_text


def _line(args, obj, text: str) -> str:
    """The output of a scalar command: obj as JSON under --format json,
    else text, then a newline."""
    return (_json(obj) if args.format == "json" else text) + "\n"


def _slope(text: str) -> Slope:
    try:
        return parse_slope(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _cmd_phi(args) -> Iterator[str]:
    value = phi(args.r)
    yield _line(args, {"r": str(args.r), "phi": value}, str(value))


def _cmd_cf(args) -> Iterator[str]:
    cf = cf_minus(args.x)
    yield _line(args, {"x": str(args.x), "entries": list(cf.entries)}, str(cf))


def _cmd_path(args) -> Iterator[str]:
    path = minimal_path(args.a, args.b)  # raises on a bad pair before any output
    yield from path_text(path, args.format)
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


def _cmd_enumerate(args) -> Iterator[str]:
    if args.s is None:
        path, _, runs = structure_cells(args.r)  # raises on a bad r before any output
    else:
        path, runs = minimal_path(args.r, args.s), None  # raises on a bad pair before any output
    yield from class_listing(args.format, args.r, path, runs, args.s)


def _cmd_classify(args) -> Iterator[str]:
    path, verdicts, runs = structure_cells(args.r)  # raises on a bad r before any output
    yield from classify_listing(args.format, args.r, path, verdicts, runs)
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

    # each command: its name, function, help, the choices of --format,
    # the first the default (none for dot), and its arguments in order,
    # a bare name a slope, else names and the keywords of add_argument
    sign = ("--sign", {"type": int, "choices": [1, -1], "default": -1})
    strict = ("--strict", {"action": "store_true"})
    for name, func, help, formats, args in [
        ("phi", _cmd_phi, "solid-torus count phi(r) for r in (0,1)", "text json", ["r"]),
        ("cf", _cmd_cf, "minus continued fraction of a rational > 1", "text json", ["x"]),
        ("path", _cmd_path, "minimal clockwise Farey path", "text json dot", ["a", "b"]),
        ("cable-slope", _cmd_cable_slope, "surgery coefficient (pq+sign)/p^2", "text json",
         [("p", {"type": int}), ("q", {"type": int}), sign]),
        ("cable-map", _cmd_cable_map, "re-gluing matrix of a cable surgery", "text json",
         [("p", {"type": int}), ("q", {"type": int}), sign,
          ("--power", {"type": int, "default": 1, "help": "exponent k of M**k, any integer"}),
          ("--apply", {"type": _slope, "default": None, "help": "slope to map"})]),
        ("count", _cmd_count, "number of tight structures on the solid torus", "text json", ["r", "s"]),
        ("enumerate", _cmd_enumerate, "structures on the r-surgery, or on the solid torus when s is given",
         "text json tsv", ["r", ("s", {"type": _slope, "nargs": "?", "default": None})]),
        ("classify", _cmd_classify, "verdict for every structure on the r-surgery", "text json tsv",
         ["r", strict]),
        ("summary", _cmd_summary, "verdict tallies for the r-surgery", "text json", ["r", strict]),
        ("sweep", _cmd_sweep, "verdict tallies over an interval of coefficients", "tsv json",
         [("--interval", {"type": _slope, "nargs": 2, "metavar": ("A", "B"), "required": True}),
          ("--bound", {"type": int, "default": 50, "help": "max denominator"}), strict]),
        ("exceptional", _cmd_exceptional, "exceptional slopes of a mixed torus", "text json",
         ["s0", "s1", "s_neg1", ("--paper-mode", {"action": "store_true"})]),
        ("dot", _cmd_dot, "DOT export: 'dot path A B' or 'dot triangle R'", "",
         [("mode", {"choices": ["path", "triangle"]}), ("slopes", {"nargs": "+"})]),
    ]:
        p = subs.add_parser(name, help=help)
        for arg in args:
            arg, kwargs = (arg, {"type": _slope}) if isinstance(arg, str) else arg
            p.add_argument(arg, **kwargs)
        if formats:
            p.add_argument("--format", choices=formats.split(), default=formats.split()[0])
        p.set_defaults(func=func)

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
