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

from .slopes import DomainError, ParseError, Slope, cf_runs, parse_slope
from .slopes import _farey_walk
from .paths import minimal_path
from .tori import count_tight, phi
from .cables import cable_surgery_slope, reglue_map
from .atlas import Fillability, MixedTorus, exceptional_members, structure_cells, verdict_summary
from ._output import _json, cf_text, emit_dot_triangle, exceptional_text, listing, path_text, sweep_text


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
    runs = list(cf_runs(args.x))  # raises on a bad x before any output; a few runs to a digit of x
    yield from cf_text(args.format, args.x, runs)


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
    yield from listing(args.format, args.r, path, runs, args.s)


def _cmd_classify(args) -> Iterator[str]:
    path, verdicts, runs = structure_cells(args.r)  # raises on a bad r before any output
    yield from listing(args.format, args.r, path, runs, verdicts=verdicts)
    statuses = {verdict.status for vs in verdicts.values() for verdict, _ in vs.values()}
    if args.strict and Fillability.NOT_COVERED in statuses:
        return 4


def _summary_obj(r: Slope) -> dict:
    counts = verdict_summary(r)
    return {"total": sum(counts.values()), **{status.json_key: cnt for status, cnt in counts.items()}}


def _cmd_summary(args) -> Iterator[str]:
    obj = _summary_obj(args.r)
    yield _line(args, obj, "\n".join("%s %d" % item for item in obj.items()))
    if args.strict and obj.get(Fillability.NOT_COVERED.json_key):
        return 4


def _cmd_sweep(args) -> Iterator[str]:
    a, b = args.interval
    terms = _farey_walk(a, b, args.bound)  # raises on a bad interval or bound before any output
    met = set()  # the keys of the tallies read so far

    def tallies():  # read as the text is made
        for r in terms:
            obj = _summary_obj(r)
            met.update(obj)
            yield r, obj

    yield from sweep_text(args.format, tallies())
    if args.strict and Fillability.NOT_COVERED.json_key in met:
        return 4


def _cmd_exceptional(args) -> Iterator[str]:
    torus = MixedTorus(args.s0, args.s1, args.s_neg1)
    members = exceptional_members(torus, args.paper_mode)  # raises before any output
    obj = {"s0": str(args.s0), "s1": str(args.s1), "s_neg1": str(args.s_neg1), "paper_mode": args.paper_mode}
    yield from exceptional_text(args.format, obj, *members)


def _cmd_dot(args) -> Iterator[str]:
    path = args.mode == "path"
    if len(args.slopes) != (2 if path else 1):
        raise ParseError("dot %s expects %s" % (args.mode, "two slopes" if path else "one slope"))
    slopes = map(parse_slope, args.slopes)
    yield from path_text(minimal_path(*slopes), "dot") if path else emit_dot_triangle(*slopes)
    yield "\n"


# a negative number, -1/2 as -1 and -0.5, is an argument, not an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

_SIGN = ("--sign", {"type": int, "choices": [1, -1], "default": -1})
_STRICT = ("--strict", {"action": "store_true"})

def _row(func, help: str, formats: str, args: list) -> tuple:
    """A command's function, help and arguments as (name, keywords of
    add_argument), a bare name a slope and --format last, then what
    _parse reads off them: the options by name, each with its dest and
    keywords, the positionals, and the default of each dest."""
    args = [(arg, {"type": _slope}) if isinstance(arg, str) else arg for arg in args]
    args += [("--format", {"choices": formats.split(), "default": formats.split()[0]})] if formats else []
    options = {name: (name[2:].replace("-", "_"), kw) for name, kw in args if name[0] == "-"}
    defaults = {dest: kw.get("default", False if "action" in kw else None) for dest, kw in options.values()}
    return func, help, args, options, [(name, kw) for name, kw in args if name[0] != "-"], defaults


# each command by name, from a row of its name, function, help, the
# choices of --format, the first the default (none for dot), and its
# arguments in order, a bare name a slope, else names and the keywords
# of add_argument; only a command's last positional may be optional
# ("?") or repeated ("+")
_COMMANDS = {
    name: _row(*rest) for name, *rest in [
        ("phi", _cmd_phi, "solid-torus count phi(r) for r in (0,1)", "text json", ["r"]),
        ("cf", _cmd_cf, "minus continued fraction of a rational > 1", "text json", ["x"]),
        ("path", _cmd_path, "minimal clockwise Farey path", "text json dot", ["a", "b"]),
        ("cable-slope", _cmd_cable_slope, "surgery coefficient (pq+sign)/p^2", "text json",
         [("p", {"type": int}), ("q", {"type": int}), _SIGN]),
        ("cable-map", _cmd_cable_map, "re-gluing matrix of a cable surgery", "text json",
         [("p", {"type": int}), ("q", {"type": int}), _SIGN,
          ("--power", {"type": int, "default": 1, "help": "exponent k of M**k, any integer"}),
          ("--apply", {"type": _slope, "default": None, "help": "slope to map"})]),
        ("count", _cmd_count, "number of tight structures on the solid torus", "text json", ["r", "s"]),
        ("enumerate", _cmd_enumerate, "structures on the r-surgery, or on the solid torus when s is given",
         "text json tsv", ["r", ("s", {"type": _slope, "nargs": "?", "default": None})]),
        ("classify", _cmd_classify, "verdict for every structure on the r-surgery", "text json tsv",
         ["r", _STRICT]),
        ("summary", _cmd_summary, "verdict tallies for the r-surgery", "text json", ["r", _STRICT]),
        ("sweep", _cmd_sweep, "verdict tallies over an interval of coefficients", "tsv json",
         [("--interval", {"type": _slope, "nargs": 2, "metavar": ("A", "B"), "required": True}),
          ("--bound", {"type": int, "default": 50, "help": "max denominator"}), _STRICT]),
        ("exceptional", _cmd_exceptional, "exceptional slopes of a mixed torus", "text json",
         ["s0", "s1", "s_neg1", ("--paper-mode", {"action": "store_true"})]),
        ("dot", _cmd_dot, "DOT export: 'dot path A B' or 'dot triangle R'", "",
         [("mode", {"choices": ["path", "triangle"]}), ("slopes", {"nargs": "+"})]),
    ]
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative fraction such as -1/2 as an
    argument, as argparse reads -1 and -0.5, not as an option; the
    subcommands' parsers are made of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@cache  # built where help or an error is written, then shared by every later main()
def _parsers() -> argparse.ArgumentParser:
    """The top-level parser, with a parser for each subcommand."""
    parser = _Parser(
        prog="fareytight",
        description="Tight contact structures on trefoil surgeries, exactly.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, args, *_) in _COMMANDS.items():
        p = subs.add_parser(name, help=help)
        for arg, kwargs in args:
            p.add_argument(arg, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of argv read off the row of the command that argv[0]
    names: options by exact name, each with its count of values, anywhere
    among the positionals, the positionals in order, and every argument
    after "--" positional.  None where argparse writes help or an error,
    and where it might read argv otherwise: --opt=value, an abbreviation,
    an unknown option or a second "--"."""
    row = _COMMANDS.get(argv[0]) if argv else None
    if row is None:
        return None
    func, _, _, options, positionals, defaults = row
    parsed = argparse.Namespace()
    values = vars(parsed)  # filled in place: Namespace(**values) sets one attribute at a time
    values.update(defaults, command=argv[0], func=func)
    strings, rest = [], iter(argv[1:])
    try:
        for text in rest:
            if text == "--":
                strings += rest  # every argument after the first "--" is positional
            elif _is_argument(text):
                strings.append(text)
            elif text in options:
                dest, kw = options[text]
                found = [next(rest, "--") for _ in range(0 if "action" in kw else kw.get("nargs", 1))]
                if not all(map(_is_argument, found)):  # a missing value reads as "--"
                    return None
                found = [_value(kw, t) for t in found]
                values[dest] = found if "nargs" in kw else found[0] if found else True  # store_true
            else:
                return None
        if "--" in strings or any(kw.get("required") and values[dest] is None
                                  for dest, kw in options.values()):
            return None
        if not positionals:
            return None if strings else parsed
        *head, (last, kw) = positionals
        nargs, extra = kw.get("nargs"), len(strings) - len(head)
        if extra < (nargs != "?") or (nargs != "+" and extra > 1):
            return None
        values.update((name, _value(kw, t)) for (name, kw), t in zip(head, strings))
        found = [_value(kw, t) for t in strings[len(head) :]]
        values[last] = found if nargs == "+" else found[0] if found else kw.get("default")
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return parsed


def _is_argument(text: str) -> bool:
    """Whether argparse reads text as an argument, not as an option."""
    return text[:1] != "-" or _NEGATIVE_NUMBER.match(text) is not None


def _value(kw: dict, text: str):
    """text converted by the type in kw and checked against its choices;
    a ValueError where it is not one of them."""
    value = kw.get("type", str)(text)
    if "choices" in kw and value not in kw["choices"]:
        raise ValueError(text)
    return value


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command is read off its row of the table; only where help or an
    # error has to be written, or argparse might read argv otherwise, are
    # the parsers built and the top-level parser run
    try:
        args = _parse(argv) or _parsers().parse_args(argv)
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
