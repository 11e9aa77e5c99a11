#!/usr/bin/env python3
"""Print every function defined under src/fareytight that no CLI command
enters, one qualified name a line (module.Class.method), in file and
line order.

The commands are those of scripts/cli_digests.py up to --max-den, the
argvs of tests/test_cli.py that end in an error or in help
(ERROR_AND_HELP_ARGVS) and the classify argvs whose bytes it pins
(CLASSIFY_PINS).  Each runs through fareytight.cli.main in this process,
its output dropped, under sys.setprofile, which is turned on before
fareytight is imported, so a function that runs at import counts as
entered.

The functions are read off the compiled code of each module: every code
object in co_consts, recursively, that a def or a class body made.
Comprehensions, generator expressions and lambdas (the names that start
with "<") are left out, so the list does not depend on whether the
interpreter inlines comprehensions.  A def is matched to the code that
runs by its file, its first line (for a decorated def, the decorator's)
and its name, since co_qualname is new in Python 3.11.

    python3 scripts/reach.py [--max-den N]

UNREACHED below lists what the script prints, each name with the reason
it stays; tests/test_tools.py checks that the two agree at --max-den 6.
"""

import argparse
import ast
import contextlib
import inspect
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fareytight"

_TRACED = "the per-structure layer: perfbench/tracer.py wraps it by name, or only such functions call it"
_SURGERY = "Legendrian cable surgery, lengthening and shortening, which no command reaches"
_DUNDER = "dunder"
_LONG = "only a listing longer than _output._KEPT_CHARS enters it"
_WHOLE = ("library API: the whole answer as one value, where the command writes it in pieces (cf_runs, "
          "exceptional_members); perfbench/tracer.py wraps it by name")
_BUILT = ("library API: a Slope per vertex or a tuple of edge indices per block, which no command "
          "builds, as every text of a path is made from its block integers")

# what `scripts/reach.py --max-den 6` prints, each name with the reason it stays
UNREACHED = {
    "atlas.TightStructureId.__init__": _TRACED,
    "atlas.TrianglePosition.of": _TRACED,
    "atlas.enumerate_structures": _TRACED,
    "atlas.triangle_position": _TRACED,
    "atlas.classify": _TRACED,
    "atlas.structure_record": _TRACED,
    "paths.edge_runs": _TRACED,
    "paths.lengthen_through": _TRACED,
    "tori.signed_blocks": _TRACED,
    "tori.ShuffleClass.features": _TRACED,
    "tori.all_minus_counts": _TRACED,
    "tori.enumerate_tight": _TRACED,

    "cables.legendrian_cable_surgery": _SURGERY,
    "paths._lift_blocks": _SURGERY,
    "paths._lengthen": _SURGERY,
    "paths._lengthen_lift": _SURGERY,
    "tori.DecoratedPath.__init__": _SURGERY,
    "tori.ShuffleClass.canonical_decorated": _SURGERY,
    "tori.shuffle_canonical": _SURGERY,
    "tori.SolidTorusStructure.__init__": _SURGERY,
    "tori._refined_signs": _SURGERY,
    "tori.lengthen_decorated": _SURGERY,
    "tori.consistently_shorten": _SURGERY,
    "tori._shorten_lift": _SURGERY,

    "slopes.cf_minus": _WHOLE,
    "slopes.ContinuedFraction.__init__": "library API: the value that cf_minus returns",
    "slopes.ContinuedFraction.__str__": "library API: the value that cf_minus returns",
    "atlas.exceptional_slopes": _WHOLE,
    "slopes.neighbors_in_interval": "library API: the neighbours in any arc, from the fan window that "
                                    "exceptional_members reads; perfbench/tracer.py wraps it by name",
    "slopes.cw_interval_contains": "library API: the arc predicate, which neighbors_in_interval reads",
    "paths.FareyPath.__init__": "library API: a path from its vertices, as the README and the tests build one",
    "slopes.farey_sum": "library API: perfbench/workloads.py builds the surgery inputs with it",
    "slopes.rationals_in": "library API: the list form of the coefficients that sweep reads",
    "tori.is_tight": "library API: the predicate form of consistently_shorten",
    "paths._slope": _BUILT,
    "paths.FareyPath.vertices": _BUILT,
    "paths.BlockDecomposition.runs": _BUILT,

    "paths.FareyPath.__len__": _DUNDER,
    "paths.FareyPath.__eq__": _DUNDER,
    "paths.FareyPath.__hash__": _DUNDER,
    "paths.FareyPath.__repr__": _DUNDER,
    "paths.FareyPath.__str__": _DUNDER,
    "slopes._Value.__setattr__": _DUNDER,
    "slopes._Value.__reduce__": _DUNDER,
    "slopes._Value.__repr__": _DUNDER,
    "slopes.Slope.__repr__": _DUNDER,
    "tori.DecoratedPath.__str__": _DUNDER,
    "tori.ShuffleClass.__str__": _DUNDER,

    "_output._Made.__len__": _LONG,
    "_output._product_text": _LONG,
}


def _defs(code, prefix: str, out: dict) -> dict:
    """Map (file, first line, name) of each def under code to its
    qualified name, prefix first."""
    for const in code.co_consts:
        if not inspect.iscode(const) or const.co_name.startswith("<"):
            continue
        if const.co_flags & inspect.CO_OPTIMIZED:
            out[const.co_filename, const.co_firstlineno, const.co_name] = prefix + const.co_name
            _defs(const, prefix + const.co_name + ".<locals>.", out)
        else:  # a class body
            _defs(const, prefix + const.co_name + ".", out)
    return out


def _test_cli_argvs() -> list[list[str]]:
    """ERROR_AND_HELP_ARGVS and the argvs of CLASSIFY_PINS, read from
    tests/test_cli.py without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    found = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("ERROR_AND_HELP_ARGVS", "CLASSIFY_PINS")}
    pins = [["classify", r, "--format", *fmt.split()]
            for r, formats in found["CLASSIFY_PINS"].items() for fmt in formats]
    return [*found["ERROR_AND_HELP_ARGVS"], *pins]


def unreached(max_den: int) -> list[str]:
    """The qualified names of the defs under src/fareytight that no
    command enters."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    argvs = _test_cli_argvs()
    sys.setprofile(profile)
    try:
        import cli_digests  # puts src first on sys.path, then imports fareytight.cli

        with open(os.devnull, "w", encoding="utf-8") as sink, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in [*cli_digests.commands(max_den), *argvs]:
                cli_digests.main(argv)
    finally:
        sys.setprofile(None)
    runs = {(code.co_filename, code.co_firstlineno, code.co_name) for code in entered}
    names = []
    for path in sorted(SRC.glob("*.py")):
        defs = _defs(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem + ".", {})
        names.extend(name for key, name in sorted(defs.items(), key=lambda d: d[0][1]) if key not in runs)
    return names


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-den", type=int, default=50,
                    help="largest denominator of scripts/cli_digests.py's commands (default 50)")
    args = ap.parse_args()
    for name in unreached(args.max_den):
        print(name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
