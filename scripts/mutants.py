#!/usr/bin/env python3
"""Run every mutant of MUTANTS against the tests that must kill it, and
exit 1 if one survives.

A mutant is one text replacement in one file of the tree.  For each row
the script copies the tree (without .git and caches) to a temporary
directory, replaces the one occurrence of the old text by the new, runs
pytest there on the row's tests, and prints "killed" when they fail
(pytest exit code 1), "killed (timeout)" when they run longer than
TIMEOUT_S (a mutant that loops forever), "SURVIVED" when they pass, and
"ERROR" when pytest ends otherwise (a test that is not found, a
collection error).  It needs the standard library and pytest, and
hypothesis where a named test uses it.

    python3 scripts/mutants.py

tests/test_tools.py checks, without running a mutant, that each old
text occurs exactly once in its file and that each named test exists.
A change that claims that a test kills a mutant adds the row here.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")

# seconds that a row's tests may run before the mutant counts as killed
# by a hang; the slowest row takes about 6 s
TIMEOUT_S = 120

# (name, file, old text, new text, tests that must fail on the mutant)
MUTANTS = [
    # the closed forms of cf_runs and exceptional_members
    ("cf junction sign", "src/fareytight/slopes.py",
     "yield 2 - _cross(pivot, q), 1", "yield 2 + _cross(pivot, q), 1",
     ["tests/test_slopes.py::test_cf_minus_fixtures",
      "tests/test_slopes.py::test_cf_minus_matches_the_recurrence_exhaustive"]),
    ("cf run of m - 1 twos", "src/fareytight/slopes.py",
     "yield 2, m - 1", "yield 2, m",
     ["tests/test_slopes.py::test_cf_minus_fixtures",
      "tests/test_slopes.py::test_cf_runs_of_one_long_run_of_twos"]),
    ("exceptional without the cut at inf", "src/fareytight/atlas.py",
     "(range(max(f + 1, lo), hi), range(lo, min(c, hi)),", "(range(lo, min(c, hi)), range(max(f + 1, lo), hi),",
     ["tests/test_atlas.py::test_exceptional_members_ascend_as_the_sorted_scan",
      "tests/test_tools.py::test_digest_scripts_match_their_goldens"]),
    ("paper mode keeps 0", "src/fareytight/atlas.py",
     "        lo = 1\n", "        lo = 0\n",
     ["tests/test_atlas.py::test_exceptional_slopes_paper_mode_drops_zero",
      "tests/test_atlas.py::test_exceptional_members_ascend_as_the_sorted_scan"]),
    ("the joiner writes every text alone", "src/fareytight/_output.py",
     '    if size:\n        yield "".join(out)', "    yield from out",
     ["tests/test_cli.py::test_cf_and_exceptional_answers_that_fit_are_one_write"]),
    ("a short range drops its last member", "src/fareytight/_output.py",
     "for k in range(lo, hi)]", "for k in range(lo, hi - 1)]",
     ["tests/test_cli.py::test_format_members_matches_a_text_per_member"]),
    ("the integers start at 1", "src/fareytight/_output.py",
     "_INTEGERS = (0, 1), (1, 0)", "_INTEGERS = (0, 1), (1, 1)",
     ["tests/test_cli.py::test_path_json", "tests/test_cli.py::test_dot_triangle_golden"]),
    ("enumerate r s glues a path's tail before its head", "src/fareytight/_output.py",
     "[t + q + u for t, u in zip(ts, us)]", "[t + u + q for t, u in zip(ts, us)]",
     ["tests/test_cli.py::test_enumerate_tsv_rows_match_the_classes"]),
    # every text of a path from its block integers
    ("the first edge gets a sign mark", "src/fareytight/tori.py",
     'itertools.chain([""],', 'itertools.chain(["+"],',
     ["tests/test_tori.py::test_decorated_path_str"]),
    ("the tails write j for 1/j", "src/fareytight/_output.py",
     "[_text(j, 1) for j in", "[_text(1, j) for j in",
     ["tests/test_cli.py::test_listings_match_oracle_exhaustive"]),
    ("P's JSON blocks lose their + 1", "src/fareytight/tori.py",
     "list(range(r.start + 1, r.stop + 1))", "list(range(r.start, r.stop))",
     ["tests/test_tori.py::test_shuffle_class_to_json", "tests/test_cli.py::test_listing_goldens"]),
    # integers only, and facts stated once
    ("rationals_in takes a float bound", "src/fareytight/slopes.py",
     "if not isinstance(bound, int):", "if False:",
     ["tests/test_slopes.py::test_farey_interval_domain"]),
    ("the JSON keys lose their underscores", "src/fareytight/atlas.py",
     '"".join("_" + c if c.isupper() else c', '"".join(c if c.isupper() else c',
     ["tests/test_atlas.py::test_fillability_json_keys"]),
    ("MobiusMap takes floats", "src/fareytight/cables.py",
     "if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int) and isinstance(d, int)):",
     "if False:",
     ["tests/test_cables.py::test_mobius_map_validation_and_repr"]),
    # run by hand before this table existed
    ("Side high reads last_all_plus", "src/fareytight/atlas.py",
     '(last_all_plus if pos.side == "low" else last_all_minus)',
     '(last_all_plus if pos.side == "low" else last_all_plus)',
     ["tests/test_atlas.py::test_rule_commutes_with_conjugation"]),
    ("all_minus_counts yields the first count in place of the last", "src/fareytight/tori.py",
     "itertools.product(*[range(size + 1) for size in", "itertools.product(*[[*range(size), 0] for size in",
     ["tests/test_tori.py::test_euler_class_tells_the_classes_apart"]),
    ("_parse skips --", "src/fareytight/cli.py",
     'dashed = True  # every argument after the first "--" is positional', "continue",
     ["tests/test_cli.py::test_parse_matches_one_top_level_parse"]),
    ("_parse leaves choices unchecked", "src/fareytight/cli.py",
     'if "choices" in kw and value not in kw["choices"]:', "if False:",
     ["tests/test_cli.py::test_parse_matches_one_top_level_parse"]),
    ("_parse leaves a trailing -- to argparse", "src/fareytight/cli.py",
     "row = _COMMANDS.get(argv[0]) if argv else None", 'row = _COMMANDS.get(argv[0]) if argv and argv[-1] != "--" else None',
     ["tests/test_cli.py::test_argvs_that_argparse_rejects_run_as_the_grammar_reads_them"]),
    ("the first edge grows minus", "src/fareytight/tori.py",
     "(1,) * (c - 1) + signs", "(-1,) * (c - 1) + signs",
     ["tests/test_tori.py::test_lengthen_decorated_first_edge_grows_plus",
      "tests/test_cables.py::test_cable_surgery_matches_oracle"]),
    ("a signed edge grows one edge too many", "src/fareytight/tori.py",
     "(signs[i - 1],) * c", "(signs[i - 1],) * (c + 1)",
     ["tests/test_tori.py::test_lengthen_decorated_signed_edge_inherits",
      "tests/test_cables.py::test_cable_surgery_matches_oracle"]),
    ("_shorten_lift merges edges of opposite signs", "src/fareytight/tori.py",
     "if len(kept) > 2 and into[-1] != sign:", "if False:",
     ["tests/test_cables.py::test_legendrian_cable_surgery_merges_on_a_path_that_is_not_minimal",
      "tests/test_tori.py::test_consistently_shorten_matches_shorten_oracle"]),
    ("_shorten_lift never pops", "src/fareytight/tori.py",
     "if ud * wn - un * wd != 1:", "if True:",
     ["tests/test_cables.py::test_legendrian_cable_surgery_merges_on_a_path_that_is_not_minimal",
      "tests/test_tori.py::test_consistently_shorten_matches_shorten_oracle"]),
]


def run_mutant(name: str, path: str, old: str, new: str, tests: list[str]) -> str:
    """"killed", "killed (timeout)", "SURVIVED" or "ERROR (...)" for one row."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        target = tree / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "ERROR (the old text occurs %d times)" % text.count(old)
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        # a session of its own, so that a timeout ends the processes that the tests start too
        with subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                              cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              start_new_session=True) as proc:
            try:
                code = proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                return "killed (timeout)"
    return {0: "SURVIVED", 1: "killed"}.get(code, "ERROR (pytest exit code %d)" % code)


def main() -> int:
    failed = 0
    for row in MUTANTS:
        verdict = run_mutant(*row)
        failed += not verdict.startswith("killed")
        print("%-16s %s" % (verdict, row[0]), flush=True)
    print("%d of %d mutants killed" % (len(MUTANTS) - failed, len(MUTANTS)))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
