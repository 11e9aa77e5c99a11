import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import re
import shlex
import sys
import tracemalloc
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fareytight import _output, cli
from fareytight._output import _BYTES_PER_WRITE
from fareytight.atlas import TightStructureId, TrianglePosition, n_of
from fareytight.cli import main
from fareytight.paths import minimal_path
from fareytight.slopes import INF, ZERO, ContinuedFraction, cf_minus, make_slope, parse_slope
from fareytight.tori import enumerate_tight, phi

from helpers import (
    all_slopes_in_box,
    cf_minus_oracle,
    cf_value,
    classify_oracle,
    listing_oracle,
    main_oracle,
    path_output_oracle,
    path_texts_oracle,
    sort_key_oracle,
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def captured(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(*args)
    return code, out.getvalue(), err.getvalue()


def run_captured(argv):
    return captured(main, list(argv))


def listing_commands(r: str):
    """`classify r` and `enumerate r` in every format; classify with
    --strict, whose only other effect is the exit code."""
    for fmt in ("text", "json", "tsv"):
        yield ["classify", r, "--format", fmt, "--strict"]
        yield ["enumerate", r, "--format", fmt]


def test_phi_text(capsys):
    code, out, _ = run(capsys, "phi", "9/25")
    assert code == 0
    assert out == "4\n"


def test_phi_json(capsys):
    code, out, _ = run(capsys, "phi", "9/25", "--format", "json")
    assert code == 0
    assert out == '{"r":"9/25","phi":4}\n'


def test_phi_domain_error(capsys):
    code, _, err = run(capsys, "phi", "3/2")
    assert code == 3
    assert "error" in err


def test_cf_text(capsys):
    code, out, _ = run(capsys, "cf", "25/9")
    assert code == 0
    assert out == "[3,5,2]\n"
    assert str(cf_minus(parse_slope("25/9"))) == out[:-1]


def test_cf_json(capsys):
    code, out, _ = run(capsys, "cf", "25/9", "--format", "json")
    assert json.loads(out) == {"x": "25/9", "entries": [3, 5, 2]}


def test_path_text(capsys):
    code, out, _ = run(capsys, "path", "9/25", "1/2")
    assert code == 0
    assert out == "9/25 → 4/11 → 3/8 → 2/5 → 1/2\n"


def test_path_json(capsys):
    code, out, _ = run(capsys, "path", "9/25", "1/2", "--format", "json")
    assert json.loads(out) == {
        "vertices": ["9/25", "4/11", "3/8", "2/5", "1/2"],
        "blocks": [[1], [2, 3, 4]],
    }


def test_path_long_geodesic(capsys):
    code, out, _ = run(capsys, "path", "1/20000", "1/2")
    assert code == 0
    assert out.rstrip("\n").split(" → ") == ["1/%d" % j for j in range(20000, 1, -1)]


def test_path_dot(capsys):
    code, out, _ = run(capsys, "path", "9/25", "1/2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph farey_path {")
    assert '"9/25" -> "4/11"' in out


def test_cable_slope_default_sign(capsys):
    code, out, _ = run(capsys, "cable-slope", "5", "2")
    assert out == "9/25\n"
    code, out, _ = run(capsys, "cable-slope", "5", "2", "--sign", "1")
    assert out == "11/25\n"


def test_cable_slope_json(capsys):
    _, out, _ = run(capsys, "cable-slope", "7", "2", "--format", "json")
    assert json.loads(out) == {"p": 7, "q": 2, "sign": -1, "slope": "13/49"}


def test_cable_map_matrix(capsys):
    _, out, _ = run(capsys, "cable-map", "5", "2")
    assert out == "[[11,-25],[4,-9]]\n"


def test_cable_map_apply_power(capsys):
    _, out, _ = run(capsys, "cable-map", "4", "1", "--power", "2", "--apply", "inf")
    assert out == "7/32\n"


def test_cable_map_negative_power(capsys):
    code, out, _ = run(capsys, "cable-map", "5", "2", "--power", "-1")
    assert code == 0
    assert out == "[[-9,25],[-4,11]]\n"


def test_cable_map_huge_power(capsys):
    k = 10**9
    # M = [[11,-25],[4,-9]] = I + N, so M**k = I + kN
    code, out, _ = run(capsys, "cable-map", "5", "2", "--power", str(k))
    assert code == 0
    assert out == "[[%d,%d],[%d,%d]]\n" % (1 + 10 * k, -25 * k, 4 * k, 1 - 10 * k)


def test_cable_map_json_apply(capsys):
    _, out, _ = run(capsys, "cable-map", "5", "2", "--format", "json", "--apply", "0")
    assert json.loads(out) == {
        "m": [[11, -25], [4, -9]],
        "apply": "0",
        "image": "4/11",
    }


def test_count(capsys):
    code, out, _ = run(capsys, "count", "9/25", "1/2")
    assert out == "4\n"
    code, out, _ = run(capsys, "count", "9/25", "1/2", "--format", "json")
    assert json.loads(out) == {"r": "9/25", "s": "1/2", "count": 4}


def test_count_domain_error(capsys):
    code, _, err = run(capsys, "count", "1/2", "1/2")
    assert code == 3


def test_enumerate_two_slopes_json(capsys):
    code, out, _ = run(capsys, "enumerate", "9/25", "1/2", "--format", "json")
    data = json.loads(out)
    assert len(data) == 4
    assert data[0] == {
        "path": ["9/25", "4/11", "3/8", "2/5", "1/2"],
        "blocks": [[1], [2, 3, 4]],
        "minus": [0, 0],
    }
    assert [d["minus"] for d in data] == [[0, 0], [0, 1], [0, 2], [0, 3]]


def test_enumerate_two_slopes_json_bytes():
    # streamed one class at a time from one prefix for the path and its
    # blocks: the bytes of one json.dumps over every class; 2/5 -> 1/2
    # has no signed block, 30/113 -> 1/3 has two
    for r, s in [("9/25", "1/2"), ("2/5", "1/2"), ("30/113", "1/3"), ("13/49", "1/3")]:
        classes = [st.iso_class.to_json() for st in enumerate_tight(parse_slope(r), parse_slope(s))]
        want = json.dumps(classes, separators=(",", ":")) + "\n"
        assert run_captured(["enumerate", r, s, "--format", "json"]) == (0, want, ""), (r, s)


def test_enumerate_one_slope_json(capsys):
    code, out, _ = run(capsys, "enumerate", "1/4", "--format", "json")
    data = json.loads(out)
    assert len(data) == 6
    assert [(d["k"], d["l"]) for d in data] == [
        (1, 0),
        (1, 1),
        (1, 2),
        (2, 0),
        (2, 1),
        (3, 0),
    ]
    assert all(d["r"] == "1/4" for d in data)


def test_enumerate_text_shows_decorated_paths(capsys):
    code, out, _ = run(capsys, "enumerate", "9/25", "1/2")
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "9/25 → 4/11 →+ 3/8 →+ 2/5 →+ 1/2"
    assert lines[-1] == "9/25 → 4/11 →- 3/8 →- 2/5 →- 1/2"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "9/25", "--format", "json")
    data = json.loads(out)
    assert len(data) == 12
    top = [d for d in data if d["k"] == 2]
    assert {d["status"] for d in top} == {"Stein", "StrongNotExact"}
    assert all(d["cite"] == "Lemma 4.2" for d in data if d["k"] == 1)


def test_classify_tsv_header(capsys):
    code, out, _ = run(capsys, "classify", "9/25", "--format", "tsv")
    assert out.split("\n")[0] == "r\tk\tl\tposition\tstatus\tcite\tnote"


def test_classify_strict_exit(capsys):
    code, _, _ = run(capsys, "classify", "1/3", "--strict")
    assert code == 4
    code, _, _ = run(capsys, "classify", "9/25", "--strict")
    assert code == 0


def test_summary_json_exact_bytes(capsys):
    code, out, _ = run(capsys, "summary", "9/25", "--format", "json")
    assert code == 0
    assert out == '{"total":12,"stein":10,"strong_not_exact":2}\n'


def test_summary_large_triangle_json(capsys):
    # n = 1999, phi = 1, below the Thm 1.3 window: Base n*phi, Interior
    # (n-2)(n-3)/2*phi, Top and Sides (2n-3)*phi
    code, out, _ = run(capsys, "summary", "1/2000", "--format", "json")
    assert code == 0
    assert out == (
        '{"total":1999000,"stein":1999,"strong_not_exact":1993006,"not_covered_by_paper":3995}\n'
    )


def test_commands_in_one_process_share_no_options():
    # main() builds its parser once per process: --strict must not stay set
    assert run_captured(["summary", "1/3", "--strict"])[0] == 4
    assert run_captured(["summary", "1/3"])[0] == 0


def test_summary_text(capsys):
    code, out, _ = run(capsys, "summary", "7/32")
    assert out == (
        "total 20\nstein 14\nstrong_not_exact 2\nstrong_stein_conditional 4\n"
    )


def test_summary_strict(capsys):
    assert run(capsys, "summary", "1/3", "--strict")[0] == 4
    assert run(capsys, "summary", "9/25", "--strict")[0] == 0


def test_sweep_tsv(capsys):
    code, out, _ = run(capsys, "sweep", "--interval", "9/25", "4/11", "--bound", "40")
    lines = out.strip().split("\n")
    assert lines[0] == (
        "r\ttotal\tstein\tstrong_not_exact\tstrong_stein_conditional\tnot_covered_by_paper"
    )
    assert lines[1].startswith("9/25\t12\t10\t2\t0\t0")
    rows = [ln.split("\t") for ln in lines[1:]]
    assert all(row[5] == "0" for row in rows)  # fully covered interval


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--interval", "9/25", "4/11", "--bound", "36", "--format", "json")
    data = json.loads(out)
    assert data[0]["r"] == "9/25"
    assert data[0]["stein"] == 10
    rs = [d["r"] for d in data]
    assert "13/36" in rs
    assert "4/11" not in rs  # right end open


def test_sweep_strict(capsys):
    code, _, _ = run(capsys, "sweep", "--interval", "9/25", "4/11", "--bound", "30", "--strict")
    assert code == 0
    code, _, _ = run(capsys, "sweep", "--interval", "1/3", "9/25", "--bound", "20", "--strict")
    assert code == 4


def test_sweep_bad_interval(capsys):
    code, _, err = run(capsys, "sweep", "--interval", "4/11", "9/25", "--bound", "20")
    assert code == 3


SWEEP_HEADER = "r\ttotal\tstein\tstrong_not_exact\tstrong_stein_conditional\tnot_covered_by_paper\n"


def test_sweep_of_an_interval_without_coefficients():
    # no p/q with q <= 5 lies in [3/10, 1/3); bytes of the parent commit
    argv = ["sweep", "--interval", "3/10", "1/3", "--bound", "5"]
    assert run_captured(argv) == (0, SWEEP_HEADER, "")
    assert run_captured(argv + ["--format", "json"]) == (0, "[]\n", "")
    # a bad interval or bound is found before the header or the "[" is
    # written, also under --strict
    for fmt in ("tsv", "json"):
        argv = ["sweep", "--interval", "4/11", "9/25", "--format", fmt]
        assert run_captured(argv) == (3, "", "error: empty sweep interval\n")
        for bound in ("0", "-5"):
            argv = ["sweep", "--interval", "1/3", "1/2", "--bound", bound, "--format", fmt]
            for strict in ([], ["--strict"]):
                assert run_captured(argv + strict) == (
                    3, "", "error: sweep bound must be at least 1\n"), (argv, strict)


def test_sweep_streams_in_bounded_memory():
    # sweep yields each row as it makes it, walking the Farey sequence
    # lazily, so its memory does not grow with the number of rows: 4,385
    # coefficients here.  The traced peaks on Python 3.11 were 1.86 MB
    # (tsv) and 5.55 MB (json) when every row was made before the first
    # was written.
    run_captured(["phi", "1/3"])  # what a first command makes once per process, outside the trace
    for fmt in ("tsv", "json"):
        with contextlib.redirect_stdout(NullSink()):
            tracemalloc.start()
            try:
                code = main(["sweep", "--interval", "1/100000", "1", "--bound", "120",
                             "--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (code, peak < 1_000_000) == (0, True), (fmt, peak)


def _decimal(n: int) -> str:
    """str(n) for an int n >= 0 of any length, a thousand digits at a time,
    within CPython's default limit on int <-> str conversion."""
    if n < 10**1000:
        return str(n)
    high, low = divmod(n, 10**1000)
    return _decimal(high) + str(low).zfill(1000)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_numbers_beyond_the_int_str_digit_limit(fmt):
    # CPython 3.10.7 and later convert at most 4,300 digits between int
    # and str by default: importing fareytight.slopes lifts that limit, so
    # a slope of 4,401 digits parses and a total of 6,000 digits prints.
    # On r = 1/N, phi(r) is 1 and n is N - 1; the tallies below are
    # checked against the program on small N first.
    def tallies(N):
        total, stein, uncovered = N * (N - 1) // 2, N - 1, 2 * N - 5
        return {"total": total, "stein": stein, "strong_not_exact": (N - 3) * (N - 4) // 2,
                "not_covered_by_paper": uncovered}

    for N in (10, 100, 1000, 10**3000):
        want = {key: _decimal(value) for key, value in tallies(N).items()}
        if fmt == "json":
            text = "{%s}" % ",".join('"%s":%s' % item for item in want.items())
        else:
            text = "\n".join("%s %s" % item for item in want.items())
        code, out, err = run_captured(["summary", "1/" + _decimal(N), "--format", fmt])
        assert (code, err, out == text + "\n") == (0, "", True), (len(want["total"]), code, err)
    r = "1/1" + "0" * 4400
    code, out, err = run_captured(["phi", r, "--format", fmt])
    assert (code, err, out) == (0, "", '{"r":"%s","phi":1}\n' % r if fmt == "json" else "1\n")


def test_exceptional_text(capsys):
    code, out, _ = run(capsys, "exceptional", "3/8", "4/11", "2/5")
    assert out == "1/3\n"
    code, out, _ = run(capsys, "exceptional", "1/4", "2/9", "1/3")
    assert out == "0 1/5\n"
    code, out, _ = run(capsys, "exceptional", "1/4", "2/9", "1/3", "--paper-mode")
    assert out == "1/5\n"


def test_exceptional_json(capsys):
    _, out, _ = run(capsys, "exceptional", "1/4", "2/9", "1/3", "--format", "json")
    assert json.loads(out) == {
        "s0": "1/4",
        "s1": "2/9",
        "s_neg1": "1/3",
        "paper_mode": False,
        "exceptional": ["0", "1/5"],
    }


def test_dot_triangle(capsys):
    code, out, _ = run(capsys, "dot", "triangle", "1/7")
    assert code == 0
    assert out.startswith("digraph classification_triangle {")
    assert out.count('label="k=') == 21
    assert "palegreen" in out


def test_dot_triangle_golden(capsys):
    # n = 4 inside the Thm 1.3 window: mixed Side cells, Interior and Base
    code, out, _ = run(capsys, "dot", "triangle", "7/32")
    assert code == 0
    assert out == (
        'digraph classification_triangle {\n'
        '  label="surgery coefficient 7/32";\n'
        '  node [shape=box, style=filled];\n'
        '  "k1_l0" [label="k=1 l=0\\nStein 2", fillcolor="palegreen"];\n'
        '  "k1_l1" [label="k=1 l=1\\nStein 2", fillcolor="palegreen"];\n'
        '  "k1_l2" [label="k=1 l=2\\nStein 2", fillcolor="palegreen"];\n'
        '  "k1_l3" [label="k=1 l=3\\nStein 2", fillcolor="palegreen"];\n'
        '  "k2_l0" [label="k=2 l=0\\nStein 1\\nStrongSteinConditional 1", fillcolor="orange"];\n'
        '  "k2_l1" [label="k=2 l=1\\nStrongNotExact 2", fillcolor="lightcoral"];\n'
        '  "k2_l2" [label="k=2 l=2\\nStein 1\\nStrongSteinConditional 1", fillcolor="orange"];\n'
        '  "k3_l0" [label="k=3 l=0\\nStein 1\\nStrongSteinConditional 1", fillcolor="orange"];\n'
        '  "k3_l1" [label="k=3 l=1\\nStein 1\\nStrongSteinConditional 1", fillcolor="orange"];\n'
        '  "k4_l0" [label="k=4 l=0\\nStein 2", fillcolor="palegreen"];\n'
        '  { rank=same; "k1_l0"; "k1_l1"; "k1_l2"; "k1_l3"; }\n'
        '  { rank=same; "k2_l0"; "k2_l1"; "k2_l2"; }\n'
        '  { rank=same; "k3_l0"; "k3_l1"; }\n'
        '  { rank=same; "k4_l0"; }\n'
        '  "k1_l0" -> "k2_l0" [style=invis];\n'
        '  "k2_l0" -> "k3_l0" [style=invis];\n'
        '  "k3_l0" -> "k4_l0" [style=invis];\n'
        '}\n'
    )


def test_dot_path(capsys):
    code, out, _ = run(capsys, "dot", "path", "13/49", "1/3")
    assert '"2/7" -> "1/3"' in out


def test_dot_arity_errors(capsys):
    code, _, err = run(capsys, "dot", "path", "1/2")
    assert code == 2 and "two slopes" in err
    code, _, err = run(capsys, "dot", "triangle", "1/2", "1/3")
    assert code == 2 and "one slope" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "phi", "zz")
    assert code == 2
    code, _, err = run(capsys, "path", "1/2", "3/0x")
    assert code == 2
    for text in ("1_0/3", "２/５", "1 /3"):
        assert run(capsys, "summary", text)[0] == 2, text
        assert run(capsys, "dot", "triangle", text)[0] == 2, text


def test_unknown_command_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_args_exit_code(capsys):
    assert run(capsys, "path", "1/2")[0] == 2


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# the README commands whose comment is their first line of output
README_OUTPUT_COMMANDS = {"phi", "cf", "path", "cable-slope", "cable-map", "count", "summary",
                          "exceptional"}


def test_readme_examples():
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            if argv[:1] == ["fareytight"] and argv[1] in README_OUTPUT_COMMANDS:
                examples.append((argv[1:], comment.strip()))
    assert len(examples) == 10, examples
    for argv, first_line in examples:
        code, out, err = run_captured(argv)
        assert (code, err, out.split("\n")[0]) == (0, "", first_line), argv


def test_readme_library_example():
    # the README's python block runs, and each print(...) writes the
    # comment on its line, or on the next line where its own has none
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines, comments = block.splitlines(), []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("#")[2] or lines[i + 1].partition("#")[2]
            comments.append(comment.strip())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert len(comments) == 6 and out.getvalue().splitlines() == comments


def test_negative_fractions_as_arguments():
    # -1/2 is read as a slope, as -1 is, not as an option: the same bytes
    # as after "--" (or as --apply=-1/3)
    for argv, same in (
        (["path", "-1/2", "1/2"], ["path", "--", "-1/2", "1/2"]),
        (["path", "1/2", "-1/3"], ["path", "--", "1/2", "-1/3"]),
        (["count", "-1/3", "1/2"], ["count", "--", "-1/3", "1/2"]),
        (["exceptional", "-1/3", "-1/2", "0"], ["exceptional", "--", "-1/3", "-1/2", "0"]),
        (["cable-map", "5", "2", "--apply", "-1/3"], ["cable-map", "5", "2", "--apply=-1/3"]),
        (["path", "-1/2", "1/2", "--format", "json"], ["path", "--format", "json", "--", "-1/2", "1/2"]),
    ):
        found = run_captured(argv)
        assert found == run_captured(same) and found[0] == 0, argv
    assert run_captured(["path", "-1/2", "1/2"])[1] == "-1/2 → 0 → 1/2\n"
    assert run_captured(["cable-map", "5", "2", "--apply", "-1/3"])[1] == "21/58\n"


def test_help_and_unknown_options_still_parse_as_options():
    code, out, err = run_captured(["path", "-h"])
    assert (code, err) == (0, "") and out.startswith("usage: fareytight path")
    for argv in (["path", "-x", "1/2"], ["path", "--bogus", "1/2"], ["path", "-1/2x", "1/2"],
                 ["count", "-1/3", "1/2", "--frob"]):
        code, out, err = run_captured(argv)
        assert (code, out) == (2, "") and err.startswith("usage: fareytight"), argv


# argvs that end in an error or in help text, read by the top-level
# parser, a command's parser or both
ERROR_AND_HELP_ARGVS = [
    [], ["-h"], ["--help"], ["--he"], ["-x"], ["-x", "phi"], ["-", "phi"], ["--version"],
    ["--", "phi", "3/10"], ["bogus"], ["bogus", "1"], ["phi"], ["phi", "-h"], ["phi", "--he"],
    ["phi", "3/10", "-h"], ["phi", "-h", "extra"], ["phi", "3/10", "--help=x"],
    ["phi", "3/10", "extra"], ["phi", "3/10", "--", "extra"], ["phi", "3/10", "-x"],
    ["phi", "3/10", "--form", "json"], ["phi", "3/10", "--format=json"],
    ["phi", "3/10", "--format", "xml"], ["phi", "3/10", "--format"], ["phi", "-"],
    ["exceptional", "--", "-1", "0", "1"], ["cable-map", "5", "2", "--pow", "3"],
    ["cable-slope", "5", "2", "--sign", "2"], ["dot", "triangle"], ["dot", "circle", "1/2"],
    ["enumerate", "3/10", "1/2", "extra", "more"], ["count", "1/3"], ["sweep"],
]


def test_dispatch_by_name_matches_one_top_level_parse(monkeypatch):
    # main hands argv[1:] to the parser of the command that argv[0]
    # names, as the top-level parser does, and helpers.main_oracle is
    # main with one top-level parse: the same exit code, stdout and
    # stderr on every command of scripts/cli_digests.py up to
    # denominator 12, on argvs that end in an error or in help, and with
    # no argv, as the console script calls main
    spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "scripts" / "cli_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    for argv in [*digests.commands(12), *ERROR_AND_HELP_ARGVS]:
        assert captured(main, argv) == captured(main_oracle, argv), argv
    for argv in ([], ["-h"], ["phi", "3/10"], ["phi", "3/10", "extra"], ["path", "-1/2", "1/2"]):
        monkeypatch.setattr(sys, "argv", ["fareytight", *argv])
        assert captured(main) == captured(main_oracle), argv
    # a command that parses needs no top-level parse
    monkeypatch.setattr(cli._parsers(), "parse_args", None)
    assert captured(main, ["phi", "3/10", "--format", "json"]) == (0, '{"r":"3/10","phi":1}\n', "")


def _cli_digest_commands(max_den: int) -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "scripts" / "cli_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return list(digests.commands(max_den))


# the values each option of the CLI takes
OPTION_ARITY = {"--format": 1, "--strict": 0, "--paper-mode": 0, "--interval": 2, "--bound": 1,
                "--sign": 1, "--power": 1, "--apply": 1}


def _split_options(texts: list[str]):
    """The positionals of texts, its option groups (each option with its
    OPTION_ARITY values), and for each group the count of positionals
    before it."""
    strings, groups, marks, i = [], [], [], 0
    while i < len(texts):
        if texts[i] in OPTION_ARITY:
            n = OPTION_ARITY[texts[i]] + 1
            groups.append(texts[i : i + n])
            marks.append(len(strings))
        else:
            n = 1
            strings.append(texts[i])
        i += n
    return strings, groups, marks


def _parse_variants(argv: list[str]):
    """argv with its options moved before, between and after its
    positionals, and with "--" before its positionals, the options before
    it (the same namespace) or after it (an error: they are positionals
    there)."""
    command, (strings, groups, _) = argv[0], _split_options(argv[1:])
    options = [text for group in groups for text in group]
    yield [command, *options, *strings]
    yield [command, *options, "--", *strings]
    yield [command, "--", *strings, *options]
    for i in range(1, len(strings)):
        yield [command, *strings[:i], *options, *strings[i:]]
    if len(groups) > 1:
        yield [command, *strings[:1], *groups[-1], *strings[1:], *options[: -len(groups[-1])]]


# argvs with negative slopes and option values, repeated options, "--",
# and the positionals of dot and enumerate; argparse rejects some of them
PARSE_ARGVS = [
    ["path", "-1/2", "1/2"], ["path", "--", "-1/2", "-1/3", "--format", "json"],
    ["path", "--format", "json", "--", "-1/2", "-1/3"], ["count", "-1/3", "inf", "--format", "json"],
    ["exceptional", "-1/3", "-1/2", "0", "--paper-mode", "--format", "json"],
    ["cable-map", "5", "2", "--power", "-5"], ["cable-map", "5", "2", "--apply", "-1/2", "--sign", "1"],
    ["cable-map", "5", "-2", "--sign", "-1", "--power", "-3", "--apply", "-1/2", "--format", "json"],
    ["cable-map", "--sign", "1", "5", "--power", "7", "-2"], ["cable-slope", "-5", "2", "--sign", "+1"],
    ["cable-map", "5", "2", "--power", "2", "--power", "3", "--apply", "1/3", "--apply", "-1/3"],
    ["phi", "3/10", "--format", "json", "--format", "text"], ["summary", "1/3", "--strict", "--strict"],
    ["sweep", "--interval", "-1/2", "1/2"], ["sweep", "--interval", "-1", "-1/3", "--bound", "-5"],
    ["sweep", "--interval", "1/3", "1/2", "--interval", "1/4", "1/3", "--strict", "--format", "json"],
    ["sweep", "--bound", "7", "--interval", "1/3", "1/2"], ["sweep", "--interval", "1/3"],
    ["sweep", "--interval", "1/3", "--", "1/2"], ["sweep", "--bound", "7"], ["sweep", "1/3", "1/2"],
    ["dot", "path", "1/2", "1/3"], ["dot", "triangle", "1/3"], ["dot", "path", "--", "-1/2", "1/2"],
    ["dot", "--", "path", "-1/2", "1/2"], ["dot", "path", "1/2"], ["dot", "triangle", "1/3", "1/4"],
    ["dot", "triangle", "1/3", "--", "1/4"], ["dot", "--", "path", "--", "1/2", "1/3"],
    ["enumerate", "3/10", "--format", "json", "1/2"], ["enumerate", "--format", "json", "3/10", "1/2"],
    ["enumerate", "3/10", "1/2", "--format", "json"], ["enumerate", "3/10", "--format", "tsv"],
    ["enumerate", "3/10", "--", "1/2"], ["enumerate", "--", "3/10"], ["enumerate", "3/10", "1/2", "--"],
    ["path", "1/2", "--", "--", "1/3"], ["path", "--", "--", "1/3"], ["phi", "--format", "--", "3/10"],
    ["phi", "3/10", "--", "--format", "json"], ["summary", "1/3", "--strict", "--", "--strict"],
    ["classify", "--format", "tsv"], ["classify", "1/3", "--format", "json", "1/4"], ["phi", ""],
    ["cable-map", "5", "2", "--power"], ["cable-map", "5", "2", "--power", "--sign", "1"],
    ["cable-map", "5", "2", "--power", "3.0"], ["cable-map", "5", "2", "--sign", "0"],
]


def _namespace(argv):
    """vars of the top-level parse of argv, or None where it exits."""
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(cli._parsers().parse_args(argv))
        except SystemExit:
            return None


def _grammar_form(argv):
    """argv as cli._parse reads it where argparse 3.11 exits on it: the
    "--" at its end dropped and its option groups moved after its
    positionals.  None unless argv ends in its first "--" or puts an
    option between enumerate's r and s."""
    command, rest = argv[0], argv[1:]
    cut = rest.index("--") if "--" in rest else len(rest)
    strings, groups, marks = _split_options(rest[:cut])
    strings += rest[cut + 1 :]
    split = command == "enumerate" and any(0 < k < len(strings) for k in marks)
    options = [text for group in groups for text in group]
    return [command, *strings, *options] if split or cut == len(rest) - 1 else None


def test_parse_matches_one_top_level_parse():
    # cli._parse reads argv off the command's row of the table and gives
    # the namespace that argparse gives, or None, where main runs
    # argparse: on every command of scripts/cli_digests.py up to
    # denominator 12 (all read off the table), on those commands with
    # their options moved and "--" put in, and on argvs with negative
    # slopes and option values, repeated options, "--", and dot's and
    # enumerate's positionals.  Where argparse exits, _parse gives None,
    # except on the two shapes that argparse 3.11 rejects although the
    # grammar reads them, a "--" at the end and an option between
    # enumerate's r and s: there it gives the namespace of argv with the
    # "--" dropped and the options moved after the positionals
    commands = _cli_digest_commands(12)
    assert all(cli._parse(argv) is not None for argv in commands)
    argvs = commands + PARSE_ARGVS + [v for argv in commands + PARSE_ARGVS for v in _parse_variants(argv)]
    read = reshaped = 0
    for argv in argvs:
        found, want = cli._parse(argv), _namespace(argv)
        if want is not None:
            assert found is None or vars(found) == want, argv
        else:
            form = _grammar_form(argv)
            assert (found and vars(found)) == (form and _namespace(form)), argv
            reshaped += found is not None
        read += found is not None
    # most variants are read off the table, some are left to argparse,
    # and some are read where argparse 3.11 exits
    assert len(commands) < read < len(argvs), (read, len(argvs))
    assert reshaped > 0
    found = cli._parse(["enumerate", "3/10", "--format", "json", "1/2"])
    assert vars(found) == _namespace(["enumerate", "3/10", "1/2", "--format", "json"])
    assert _namespace(["enumerate", "3/10", "--format", "json", "1/2"]) is None


def test_argvs_that_argparse_rejects_run_as_the_grammar_reads_them():
    # an option between enumerate's r and s, and a "--" at the end where
    # no positional stands next to it: each exits 0 with the bytes of the
    # same argv with the options after the positionals and no "--"
    for argv, form in (
        (["enumerate", "3/10", "--format", "json", "1/2"], ["enumerate", "3/10", "1/2", "--format", "json"]),
        (["phi", "3/10", "--format", "json", "--"], ["phi", "3/10", "--format", "json"]),
        (["sweep", "--interval", "1/3", "1/2", "--"], ["sweep", "--interval", "1/3", "1/2"]),
    ):
        want = run_captured(form)
        assert want[0] == 0 and want[1] and _grammar_form(argv) == form, argv
        assert run_captured(argv) == want, argv


def test_parse_leaves_errors_and_help_to_argparse():
    # of the argvs that end in an error or in help, only one is read off
    # the table: argparse reads it too, and the library rejects it (exit 3)
    found = [argv for argv in ERROR_AND_HELP_ARGVS if cli._parse(argv) is not None]
    assert found == [["exceptional", "--", "-1", "0", "1"]]
    assert _namespace(found[0]) is not None and run_captured(found[0])[0] == 3


def test_a_command_that_parses_builds_no_parser():
    cli._parsers.cache_clear()
    assert run_captured(["phi", "3/10"]) == (0, "1\n", "")
    assert cli._parsers.cache_info().currsize == 0
    assert run_captured(["phi", "3/10", "--format=json"])[0] == 0  # left to argparse
    assert cli._parsers.cache_info().currsize == 1


def test_path_on_the_fans_of_0_and_inf():
    # a block on the fan of 0 holds its numerator, +-1, in the template,
    # and a block on the fan of inf is integers: each format equals the
    # text made from str(v) of every vertex, on a fan of 0 that crosses
    # inf, integers that cross 0, negative unit fractions, and blocks of
    # more members than one write holds: no member's unit is under 4
    # bytes, so no write holds n of them
    n = _BYTES_PER_WRITE // 4 + 7
    for a, b, fan in (("1/40", "-1/40", ZERO), ("-40", "40", INF), ("0", "40", INF),
                      ("-1/2", "-1/40", ZERO), ("1/%d" % n, "-1/%d" % n, ZERO), ("-%d" % n, str(n), INF)):
        path = minimal_path(parse_slope(a), parse_slope(b))
        assert {make_slope(pn, pd) for (pd, pn), _, _ in path.block_vectors} == {fan}, (a, b)
        want = path_texts_oracle(path.vertices)
        for fmt in ("text", "json", "dot"):
            pieces = list(_output.path_text(path, fmt))
            assert (0, "".join(pieces) + "\n", "") == want[fmt], (a, b, fmt)
            # a block of n members is cut into several writes
            assert len(path) < n or 2 * max(map(len, pieces)) < len(want[fmt][1]), (a, b, fmt)


def _member_oracle(template: str, pivot, base, k: int) -> str:
    """template with the text of member base + k*pivot of a fan, (den,
    num) vectors, in place of each "%s": the text made by Fraction."""
    d, n = base[0] + k * pivot[0], base[1] + k * pivot[1]
    text = "inf" if d == 0 else str(Fraction(n, d))
    return template % ((text,) * template.count("%s"))


# (pivot, base) as (den, num): the fans of 0 (through inf at k = 0), of
# inf (the integers), of 1/3 (through 0 at k = 0) and of 2/5, whose
# members pass inf between k = -1 and 0
MEMBER_FANS = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((3, 1), (1, 0)), ((5, 2), (3, 1))]

# a text, a JSON list, a path's arrows, and the DOT path and node
# templates, which hold "%s" twice
MEMBER_TEMPLATES = [" %s", ',"%s"', " → %s", _output._PATH_TEMPLATES["dot"][1],
                    '\n  "k3_l%s" [label="k=3 l=%s\\nStein 2", fillcolor="palegreen"];']


def test_format_members_matches_a_text_per_member(monkeypatch):
    # format_members makes a short range a member at a time and a longer
    # one in % operations over its runs: both equal the oracle's text of
    # each member, on every range length from 0 to 40, starting on either
    # side of the members with denominator 0 and +-1, in every template,
    # with no empty piece
    assert 0 < _output._SHORT < 40
    for (pivot, base), template, lo in itertools.product(MEMBER_FANS, MEMBER_TEMPLATES, (-45, -21, -2, 0, 3)):
        for size in range(41):
            pieces = list(_output.format_members(template, pivot, base, lo, lo + size))
            want = "".join(_member_oracle(template, pivot, base, k) for k in range(lo, lo + size))
            assert "".join(pieces) == want and all(pieces), (pivot, base, template, lo, size)
    # members of about 5,000 digits on the fan of F(12001)/F(12000), with
    # the bound patched to 2,000 characters: each piece of a short range
    # and of a long one holds at most the bound and one member
    fib = [0, 1]
    while len(fib) < 12002:
        fib.append(fib[-1] + fib[-2])
    pivot, base = (fib[12001], fib[12000]), (fib[12000], fib[11999])
    monkeypatch.setattr(_output, "_BYTES_PER_WRITE", 2000)
    for size in (8, 40):
        for template in MEMBER_TEMPLATES:
            texts = [_member_oracle(template, pivot, base, k) for k in range(-3, size - 3)]
            assert min(map(len, texts)) > 4900
            pieces = list(_output.format_members(template, pivot, base, -3, size - 3))
            assert "".join(pieces) == "".join(texts) and len(pieces) > 1, (size, template)
            assert max(map(len, pieces)) <= 2000 + max(map(len, texts)), (size, template)


def test_enumerate_tsv_rows_match_the_classes(monkeypatch):
    # the rows of `enumerate r s --format tsv` glue the minus counts and
    # the decorated path of each class, written 3 rows at a time, the
    # byte bound patched to 3 units, so that writes cut the groups of
    # ClassTexts; on paths with no signed block, one, and several, which
    # ClassTexts splits into two factors.  With _KEPT_CHARS 0 the texts
    # of every block are made when read (_Made), so each glued text comes
    # from _product_text
    cases = (("1/3", "1/2"), ("-1/3", "inf"), ("9/25", "1/2"), ("41/187", "1/4"), ("29/81", "1/2"))
    for (r, s), kept in itertools.product(cases, (_output._KEPT_CHARS, 0)):
        rows = ["%s\t%s\t%s\t%s\n" % (r, s, ",".join(map(str, c.iso_class.minus_counts)), c.iso_class)
                for c in enumerate_tight(parse_slope(r), parse_slope(s))]
        argv = ["enumerate", r, s, "--format", "tsv"]
        unit, sink = _unit_bytes(argv), RecordingSink()
        with monkeypatch.context() as patch, contextlib.redirect_stdout(sink):
            patch.setattr(_output, "_BYTES_PER_WRITE", 3 * unit)
            patch.setattr(_output, "_KEPT_CHARS", kept)
            assert main(argv) == 0
        assert sink.writes[1:] == ["".join(rows[a : a + 3]) for a in range(0, len(rows), 3)], (r, s, kept)
        assert sink.writes[0] == "r\ts\tminus\tP\n"


# length and sha256 of stdout, captured before the listings were
# streamed one cell at a time
LISTING_GOLDENS = [
    (["classify", "7960/23481", "--format", "json"], 17567706,
     "8b5dc206c649fe21bc695a2f6d85d6c9dff63f94b8a5b6bdf013a2639b80a2d3"),
    (["classify", "1/300", "--format", "tsv"], 2044632,
     "5bff0dd89f7f7b5e7429fa06b78f16ada580e40b59a05231a0b91eef0d10aaf1"),
    (["enumerate", "3905/19029", "--format", "tsv"], 8115388,
     "db7541966ce22a3b5f90a15c7e95a237a331b9221de32ff2e5685d4ba87fb804"),
]


def test_listing_goldens():
    for argv, size, digest in LISTING_GOLDENS:
        code, out, err = run_captured(argv)
        data = out.encode("utf-8")
        assert (code, err) == (0, ""), argv
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest), argv


# exit code, UTF-8 length and sha256 of `classify r --format F`,
# captured when each row's verdict text was glued onto it one row at a
# time: 1/r = [3,20,20,20] (7960/23481), [5,8,8,8,8] (3905/19029) and
# [5,4,3,6,5] (299/1413) are coefficients of the triangle workload, and
# 1/300 a triangle of one-row cells.  142/649 (Thm 1.3, where the Side
# verdicts alternate row by row) and 17/47 (Thm 1.4) lie in theorem
# windows, so every structure is covered and --strict exits 0.
CLASSIFY_PINS = {
    "7960/23481": {
        "text": (0, 1001414, "8bc246ea7a90e3a9eeb3c0ff614bdc8da5afe1f209b4a99c8bfaaa336c275d81"),
        "json": (0, 17567706, "8b5dc206c649fe21bc695a2f6d85d6c9dff63f94b8a5b6bdf013a2639b80a2d3"),
        "tsv": (0, 775099, "284e42920ad3f361e8132987f0c28237b59cceab9aa3488ed06b1b7be71cecbc"),
        "tsv --strict": (4, 775099, "284e42920ad3f361e8132987f0c28237b59cceab9aa3488ed06b1b7be71cecbc"),
    },
    "3905/19029": {
        "text": (0, 1188495, "417d7b57eb6a193b8c29451e7e628fc42ff4e0fa4ad6bc2af0f8e8862fe0a136"),
        "json": (0, 11080617, "45cac635b733f438e900664cbb3be7da62668751cb250283d3b1df7f69aed1dc"),
        "tsv": (0, 948427, "77e2c765516719ad1fd530ca6308dee2684cf299d6789edd30f8c3bb55fba184"),
        "tsv --strict": (4, 948427, "77e2c765516719ad1fd530ca6308dee2684cf299d6789edd30f8c3bb55fba184"),
    },
    "1/300": {
        "text": (0, 2848330, "886fd06b3cb0d7c67ce7654e603e852c95635d7ce9ef9f844e3132fce26c9e0f"),
        "json": (0, 6799892, "65c31a6220f63db4db2066e24f10dc3bb85b67273a33deb58d3473b5a962759f"),
        "tsv": (0, 2044632, "5bff0dd89f7f7b5e7429fa06b78f16ada580e40b59a05231a0b91eef0d10aaf1"),
        "tsv --strict": (4, 2044632, "5bff0dd89f7f7b5e7429fa06b78f16ada580e40b59a05231a0b91eef0d10aaf1"),
    },
    "299/1413": {
        "text": (0, 59400, "b8c92d202537189e50894301e6c70212db29bcbc57d330428f974638bc03e6c3"),
        "json": (0, 323402, "c721fc349b5aec5832672f262a90096cf793d68f900408ad77750ce7fa4281a5"),
        "tsv": (0, 45032, "32ebf874188b19ab5874c9b8bce312587b6b3c6c7272ec591675e0627e6b6f80"),
        "tsv --strict": (4, 45032, "32ebf874188b19ab5874c9b8bce312587b6b3c6c7272ec591675e0627e6b6f80"),
    },
    "142/649": {
        "text": (0, 21360, "167a0bae183a6e8b30e0ebf313aedfe701bbc7a2f43ceea093cb8efcba5a2631"),
        "json": (0, 160842, "cba820dafe5cedad87d90ccb92ad11b1217c99eaed0180bd149398588dd19098"),
        "tsv": (0, 21472, "af4323478b9bd4c1a7f5553a4f7773204a8dd3f408766247ffb61296e45234d5"),
        "text --strict": (0, 21360, "167a0bae183a6e8b30e0ebf313aedfe701bbc7a2f43ceea093cb8efcba5a2631"),
        "json --strict": (0, 160842, "cba820dafe5cedad87d90ccb92ad11b1217c99eaed0180bd149398588dd19098"),
        "tsv --strict": (0, 21472, "af4323478b9bd4c1a7f5553a4f7773204a8dd3f408766247ffb61296e45234d5"),
    },
    "17/47": {
        "text": (0, 606, "207dbd3d52c5d2d5d99bcbbc071b835e143f3b2a23893b4e2faf27559a2b3295"),
        "json": (0, 1988, "051fb0260e68c6187ffa34e512a7d4be270aa668228999dddbb1b3d23b13c894"),
        "tsv": (0, 422, "b9f1f9305b4d55de0c2d99dc9fa532590d74ce934d48100defd6374acd8c60b1"),
        "text --strict": (0, 606, "207dbd3d52c5d2d5d99bcbbc071b835e143f3b2a23893b4e2faf27559a2b3295"),
        "json --strict": (0, 1988, "051fb0260e68c6187ffa34e512a7d4be270aa668228999dddbb1b3d23b13c894"),
        "tsv --strict": (0, 422, "b9f1f9305b4d55de0c2d99dc9fa532590d74ce934d48100defd6374acd8c60b1"),
    },
}


def test_classify_bytes_are_pinned():
    for r, pins in CLASSIFY_PINS.items():
        for fmt, (code, size, digest) in pins.items():
            argv = ["classify", r, "--format", *fmt.split()]
            sink = DigestSink()
            with contextlib.redirect_stdout(sink):
                got = main(argv)
            assert (got, sink.nbytes, sink.sha.hexdigest()) == (code, size, digest), argv


class NullSink(io.TextIOBase):
    """A stdout that keeps nothing of what is written to it."""

    def write(self, text):
        return len(text)


class DigestSink(io.TextIOBase):
    """A stdout that keeps the UTF-8 size and sha256 of what is written
    to it, the largest write in characters, and the largest write's
    string and its UTF-8 copy in bytes."""

    def __init__(self):
        self.nbytes, self.sha, self.largest, self.largest_bytes = 0, hashlib.sha256(), 0, 0

    def write(self, text):
        data = text.encode("utf-8")
        self.sha.update(data)
        self.nbytes += len(data)
        self.largest = max(self.largest, len(text))
        self.largest_bytes = max(self.largest_bytes, sys.getsizeof(text), len(data))
        return len(text)


def test_json_listings_keep_one_head_of_p():
    # `enumerate r` and `classify r` keep P's path and blocks once per
    # listing, not once per class: 1/r = [3,20,20,20] has 6,859 classes
    # on a 55-edge path.  On Python 3.11 the traced peaks were 9.3 MB
    # (enumerate) and 9.8 MB (classify) when each class kept its own
    # text, 2.4 MB and 5.2 MB with one head, and are 1.3 MB and 0.9 MB
    # with rows gathered across cells and the tails of classify made
    # per write.  1/r = [4,2000]: every row repeats a 2,000-edge path,
    # about 20 KB, so a write of 1 MiB holds 52 rows; the traced peaks
    # are 2.7 MB for both listings, and were 32.9 MB when a write held
    # 512 rows whatever their length.
    run_captured(["phi", "1/3"])  # what a first command makes once per process, outside the trace
    for command in ("enumerate", "classify"):
        for r in ("7960/23481", "2000/7999"):
            with contextlib.redirect_stdout(NullSink()):
                tracemalloc.start()
                try:
                    code = main([command, r, "--format", "json"])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert (code, peak < 6_000_000) == (0, True), (command, r, peak)


def test_classify_json_keeps_no_text_per_position_and_class():
    # classify glues a verdict onto P's minus counts per write, so its
    # memory does not grow with positions x phi: 1/r = [4,16,16,16] has
    # n = 3, four positions and 3,375 classes.  On Python 3.11 the traced
    # peaks are 0.77 MB (classify) and 0.68 MB (enumerate); classify
    # peaked at 3.5 MB when it kept one row text per position and class,
    # and enumerate at 0.87 MB when it kept one text per class.
    run_captured(["phi", "1/3"])  # what a first command makes once per process, outside the trace
    peaks = {}
    for command in ("enumerate", "classify"):
        with contextlib.redirect_stdout(NullSink()):
            tracemalloc.start()
            try:
                code = main([command, "4064/16001", "--format", "json"])
                peaks[command] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0, command
    assert phi(parse_slope("4064/16001")) == 3375
    assert max(peaks.values()) < 870_000, peaks


@pytest.mark.parametrize("argv", [["10200/30499"], ["30499/81297", "1/2"]])
def test_enumerate_keeps_no_text_per_class(argv):
    # enumerate slices the texts of each write from the two factors of
    # ClassTexts, split where they balance.  10200/30499 (1/r =
    # [3,101,101], 10,000 classes in each of three cells) peaked at 51
    # MB traced on Python 3.11 when `enumerate r` kept one text per
    # class, and 30499/81297 1/2 (signed blocks of 99, 99 and 1 edges)
    # at 55 MB when the first factor held every block but the last; both
    # peak at about 5 MB now.
    run_captured(["phi", "1/3"])  # what a first command makes once per process, outside the trace
    for fmt in ("text", "tsv"):
        with contextlib.redirect_stdout(NullSink()):
            tracemalloc.start()
            try:
                code = main(["enumerate", *argv, "--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (code, peak < 10_000_000) == (0, True), (fmt, peak)


def test_enumerate_keeps_no_text_per_count_of_a_long_block():
    # 3001/9002 1/2 is one signed block of 2,999 edges: 3,000 rows of
    # about 43 KB, 131 MB of text.  When the block kept the texts of its
    # 3,000 minus counts, the traced peak was 452 MB on Python 3.11; its
    # texts are now cut from the all-plus and the all-minus text per
    # write, and the peak is about 1.4 MB.  The bytes are checked against
    # the size and sha256 of the output of the commit before.
    run_captured(["phi", "1/3"])  # what a first command makes once per process, outside the trace
    for fmt, size, digest in (
        ("text", 130599000, "af9eb1a864dcf5ac5b89f0b81915385609808a7c6399edaa29d5a4168ae2fab8"),
        ("tsv", 130654902, "8a67ef182fa3358df74d6798107d2dfff20bf50ded37a387b027ba36998b362f"),
    ):
        sink = DigestSink()
        with contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["enumerate", "3001/9002", "1/2", "--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (code, peak < 10_000_000) == (0, True), (fmt, peak)
        assert (sink.nbytes, sink.sha.hexdigest()) == (size, digest), fmt


def test_path_streams_in_bounded_memory():
    # `path 1/200000 1/2` (199,998 edges, 2.5 MB of text) is written a
    # slice at a time from the block integers, so no write holds the
    # whole geodesic and no Slope is made per vertex
    run_captured(["phi", "1/3"])  # what a first command makes once per process, outside the trace
    for fmt in ("text", "json", "dot"):
        with contextlib.redirect_stdout(NullSink()):
            tracemalloc.start()
            try:
                code = main(["path", "1/200000", "1/2", "--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (code, peak < 5_000_000) == (0, True), (fmt, peak)


def test_path_matches_oracle():
    # every ordered pair with |num|, den <= 3, and geodesics of more
    # vertices and edges than one write holds (no vertex or edge index
    # takes fewer than 4 bytes): in one block with positive
    # denominators, in one block from inf with negative ones in its
    # lift, and through the integers, whose texts are made one by one;
    # against the text made in one piece from the greedy vertices
    box = all_slopes_in_box(3)
    pairs = [(a, b) for a in box for b in box]
    n = _BYTES_PER_WRITE // 4
    pairs += [(parse_slope(a), parse_slope(b)) for a, b in (
        ("1/%d" % (n + 5), "1/2"), ("inf", "-%d/%d" % (3 * n + 16, n + 5)), ("0", str(n + 3)))]
    for a, b in pairs:
        want = path_output_oracle(a, b)
        for fmt in ("text", "json", "dot"):
            argv = ["path", "--format", fmt, "--", str(a), str(b)]
            assert run_captured(argv) == want[fmt], argv


def test_path_writes_are_bounded_in_bytes():
    # `path 0 5000/N`, N = 1 + 5000*10**1000, is one block of 5,000
    # edges whose inner vertices k/(1 + k*10**1000) have about 1,000
    # digits each, about 5 MB of text and 10 MB of DOT, so the byte bound
    # cuts the block's writes
    b = parse_slope("5000/%d" % (1 + 5000 * 10**1000))
    path = minimal_path(ZERO, b)
    assert [m for _, _, m in path.block_vectors] == [5000]
    want = path_texts_oracle(path.vertices)
    longest = max(len(str(v)) for v in path.vertices)
    assert len(path) * longest > 3 * _BYTES_PER_WRITE
    for fmt in ("text", "json", "dot"):
        sink = RecordingSink()
        with contextlib.redirect_stdout(sink):
            assert main(["path", "0", str(b), "--format", fmt]) == 0, fmt
        assert (0, "".join(sink.writes), "") == want[fmt], fmt
        assert max(map(len, sink.writes)) <= _BYTES_PER_WRITE + longest, fmt


def test_listing_domain_errors_write_nothing():
    # r is checked before the first byte of a listing is written
    for argv in (["classify", "3/2", "--format", "json"], ["classify", "0", "--format", "tsv"],
                 ["enumerate", "inf"], ["dot", "triangle", "3/2"]):
        assert run_captured(argv) == (3, "", "error: surgery coefficient must lie in (0,1)\n")


UNIT_RATIONALS_40 = ["%d/%d" % (p, q) for q in range(2, 41) for p in range(1, q) if gcd(p, q) == 1]


def test_listings_match_oracle_exhaustive():
    # n = 1 (2/3) up to n = 39 (1/40); uncovered (1/3); Thm 1.4 (9/25)
    # and Thm 1.3 for n = 2..4 (3/8, 5/18, 7/32)
    assert {"2/3", "1/40", "1/3", "9/25", "3/8", "5/18", "7/32"} <= set(UNIT_RATIONALS_40)
    for r in UNIT_RATIONALS_40:
        for argv in listing_commands(r):
            assert run_captured(argv) == listing_oracle(argv), argv


def _rows_in_first_write(argv) -> int:
    """The number of rows that the first write of a listing's rows holds."""
    sink = RecordingSink()
    with contextlib.redirect_stdout(sink):
        assert main(argv) in (0, 4), argv
    if "json" in argv:
        return sink.writes[1].count('{"r":')  # after the "["
    return sink.writes["tsv" in argv].count("\n")  # after the TSV header


def _unit_bytes(argv) -> int:
    """The _size of the unit, a row as long as the longest, by which the
    listing of argv sizes its writes (the argument of its one per_write
    call): with _BYTES_PER_WRITE at m times that, a write holds m rows."""
    units, per_write = [], _output.per_write
    with pytest.MonkeyPatch.context() as spy, contextlib.redirect_stdout(NullSink()):
        spy.setattr(_output, "per_write", lambda unit: units.append(unit) or per_write(unit))
        assert main(argv) in (0, 4), argv
    assert len(units) == 1, argv
    return _output._size(units[0])


def _assert_listings_match_oracle_at_the_row_bound(r, monkeypatch):
    """listing_commands(r) against the oracle, at the default byte bound
    and with the byte bound patched to 512 units, where a write holds 512
    rows."""
    for argv in listing_commands(r):
        want = listing_oracle(argv)
        assert run_captured(argv) == want, argv
        with monkeypatch.context() as patch:
            patch.setattr(_output, "_BYTES_PER_WRITE", 512 * _unit_bytes(argv))
            assert _rows_in_first_write(argv) == 512, argv
            assert run_captured(argv) == want, argv


def test_listings_match_oracle_at_write_slices(monkeypatch):
    # cells of as many rows as one write holds (1/r = [3,9,9,9]), one
    # more, so that the second slice holds a single row ([3,4,4,4,20]),
    # and exactly two full slices ([3,9,9,17]), 512 rows to a write
    for r, rows in (("711/2053", 512), ("1105/3019", 513), ("1351/3901", 1024)):
        assert phi(parse_slope(r)) == rows
        _assert_listings_match_oracle_at_the_row_bound(r, monkeypatch)


def test_listings_match_oracle_where_a_write_cuts_a_small_cell(monkeypatch):
    # 1/r = [21,4]: n = 20 and phi = 3, so 210 cells of 3 rows; at 512
    # rows to a write, the first write ends after 170 cells and two rows
    # of the next
    assert phi(parse_slope("4/83")) == 3 and 512 % 3 and 210 * 3 > 512
    _assert_listings_match_oracle_at_the_row_bound("4/83", monkeypatch)


def test_listings_match_oracle_where_bytes_bound_a_write():
    # 1/r = [4,300]: six cells of 299 rows on a 300-edge path, 1,794
    # rows of about 4.1 KB in JSON and 3.2 KB in the text and TSV of
    # `enumerate r`, so the byte bound holds a write to 255-325 rows and
    # cuts cells where it ends
    assert phi(parse_slope("300/1199")) == 299
    for argv in listing_commands("300/1199"):
        want = listing_oracle(argv)
        assert run_captured(argv) == want, argv
        if argv[0] == "enumerate":
            rows = _rows_in_first_write(argv)
            assert 0 < rows < 1794 and rows % 299, argv


def test_listings_match_oracle_where_writes_cut_runs_of_cells(monkeypatch):
    # a write of 7 rows, the byte bound patched to 7 units, cuts the runs
    # of one-row cells of 1/40 (n = 39, runs of up to 39 cells) and the
    # cells of 4/83 (three rows) and 9/25 (n = 2) inside and between them
    for r in ("1/40", "4/83", "9/25"):
        for argv in listing_commands(r):
            with monkeypatch.context() as patch:
                patch.setattr(_output, "_BYTES_PER_WRITE", 7 * _unit_bytes(argv))
                assert _rows_in_first_write(argv) == 7, argv
                assert run_captured(argv) == listing_oracle(argv), argv


def _cuts(r: str, m: int) -> set[str]:
    """Where writes of m rows cut the cells of `classify r`: "inside" a
    run of rows of one verdict, or "between" two runs of one cell."""
    _, out, _ = listing_oracle(["classify", r, "--format", "tsv"])
    rows = [line.split("\t")[1:] for line in out.splitlines()[1:]]  # k, l, then the verdict
    return {"inside" if a[2:] == b[2:] else "between"
            for a, b in (rows[g - 1 : g + 1] for g in range(m, len(rows), m)) if a[:2] == b[:2]}


def test_listings_match_oracle_where_writes_cut_verdicts_that_vary_with_p(monkeypatch):
    # phi = 40, and the verdicts of some cells vary with P: those of Top
    # by Thm 1.4 (94/261, n = 2) and Thm 1.5 (134/505, n = 3), whose
    # runs of one verdict are 1, 38 and 1 rows, and those of both Sides
    # by Thm 1.3 (142/649, n = 4), whose last signed block is one edge,
    # so that their runs are one row each.  Writes of 3 and 7 rows cut
    # inside runs and between them
    for r in ("94/261", "134/505", "142/649"):
        assert phi(parse_slope(r)) == 40
        assert set().union(*(_cuts(r, m) for m in (3, 7))) == {"inside", "between"}, r
        for m in (3, 7):
            for argv in listing_commands(r):
                with monkeypatch.context() as patch:
                    patch.setattr(_output, "_BYTES_PER_WRITE", m * _unit_bytes(argv))
                    assert _rows_in_first_write(argv) == m, argv
                    assert run_captured(argv) == listing_oracle(argv), argv


class RecordingSink(io.TextIOBase):
    """A stdout that keeps every write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_listing_writes_stay_below_the_mmap_threshold():
    # glibc maps an allocation of 128 KiB or more afresh by default
    # (M_MMAP_THRESHOLD), and neither a write's string nor its UTF-8
    # copy reaches that.  classify 7960/23481 --format json made writes
    # of 437 KB, and enumerate 1/300 of 2.1 MB (2 bytes a character in
    # CPython, as its text holds the arrow →), when a write held 1 MiB
    # of characters.  The same holds for the rest of the output text:
    # paths of many short vertices, of a few on the fan of inf, and of
    # 1,000-digit vertices, in every format; a DOT triangle; and the
    # 3,000 rows of about 43 KB of one long signed block.
    argvs = [argv for r in ("7960/23481", "3905/19029", "1/300") for argv in listing_commands(r)]
    far = "5000/%d" % (1 + 5000 * 10**1000)
    argvs += [["path", a, b, "--format", fmt] for a, b in (("1/200000", "1/2"), ("0", far), ("0", "200000"))
              for fmt in ("text", "json", "dot")]
    argvs += [["dot", "path", "1/200000", "1/2"], ["dot", "triangle", "1/1000"]]
    argvs += [["enumerate", "3001/9002", "1/2", "--format", fmt] for fmt in ("text", "json", "tsv")]
    for argv in argvs:
        sink = DigestSink()
        with contextlib.redirect_stdout(sink):
            assert main(argv) in (0, 4), argv
        assert sink.largest_bytes < 1 << 17, (argv, sink.largest_bytes)


# length and sha256 of the sweep below in each format, captured when
# sweep wrote each row on its own
SWEEP_GOLDENS = {
    "tsv": (79541, "63bf8efb04d05e5d372a547384e50fb81e170a836086348a80ce30b7f1c286e5"),
    "json": (232573, "81d0bf91447d3735507f834552f8a103aac908db2f7880def9383f5c77a8c1b7"),
}


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_sweep_writes_are_bounded(monkeypatch, fmt):
    # sweep --interval 1/100000 1 --bound 120: 4,385 rows, which made as
    # many writes (and one more) of 18 characters on average in TSV.  No
    # write holds more than _BYTES_PER_WRITE and one row, and there are as
    # few writes as that allows; the same with the bound patched to 2,000
    # bytes, so that writes cut the rows many times
    argv = ["sweep", "--interval", "1/100000", "1", "--bound", "120", "--format", fmt]
    for bound in (_BYTES_PER_WRITE, 2000):
        sink = RecordingSink()
        with monkeypatch.context() as patch, contextlib.redirect_stdout(sink):
            patch.setattr(_output, "_BYTES_PER_WRITE", bound)
            assert main(argv) == 0
        text = "".join(sink.writes)
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == SWEEP_GOLDENS[fmt]
        rows = re.findall(r",?\{[^}]*\}", text) if fmt == "json" else text.splitlines(True)
        assert len(rows) == 4385 + (fmt == "tsv")
        assert max(map(len, sink.writes)) <= bound + max(map(len, rows)) + len("]\n"), (fmt, bound)
        assert len(sink.writes) <= len(text) // bound + 1, (fmt, bound)


def _cf_oracle_text(x, fmt: str) -> tuple[str, int]:
    """The text of `cf x` made in one piece from cf_minus_oracle, and
    its unit: a separator and the longest entry."""
    entries = [str(e) for e in cf_minus_oracle(x)]
    text = ",".join(entries)
    return ('{"x":"%s","entries":[%s]}\n' % (x, text) if fmt == "json" else "[%s]\n" % text,
            1 + max(map(len, entries)))


def _exceptional_oracle_text(argv, members, fmt: str) -> tuple[str, int]:
    """The text of `exceptional s0 s1 s_neg1` (argv) made in one piece
    from its member slopes, ascending, and its unit: a separator, quotes
    in JSON, and the longest member."""
    texts = [str(t) for t in members]
    if fmt == "json":
        obj = {"s0": argv[0], "s1": argv[1], "s_neg1": argv[2], "paper_mode": False, "exceptional": texts}
        return json.dumps(obj, separators=(",", ":")) + "\n", 3 + max(map(len, texts))
    return " ".join(texts) + "\n", 1 + max(map(len, texts))


def _long_answers(fmt: str):
    """(argv, text, unit) of `cf` and `exceptional` answers many writes
    long, each text made in one piece by an oracle that shares no code
    with the command."""
    # one run of 10**5 2s; runs of 2s around an entry of 31 digits
    entries = (3,) + (2,) * 60000 + (10**30,) + (2,) * 50000 + (7,)
    for x in (make_slope(10**5 + 1, 10**5), cf_value(ContinuedFraction(entries))):
        yield (["cf", str(x)], *_cf_oracle_text(x, fmt))
    # the fan of 0 from -1 through inf to 1: -1/k, then 1/k, then inf, k < 30000
    n = 30000
    members = [make_slope(-1, k) for k in range(1, n)] + [make_slope(1, k) for k in range(n - 1, 0, -1)] + [INF]
    argv = ["0", "1/%d" % n, "-1/%d" % n]
    yield (["exceptional", *argv], *_exceptional_oracle_text(argv, members, fmt))
    # the fan of 1/3, whose neighbours are p/(3p + 1) and p/(3p - 1), on the
    # arc from 30000/90001 through 0, inf and 1/2 to 30000/89999: the
    # members pass inf between 0 and 1/2
    members = [make_slope(p, 3 * p + 1) for p in range(n)] + [make_slope(p, 3 * p - 1) for p in range(1, n)]
    argv = ["1/3", "%d/%d" % (n, 3 * n + 1), "%d/%d" % (n, 3 * n - 1)]
    yield (["exceptional", *argv], *_exceptional_oracle_text(argv, sorted(members, key=sort_key_oracle), fmt))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cf_and_exceptional_writes_are_bounded(monkeypatch, fmt):
    # answers of 200 KB to 780 KB: each equals its oracle text; no write
    # holds more than _BYTES_PER_WRITE and one unit, and two writes in a
    # row hold more than the bound together, so the writes are few; the
    # same with the bound patched to 2,000 characters, so that writes cut
    # the runs of 2s and the ranges of members many times
    for argv, want, unit in _long_answers(fmt):
        assert len(want) > 3 * _BYTES_PER_WRITE, argv
        for bound in (_BYTES_PER_WRITE, 2000):
            sink = RecordingSink()
            with monkeypatch.context() as patch, contextlib.redirect_stdout(sink):
                patch.setattr(_output, "_BYTES_PER_WRITE", bound)
                assert main(argv + ["--format", fmt]) == 0, argv
            assert "".join(sink.writes) == want, (argv, bound)
            assert max(map(len, sink.writes)) <= bound + unit, (argv, bound)
            assert all(len(a) + len(b) > bound for a, b in zip(sink.writes, sink.writes[1:])), (argv, bound)


def test_cf_and_exceptional_answers_that_fit_are_one_write():
    # an answer that fits in _BYTES_PER_WRITE is written at once: small
    # ones, an empty one, and 40 to 60 KB in one run of 2s, in 500 runs,
    # and in the three ranges of members of the fan of 0
    argvs = [["cf", "25/9"], ["cf", "7"], ["cf", "20001/20000"],
             ["cf", str(cf_value(ContinuedFraction(((3,) + (2,) * 99) * 250)))],
             ["exceptional", "1/4", "2/9", "1/3"], ["exceptional", "0", "1/2", "1/3"],
             ["exceptional", "1/4", "2/9", "1/3", "--paper-mode"], ["exceptional", "0", "1/3500", "-1/3500"]]
    for argv in argvs:
        for fmt in ("text", "json"):
            sink = RecordingSink()
            with contextlib.redirect_stdout(sink):
                assert main(argv + ["--format", fmt]) == 0, argv
            assert len(sink.writes) == 1 and len(sink.writes[0]) < _BYTES_PER_WRITE, (argv, fmt)
            if argv[0] == "cf":
                assert sink.writes[0] == _cf_oracle_text(parse_slope(argv[1]), fmt)[0], argv
    assert len(sink.writes[0]) > 50_000


def test_dot_triangle_writes_are_bounded():
    # dot triangle 1/3000: n = 2999 and 4,498,500 cells, 424 MB of DOT;
    # a row of cells was one write of up to 234 KB.  No write holds more
    # than _BYTES_PER_WRITE and one cell, and no cell is longer than one
    # with k = l = 2999, the longest status and the longest colour (phi
    # = 1, so each cell holds one status).  The bytes are checked
    # against the size and sha256 of the DOT of the commit before rows
    # were cut.
    longest = len('\n  "k2999_l2999" [label="k=2999 l=2999\\nStrongSteinConditional 1", '
                  'fillcolor="lightcoral"];')
    sink = DigestSink()
    with contextlib.redirect_stdout(sink):
        assert main(["dot", "triangle", "1/3000"]) == 0
    assert (sink.nbytes, sink.sha.hexdigest()) == (
        424087096, "1dcc4558bac34ad6edeb763ec2450d596a387706d669cd71d38618153fd0d43b")
    assert sink.largest <= _BYTES_PER_WRITE + longest


def _classify_rows_oracle(r: str, fmt: str) -> list[str]:
    """The rows of `classify r` for phi(r) = 1, made one by one with %
    from one verdict (classify_oracle) and one P per triangle position."""
    slope = parse_slope(r)
    n = n_of(slope)
    (P,) = [c.iso_class for c in enumerate_tight(slope, parse_slope("1/%d" % n))]
    tails = {}
    for k in range(1, n + 1):
        for l in range(n - k + 1):
            pos = TrianglePosition.of(n, k, l)
            if pos not in tails:
                verdict = classify_oracle(TightStructureId(slope, k, l, P))
                status, cite, note = verdict.status.value, verdict.cite, verdict.note
                if fmt == "json":
                    obj = {"P": P.to_json(), "position": pos.tag, "status": status, "cite": cite}
                    obj.update({"note": note} if note is not None else {})
                    tails[pos] = "," + json.dumps(obj, separators=(",", ":"))[1:]
                else:
                    tails[pos] = "\t%s\t%s\t%s\t%s\n" % (pos.tag, status, cite or "", note or "")
    if fmt == "json":
        return ['{"r":"%s","k":%d,"l":%d%s' % (r, k, l, tails[TrianglePosition.of(n, k, l)])
                for k in range(1, n + 1) for l in range(n - k + 1)]
    return ["%s\t%d\t%d%s" % (r, k, l, tails[TrianglePosition.of(n, k, l)])
            for k in range(1, n + 1) for l in range(n - k + 1)]


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_classify_writes_are_bounded_at_large_n(fmt):
    # classify 1/700: n = 699, 244,650 one-row cells in runs of up to
    # 699 cells.  Every write but the last holds as many rows as
    # _BYTES_PER_WRITE holds at the length of the longest, with its
    # separator: 428 rows of up to 153 characters in JSON, 1,394 of up
    # to 47 in TSV.  None holds more than _BYTES_PER_WRITE and one row.
    rows = _classify_rows_oracle("1/700", fmt)
    sink = RecordingSink()
    with contextlib.redirect_stdout(sink):
        assert main(["classify", "1/700", "--format", fmt]) == 0
    if fmt == "json":
        assert "".join(sink.writes) == "[" + ",".join(rows) + "]\n"
        assert sink.writes[0] == "[" and sink.writes[-1] == "]\n"
        counts = [w.count('{"r":') for w in sink.writes[1:-1]]
    else:
        assert "".join(sink.writes) == "r\tk\tl\tposition\tstatus\tcite\tnote\n" + "".join(rows)
        counts = [w.count("\n") for w in sink.writes[1:]]
    assert sum(counts) == len(rows) == 699 * 700 // 2
    sep = "," if fmt == "json" else ""
    per_write = _BYTES_PER_WRITE // max(len(sep + row) for row in rows)
    assert set(counts[:-1]) == {per_write} and 0 < counts[-1] <= per_write
    longest = max(map(len, rows)) + 1
    assert max(map(len, sink.writes)) <= _BYTES_PER_WRITE + longest


# p >= q/30 keeps n below 30: the oracle's `enumerate r` text builds a
# path of up to n + len(P) edges per structure, and the exhaustive test
# above already reaches n = 39
@settings(max_examples=25, deadline=None)
@given(st.integers(2, 150).flatmap(
    lambda q: st.tuples(st.integers(max(1, q // 30), q - 1), st.just(q))
))
@example((3, 5))  # n = 1
@example((7, 20))  # uncovered Top and Sides: exit 4 under --strict
@example((17, 47))  # Thm 1.4 window, last block of size 3
@example((13, 49))  # Thm 1.5 window
@example((41, 187))  # Thm 1.3 window, n = 4, three signed blocks
@example((20, 111))  # Thm 1.3 window, n = 5
def test_listings_match_oracle(pq):
    assume(gcd(*pq) == 1)
    for argv in listing_commands("%d/%d" % pq):
        assert run_captured(argv) == listing_oracle(argv), argv
