"""The benchmark's smoke run, the CLI digest, surgery digest and reach
scripts, the library's import and the CLI, each run as its own
process, and the table of scripts/mutants.py."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def script_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_script(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=script_env(), capture_output=True, text=True,
        timeout=300,
    )


def test_perfbench_smoke():
    # fails when a function the traced run looks up by name disappears
    res = run_script("perfbench/run.py", "--smoke")
    assert res.returncode == 0, res.stdout + res.stderr


def test_cli_digests_script():
    res = run_script("scripts/cli_digests.py", "--max-den", "6")
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    # 11 reduced p/q with q <= 6, 14 commands each, then two sweeps; then,
    # on the box of 20 slopes, 8 commands per ordered pair, 3 formats of
    # `path` on 4 pairs on the fans of 0 and inf, 4 commands per slope, 2
    # per triple s0, s1, s_neg1 with s1 and s_neg1 Farey neighbours of s0
    # (360 triples), and the 5 --paper-mode patterns; then 7 commands per
    # cable p, q, sign: 5 p, 7 q and 2 signs
    assert len(lines) == 11 * 14 + 2 + 20 * 20 * 8 + 4 * 3 + 20 * 4 + 2 * 360 + 5 + 5 * 7 * 2 * 7
    # 1/2 is the n = 1 surgery: one structure, in the Stein base row
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    line = "0 %s %s summary 1/2 --format json" % (sha('{"total":1,"stein":1}\n'), sha(""))
    assert line in lines
    # the geodesic 0 -> 1/2 is one edge
    assert "0 %s %s path 0 1/2 --format text" % (sha("0 → 1/2\n"), sha("")) in lines
    # 1/3 has one uncovered structure, so --strict exits 4
    assert any(l.startswith("4 ") and l.endswith(" summary 1/3 --format text --strict") for l in lines)


# sha256 of the whole output of each digest script, and its line count:
# a change that alters any output byte on purpose updates these and says
# why.  cli_digests.py --max-den 6 exits 0 on 4,028 lines, 3 on 610 and 4
# on 25, and never 2, so no argparse text, which differs between Python
# versions, is in it.
DIGEST_GOLDENS = [
    (["scripts/cli_digests.py", "--max-den", "6"], 4663,
     "35aeef1d1b021d2ad9cf4cf49d0db711ebfa8f0adf1352ca7b9c8c52a0fc3eb9"),
    (["scripts/surgery_digests.py"], 51480,
     "80bdb2181b3310c16887ecdc32cd1f2f22a02b7acf9b2d2cac5b026a9fa3bc47"),
]


def test_digest_scripts_match_their_goldens():
    for argv, lines, digest in DIGEST_GOLDENS:
        res = run_script(*argv)
        assert res.returncode == 0, res.stdout + res.stderr
        sha = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert (res.stdout.count("\n"), sha) == (lines, digest), argv


def test_surgery_digests_script():
    res = run_script("scripts/surgery_digests.py", "--max-den", "2", "--max-num", "1",
                     "--max-p", "5", "--max-q", "2")
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    # 36 structures on 19 tori, 12 cables with gcd 1 and two without, 5 counts
    assert len(lines) == 36 * 14 * 5
    # one surgery on the (5,2)-cable in the torus inf -> 0 -> 1/2: the
    # lift of 9/25 -> 4/11 -> 3/8 -> 2/5 -> 1/2 is (25, 9), (11, 4), (8,
    # 3), (5, 2), (2, 1), so its steps are (-14, -5) once and (-3, -1)
    # three times, and the all-plus class stays all plus
    assert "inf 1/2 [0] (5,2) x1 -> 9/25 (((-14, -5), (25, 9), 1), ((-3, -1), (11, 4), 3)) [0]" in lines
    assert "inf 1/2 [0] (5,2) x0 -> DomainError: count must be a positive integer" in lines
    assert "1/3 1/2 [] (3,1) x1 -> DomainError: cabling slope coincides with the meridian" in lines
    assert "inf 1/2 [0] (3,2) x1 -> DomainError: cabling slope 2/3 is outside the interval (inf, 1/2)" in lines


def test_library_lifts_the_int_str_digit_limit():
    # a fresh process that imports the library and never runs cli.main:
    # a slope of 4,401 digits parses and a total of 6,000 digits prints
    code = ("from fareytight import parse_slope, verdict_summary\n"
            "print(parse_slope('1/1' + '0' * 4400).den == 10 ** 4400)\n"
            "print(len(str(sum(verdict_summary(parse_slope('1/1' + '0' * 3000)).values()))))\n")
    res = run_script("-c", code)
    assert (res.returncode, res.stdout, res.stderr) == (0, "True\n6000\n", "")


def test_import_loads_no_heavy_stdlib_module():
    # a fresh interpreter importing the library and its CLI loads none of
    # the modules that dataclasses, fractions and typing pull in
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import fareytight, fareytight.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    res = run_script("-c", code)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    assert "fareytight.cli" in loaded
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal",
             "_decimal", "numbers", "typing"}
    assert not loaded & heavy, sorted(loaded & heavy)


def test_library_import_loads_no_output_code():
    # the text of listings, paths and DOT is the CLI's: importing the
    # library alone compiles none of it
    code = "import sys, fareytight\nprint(sorted(m for m in sys.modules if m.startswith('fareytight')))\n"
    res = run_script("-c", code)
    assert res.returncode == 0, res.stderr
    assert "fareytight" in res.stdout
    assert "fareytight._output" not in res.stdout and "fareytight.cli" not in res.stdout


def test_code_lines_script():
    res = run_script("scripts/code_lines.py")
    assert res.returncode == 0, res.stdout + res.stderr
    rows = [line.split("\t") for line in res.stdout.splitlines()]
    *modules, (total_name, total) = rows
    assert total_name == "total"
    assert {"__init__", "cli", "paths", "tori"} <= {name for name, _ in modules}
    assert sum(int(lines) for _, lines in modules) == int(total) > 0


def test_reach_script():
    # every def under src/fareytight that no CLI command enters is
    # declared in scripts/reach.py with the reason it stays, so a def that
    # nothing calls fails here until it is deleted or declared
    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    res = run_script("scripts/reach.py", "--max-den", "6")
    assert res.returncode == 0, res.stdout + res.stderr
    assert sorted(res.stdout.splitlines()) == sorted(reach.UNREACHED)
    assert all(reach.UNREACHED.values())


def test_mutants_table_matches_the_tree():
    # each row of scripts/mutants.py applies to the tree: its old text
    # occurs exactly once in its file and each test it names is defined.
    # No mutant runs here; scripts/mutants.py runs them
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [row[0] for row in mutants.MUTANTS]
    assert len(set(names)) == len(names) == 17
    for name, path, old, new, tests in mutants.MUTANTS:
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1 and old != new, name
        for test in tests:
            file, func = test.split("::")
            assert re.search(r"^def %s\(" % func, (ROOT / file).read_text(encoding="utf-8"), re.M), (name, test)


def test_listing_into_closed_pipe():
    # `fareytight ... | head -1`: the reader goes away after one line of a
    # listing far longer than a pipe's buffer
    for argv in (["classify", "1/300", "--format", "tsv"], ["enumerate", "1/60"],
                 ["path", "1/100000", "1/2", "--format", "dot"],
                 ["sweep", "--interval", "1/100000", "1", "--bound", "200"]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "fareytight.cli", *argv], cwd=ROOT, env=script_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert first.startswith((b"r\tk\tl\t", b"k=1 l=0 1/60 ", b"digraph farey_path {",
                                 b"r\ttotal\t")), first
        assert (code, err) == (1, b""), argv
