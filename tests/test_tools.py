"""The benchmark's smoke run, the DOT export script and the CLI, each run
as its own process."""

import os
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


def test_export_dot_script(tmp_path):
    res = run_script("scripts/export_dot.py", "--out-dir", str(tmp_path))
    assert res.returncode == 0, res.stdout + res.stderr
    written = [Path(line) for line in res.stdout.split()]
    assert written and all(p.parent == tmp_path and p.read_text().startswith("digraph") for p in written)


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
