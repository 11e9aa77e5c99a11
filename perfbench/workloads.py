"""The four workloads: their inputs, made from the seed, and the checks
on every output.

An operation is one call into the library or one in-process CLI command.
Its `run` is what gets timed; its `check` looks at what `run` returned
and, for CLI commands, runs the command once more with stdout captured
and tests the text.  Expected answers come from `oracle`, never from the
library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import fareytight as ft
import fareytight.cli as ftcli

import oracle as O


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    structures: int = 1


def slope(s: tuple[int, int]) -> ft.Slope:
    return ft.Slope(*s)


def pair(s: ft.Slope) -> tuple[int, int]:
    return s.num, s.den


# --------------------------------------------------------------- CLI ops


class _DigestRaw(io.RawIOBase):
    """Byte sink that keeps only a length and a digest, so that a large
    listing costs the run what writing it to a pipe would."""

    def __init__(self):
        self.nbytes = 0
        self.sha = hashlib.sha256()

    def writable(self):
        return True

    def write(self, b):
        self.sha.update(b)
        self.nbytes += len(b)
        return len(b)


class OutputMeter:
    """Counts the bytes every CLI command of a run wrote to stdout."""

    def __init__(self):
        self.nbytes = 0


def cli_op(label, argv, check_text, meter: OutputMeter, structures=1) -> Op:
    """A CLI command run through `fareytight.cli.main`.  Timed runs write
    to a digesting sink; the check re-runs it with stdout captured,
    requires the same exit code and bytes, and tests the text."""

    def run():
        raw = _DigestRaw()
        out = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ftcli.main(list(argv))
        out.flush()
        meter.nbytes += raw.nbytes
        if code != 0:
            raise RuntimeError("exit %s: %s" % (code, err.getvalue().strip()))
        return raw.nbytes, raw.sha.hexdigest()

    def check(fingerprint):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ftcli.main(list(argv))
        data = out.getvalue().encode("utf-8")
        if code != 0:
            return "exit %s on the check run" % code
        if (len(data), hashlib.sha256(data).hexdigest()) != fingerprint:
            return "output differs between the timed run and the check run"
        return check_text(out.getvalue())

    return Op("%s: fareytight %s" % (label, " ".join(argv)), run, check, structures)


# ----------------------------------------------------------------- sweep


def sweep_population(qmax: int, nmax: int):
    """Reduced p/q with q <= qmax and 2 <= n <= nmax, grouped by
    (n, phi, window): members of a group have the same verdict tallies
    and so the same number of structures."""
    strata = defaultdict(list)
    for q in range(3, qmax + 1):
        for p in range(1, (q + 1) // 2):
            if math.gcd(p, q) != 1:
                continue
            n, phi = O.n_phi((p, q))
            if n <= nmax:
                strata[(n, phi, O.window((p, q), n))].append((p, q))
    return strata


def sweep_ops(rng: random.Random, small: bool, meter) -> list[Op]:
    strata = sweep_population(*((24, 8) if small else (100, 30)))
    chosen = []
    for key in sorted(strata):
        group = strata[key]
        chosen += rng.sample(group, (len(group) + 1) // 2)
    rng.shuffle(chosen)
    ops = []
    for r in chosen:
        expected = O.expected_tally(r)
        s = slope(r)

        def check(got, expected=expected):
            tally = {status.value: cnt for status, cnt in got.items()}
            if tally != expected:
                return "tally %s, expected %s" % (tally, expected)
            return None

        ops.append(Op("sweep %s" % O.text(r), lambda s=s: ft.verdict_summary(s), check,
                      sum(expected.values())))
    return ops


# -------------------------------------------------------------- triangle

# 1/r as a minus continued fraction: the shapes the workload is about, a
# long path with large phi, a large n with phi = 1, and a mixed case.
TRIANGLE_SHAPES = [[3, 20, 20, 20], [300], [5, 8, 8, 8, 8]]
# Seventeen more coefficients make the forty commands a tail percentile
# needs.  They are distinct tail permutations of one smaller shape, which
# keep n, phi and the path length, so all cost the same and the tail
# (p75: the 13th of their 17 JSON listings) does not depend on the seed.
TRIANGLE_FILL = ([5, 3, 4, 5, 6], 17)
TRIANGLE_SMALL = [[3, 5, 6], [12], [5, 3, 4]]
TRIANGLE_SMALL_FILL = ([4, 3, 4, 5], 2)


class _RowMatcher:
    """Holds the JSON rows of a coefficient until its TSV rows arrive,
    or the other way round, and compares them."""

    def __init__(self):
        self.pending = {}

    def offer(self, r: str, rows) -> str | None:
        other = self.pending.pop(r, None)
        if other is None:
            self.pending[r] = rows
            return None
        return None if other == rows else "JSON and TSV rows differ"


def _classify_json_rows(text: str, r, n: int, phi: int):
    records = json.loads(text)
    cells = defaultdict(set)
    rows, tally = [], Counter()
    for rec in records:
        if rec["r"] != O.text(r):
            return "record for r=%s" % rec["r"], None
        P = rec["P"]
        cells[(rec["k"], rec["l"])].add((tuple(P["path"]), str(P["blocks"]), str(P["minus"])))
        tally[rec["status"]] += 1
        rows.append((rec["r"], str(rec["k"]), str(rec["l"]), rec["position"], rec["status"],
                     rec["cite"] or "", rec.get("note", "")))
    want_cells = {(k, l) for k in range(1, n + 1) for l in range(0, n - k + 1)}
    if len(records) != n * (n + 1) // 2 * phi:
        return "%d records, expected %d" % (len(records), n * (n + 1) // 2 * phi), None
    if set(cells) != want_cells:
        return "(k, l) cells differ from the triangle", None
    if any(len(ps) != phi for ps in cells.values()):
        return "some (k, l) does not hold %d distinct P" % phi, None
    end = (1, n)
    for path in {p for ps in cells.values() for p, _, _ in ps}:
        err = O.path_error([O.parse(v) for v in path], r, end, geodesic=True)
        if err:
            return "P path: " + err, None
    if dict(tally) != O.expected_tally(r):
        return "tally %s, expected %s" % (dict(tally), O.expected_tally(r)), None
    return None, rows


def triangle_ops(rng: random.Random, small: bool, meter) -> list[Op]:
    matcher = _RowMatcher()
    ops = []
    shapes, (fill, count) = (TRIANGLE_SMALL, TRIANGLE_SMALL_FILL) if small else (
        TRIANGLE_SHAPES, TRIANGLE_FILL)
    tails = sorted(set(itertools.permutations(fill[1:])))
    for shape in shapes + [[fill[0], *tail] for tail in rng.sample(tails, count)]:
        r = O.from_cf(shape)
        n, phi = O.n_phi(r)
        size = n * (n + 1) // 2 * phi
        rt = O.text(r)

        def check_json(text, r=r, n=n, phi=phi, rt=rt):
            err, rows = _classify_json_rows(text, r, n, phi)
            return err or matcher.offer(rt, rows)

        def check_tsv(text, rt=rt, size=size):
            lines = text.split("\n")
            if lines[0] != "r\tk\tl\tposition\tstatus\tcite\tnote" or lines[-1] != "":
                return "bad TSV framing"
            rows = [tuple(line.split("\t")) for line in lines[1:-1]]
            if len(rows) != size:
                return "%d TSV rows, expected %d" % (len(rows), size)
            return matcher.offer(rt, rows)

        ops.append(cli_op("triangle", ["classify", rt, "--format", "json"], check_json, meter, size))
        ops.append(cli_op("triangle", ["classify", rt, "--format", "tsv"], check_tsv, meter, size))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------- surgery

# Legendrian surgery: dividing slopes of solid tori with meridian inf,
# and cables (p, q) whose slope q/p lies in the interval (inf, s).
CABLE_TORI = {(17, 7): [(2, 3), (5, 11)], (3, 7): [(3, 1), (2, -1)],
              (12, 5): [(5, 2), (4, 7)], (5, 2): [(3, 2), (2, 1)]}
CABLE_COUNTS = [1, 10, 100, 300, 1000, 2000, 4000]

# Shortening: geodesic r -> s, minus counts per signed block, and how many
# mediant vertices are inserted, evenly spread along the path.
SHORTEN_PATHS = [((1, 22), (1, 2)), ((3905, 19029), (1, 4)), ((1, 50), (1, 2)),
                 ((7960, 23481), (1, 2))]
SHORTEN_PROFILES = ["half", "alternate", "one"]
SHORTEN_INSERTS = range(0, 7)


def _profile(sizes, name):
    if name == "half":
        return tuple(sz // 2 for sz in sizes)
    if name == "alternate":
        return tuple(sz if i % 2 else 0 for i, sz in enumerate(sizes))
    return tuple(min(1, sz) for sz in sizes)


def _translated(d: ft.DecoratedPath, a: int) -> ft.DecoratedPath:
    verts = tuple(slope(O.translate(pair(v), a)) for v in d.path.vertices)
    return ft.DecoratedPath(ft.FareyPath(verts), d.signs)


def cable_op(s, p, q, cls_index, count, a) -> Op:
    """count Legendrian surgeries on the (p, q + a*p)-cable inside a tight
    solid torus with meridian inf and dividing slope s + a.  Translating
    by a keeps the Farey combinatorics, so the work does not depend on a."""
    s_a, q_a = O.translate(s, a), q + a * p
    x = ft.enumerate_tight(ft.INF, slope(s_a))[cls_index]
    meridian = O.apply_matrix(O.power_matrix(p, q_a, -1, count), O.INF)

    def check(y):
        if pair(y.meridian) != meridian:
            return "meridian %s, expected %s" % (y.meridian, O.text(meridian))
        verts = [pair(v) for v in y.iso_class.path.vertices]
        return O.path_error(verts, meridian, s_a, geodesic=True)

    label = "surgery cable %s (%d,%d) x%d" % (O.text(s_a), p, q_a, count)
    return Op(label, lambda: ft.legendrian_cable_surgery(x, p, q_a, count), check)


def shorten_op(r, s, profile, inserts, a) -> Op:
    """consistently_shorten on a tight decorated path lengthened by
    `inserts` mediants and translated by a."""
    path = ft.minimal_path(slope(r), slope(s))
    counts = _profile(O.signed_runs([pair(v) for v in path.vertices]), profile)
    d = ft.ShuffleClass(path, counts).canonical_decorated()
    for j in range(inserts):
        vs = d.path.vertices
        i = (j + 1) * (len(vs) - 1) // (inserts + 1)
        d = ft.lengthen_decorated(d, ft.farey_sum(vs[i], vs[i + 1]))
    d = _translated(d, a)
    want = [O.translate(pair(v), a) for v in path.vertices]

    def check(got):
        if got is None:
            return "a tight path did not shorten"
        verts = [pair(v) for v in got.path.vertices]
        if verts != want:
            return "shortened to another path"
        err = O.path_error(verts, want[0], want[-1], geodesic=True)
        if err:
            return err
        if O.minus_per_block(verts, got.signs) != list(counts):
            return "shuffle class changed"
        return None

    label = "surgery shorten %s->%s %s +%d" % (O.text(want[0]), O.text(want[-1]), profile, inserts)
    return Op(label, lambda: ft.consistently_shorten(d), check)


def surgery_ops(rng: random.Random, small: bool, meter) -> list[Op]:
    ops = []
    tori = list(CABLE_TORI.items())[:1] if small else CABLE_TORI.items()
    for s, cables in tori:
        n_classes = len(ft.enumerate_tight(ft.INF, slope(s)))
        for p, q in cables:
            for i in range(n_classes):
                for count in CABLE_COUNTS[:3] if small else CABLE_COUNTS:
                    ops.append(cable_op(s, p, q, i, count, rng.randint(-40, 40)))
    for r, s in SHORTEN_PATHS[:1] if small else SHORTEN_PATHS:
        for profile in SHORTEN_PROFILES:
            for inserts in range(3) if small else SHORTEN_INSERTS:
                ops.append(shorten_op(r, s, profile, inserts, rng.randint(-40, 40)))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------- queries


def _random_unit(rng, qmax, below=Fraction(1)) -> tuple[int, int]:
    """Reduced p/q in (0, below) with 3 <= q <= qmax."""
    while True:
        q = rng.randint(3, qmax)
        p = rng.randint(1, q - 1)
        if math.gcd(p, q) == 1 and Fraction(p, q) < below:
            return p, q


def _expect_lines(want: str):
    return lambda text: None if text == want else "got %r, expected %r" % (text[:80], want[:80])


def _path_query(meter, n):
    want = " → ".join("1/%d" % j for j in range(n, 1, -1)) + "\n"
    return cli_op("queries", ["path", "1/%d" % n, "1/2"], _expect_lines(want), meter)


def _cable_map_query(rng, meter, power):
    p = rng.randint(2, 9)
    q = rng.choice([q for q in range(-20, 21) if math.gcd(p, abs(q)) == 1])
    sign = rng.choice([1, -1])
    fmt = rng.choice(["text", "json"])
    argv = ["cable-map", str(p), str(q), "--sign", str(sign), "--power", str(power),
            "--format", fmt]
    m = O.power_matrix(p, q, sign, power)
    target = None
    if rng.random() < 0.5:
        target = _random_unit(rng, 50)
        argv += ["--apply", O.text(target)]

    def check(text):
        if fmt == "json":
            obj = json.loads(text)
            if obj["m"] != m:
                return "matrix %s, expected %s" % (obj["m"], m)
            if target and obj["image"] != O.text(O.apply_matrix(m, target)):
                return "image %s is wrong" % obj["image"]
            return None
        want = O.text(O.apply_matrix(m, target)) if target else "[[%d,%d],[%d,%d]]" % (
            m[0][0], m[0][1], m[1][0], m[1][1])
        return _expect_lines(want + "\n")(text)

    return cli_op("queries", argv, check, meter)


def _scalar_query(rng, meter, kind):
    if kind == "cf":
        while True:
            q = rng.randint(2, 500)
            p = rng.randint(q + 1, 6 * q)
            if math.gcd(p, q) == 1:
                break
        x = Fraction(p, q)

        def check(text):
            entries = [int(e) for e in text.strip()[1:-1].split(",")]
            if min(entries) < 2 or O.cf_eval(entries) != x:
                return "%s does not evaluate to %s" % (text.strip(), x)
            return None

        return cli_op("queries", ["cf", "%d/%d" % (p, q)], check, meter)
    r = _random_unit(rng, 200, Fraction(1, 2))
    n, phi = O.n_phi(r)
    if kind == "phi":
        return cli_op("queries", ["phi", O.text(r)], _expect_lines("%d\n" % phi), meter)
    return cli_op("queries", ["count", O.text(r), "1/%d" % n], _expect_lines("%d\n" % phi), meter)


def _shapes(qmax=60, nmax=8, phimax=8):
    """Coefficients r < 1/2 with q <= qmax, grouped by (n, phi), for every
    such shape with n <= nmax, phi <= phimax and at least two members.
    Drawing one member per shape fixes the number of structures."""
    groups = defaultdict(list)
    for (n, phi, _), rs in sweep_population(qmax, nmax).items():
        if phi <= phimax:
            groups[(n, phi)] += rs
    return [groups[key] for key in sorted(groups) if len(groups[key]) >= 2]


def _enumerate_query(rng, meter, shape):
    r = rng.choice(shape)
    n, phi = O.n_phi(r)

    def check(text):
        classes = json.loads(text)
        keys = {(tuple(c["path"]), str(c["minus"])) for c in classes}
        if len(classes) != phi or len(keys) != phi:
            return "%d classes (%d distinct), expected %d" % (len(classes), len(keys), phi)
        for path in {k[0] for k in keys}:
            err = O.path_error([O.parse(v) for v in path], r, (1, n), geodesic=True)
            if err:
                return err
        return None

    return cli_op("queries", ["enumerate", O.text(r), "1/%d" % n, "--format", "json"],
                  check, meter, phi)


def _exceptional_query(rng, meter):
    while True:
        q = rng.randint(1, 50)
        p = rng.randint(-2 * q, 2 * q)
        if math.gcd(abs(p), q) == 1:
            break
    s0 = (p, q)
    v0, w0 = O.fan_basis(s0)
    k1 = rng.randint(-20, 20)
    k2 = k1 + rng.randint(2, 12)
    s1, s_neg1 = O.fan_member(v0, w0, k1), O.fan_member(v0, w0, k2)
    if rng.random() < 0.5:
        s1, s_neg1 = s_neg1, s1
    # the arc between s1 and s_neg1 that does not hold s0
    a, b = (s1, s_neg1) if O.cw_offset(s1, s0) > O.cw_offset(s1, s_neg1) else (s_neg1, s1)
    fmt = rng.choice(["text", "json"])

    def check(text):
        got = json.loads(text)["exceptional"] if fmt == "json" else text.split()
        found = [O.parse(t) for t in got]
        if len(found) != k2 - k1 - 1:
            return "%d exceptional slopes, expected %d" % (len(found), k2 - k1 - 1)
        for e in found:
            if abs(O.det(e, s0)) != 1 or not 0 < O.cw_offset(a, e) < O.cw_offset(a, b):
                return "%s is not a neighbour of %s inside the arc" % (O.text(e), O.text(s0))
        return None

    # "--" lets argparse take slopes such as -8/33 as positionals
    argv = ["exceptional", "--format", fmt, "--", O.text(s0), O.text(s1), O.text(s_neg1)]
    return cli_op("queries", argv, check, meter)


def _summary_query(rng, meter, shape):
    r = rng.choice(shape)
    want = O.expected_tally(r)
    obj = {"total": sum(want.values())}
    obj.update({O.JSON_KEYS[k]: want[k] for k in O.JSON_KEYS if k in want})

    def check(text):
        got = json.loads(text)
        return None if got == obj else "summary %s, expected %s" % (got, obj)

    return cli_op("queries", ["summary", O.text(r), "--format", "json"], check, meter,
                  obj["total"])


# geodesic lengths and map powers on fixed grids, so that the slowest
# commands, which set the tail, cost the same whatever the seed; every
# other command is cheaper than the longest paths and largest powers
PATH_LENGTHS = [round(500 * 18 ** (i / 15)) for i in range(16)]  # 500 .. 9000
MAP_POWERS = [1, 10, 100, 1000, 3000, 10000, 30000, 60000]


def queries_ops(rng: random.Random, small: bool, meter) -> list[Op]:
    each = 4 if small else 40
    ops = [_path_query(meter, n + rng.randint(-n // 100, n // 100))
           for n in (PATH_LENGTHS[:3] if small else PATH_LENGTHS)]
    for power in MAP_POWERS[:4] if small else MAP_POWERS * 2:
        ops.append(_cable_map_query(rng, meter, power))
    shapes = _shapes()
    for i in range(each):
        shape = shapes[i % len(shapes)]
        ops += [_scalar_query(rng, meter, "cf"), _scalar_query(rng, meter, "phi"),
                _scalar_query(rng, meter, "count"), _enumerate_query(rng, meter, shape),
                _exceptional_query(rng, meter), _summary_query(rng, meter, shape)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "sweep": sweep_ops,
    "triangle": triangle_ops,
    "surgery": surgery_ops,
    "queries": queries_ops,
}
