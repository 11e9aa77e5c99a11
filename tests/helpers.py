"""Independent oracles and sampling helpers for the test suite.

Everything here recomputes answers from first principles (Fraction
arithmetic, mediant recursion, explicit orbit enumeration) without
going through the library's own fan/block machinery, so library bugs
cannot cancel out.  The exception is enumerated_tally, which runs the
library's classify on every enumerated structure: it checks the
aggregate in verdict_summary against the per-structure rules, and
bfs_shorten, the breadth-first search over sign sequences that
tori.consistently_shorten replaces.
"""

import math
from collections import Counter, deque
from fractions import Fraction
from itertools import product

from fareytight.slopes import (
    INF,
    ONE,
    ContinuedFraction,
    Slope,
    cf_minus,
    cf_value,
    det,
    is_edge,
    make_slope,
)
from fareytight.atlas import Fillability, classify, enumerate_structures
from fareytight.paths import FareyPath, minimal_path
from fareytight.tori import DecoratedPath


def circle_pos(s: Slope) -> Fraction:
    """Exact clockwise coordinate in [0,4): 0 at slope 0, 1 at slope 1,
    2 at inf, 3 at slope -1, approaching 4 back at 0."""
    if s.is_infinite:
        return Fraction(2)
    v = Fraction(s.num, s.den)
    if v >= 0:
        return 2 * v / (v + 1)
    w = -v
    return 4 - 2 * w / (w + 1)


def cw_contains_oracle(x: Slope, a: Slope, b: Slope, closed: bool = False) -> bool:
    pa, pb, px = circle_pos(a), circle_pos(b), circle_pos(x)
    if px == pa or px == pb:
        return closed
    if pa < pb:
        return pa < px < pb
    return px > pa or px < pb


def farey_edges_oracle(bound: int) -> set:
    """All Farey edges whose endpoints have |num| <= bound and
    den <= bound, by mediant subdivision of the two half-disks."""
    edges = set()

    def rec(u, v):
        edges.add(frozenset((make_slope(*u), make_slope(*v))))
        m = (u[0] + v[0], u[1] + v[1])
        if abs(m[0]) <= bound and m[1] <= bound:
            rec(u, m)
            rec(m, v)

    rec((0, 1), (1, 0))
    rec((-1, 0), (0, 1))
    return edges


def all_slopes_in_box(bound: int) -> list:
    """Every slope with |num| <= bound and den <= bound, plus inf."""
    out = [INF]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if math.gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    return out


def neighbors_scan_oracle(s0: Slope, a: Slope, b: Slope, bound: int) -> set:
    """Brute-force: slopes in the box adjacent to s0 and strictly inside
    the clockwise arc (a,b).  Misses neighbours outside the box, so
    compare only when the candidate answer fits well inside it."""
    out = set()
    for t in all_slopes_in_box(bound):
        if t == s0:
            continue
        if abs(s0.num * t.den - t.num * s0.den) != 1:
            continue
        if cw_contains_oracle(t, a, b):
            out.add(t)
    return out


def _val(vec) -> Fraction:
    return Fraction(vec[0], vec[1])


def geodesic_length_oracle(a: Slope, b: Slope) -> int:
    """BFS distance from a to b in the Farey graph restricted to
    vertices of value in [a,b] and denominator <= den(a)+den(b).
    Requires 0 < a < b finite.  Edges come from mediant recursion."""
    lo, hi = _val((a.num, a.den)), _val((b.num, b.den))
    assert 0 < lo < hi
    dmax = a.den + b.den
    adj: dict = {}

    def add(u, v):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    def rec(u, v):
        # u, v adjacent vectors, val(u) < val(v); v may be (1,0) = +inf
        if v[1] != 0 and lo <= _val(u) and _val(v) <= hi:
            add(u, v)
        m = (u[0] + v[0], u[1] + v[1])
        if m[1] > dmax:
            return
        if _val(m) > lo and _val(u) < hi:
            rec(u, m)
        if _val(m) < hi:
            rec(m, v)

    rec((0, 1), (1, 0))
    src = (a.num, a.den)
    dst = (b.num, b.den)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            return dist[u]
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    raise AssertionError("no geodesic found from %s to %s" % (a, b))


def shuffle_orbit_count(path) -> int:
    """Sign vectors on the signed edges of the path, counted up to
    transpositions of adjacent in-block edges (explicit orbit BFS)."""
    vs = path.vertices
    m = len(vs) - 1
    signed = m - 1
    swap_ok = [
        abs(vs[j].num * vs[j + 2].den - vs[j + 2].num * vs[j].den) == 2
        for j in range(1, m - 1)
    ]
    seen = set()
    orbits = 0
    for state in product((1, -1), repeat=signed):
        if state in seen:
            continue
        orbits += 1
        seen.add(state)
        stack = [state]
        while stack:
            cur = stack.pop()
            for idx, ok in enumerate(swap_ok):
                if not ok or cur[idx] == cur[idx + 1]:
                    continue
                nxt = cur[:idx] + (cur[idx + 1], cur[idx]) + cur[idx + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return orbits


def cf_eval_oracle(entries) -> Fraction:
    acc = Fraction(entries[-1])
    for a in reversed(entries[:-1]):
        acc = a - 1 / acc
    return acc


def random_unit_rational(rng, max_den: int) -> Slope:
    """Uniform-ish reduced p/q in (0,1) with q <= max_den."""
    while True:
        q = rng.randint(2, max_den)
        p = rng.randint(1, q - 1)
        if math.gcd(p, q) == 1:
            return make_slope(p, q)


def decrement_path(x: Slope) -> tuple[Slope, ...]:
    """Slopes obtained from x > 1 by repeatedly decrementing the last
    entry of its minus continued fraction (dropping trailing 1s), down
    to slope 1.

    The result, reversed, is the vertex sequence of minimal_path(1, x),
    built from the continued fraction alone instead of the fan search.
    """
    out = [x]
    entries = list(cf_minus(x).entries)
    while True:
        entries[-1] -= 1
        while entries and entries[-1] == 1:
            entries.pop()
            if entries:
                entries[-1] -= 1
        if not entries:
            out.append(ONE)
            return tuple(out)
        out.append(cf_value(ContinuedFraction(tuple(entries))))


def enumerated_tally(r: Slope) -> dict:
    """Verdict tallies of the r-surgery by classifying every enumerated
    structure, statuses with count 0 omitted: the per-structure count
    that atlas.verdict_summary replaces by one classify per class."""
    tally = Counter(classify(sid).status for sid in enumerate_structures(r))
    return {status: tally[status] for status in Fillability if tally[status]}


def _successors(verts: tuple[Slope, ...], signs: tuple[int, ...]):
    # consistent shortenings: drop an interior vertex when the outer
    # vertices span an edge and the two merged edges agree in sign (the
    # unsigned first edge merges with anything and stays unsigned)
    for i in range(1, len(verts) - 1):
        if not is_edge(verts[i - 1], verts[i + 1]):
            continue
        if i == 1:
            yield verts[:1] + verts[2:], signs[1:]
        elif signs[i - 2] == signs[i - 1]:
            yield verts[:i] + verts[i + 1 :], signs[: i - 1] + signs[i:]
    # shuffles: adjacent signed edges in one block may swap their signs
    for j in range(1, len(verts) - 2):
        if signs[j - 1] != signs[j] and abs(det(verts[j], verts[j + 2])) == 2:
            yield verts, signs[: j - 1] + (signs[j], signs[j - 1]) + signs[j + 1 :]


def bfs_shorten(d: DecoratedPath) -> DecoratedPath | None:
    """Shorten d to a decorated minimal path, shuffling inside blocks as
    needed; None when no sequence of moves reaches the minimal path.

    Breadth-first search over raw (vertices, signs) states, one shuffle
    or merge per step: exponential in the number of extra vertices, so
    keep inputs to about 14 edges plus a few mediants.
    """
    target = minimal_path(d.path.start, d.path.end).vertices
    start = (d.path.vertices, d.signs)
    if start[0] == target:
        return d
    queue = deque([start])
    seen = {start}
    while queue:
        state = queue.popleft()
        for nxt in _successors(*state):
            if nxt in seen:
                continue
            if nxt[0] == target:
                return DecoratedPath(FareyPath(nxt[0]), nxt[1])
            seen.add(nxt)
            queue.append(nxt)
    return None
