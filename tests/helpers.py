"""Independent oracles and sampling helpers for the test suite.

Everything here recomputes answers from first principles (Fraction
arithmetic, mediant recursion, explicit orbit enumeration) without
going through the library's own fan/block machinery, so library bugs
cannot cancel out.  The exceptions are classify_oracle, the rule chain
that atlas._rule replaces, which reads P's block counts directly instead
of its features and tests r against each window with the Fraction bounds
of window_oracle, sharing no window code with atlas._window;
enumerated_tally, which runs classify_oracle on every enumerated
structure to check the aggregates in atlas; greedy_minimal_path,
the vertex-by-vertex greedy that paths.minimal_path replaces, on its own
extended-Euclid fan basis and Fraction fan parameter,
path_error_oracle, the checks that FareyPath now runs on integers,
block_vectors_oracle, the vertex-by-vertex lift that every path's
stored blocks replace, edge_runs_oracle, the per-vertex block rule that
the stored blocks of a path replace, path_output_oracle, the `path`
command's text as it was made from the vertices, sort_key_oracle, the
Fraction key that slope_sort_key replaces, and phi_oracle, the continued fraction product
that tori.phi replaces by a count over blocks; bfs_shorten,
the breadth-first search over sign sequences that
tori.consistently_shorten replaces; shorten_oracle and
cable_surgery_oracle, the Slope-level consistently_shorten and
legendrian_cable_surgery that the loops on lifted vectors replace (the
oracle lengthens on Slopes, with its own copy of the sign rule);
listing_oracle, the
per-structure `classify` and `enumerate r` listings that the CLI's
batched writes of rows made from block texts replace, with their
full_path of a structure (its P and the block 1/n, ..., 1/k, joined by
concat) and mixed_tori along it, which no command reaches; and
main_oracle, the one top-level parse of argv that cli.main's dispatch
by command name replaces.  euler_class, the relative Euler class of a
decorated path (Honda 2000, section 4.3), is no oracle but an invariant
from contact topology, summed edge by edge on its own lift: it shares no
code with the enumeration whose classes it tells apart.
"""

import contextlib
import io
import json
import math
import sys
from collections import Counter, deque
from fractions import Fraction
from itertools import product

from fareytight.slopes import (
    INF,
    DomainError,
    ONE,
    ContinuedFraction,
    Slope,
    cf_minus,
    cw_interval_contains,
    det,
    is_edge,
    make_slope,
)
from fareytight.atlas import (
    CITE_BASE_ROW,
    CITE_INTERIOR,
    CITE_N2_INTERVAL,
    CITE_N3_INTERVAL,
    CITE_WIDE_INTERVAL,
    Fillability,
    FillabilityVerdict,
    MixedTorus,
    TightStructureId,
    classify,
    enumerate_structures,
    n_of,
    structure_record,
    triangle_position,
)
from fareytight.cables import MobiusMap, reglue_map
from fareytight.cli import _parsers, _run
from fareytight.paths import FareyPath, minimal_path
from fareytight.tori import DecoratedPath, ShuffleClass, SolidTorusStructure, shuffle_canonical, signed_blocks


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


def euler_class(P) -> tuple[int, int]:
    """The relative Euler class of P, a DecoratedPath or a ShuffleClass
    (its canonical representative), as a (den, num) vector: the sum over
    the signed edges i = 2..m of sign_i * (V_i - V_(i-1)), on the lift
    V_0, ..., V_m of the path from (start.den, start.num), each vertex
    the vector of its slope with cross +1 from the one before."""
    d = P.canonical_decorated() if isinstance(P, ShuffleClass) else P
    vs = d.path.vertices
    lift = [(vs[0].den, vs[0].num)]
    for y in vs[1:]:
        xd, xn = lift[-1]
        turn = xd * y.num - xn * y.den  # +1 or -1 on a Farey edge
        lift.append((turn * y.den, turn * y.num))
    ed = en = 0
    for sign, (ad, an), (bd, bn) in zip(d.signs, lift[1:], lift[2:]):
        ed += sign * (bd - ad)
        en += sign * (bn - an)
    return ed, en


def sort_key_oracle(s: Slope):
    """The linear position order (negatives < 0 < positives < inf) as a
    Fraction key, the slope_sort_key that the cross-product comparison
    replaces."""
    if s.is_infinite:
        return (1, Fraction(0))
    return (0, Fraction(s.num, s.den))


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


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b == g, by the extended Euclidean algorithm."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


def greedy_minimal_path(a: Slope, b: Slope) -> FareyPath:
    """Geodesic from a clockwise to b, one greedy Farey step at a time:
    from the current vertex u, the neighbour of u in the open clockwise
    arc (u, b) closest to b, until u is adjacent to b.  The construction
    that paths.minimal_path speeds up by crossing a block at once.  The
    neighbours of u = (d, n) are the slopes of W + k*(d, n), for the W =
    g*(-y, x) of the extended Euclid x*d + y*n = g = +-1, and the one
    parallel to b has the Fraction k = cross(W, B) / cross(B, V)."""
    if a == b:
        raise DomainError("minimal path endpoints must be distinct")
    verts = [a]
    u = a
    while not is_edge(u, b):
        g, x, y = _egcd(u.den, u.num)
        (vd, vn), (wd, wn) = (u.den, u.num), (-y * g, x * g)
        kb = Fraction(wd * b.num - wn * b.den, b.den * vn - b.num * vd)
        for k in (math.floor(kb), math.ceil(kb)):
            cand = make_slope(wn + k * vn, wd + k * vd)
            if cw_interval_contains(cand, u, b):
                verts.append(cand)
                u = cand
                break
        else:
            raise DomainError("no clockwise step from %s towards %s" % (u, b))
    verts.append(b)
    return FareyPath(tuple(verts))


def path_error_oracle(vs) -> str | None:
    """The message of the DomainError that FareyPath(vs) raises, or None:
    the checks FareyPath made through is_edge and cw_interval_contains
    before they were inlined on integers, one after the other."""
    if len(vs) < 1:
        return "a path needs at least one vertex"
    if len(set(vs)) != len(vs):
        return "path vertices must be distinct"
    for u, v in zip(vs, vs[1:]):
        if not is_edge(u, v):
            return "%s -- %s is not a Farey edge" % (u, v)
    for i in range(len(vs) - 1):
        if not cw_interval_contains(vs[i + 1], vs[i], vs[-1], closed=True):
            return "path is not monotone clockwise"
    return None


def block_vectors_oracle(vs) -> tuple:
    """The maximal blocks of the path through vs, consecutive ones
    spanning Farey edges, as (pivot, base, count) integer vectors:
    each vertex is lifted to the vector with cross +1 from the one
    before, and a step equal to the last extends its block."""
    blocks = []
    xd, xn = vs[0].den, vs[0].num
    for y in vs[1:]:
        yd, yn = y.den, y.num
        if xd * yn - xn * yd < 0:
            yd, yn = -yd, -yn
        pivot = (yd - xd, yn - xn)
        if blocks and blocks[-1][0] == pivot:
            blocks[-1][2] += 1
        else:
            blocks.append([pivot, (xd, xn), 1])
        xd, xn = yd, yn
    return tuple(tuple(b) for b in blocks)


def edge_runs_oracle(vs, first_edge: int, last_edge: int) -> tuple:
    """Maximal runs among edges first_edge..last_edge of the path through
    vs that share a block: edges i-1 and i do when |det(vs[i-1],
    vs[i+1])| == 2."""
    if first_edge > last_edge:
        return ()
    runs = [[first_edge]]
    for e in range(first_edge + 1, last_edge + 1):
        if abs(det(vs[e - 1], vs[e + 1])) == 2:
            runs[-1].append(e)
        else:
            runs.append([e])
    return tuple(tuple(r) for r in runs)


def path_output_oracle(a: Slope, b: Slope) -> dict:
    """{format: (exit code, stdout, stderr)} of `path a b` as the command
    wrote it in one piece from the vertices of the greedy geodesic."""
    try:
        vs = greedy_minimal_path(a, b).vertices
    except DomainError as exc:
        return dict.fromkeys(("text", "json", "dot"), (3, "", "error: %s\n" % exc))
    return path_texts_oracle(vs)


def path_texts_oracle(vs) -> dict:
    """path_output_oracle on the geodesic through the vertices vs."""
    runs = edge_runs_oracle(vs, 0, len(vs) - 2)
    obj = {"vertices": [str(v) for v in vs], "blocks": [[e + 1 for e in r] for r in runs]}
    lines = ["digraph farey_path {", "  rankdir=LR;", "  node [shape=ellipse];"]
    lines += ['  "%s" -> "%s";' % uv for uv in zip(vs, vs[1:])]
    return {"text": (0, " → ".join(str(v) for v in vs) + "\n", ""),
            "json": (0, _json(obj) + "\n", ""),
            "dot": (0, "\n".join(lines + ["}"]) + "\n", "")}


def phi_oracle(r: Slope) -> int:
    """(a1-1)...(an-1) for 1/r = [a0,...,an], walking cf_minus entry by
    entry."""
    out = 1
    for a in cf_minus(make_slope(r.den, r.num)).entries[1:]:
        out *= a - 1
    return out


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


def cf_value(cf: ContinuedFraction) -> Slope:
    """Exact value of a minus continued fraction, folded on integers;
    cf_eval_oracle folds the same entries on Fractions."""
    num, den = cf.entries[-1], 1
    for a in reversed(cf.entries[:-1]):
        num, den = a * num - den, num
    return make_slope(num, den)


def mobius_product(m: MobiusMap, n: MobiusMap) -> MobiusMap:
    """The map m after n: the matrix product m * n."""
    return MobiusMap(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                     m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)


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


def _uniform(cls: ShuffleClass) -> bool:
    total = sum(cls.blocks.sizes)
    minus = sum(cls.minus_counts)
    return minus == 0 or minus == total


def window_oracle(r: Slope, n: int) -> str | None:
    """The cite of the theorem window [lo, hi) that holds r, n = n_of(r),
    or None, first match wins, in Fraction arithmetic."""
    x = Fraction(r.num, r.den)
    if n == 2 and Fraction(9, 25) <= x < Fraction(4, 11):
        return CITE_N2_INTERVAL
    if n == 3 and Fraction(13, 49) <= x < Fraction(4, 15):
        return CITE_N3_INTERVAL
    if Fraction(2 * n - 1, 2 * n * n) <= x < Fraction(2, 2 * n + 1):
        return CITE_WIDE_INTERVAL
    return None


def classify_oracle(sid: TightStructureId) -> FillabilityVerdict:
    """Fillability verdict by rule table, first match wins: the rule
    chain as written before atlas.classify read P only through
    ShuffleClass.features."""
    n = n_of(sid.r)
    pos = triangle_position(sid)
    window = window_oracle(sid.r, n)
    if pos.tag == "Base":
        return FillabilityVerdict(Fillability.STEIN, CITE_BASE_ROW)
    if pos.tag == "Interior":
        return FillabilityVerdict(Fillability.STRONG_NOT_EXACT, CITE_INTERIOR)
    if window == CITE_N2_INTERVAL:
        if _uniform(sid.P):
            return FillabilityVerdict(Fillability.STEIN, CITE_N2_INTERVAL)
        return FillabilityVerdict(Fillability.STRONG_NOT_EXACT, CITE_N2_INTERVAL)
    if window == CITE_N3_INTERVAL:
        if pos.tag == "Side" or _uniform(sid.P):
            return FillabilityVerdict(Fillability.STEIN, CITE_N3_INTERVAL)
        return FillabilityVerdict(Fillability.STRONG_NOT_EXACT, CITE_N3_INTERVAL)
    if window == CITE_WIDE_INTERVAL:
        if n <= 3 or pos.tag == "Top":
            return FillabilityVerdict(Fillability.STEIN, CITE_WIDE_INTERVAL)
        runs = sid.P.blocks.runs
        last_size = len(runs[-1]) if runs else 0
        last_minus = sid.P.minus_counts[-1] if runs else 0
        if (pos.side == "low" and last_minus == 0) or (
            pos.side == "high" and last_minus == last_size
        ):
            return FillabilityVerdict(Fillability.STEIN, CITE_WIDE_INTERVAL)
        return FillabilityVerdict(
            Fillability.STRONG_STEIN_CONDITIONAL,
            CITE_WIDE_INTERVAL,
            note="Stein exactly when the matching side structure on the 1/%d-surgery "
            "is Stein (open)" % (n + 1),
        )
    return FillabilityVerdict(Fillability.NOT_COVERED, None)


def enumerated_tally(r: Slope) -> dict:
    """Verdict tallies of the r-surgery by running classify_oracle on
    every enumerated structure, statuses with count 0 omitted: the
    per-structure count that atlas.verdict_summary replaces by one
    verdict per position and value of P's features."""
    tally = Counter(classify_oracle(sid).status for sid in enumerate_structures(r))
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


def shorten_oracle(d: DecoratedPath) -> DecoratedPath | None:
    """consistently_shorten on Slopes: drop the leftmost vertex i whose
    neighbours span a Farey edge, merging edges i-1 and i when their
    signs agree (None when they do not; the unsigned first edge absorbs
    edge 1), then compare the vertex tuple with minimal_path's."""
    target = minimal_path(d.path.start, d.path.end)
    verts = list(d.path.vertices)
    signs = [0] + list(d.signs)  # signs[e] is the sign of edge e
    i = 1
    while i < len(verts) - 1:
        if not is_edge(verts[i - 1], verts[i + 1]):
            i += 1
            continue
        if i > 1 and signs[i - 1] != signs[i]:
            return None
        del verts[i], signs[i]
        i = max(1, i - 1)
    if tuple(verts) != target.vertices:
        return None
    return DecoratedPath(target, tuple(signs[1:]))


def cable_surgery_oracle(x: SolidTorusStructure, p: int, q: int, count: int) -> SolidTorusStructure:
    """legendrian_cable_surgery on Slopes: lengthen the canonical
    decorated path of x through q/p (new edges take the refined edge's
    sign; next to the meridian the first stays unsigned and the rest
    take +), push the vertices up to q/p through
    reglue_map(p, q, -1)**count as Slopes, check the image as a
    FareyPath and shorten it with shorten_oracle."""
    if p < 2:
        raise DomainError("cabling requires p >= 2")
    if math.gcd(p, abs(q)) != 1:
        raise DomainError("cabling requires gcd(p,q) = 1")
    if count < 1:
        raise DomainError("count must be a positive integer")
    t = make_slope(q, p)
    if t == x.meridian:
        raise DomainError("cabling slope coincides with the meridian")
    d = x.iso_class.canonical_decorated()
    if t not in d.path.vertices:
        if not cw_interval_contains(t, x.meridian, x.dividing):
            raise DomainError(
                "cabling slope %s is outside the interval (%s, %s)" % (t, x.meridian, x.dividing)
            )
        vs = d.path.vertices
        i = next(i for i in range(len(vs) - 1) if cw_interval_contains(t, vs[i], vs[i + 1]))
        left, right = minimal_path(vs[i], t), minimal_path(t, vs[i + 1])
        path = FareyPath(vs[: i + 1] + left.vertices[1:-1] + (t,) + right.vertices[1:] + vs[i + 2 :])
        c = len(path) - len(d.path) + 1  # edges replacing edge i
        if i == 0:
            signs = (1,) * (c - 1) + d.signs
        else:
            signs = d.signs[: i - 1] + (d.signs[i - 1],) * c + d.signs[i:]
        d = DecoratedPath(path, signs)
    idx = d.path.vertices.index(t)
    m = reglue_map(p, q, -1) ** count
    new_verts = tuple(m.apply(v) for v in d.path.vertices[: idx + 1]) + d.path.vertices[idx + 1 :]
    short = shorten_oracle(DecoratedPath(FareyPath(new_verts), d.signs))
    if short is None:
        raise DomainError("surgered path did not shorten to a tight structure")
    return SolidTorusStructure(new_verts[0], x.dividing, shuffle_canonical(short))


def concat(first: FareyPath, second: FareyPath) -> FareyPath:
    """Join two paths sharing first.end == second.start."""
    if first.end != second.start:
        raise DomainError("paths do not share an endpoint")
    return FareyPath(first.vertices + second.vertices[1:])


def full_path(sid: TightStructureId) -> DecoratedPath:
    """Decorated path of the structure: a representative of P followed
    by the integer-reciprocal block 1/n, ..., 1/k with l minus signs at
    its clockwise end."""
    n = n_of(sid.r)
    d = sid.P.canonical_decorated()
    if sid.k == n:
        return d
    tail = FareyPath(tuple(make_slope(1, j) for j in range(n, sid.k - 1, -1)))
    tail_signs = (1,) * (n - sid.k - sid.l) + (-1,) * sid.l
    return DecoratedPath(concat(d.path, tail), d.signs + tail_signs)


def mixed_tori(sid: TightStructureId) -> list[MixedTorus]:
    """All interior vertices of the structure's path where some shuffle
    representative has opposite signs on the two adjacent edges."""
    full = full_path(sid)
    vs = full.path.vertices
    runs = signed_blocks(full.path).runs
    counts = shuffle_canonical(full).minus_counts
    spots = set()
    for run, cnt in zip(runs, counts):
        if 0 < cnt < len(run):
            # both signs inside one block: every interior vertex works
            for e in run[:-1]:
                spots.add(e + 1)
    for (run_a, cnt_a), (run_b, cnt_b) in zip(
        zip(runs, counts), zip(runs[1:], counts[1:])
    ):
        can_flip = (cnt_a < len(run_a) and cnt_b > 0) or (cnt_a > 0 and cnt_b < len(run_b))
        if can_flip:
            spots.add(run_b[0])
    return [MixedTorus(vs[i], vs[i - 1], vs[i + 1]) for i in sorted(spots)]


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _enumerate_listing(args) -> int:
    # `enumerate r` as the CLI listed it, one structure at a time
    sids = enumerate_structures(args.r)
    if args.format == "json":
        print(
            _json(
                [
                    {"r": str(sid.r), "k": sid.k, "l": sid.l, "P": sid.P.to_json()}
                    for sid in sids
                ]
            )
        )
    elif args.format == "tsv":
        print("r\tk\tl\tP")
        for sid in sids:
            print("%s\t%d\t%d\t%s" % (sid.r, sid.k, sid.l, sid.P))
    else:
        for sid in sids:
            print("k=%d l=%d %s" % (sid.k, sid.l, full_path(sid)))
    return 0


def _classify_listing(args) -> int:
    # `classify r` as the CLI listed it: one TightStructureId, classify
    # and (for JSON) structure_record per structure
    sids = enumerate_structures(args.r)
    if args.format == "json":
        records = [structure_record(sid) for sid in sids]
        print(_json(records))
        statuses = {rec["status"] for rec in records}
    else:
        # text and tsv never show P, so no record (and no P.to_json()) is built
        verdicts = [classify(sid) for sid in sids]
        if args.format == "tsv":
            print("r\tk\tl\tposition\tstatus\tcite\tnote")
        for sid, verdict in zip(sids, verdicts):
            position, status = triangle_position(sid).tag, verdict.status.value
            if args.format == "tsv":
                cells = (sid.r, sid.k, sid.l, position, status, verdict.cite or "", verdict.note or "")
                print("%s\t%d\t%d\t%s\t%s\t%s\t%s" % cells)
            else:
                line = "k=%d l=%d position=%s status=%s" % (sid.k, sid.l, position, status)
                if verdict.cite:
                    line += " cite=%s" % verdict.cite
                print(line)
        statuses = {verdict.status.value for verdict in verdicts}
    if args.strict and Fillability.NOT_COVERED.value in statuses:
        return 4
    return 0


_PARSER = _parsers()


def main_oracle(argv=None) -> int:
    """fareytight.cli.main as it parsed argv before it dispatched by the
    command's name: one parse_args of the top-level parser over all of
    argv (sys.argv[1:] when argv is None)."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return _run(args)


def listing_oracle(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `fareytight classify r ...` or
    `fareytight enumerate r ...` (no s), as the CLI wrote them one
    structure at a time: the per-structure listings that
    atlas.structure_cells and the CLI's batched writes replace.  The
    slope must parse."""
    args = _PARSER.parse_args(argv)
    assert args.command == "classify" or args.s is None, argv
    oracle = _classify_listing if args.command == "classify" else _enumerate_listing
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = oracle(args)
        except DomainError as exc:
            print("error: %s" % exc, file=sys.stderr)
            code = 3
    return code, out.getvalue(), err.getvalue()
