"""Expected answers computed apart from fareytight.

Everything here works on plain integer pairs and exact Fractions and
never calls the library, so a fault in the library cannot hide itself
by also being in the check.  A slope is a pair (num, den) with den >= 0
and infinity stored as (1, 0).
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = (1, 0)

STEIN = "Stein"
STRONG_NOT_EXACT = "StrongNotExact"
CONDITIONAL = "StrongSteinConditional"
NOT_COVERED = "NotCoveredByPaper"

# snake_case keys of `summary --format json`
JSON_KEYS = {
    STEIN: "stein",
    STRONG_NOT_EXACT: "strong_not_exact",
    CONDITIONAL: "strong_stein_conditional",
    NOT_COVERED: "not_covered_by_paper",
}


def reduce(num: int, den: int) -> tuple[int, int]:
    if den == 0:
        return INF
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


def text(s: tuple[int, int]) -> str:
    num, den = s
    if den == 0:
        return "inf"
    return str(num) if den == 1 else "%d/%d" % (num, den)


def parse(tok: str) -> tuple[int, int]:
    if tok == "inf":
        return INF
    num, _, den = tok.partition("/")
    return reduce(int(num), int(den or 1))


def det(a, b) -> int:
    return a[0] * b[1] - b[0] * a[1]


def minus_cf(x: Fraction) -> list[int]:
    """Entries of x = a0 - 1/(a1 - 1/(...)), every entry >= 2, for x > 1."""
    out = []
    while True:
        a = math.ceil(x)
        out.append(a)
        if a == x:
            return out
        x = 1 / (a - x)


def cf_eval(entries) -> Fraction:
    acc = Fraction(entries[-1])
    for a in reversed(entries[:-1]):
        acc = a - 1 / acc
    return acc


def from_cf(entries) -> tuple[int, int]:
    """The coefficient r in (0,1) with 1/r = [entries]."""
    x = cf_eval(entries)
    return x.denominator, x.numerator


def n_phi(r: tuple[int, int]) -> tuple[int, int]:
    """n with 1/(n+1) <= r < 1/n, and phi(r) = (a1-1)...(am-1)."""
    entries = minus_cf(Fraction(r[1], r[0]))
    return entries[0] - 1, math.prod(a - 1 for a in entries[1:])


def window(r: tuple[int, int], n: int) -> str:
    """Which classified coefficient window r lies in, if any."""
    x = Fraction(*r)
    if n == 2 and Fraction(9, 25) <= x < Fraction(4, 11):
        return "n2"
    if n == 3 and Fraction(13, 49) <= x < Fraction(4, 15):
        return "n3"
    if Fraction(2 * n - 1, 2 * n * n) <= x < Fraction(2, 2 * n + 1):
        return "wide"
    return "outside"


def expected_tally(r: tuple[int, int]) -> dict[str, int]:
    """Verdict tallies of the r-surgery from the closed forms of the
    classification theorems; zero tallies are left out.  Needs n >= 2."""
    n, phi = n_phi(r)
    win = window(r, n)
    if win == "n2":
        tally = {STEIN: 2 * phi + 2, STRONG_NOT_EXACT: phi - 2}
    elif win == "n3":
        tally = {STEIN: 5 * phi + 2, STRONG_NOT_EXACT: phi - 2}
    elif win == "wide" and n <= 3:
        tally = {STEIN: n * (n + 1) // 2 * phi}
    elif win == "wide":
        tally = {
            STEIN: (2 * n - 1) * phi,
            STRONG_NOT_EXACT: (n - 3) * (n - 2) // 2 * phi,
            CONDITIONAL: (n - 2) * phi,
        }
    else:
        tally = {
            STEIN: n * phi,
            STRONG_NOT_EXACT: (n - 2) * (n - 3) // 2 * phi,
            NOT_COVERED: (2 * n - 3) * phi,
        }
    return {k: v for k, v in tally.items() if v}


def circle_pos(s: tuple[int, int]) -> Fraction:
    """Clockwise coordinate in [0, 4): 0 at slope 0, 1 at 1, 2 at inf,
    3 at -1."""
    if s[1] == 0:
        return Fraction(2)
    v = Fraction(*s)
    if v >= 0:
        return 2 * v / (v + 1)
    return 4 - 2 * -v / (1 - v)


def cw_offset(start, x) -> Fraction:
    """How far x lies clockwise of start, in [0, 4)."""
    return (circle_pos(x) - circle_pos(start)) % 4


def path_error(verts, start, end, geodesic: bool) -> str | None:
    """Why verts is not a clockwise Farey path from start to end (or,
    with geodesic, not the shortest one); None when it is.

    A clockwise path is shortest exactly when no vertex can be dropped,
    i.e. no two vertices two steps apart span a Farey edge."""
    if verts[0] != start or verts[-1] != end:
        return "path runs %s..%s, expected %s..%s" % (
            text(verts[0]), text(verts[-1]), text(start), text(end))
    offsets = [cw_offset(start, v) for v in verts]
    if any(a >= b for a, b in zip(offsets, offsets[1:])):
        return "path is not monotone clockwise"
    for u, v in zip(verts, verts[1:]):
        if abs(det(u, v)) != 1:
            return "%s -- %s is not a Farey edge" % (text(u), text(v))
    if geodesic:
        for u, w in zip(verts, verts[2:]):
            if abs(det(u, w)) == 1:
                return "path is not shortest: %s -- %s is an edge" % (text(u), text(w))
    return None


def signed_runs(verts) -> list[int]:
    """Sizes of the blocks of signed edges (every edge but the first):
    two adjacent edges share a block when their outer vertices have
    |det| == 2."""
    sizes = []
    for e in range(1, len(verts) - 1):
        if sizes and abs(det(verts[e - 1], verts[e + 1])) == 2:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def minus_per_block(verts, signs) -> list[int]:
    """Minus signs in each signed block; signs[e-1] is the sign of edge e."""
    out, e = [], 1
    for size in signed_runs(verts):
        out.append(sum(1 for s in signs[e - 1 : e - 1 + size] if s < 0))
        e += size
    return out


def translate(s: tuple[int, int], a: int) -> tuple[int, int]:
    """s + a; fixes infinity."""
    return INF if s[1] == 0 else (s[0] + a * s[1], s[1])


def power_matrix(p: int, q: int, sign: int, k: int) -> list[list[int]]:
    """k-th power of the re-gluing matrix of the framing+sign surgery on
    the (p,q)-cable.  That matrix is I + N with N = -sign*[[pq,-p^2],
    [q^2,-pq]] and N^2 = 0, so its k-th power is I + kN."""
    c = -sign * k
    return [[1 + c * p * q, -c * p * p], [c * q * q, 1 - c * p * q]]


def apply_matrix(m, s: tuple[int, int]) -> tuple[int, int]:
    """Image of s under m acting on the vector (den, num)."""
    x, y = s[1], s[0]
    return reduce(m[1][0] * x + m[1][1] * y, m[0][0] * x + m[0][1] * y)


def fan_basis(s: tuple[int, int]):
    """(v0, w0) with v0 the vector (den, num) of s and cross(v0, w0) == 1;
    the Farey neighbours of s are the slopes of w0 + k*v0."""
    num, den = s
    old_r, r, old_u, u, old_v, v = den, num, 1, 0, 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_u, u = u, old_u - quo * u
        old_v, v = v, old_v - quo * v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    return (den, num), (-old_v, old_u)


def fan_member(v0, w0, k: int) -> tuple[int, int]:
    return reduce(w0[1] + k * v0[1], w0[0] + k * v0[0])
