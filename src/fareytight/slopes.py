"""Exact slope arithmetic on the boundary torus, and the Farey graph.

A slope is an element of Q union {inf} labelling an isotopy class of
essential curves on a torus.  Slopes are kept as reduced integer pairs
(num, den) with den >= 0; infinity is stored as 1/0.  No floats are used
anywhere: every geometric predicate reduces to an integer cross product.

Conventions for the circle at infinity of the hyperbolic disk carrying
the Farey tessellation (0 at the top, inf at the bottom, positives on
the right): moving clockwise from 0 runs through the positive rationals
in increasing order to inf, then through the negative rationals
(increasing, i.e. from very negative up towards 0) back to 0.

Internally a slope p/q is represented by the primitive vector (q, p),
i.e. (den, num).  With that convention the clockwise circular order of
slopes is the cyclic closure of the linear order

    negatives < 0 < positives < inf

which is decided by the sign of det(a, b) = a.num*b.den - b.num*a.den.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterator
from operator import attrgetter

# exact answers have no size limit: lift CPython's 4,300-digit int <-> str limit
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


class DomainError(ValueError):
    """A value is outside the mathematical domain of an operation."""


class ParseError(ValueError):
    """Malformed textual input."""


class _Value:
    """An immutable value whose fields are the names in __slots__: the
    subclass's __init__ sets each once, through object.__setattr__, and
    values of one class compare and hash by the tuple of their fields,
    as frozen dataclasses do, without importing dataclasses."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        cls._fields = get if len(cls.__slots__) > 1 else staticmethod(lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return self.__class__, self._fields(self)

    def __repr__(self):
        fields = ("%s=%r" % (f, getattr(self, f)) for f in self.__slots__)
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(fields))


class Slope(_Value):
    """Reduced fraction num/den with den >= 0; infinity is Slope(1, 0)."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if den < 0:
            raise DomainError("slope denominator must be nonnegative")
        if den == 0 and num != 1:
            raise DomainError("infinite slope must be stored as 1/0")
        if den > 0 and math.gcd(abs(num), den) != 1:
            raise DomainError("slope %d/%d is not reduced" % (num, den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def __str__(self) -> str:
        return _text(self.den, self.num)

    def __repr__(self) -> str:
        return "Slope(%s)" % self


def _text(d: int, n: int) -> str:
    """str of the slope of the vector (d, n), made from the integers."""
    if d < 0:
        d, n = -d, -n
    if d > 1:
        return "%d/%d" % (n, d)
    return str(n) if d else "inf"


def make_slope(num: int, den: int) -> Slope:
    """Reduce (num, den) to the canonical representative."""
    if num == 0 and den == 0:
        raise DomainError("0/0 is not a slope")
    if den == 0:
        return Slope(1, 0)
    if den < 0:
        num, den = -num, -den
    g = math.gcd(abs(num), den)
    return Slope(num // g, den // g)


INF = Slope(1, 0)
ZERO = Slope(0, 1)
ONE = Slope(1, 1)


_SLOPE_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")  # ASCII digits only


def parse_slope(text: str) -> Slope:
    """Parse 'p/q', 'p' or 'inf' (case-insensitive); p and q signed ASCII integers."""
    tok = text.strip()
    if tok.lower() == "inf":
        return INF
    m = _SLOPE_TEXT.fullmatch(tok)
    p, q = (int(m[1]), int(m[2] or 1)) if m else (0, 0)
    if not (p or q):  # no match, or 0/0
        raise ParseError("not a slope: %r" % text)
    return make_slope(p, q)


def det(a: Slope, b: Slope) -> int:
    """Integer cross product; |det| == 1 characterises Farey adjacency."""
    return a.num * b.den - b.num * a.den


def is_edge(a: Slope, b: Slope) -> bool:
    """True when a and b span an edge of the Farey tessellation."""
    return abs(det(a, b)) == 1


def _pos_lt(a: Slope, b: Slope) -> bool:
    # linear position order: negatives < 0 < positives < inf
    return det(a, b) < 0


def cw_interval_contains(x: Slope, a: Slope, b: Slope) -> bool:
    """Is x strictly inside the clockwise arc from a to b?

    The arc starts at a and moves clockwise (positives increasing, then
    inf, then negatives) until it reaches b; neither endpoint counts.
    Requires a != b.
    """
    if a == b:
        raise DomainError("interval endpoints must be distinct")
    if _pos_lt(a, b):
        return _pos_lt(a, x) and _pos_lt(x, b)
    return _pos_lt(a, x) or _pos_lt(x, b)


def farey_sum(a: Slope, b: Slope) -> Slope:
    """Mediant of two distinct slopes.

    inf enters the mediant as 1/0 when the other operand is >= 0 and as
    -1/0 when the other operand is negative, so that the result is the
    Farey child on the correct side of the circle.  inf is the one slope
    1/0, so two distinct slopes have at most one infinite.
    """
    if a == b:
        raise DomainError("Farey sum requires distinct slopes")
    na, da = a.num, a.den
    nb, db = b.num, b.den
    if a.is_infinite and b.num < 0:
        na = -1
    if b.is_infinite and a.num < 0:
        nb = -1
    return make_slope(na + nb, da + db)


def rationals_in(a: Slope, b: Slope, bound: int) -> list[Slope]:
    """Reduced p/q with q <= bound in [a, b), ascending; a < b in (0,1], bound >= 1.

    Walks the Farey sequence of order bound: a bounded Stern-Brocot
    descent finds its consecutive terms u < a <= v, and the next-term
    rule steps from there, so no sort is needed.
    """
    return list(_farey_walk(a, b, bound))


def _farey_walk(a: Slope, b: Slope, bound: int) -> Iterator[Slope]:
    """The terms of rationals_in(a, b, bound), made as they are read; a, b
    and bound are checked, and the descent made, on the call."""
    for end in (a, b):
        if end.is_infinite or not 0 < end.num <= end.den:
            raise DomainError("sweep interval must lie inside (0,1]")
    if not _pos_lt(a, b):
        raise DomainError("empty sweep interval")
    if not isinstance(bound, int):
        raise DomainError("sweep bound must be an integer")
    if bound < 1:
        raise DomainError("sweep bound must be at least 1")
    u, v = (0, 1), (1, 0)
    while v[1] + u[1] <= bound:
        m = (u[0] + v[0], u[1] + v[1])
        if m[0] * a.den < a.num * m[1]:
            u = m
        else:
            v = m
    return _farey_steps(u, v, b, bound)


def _farey_steps(u, v, b: Slope, bound: int) -> Iterator[Slope]:
    # u < v are consecutive terms of the Farey sequence of order bound
    while v[0] * b.den < b.num * v[1]:
        yield Slope(*v)
        k = (bound + u[1]) // v[1]
        u, v = v, (k * v[0] - u[0], k * v[1] - u[1])


def _cross(v: tuple[int, int], w: tuple[int, int]) -> int:
    return v[0] * w[1] - v[1] * w[0]


def _fan_basis(s: Slope) -> tuple[tuple[int, int], tuple[int, int]]:
    """Vector v0 = (den, num) of s and some w0 with cross(v0, w0) == 1:
    den*wn - num*wd == 1 says num*wd == -1 mod den, so wd is minus the
    inverse of num mod den, and wn follows.

    The Farey neighbours of s are exactly the slopes of w0 + k*v0 over
    integer k, swept monotonically around the circle and accumulating
    at s on both ends.  Every other choice of w0 is w0 + j*v0, which
    shifts each parameter k by -j: the members, so the set of
    neighbors_in_interval, and the pivot w0 + (k-1)*v0 of each step of
    _greedy_blocks do not depend on the choice.
    """
    if s.den == 0:
        return (0, 1), (-1, 0)
    wd = -pow(s.num, -1, s.den)
    return (s.den, s.num), (wd, (1 + s.num * wd) // s.den)


def _fan_param(v0, w0, t: Slope) -> tuple[int, int]:
    """floor(k) and ceil(k) of the k with t parallel to w0 + k*v0 (t must
    differ from the apex): k = -cross(T, w0) / cross(T, v0), T = (t.den,
    t.num); // floors whatever the signs."""
    vt = (t.den, t.num)
    num, denom = -_cross(vt, w0), _cross(vt, v0)
    if denom == 0:
        raise DomainError("slope coincides with the fan apex")
    return num // denom, -(-num // denom)


def _fan_window(s0: Slope, a: Slope, b: Slope) -> tuple[tuple[int, int], tuple[int, int], int, int]:
    """(pivot, base, lo, hi): the Farey neighbours of s0 strictly inside
    the arc between a and b that does not hold s0 (a, b != s0) are the
    members base + j*pivot, lo <= j < hi, with pivot = -v0 and base = w0
    of _fan_basis, so that cross(base, pivot) == 1 as on a path block.
    cross(member j, member j+1) == 1, so the members run clockwise as j
    ascends: the fan parametrises the circle minus s0, and the arc away
    from s0 is the bounded window between the parameters of a and b,
    endpoints excluded: the integers above floor(min) and below
    ceil(max)."""
    (vd, vn), base = _fan_basis(s0)
    pivot = (-vd, -vn)
    (fa, ca), (fb, cb) = _fan_param(pivot, base, a), _fan_param(pivot, base, b)
    return pivot, base, min(fa, fb) + 1, max(ca, cb)


def neighbors_in_interval(s0: Slope, a: Slope, b: Slope) -> frozenset[Slope]:
    """All Farey neighbours of s0 strictly inside the clockwise arc (a, b).

    Finite exactly when s0 lies outside the closed arc [a, b]; the
    neighbour fan of s0 accumulates at s0, so an arc whose closure
    touches s0 contains infinitely many neighbours.
    """
    if cw_interval_contains(s0, a, b) or s0 in (a, b):  # raises first where a == b
        raise DomainError("neighbour set inside the interval is infinite")
    (pd, pn), (ud, un), lo, hi = _fan_window(s0, a, b)
    return frozenset(make_slope(un + j * pn, ud + j * pd) for j in range(lo, hi))


def _greedy_blocks(a: Slope, b: Slope) -> Iterator[tuple[tuple[int, int], tuple[int, int], int]]:
    """The maximal blocks (pivot, base, count) of the geodesic from a
    clockwise to b, made as they are read; a == b raises DomainError on
    the first read.  paths.minimal_path, tori.phi and tori.count_tight,
    and cf_runs read the geodesic here.

    Greedy construction: while the current vertex u is not b, step to
    the Farey neighbour of u in the clockwise arc (u, b] that is closest
    to b; that neighbour is unique, and it need not be adjacent to b
    (from 1/20 towards 1/2 the step goes to 1/19).  In vectors, with the
    lift B of b that has cross(V, B) > 0 at the vector V of u: the
    neighbours are W + k*V for any W with cross(V, W) == 1, the ones in
    the arc have cross(W, B) + k*cross(V, B) >= 0, and the closest to B
    has the least such k.

    The step fixes the block's pivot P = W + (k-1)*V, and the greedy
    steps after it stay in P's fan while they can: send P to inf, so
    that the members V + j*P go to the integers j and b to t =
    cross(V, B) / cross(B, P) >= 1.  The neighbours of j inside (j, t)
    are j + 1/h, so the greedy step from j goes to j + 1 while j + 1 <=
    t, and the block has floor(t) edges.  It ends at b when t is an
    integer; otherwise the next step has another pivot, and -(the
    member before) serves as its W.  So the loop runs once per block,
    with two divisions, and no vertex is built.
    """
    if a == b:
        raise DomainError("minimal path endpoints must be distinct")
    (vd, vn), (wd, wn) = _fan_basis(a)
    bd, bn = b.den, b.num
    if vd * bn - vn * bd < 0:
        bd, bn = -bd, -bn
    c = vd * bn - vn * bd
    while c:
        k = -((wd * bn - wn * bd) // c)  # ceil(-cross(W, B) / c)
        pd, pn = wd + (k - 1) * vd, wn + (k - 1) * vn
        m = c // (bd * pn - bn * pd)
        yield (pd, pn), (vd, vn), m
        vd, vn = vd + m * pd, vn + m * pn
        wd, wn = pd - vd, pn - vn
        c = vd * bn - vn * bd


class ContinuedFraction(_Value):
    """Minus-convention continued fraction [a0, ..., an], every ai >= 2.

    Value is a0 - 1/(a1 - 1/(... - 1/an)), always a rational > 1.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        if not entries:
            raise DomainError("continued fraction needs at least one entry")
        if any(e < 2 for e in entries):
            raise DomainError("minus continued fraction entries must be >= 2")
        object.__setattr__(self, "entries", entries)

    def __str__(self) -> str:
        return "[%s]" % ",".join(str(e) for e in self.entries)


def cf_minus(x: Slope) -> ContinuedFraction:
    """Minus-convention continued fraction of a rational x > 1: the runs
    of cf_runs, spelled out."""
    return ContinuedFraction(tuple(e for e, count in cf_runs(x) for _ in range(count)))


def cf_runs(x: Slope) -> Iterator[tuple[int, int]]:
    """The entries of cf_minus(x) as runs (entry, count), in order, made
    as they are read; x is checked on the first read.

    The entries are the turns of the geodesic from inf clockwise to 1/x
    (Hatcher, Topology of Numbers, ch. 2): on its lift V_0, ..., V_m,
    with cross +1 at every edge, V_i+1 = c_i*V_i - V_i-1 for c_i =
    cross(V_i-1, V_i+1), and [c_1, ..., c_m-1] is the minus continued
    fraction of x.  With P = V_i - V_i-1 and Q = V_i+1 - V_i, cross(P,
    Q) = 2 - c_i.  So a block of m edges (_greedy_blocks), one pivot,
    holds m - 1 entries 2, and two blocks with pivots P and Q meet in
    the entry 2 - cross(P, Q), which is not 2: the runs of 2s are
    maximal, and each other entry is a run of its own.  One block is
    read per run, so 10**10 entries 2 cost what one does.
    """
    if x.is_infinite or not _pos_lt(ONE, x):
        raise DomainError("continued fraction domain is rationals > 1")
    pivot = None
    for q, _, m in _greedy_blocks(INF, Slope(x.den, x.num)):
        if pivot is not None:
            yield 2 - _cross(pivot, q), 1
        if m > 1:
            yield 2, m - 1
        pivot = q
