"""The tight contact structures on r-surgery on the right-handed
trefoil, for r in (0,1), and their fillability status.

With n maximal such that r < 1/n, a structure is a triple (k, l, P):
row k in 1..n, offset l in 0..n-k, and P a tight structure on the
solid torus from r to 1/n.  The triples form a triangle with n(n+1)/2
vertices, each holding phi(r) choices of P.  Verdicts are looked up in
a rule table encoding known classification results; each verdict cites
the result it comes from, and anything outside the covered surgery
ranges is reported as NotCoveredByPaper rather than guessed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from enum import Enum

from .slopes import (
    INF,
    DomainError,
    Slope,
    _Value,
    _fan_param,
    _fan_window,
    is_edge,
    make_slope,
)
from .paths import FareyPath, minimal_path
from .tori import ShuffleClass, all_minus_counts, feature_counts


class Fillability(str, Enum):
    STEIN = "Stein"
    STRONG_NOT_EXACT = "StrongNotExact"
    STRONG_STEIN_CONDITIONAL = "StrongSteinConditional"
    NOT_COVERED = "NotCoveredByPaper"

    @property
    def json_key(self) -> str:
        return _JSON_KEYS[self]


_JSON_KEYS = {
    Fillability.STEIN: "stein",
    Fillability.STRONG_NOT_EXACT: "strong_not_exact",
    Fillability.STRONG_STEIN_CONDITIONAL: "strong_stein_conditional",
    Fillability.NOT_COVERED: "not_covered_by_paper",
}

# citation tags attached to verdicts, one per encoded result
CITE_BASE_ROW = "Lemma 4.2"
CITE_INTERIOR = "Thm 4.4"
CITE_WIDE_INTERVAL = "Thm 1.3"  # r in [(2n-1)/2n^2, 2/(2n+1))
CITE_N2_INTERVAL = "Thm 1.4"  # n = 2, r in [9/25, 4/11)
CITE_N3_INTERVAL = "Thm 1.5"  # n = 3, r in [13/49, 4/15)


def n_of(r: Slope) -> int:
    """The unique n with 1/(n+1) <= r < 1/n, for r in (0,1)."""
    if r.is_infinite or not 0 < r.num < r.den:
        raise DomainError("surgery coefficient must lie in (0,1)")
    return (r.den - 1) // r.num


class TightStructureId(_Value):
    """Coordinates (k, l, P) of one tight structure on the r-surgery."""

    __slots__ = ("r", "k", "l", "P")

    def __init__(self, r: Slope, k: int, l: int, P: ShuffleClass):
        n = n_of(r)
        if not 1 <= k <= n:
            raise DomainError("k must lie in 1..%d" % n)
        if not 0 <= l <= n - k:
            raise DomainError("l must lie in 0..%d" % (n - k))
        if P.path.start != r or P.path.end != make_slope(1, n):
            raise DomainError("P must run from %s to 1/%d" % (r, n))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "P", P)


class TrianglePosition(_Value):
    """Position of a cell (k, l) in the triangle: one of five module
    instances, the only ones that of, cells and runs hand out, so
    positions compare and hash by identity."""

    __slots__ = ("tag", "side")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, tag: str, side: str | None = None):
        object.__setattr__(self, "tag", tag)  # Base, Top, Interior or Side
        object.__setattr__(self, "side", side)  # "low" (l=0) or "high" (l=n-k) when Side

    @staticmethod
    def of(n: int, k: int, l: int) -> TrianglePosition:
        """Position of the cell (k, l) in the triangle of the n-th row."""
        if k == 1:
            return _BASE
        if k == n:
            return _TOP
        if 1 <= l <= n - k - 1:
            return _INTERIOR
        return _SIDE_LOW if l == 0 else _SIDE_HIGH

    @staticmethod
    def cells(n: int) -> dict[TrianglePosition, int]:
        """Number of cells (k, l) at each position of the triangle of the
        n-th row, positions with no cells left out: the count of
        TrianglePosition.of over the n(n+1)/2 cells, in closed form."""
        if n == 1:
            return {_BASE: 1}
        found = {_BASE: n, _TOP: 1, _SIDE_LOW: n - 2, _SIDE_HIGH: n - 2,
                 _INTERIOR: (n - 2) * (n - 3) // 2}
        return {pos: cells for pos, cells in found.items() if cells}

    @staticmethod
    def runs(n: int) -> Iterator[tuple[int, int, int, TrianglePosition]]:
        """The cells of the triangle of the n-th row as runs (k, lo, hi,
        position), one per stretch of cells (k, l), lo <= l < hi, that
        TrianglePosition.of puts in one position: k ascending, l
        ascending, at most three runs to a row."""
        yield 1, 0, n, _BASE
        for k in range(2, n):
            yield k, 0, 1, _SIDE_LOW
            if k < n - 1:
                yield k, 1, n - k, _INTERIOR
            yield k, n - k, n - k + 1, _SIDE_HIGH
        if n > 1:
            yield n, 0, 1, _TOP


_BASE, _TOP = TrianglePosition("Base"), TrianglePosition("Top")
_INTERIOR = TrianglePosition("Interior")
_SIDE_LOW, _SIDE_HIGH = TrianglePosition("Side", "low"), TrianglePosition("Side", "high")


class MixedTorus(_Value):
    """Convex torus with dividing slope s0 flanked by opposite-sign
    basic slices whose far dividing slopes are s1 and s_neg1."""

    __slots__ = ("s0", "s1", "s_neg1")

    def __init__(self, s0: Slope, s1: Slope, s_neg1: Slope):
        if not (is_edge(s0, s1) and is_edge(s0, s_neg1)):
            raise DomainError("associated slopes must be Farey-adjacent to s0")
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "s_neg1", s_neg1)


class FillabilityVerdict(_Value):
    __slots__ = ("status", "cite", "note")

    def __init__(self, status: Fillability, cite: str | None, note: str | None = None):
        if status is Fillability.NOT_COVERED:
            if cite is not None:
                raise DomainError("uncovered verdicts carry no citation")
        elif not cite:
            raise DomainError("covered verdicts must cite their source result")
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "cite", cite)
        object.__setattr__(self, "note", note)


def structure_cells(r: Slope) -> tuple[FareyPath, dict, Iterator]:
    """The structures of the r-surgery as (path, verdicts, runs), each fact
    of r made once: path runs from r to 1/n and carries the phi(r) choices
    of P, in the order of all_minus_counts; verdicts is the table
    {position: {P.features: (verdict, classes)}}, one _rule call per
    position and value of P.features on the window of r (_window), classes
    the number of P with those features (feature_counts); runs is
    TrianglePosition.runs(n), which yields (k, lo, hi, position) for the
    cells (k, l), lo <= l < hi, of one position, k and l ascending.
    tori.feature_column lists the features of every P.

    r is checked here, not at the first run: n_of raises on a
    coefficient outside (0,1), and every class lies on the one path from
    r to 1/n, which are the checks TightStructureId makes per
    structure."""
    n = n_of(r)
    path = minimal_path(r, make_slope(1, n))
    window, kinds = _window(r, n), feature_counts(path).items()
    verdicts = {pos: {f: (_rule(window, n, pos, f), classes) for f, classes in kinds}
                for pos in TrianglePosition.cells(n)}
    return path, verdicts, TrianglePosition.runs(n)


def enumerate_structures(r: Slope) -> list[TightStructureId]:
    """All (k, l, P), k ascending, l ascending, P in enumeration order;
    n(n+1)/2 * phi(r) entries.  The listing commands read structure_cells
    instead, which builds no object per structure."""
    path, _, runs = structure_cells(r)
    classes = [ShuffleClass(path, counts) for counts in all_minus_counts(path)]
    return [TightStructureId(r, k, l, P) for k, lo, hi, _ in runs for l in range(lo, hi)
            for P in classes]


def triangle_position(sid: TightStructureId) -> TrianglePosition:
    return TrianglePosition.of(n_of(sid.r), sid.k, sid.l)


def exceptional_slopes(t: MixedTorus, paper_mode: bool = False) -> frozenset[Slope]:
    """Farey neighbours of s0 in the arc between the associated slopes
    not containing s0: the members of exceptional_members, as a set."""
    (pd, pn), (ud, un), ranges = exceptional_members(t, paper_mode)
    return frozenset(make_slope(un + j * pn, ud + j * pd) for r in ranges for j in r)


def exceptional_members(t: MixedTorus, paper_mode: bool = False) -> tuple:
    """(pivot, base, ranges): the exceptional slopes of t, the Farey
    neighbours of s0 in the arc between the associated slopes not
    containing s0, are the members base + j*pivot of the fan of s0
    (slopes._fan_window), j running over each of the three ranges in
    turn, in ascending slope order (negatives < 0 < positives < inf).

    The members run clockwise as j ascends, so they ascend but where
    they pass inf, at the j where their denominator changes sign: the
    members after inf come first, then those before it, then inf itself
    where it is one.  paper_mode drops slope 0 in the one tabulated
    pattern where s0 is 1/n with associated slopes 2/(2n+1) and
    1/(n-1), whose members are 0 and 1/(n+1), at j = 0 and 1; the raw
    neighbour computation is the default.
    """
    if t.s1 == t.s_neg1:
        raise DomainError("interval endpoints must be distinct")
    pivot, base, lo, hi = _fan_window(t.s0, t.s1, t.s_neg1)
    n = t.s0.den
    if paper_mode and t.s0.num == 1 and n > 1 and {t.s1, t.s_neg1} == {make_slope(2, 2 * n + 1), make_slope(1, n - 1)}:
        lo = 1
    # inf is parallel to base + j*pivot at a j from f to c; no member of the fan of inf is inf
    f, c = _fan_param(pivot, base, INF) if n else (lo - 1, lo)
    return pivot, base, (range(max(f + 1, lo), hi), range(lo, min(c, hi)), range(max(c, lo), min(f + 1, hi)))


def _window(r: Slope, n: int) -> str | None:
    """The cite of the theorem window [lo, hi) that holds r, n = n_of(r), or
    None, from integer cross products on r.num and r.den."""
    p, q = r.num, r.den
    if n == 2 and 9 * q <= 25 * p and 11 * p < 4 * q:
        return CITE_N2_INTERVAL
    if n == 3 and 13 * q <= 49 * p and 15 * p < 4 * q:
        return CITE_N3_INTERVAL
    if (2 * n - 1) * q <= 2 * n * n * p and (2 * n + 1) * p < 2 * q:
        return CITE_WIDE_INTERVAL
    return None


def _rule(window: str | None, n: int, pos: TrianglePosition, features: tuple[bool, ...]) -> FillabilityVerdict:
    """Fillability verdict by rule table, first match wins.  A verdict
    reads nothing but the window of r (_window), n, the triangle position
    and the features of P (ShuffleClass.features)."""
    uniform, last_all_plus, last_all_minus = features
    if pos.tag == "Base":
        return FillabilityVerdict(Fillability.STEIN, CITE_BASE_ROW)
    if pos.tag == "Interior":
        return FillabilityVerdict(Fillability.STRONG_NOT_EXACT, CITE_INTERIOR)
    if window is None:
        return FillabilityVerdict(Fillability.NOT_COVERED, None)
    if window == CITE_N2_INTERVAL:
        stein = uniform
    elif window == CITE_N3_INTERVAL:
        stein = pos.tag == "Side" or uniform
    elif n <= 3 or pos.tag == "Top" or (last_all_plus if pos.side == "low" else last_all_minus):
        stein = True  # Thm 1.3: pos is Top or a Side here
    else:
        note = "Stein exactly when the matching side structure on the 1/%d-surgery is Stein (open)"
        return FillabilityVerdict(Fillability.STRONG_STEIN_CONDITIONAL, window, note % (n + 1))
    return FillabilityVerdict(Fillability.STEIN if stein else Fillability.STRONG_NOT_EXACT, window)


def classify(sid: TightStructureId) -> FillabilityVerdict:
    """Fillability verdict of one structure, by _rule."""
    n = n_of(sid.r)
    return _rule(_window(sid.r, n), n, TrianglePosition.of(n, sid.k, sid.l), sid.P.features)


def cell_tallies(r: Slope) -> dict[TrianglePosition, Counter]:
    """Verdict tallies over the phi(r) structures of one (k, l) cell, for
    each triangle position present on the r-surgery: the classes of the
    verdict table of structure_cells, summed per status.  No structure is
    enumerated and nothing of r is made twice."""
    out = {}
    for pos, found in structure_cells(r)[1].items():
        tally = out[pos] = Counter()
        for verdict, classes in found.values():
            tally[verdict.status] += classes
    return out


def verdict_summary(r: Slope) -> dict[Fillability, int]:
    """Verdict tallies over all n(n+1)/2 * phi(r) structures of the
    r-surgery, statuses with count 0 omitted: each tally of cell_tallies
    weighted by the number of cells in its position."""
    cells, tally = TrianglePosition.cells(n_of(r)), Counter()
    for pos, found in cell_tallies(r).items():
        for status, cnt in found.items():
            tally[status] += cells[pos] * cnt
    return {status: tally[status] for status in Fillability if tally[status]}


def structure_record(sid: TightStructureId) -> dict:
    """JSON-ready record of one structure and its verdict."""
    verdict = classify(sid)
    rec = {
        "r": str(sid.r),
        "k": sid.k,
        "l": sid.l,
        "P": sid.P.to_json(),
        "position": triangle_position(sid).tag,
        "status": verdict.status.value,
        "cite": verdict.cite,
    }
    if verdict.note is not None:
        rec["note"] = verdict.note
    return rec
