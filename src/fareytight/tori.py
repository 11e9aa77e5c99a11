"""Tight contact structures on solid tori as decorated Farey paths.

A tight structure on a solid torus with lower meridian r and boundary
dividing slope s is a minimal clockwise path from r to s with a sign on
every edge but the first, taken up to shuffling signs inside continued
fraction blocks.  Counting is a product of (block size + 1) over the
signed blocks, which reproduces the continued fraction count phi.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .slopes import (
    DomainError,
    ONE,
    Slope,
    cf_minus,
    cw_interval_contains,
    is_edge,
    make_slope,
    _pos_lt,
)
from .paths import (
    BlockDecomposition,
    FareyPath,
    edge_runs,
    lengthen_through,
    minimal_path,
    same_block,
)


@dataclass(frozen=True)
class DecoratedPath:
    """Farey path with a sign (+1 or -1) on every edge except the first."""

    path: FareyPath
    signs: tuple[int, ...]

    def __post_init__(self):
        m = len(self.path)
        if m < 1:
            raise DomainError("decorated path needs at least one edge")
        if len(self.signs) != m - 1:
            raise DomainError("expected %d signs, got %d" % (m - 1, len(self.signs)))
        if any(s not in (1, -1) for s in self.signs):
            raise DomainError("signs must be +1 or -1")

    def __str__(self) -> str:
        vs = self.path.vertices
        out = [str(vs[0])]
        for e in range(1, len(vs)):
            mark = "" if e == 1 else ("+" if self.signs[e - 2] == 1 else "-")
            out.append(" →%s %s" % (mark, vs[e]))
        return "".join(out)


def signed_blocks(path: FareyPath) -> BlockDecomposition:
    """Block decomposition of the signed edges (all edges but the first).

    The unsigned first edge is excluded even when it is geometrically
    contiguous with the first signed block.  Computed once per path.
    """
    return path.signed_blocks


@dataclass(frozen=True)
class ShuffleClass:
    """A decorated path up to shuffling: per-signed-block minus counts."""

    path: FareyPath
    minus_counts: tuple[int, ...]

    def __post_init__(self):
        runs = signed_blocks(self.path).runs
        if len(self.minus_counts) != len(runs):
            raise DomainError(
                "expected %d block counts, got %d" % (len(runs), len(self.minus_counts))
            )
        for cnt, run in zip(self.minus_counts, runs):
            if not 0 <= cnt <= len(run):
                raise DomainError("minus count %d outside block of size %d" % (cnt, len(run)))

    @property
    def blocks(self) -> BlockDecomposition:
        return signed_blocks(self.path)

    def canonical_decorated(self) -> DecoratedPath:
        """Representative with the minus signs at the clockwise end of
        each block."""
        signs = [1] * (len(self.path) - 1)
        for cnt, run in zip(self.minus_counts, self.blocks.runs):
            for e in run[len(run) - cnt :]:
                signs[e - 1] = -1
        return DecoratedPath(self.path, tuple(signs))

    def to_json(self) -> dict:
        """JSON-ready form of the class.  Built once per class and shared
        by every caller (every record of a structure on this class), so
        treat it as read-only."""
        return self._json

    @cached_property
    def _json(self) -> dict:
        # the unsigned first edge is reported as its own block with count 0
        runs = [[e + 1 for e in run] for run in self.blocks.runs]
        return {
            "path": [str(v) for v in self.path.vertices],
            "blocks": [[1]] + runs,
            "minus": [0] + list(self.minus_counts),
        }

    def __str__(self) -> str:
        return str(self.canonical_decorated())


def shuffle_canonical(d: DecoratedPath) -> ShuffleClass:
    """The shuffle class of a decorated path (on a minimal path this is
    the isotopy class of the structure it describes)."""
    counts = []
    for run in signed_blocks(d.path).runs:
        counts.append(sum(1 for e in run if d.signs[e - 1] == -1))
    return ShuffleClass(d.path, tuple(counts))


@dataclass(frozen=True)
class SolidTorusStructure:
    """Tight structure on the solid torus with the given lower meridian
    and boundary dividing slope."""

    meridian: Slope
    dividing: Slope
    iso_class: ShuffleClass

    def __post_init__(self):
        if self.iso_class.path.start != self.meridian:
            raise DomainError("class path must start at the meridian")
        if self.iso_class.path.end != self.dividing:
            raise DomainError("class path must end at the dividing slope")


def count_tight(r: Slope, s: Slope) -> int:
    """Number of tight structures with lower meridian r and dividing
    slope s: product of (size + 1) over signed blocks of the minimal
    path from r to s."""
    out = 1
    for run in signed_blocks(minimal_path(r, s)).runs:
        out *= len(run) + 1
    return out


def phi(r: Slope) -> int:
    """For r in (0,1) with 1/r = [a0,...,an]: the product
    (a1-1)...(an-1).  This is count_tight(r, 1/n) for the maximal n
    with 1/n > r."""
    if r.is_infinite or not 0 < r.num < r.den:
        raise DomainError("phi is defined for slopes in (0,1)")
    entries = cf_minus(make_slope(r.den, r.num)).entries
    out = 1
    for a in entries[1:]:
        out *= a - 1
    return out


def count_tight_upper(x: Slope, s: Slope) -> int:
    """Count for the upper-meridian solid torus: meridian x > 1,
    dividing slope s anticlockwise of x.  Here the unsigned edge is the
    last one (incident to x), so the block product runs over all edges
    of minimal_path(s, x) except the last."""
    if x.is_infinite or not _pos_lt(ONE, x):
        raise DomainError("upper meridian must be a rational > 1")
    if s.is_infinite or not _pos_lt(s, x):
        raise DomainError("dividing slope must be a rational below the meridian")
    path = minimal_path(s, x)
    out = 1
    for run in edge_runs(path, 0, len(path) - 2):
        out *= len(run) + 1
    return out


def enumerate_tight(r: Slope, s: Slope) -> list[SolidTorusStructure]:
    """All tight structures, in lexicographic minus-count order."""
    path = minimal_path(r, s)
    sizes = signed_blocks(path).sizes
    out = []
    for counts in itertools.product(*[range(sz + 1) for sz in sizes]):
        out.append(SolidTorusStructure(r, s, ShuffleClass(path, counts)))
    return out


def lengthen_decorated(d: DecoratedPath, t: Slope) -> DecoratedPath:
    """Refine the edge containing t.  Edges replacing a signed edge all
    inherit its sign; edges replacing the unsigned first edge stay
    unsigned next to the meridian and take + elsewhere (the two sign
    choices there give the same structure, + is the canonical pick)."""
    vs = d.path.vertices
    new_path = lengthen_through(d.path, t)
    grown = len(new_path) - len(d.path)
    for i in range(len(vs) - 1):
        if cw_interval_contains(t, vs[i], vs[i + 1]):
            c = grown + 1  # edges replacing edge i
            if i == 0:
                new_signs = (1,) * (c - 1) + d.signs
            else:
                new_signs = d.signs[: i - 1] + (d.signs[i - 1],) * c + d.signs[i:]
            return DecoratedPath(new_path, new_signs)
    raise DomainError("slope %s is not interior to any edge of the path" % t)


def consistently_shorten(d: DecoratedPath) -> DecoratedPath | None:
    """Shorten d to a decorated minimal path, shuffling inside blocks as
    needed; None when no sequence of moves reaches the minimal path.

    The moves are Honda's: signs shuffle freely inside a continued
    fraction block, two edges whose outer vertices span a Farey edge
    merge into that edge when their signs agree (the merged edge keeps
    the sign), and the unsigned first edge absorbs its neighbour
    whatever its sign.  The reduction drops removable vertices one at a
    time.  At a vertex i > 1 the det of the outer vertices is +-1, so
    edge i-1 ends one block and edge i starts the next; a consistent
    merge exists exactly when some sign x occurs in both blocks, and
    then shuffles bring an x onto each of the two edges.

    Neither the order of the merges nor the choice of x changes the
    answer: shuffles generate every arrangement inside a block, so a
    block's state is just its minus count; a merge never splits a
    block, so what one merge allows, a later state still allows; and a
    consistent merge keeps the contact structure, so every sequence of
    merges that reaches the minimal path ends in the same shuffle
    class.  When no sign occurs in both blocks, every shuffle puts
    opposite signs on edges i-1 and i, whose union spans an edge: that
    layer is overtwisted whatever else happens, so the failure is final.

    At most len(d.path) merges, each O(len): O(len**2) in all.  The
    result is one valid representative; only its shuffle class is
    determined.
    """
    target = minimal_path(d.path.start, d.path.end)
    verts = list(d.path.vertices)
    signs = [0] + list(d.signs)  # signs[e] is the sign of edge e
    i = 1
    while i < len(verts) - 1:
        if not is_edge(verts[i - 1], verts[i + 1]):
            i += 1
            continue
        if i > 1:
            lo = i - 1  # first edge of the block that edge i-1 ends
            while lo > 1 and same_block(verts[lo - 1], verts[lo + 1]):
                lo -= 1
            hi = i  # last edge of the block that edge i starts
            while hi < len(verts) - 2 and same_block(verts[hi], verts[hi + 2]):
                hi += 1
            left, right = signs[lo:i], signs[i : hi + 1]
            x = next((x for x in (1, -1) if x in left and x in right), None)
            if x is None:
                return None
            j = lo + left.index(x)
            signs[j], signs[i - 1] = signs[i - 1], x
            j = i + right.index(x)
            signs[j], signs[i] = signs[i], x
        # edge i-1 becomes verts[i-1] -- verts[i+1] and keeps its sign
        del verts[i], signs[i]
        # only the vertices on either side of the dropped one have new
        # neighbours, so every vertex before i-1 stays unremovable
        i = max(1, i - 1)
    if tuple(verts) != target.vertices:
        return None
    return DecoratedPath(target, tuple(signs[1:]))


def is_tight(d: DecoratedPath) -> bool:
    """A decorated path describes a tight structure exactly when it can
    be consistently shortened to the minimal path."""
    return consistently_shorten(d) is not None
