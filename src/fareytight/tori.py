"""Tight contact structures on solid tori as decorated Farey paths.

A tight structure on a solid torus with lower meridian r and boundary
dividing slope s is a minimal clockwise path from r to s with a sign on
every edge but the first, taken up to shuffling signs inside continued
fraction blocks.  Counting is a product of (block size + 1) over the
signed blocks, which reproduces the continued fraction count phi.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .slopes import (
    DomainError,
    Slope,
    make_slope,
    _Value,
    _greedy_blocks,
)
from .paths import (
    BlockDecomposition,
    FareyPath,
    minimal_path,
    _lengthen,
    _lift_blocks,
)


class DecoratedPath(_Value):
    """Farey path with a sign (+1 or -1) on every edge except the first."""

    __slots__ = ("path", "signs")

    def __init__(self, path: FareyPath, signs: tuple[int, ...]):
        m = len(path)
        if m < 1:
            raise DomainError("decorated path needs at least one edge")
        if len(signs) != m - 1:
            raise DomainError("expected %d signs, got %d" % (m - 1, len(signs)))
        if any(s not in (1, -1) for s in signs):
            raise DomainError("signs must be +1 or -1")
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "signs", signs)

    def __str__(self) -> str:
        texts = self.path._texts()
        # one mark per edge: none on the unsigned first edge
        marks = itertools.chain([""], ("+" if s == 1 else "-" for s in self.signs))
        return next(texts) + "".join(" →%s %s" % edge for edge in zip(marks, texts))


def signed_blocks(path: FareyPath) -> BlockDecomposition:
    """Block decomposition of the signed edges (all edges but the first).

    The unsigned first edge is excluded even when it is geometrically
    contiguous with the first signed block.  Computed once per path.
    """
    return path.signed_blocks


class ShuffleClass(_Value):
    """A decorated path up to shuffling: per-signed-block minus counts."""

    __slots__ = ("path", "minus_counts")

    def __init__(self, path: FareyPath, minus_counts: tuple[int, ...]):
        sizes = path.signed_blocks.sizes
        if len(minus_counts) != len(sizes):
            raise DomainError("expected %d block counts, got %d" % (len(sizes), len(minus_counts)))
        for cnt, size in zip(minus_counts, sizes):
            if not 0 <= cnt <= size:
                raise DomainError("minus count %d outside block of size %d" % (cnt, size))
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "minus_counts", minus_counts)

    def canonical_decorated(self) -> DecoratedPath:
        """Representative with the minus signs at the clockwise end of
        each block."""
        signs = []
        for cnt, size in zip(self.minus_counts, self.path.signed_blocks.sizes):
            signs += [1] * (size - cnt) + [-1] * cnt
        return DecoratedPath(self.path, tuple(signs))

    @property
    def features(self) -> tuple[bool, bool, bool]:
        """(uniform, last_all_plus, last_all_minus) of the signed edges;
        both last flags are true when there is no signed block."""
        sizes, minus = self.path.signed_blocks.sizes, self.minus_counts
        last_size, last_minus = (sizes[-1], minus[-1]) if sizes else (0, 0)
        # the signed blocks hold every edge but the first
        uniform = sum(minus) in (0, len(self.path) - 1)
        return uniform, last_minus == 0, last_minus == last_size

    def to_json(self) -> dict:
        """JSON-ready form of the class."""
        # the unsigned first edge is reported as its own block with count 0
        runs = [list(range(r.start + 1, r.stop + 1)) for r in self.path.signed_blocks._ranges()]
        return {
            "path": list(self.path._texts()),
            "blocks": [[1]] + runs,
            "minus": [0] + list(self.minus_counts),
        }

    def __str__(self) -> str:
        return str(self.canonical_decorated())


def shuffle_canonical(d: DecoratedPath) -> ShuffleClass:
    """The shuffle class of a decorated path (on a minimal path this is
    the isotopy class of the structure it describes)."""
    ranges = d.path.signed_blocks._ranges()
    return ShuffleClass(d.path, tuple(d.signs[r.start - 1 : r.stop - 1].count(-1) for r in ranges))


class SolidTorusStructure(_Value):
    """Tight structure on the solid torus with the given lower meridian
    and boundary dividing slope."""

    __slots__ = ("meridian", "dividing", "iso_class")

    def __init__(self, meridian: Slope, dividing: Slope, iso_class: ShuffleClass):
        if iso_class.path.start != meridian:
            raise DomainError("class path must start at the meridian")
        if iso_class.path.end != dividing:
            raise DomainError("class path must end at the dividing slope")
        object.__setattr__(self, "meridian", meridian)
        object.__setattr__(self, "dividing", dividing)
        object.__setattr__(self, "iso_class", iso_class)


def count_tight(r: Slope, s: Slope) -> int:
    """Number of tight structures with lower meridian r and dividing
    slope s: product of (size + 1) over signed blocks of the minimal
    path from r to s, from its greedy blocks less the first edge."""
    sizes = [m for _, _, m in _greedy_blocks(r, s)]
    sizes[0] -= 1
    return math.prod(size + 1 for size in sizes)


def phi(r: Slope) -> int:
    """For r in (0,1) with 1/r = [a0,...,an]: the product
    (a1-1)...(an-1), computed as count_tight(r, 1/n) for the maximal n
    with 1/n > r.  The signed block sizes of that path are (an-2, ...,
    a1-2) with the entries equal to 2 left out (Honda, section 4.3), so
    this costs two divisions per block, not one step per entry."""
    if r.is_infinite or not 0 < r.num < r.den:
        raise DomainError("phi is defined for slopes in (0,1)")
    return count_tight(r, make_slope(1, (r.den - 1) // r.num))


def all_minus_counts(path: FareyPath) -> Iterator[tuple[int, ...]]:
    """Minus counts of every shuffle class on the path, lexicographically."""
    return itertools.product(*[range(size + 1) for size in path.signed_blocks.sizes])


def enumerate_tight(r: Slope, s: Slope) -> list[SolidTorusStructure]:
    """All tight structures, in lexicographic minus-count order."""
    path = minimal_path(r, s)
    return [SolidTorusStructure(r, s, ShuffleClass(path, c)) for c in all_minus_counts(path)]


def feature_counts(path: FareyPath) -> dict[tuple[bool, bool, bool], int]:
    """Number of shuffle classes on the path with each value of
    ShuffleClass.features, values no class takes left out.  With signed
    block sizes s_1..s_m there are phi = prod(s_i + 1) classes, and
    rho = phi/(s_m + 1) of them share each minus count on the last block."""
    sizes = path.signed_blocks.sizes
    if not sizes:
        return {(True, True, True): 1}
    phi = math.prod(size + 1 for size in sizes)
    rho = phi // (sizes[-1] + 1)
    counts = {
        (True, True, False): 1,  # all plus
        (True, False, True): 1,  # all minus
        (False, True, False): rho - 1,  # last block all plus, P not uniform
        (False, False, True): rho - 1,  # last block all minus, P not uniform
        (False, False, False): phi - 2 * rho,  # last block mixed
    }
    return {features: classes for features, classes in counts.items() if classes}


def feature_column(path: FareyPath) -> list[tuple[bool, bool, bool]]:
    """ShuffleClass.features of every class on the path, in the order of
    all_minus_counts, with no class built.  The minus count on the last
    block, of size L, runs fastest, so the column is the rho-fold
    repetition of [plus] + [mixed]*(L-1) + [minus] (last block all plus,
    mixed, all minus), except that the first class is all plus and the
    last one all minus; feature_counts counts the same column."""
    sizes = path.signed_blocks.sizes
    if not sizes:
        return [(True, True, True)]
    plus, mixed, minus = (False, True, False), (False, False, False), (False, False, True)
    column = ([plus] + [mixed] * (sizes[-1] - 1) + [minus]) * math.prod(s + 1 for s in sizes[:-1])
    column[0], column[-1] = (True, True, False), (True, False, True)
    return column


def _refined_signs(signs: tuple[int, ...], i: int, c: int) -> tuple[int, ...]:
    """The signs once c edges replace edge i, by lengthen_decorated's rule."""
    return signs[: i - 1] + (signs[i - 1],) * c + signs[i:] if i else (1,) * (c - 1) + signs


def lengthen_decorated(d: DecoratedPath, t: Slope) -> DecoratedPath:
    """Refine the edge containing t.  Edges replacing a signed edge all
    inherit its sign; edges replacing the unsigned first edge stay
    unsigned next to the meridian and take + elsewhere (the two sign
    choices there give the same structure, + is the canonical pick).
    legendrian_cable_surgery shares this rule, _refined_signs."""
    new_path, i = _lengthen(d.path, t)
    return DecoratedPath(new_path, _refined_signs(d.signs, i, len(new_path) - len(d.path) + 1))


def consistently_shorten(d: DecoratedPath) -> DecoratedPath | None:
    """Shorten d to a decorated minimal path by merging edges of equal
    sign; None when the moves cannot reach the minimal path.

    The moves are Honda's: signs shuffle inside a continued fraction
    block, two edges whose outer vertices span a Farey edge merge into
    it when their signs agree, and the unsigned first edge absorbs its
    neighbour.  Each keeps the contact structure, so their order does
    not matter.  The loop drops the leftmost removable vertex i (v[i-1]
    -- v[i+1] an edge): at i == 1 the first edge absorbs, at i > 1 edges
    i-1 and i merge if their signs agree, and the answer is None if not.
    Shuffling the blocks that meet at i never changes that answer.

    Lemma: at a removable i > 1, let the left block end with edge i-1
    and the right block start with edge i.  A long left (right) block
    has the pivot v[i+1] (v[i-1]), and at most one is long.  If edges
    i-2 and i-1 share a block, v[i-2] and v[i] are two steps apart in
    v[i-1]'s fan, with the pivot between them and adjacent to both.
    The common neighbours of v[i-1] and v[i] are the fan members next
    to v[i]; the clockwise path cannot step back to the one between
    v[i-1] and v[i], so v[i+1] is the pivot and v[i-2] -- v[i+1] is an
    edge.  Mirrored, a long right block makes v[i-1] -- v[i+2] an edge;
    both would give v[i-1] -- v[i+1] a third triangle.

    The loop drops a long block's vertices next, as each neighbours the
    pivot: at i-1, i-2, ... on the left; at i on the right, v[i-1]
    staying unremovable (a third triangle again).  The removals depend
    only on the vertices, so call a group the edges of d that end in
    one signed edge; the block and the edge across i share a group.  A
    shuffle at i moves signs only inside a group, no move changes which
    signs a group holds, and one edge holds one sign.  So the moves
    succeed exactly when each group is uniform, as merging only equal
    signs tests, and then no shuffle moves anything: the result keeps
    d's signs.  _shorten_lift runs the loop on the lift of d's vertices.
    """
    return _shorten_lift(d.path._map_vertices(zip), d.signs, d.path.start, d.path.end)


def _shorten_lift(vectors, signs: tuple[int, ...], start: Slope, end: Slope) -> DecoratedPath | None:
    """consistently_shorten on the lift of a monotone path, edge e >= 1
    signed signs[e-1], in one pass with a stack: the top is removable
    exactly when the cross of the vertex under it and the next one is 1
    (the leftmost removal), and its merge keeps the sign into it.  O(len).

    The stack left is the lift of minimal_path(start, end), so its
    blocks are the result's, with no geodesic built.  It is a chain with
    cross +1 at every edge (a pop joins the vertex under the top to the
    next one by a cross of 1), from a lift A of start to a lift B of end,
    and monotone, as its vertices are vertices of the monotone input.
    At an interior vertex V_i, c_i = cross(V_i-1, V_i+1) is the integer
    with V_i+1 = c_i*V_i - V_i-1.  It is positive by monotonicity, and
    not 1, as V_i+1 went onto V_i only once that cross tested != 1: so
    c_i >= 2.  Such a chain is unique given A and B.  Put r_i =
    cross(V_i, B): r_m = 0, r_m-1 = 1, and r_i-1 - r_i = (c_i - 1)*r_i -
    r_i+1 >= r_i - r_i+1, so the r_i fall strictly from r_0 = q =
    cross(A, B) to 1.  V_1 is W + k*A for a fixed W with
    cross(A, W) = 1, so r_1 = cross(W, B) + k*q is fixed mod q, hence
    fixed in [1, q-1] (or m = 1 when q = 1), and then 0 <= r_i+1 < r_i
    makes c_i the ceiling of r_i-1 / r_i: the c_i are the minus continued
    fraction of q / r_1 (Hirzebruch-Jung; Honda, section 4.3), and each
    fixes the next vertex.  The lift of minimal_path(start, end) is such
    a chain, as a geodesic has no c_i of 1, and B is the lift of end
    with cross(A, B) > 0 in both; so the stack is that lift, from
    (start.den, start.num) or from its negative.
    """
    kept, into = [], []  # into[j] is the sign of the edge into kept[j]
    for w, sign in zip(vectors, itertools.chain((0, 0), signs)):
        wd, wn = w
        while len(kept) > 1:
            ud, un = kept[-2]
            if ud * wn - un * wd != 1:
                break
            if len(kept) > 2 and into[-1] != sign:
                return None
            kept.pop()
            sign = into.pop()
        kept.append(w)
        into.append(sign)
    if kept[0] != (start.den, start.num):  # a lift of start is +-(den, num)
        kept = [(-d, -n) for d, n in kept]
    return DecoratedPath(FareyPath.from_blocks(start, end, _lift_blocks(kept)), tuple(into[2:]))


def is_tight(d: DecoratedPath) -> bool:
    """A decorated path describes a tight structure exactly when it can
    be consistently shortened to the minimal path."""
    return consistently_shorten(d) is not None
