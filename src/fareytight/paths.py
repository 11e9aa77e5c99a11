"""Paths in the Farey graph.

A path is a finite sequence of slopes, consecutive ones spanning a Farey
edge, that progresses monotonically clockwise around the circle.  The
central construction is the minimal (geodesic) path between two slopes,
computed greedily: from the current vertex, step to its own Farey
neighbour that lies inside the remaining arc and closest to the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise

from .slopes import (
    DomainError,
    Slope,
    cw_interval_contains,
    det,
    is_edge,
    _fan_basis,
    _fan_member,
    _fan_param,
)


@dataclass(frozen=True)
class FareyPath:
    """Clockwise edge path in the Farey graph."""

    vertices: tuple[Slope, ...]

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 1:
            raise DomainError("a path needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise DomainError("path vertices must be distinct")
        # Both remaining checks on integers, in one pass.  Monotone
        # clockwise: each vertex y sits on the closed cw arc from its
        # predecessor x to the final vertex e (cw_interval_contains with
        # closed=True, where y != x and x != e as the vertices are
        # distinct, and det(y, e) == 0 only at y == e).  A non-edge
        # anywhere wins over a turn back.
        e = vs[-1]
        en, ed = e.num, e.den
        monotone = True
        for x, y in pairwise(vs):
            xy = x.num * y.den - y.num * x.den
            if xy != 1 and xy != -1:
                raise DomainError("%s -- %s is not a Farey edge" % (x, y))
            ye = y.num * ed - en * y.den
            if ye and monotone:
                if x.num * ed - en * x.den < 0:
                    monotone = xy < 0 and ye < 0
                else:
                    monotone = xy < 0 or ye < 0
        if not monotone:
            raise DomainError("path is not monotone clockwise")

    @property
    def start(self) -> Slope:
        return self.vertices[0]

    @property
    def end(self) -> Slope:
        return self.vertices[-1]

    @property
    def edges(self) -> tuple[tuple[Slope, Slope], ...]:
        vs = self.vertices
        return tuple(zip(vs, vs[1:]))

    def __len__(self) -> int:
        return len(self.vertices) - 1

    @cached_property
    def signed_blocks(self) -> "BlockDecomposition":
        """Blocks of the edges after the first, the ones a decorated path
        signs.  Kept on the path, so every shuffle class on it shares
        one decomposition."""
        return BlockDecomposition(edge_runs(self, 1, len(self) - 1))

    def __str__(self) -> str:
        return " → ".join(str(v) for v in self.vertices)


def minimal_path(a: Slope, b: Slope) -> FareyPath:
    """Geodesic in the Farey graph from a clockwise to b.

    Greedy construction: while the current vertex u is not adjacent to
    b, step to the Farey neighbour of u lying in the open clockwise arc
    (u, b) that is closest to b; that neighbour is unique, and it need
    not be adjacent to b (from 1/20 towards 1/2 the step goes to 1/19).
    The loop ends because each step moves one edge along the geodesic.

    After each step, _block_rest appends the steps that stay in the
    step's block with one division, so the loop runs about once per
    block of the result, and the cost is one division per block plus
    the vertices it outputs.
    """
    if a == b:
        raise DomainError("minimal path endpoints must be distinct")
    verts = [a]
    u = a
    while not is_edge(u, b):
        v0, w0 = _fan_basis(u)
        kb = _fan_param(v0, w0, b)
        # kb is not an integer: integer parameters are the neighbours
        # of u, and u--b is not an edge here
        for k in (math.floor(kb), math.ceil(kb)):
            cand = _fan_member(v0, w0, k)
            if cw_interval_contains(cand, u, b):
                verts.append(cand)
                break
        else:
            raise DomainError("no clockwise step from %s towards %s" % (u, b))
        if not is_edge(cand, b):
            verts.extend(_block_rest(u, cand, b))
        u = verts[-1]
    verts.append(b)
    return FareyPath(tuple(verts))


def _block_rest(prev: Slope, u: Slope, b: Slope) -> list[Slope]:
    """The greedy steps after the step prev -> u that stay in its block,
    for a b not adjacent to u.

    With vectors U, U1 of prev, u, take the pivot P = U1 - U, the third
    vertex of the Farey triangle on prev -- u away from the mediant
    U1 + U.  Its fan members U + k*P have prev at k = 0 and u at k = 1.
    Send P to inf: the members go to the integers, increasing away from
    prev, and b to t = _fan_param(P, U, b).  The neighbours of j inside
    (j, t) are j + 1/m, so while j + 1 < t the greedy step goes to
    j + 1: the path runs through the members 2 .. ceil(t) - 1.

    A block runs on past u only about a pivot outside the clockwise arc
    (prev, u), and the mediant lies inside it unless that arc passes
    inf (or starts there).  A path passes inf at most once, so it takes
    at most one more greedy step than it has blocks.
    """
    P, base = (u.den - prev.den, u.num - prev.num), (prev.den, prev.num)
    last = math.ceil(_fan_param(P, base, b)) - 1
    return [_fan_member(P, base, k) for k in range(2, last + 1)]


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of a path's edge indices into continued fraction blocks.

    Two adjacent edges v[i] -- v[i+1] -- v[i+2] are in the same block
    iff |det(v[i], v[i+2])| == 2.  Then v[i] and v[i+2] are the third
    vertices of the two Farey triangles on the edge from v[i+1] to one
    vertex p, the block's pivot, and every vertex of the block is a
    Farey neighbour of p: the block runs through consecutive members of
    p's fan.
    """

    runs: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.runs)


def edge_runs(path: FareyPath, first_edge: int, last_edge: int) -> tuple[tuple[int, ...], ...]:
    """Maximal runs among edges first_edge..last_edge inclusive that
    share a block, by the rule of BlockDecomposition."""
    vs = path.vertices
    if first_edge > last_edge:
        return ()
    runs = [[first_edge]]
    for e in range(first_edge + 1, last_edge + 1):
        if abs(det(vs[e - 1], vs[e + 1])) == 2:
            runs[-1].append(e)
        else:
            runs.append([e])
    return tuple(tuple(r) for r in runs)


def blocks(path: FareyPath) -> BlockDecomposition:
    """Block decomposition over all edges of the path."""
    if len(path) == 0:
        return BlockDecomposition(())
    return BlockDecomposition(edge_runs(path, 0, len(path) - 1))


def concat(first: FareyPath, second: FareyPath) -> FareyPath:
    """Join two paths sharing first.end == second.start."""
    if first.end != second.start:
        raise DomainError("paths do not share an endpoint")
    return FareyPath(first.vertices + second.vertices[1:])


def lengthen_through(path: FareyPath, t: Slope) -> FareyPath:
    """Refine the unique edge of the path that t lies strictly inside,
    replacing it by the two geodesics through t.

    t must lie strictly inside some edge's clockwise arc; a t equal to a
    vertex of the path, or outside the path's span, is rejected.
    """
    if t in path.vertices:
        raise DomainError("slope %s is already a path vertex" % t)
    vs = path.vertices
    for i in range(len(vs) - 1):
        if cw_interval_contains(t, vs[i], vs[i + 1]):
            left = minimal_path(vs[i], t)
            right = minimal_path(t, vs[i + 1])
            new_vs = vs[: i + 1] + left.vertices[1:-1] + (t,) + right.vertices[1:] + vs[i + 2 :]
            return FareyPath(new_vs)
    raise DomainError("slope %s is not interior to any edge of the path" % t)
