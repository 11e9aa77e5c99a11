"""Paths in the Farey graph.

A path is a finite sequence of slopes, consecutive ones spanning a Farey
edge, that progresses monotonically clockwise around the circle.  The
central construction is the minimal (geodesic) path between two slopes,
computed greedily: from the current vertex, jump to the neighbour of the
target that is as far clockwise as possible while staying inside the
remaining arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        for u, v in zip(vs, vs[1:]):
            if not is_edge(u, v):
                raise DomainError("%s -- %s is not a Farey edge" % (u, v))
        # monotone clockwise: each vertex sits on the closed cw arc from
        # its predecessor to the final vertex
        for i in range(len(vs) - 1):
            if not cw_interval_contains(vs[i + 1], vs[i], vs[-1], closed=True):
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
    b, step to the Farey neighbour of b lying in the open clockwise arc
    (u, b) that is closest to u; that neighbour is unique.  The loop
    ends because each step moves one edge along the geodesic.
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
                u = cand
                break
        else:
            raise DomainError("no clockwise step from %s towards %s" % (u, b))
    verts.append(b)
    return FareyPath(tuple(verts))


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of a path's edge indices into maximal contiguous runs.

    Two adjacent edges (sharing vertex v[i+1]) are in the same block iff
    |det(v[i], v[i+2])| == 2, i.e. the two outer vertices are the two
    Farey children of an edge and the three vertices span a fan.
    """

    runs: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.runs)


def same_block(u: Slope, w: Slope) -> bool:
    """True when the edges u -- v and v -- w of a path, meeting at some
    vertex v, lie in one continued fraction block: |det(u, w)| == 2."""
    return abs(det(u, w)) == 2


def edge_runs(path: FareyPath, first_edge: int, last_edge: int) -> tuple[tuple[int, ...], ...]:
    """Maximal mergeable runs among edges first_edge..last_edge inclusive."""
    vs = path.vertices
    if first_edge > last_edge:
        return ()
    runs = [[first_edge]]
    for e in range(first_edge + 1, last_edge + 1):
        if same_block(vs[e - 1], vs[e + 1]):
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
