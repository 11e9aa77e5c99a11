"""Paths in the Farey graph.

A path is a finite sequence of slopes, consecutive ones spanning a Farey
edge, that progresses monotonically clockwise around the circle.  The
central construction is the minimal (geodesic) path between two slopes,
computed greedily: from the current vertex, step to its own Farey
neighbour that lies inside the remaining arc and closest to the target.

Vectors.  A slope p/q is the vector (q, p) up to sign, and the clockwise
order of slopes is the order of the angles of these vectors (0, then
the positives, then inf, then the negatives), so the clockwise arc from
a to b is the set of positive combinations of vectors A, B of a, b with
cross(A, B) > 0, where cross(v, w) = v[0]*w[1] - v[1]*w[0].  A path
v_0, ..., v_m lifts to vectors V_i with cross(V_i, V_i+1) = +1 at every
edge: the lift is unique once V_0 = (den, num) of v_0 is fixed, and
each edge turns it anticlockwise by an angle in (0, pi).

Blocks.  With D_i = V_i+1 - V_i, cross(V_i, D_i) = 1, so D_i is a Farey
neighbour of v_i and of v_i+1: it is the third vertex of the triangle
on the edge that lies outside the arc (v_i, v_i+1).  A maximal run of
edges with one D is a continued fraction block, stored as (pivot P,
base U, count m): its vertices are the members U + k*P, k = 0..m, of
P's fan.  On a monotone path two adjacent edges share a block exactly
when |det(v_i, v_i+2)| == 2 (BlockDecomposition): V_i+2 = c*V_i+1 - V_i
for an integer c = cross(V_i, V_i+2), c <= 0 would turn V_i+2 by at
least pi from V_i, and c == 2 means D_i+1 == D_i.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from itertools import accumulate, chain, count, islice, pairwise

from .slopes import INF, ZERO, DomainError, Slope, _Value, _greedy_blocks, _text


def _slope(d: int, n: int) -> Slope:
    """The slope of the primitive vector (d, n)."""
    if d < 0:
        return Slope(-n, -d)
    return Slope(n, d) if d else INF


def _lift_blocks(lift: list) -> list:
    """The maximal blocks (pivot, base, count) of a lift, a list of
    (den, num) vectors with cross +1 at every edge: the open block grows
    while the step to the next vector is its pivot (module docstring)."""
    blocks, (xd, xn), pd, pn, m = [], lift[0], 0, 0, 0  # the last vector; the open block's pivot, count
    for yd, yn in islice(lift, 1, None):
        if yd - xd == pd and yn - xn == pn:
            m += 1
        else:
            if m:
                blocks.append(((pd, pn), base, m))
            pd, pn, base, m = yd - xd, yn - xn, (xd, xn), 1
        xd, xn = yd, yn
    if m:
        blocks.append(((pd, pn), base, m))
    return blocks


class FareyPath:
    """Clockwise edge path in the Farey graph, stored as its maximal
    continued-fraction blocks, (pivot, base, count) integer vectors.

    FareyPath(vertices) lifts the vertices into blocks; minimal_path
    builds a path from its blocks (from_blocks).  Either way the blocks
    pass the same checks, len, start, end, signed_blocks.sizes and str
    come from them, and the vertices and signed_blocks are built on first
    access.  Two paths are equal, and hash alike, exactly when their
    vertex tuples are.
    """

    __slots__ = ("_start", "_end", "_len", "_blocks", "_vertices", "_signed")

    def __init__(self, vertices: tuple[Slope, ...]):
        vs = tuple(vertices)
        if len(vs) < 1:
            raise DomainError("a path needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise DomainError("path vertices must be distinct")
        # Lift each vertex to the vector with cross +1 from the last one,
        # checking the edge, then run the lift's maximal blocks through
        # from_blocks' checks.  On a lift only the monotone test (3) can
        # fail, and it runs once every edge is checked: a non-edge
        # anywhere wins over a turn back.
        xd, xn = vs[0].den, vs[0].num  # the last vector
        lift = [(xd, xn)]
        for x, y in pairwise(vs):
            turn = xd * y.num - xn * y.den
            if turn != 1 and turn != -1:
                raise DomainError("%s -- %s is not a Farey edge" % (x, y))
            xd, xn = turn * y.den, turn * y.num
            lift.append((xd, xn))
        blocks = FareyPath.from_blocks(vs[0], vs[-1], _lift_blocks(lift))._blocks if len(vs) > 1 else ()
        self._start, self._end, self._len = vs[0], vs[-1], len(vs) - 1
        self._blocks, self._vertices, self._signed = blocks, vs, None

    @classmethod
    def from_blocks(cls, start: Slope, end: Slope, blocks) -> FareyPath:
        """The path from start to end through blocks, a sequence of
        (pivot, base, count) with pivot and base (den, num) vectors: the
        vertices are base + k*pivot for k = 0..count, block by block.

        Each block is checked once, in O(1):
        1. cross(base, pivot) == 1, and count >= 1;
        2. the first base is (start.den, start.num), and every other
           base is the last member of the block before, whose pivot
           differs from its own;
        3. cross(A, last member) > 0, with A the first base;
        4. the last member of the last block is a vector of end.

        These hold exactly when the vertices pass FareyPath's checks and
        the blocks are the maximal ones; FareyPath(vertices) runs them on
        the blocks of its lift, where 1, 2 and 4 hold by construction.
        By 1 and 2 the members form one chain with cross +1 at every
        edge, so consecutive vertices span Farey edges, and an edge
        inside a block turns the chain anticlockwise by less than pi.  Such a
        chain is monotone clockwise with distinct vertices exactly when
        it turns by less than pi in all, that is when cross(A, V) > 0 at
        every vertex V after the first: a chain that turns by pi or more
        first does so at a vertex V with cross(A, V) <= 0, since no edge
        jumps over the half turn where cross(A, .) <= 0.  On a block
        cross(A, U + k*P) is linear in k, so its sign at the two ends (0
        at the first base, positive at every later one by 3) gives its
        sign at every member: 3 is this condition.  Conversely, the lift
        of a path that passes the vertex checks, cut into its maximal
        blocks, satisfies 1 to 4 (see the module docstring), and two
        block sequences that do give two different vertex tuples.  So a
        pivot that is not adjacent to its base, a block that turns back,
        and a block that overruns the end each raise DomainError.
        """
        ad, an = start.den, start.num
        checked = []
        xd, xn, prev = ad, an, None  # the last member so far
        for i, ((pd, pn), (ud, un), m) in enumerate(blocks):
            if (ud, un) != (xd, xn):
                raise DomainError("block %d does not start at %s" % (i, _text(xd, xn)))
            if (pd, pn) == prev:
                raise DomainError("blocks %d and %d have one pivot" % (i - 1, i))
            turn = ud * pn - un * pd
            if turn != 1 and turn != -1:
                raise DomainError("block %d: pivot is not a Farey neighbour of its base" % i)
            if m < 1:
                raise DomainError("block %d has no edge" % i)
            xd, xn, prev = ud + m * pd, un + m * pn, (pd, pn)
            if turn < 0 or ad * xn - an * xd <= 0:
                raise DomainError("path is not monotone clockwise")
            checked.append(((pd, pn), (ud, un), m))
        if not checked or (xd, xn) not in ((end.den, end.num), (-end.den, -end.num)):
            raise DomainError("the blocks do not end at %s" % end)
        path = cls.__new__(cls)
        path._start, path._end, path._len = start, end, sum(m for _, _, m in checked)
        path._blocks, path._vertices, path._signed = tuple(checked), None, None
        return path

    @property
    def start(self) -> Slope:
        return self._start

    @property
    def end(self) -> Slope:
        return self._end

    @property
    def block_vectors(self) -> tuple[tuple[tuple[int, int], tuple[int, int], int], ...]:
        """The maximal blocks as (pivot, base, count) integer vectors, as
        from_blocks takes them."""
        return self._blocks

    def _map_vertices(self, fn) -> Iterator:
        """fn(dens, nums), chained block by block, on the lift from
        (start.den, start.num): zip gives the vectors, partial(map, f)
        f(den, num) for each."""
        yield from fn((self._start.den,), (self._start.num,))
        for (pd, pn), (ud, un), m in self._blocks:
            yield from fn(islice(count(ud + pd, pd), m), count(un + pn, pn))

    def _texts(self) -> Iterator[str]:
        """The text of each vertex, made from the block integers."""
        return self._map_vertices(partial(map, _text))

    @property
    def vertices(self) -> tuple[Slope, ...]:
        if self._vertices is None:
            self._vertices = tuple(self._map_vertices(partial(map, _slope)))
        return self._vertices

    def __len__(self) -> int:
        return self._len

    @property
    def signed_blocks(self) -> BlockDecomposition:
        """Blocks of the edges after the first, the ones a decorated path
        signs: the block sizes with the first edge taken off the first
        block.  Kept on the path, so every shuffle class on it shares
        one decomposition."""
        if self._signed is None:
            sizes = [m for _, _, m in self._blocks]
            if sizes:
                sizes[0] -= 1
            self._signed = BlockDecomposition(tuple(s for s in sizes if s), 1)
        return self._signed

    # The lift from start is unique, so two paths have equal vertex
    # tuples exactly when they have equal starts and blocks; compared
    # that way, a path of 10**12 edges needs no vertex.
    def __eq__(self, other) -> bool:
        if not isinstance(other, FareyPath):
            return NotImplemented
        return self._start == other._start and self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash((self._start, self._blocks))

    def __repr__(self) -> str:
        return "FareyPath.from_blocks(%r, %r, %r)" % (self._start, self._end, self._blocks)

    def __str__(self) -> str:
        return " → ".join(self._texts())


def minimal_path(a: Slope, b: Slope) -> FareyPath:
    """Geodesic in the Farey graph from a clockwise to b: the blocks of
    slopes._greedy_blocks, run through from_blocks' checks."""
    return FareyPath.from_blocks(a, b, _greedy_blocks(a, b))


class BlockDecomposition(_Value):
    """Partition of a path's edge indices, from first on, into continued
    fraction blocks of the given sizes.

    Two adjacent edges v[i] -- v[i+1] -- v[i+2] are in the same block
    iff |det(v[i], v[i+2])| == 2.  Then v[i] and v[i+2] are the third
    vertices of the two Farey triangles on the edge from v[i+1] to one
    vertex p, the block's pivot, and every vertex of the block is a
    Farey neighbour of p: the block runs through consecutive members of
    p's fan.
    """

    __slots__ = ("sizes", "first")

    def __init__(self, sizes: tuple[int, ...], first: int = 0):
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "first", first)

    @property
    def runs(self) -> tuple[tuple[int, ...], ...]:
        """The edge indices of each block."""
        return tuple(map(tuple, self._ranges()))

    def _ranges(self) -> Iterator[range]:
        """The edge indices of each block, as ranges."""
        return (range(a, b) for a, b in pairwise(accumulate(self.sizes, initial=self.first)))


def edge_runs(path: FareyPath, first_edge: int, last_edge: int) -> tuple[tuple[int, ...], ...]:
    """Maximal runs among edges first_edge..last_edge inclusive that
    share a block: the runs of blocks(path), clipped as ranges, so that
    only the edges asked for are made."""
    clipped = (range(max(r.start, first_edge), min(r.stop, last_edge + 1)) for r in blocks(path)._ranges())
    return tuple(tuple(r) for r in clipped if r)


def blocks(path: FareyPath) -> BlockDecomposition:
    """Block decomposition over all edges of the path."""
    return BlockDecomposition(tuple(m for _, _, m in path.block_vectors))


def lengthen_through(path: FareyPath, t: Slope) -> FareyPath:
    """Refine the unique edge of the path that t lies strictly inside,
    replacing it by the two geodesics through t.

    t must lie strictly inside some edge's clockwise arc; a t equal to a
    vertex of the path, or outside the path's span, is rejected.
    """
    return _lengthen(path, t)[0]


def _lengthen(path: FareyPath, t: Slope) -> tuple[FareyPath, int]:
    """lengthen_through(path, t) and the index of the edge it refined."""
    vecs = list(path._map_vertices(zip))
    if (t.den, t.num) in vecs or (-t.den, -t.num) in vecs:
        raise DomainError("slope %s is already a path vertex" % t)
    i = _lengthen_lift(vecs, t.den, t.num)
    if i is None:
        raise DomainError("slope %s is not interior to any edge of the path" % t)
    return FareyPath.from_blocks(path.start, path.end, _lift_blocks(vecs)), i


def _lengthen_lift(vecs: list, td: int, tn: int) -> int | None:
    """Lengthen the lift vecs in place through T = (td, tn) and return
    the edge i refined, where cross(V, T) changes sign (None if none
    does, as when T is a vertex): a*V_i + b*V_i+1 = +-T, a, b >= 1, and
    its refinement is the image of 0 -> b/a -> inf under (x, y) -> x*V_i
    + y*V_i+1, det 1."""
    turns = [d * tn - n * td for d, n in vecs]
    i = next((i for i in range(len(vecs) - 1) if turns[i] * turns[i + 1] < 0), None)
    if i is not None:
        (ud, un), (wd, wn) = vecs[i], vecs[i + 1]
        mid = Slope(abs(turns[i]), abs(turns[i + 1]))  # b/a
        both = chain(minimal_path(ZERO, mid)._map_vertices(zip),
                     islice(minimal_path(mid, INF)._map_vertices(zip), 1, None))
        vecs[i : i + 2] = [(x * ud + y * wd, x * un + y * wn) for x, y in both]
    return i
