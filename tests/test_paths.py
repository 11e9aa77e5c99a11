import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fareytight import paths, slopes
from fareytight.slopes import DomainError, INF, ONE, ZERO, make_slope, parse_slope
from fareytight.paths import (
    FareyPath,
    blocks,
    edge_runs,
    lengthen_through,
    minimal_path,
)

from helpers import (
    all_slopes_in_box,
    block_vectors_oracle,
    concat,
    decrement_path,
    edge_runs_oracle,
    geodesic_length_oracle,
    greedy_minimal_path,
    path_error_oracle,
    random_unit_rational,
)


def S(text):
    return parse_slope(text)


def P(*texts):
    return FareyPath(tuple(S(t) for t in texts))


def test_minimal_path_fixture_9_25():
    assert minimal_path(S("9/25"), S("1/2")) == P("9/25", "4/11", "3/8", "2/5", "1/2")


def test_minimal_path_fixture_13_49():
    assert minimal_path(S("13/49"), S("1/3")) == P("13/49", "4/15", "3/11", "2/7", "1/3")


def test_minimal_path_adjacent_pair():
    assert minimal_path(S("2/5"), S("1/2")) == P("2/5", "1/2")


def test_minimal_path_through_infinity():
    assert minimal_path(INF, S("1/2")) == P("inf", "0", "1/2")
    assert minimal_path(S("2"), ZERO) == P("2", "inf", "0")
    assert minimal_path(S("5/2"), S("-1/2")) == P("5/2", "3", "inf", "-1", "-1/2")


def test_minimal_path_rejects_equal_endpoints():
    with pytest.raises(DomainError):
        minimal_path(ONE, ONE)


def test_path_validation():
    with pytest.raises(DomainError, match="^0 -- 2/5 is not a Farey edge$"):
        P("0", "2/5")
    with pytest.raises(DomainError, match="^path is not monotone clockwise$"):
        P("0", "1", "1/2")  # backtracks
    with pytest.raises(DomainError, match="^path vertices must be distinct$"):
        FareyPath((ZERO, ONE, ZERO))
    with pytest.raises(DomainError, match="^a path needs at least one vertex$"):
        FareyPath(())
    # through inf and the negatives
    assert len(P("5/2", "3", "inf", "-1", "-1/2")) == 4
    assert len(P("1", "2", "inf", "-1", "0")) == 4
    assert len(P("-1", "-1/2", "-1/3", "0")) == 3
    with pytest.raises(DomainError, match="^inf -- 1/2 is not a Farey edge$"):
        P("2", "inf", "1/2")
    with pytest.raises(DomainError, match="^-1 -- -1/3 is not a Farey edge$"):
        P("-2", "-1", "-1/3")
    with pytest.raises(DomainError, match="^path is not monotone clockwise$"):
        P("2", "inf", "3")  # the cw arc from 2 to 3 misses inf
    with pytest.raises(DomainError, match="^path is not monotone clockwise$"):
        P("-1/2", "-1", "inf")
    with pytest.raises(DomainError, match="^path vertices must be distinct$"):
        P("inf", "0", "inf")
    # two defects: a repeat wins over a non-edge, and a non-edge
    # anywhere wins over an earlier turn back
    with pytest.raises(DomainError, match="^path vertices must be distinct$"):
        P("0", "2/5", "0")
    with pytest.raises(DomainError, match="^1/2 -- 3 is not a Farey edge$"):
        P("-1", "0", "1", "1/2", "3")  # turns back at 1 -> 1/2
    with pytest.raises(DomainError, match="^-1 -- 1 is not a Farey edge$"):
        P("inf", "-1", "1", "0", "1/2")  # turns back at 1 -> 0


def test_path_str_uses_arrows():
    assert str(P("2/5", "1/2")) == "2/5 → 1/2"


def _answers(path):
    """What a path answers from its blocks, then its vertices, in that
    order, so that a block-built path is read before it builds them."""
    signed = path.signed_blocks
    found = (len(path), str(path), blocks(path).runs, signed.sizes, signed.runs)
    return found + (path.vertices,)


def test_minimal_path_matches_greedy_oracle_exhaustive():
    # every ordered pair of distinct slopes with |num|, den <= 12: the
    # block-built geodesic against the greedy one, which is built from
    # its vertices as FareyPath(path.vertices) is once they agree, and
    # the blocks against the per-vertex rule
    box = all_slopes_in_box(12)
    for a in box:
        for b in box:
            if a != b:
                path, greedy = minimal_path(a, b), greedy_minimal_path(a, b)
                found = _answers(path)
                assert found == _answers(greedy) and path == greedy and greedy == path, (a, b)
                assert hash(path) == hash(greedy), (a, b)
                vs, m = greedy.vertices, len(greedy)
                runs = edge_runs_oracle(vs, 0, m - 1), edge_runs_oracle(vs, 1, m - 1)
                assert (found[2], found[4]) == runs, (a, b)


def _slope_from_cf(n, entries):
    """n + 1/(c1 + 1/(c2 + ...)), cut at the last convergent whose
    denominator is at most 10**6.  Small entries keep the geodesic
    short enough for the oracle, which pays a division per edge."""
    h0, k0, h1, k1 = 1, 0, n, 1
    for c in entries:
        h0, k0, h1, k1 = h1, k1, c * h1 + h0, c * k1 + k0
        if k1 > 10**6:
            return make_slope(h0, k0)
    return make_slope(h1, k1)


SLOPES = st.one_of(
    st.just(INF),
    st.builds(_slope_from_cf, st.integers(-40, 40), st.lists(st.integers(1, 500), max_size=6)),
)


@settings(max_examples=200, deadline=None)
@given(SLOPES, SLOPES)
@example(make_slope(1, 9000), make_slope(1, 2))  # one block
@example(make_slope(7960, 23481), make_slope(1, 2))  # 1/r = [3,20,20,20]
@example(make_slope(5, 2), make_slope(-1, 2))  # across inf
@example(INF, make_slope(-123457, 1000000))  # into the negatives, den 10**6
def test_minimal_path_matches_greedy_oracle(a, b):
    assume(a != b)
    assert minimal_path(a, b) == greedy_minimal_path(a, b)


EDITS = st.lists(
    st.tuples(
        st.sampled_from(["drop", "swap", "repeat", "insert", "reverse"]),
        st.integers(0, 10**6),
        SLOPES,
    ),
    max_size=2,
)


@settings(max_examples=300, deadline=None)
@given(SLOPES, SLOPES, EDITS)
@example(S("-1"), S("3"), [("insert", 3, S("1/2"))])  # turn back, then a non-edge
@example(S("2"), S("3"), [("insert", 1, INF)])
def test_path_checks_match_oracle(a, b, edits):
    # geodesics, and geodesics with a vertex dropped, swapped with the
    # next, repeated or inserted, or read backwards: each error, and
    # none, in turn
    assume(a != b)
    vs = list(minimal_path(a, b).vertices)
    for kind, i, s in edits:
        i %= len(vs)
        if kind == "drop" and len(vs) > 1:
            del vs[i]
        elif kind == "swap" and i + 1 < len(vs):
            vs[i], vs[i + 1] = vs[i + 1], vs[i]
        elif kind == "repeat":
            vs.insert(i, vs[(i * 7) % len(vs)])
        elif kind == "reverse":
            vs.reverse()
        else:
            vs.insert(i, s)
    try:
        FareyPath(tuple(vs))
        message = None
    except DomainError as exc:
        message = str(exc)
    assert message == path_error_oracle(tuple(vs))


def _outcome(build, *args):
    """(the path, None) or (None, the message of the DomainError)."""
    try:
        return build(*args), None
    except DomainError as exc:
        return None, str(exc)


def _assert_one_check(vs):
    # a path built from vertices holds the blocks of their lift, and on
    # vertices that pass the distinct and edge checks the vertex
    # constructor and from_blocks on the lift accept or reject together
    path, error = _outcome(FareyPath, vs)
    if path is not None:
        assert path.block_vectors == block_vectors_oracle(vs), vs
    if len(vs) >= 2 and path_error_oracle(vs) in (None, "path is not monotone clockwise"):
        lifted, lifted_error = _outcome(FareyPath.from_blocks, vs[0], vs[-1], block_vectors_oracle(vs))
        assert lifted_error == error and lifted == path, vs


@settings(max_examples=300, deadline=None)
@given(SLOPES, SLOPES, EDITS)
@example(S("-1"), S("3"), [("insert", 3, S("1/2"))])
@example(S("2"), S("3"), [("insert", 1, INF)])
@example(S("0"), S("1/3"), [("insert", 1, S("1/2"))])  # a one-edge block turns back
def test_vertex_and_block_checks_agree(a, b, edits):
    # the geodesics and edits of test_path_checks_match_oracle
    assume(a != b)
    vs = list(minimal_path(a, b).vertices)
    for kind, i, s in edits:
        i %= len(vs)
        if kind == "drop" and len(vs) > 1:
            del vs[i]
        elif kind == "swap" and i + 1 < len(vs):
            vs[i], vs[i + 1] = vs[i + 1], vs[i]
        elif kind == "repeat":
            vs.insert(i, vs[(i * 7) % len(vs)])
        elif kind == "reverse":
            vs.reverse()
        else:
            vs.insert(i, s)
    _assert_one_check(tuple(vs))


def test_vertex_and_block_checks_agree_exhaustive():
    # every walk of one to three Farey edges through distinct slopes
    # with |num|, den <= 12 (32,158 walks), monotone or not
    box = all_slopes_in_box(12)
    neighbours = {a: [b for b in box if abs(a.num * b.den - b.num * a.den) == 1] for a in box}
    walks, checked = [(a,) for a in box], 0
    for _ in range(3):
        walks = [w + (b,) for w in walks for b in neighbours[w[-1]] if b not in w]
        for vs in walks:
            _assert_one_check(vs)
        checked += len(walks)
    assert checked == 32158


def test_minimal_path_divides_once_per_block(monkeypatch):
    # one fan basis for the start, then one pass of the loop, with two
    # divisions, per block; no vertex is made.  The stored blocks are
    # the maximal ones, and 10**12 edges cost what 12 do
    calls = []

    def counted(*args):
        calls.append(args)
        return fan_basis(*args)

    fan_basis = slopes._fan_basis
    for a, b, edges, runs in (
        ("1/9000", "1/2", 8998, 1),
        ("100000/299999", "1/2", 99999, 1),
        ("inf", "-30001/10000", 10000, 1),  # from inf, pivot -3
        ("7960/23481", "1/2", 55, 3),
        ("1/1000000000000", "1/2", 10**12 - 2, 1),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(slopes, "_fan_basis", counted)
            patch.setattr(paths, "_slope", None)  # a vertex would call it
            calls.clear()
            path = minimal_path(S(a), S(b))
            assert (len(path), len(path.block_vectors), len(calls)) == (edges, runs, 1), (a, b)
            assert len(blocks(path).sizes) == runs
        if edges < 10**6:
            vs = path.vertices
            assert len(path.block_vectors) == len(edge_runs_oracle(vs, 0, edges - 1))


def test_forged_blocks_raise():
    # 9/25 -> 4/11 | -> 3/8 -> 2/5 -> 1/2: pivot 5/14, then pivot 1/3
    good = [((-14, -5), (25, 9), 1), ((-3, -1), (11, 4), 3)]
    a, b = S("9/25"), S("1/2")
    assert FareyPath.from_blocks(a, b, good) == P("9/25", "4/11", "3/8", "2/5", "1/2")
    for blocks_, message in (
        # the pivot 2/5 of 9/25 is not a Farey neighbour
        ([((5, 2), (25, 9), 1)] + good[1:], "^block 0: pivot is not a Farey neighbour of its base$"),
        # the same fan run the other way: 4/11 -> 1/3 -> ... turns back
        (good[:1] + [((3, 1), (11, 4), 1)], "^path is not monotone clockwise$"),
        # one member too many, past 1/2 to 0, and one too few
        (good[:1] + [((-3, -1), (11, 4), 4)], "^the blocks do not end at 1/2$"),
        (good[:1] + [((-3, -1), (11, 4), 2)], "^the blocks do not end at 1/2$"),
        # a gap at the join, the first base not at the start, a block
        # cut in two, a block of no edge, no block
        ([good[0], ((-3, -1), (8, 3), 2)], "^block 1 does not start at 4/11$"),
        ([((-3, -1), (11, 4), 3)], "^block 0 does not start at 9/25$"),
        (good[:1] + [((-3, -1), (11, 4), 1), ((-3, -1), (8, 3), 2)], "^blocks 1 and 2 have one pivot$"),
        (good + [((1, 0), (2, 1), 0)], "^block 2 has no edge$"),
        ([], "^the blocks do not end at 1/2$"),
    ):
        with pytest.raises(DomainError, match=message):
            FareyPath.from_blocks(a, b, blocks_)
    # a one-edge block that turns back inside the half turn from the
    # start: 0 -> 1/2 -> 1/3
    with pytest.raises(DomainError, match="^path is not monotone clockwise$"):
        FareyPath.from_blocks(ZERO, S("1/3"), [((1, 1), (1, 0), 1), ((1, 0), (2, 1), 1)])
    # blocks that each turn by less than a half turn, and by more in
    # all: 0 -> 1 -> inf -> -1 -> 0 -> 1
    loop = [((0, 1), (1, 0), 1), ((-1, 0), (1, 1), 1), ((-1, -1), (0, 1), 1), ((0, -1), (-1, 0), 1)]
    with pytest.raises(DomainError, match="^path is not monotone clockwise$"):
        FareyPath.from_blocks(ZERO, ONE, loop)
    # exactly a half turn: back at the start, 0 -> 1 -> inf -> 0
    with pytest.raises(DomainError, match="^path is not monotone clockwise$"):
        FareyPath.from_blocks(ZERO, ZERO, loop[:3])
    # the last member may be either vector of the end
    assert FareyPath.from_blocks(ZERO, INF, loop[:2]) == P("0", "1", "inf")


def test_minimal_path_length_matches_bfs_oracle():
    rng = random.Random(1729)
    for _ in range(30):
        a = random_unit_rational(rng, 60)
        b = random_unit_rational(rng, 60)
        if a == b:
            continue
        if Fraction(a.num, a.den) > Fraction(b.num, b.den):
            a, b = b, a
        assert len(minimal_path(a, b)) == geodesic_length_oracle(a, b), (a, b)


def test_decrement_path_fixture():
    assert [str(v) for v in decrement_path(S("25/9"))] == ["25/9", "11/4", "8/3", "5/2", "2", "1"]
    assert [str(v) for v in decrement_path(S("2"))] == ["2", "1"]
    assert decrement_path(S("49/13"))[1] == S("15/4")


def test_decrement_path_domain():
    with pytest.raises(DomainError):
        decrement_path(ONE)
    with pytest.raises(DomainError):
        decrement_path(S("1/2"))


def test_decrement_path_reverses_minimal_path():
    rng = random.Random(4104)
    for _ in range(40):
        r = random_unit_rational(rng, 100)
        x = make_slope(r.den, r.num)  # rational > 1
        assert tuple(reversed(decrement_path(x))) == minimal_path(ONE, x).vertices


def test_blocks_fixtures():
    assert blocks(P("9/25", "4/11", "3/8", "2/5", "1/2")).runs == ((0,), (1, 2, 3))
    assert blocks(P("1/5", "1/4", "1/3", "1/2")).runs == ((0, 1, 2),)
    assert blocks(P("2/5", "1/2")).runs == ((0,),)
    assert blocks(P("13/49", "4/15", "3/11", "2/7", "1/3")).runs == ((0,), (1, 2, 3))


def test_edge_runs_matches_oracle():
    # every first_edge <= last_edge on the geodesic of every ordered pair
    # of distinct slopes with |num|, den <= 4, against the per-vertex rule
    box = all_slopes_in_box(4)
    for a in box:
        for b in box:
            if a != b:
                path = minimal_path(a, b)
                vs, m = path.vertices, len(path)
                for first in range(m):
                    for last in range(first, m):
                        want = edge_runs_oracle(vs, first, last)
                        assert edge_runs(path, first, last) == want, (a, b, first, last)
    # a window of a geodesic of 10**12 - 2 edges in one block makes only
    # the edges asked for
    path = minimal_path(S("1/1000000000000"), S("1/2"))
    assert edge_runs(path, 5, 8) == ((5, 6, 7, 8),)
    assert edge_runs(path, 10**12 - 3, 10**13) == ((10**12 - 3,),)


def test_blocks_empty_on_single_vertex():
    assert blocks(FareyPath((ZERO,))).runs == ()


def test_lengthen_through_fixtures():
    assert lengthen_through(P("inf", "0", "1/2"), S("2/5")) == P("inf", "0", "1/3", "2/5", "1/2")
    assert lengthen_through(P("0", "1/2"), S("1/3")) == P("0", "1/3", "1/2")
    assert lengthen_through(P("inf", "0", "1/3"), S("2/7")) == P("inf", "0", "1/4", "2/7", "1/3")


def test_lengthen_through_rejects_vertices_and_outsiders():
    path = P("inf", "0", "1/2")
    with pytest.raises(DomainError):
        lengthen_through(path, ZERO)
    with pytest.raises(DomainError):
        lengthen_through(path, S("2/3"))


def test_concat():
    left = P("9/25", "4/11")
    right = P("4/11", "3/8", "2/5")
    assert concat(left, right) == P("9/25", "4/11", "3/8", "2/5")
    with pytest.raises(DomainError):
        concat(left, P("3/8", "2/5"))


def test_last_vertices_of_path_to_reciprocal():
    # for r in [(2n-1)/2n^2, 2/(2n+1)) the penultimate vertex of the
    # minimal path from r to 1/n is exactly 2/(2n+1)
    rng = random.Random(31415)
    for n in range(2, 9):
        lo = Fraction(2 * n - 1, 2 * n * n)
        hi = Fraction(2, 2 * n + 1)
        for _ in range(12):
            q = rng.randint(2, 200)
            p_lo = -((-lo.numerator * q) // lo.denominator)  # ceil
            p_hi = (hi.numerator * q - 1) // hi.denominator  # strictly below
            if p_hi < p_lo:
                continue
            p = rng.randint(p_lo, p_hi)
            from math import gcd

            if gcd(p, q) != 1 or Fraction(p, q) >= hi or Fraction(p, q) < lo:
                continue
            r = make_slope(p, q)
            path = minimal_path(r, make_slope(1, n))
            assert path.vertices[-2] == make_slope(2, 2 * n + 1), (n, r)


def test_junction_block_never_merges_into_tail():
    # concatenating minimal_path(r, 1/n) with the integer-reciprocal
    # tail keeps the last r-side edge in its own block, for r strictly
    # inside (1/(n+1), 1/n); at r = 1/(n+1) the single r-side edge does
    # merge geometrically, but it is the unsigned first edge
    rng = random.Random(999)
    checked = 0
    for _ in range(400):
        r = random_unit_rational(rng, 150)
        n = (r.den - 1) // r.num
        if n < 2 or r == make_slope(1, n + 1):
            continue
        head = minimal_path(r, make_slope(1, n))
        tail = FareyPath(tuple(make_slope(1, j) for j in range(n, 0, -1)))
        joined = concat(head, tail)
        runs = blocks(joined).runs
        last_head_edge = len(head) - 1
        run_of_last = next(run for run in runs if last_head_edge in run)
        assert last_head_edge == run_of_last[-1]
        checked += 1
    assert checked > 100
