import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fareytight.slopes import (
    INF,
    ONE,
    ZERO,
    ContinuedFraction,
    DomainError,
    ParseError,
    Slope,
    cf_minus,
    cw_interval_contains,
    det,
    farey_sum,
    is_edge,
    make_slope,
    neighbors_in_interval,
    parse_slope,
    cf_runs,
    rationals_in,
)

from helpers import (
    all_slopes_in_box,
    cf_eval_oracle,
    cf_minus_oracle,
    cf_value,
    cw_contains_oracle,
    farey_edges_oracle,
    neighbors_scan_oracle,
    random_unit_rational,
)


def S(text):
    return parse_slope(text)


def test_make_slope_reduces():
    assert make_slope(18, 50) == Slope(9, 25)
    assert make_slope(-3, 0) == INF
    assert make_slope(1, 0) == INF
    assert make_slope(2, -7) == Slope(-2, 7)
    assert make_slope(0, -5) == ZERO


def test_make_slope_rejects_zero_zero():
    with pytest.raises(DomainError):
        make_slope(0, 0)


def test_slope_constructor_validates():
    with pytest.raises(DomainError):
        Slope(2, 4)
    with pytest.raises(DomainError):
        Slope(1, -2)
    with pytest.raises(DomainError):
        Slope(3, 0)


def test_parse_and_print():
    assert str(S("9/25")) == "9/25"
    assert str(S("-2/7")) == "-2/7"
    assert str(S("inf")) == "inf"
    assert str(S("INF")) == "inf"
    assert str(S("5")) == "5"
    assert S("4/2") == Slope(2, 1)
    assert S("+2/5") == Slope(2, 5)
    assert S("1/-2") == Slope(-1, 2)
    # ASCII digits with an optional sign, no whitespace inside
    for bad in ("zz", "", "1/2/3", "1.5", "2/", "1_0/3", "١/٣", "２/５", "1 /3", "1/ 3"):
        with pytest.raises(ParseError):
            S(bad)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_parse_print_round_trip(num, den):
    if num == 0 and den == 0:
        return
    s = make_slope(num, den)
    assert parse_slope(str(s)) == s


def test_farey_sum_fixtures():
    assert farey_sum(S("1/4"), S("1/3")) == S("2/7")
    assert farey_sum(ZERO, INF) == ONE
    assert farey_sum(S("1/4"), S("2/7")) == S("3/11")
    # infinity counts as -1/0 next to a negative operand
    assert farey_sum(S("-1"), INF) == S("-2")
    assert farey_sum(INF, S("-1/2")) == S("-1")


def test_farey_sum_errors():
    with pytest.raises(DomainError):
        farey_sum(ONE, ONE)


@given(st.integers(-60, 60), st.integers(0, 60), st.integers(-8, 8))
def test_farey_sum_of_edge_is_adjacent_to_both(p, q, k):
    # build an adjacent pair from a primitive vector and a fan member
    if p == 0 and q == 0:
        return
    a = make_slope(p, q)
    from fareytight.slopes import _fan_basis

    v0, w0 = _fan_basis(a)
    b = make_slope(w0[1] + k * v0[1], w0[0] + k * v0[0])
    m = farey_sum(a, b)
    assert is_edge(a, m) and is_edge(m, b)


def test_is_edge_fixtures():
    assert is_edge(S("9/25"), S("4/11"))
    assert is_edge(S("1/5"), S("1/6"))
    assert not is_edge(S("9/25"), S("3/8"))
    assert is_edge(ZERO, INF)
    assert not is_edge(S("1/3"), S("3/5"))


def test_is_edge_matches_mediant_recursion():
    bound = 12
    oracle = farey_edges_oracle(bound)
    for e in oracle:
        a, b = tuple(e)
        assert is_edge(a, b)
    box = all_slopes_in_box(bound)
    for a in box:
        for b in box:
            if a == b:
                continue
            assert is_edge(a, b) == (frozenset((a, b)) in oracle), (a, b)


def test_cw_interval_fixtures():
    assert cw_interval_contains(S("3/8"), S("9/25"), S("1/2"))
    assert cw_interval_contains(ZERO, S("1/3"), S("2/9"))
    assert not cw_interval_contains(S("9/25"), S("9/25"), S("1/2"))
    with pytest.raises(DomainError):
        cw_interval_contains(ZERO, ONE, ONE)


_pairs = st.tuples(st.integers(-30, 30), st.integers(0, 30)).filter(lambda t: t != (0, 0))


@given(_pairs, _pairs, _pairs)
def test_cw_interval_matches_angle_oracle(tx, ta, tb):
    x, a, b = make_slope(*tx), make_slope(*ta), make_slope(*tb)
    assume(len({x, a, b}) == 3)
    assert cw_interval_contains(x, a, b) == cw_contains_oracle(x, a, b)


@given(_pairs, _pairs, _pairs)
def test_point_lies_in_exactly_one_open_arc(tx, ta, tb):
    x, a, b = make_slope(*tx), make_slope(*ta), make_slope(*tb)
    assume(len({x, a, b}) == 3)
    assert cw_interval_contains(x, a, b) != cw_interval_contains(x, b, a)


def test_fan_basis_has_cross_one():
    # every slope in a box that holds inf, 0, the integers and negative
    # slopes: V is the slope's own vector and cross(V, W) == 1
    from fareytight.slopes import _fan_basis

    box = all_slopes_in_box(15)
    assert {INF, ZERO, ONE, S("-1"), S("15"), S("-15"), S("-7/15")} <= set(box)
    for s in box:
        (vd, vn), (wd, wn) = _fan_basis(s)
        assert (vd, vn) == (s.den, s.num) and vd * wn - vn * wd == 1, s


def test_fan_param_is_floor_and_ceil_of_the_fraction():
    # on every ordered pair s0 != t of the slopes with |num|, den <= 6 and
    # inf: t is parallel to W + k*V, with k = -cross(T, W) / cross(T, V)
    # as a Fraction, which is negative, or has a negative denominator,
    # without being an integer
    from fareytight.slopes import _fan_basis, _fan_param

    box, signs = all_slopes_in_box(6), set()
    for s0 in box:
        v0, w0 = _fan_basis(s0)
        for t in box:
            if t != s0:
                num = -(t.den * w0[1] - t.num * w0[0])
                denom = t.den * v0[1] - t.num * v0[0]
                k = Fraction(num, denom)
                assert _fan_param(v0, w0, t) == (math.floor(k), math.ceil(k)), (s0, t)
                signs.add((denom < 0, k < 0, k.denominator == 1))
    assert {(True, False, False), (False, True, False)} <= signs
    with pytest.raises(DomainError):
        _fan_param(*_fan_basis(S("2/3")), S("2/3"))


def test_neighbors_in_interval_fixtures():
    assert neighbors_in_interval(S("1/2"), ONE, S("1/3")) == frozenset({ZERO})
    assert neighbors_in_interval(S("3/8"), S("2/5"), S("4/11")) == frozenset({S("1/3")})
    # short arc from 1/3 clockwise through inf and 0 down to 1/5: the
    # only neighbour of 1/4 strictly inside is 0 (2/7 and 2/9 sit on
    # the other arc, between 1/5 and 1/3)
    assert neighbors_in_interval(S("1/4"), S("1/3"), S("1/5")) == frozenset({ZERO})


def test_neighbors_in_interval_infinite_cases():
    with pytest.raises(DomainError, match="neighbour set inside the interval is infinite"):
        neighbors_in_interval(S("1/4"), S("1/5"), S("1/3"))
    with pytest.raises(DomainError, match="neighbour set inside the interval is infinite"):
        neighbors_in_interval(S("1/4"), S("1/4"), S("1/3"))
    with pytest.raises(DomainError, match="neighbour set inside the interval is infinite"):
        neighbors_in_interval(S("1/4"), S("1/3"), S("1/4"))
    with pytest.raises(DomainError, match="interval endpoints must be distinct"):
        neighbors_in_interval(S("1/4"), S("1/3"), S("1/3"))
    # the distinct-endpoints error comes first, even where s0 is both endpoints
    with pytest.raises(DomainError, match="interval endpoints must be distinct"):
        neighbors_in_interval(S("1/4"), S("1/4"), S("1/4"))


def test_neighbors_in_interval_matches_scan():
    rng = random.Random(20260825)
    bound = 200
    done = 0
    for _ in range(5000):
        if done == 25:
            break
        s0 = random_unit_rational(rng, 12)
        a = random_unit_rational(rng, 12)
        b = random_unit_rational(rng, 12)
        if len({s0, a, b}) < 3:
            continue
        if s0 in (a, b) or cw_interval_contains(s0, a, b):
            continue
        got = neighbors_in_interval(s0, a, b)
        if any(t.den > bound or abs(t.num) > bound for t in got):
            continue  # answer outgrows the scan box; skip, do not trust
        assert got == neighbors_scan_oracle(s0, a, b, bound)
        done += 1
    assert done == 25


def test_neighbors_in_interval_matches_scan_on_the_whole_circle():
    # s0, a and b drawn from the slopes with |num|, den <= 6 and inf, so
    # negatives, integers and inf all occur; the fan parameter of an end
    # t has the denominator det(s0, t), whose sign both cases take, and
    # is an integer exactly when t is a Farey neighbour of s0
    rng = random.Random(20261019)
    box = all_slopes_in_box(6)
    bound, done, drawn, signs = 60, 0, set(), set()
    for _ in range(5000):
        if done == 120:
            break
        s0, a, b = rng.sample(box, 3)
        if s0 in (a, b) or cw_interval_contains(s0, a, b):
            continue
        got = neighbors_in_interval(s0, a, b)
        if any(t.den > bound // 2 or abs(t.num) > bound // 2 for t in got):
            continue  # answer outgrows the scan box; skip, do not trust
        assert got == neighbors_scan_oracle(s0, a, b, bound), (s0, a, b)
        drawn |= {s0, a, b}
        signs |= {(det(s0, t) < 0, is_edge(s0, t)) for t in (a, b)}
        done += 1
    assert done == 120
    assert INF in drawn and any(t.num < 0 for t in drawn) and any(t.den == 1 for t in drawn)
    assert signs == {(True, True), (True, False), (False, True), (False, False)}


def test_cf_minus_fixtures():
    assert cf_minus(S("25/9")).entries == (3, 5, 2)
    assert cf_minus(S("49/13")).entries == (4, 5, 2, 2)
    assert cf_minus(S("7")).entries == (7,)
    assert cf_minus(S("32/7")).entries == (5, 3, 2, 2)


def test_cf_minus_domain():
    for bad in ("1", "1/2", "0", "-3", "inf"):
        with pytest.raises(DomainError):
            cf_minus(S(bad))


def test_cf_normal_form_validation():
    with pytest.raises(DomainError):
        ContinuedFraction((3, 1, 2))
    with pytest.raises(DomainError):
        ContinuedFraction(())


@given(st.integers(1, 10**4), st.integers(1, 10**4))
@settings(max_examples=300)
def test_cf_round_trip(a, b):
    # reduce a/b to a rational > 1
    num, den = a + b, b
    x = make_slope(num, den)
    cf = cf_minus(x)
    assert all(e >= 2 for e in cf.entries)
    assert cf_value(cf) == x
    assert cf_eval_oracle(cf.entries) == Fraction(x.num, x.den)


def test_cf_minus_matches_the_recurrence_exhaustive():
    # every reduced p/q with q < 120 and q < p <= 4q + 2: entries 2 to 6
    # at the front, and runs of 2s that end blocks of every length
    done = 0
    for q in range(1, 120):
        for p in range(q + 1, 4 * q + 3):
            if math.gcd(p, q) == 1:
                x = make_slope(p, q)
                assert cf_minus(x).entries == cf_minus_oracle(x), x
                done += 1
    assert done == 13241


def _runs_of(entries):
    """The runs (entry, count) of entries: each maximal run of 2s, and
    each other entry on its own."""
    runs = []
    for e in entries:
        if runs and e == 2 == runs[-1][0]:
            runs[-1][1] += 1
        else:
            runs.append([e, 1])
    return [tuple(run) for run in runs]


def test_cf_runs_of_one_long_run_of_twos():
    # (10**k + 1) / 10**k = [2, ..., 2], 10**k entries, is one block of
    # the geodesic: one run, read without spelling the entries out
    for k in range(13):
        assert list(cf_runs(make_slope(10**k + 1, 10**k))) == [(2, 10**k)], k
    assert cf_minus(make_slope(10**5 + 1, 10**5)).entries == cf_minus_oracle(make_slope(10**5 + 1, 10**5))


@given(st.lists(st.one_of(st.integers(3, 10**6).map(lambda a: [a]),
                          st.integers(0, 4).map(lambda k: [2] * 10**k)), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_cf_runs_match_the_recurrence_on_long_runs_of_twos(pieces):
    # entries up to 10**6 among runs of up to 10**4 2s, which the
    # recurrence spells out one division at a time
    entries = tuple(e for piece in pieces for e in piece)
    x = cf_value(ContinuedFraction(entries))
    assert cf_minus_oracle(x) == entries
    assert list(cf_runs(x)) == _runs_of(entries)
    assert cf_minus(x).entries == entries


def test_det_antisymmetry():
    a, b = S("9/25"), S("4/11")
    assert det(a, b) == -det(b, a) == -1


def rationals_scan(lo: Fraction, hi: Fraction, bound: int) -> list:
    """Brute force: every p/q with q <= bound, kept when reduced and in [lo, hi)."""
    found = {Fraction(p, q) for q in range(1, bound + 1) for p in range(q + 1)}
    return [make_slope(x.numerator, x.denominator) for x in sorted(found) if lo <= x < hi]


@pytest.mark.parametrize(
    "a, b, bound",
    [
        ("9/25", "4/11", 200),
        ("13/49", "4/15", 200),
        ("1/12", "1/2", 80),
        ("3/8", "2/5", 40),
        ("1/2", "1", 30),
        ("1/1000", "1/999", 50),
        ("1/3", "1/2", 6),
        ("1/3", "1/2", 1),
    ],
)
def test_farey_interval_matches_scan(a, b, bound):
    lo, hi = S(a), S(b)
    want = rationals_scan(Fraction(lo.num, lo.den), Fraction(hi.num, hi.den), bound)
    assert rationals_in(lo, hi, bound) == want


def test_farey_interval_matches_scan_random():
    rng = random.Random(2023)
    for _ in range(60):
        x, y = (Fraction(rng.randint(1, 97), 97) for _ in range(2))
        if x == y:
            continue
        lo, hi = min(x, y), max(x, y)
        bound = rng.randint(1, 60)
        got = rationals_in(make_slope(lo.numerator, lo.denominator),
                           make_slope(hi.numerator, hi.denominator), bound)
        assert got == rationals_scan(lo, hi, bound), (lo, hi, bound)


def test_farey_interval_domain():
    for a, b in (("0", "1/2"), ("1/2", "3/2"), ("inf", "1/2"), ("-1/3", "1/2")):
        with pytest.raises(DomainError):
            rationals_in(S(a), S(b), 10)
    with pytest.raises(DomainError):
        rationals_in(S("1/2"), S("1/2"), 10)
    with pytest.raises(DomainError):
        rationals_in(S("1/2"), S("1/3"), 10)
    for bound in (0, -5):
        with pytest.raises(DomainError):
            rationals_in(S("1/3"), S("1/2"), bound)


def test_value_classes_behave_as_frozen_dataclasses():
    import copy
    import pickle

    import fareytight as ft
    from fareytight.atlas import _BASE, _INTERIOR, _SIDE_HIGH, _SIDE_LOW, _TOP

    path = ft.minimal_path(S("9/25"), S("1/2"))
    P = ft.ShuffleClass(path, (1,))
    shown = ("FareyPath.from_blocks(Slope(9/25), Slope(1/2), "
             "(((-14, -5), (25, 9), 1), ((-3, -1), (11, 4), 3)))")
    # each class twice from equal fields, and its repr, taken from the
    # frozen dataclasses these classes replace
    cases = [
        (lambda: Slope(1, 2), "num den", "Slope(1/2)"),
        (lambda: ContinuedFraction((3, 5, 2)), "entries", "ContinuedFraction(entries=(3, 5, 2))"),
        (lambda: ft.BlockDecomposition((1, 2)), "sizes first",
         "BlockDecomposition(sizes=(1, 2), first=0)"),
        (lambda: ft.DecoratedPath(path, (1, -1, -1)), "path signs",
         "DecoratedPath(path=%s, signs=(1, -1, -1))" % shown),
        (lambda: ft.ShuffleClass(ft.minimal_path(S("9/25"), S("1/2")), (1,)), "path minus_counts",
         "ShuffleClass(path=%s, minus_counts=(1,))" % shown),
        (lambda: ft.SolidTorusStructure(S("9/25"), S("1/2"), P), "meridian dividing iso_class",
         "SolidTorusStructure(meridian=Slope(9/25), dividing=Slope(1/2), "
         "iso_class=ShuffleClass(path=%s, minus_counts=(1,)))" % shown),
        (lambda: ft.TightStructureId(S("9/25"), k=1, l=0, P=P), "r k l P",
         "TightStructureId(r=Slope(9/25), k=1, l=0, "
         "P=ShuffleClass(path=%s, minus_counts=(1,)))" % shown),
        (lambda: ft.MixedTorus(S("1/3"), S("1/2"), s_neg1=S("1/4")), "s0 s1 s_neg1",
         "MixedTorus(s0=Slope(1/3), s1=Slope(1/2), s_neg1=Slope(1/4))"),
        (lambda: ft.FillabilityVerdict(status=ft.Fillability.STEIN, cite="Lemma 4.2"),
         "status cite note",
         "FillabilityVerdict(status=<Fillability.STEIN: 'Stein'>, cite='Lemma 4.2', note=None)"),
        (lambda: ft.MobiusMap(11, -25, 4, -9), "a b c d", "MobiusMap(a=11, b=-25, c=4, d=-9)"),
    ]
    for make, fields, text in cases:
        x, y, fields = make(), make(), fields.split()
        assert x is not y and x == y and not x != y and hash(x) == hash(y), text
        assert x != object() and repr(x) == text
        assert hash(x) == hash(tuple(getattr(x, f) for f in fields)), text
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert x == y == pickle.loads(pickle.dumps(x)) == copy.copy(x) == copy.deepcopy(x), text
    assert ft.MobiusMap(11, -25, 4, -9) != ft.MobiusMap(11, 25, -4, -9)
    # a path equals only a path, not its vertex tuple
    assert path != object() and path != path.vertices and not path == path.vertices
    assert ft.BlockDecomposition((1, 2)) != ft.BlockDecomposition((1, 2), 1)
    # defaults
    assert ft.BlockDecomposition((1, 2)).first == 0
    assert ft.FillabilityVerdict(status=ft.Fillability.STEIN, cite="Lemma 4.2").note is None
    assert ft.TrianglePosition("Base").side is None
    # the five positions compare and hash by identity
    positions = [_BASE, _TOP, _INTERIOR, _SIDE_LOW, _SIDE_HIGH]
    assert len(set(positions)) == 5 and len({id(p) for p in positions}) == 5
    assert ft.TrianglePosition("Base") != _BASE and hash(ft.TrianglePosition("Base")) != hash(_BASE)
    assert repr(_SIDE_LOW) == "TrianglePosition(tag='Side', side='low')"
    for f in ("tag", "side"):
        with pytest.raises(AttributeError):
            setattr(_TOP, f, "Base")
        with pytest.raises(AttributeError):
            delattr(_TOP, f)
    # the checks run on keyword construction too
    with pytest.raises(DomainError):
        ft.MobiusMap(a=1, b=1, c=1, d=1)
    with pytest.raises(DomainError):
        Slope(num=2, den=4)
    # an uncovered verdict cites nothing, and a covered one cites a result
    with pytest.raises(DomainError, match="carry no citation"):
        ft.FillabilityVerdict(status=ft.Fillability.NOT_COVERED, cite="Lemma 4.2")
    with pytest.raises(DomainError, match="must cite"):
        ft.FillabilityVerdict(status=ft.Fillability.STEIN, cite=None)
