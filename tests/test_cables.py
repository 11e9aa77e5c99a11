import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fareytight.slopes import DomainError, INF, ZERO, make_slope, parse_slope
from fareytight.paths import lengthen_through, minimal_path
from fareytight.tori import (
    ShuffleClass,
    SolidTorusStructure,
    enumerate_tight,
    shuffle_canonical,
    signed_blocks,
)
from fareytight.cables import (
    MobiusMap,
    cable_surgery_slope,
    legendrian_cable_surgery,
    reglue_map,
)

from helpers import cable_surgery_oracle, mobius_product

IDENTITY = MobiusMap(1, 0, 0, 1)


def S(text):
    return parse_slope(text)


def test_cable_surgery_slope_fixtures():
    assert cable_surgery_slope(5, 2, -1) == S("9/25")
    assert cable_surgery_slope(7, 2, -1) == S("13/49")
    assert cable_surgery_slope(4, 1, -1) == S("3/16")
    assert cable_surgery_slope(5, 2, 1) == S("11/25")
    assert cable_surgery_slope(2, 1, -1) == S("1/4")


def test_cable_surgery_slope_domain():
    with pytest.raises(DomainError):
        cable_surgery_slope(1, 1, -1)
    with pytest.raises(DomainError):
        cable_surgery_slope(4, 2, -1)
    with pytest.raises(DomainError):
        cable_surgery_slope(5, 2, 2)


def test_mobius_map_validation_and_repr():
    m = MobiusMap(11, -25, 4, -9)
    assert str(m) == "[[11,-25],[4,-9]]"
    assert m.to_json() == {"m": [[11, -25], [4, -9]]}
    with pytest.raises(DomainError):
        MobiusMap(2, 0, 0, 1)  # det 2


def test_mobius_compose_and_pow():
    m = reglue_map(5, 2, -1)
    assert m ** 0 == IDENTITY
    assert m ** 1 == m
    assert m ** 2 == mobius_product(m, m)
    assert m ** 3 == mobius_product(mobius_product(m, m), m)
    assert mobius_product(m ** -1, m) == mobius_product(m, m ** -1) == IDENTITY
    with pytest.raises(DomainError):
        MobiusMap(2, 1, 1, 1) ** 2  # trace 3: no closed form I + kN


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 30),
    st.integers(-29, 29),
    st.sampled_from([1, -1]),
    st.integers(-60, 60),
)
def test_mobius_pow_is_a_group_action(p, q, sign, k):
    assume(q != 0 and gcd(p, abs(q)) == 1)
    m = reglue_map(p, q, sign)
    assert mobius_product(m ** k, m ** -k) == IDENTITY
    assert m ** (k + 1) == mobius_product(m ** k, m)


def test_reglue_map_fixture_5_2():
    m = reglue_map(5, 2, -1)
    assert (m.a, m.b, m.c, m.d) == (11, -25, 4, -9)
    # maps the standard geodesic start [inf, 0, 1/3, 2/5] onto the
    # geodesic from the surgery slope
    assert m.apply(INF) == S("9/25")
    assert m.apply(ZERO) == S("4/11")
    assert m.apply(S("1/3")) == S("3/8")
    assert m.apply(S("2/5")) == S("2/5")
    assert m.apply(S("1/2")) == S("1/3")


def test_reglue_map_fixture_3_1():
    m = reglue_map(3, 1, -1)
    assert (m.a, m.b, m.c, m.d) == (4, -9, 1, -2)
    assert m.apply(ZERO) == S("1/4")
    assert m.apply(INF) == S("2/9")


def test_reglue_map_fixes_cabling_slope():
    rng = random.Random(7)
    for _ in range(40):
        p = rng.randint(2, 30)
        q = rng.randint(-29, 29)
        if q == 0 or gcd(p, abs(q)) != 1:
            continue
        for sign in (1, -1):
            m = reglue_map(p, q, sign)
            assert m.a * m.d - m.b * m.c == 1
            fixed = make_slope(q, p) if q > 0 else make_slope(q, p)
            assert m.apply(fixed) == fixed, (p, q, sign)


def test_reglue_map_sends_meridian_to_surgery_slope():
    rng = random.Random(8)
    for _ in range(60):
        p = rng.randint(2, 20)
        q = rng.randint(-19, 19)
        if q == 0 or gcd(p, abs(q)) != 1:
            continue
        for sign in (1, -1):
            m = reglue_map(p, q, sign)
            assert m.apply(INF) == cable_surgery_slope(p, q, sign), (p, q, sign)


def test_image_slope_formula():
    rng = random.Random(9)
    for _ in range(80):
        p = rng.randint(2, 15)
        q = rng.randint(1, 14)
        if gcd(p, q) != 1:
            continue
        m = reglue_map(p, q, -1)
        n = rng.randint(-20, 20)
        d = rng.randint(1, 20)
        if gcd(abs(n), d) != 1:
            continue
        s = make_slope(n, d)
        out = m.apply(s)
        num = q * q * d + (1 - p * q) * n
        den = (1 + p * q) * d - p * p * n
        if den == 0:
            assert out == INF, (p, q, s)
        else:
            assert Fraction(out.num, out.den) == Fraction(num, den), (p, q, s)


def test_reglue_squared_gives_twice_cabled_slope():
    for n in range(2, 13):
        m = reglue_map(n, 1, -1)
        twice = m ** 2
        assert twice.apply(INF) == make_slope(2 * n - 1, 2 * n * n), n


def standard_torus(div="1/2", counts=(0,)):
    path = minimal_path(INF, S(div))
    return SolidTorusStructure(INF, S(div), ShuffleClass(path, counts))


def test_legendrian_cable_surgery_fixture_5_2():
    # one framing-1 surgery on the (5,2)-cable turns the standard torus
    # into the 9/25 torus; all-plus decorations stay all-plus
    out = legendrian_cable_surgery(standard_torus(), 5, 2, 1)
    assert out.meridian == S("9/25")
    assert out.dividing == S("1/2")
    assert out.iso_class.minus_counts == (0,)
    assert [str(v) for v in out.iso_class.path.vertices] == [
        "9/25",
        "4/11",
        "3/8",
        "2/5",
        "1/2",
    ]


def test_legendrian_cable_surgery_all_minus():
    out = legendrian_cable_surgery(standard_torus(counts=(1,)), 5, 2, 1)
    assert out.iso_class.minus_counts == (3,)


def test_legendrian_cable_surgery_fixture_7_2():
    out = legendrian_cable_surgery(standard_torus("1/3"), 7, 2, 1)
    assert out.meridian == S("13/49")
    assert [str(v) for v in out.iso_class.path.vertices] == [
        "13/49",
        "4/15",
        "3/11",
        "2/7",
        "1/3",
    ]


def test_legendrian_cable_surgery_needs_interior_slope():
    path = minimal_path(S("9/25"), S("2/5"))
    x = SolidTorusStructure(S("9/25"), S("2/5"), ShuffleClass(path, (0,)))
    with pytest.raises(DomainError):
        legendrian_cable_surgery(x, 2, 1, 1)  # 1/2 outside (9/25, 2/5)
    with pytest.raises(DomainError):
        legendrian_cable_surgery(standard_torus(), 5, 2, 0)


def test_legendrian_cable_surgery_rejects_meridian():
    path = minimal_path(S("2/5"), S("1/2"))
    x = SolidTorusStructure(S("2/5"), S("1/2"), ShuffleClass(path, ()))
    with pytest.raises(DomainError):
        legendrian_cable_surgery(x, 5, 2, 1)


def test_legendrian_cable_surgery_existing_vertex():
    # 2/5 already a vertex: no lengthening, prefix maps straight through
    path = minimal_path(S("9/25"), S("1/2"))
    x = SolidTorusStructure(S("9/25"), S("1/2"), ShuffleClass(path, (0,)))
    out = legendrian_cable_surgery(x, 5, 2, 1)
    assert out.meridian == reglue_map(5, 2, -1).apply(S("9/25"))
    assert out.meridian == S("19/50")
    assert out.dividing == S("1/2")


def test_legendrian_cable_surgery_iterated_count():
    # count=2 equals two successive count=1 surgeries
    once = legendrian_cable_surgery(standard_torus(), 2, 1, 1)
    assert once.meridian == S("1/4")
    twice = legendrian_cable_surgery(standard_torus(), 2, 1, 2)
    assert twice.meridian == make_slope(3, 8)
    assert (reglue_map(2, 1, -1) ** 2).apply(INF) == S("3/8")


def test_legendrian_cable_surgery_well_formed_class():
    # the returned iso class is always canonical and its path minimal
    rng = random.Random(12)
    done = 0
    for _ in range(600):
        if done == 15:
            break
        p = rng.randint(2, 6)
        q = rng.randint(1, p - 1)
        if gcd(p, q) != 1:
            continue
        den = rng.randint(2, 9)
        num = rng.randint(1, den - 1)
        if gcd(num, den) != 1:
            continue
        s = make_slope(num, den)
        if not (Fraction(q, p) < Fraction(num, den)):
            continue
        path = minimal_path(INF, s)
        sizes = signed_blocks(path).sizes
        counts = tuple(rng.randint(0, sz) for sz in sizes)
        x = SolidTorusStructure(INF, s, ShuffleClass(path, counts))
        out = legendrian_cable_surgery(x, p, q, 1)
        assert out.dividing == s
        assert out.meridian == cable_surgery_slope(p, q, -1)
        assert out.iso_class == shuffle_canonical(out.iso_class.canonical_decorated())
        done += 1
    assert done == 15


_MERIDIANS = [INF, ZERO, S("1/3"), S("-2")]


@st.composite
def surgery_inputs(draw):
    """A tight structure on a solid torus with meridian inf, 0, 1/3 or
    -2 and a dividing slope of denominator at most 9, a cable with
    2 <= p <= 6 and |q| <= 15 (gcd 1 or not, inside the interval or
    not) and a count 0-10 or 4000."""
    r = draw(st.sampled_from(_MERIDIANS))
    s = make_slope(draw(st.integers(-30, 30)), draw(st.integers(1, 9)))
    assume(s != r)
    classes = enumerate_tight(r, s)
    x = classes[draw(st.integers(0, len(classes) - 1))]
    count = draw(st.sampled_from(list(range(11)) + [4000]))
    return x, draw(st.integers(2, 6)), draw(st.integers(-15, 15)), count


def _surgery_result(fn, x, p, q, count):
    try:
        y = fn(x, p, q, count)
    except DomainError as exc:
        return "DomainError: %s" % exc
    return y.meridian, y.dividing, y.iso_class.path, y.iso_class.minus_counts


def test_cable_surgery_matches_oracle():
    # the surgery on lifted vectors against the Slope-level surgery it
    # replaced: the same structure, or the same DomainError text
    reached = Counter()

    @settings(max_examples=400, deadline=None)
    @given(surgery_inputs())
    @example((standard_torus(), 5, 2, 0))  # count 0
    @example((standard_torus(), 3, 5, 1))  # 5/3 outside (inf, 1/2)
    @example((SolidTorusStructure(S("1/3"), S("1/2"), ShuffleClass(minimal_path(S("1/3"), S("1/2")), ())), 3, 1, 2))
    def check(args):
        x, p, q, count = args
        got = _surgery_result(legendrian_cable_surgery, x, p, q, count)
        assert got == _surgery_result(cable_surgery_oracle, x, p, q, count), args
        if isinstance(got, str):
            reached["outside" if " is outside the interval " in got else got] += 1
        else:
            vertex = make_slope(q, p) in x.iso_class.path.vertices
            reached["cable slope on the path" if vertex else "lengthened"] += 1

    check()
    assert reached["cable slope on the path"] and reached["lengthened"], reached
    for error in ("count must be a positive integer", "cabling slope coincides with the meridian",
                  "cabling requires gcd(p,q) = 1"):
        assert reached["DomainError: " + error], reached
    assert reached["outside"], reached


def test_cable_surgery_of_a_minimal_path_merges_nothing():
    # on a minimal path no interior vertex of the image lift has a cross
    # of 1 between its neighbours (legendrian_cable_surgery's docstring),
    # so the result keeps every edge of the path lengthened through q/p
    done = []

    @settings(max_examples=400, deadline=None)
    @given(surgery_inputs())
    @example((standard_torus(), 5, 2, 0))
    @example((standard_torus(), 3, 5, 1))
    @example((SolidTorusStructure(S("1/3"), S("1/2"), ShuffleClass(minimal_path(S("1/3"), S("1/2")), ())), 3, 1, 2))
    def check(args):
        x, p, q, count = args
        try:
            y = legendrian_cable_surgery(x, p, q, count)
        except DomainError:
            return
        path, t = x.iso_class.path, make_slope(q, p)
        image = path if t in path.vertices else lengthen_through(path, t)
        assert len(y.iso_class.path) == len(image), args
        done.append(args)

    check()
    assert done


def test_legendrian_cable_surgery_merges_on_a_path_that_is_not_minimal():
    # inf -> 0 -> 1/3 -> 1/2 is lengthened through -1/2 and pushed through
    # reglue_map(2, -1, -1)**3; in the image 0 -- 1/2 is still an edge, so
    # 1/3 drops and the edges at it merge, which needs their signs to agree
    path = lengthen_through(minimal_path(INF, S("1/2")), S("1/3"))
    for counts, minus in (((0, 0), (0, 0, 0)), ((1, 1), (0, 0, 1)), ((0, 1), None), ((1, 0), None)):
        x = SolidTorusStructure(INF, S("1/2"), ShuffleClass(path, counts))
        got = _surgery_result(legendrian_cable_surgery, x, 2, -1, 3)
        assert got == _surgery_result(cable_surgery_oracle, x, 2, -1, 3), counts
        if minus is None:
            assert got == "DomainError: surgered path did not shorten to a tight structure", counts
        else:
            meridian, dividing, short, got_minus = got
            assert (meridian, dividing, got_minus) == (S("-7/12"), S("1/2"), minus), counts
            assert [str(v) for v in short.vertices] == ["-7/12", "-4/7", "-1/2", "0", "1/2"]
