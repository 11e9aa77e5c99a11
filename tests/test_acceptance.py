"""Acceptance gate: every criterion checked exactly, one verdict line each."""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from fareytight.slopes import INF, cf_minus, make_slope, parse_slope, rationals_in
from fareytight.paths import FareyPath, blocks, minimal_path
from fareytight.tori import (
    ShuffleClass,
    SolidTorusStructure,
    count_tight,
    phi,
)
from fareytight.cables import (
    cable_surgery_slope,
    legendrian_cable_surgery,
    reglue_map,
)
from fareytight.atlas import (
    Fillability,
    MixedTorus,
    enumerate_structures,
    exceptional_slopes,
    n_of,
    verdict_summary,
)

from helpers import (
    geodesic_length_oracle,
    random_unit_rational,
    shuffle_orbit_count,
)


def S(text):
    return parse_slope(text)


@contextmanager
def report(capsys, num, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print("ACCEPTANCE %d %s: %s" % (num, name, "PASS" if ok else "FAIL"))


def test_acceptance_1_counting(capsys):
    with report(capsys, 1, "structure count"):
        for n in range(1, 13):
            r = make_slope(1, n + 1)
            assert len(enumerate_structures(r)) == n * (n + 1) // 2
        rng = random.Random(20260825)
        for _ in range(1000):
            r = random_unit_rational(rng, 400)
            n = n_of(r)
            assert len(enumerate_structures(r)) == n * (n + 1) // 2 * phi(r), r


def test_acceptance_2_n2_window(capsys):
    with report(capsys, 2, "n=2 window summaries"):
        assert cf_minus(S("25/9")).entries == (3, 5, 2)
        assert phi(S("9/25")) == 4
        assert verdict_summary(S("9/25")) == {
            Fillability.STEIN: 10,
            Fillability.STRONG_NOT_EXACT: 2,
        }
        assert sum(verdict_summary(S("9/25")).values()) == 12 == 3 * phi(S("9/25"))
        window = rationals_in(S("9/25"), S("4/11"), 200)
        assert len(window) == 44
        for r in window:
            f = phi(r)
            assert verdict_summary(r) == {
                Fillability.STEIN: 2 * f + 2,
                Fillability.STRONG_NOT_EXACT: f - 2,
            }, r


def test_acceptance_3_n3_window(capsys):
    with report(capsys, 3, "n=3 window summaries"):
        assert verdict_summary(S("13/49")) == {
            Fillability.STEIN: 22,
            Fillability.STRONG_NOT_EXACT: 2,
        }
        window = rationals_in(S("13/49"), S("4/15"), 200)
        assert len(window) == 16
        for r in window:
            f = phi(r)
            assert verdict_summary(r) == {
                Fillability.STEIN: 5 * f + 2,
                Fillability.STRONG_NOT_EXACT: f - 2,
            }, r


# coefficients with denominator <= 400 in [(2n-1)/2n^2, 2/(2n+1)), so
# the gate keeps checking exactly these inputs
WIDE_WINDOW_SIZES = {2: 1216, 3: 387, 4: 168, 5: 88, 6: 53, 7: 33, 8: 21, 9: 15, 10: 10}


def test_acceptance_4_wide_window(capsys):
    with report(capsys, 4, "wide window summaries"):
        for n in range(4, 11):
            window = rationals_in(make_slope(2 * n - 1, 2 * n * n), make_slope(2, 2 * n + 1), 400)
            assert len(window) == WIDE_WINDOW_SIZES[n], n
            for r in window:
                f = phi(r)
                expected = {
                    Fillability.STEIN: (2 * n - 1) * f,
                    Fillability.STRONG_STEIN_CONDITIONAL: (n - 2) * f,
                }
                if n > 3:
                    expected[Fillability.STRONG_NOT_EXACT] = (n - 3) * (n - 2) // 2 * f
                assert verdict_summary(r) == expected, (n, r)
        for n in (2, 3):
            window = rationals_in(make_slope(2 * n - 1, 2 * n * n), make_slope(2, 2 * n + 1), 400)
            assert len(window) == WIDE_WINDOW_SIZES[n], n
            for r in window:
                summary = verdict_summary(r)
                assert set(summary) == {Fillability.STEIN}, (n, r)


def test_acceptance_5_geodesic_fixtures(capsys):
    with report(capsys, 5, "standard geodesics"):
        p1 = minimal_path(S("9/25"), S("1/2"))
        assert [str(v) for v in p1.vertices] == ["9/25", "4/11", "3/8", "2/5", "1/2"]
        p2 = minimal_path(S("13/49"), S("1/3"))
        assert [str(v) for v in p2.vertices] == ["13/49", "4/15", "3/11", "2/7", "1/3"]
        assert blocks(p1).runs == ((0,), (1, 2, 3))


def test_acceptance_6_cable_calculus(capsys):
    with report(capsys, 6, "cable calculus"):
        assert cable_surgery_slope(5, 2, -1) == S("9/25")
        assert cable_surgery_slope(7, 2, -1) == S("13/49")
        for n in range(2, 13):
            image = (reglue_map(n, 1, -1) ** 2).apply(INF)
            assert image == make_slope(2 * n - 1, 2 * n * n), n
        base = FareyPath((INF, S("0"), S("1/3"), S("2/5"), S("1/2")))
        target = [str(v) for v in minimal_path(S("9/25"), S("1/2")).vertices]
        for c1 in (0, 1, 2):
            for c2 in (0, 1):
                x = SolidTorusStructure(INF, S("1/2"), ShuffleClass(base, (c1, c2)))
                out = legendrian_cable_surgery(x, 5, 2, 1)
                assert [str(v) for v in out.iso_class.path.vertices] == target
                assert out.iso_class.minus_counts == (c1 + c2,), (c1, c2)


def test_acceptance_7_oracle_equivalence(capsys):
    with report(capsys, 7, "oracle equivalence"):
        rng = random.Random(777)
        for _ in range(500):
            r = random_unit_rational(rng, 90)
            s = random_unit_rational(rng, 14)
            if r == s or Fraction(r.num, r.den) >= Fraction(s.num, s.den):
                continue
            path = minimal_path(r, s)
            if len(path) - 1 > 12:
                continue
            assert count_tight(r, s) == shuffle_orbit_count(path), (r, s)
        for q in range(2, 301):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                r = make_slope(p, q)
                n = n_of(r)
                assert phi(r) == count_tight(r, make_slope(1, n)), r
        rng = random.Random(778)
        done = 0
        while done < 200:
            a = random_unit_rational(rng, 60)
            b = random_unit_rational(rng, 60)
            if a == b:
                continue
            if Fraction(a.num, a.den) > Fraction(b.num, b.den):
                a, b = b, a
            assert len(minimal_path(a, b)) == geodesic_length_oracle(a, b), (a, b)
            done += 1


def test_acceptance_8_exceptional_slopes(capsys):
    with report(capsys, 8, "exceptional slopes"):
        zero = frozenset({S("0")})
        for k in range(2, 9):
            t = MixedTorus(make_slope(1, k), make_slope(1, k + 1), make_slope(1, k - 1))
            assert exceptional_slopes(t, paper_mode=True) == zero, k
            assert exceptional_slopes(t) == zero, k
        t = MixedTorus(S("3/8"), S("4/11"), S("2/5"))
        assert exceptional_slopes(t, paper_mode=True) == frozenset({S("1/3")})
