import random
from fractions import Fraction

import pytest

from fareytight.slopes import DomainError, INF, ONE, ZERO, make_slope, parse_slope
from fareytight.paths import FareyPath, minimal_path
from fareytight.tori import (
    DecoratedPath,
    ShuffleClass,
    SolidTorusStructure,
    consistently_shorten,
    count_tight,
    count_tight_upper,
    enumerate_tight,
    is_tight,
    lengthen_decorated,
    phi,
    shuffle_canonical,
    signed_blocks,
)

from helpers import random_unit_rational, shuffle_orbit_count


def S(text):
    return parse_slope(text)


def sample_path():
    return minimal_path(S("9/25"), S("1/2"))


def test_decorated_path_validation():
    path = sample_path()
    with pytest.raises(DomainError):
        DecoratedPath(path, (1, 1))  # needs 3 signs
    with pytest.raises(DomainError):
        DecoratedPath(path, (1, 0, 1))
    DecoratedPath(path, (1, -1, 1))


def test_decorated_path_str():
    d = DecoratedPath(sample_path(), (1, -1, 1))
    assert str(d) == "9/25 → 4/11 →+ 3/8 →- 2/5 →+ 1/2"


def test_signed_blocks_skips_first_edge():
    assert signed_blocks(sample_path()).runs == ((1, 2, 3),)
    two = minimal_path(S("2/5"), S("1/2"))
    assert signed_blocks(two).runs == ()


def test_shuffle_canonical_fixtures():
    path = sample_path()
    c1 = shuffle_canonical(DecoratedPath(path, (1, -1, 1)))
    c2 = shuffle_canonical(DecoratedPath(path, (-1, 1, 1)))
    c3 = shuffle_canonical(DecoratedPath(path, (1, 1, 1)))
    assert c1.minus_counts == (1,)
    assert c1 == c2
    assert c3.minus_counts == (0,)
    assert c1 != c3


def test_canonical_decorated_puts_minuses_last():
    path = sample_path()
    cls = ShuffleClass(path, (1,))
    assert cls.canonical_decorated().signs == (1, 1, -1)
    assert str(cls) == "9/25 → 4/11 →+ 3/8 →+ 2/5 →- 1/2"


def test_shuffle_class_validation():
    path = sample_path()
    with pytest.raises(DomainError):
        ShuffleClass(path, (4,))  # block has only 3 edges
    with pytest.raises(DomainError):
        ShuffleClass(path, (1, 1))  # only one signed block here
    with pytest.raises(DomainError):
        ShuffleClass(path, (-1,))


def test_shuffle_class_to_json():
    cls = ShuffleClass(sample_path(), (2,))
    assert cls.to_json() == {
        "path": ["9/25", "4/11", "3/8", "2/5", "1/2"],
        "blocks": [[1], [2, 3, 4]],
        "minus": [0, 2],
    }
    # built once per class: every record on the class shares it
    assert cls.to_json() is cls.to_json()


def test_count_tight_fixtures():
    assert count_tight(S("9/25"), S("1/2")) == 4
    assert count_tight(S("2/5"), S("1/2")) == 1
    assert count_tight(S("1/6"), S("1/5")) == 1
    assert count_tight(S("13/49"), S("1/3")) == 4
    assert count_tight(S("7/32"), S("1/4")) == 2


def test_count_tight_equals_shuffle_orbit_count():
    rng = random.Random(2718)
    done = 0
    for _ in range(2000):
        if done == 25:
            break
        r = random_unit_rational(rng, 60)
        s = random_unit_rational(rng, 12)
        if r == s or Fraction(r.num, r.den) >= Fraction(s.num, s.den):
            continue
        path = minimal_path(r, s)
        if len(path) - 1 > 9:  # orbit oracle enumerates 2^(edges-1) sign vectors
            continue
        assert count_tight(r, s) == shuffle_orbit_count(path), (r, s)
        done += 1
    assert done == 25


def test_phi_fixtures():
    for n in range(1, 9):
        assert phi(make_slope(1, n + 1)) == 1
    assert phi(S("9/25")) == 4
    assert phi(S("13/49")) == 4
    assert phi(S("7/32")) == 2
    assert phi(S("22/61")) == 8
    assert phi(S("30/113")) == 8


def test_phi_domain():
    with pytest.raises(DomainError):
        phi(S("3/2"))
    with pytest.raises(DomainError):
        phi(ONE)
    with pytest.raises(DomainError):
        phi(ZERO)
    with pytest.raises(DomainError):
        phi(S("-1/3"))


def test_count_tight_upper_fixtures():
    assert count_tight_upper(S("25/9"), ONE) == 8
    assert count_tight_upper(S("25/9"), S("2")) == 4
    assert count_tight_upper(S("7"), S("6")) == 1


def test_count_tight_upper_domain():
    with pytest.raises(DomainError):
        count_tight_upper(S("25/9"), S("25/9"))
    with pytest.raises(DomainError):
        count_tight_upper(INF, ONE)
    with pytest.raises(DomainError):
        count_tight_upper(S("2"), S("5/2"))  # s must precede x clockwise


def test_phi_is_count_tight_at_reciprocal_floor():
    # phi(r) counts the structures with the fewest minus signs ignored:
    # it equals the tight count on the solid torus (r, 1/n)
    rng = random.Random(162)
    for _ in range(40):
        r = random_unit_rational(rng, 120)
        n = (r.den - 1) // r.num
        if r == make_slope(1, n):
            continue
        assert phi(r) == count_tight(r, make_slope(1, n)), r


def test_enumerate_tight_fixture():
    classes = enumerate_tight(S("9/25"), S("1/2"))
    assert [c.iso_class.minus_counts for c in classes] == [(0,), (1,), (2,), (3,)]
    assert all(c.meridian == S("9/25") and c.dividing == S("1/2") for c in classes)


def test_enumerate_tight_adjacent():
    classes = enumerate_tight(S("2/5"), S("1/2"))
    assert len(classes) == 1
    assert classes[0].iso_class.minus_counts == ()


def test_enumerate_tight_two_blocks():
    classes = enumerate_tight(S("30/113"), S("1/3"))
    counts = [c.iso_class.minus_counts for c in classes]
    assert len(counts) == len(set(counts)) == 8
    # lexicographic in block order
    assert counts == sorted(counts)


def test_solid_torus_structure_validation():
    cls = ShuffleClass(sample_path(), (0,))
    SolidTorusStructure(S("9/25"), S("1/2"), cls)
    with pytest.raises(DomainError):
        SolidTorusStructure(S("9/25"), S("1/3"), cls)
    with pytest.raises(DomainError):
        SolidTorusStructure(S("4/11"), S("1/2"), cls)


def test_is_tight_minimal_paths_always():
    d = DecoratedPath(sample_path(), (1, -1, -1))
    assert is_tight(d)


def test_is_tight_detects_overtwisted():
    path = FareyPath((INF, ZERO, S("1/3"), S("1/2")))
    # [inf,0,1/3,1/2] shortens to [inf,0,1/2]: inconsistent signs die
    assert not is_tight(DecoratedPath(path, (1, -1)))
    assert not is_tight(DecoratedPath(path, (-1, 1)))
    assert is_tight(DecoratedPath(path, (1, 1)))
    assert is_tight(DecoratedPath(path, (-1, -1)))


def test_consistently_shorten_fixture():
    path = FareyPath((INF, ZERO, S("1/3"), S("1/2")))
    short = consistently_shorten(DecoratedPath(path, (1, 1)))
    assert short is not None
    assert short.path.vertices == (INF, ZERO, S("1/2"))
    assert short.signs == (1,)
    assert consistently_shorten(DecoratedPath(path, (1, -1))) is None


def test_consistently_shorten_identity_on_minimal():
    d = DecoratedPath(sample_path(), (1, -1, 1))
    assert consistently_shorten(d) == d


def test_lengthen_decorated_signed_edge_inherits():
    d = DecoratedPath(sample_path(), (1, 1, -1))
    out = lengthen_decorated(d, S("3/7"))  # inside (2/5, 1/2), final signed edge
    assert [str(v) for v in out.path.vertices] == ["9/25", "4/11", "3/8", "2/5", "3/7", "1/2"]
    assert out.signs == (1, 1, -1, -1)


def test_lengthen_decorated_first_edge_grows_plus():
    d = DecoratedPath(sample_path(), (1, 1, -1))
    out = lengthen_decorated(d, S("13/36"))  # inside the unsigned edge (9/25, 4/11)
    assert out.signs == (1, 1, 1, -1)


def test_lengthen_decorated_negative_arc():
    d = DecoratedPath(FareyPath((INF, ZERO)), ())
    out = lengthen_decorated(d, S("-1/2"))
    assert [str(v) for v in out.path.vertices] == ["inf", "-1", "-1/2", "0"]
    assert out.signs == (1, 1)


def test_lengthen_decorated_rejects_vertices():
    d = DecoratedPath(sample_path(), (1, 1, 1))
    with pytest.raises(DomainError):
        lengthen_decorated(d, S("3/8"))


def test_lengthened_tight_stays_tight():
    rng = random.Random(55)
    for _ in range(20):
        r = random_unit_rational(rng, 40)
        n = (r.den - 1) // r.num
        s = make_slope(1, n)
        if r == s:
            continue
        path = minimal_path(r, s)
        if len(path) < 2:
            continue
        signs = tuple(rng.choice((1, -1)) for _ in range(len(path) - 1))
        d = DecoratedPath(path, signs)
        u, v = path.vertices[0], path.vertices[1]
        t = None
        for q in range(2, 50):
            from math import gcd

            lo = Fraction(u.num, u.den)
            hi = Fraction(v.num, v.den)
            for p in range(1, q):
                f = Fraction(p, q)
                if lo < f < hi and gcd(p, q) == 1:
                    t = make_slope(f.numerator, f.denominator)
                    break
            if t:
                break
        if t is None:
            continue
        longer = lengthen_decorated(d, t)
        assert is_tight(longer)
        assert shuffle_canonical(consistently_shorten(longer)) == shuffle_canonical(d)
