import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fareytight.slopes import DomainError, INF, ONE, ZERO, det, farey_sum, is_edge, make_slope, parse_slope
from fareytight.slopes import ContinuedFraction, cf_minus
from fareytight import _output
from fareytight._output import ClassTexts, decorated_texts, minus_texts
from fareytight.paths import FareyPath, minimal_path
from fareytight.tori import (
    DecoratedPath,
    ShuffleClass,
    SolidTorusStructure,
    all_minus_counts,
    consistently_shorten,
    count_tight,
    enumerate_tight,
    feature_column,
    feature_counts,
    is_tight,
    lengthen_decorated,
    phi,
    shuffle_canonical,
    signed_blocks,
)

from helpers import (
    bfs_shorten,
    cf_value,
    euler_class,
    phi_oracle,
    random_unit_rational,
    shorten_oracle,
    shuffle_orbit_count,
)


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
    with pytest.raises(DomainError, match="at least one edge"):
        DecoratedPath(FareyPath((S("1/2"),)), ())  # one vertex, no edge
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


def test_phi_is_count_tight_at_reciprocal_floor():
    # phi(r) counts the structures with the fewest minus signs ignored:
    # it equals the tight count on the solid torus (r, 1/n), and the
    # continued fraction product
    rng = random.Random(162)
    for _ in range(40):
        r = random_unit_rational(rng, 120)
        n = (r.den - 1) // r.num
        if r == make_slope(1, n):
            continue
        assert phi(r) == count_tight(r, make_slope(1, n)) == phi_oracle(r), r


def _signed_sizes_from_cf(entries):
    """(am-2, ..., a1-2) without the zeros, for 1/r = [a0, ..., am]."""
    return tuple(a - 2 for a in reversed(entries[1:]) if a > 2)


def test_block_sizes_are_continued_fraction_entries_exhaustive():
    # every reduced r in (0,1) with denominator at most 200
    for q in range(2, 201):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            r = make_slope(p, q)
            entries = cf_minus(make_slope(q, p)).entries
            path = minimal_path(r, make_slope(1, entries[0] - 1))
            assert signed_blocks(path).sizes == _signed_sizes_from_cf(entries), r
            assert phi(r) == phi_oracle(r), r


# 1/r as a minus continued fraction: a0, then pieces that are each one
# entry, up to 10**6, or a run of up to 3,000 2s (a large entry of the
# regular continued fraction)
CF_PIECES = st.lists(
    st.one_of(st.integers(2, 10**6).map(lambda a: [a]),
              st.integers(1, 3000).map(lambda k: [2] * k)),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**6), CF_PIECES)
@example(3, [[10**6]])
@example(3, [[10**6], [10**6]])
@example(3, [[2] * 10**5])
@example(2, [[2] * 5, [7], [2] * 3000, [10**6, 3]])
def test_block_sizes_follow_large_continued_fractions(a0, pieces):
    entries = (a0,) + tuple(a for piece in pieces for a in piece)
    x = cf_value(ContinuedFraction(entries))  # 1/r
    r = make_slope(x.den, x.num)
    s = make_slope(1, a0 - 1)
    assert signed_blocks(minimal_path(r, s)).sizes == _signed_sizes_from_cf(entries)
    assert count_tight(r, s) == phi(r) == phi_oracle(r) == math.prod(a - 1 for a in entries[1:])


def _texts(texts, a=0, b=None):
    """Texts a..b-1 of a ClassTexts, read through its groups."""
    b = len(texts) if b is None else b
    return [head + t for head, ts in texts.groups(a, b) for t in ts] if a < b else []


def _assert_class_columns(path, texts=True):
    """The closed forms of tori against one ShuffleClass per class."""
    classes = [ShuffleClass(path, counts) for counts in all_minus_counts(path)]
    column = feature_column(path)
    assert column == [P.features for P in classes]
    assert Counter(column) == feature_counts(path)
    if texts:
        minus = minus_texts(path, "]}")
        assert _texts(minus) == [_json_tail(P) for P in classes]
        assert _texts(decorated_texts(path, "\n")) == [str(P) + "\n" for P in classes]
        assert len(minus) == len(classes)


def _json_tail(P):
    # P.to_json()'s text after the unsigned first block's minus count
    minus = P.to_json()["minus"]
    return "".join(",%d" % c for c in minus[1:]) + "]}"


def test_class_columns_match_classes_exhaustive():
    # every reduced r in (0,1) with denominator at most 200; the texts,
    # which hold a path per class, up to denominator 100
    for q in range(2, 201):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                r = make_slope(p, q)
                _assert_class_columns(minimal_path(r, make_slope(1, (q - 1) // p)), q <= 100)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(2, 3000), st.lists(st.integers(2, 5), max_size=2),
       st.integers(0, 2))
@example(3, 3000, [], 0)  # one block of 2,998 edges
@example(4, 2000, [3, 3], 1)  # a long block between two short ones
@example(5, 2, [2, 2], 0)  # no signed block: one class
def test_class_columns_match_classes_on_large_blocks(a0, large, small, at):
    # 1/r = [a0, *entries], one large entry among small ones: the signed
    # blocks are the entries minus 2.  The texts hold a path per class,
    # so they are checked where that stays small.
    entries = (a0,) + tuple(small[:at]) + (large,) + tuple(small[at:])
    x = cf_value(ContinuedFraction(entries))
    r = make_slope(x.den, x.num)
    path = minimal_path(r, make_slope(1, a0 - 1))
    _assert_class_columns(path, phi(r) * len(path) <= 200_000)


def test_class_texts_slices():
    # slices of the product of heads and last texts, read through the
    # groups, against the list
    texts = ClassTexts(["a", "b", "c"], ["0", "1"])
    full = _texts(texts)
    assert full == ["a0", "a1", "b0", "b1", "c0", "c1"] and len(texts) == 6
    for lo in range(7):
        for hi in range(lo, 7):
            assert _texts(texts, lo, hi) == full[lo:hi], (lo, hi)
    path = minimal_path(S("1/3"), S("1/2"))  # one edge, no signed block
    assert _texts(minus_texts(path, "]}")) == ["]}"]
    assert _texts(decorated_texts(path)) == ["1/3 → 1/2"]
    path = minimal_path(S("-1/3"), S("inf"))  # across 0 and into inf
    assert _texts(decorated_texts(path)) == [str(P) for P in
                                          (ShuffleClass(path, c) for c in all_minus_counts(path))]


def test_class_texts_groups():
    # groups(a, b) gives classes a..b-1 as one (head, last slice) per head
    texts = ClassTexts(["a", "b", "c"], ["0", "1", "2"])
    full = [h + t for h in "abc" for t in "012"]
    for lo in range(9):
        for hi in range(lo + 1, 10):  # a < b, as the listings ask
            groups = list(texts.groups(lo, hi))
            assert [h + t for h, ts in groups for t in ts] == full[lo:hi], (lo, hi)
            assert [h for h, _ in groups] == list("abc"[lo // 3 : (hi + 2) // 3]), (lo, hi)


def test_class_texts_split_where_the_factors_balance():
    # the longer factor is as short as a split between blocks makes it,
    # in either order of a long and a short block: (1000, 1) splits
    # after its first block, where the tail (2) never reaches the head
    for entries, sizes, factors in [
        ((3, 3, 1002), (1000, 1), (1001, 2)),
        ((3, 1002, 3), (1, 1000), (2, 1001)),
        ((3, 3, 301, 301), (299, 299, 1), (300, 600)),
        ((3, 301, 301, 3), (1, 299, 299), (600, 300)),
        ((3, 101, 101), (99, 99), (100, 100)),
        ((3,), (), (1, 1)),
    ]:
        x = cf_value(ContinuedFraction(entries))
        path = minimal_path(make_slope(x.den, x.num), make_slope(1, 2))
        assert signed_blocks(path).sizes == sizes
        texts = minus_texts(path)
        assert (len(texts.heads), len(texts.last)) == factors, entries


def test_decorated_texts_made_when_read_match_kept_texts(monkeypatch):
    # with _KEPT_CHARS at 0 every signed block cuts its texts when read,
    # and each factor of ClassTexts that holds one makes its texts when
    # read: they equal str(P) for every class, and slices, groups and
    # the longest text, the last one, equal those of the kept texts;
    # the last text of minus_texts is a longest one too
    paths = []
    for entries in [(3,), (3, 3), (3, 5), (3, 5, 4, 6), (4, 2, 7, 2, 3), (3, 12, 2, 2, 9)]:
        x = cf_value(ContinuedFraction(entries))
        paths.append(minimal_path(make_slope(x.den, x.num), make_slope(1, entries[0] - 1)))
    paths.append(minimal_path(S("-1/3"), S("inf")))  # across 0 and into inf
    kept = [decorated_texts(path, "\n") for path in paths]
    monkeypatch.setattr(_output, "_KEPT_CHARS", 0)
    for path, want in zip(paths, kept):
        texts = decorated_texts(path, "\n")
        classes = [ShuffleClass(path, c) for c in all_minus_counts(path)]
        assert _texts(texts) == _texts(want) == [str(P) + "\n" for P in classes]
        assert texts.longest == want.longest == _texts(want)[-1]
        assert len(want.longest) == max(map(len, _texts(want)))
        minus = minus_texts(path, "]}")
        assert minus.longest == _texts(minus)[-1] and len(minus.longest) == max(map(len, _texts(minus)))
        n = len(texts)
        for a in range(n):
            for b in range(a + 1, n + 1):
                assert _texts(texts, a, b) == _texts(want, a, b), (a, b)
                assert list(texts.groups(a, b)) == list(want.groups(a, b)), (a, b)
    assert any(not isinstance(t.last, list) for t in map(decorated_texts, paths))


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


_SIGN = st.sampled_from((1, -1))


@st.composite
def lengthened_paths(draw):
    """A geodesic of at most 14 edges with random signs (a piece of the
    geodesic from some p/q in (0,1) to 1 or inf), lengthened by 0-6
    mediant insertions and sometimes re-signed at random."""
    q = draw(st.integers(2, 300))
    r = make_slope(draw(st.integers(1, q - 1)), q)
    full = minimal_path(r, draw(st.sampled_from((ONE, INF)))).vertices
    k = draw(st.integers(1, min(14, len(full) - 1)))
    a = draw(st.integers(0, len(full) - 1 - k))
    path = FareyPath(full[a : a + k + 1])
    assert minimal_path(path.start, path.end) == path
    d = DecoratedPath(path, tuple(draw(st.lists(_SIGN, min_size=k - 1, max_size=k - 1))))
    for _ in range(draw(st.integers(0, 6))):
        vs = d.path.vertices
        e = draw(st.integers(0, len(vs) - 2))
        d = lengthen_decorated(d, farey_sum(vs[e], vs[e + 1]))
    if draw(st.booleans()):
        m = len(d.signs)
        d = DecoratedPath(d.path, tuple(draw(st.lists(_SIGN, min_size=m, max_size=m))))
    return d


def _greedy_merges(path):
    """(vertices, i) before each merge that consistently_shorten's loop
    makes when no sign stops it: the leftmost removable vertex i first."""
    verts, i = list(path.vertices), 1
    while i < len(verts) - 1:
        if is_edge(verts[i - 1], verts[i + 1]):
            yield verts, i
            del verts[i]
            i = max(1, i - 1)
        else:
            i += 1


def test_consistently_shorten_matches_bfs():
    reached = Counter()

    @settings(max_examples=200, deadline=None)
    @given(lengthened_paths())
    def check(d):
        short, oracle = consistently_shorten(d), bfs_shorten(d)
        assert (short is None) == (oracle is None), d
        if short is None:
            reached["overtwisted"] += 1
        else:
            assert shuffle_canonical(short) == shuffle_canonical(oracle), d
            reached["tight"] += 1
        vs = d.path.vertices
        if len(vs) > 2 and is_edge(vs[0], vs[2]):
            reached["first edge merge"] += 1
        # the lemma of consistently_shorten, at every merge of its loop
        for verts, i in _greedy_merges(d.path):
            left = i > 2 and abs(det(verts[i - 2], verts[i])) == 2
            right = i > 1 and i + 2 < len(verts) and abs(det(verts[i], verts[i + 2])) == 2
            assert not (left and right), d
            if left:
                assert is_edge(verts[i - 2], verts[i + 1]), d
                reached["merge next to a long left block"] += 1
            if right:
                assert is_edge(verts[i - 1], verts[i + 2]), d
                reached["merge next to a long right block"] += 1

    check()
    assert reached["tight"] and reached["overtwisted"] and reached["first edge merge"], reached
    assert reached["merge next to a long left block"], reached
    assert reached["merge next to a long right block"], reached


@settings(max_examples=300, deadline=None)
@given(lengthened_paths(), st.integers(-40, 40))
def test_consistently_shorten_matches_shorten_oracle(d, a):
    # the loop on lifted vectors against the Slope-level loop it
    # replaced, also on paths translated by a into the negatives: the
    # same decorated path, or None for both
    vs = tuple(make_slope(v.num + a * v.den, v.den) for v in d.path.vertices)
    d = DecoratedPath(FareyPath(vs), d.signs)
    assert consistently_shorten(d) == shorten_oracle(d), d


@pytest.mark.parametrize(
    "verts, i, pivot",
    [
        (("-1", "0", "1/3", "1/2", "1"), 2, 1),  # right block 1/3 -> 1/2 -> 1 about 0
        (("0", "1", "2", "3", "inf"), 3, 4),  # left block 1 -> 2 -> 3 about inf
    ],
)
def test_consistently_shorten_next_to_long_block(verts, i, pivot):
    # i is the only removable vertex; the long block on one side of it
    # pivots about the vertex on the other side, so the block and the
    # edge across i end as one edge and only uniform signs are tight.
    # On the first path, (+, -, +) has a + in both blocks at 1/3 but
    # opposite signs on the two edges there: it is overtwisted.
    vs = tuple(S(v) for v in verts)
    path = FareyPath(vs)
    assert [j for j in range(1, 4) if is_edge(vs[j - 1], vs[j + 1])] == [i]
    far = i + 2 if pivot < i else i - 2  # the block's vertex two steps from i
    assert abs(det(vs[far], vs[i])) == 2 and is_edge(vs[far], vs[pivot])
    for signs in itertools.product((1, -1), repeat=3):
        d = DecoratedPath(path, signs)
        short, oracle = consistently_shorten(d), bfs_shorten(d)
        assert (short is None) == (oracle is None), signs
        assert (short is not None) == (len(set(signs)) == 1), signs
        if short is not None:
            assert short == oracle


def _spread_mediants(d, count):
    """Insert the mediants of count evenly spread edges of d's path."""
    vs, m = d.path.vertices, len(d.path)
    for k in range(1, count + 1):
        e = k * m // (count + 1)
        d = lengthen_decorated(d, farey_sum(vs[e], vs[e + 1]))
    return d


@pytest.mark.parametrize("n", [50, 20])
def test_consistently_shorten_long_path_with_mediants(n):
    # one signed block with alternating signs, so half of it is minus
    path = minimal_path(make_slope(1, n), make_slope(1, 2))
    d = DecoratedPath(path, tuple((-1) ** e for e in range(1, len(path))))
    longer = _spread_mediants(d, 8)
    assert len(longer.path) == len(path) + 8
    short = consistently_shorten(longer)
    assert short is not None
    assert short.path == path
    assert shuffle_canonical(short) == shuffle_canonical(d)
    assert shuffle_canonical(d).minus_counts == (len(path) // 2,)


def test_consistently_shorten_long_path_forced_opposite_merge():
    # all + before the fourth mediant vertex (inside edge 4 * 48 // 9)
    # and all - after it
    path = minimal_path(make_slope(1, 50), make_slope(1, 2))
    longer = _spread_mediants(DecoratedPath(path, (1,) * (len(path) - 1)), 8)
    vs = longer.path.vertices
    mid = vs.index(farey_sum(path.vertices[21], path.vertices[22]))
    assert is_edge(vs[mid - 1], vs[mid + 1])
    signs = tuple(1 if e < mid else -1 for e in range(1, len(longer.path)))
    assert consistently_shorten(DecoratedPath(longer.path, signs)) is None


@functools.cache
def _euler_box():
    """(path, its shuffle classes) for the minimal path of every ordered
    pair of distinct slopes in inf and the reduced n/d with 1 <= d <= 4
    and |n| <= 6: paths through inf, and from and to negative slopes."""
    box = [INF] + [make_slope(n, d) for d in range(1, 5) for n in range(-6, 7) if math.gcd(n, d) == 1]
    paths = [minimal_path(a, b) for a in box for b in box if a != b]
    return [(path, [ShuffleClass(path, c) for c in all_minus_counts(path)]) for path in paths]


def test_euler_class_tells_the_classes_apart():
    # Honda: the relative Euler class tells the tight structures on a
    # solid torus apart, so it takes count_tight(a, b) values on a path
    box = _euler_box()
    for path, classes in box:
        values = {euler_class(c) for c in classes}
        assert len(values) == len(classes) == count_tight(path.start, path.end), path
    assert (len(box), sum(len(classes) for _, classes in box)) == (1122, 5631)


def test_euler_class_changes_sign_under_conjugation():
    # conjugation flips every sign, so P-bar, with minus count size - c on
    # each signed block, has e(P-bar) = -e(P), and it maps the classes of
    # a path onto themselves
    for path, classes in _euler_box():
        sizes = path.signed_blocks.sizes
        values = Counter()
        for c in classes:
            ed, en = euler_class(c)
            bar = ShuffleClass(path, tuple(size - k for size, k in zip(sizes, c.minus_counts)))
            assert euler_class(bar) == (-ed, -en), (path, c)
            values[ed, en] += 1
            values[-ed, -en] -= 1
        assert not +values and not -values, path


def test_euler_class_is_unchanged_by_shuffles():
    # every edge of a block steps by the block's pivot, so e depends only
    # on the minus count per block: a random sign vector has the Euler
    # class of its shuffle class, which is the enumerated class with it
    rng = random.Random(2000)
    box = [(path, {euler_class(c): c.minus_counts for c in classes}, len(classes))
           for path, classes in _euler_box()]
    assert all(len(by_class) == n for _, by_class, n in box)
    for _ in range(3000):
        path, by_class, _ = rng.choice(box)
        d = DecoratedPath(path, tuple(rng.choice((1, -1)) for _ in range(len(path) - 1)))
        iso = shuffle_canonical(d)
        assert euler_class(d) == euler_class(iso), d
        assert by_class[euler_class(d)] == iso.minus_counts, d
