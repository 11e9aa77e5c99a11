import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fareytight.slopes import DomainError, INF, ONE, ZERO, is_edge, make_slope, parse_slope
from fareytight.paths import minimal_path
from fareytight.tori import ShuffleClass, all_minus_counts, enumerate_tight, feature_counts, phi
from fareytight.tori import signed_blocks
from fareytight.atlas import (
    CITE_BASE_ROW,
    CITE_INTERIOR,
    CITE_N2_INTERVAL,
    CITE_N3_INTERVAL,
    CITE_WIDE_INTERVAL,
    Fillability,
    MixedTorus,
    TightStructureId,
    TrianglePosition,
    cell_tallies,
    classify,
    enumerate_structures,
    exceptional_members,
    exceptional_slopes,
    n_of,
    structure_cells,
    structure_record,
    triangle_position,
    verdict_summary,
    _BASE,
    _INTERIOR,
    _SIDE_HIGH,
    _SIDE_LOW,
    _TOP,
    _rule,
    _window,
)

from helpers import (
    classify_oracle,
    cw_contains_oracle,
    enumerated_tally,
    full_path,
    mixed_tori,
    neighbors_scan_oracle,
    random_unit_rational,
    sort_key_oracle,
    window_oracle,
)


def S(text):
    return parse_slope(text)


def class_of(r, counts):
    rr = S(r)
    return ShuffleClass(minimal_path(rr, make_slope(1, n_of(rr))), counts)


def sid_of(r, k, l, counts):
    return TightStructureId(S(r), k, l, class_of(r, counts))


def test_n_of_fixtures():
    assert n_of(S("9/25")) == 2
    assert n_of(S("13/49")) == 3
    assert n_of(S("7/32")) == 4
    assert n_of(S("1/3")) == 2  # 1/(n+1) <= r < 1/n puts 1/3 at n=2
    assert n_of(S("2/3")) == 1
    assert n_of(S("1/7")) == 6


def test_n_of_domain():
    for bad in (ZERO, ONE, INF, S("3/2"), S("-1/4")):
        with pytest.raises(DomainError):
            n_of(bad)


def test_structure_id_validation():
    with pytest.raises(DomainError):
        sid_of("9/25", 3, 0, (0,))  # k > n
    with pytest.raises(DomainError):
        sid_of("9/25", 1, 2, (0,))  # l > n - k
    with pytest.raises(DomainError):
        TightStructureId(S("9/25"), 1, 0, class_of("13/49", (0,)))


def test_enumerate_structures_counts():
    assert len(enumerate_structures(S("1/7"))) == 21  # n=6, phi=1
    assert len(enumerate_structures(S("9/25"))) == 12  # n=2, phi=4
    assert len(enumerate_structures(S("7/32"))) == 20  # n=4, phi=2
    assert len(enumerate_structures(S("13/49"))) == 24  # n=3, phi=4


def test_enumerate_structures_count_formula():
    rng = random.Random(2026)
    for _ in range(25):
        r = random_unit_rational(rng, 80)
        if r.num == 1:
            continue
        n = n_of(r)
        assert len(enumerate_structures(r)) == n * (n + 1) // 2 * phi(r), r


def test_enumerate_structures_ordering():
    sids = enumerate_structures(S("1/4"))  # n=3, phi=1, 6 entries
    assert [(s.k, s.l) for s in sids] == [
        (1, 0),
        (1, 1),
        (1, 2),
        (2, 0),
        (2, 1),
        (3, 0),
    ]


def test_triangle_position_fixtures():
    # n = 6 surgeries: r = 1/7
    def pos(k, l):
        return triangle_position(sid_of("1/7", k, l, ()))

    assert pos(1, 3).tag == "Base"
    assert pos(6, 0).tag == "Top"
    assert pos(3, 2).tag == "Interior"
    assert pos(3, 0) .tag == "Side" and pos(3, 0).side == "low"
    assert pos(3, 3).tag == "Side" and pos(3, 3).side == "high"
    assert pos(1, 0).tag == "Base"  # base beats side on the corner
    # five shared instances, hashed and compared by identity
    assert TrianglePosition.__hash__ is object.__hash__
    for n in range(1, 9):
        shared = set(map(id, TrianglePosition.cells(n)))
        for k, lo, hi, run_pos in TrianglePosition.runs(n):
            for l in range(lo, hi):
                assert TrianglePosition.of(n, k, l) is run_pos, (n, k, l)
                assert id(run_pos) in shared, (n, k, l)


def test_triangle_cells_match_positions():
    for n in range(1, 81):
        found = Counter(TrianglePosition.of(n, k, l) for k in range(1, n + 1) for l in range(n - k + 1))
        assert TrianglePosition.cells(n) == found, n
        assert sum(TrianglePosition.cells(n).values()) == n * (n + 1) // 2, n


def test_triangle_position_n1_is_base():
    p = triangle_position(sid_of("2/3", 1, 0, ()))
    assert p.tag == "Base"


def test_full_path_fixture_side():
    d = full_path(sid_of("1/4", 2, 1, ()))
    assert [str(v) for v in d.path.vertices] == ["1/4", "1/3", "1/2"]
    assert d.signs == (-1,)


def test_full_path_fixture_base():
    d = full_path(sid_of("1/4", 1, 2, ()))
    assert [str(v) for v in d.path.vertices] == ["1/4", "1/3", "1/2", "1"]
    assert d.signs == (-1, -1)


def test_full_path_fixture_top_with_P():
    d = full_path(sid_of("9/25", 2, 0, (0,)))
    assert [str(v) for v in d.path.vertices] == ["9/25", "4/11", "3/8", "2/5", "1/2"]
    assert d.signs == (1, 1, 1)


def test_full_path_fixture_mixed_tail():
    d = full_path(sid_of("13/49", 1, 1, (2,)))
    assert [str(v) for v in d.path.vertices] == [
        "13/49",
        "4/15",
        "3/11",
        "2/7",
        "1/3",
        "1/2",
        "1",
    ]
    # P contributes (+,-,-); tail of 2 edges gets first 1 plus, last 1 minus
    assert d.signs == (1, -1, -1, 1, -1)


def test_mixed_tori_in_block():
    tori = mixed_tori(sid_of("9/25", 2, 0, (1,)))
    assert [(str(t.s0), str(t.s1), str(t.s_neg1)) for t in tori] == [
        ("3/8", "4/11", "2/5"),
        ("2/5", "3/8", "1/2"),
    ]


def test_mixed_tori_uniform_is_empty():
    assert mixed_tori(sid_of("9/25", 2, 0, (0,))) == []
    assert mixed_tori(sid_of("9/25", 2, 0, (3,))) == []


def test_mixed_tori_in_merged_tail():
    # r=1/5, k=2, l=1: the two tail edges merge into one block carrying
    # a plus and a minus, so the interior vertex 1/3 is mixed
    tori = mixed_tori(sid_of("1/5", 2, 1, ()))
    assert [(str(t.s0), str(t.s1), str(t.s_neg1)) for t in tori] == [
        ("1/3", "1/4", "1/2")
    ]


def test_mixed_tori_junction_between_blocks():
    # 9/25 at k=1: P's block (edges into 1/2) abuts the single tail edge
    # (1/2 -> 1); opposite exposure at the junction vertex 1/2
    tori = mixed_tori(sid_of("9/25", 1, 1, (0,)))
    assert [(str(t.s0), str(t.s1), str(t.s_neg1)) for t in tori] == [
        ("1/2", "2/5", "1")
    ]
    tori = mixed_tori(sid_of("9/25", 1, 0, (3,)))
    assert [(str(t.s0), str(t.s1), str(t.s_neg1)) for t in tori] == [
        ("1/2", "2/5", "1")
    ]
    assert mixed_tori(sid_of("9/25", 1, 0, (0,))) == []
    assert mixed_tori(sid_of("9/25", 1, 1, (3,))) == []


def test_mixed_torus_validation():
    with pytest.raises(DomainError):
        MixedTorus(S("1/3"), S("1/5"), S("1/2"))


def test_exceptional_slopes_integer_reciprocal():
    # (1/k; 1/(k+1), 1/(k-1)) has the single exceptional slope 0
    for k in range(2, 9):
        t = MixedTorus(make_slope(1, k), make_slope(1, k + 1), make_slope(1, k - 1))
        assert exceptional_slopes(t) == frozenset({ZERO}), k
        assert exceptional_slopes(t, paper_mode=True) == frozenset({ZERO}), k


def test_exceptional_slopes_with_infinite_flank():
    t = MixedTorus(ONE, S("1/2"), INF)
    assert exceptional_slopes(t) == frozenset({ZERO})


def test_exceptional_slopes_mid_block_torus():
    t = MixedTorus(S("3/8"), S("4/11"), S("2/5"))
    assert exceptional_slopes(t) == frozenset({S("1/3")})
    assert exceptional_slopes(t, paper_mode=True) == frozenset({S("1/3")})


def test_exceptional_slopes_paper_mode_drops_zero():
    t = MixedTorus(S("1/4"), S("2/9"), S("1/3"))
    assert exceptional_slopes(t) == frozenset({ZERO, S("1/5")})
    assert exceptional_slopes(t, paper_mode=True) == frozenset({S("1/5")})


def test_exceptional_members_ascend_as_the_sorted_scan():
    # every s0 of the box of scripts/cli_digests.py (inf and num/den with
    # den <= 3, |num| <= 4) and ordered pair s1 != s_neg1 of its Farey
    # neighbours in the box (286 triples), and the --paper-mode pattern
    # for n = 2..6 in both orders, in both modes: the members of exceptional_members, range by range,
    # are the neighbours of s0 that a scan of a box finds in the arc
    # away from s0, sorted by the Fraction key, with paper mode's 0
    # dropped in the pattern.  No fan code is shared.
    box = [INF] + [make_slope(num, den) for den in range(1, 4) for num in range(-4, 5) if gcd(num, den) == 1]
    cases = [(s0, s1, s2) for s0 in box for s1 in box for s2 in box
             if s1 != s2 and is_edge(s0, s1) and is_edge(s0, s2)]
    for n in range(2, 7):
        ends = make_slope(2, 2 * n + 1), make_slope(1, n - 1)
        cases += [(make_slope(1, n), *ends), (make_slope(1, n), *ends[::-1])]
    through, dropped = set(), 0
    for s0, s1, s2 in cases:
        a, b = (s2, s1) if cw_contains_oracle(s0, s1, s2) else (s1, s2)
        scan = sorted(neighbors_scan_oracle(s0, a, b, 20), key=sort_key_oracle)
        pattern = s0.num == 1 and s0.den > 1 and {s1, s2} == {
            make_slope(2, 2 * s0.den + 1), make_slope(1, s0.den - 1)}
        for paper_mode in (False, True):
            (pd, pn), (ud, un), ranges = exceptional_members(MixedTorus(s0, s1, s2), paper_mode)
            got = [make_slope(un + j * pn, ud + j * pd) for r in ranges for j in r]
            want = [x for x in scan if not (paper_mode and pattern and x == ZERO)]
            assert got == want, (s0, s1, s2, paper_mode)
            assert len(ranges) <= 3 and all(max(abs(x.num), x.den) <= 10 for x in got)
            dropped += len(scan) - len(want)
        through |= {x for x in (ZERO, INF) if cw_contains_oracle(x, a, b)}
    assert (len(cases), dropped) == (286 + 10, 10)
    assert through == {ZERO, INF}


def test_classify_base_is_stein():
    v = classify(sid_of("9/25", 1, 0, (2,)))
    assert v.status is Fillability.STEIN
    assert v.cite == CITE_BASE_ROW
    v = classify(sid_of("2/3", 1, 0, ()))
    assert v.status is Fillability.STEIN


def test_classify_interior_not_exact():
    v = classify(sid_of("1/7", 3, 2, ()))
    assert v.status is Fillability.STRONG_NOT_EXACT
    assert v.cite == CITE_INTERIOR


def test_classify_n2_interval():
    assert classify(sid_of("9/25", 2, 0, (0,))).status is Fillability.STEIN
    assert classify(sid_of("9/25", 2, 0, (0,))).cite == CITE_N2_INTERVAL
    assert classify(sid_of("9/25", 2, 0, (3,))).status is Fillability.STEIN
    assert classify(sid_of("9/25", 2, 0, (1,))).status is Fillability.STRONG_NOT_EXACT
    assert classify(sid_of("9/25", 2, 0, (2,))).cite == CITE_N2_INTERVAL


def test_classify_n3_interval():
    # top row: uniform P Stein, mixed P strong-not-exact
    assert classify(sid_of("13/49", 3, 0, (0,))).status is Fillability.STEIN
    assert classify(sid_of("13/49", 3, 0, (1,))).status is Fillability.STRONG_NOT_EXACT
    assert classify(sid_of("13/49", 3, 0, (1,))).cite == CITE_N3_INTERVAL
    # side rows in that interval are Stein whatever P does
    assert classify(sid_of("13/49", 2, 0, (2,))).status is Fillability.STEIN
    assert classify(sid_of("13/49", 2, 1, (2,))).status is Fillability.STEIN


def test_classify_wide_interval_top():
    assert classify(sid_of("7/32", 4, 0, (0,))).status is Fillability.STEIN
    assert classify(sid_of("7/32", 4, 0, (0,))).cite == CITE_WIDE_INTERVAL


def test_classify_wide_interval_sides():
    # n=4, r=7/32 in [7/32, 2/9); P has one block of one edge
    stein_low = classify(sid_of("7/32", 3, 0, (0,)))
    assert stein_low.status is Fillability.STEIN
    cond_low = classify(sid_of("7/32", 3, 0, (1,)))
    assert cond_low.status is Fillability.STRONG_STEIN_CONDITIONAL
    assert cond_low.cite == CITE_WIDE_INTERVAL
    assert cond_low.note is not None and "1/5" in cond_low.note
    stein_high = classify(sid_of("7/32", 3, 1, (1,)))
    assert stein_high.status is Fillability.STEIN
    cond_high = classify(sid_of("7/32", 3, 1, (0,)))
    assert cond_high.status is Fillability.STRONG_STEIN_CONDITIONAL


def test_classify_wide_interval_interior():
    v = classify(sid_of("7/32", 2, 1, (0,)))
    assert v.status is Fillability.STRONG_NOT_EXACT
    assert v.cite == CITE_INTERIOR


def test_classify_uncovered():
    v = classify(sid_of("1/3", 2, 0, ()))  # r = 1/(n+1) misses every interval
    assert v.status is Fillability.NOT_COVERED
    assert v.cite is None
    # 7/20 has n=2 but sits below 9/25, outside both classified windows
    sids = [s for s in enumerate_structures(S("7/20")) if s.k == 2]
    assert sids and all(classify(s).status is Fillability.NOT_COVERED for s in sids)


def test_classify_n2_wide_interval_is_stein():
    # 5/13 lies in [3/8, 2/5); with n <= 3 the whole top is Stein there
    sids = [s for s in enumerate_structures(S("5/13")) if s.k == 2]
    for s in sids:
        v = classify(s)
        assert v.status is Fillability.STEIN
        assert v.cite == CITE_WIDE_INTERVAL


def test_verdict_summary_fixtures():
    assert verdict_summary(S("9/25")) == {
        Fillability.STEIN: 10,
        Fillability.STRONG_NOT_EXACT: 2,
    }
    assert verdict_summary(S("13/49")) == {
        Fillability.STEIN: 22,
        Fillability.STRONG_NOT_EXACT: 2,
    }
    assert verdict_summary(S("7/32")) == {
        Fillability.STEIN: 14,
        Fillability.STRONG_NOT_EXACT: 2,
        Fillability.STRONG_STEIN_CONDITIONAL: 4,
    }
    assert verdict_summary(S("22/61")) == {
        Fillability.STEIN: 18,
        Fillability.STRONG_NOT_EXACT: 6,
    }


# every reduced p/q in (0,1) with q <= 50
UNIT_RATIONALS_50 = [make_slope(p, q) for q in range(2, 51) for p in range(1, q) if gcd(p, q) == 1]


def assert_every_shape(rs):
    """The inputs reach every shape the aggregates treat apart: n = 1 to
    n >= 4, no signed blocks (phi = 1), one and several blocks, a last
    block of size 1 and of size >= 2, and every classified window."""
    shapes = set()
    for r in rs:
        n = n_of(r)
        sizes = signed_blocks(minimal_path(r, make_slope(1, n))).sizes
        shapes |= {("n", min(n, 4)), ("blocks", min(len(sizes), 2))}
        if sizes:
            shapes.add(("last", min(sizes[-1], 2)))
    assert shapes == {("n", 1), ("n", 2), ("n", 3), ("n", 4), ("blocks", 0), ("blocks", 1),
                      ("blocks", 2), ("last", 1), ("last", 2)}
    # Thm 1.4, Thm 1.5, Thm 1.3 for n = 2..5
    assert {S("9/25"), S("13/49"), S("3/8"), S("5/18"), S("7/32"), S("9/50")} <= set(rs)


def test_verdict_summary_matches_enumeration_exhaustive():
    assert_every_shape(UNIT_RATIONALS_50)
    for r in UNIT_RATIONALS_50:
        assert verdict_summary(r) == enumerated_tally(r), r


def test_classify_matches_oracle_exhaustive():
    assert_every_shape(UNIT_RATIONALS_50)
    for r in UNIT_RATIONALS_50:
        n, tallies = n_of(r), cell_tallies(r)
        cells = {}
        for sid in enumerate_structures(r):
            verdict = classify_oracle(sid)
            assert classify(sid) == verdict, (sid.r, sid.k, sid.l, sid.P.minus_counts)
            cells.setdefault((sid.k, sid.l), Counter())[verdict.status] += 1
        for (k, l), found in cells.items():
            assert tallies[TrianglePosition.of(n, k, l)] == found, (r, k, l)
        assert tallies.keys() == TrianglePosition.cells(n).keys(), r


def test_feature_counts_match_enumeration_exhaustive():
    assert_every_shape(UNIT_RATIONALS_50)
    for r in UNIT_RATIONALS_50:
        s = make_slope(1, n_of(r))
        path = minimal_path(r, s)
        found = Counter(c.iso_class.features for c in enumerate_tight(r, s))
        assert feature_counts(path) == found, r


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 150).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))))
@example((16, 73))  # Thm 1.3 window, n = 4, two signed blocks
@example((20, 111))  # Thm 1.3 window, n = 5, two signed blocks
@example((23, 105))  # Thm 1.3 window, n = 4, first of two blocks of size 2
@example((41, 187))  # Thm 1.3 window, n = 4, three signed blocks
@example((17, 47))  # Thm 1.4 window, last block of size 3
def test_verdict_summary_matches_enumeration(pq):
    assume(gcd(*pq) == 1)
    r = make_slope(*pq)
    assert verdict_summary(r) == enumerated_tally(r)


def test_verdict_summary_uncovered_slope():
    # base row still Stein; only the top of the n=2 triangle is uncovered
    assert verdict_summary(S("1/3")) == {
        Fillability.STEIN: 2,
        Fillability.NOT_COVERED: 1,
    }
    assert verdict_summary(S("7/20")) == {
        Fillability.STEIN: 12,
        Fillability.NOT_COVERED: 6,
    }


def test_structure_cells_match_enumeration(monkeypatch):
    import fareytight.atlas as atlas

    calls = Counter()
    rule = atlas._rule
    monkeypatch.setattr(atlas, "_rule", lambda *a: calls.update([a[2:]]) or rule(*a))
    for text in ("2/3", "1/3", "9/25", "13/49", "7/32", "41/187", "1/7"):
        r = S(text)
        calls.clear()
        path, verdicts, runs = structure_cells(r)
        classes = [ShuffleClass(path, counts) for counts in all_minus_counts(path)]
        walked = [(k, l, pos, P, verdicts[pos][P.features][0])
                  for k, lo, hi, pos in runs for l in range(lo, hi) for P in classes]
        # one rule evaluation per position and value of P's features
        assert set(calls.values()) == {1}, text
        assert set(calls) == {(pos, P.features) for _, _, pos, P, _ in walked}, text
        # each entry carries the number of classes with its features
        found = Counter(P.features for P in classes)
        for pos, entries in verdicts.items():
            assert {f: cnt for f, (_, cnt) in entries.items()} == found, (text, pos)
        listed = [(sid.k, sid.l, triangle_position(sid), sid.P, classify(sid))
                  for sid in enumerate_structures(r)]
        assert walked == listed, text


def test_verdict_summary_makes_each_fact_once(monkeypatch):
    import fareytight.atlas as atlas

    calls = Counter()
    for name in ("feature_counts", "minimal_path", "_window"):
        fn = getattr(atlas, name)
        monkeypatch.setattr(atlas, name, lambda *a, name=name, fn=fn: calls.update([name]) or fn(*a))
    for text in ("2/3", "1/3", "9/25", "13/49", "7/32", "41/187", "1/7"):
        calls.clear()
        verdict_summary(S(text))
        assert calls == {"feature_counts": 1, "minimal_path": 1, "_window": 1}, text


def test_window_matches_fraction_bounds():
    # every reduced p/q in (0,1) with q <= 400
    for q in range(2, 401):
        for p in range(1, q):
            if gcd(p, q) == 1:
                r = make_slope(p, q)
                n = n_of(r)
                assert _window(r, n) == window_oracle(r, n), r
    # both ends of every window: the left end inside, the right end outside
    for n in range(1, 201):
        ends = [(CITE_WIDE_INTERVAL, make_slope(2 * n - 1, 2 * n * n), make_slope(2, 2 * n + 1))]
        if n == 2:
            ends.append((CITE_N2_INTERVAL, S("9/25"), S("4/11")))
        if n == 3:
            ends.append((CITE_N3_INTERVAL, S("13/49"), S("4/15")))
        for cite, lo, hi in ends:
            assert _window(lo, n_of(lo)) == window_oracle(lo, n_of(lo)) == cite, (n, lo)
            assert _window(hi, n_of(hi)) == window_oracle(hi, n_of(hi)) != cite, (n, hi)


def test_triangle_runs_cover_the_cells():
    for n in range(1, 101):
        runs = list(TrianglePosition.runs(n))
        cells = [(k, l, pos) for k, lo, hi, pos in runs for l in range(lo, hi)]
        assert cells == [(k, l, TrianglePosition.of(n, k, l))
                         for k in range(1, n + 1) for l in range(n - k + 1)], n
        assert all(lo < hi for _, lo, hi, _ in runs), n
        assert max(Counter(k for k, _, _, _ in runs).values()) <= 3, n
        sizes = Counter()
        for _, lo, hi, pos in runs:
            sizes[pos] += hi - lo
        assert sizes == TrianglePosition.cells(n), n


def test_structure_cells_checks_r_before_the_first_cell():
    for text in ("0", "1", "3/2", "-1/3", "inf"):
        with pytest.raises(DomainError):
            structure_cells(S(text))  # raises without being iterated


def test_position_tallies():
    from collections import Counter

    rng = random.Random(510)
    for _ in range(10):
        r = random_unit_rational(rng, 60)
        if r.num == 1:
            continue
        n = n_of(r)
        f = phi(r)
        tally = Counter(triangle_position(s).tag for s in enumerate_structures(r))
        assert tally["Base"] == n * f
        assert tally["Top"] == (f if n > 1 else 0)
        if n >= 2:
            assert tally["Side"] == 2 * (n - 2) * f
            assert tally["Interior"] == (n - 3) * (n - 2) // 2 * f


def test_structure_record_shape():
    rec = structure_record(sid_of("7/32", 3, 0, (1,)))
    assert rec["r"] == "7/32"
    assert rec["k"] == 3 and rec["l"] == 0
    assert rec["position"] == "Side"
    assert rec["status"] == "StrongSteinConditional"
    assert rec["cite"] == CITE_WIDE_INTERVAL
    assert "note" in rec
    rec2 = structure_record(sid_of("9/25", 2, 0, (0,)))
    assert rec2["status"] == "Stein"
    assert rec2["position"] == "Top"
    assert "note" not in rec2
    assert rec2["P"] == {
        "path": ["9/25", "4/11", "3/8", "2/5", "1/2"],
        "blocks": [[1], [2, 3, 4]],
        "minus": [0, 0],
    }


def test_fillability_json_keys():
    assert Fillability.STEIN.json_key == "stein"
    assert Fillability.STRONG_NOT_EXACT.json_key == "strong_not_exact"
    assert Fillability.STRONG_STEIN_CONDITIONAL.json_key == "strong_stein_conditional"
    assert Fillability.NOT_COVERED.json_key == "not_covered_by_paper"
    assert Fillability.STEIN.value == "Stein"
    assert Fillability.NOT_COVERED.value == "NotCoveredByPaper"


def test_rule_commutes_with_conjugation():
    # conjugation flips the sign of every basic slice: it maps (k, l, P)
    # to (k, n-k-l, P-bar), which swaps Side low and Side high and the
    # features (u, a, b) to (u, b, a) of P-bar, and keeps the verdict,
    # cite and note; 4 windows x n in 1..6 x 5 positions x 8 triples
    conj = {_BASE: _BASE, _TOP: _TOP, _INTERIOR: _INTERIOR, _SIDE_LOW: _SIDE_HIGH, _SIDE_HIGH: _SIDE_LOW}
    cases = 0
    for window in (None, CITE_WIDE_INTERVAL, CITE_N2_INTERVAL, CITE_N3_INTERVAL):
        for n in range(1, 7):
            for pos in conj:
                for u, a, b in itertools.product((False, True), repeat=3):
                    v, w = _rule(window, n, pos, (u, a, b)), _rule(window, n, conj[pos], (u, b, a))
                    assert (v.status, v.cite, v.note) == (w.status, w.cite, w.note), (window, n, pos, u, a, b)
                    cases += 1
    assert cases == 960
    # and P -> P-bar is a bijection of the classes of a path that swaps
    # the two last-block flags: feature_counts gives (u, a, b) and
    # (u, b, a) the same count, on every path r -> 1/n with q <= 60
    for q in range(2, 61):
        for p in range(1, q):
            if gcd(p, q) == 1:
                r = make_slope(p, q)
                counts = feature_counts(minimal_path(r, make_slope(1, n_of(r))))
                for u, a, b in itertools.product((False, True), repeat=3):
                    assert counts.get((u, a, b), 0) == counts.get((u, b, a), 0), (r, u, a, b)


def test_classify_commutes_with_conjugation_on_every_structure():
    # (W, -J) fills -xi where (W, J) fills xi, and conjugation flips the
    # sign of every basic slice: (k, l, P) goes to (k, n-k-l, P-bar),
    # P-bar with minus count size - c on each signed block of size size
    # where P has c.  classify gives both the same status, cite and note,
    # on every structure of every reduced p/q with q <= 40
    structures = 0
    for q in range(2, 41):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            r = make_slope(p, q)
            n = n_of(r)
            for sid in enumerate_structures(r):
                sizes = signed_blocks(sid.P.path).sizes
                bar = ShuffleClass(sid.P.path, tuple(size - c for size, c in zip(sizes, sid.P.minus_counts)))
                v, w = classify(sid), classify(TightStructureId(r, sid.k, n - sid.k - sid.l, bar))
                assert (v.status, v.cite, v.note) == (w.status, w.cite, w.note), sid
                structures += 1
    assert structures == 17686  # the sum of n(n+1)/2 * phi(r) over these r
