"""Cable surgeries as integer Mobius maps on slopes.

Surgery with coefficient one less than the cabling-torus framing on the
(p,q)-cable of a knot K is a surgery on K itself; on slopes it acts by
an explicit determinant-1 integer matrix fixing q/p.  Applying that map
to the meridian-side part of a decorated path realises Legendrian
surgery on the cable as a map of solid-torus structures.
"""

from __future__ import annotations

import math

from .slopes import DomainError, Slope, _Value, make_slope
from .paths import _lengthen_lift, _slope
from .tori import SolidTorusStructure, shuffle_canonical, _refined_signs, _shorten_lift


class MobiusMap(_Value):
    """Matrix [[a,b],[c,d]], determinant 1, acting on the vector
    (den,num) of a slope; the slope y/x maps to (c*x+d*y)/(a*x+b*y)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise DomainError("Mobius map must have determinant 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def apply(self, s: Slope) -> Slope:
        x, y = s.den, s.num
        return make_slope(self.c * x + self.d * y, self.a * x + self.b * y)

    def __pow__(self, k: int) -> "MobiusMap":
        """M**k = I + k*N for every integer k, where N = M - I.  With
        determinant 1 and trace 2, N*N = 0, so the binomial sum stops at
        its linear term."""
        if self.a + self.d != 2:
            raise DomainError("closed-form powers need a map of trace 2")
        return MobiusMap(1 + k * (self.a - 1), k * self.b, k * self.c, 1 + k * (self.d - 1))

    def to_json(self) -> dict:
        return {"m": [[self.a, self.b], [self.c, self.d]]}

    def __str__(self) -> str:
        return "[[%d,%d],[%d,%d]]" % (self.a, self.b, self.c, self.d)


def _check_cable(p: int, q: int, sign: int) -> None:
    if p < 2:
        raise DomainError("cabling requires p >= 2")
    if math.gcd(p, abs(q)) != 1:
        raise DomainError("cabling requires gcd(p,q) = 1")
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")


def cable_surgery_slope(p: int, q: int, sign: int) -> Slope:
    """Surgery coefficient on K matching the framing+-1 surgery on the
    (p,q)-cable: (pq + sign)/p**2."""
    _check_cable(p, q, sign)
    return make_slope(p * q + sign, p * p)


def reglue_map(p: int, q: int, sign: int) -> MobiusMap:
    """The re-gluing matrix of the framing+-sign surgery on the
    (p,q)-cable; determinant 1 and fixes the slope q/p."""
    _check_cable(p, q, sign)
    return MobiusMap(1 - sign * p * q, sign * p * p, -sign * q * q, 1 + sign * p * q)


def legendrian_cable_surgery(
    x: SolidTorusStructure, p: int, q: int, count: int
) -> SolidTorusStructure:
    """Result of count framing-minus-1 surgeries on the (p,q)-cable,
    performed inside the solid torus x.

    The path of x is lengthened through q/p if needed, the part between
    the meridian and q/p is pushed through M**count, M = reglue_map(p, q,
    -1) (signs carried along unchanged), and the composite is
    consistently shortened, all on the lift V_0, ..., V_m of the path in
    time linear in len.  The Slopes built are the new meridian and, to
    lengthen, one b/a.

    The image is a monotone lift.  M - I sends V to cross(V, (p, q)) *
    (p, q), so with P = V_j the lift of q/p, M**k V = V + k*cross(V, P)*P.
    A pushed V_i, i < j, has cross(V_i, P) > 0, so it moves into the cone
    (V_i, P), and P stays.  M has determinant 1, so each pushed edge
    keeps its cross of 1, and the edges from P on do not move: the image
    is one lift.  It is monotone when cross(M**k V_0, W) > 0 at every
    later image W (FareyPath.from_blocks, condition 3).  For a pushed W =
    M**k V_i it is cross(V_0, V_i) > 0, as det M = 1.  For W after P,
    with t = k*cross(V_0, P) > 0, it is cross(V_0 + t*P, W) = cross(V_0,
    W) + t*cross(P, W) > 0.

    No merge on a minimal path.  Put c_i = cross(V_i-1, V_i+1) at an
    interior vertex: _shorten_lift pops exactly at a c_i of 1, and a
    geodesic has every c_i >= 2.  Lengthening keeps that except at P,
    where c >= 1: the geodesics 0 -> b/a -> inf have it inside, the map
    onto the edge V_i -- V_i+1 keeps crosses, and the new neighbours
    h*V_i + V_i+1 and V_i + n*V_i+1 of V_i and V_i+1, the images of the
    first step 1/h and the last step n, h, n >= 1, raise c_i by h and
    c_i+1 by n.  The push keeps every cross but the one at P (if P is
    interior): with U and W its neighbours, cross(M**k U, W) =
    cross(U + k*P, W) = c_P + k >= 2.  So the stack pops nothing and the
    result has the image's len; only a path that is not minimal, which
    ShuffleClass accepts, can need a merge.
    """
    m = reglue_map(p, q, -1)
    if count < 1:
        raise DomainError("count must be a positive integer")
    if (x.meridian.den, x.meridian.num) == (p, q):
        raise DomainError("cabling slope coincides with the meridian")
    d = x.iso_class.canonical_decorated()
    vecs, signs = list(d.path._map_vertices(zip)), d.signs
    i = _lengthen_lift(vecs, p, q)  # None when q/p is a vertex already, or outside
    if i is not None:
        signs = _refined_signs(signs, i, len(vecs) - len(d.path))
    idx = next((j for j, (vd, vn) in enumerate(vecs) if vd * q == vn * p), None)  # +-(p, q)
    if idx is None:
        raise DomainError("cabling slope %d/%d is outside the interval (%s, %s)"
                          % (q, p, x.meridian, x.dividing))
    m = m ** count
    vecs[: idx + 1] = [(m.a * vd + m.b * vn, m.c * vd + m.d * vn) for vd, vn in vecs[: idx + 1]]
    meridian = _slope(*vecs[0])
    short = _shorten_lift(vecs, signs, meridian, x.dividing)
    if short is None:
        raise DomainError("surgered path did not shorten to a tight structure")
    return SolidTorusStructure(meridian, x.dividing, shuffle_canonical(short))
