"""Cable surgeries as integer Mobius maps on slopes.

Surgery with coefficient one less than the cabling-torus framing on the
(p,q)-cable of a knot K is a surgery on K itself; on slopes it acts by
an explicit determinant-1 integer matrix fixing q/p.  Applying that map
to the meridian-side part of a decorated path realises Legendrian
surgery on the cable as a map of solid-torus structures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .slopes import DomainError, Slope, make_slope
from .paths import FareyPath, _lengthen_lift, _slope
from .tori import SolidTorusStructure, shuffle_canonical, _refined_signs, _shorten_lift


@dataclass(frozen=True)
class MobiusMap:
    """Matrix [[a,b],[c,d]], determinant 1, acting on the vector
    (den,num) of a slope; the slope y/x maps to (c*x+d*y)/(a*x+b*y)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise DomainError("Mobius map must have determinant 1")

    def apply(self, s: Slope) -> Slope:
        x, y = s.den, s.num
        return make_slope(self.c * x + self.d * y, self.a * x + self.b * y)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other (matrix product self * other)."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

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


IDENTITY = MobiusMap(1, 0, 0, 1)


def _check_cable(p: int, q: int) -> None:
    if p < 2:
        raise DomainError("cabling requires p >= 2")
    if math.gcd(p, abs(q)) != 1:
        raise DomainError("cabling requires gcd(p,q) = 1")


def cable_surgery_slope(p: int, q: int, sign: int) -> Slope:
    """Surgery coefficient on K matching the framing+-1 surgery on the
    (p,q)-cable: (pq + sign)/p**2."""
    _check_cable(p, q)
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    return make_slope(p * q + sign, p * p)


def reglue_map(p: int, q: int, sign: int) -> MobiusMap:
    """The re-gluing matrix of the framing+-sign surgery on the
    (p,q)-cable; determinant 1 and fixes the slope q/p."""
    _check_cable(p, q)
    if sign == 1:
        return MobiusMap(1 - p * q, p * p, -q * q, 1 + p * q)
    if sign == -1:
        return MobiusMap(1 + p * q, -p * p, q * q, 1 - p * q)
    raise DomainError("sign must be +1 or -1")


def legendrian_cable_surgery(
    x: SolidTorusStructure, p: int, q: int, count: int
) -> SolidTorusStructure:
    """Result of count framing-minus-1 surgeries on the (p,q)-cable,
    performed inside the solid torus x.

    The path of x is lengthened through q/p if needed, the part between
    the meridian and q/p is pushed through reglue_map(p,q,-1)**count
    (signs carried along unchanged), and the composite is consistently
    shortened, all on the lift of the path in time linear in len.  The
    map has determinant 1 and fixes (p, q), so the image is one lift
    again, a monotone path exactly when cross(V_0, V) > 0 at every later
    V.  The Slopes built are the new meridian and, to lengthen, one b/a.
    Observed, not proved, on a grid (meridians inf, 0, 1/3, -2; dividing
    slopes num/den with |num| <= 15, den <= 7; every class; p <= 5, |q|
    <= 12; counts 1, 2, 7): no image turned back or failed to shorten,
    and no successful one needed a merge.
    """
    _check_cable(p, q)
    if count < 1:
        raise DomainError("count must be a positive integer")
    if (x.meridian.den, x.meridian.num) == (p, q):
        raise DomainError("cabling slope coincides with the meridian")
    d = x.iso_class.canonical_decorated()
    vecs, signs = list(d.path._map_vertices(zip)), d.signs
    if (p, q) not in vecs and (-p, -q) not in vecs:
        i = _lengthen_lift(vecs, p, q)
        if i is None:
            raise DomainError("cabling slope %d/%d is outside the interval (%s, %s)"
                              % (q, p, x.meridian, x.dividing))
        signs = _refined_signs(signs, i, len(vecs) - len(d.path))
    idx = vecs.index((p, q) if (p, q) in vecs else (-p, -q))
    m = reglue_map(p, q, -1) ** count
    vecs[: idx + 1] = [(m.a * vd + m.b * vn, m.c * vd + m.d * vn) for vd, vn in vecs[: idx + 1]]
    ad, an = vecs[0]
    if any(ad * vn - an * vd <= 0 for vd, vn in vecs[1:]):
        FareyPath(tuple(_slope(vd, vn) for vd, vn in vecs))  # raises as the path of the slopes did
    meridian = _slope(ad, an)
    short = _shorten_lift(vecs, signs, meridian, x.dividing)
    if short is None:
        raise DomainError("surgered path did not shorten to a tight structure")
    return SolidTorusStructure(meridian, x.dividing, shuffle_canonical(short))
