"""The heterochaos baker maps on the square and the cube.

For an integer M >= 2 and parameters a, b in (0, 1/M), the 3D map has 2M
affine branches: M "alpha" branches on vertical strips of the x_u axis
(center coordinate contracts by 1/M, stable coordinate contracts by 1-Mb)
and M "beta" branches selected by the x_c strip (center expands by M,
stable contracts by b into disjoint slabs).  Lebesgue measure is preserved
exactly when a + b = 1/M.

Branch strips are half-open on the left, with the last strip closed at 1,
which makes classification total and deterministic.  All branch maps are
orientation-preserving and diagonal, so exact rational arithmetic commutes
with the geometry.

`domain_box` and `branch_affine` state that geometry once; the exact maps,
image boxes, inverse and tiling check read them.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .pcfun import ONE, ZERO, _at_least, frac


class BoundaryPoint(ValueError):
    """Raised by the inverse map on image-cell boundaries (a null set)."""


class NotMeasurePreserving(ValueError):
    """Raised by the routes defined only where a + b = 1/M."""


def check_seed(seed) -> int:
    """`seed` as an int, refused unless it is an integer in [0, 2^64), the
    range of the Philox key word it becomes."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def symbol_law(params: BakerParams) -> tuple[int, int, np.dtype]:
    """(p, q, dtype) of the exact branch-symbol law, a = p/q in lowest terms.

    U uniform on [0, q), drawn as `integers(0, q, dtype=dtype)`, gives the
    symbol min(U // p, M): each j < M has probability exactly p/q = a and
    the beta symbol M exactly 1 - Ma.  Refused with a ValueError naming a
    when q is 2^64 or more, past the widest integer numpy draws.
    """
    p, q = params.a.numerator, params.a.denominator
    if q >= 2 ** 64:
        raise ValueError(f"a = {params.a}: symbols are drawn as integers "
                         "in [0, q) for a = p/q, which needs q < 2^64")
    return p, q, np.min_scalar_type(q - 1)


class CenterType(enum.Enum):
    MOSTLY_EXPANDING = "mostly-expanding"
    MOSTLY_NEUTRAL = "mostly-neutral"
    MOSTLY_CONTRACTING = "mostly-contracting"


class Kind(enum.Enum):
    ALPHA = "alpha"
    BETA = "beta"


@dataclass(frozen=True)
class Symbol:
    kind: Kind
    k: int  # 1-based branch index in {1, ..., M}

    def __str__(self):
        return f"{self.kind.value}{self.k}"


@dataclass(frozen=True)
class BakerParams:
    M: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        _at_least(self.M, 2, "M")
        object.__setattr__(self, "a", frac(self.a))
        object.__setattr__(self, "b", frac(self.b))
        lim = Fraction(1, self.M)
        if not (0 < self.a < lim and 0 < self.b < lim):
            raise ValueError(f"a and b must lie in (0, 1/{self.M})")

    @property
    def is_measure_preserving(self) -> bool:
        return self.a + self.b == Fraction(1, self.M)

    def require_measure_preserving(self, what: str) -> None:
        """Raise NotMeasurePreserving off a + b = 1/M, naming `what`."""
        if not self.is_measure_preserving:
            raise NotMeasurePreserving(f"{what} needs a + b = 1/M = 1/{self.M}"
                                       f", got a + b = {self.a + self.b}")

    @property
    def center_type(self) -> CenterType:
        half = Fraction(1, 2 * self.M)
        if self.a < half:
            return CenterType.MOSTLY_EXPANDING
        if self.a == half:
            return CenterType.MOSTLY_NEUTRAL
        return CenterType.MOSTLY_CONTRACTING

    @staticmethod
    def neutral(M: int = 2) -> "BakerParams":
        h = Fraction(1, 2 * M)
        return BakerParams(M, h, h)


def _check_in_cube(p) -> None:
    """Refuse a point outside [0,1]^3, naming its first coordinate outside."""
    for name, x in zip(("x_u", "x_c", "x_s"), p):
        if not 0 <= x <= 1:
            raise ValueError(f"point outside the cube: {name} = {x} is not "
                             "in [0, 1]")


# ---------------------------------------------------------------------------
# branch geometry: the one table, `domain_box` and `branch_affine`

Box = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction],
            tuple[Fraction, Fraction]]


def all_symbols(params: BakerParams) -> list[Symbol]:
    return ([Symbol(Kind.ALPHA, k) for k in range(1, params.M + 1)] +
            [Symbol(Kind.BETA, k) for k in range(1, params.M + 1)])


def domain_box(params: BakerParams, sym: Symbol) -> Box:
    """The box of the cube on which the branch acts, per axis (lo, hi)."""
    M, a = params.M, params.a
    if sym.kind is Kind.ALPHA:
        return (((sym.k - 1) * a, sym.k * a), (ZERO, ONE), (ZERO, ONE))
    return ((M * a, ONE),
            (Fraction(sym.k - 1, M), Fraction(sym.k, M)),
            (ZERO, ONE))


def image_box(params: BakerParams, sym: Symbol) -> Box:
    """The branch's domain box mapped by its affine maps; all slopes are
    positive, so the ends stay in order."""
    return tuple((m * lo + c, m * hi + c) for (lo, hi), (m, c) in
                 zip(domain_box(params, sym), branch_affine(params, sym)))


def branch_affine(params: BakerParams, sym: Symbol):
    """Per-axis (slope, offset) of the branch map; all slopes positive."""
    M, a, b = params.M, params.a, params.b
    if sym.kind is Kind.ALPHA:
        return ((1 / a, -(sym.k - 1)),                     # x_u
                (Fraction(1, M), Fraction(sym.k - 1, M)),  # x_c
                (1 - M * b, ZERO))                         # x_s
    return ((1 / (1 - M * a), -(M * a) / (1 - M * a)),
            (Fraction(M), Fraction(1 - sym.k)),
            (b, 1 + b * (sym.k - M - 1)))


@lru_cache(maxsize=64)
def branch_affines(params: BakerParams) -> MappingProxyType:
    """{(kind, k): branch_affine(params, symbol)} for every branch, built
    once per parameter set; read-only, since every caller shares it."""
    return MappingProxyType({(s.kind, s.k): branch_affine(params, s)
                             for s in all_symbols(params)})


def classify(params: BakerParams, p) -> Symbol:
    """The unique branch symbol whose domain contains p in [0,1]^3."""
    xu, xc, xs = frac(p[0]), frac(p[1]), frac(p[2])
    _check_in_cube((xu, xc, xs))
    M, a = params.M, params.a
    if xu < M * a:
        return Symbol(Kind.ALPHA, int(xu / a) + 1)
    k = min(int(xc * M) + 1, M)  # last beta strip closed at x_c = 1
    return Symbol(Kind.BETA, k)


def apply_f3(params: BakerParams, p):
    """One step of the 3D map on (x_u, x_c, x_s): x -> m x + c per axis,
    with the (m, c) of the branch whose domain holds p."""
    p = tuple(map(frac, p))
    return tuple(m * x + c for x, (m, c) in
                 zip(p, branch_affine(params, classify(params, p))))


def apply_f2(params: BakerParams, p):
    """One step of the 2D map on (x_u, x_c): the first two coordinates of
    the 3D map, which do not depend on x_s."""
    return apply_f3(params, (p[0], p[1], ZERO))[:2]


def apply_tau(params: BakerParams, xu):
    """The piecewise-affine expanding factor map on [0,1]: the first
    coordinate of the 3D map."""
    return apply_f3(params, (xu, ZERO, ZERO))[0]


def apply_f3_inverse(params: BakerParams, p):
    """The a.e. inverse of the 3D map; refused off a + b = 1/M.

    The branch is the one whose closed image box holds the point, and each
    axis is mapped back by y -> (y - c) / m.  Raises BoundaryPoint where
    more than one closed image box holds it: on an internal boundary of
    the image tiling, where two preimages collide.  Scans all 2M branches.
    """
    params.require_measure_preserving("the inverse map")
    p = tuple(map(frac, p))
    _check_in_cube(p)
    hits = [s for s in all_symbols(params)
            if all(lo <= y <= hi for y, (lo, hi) in
                   zip(p, image_box(params, s)))]
    if len(hits) > 1:
        raise BoundaryPoint(f"({', '.join(map(str, p))}) lies on the "
                            f"boundary of the images of "
                            f"{' and '.join(map(str, hits))}")
    return tuple((y - c) / m for y, (m, c) in
                 zip(p, branch_affine(params, hits[0])))


def orbit(params: BakerParams, p, n: int, exact: bool = False) -> list:
    """[p, f(p), ..., f^n(p)].

    Exact mode keeps rationals and is the reference for short orbits.  The
    float mode is fast but inherits the usual caveat of binary arithmetic on
    piecewise-dyadic maps: when 1/a is a power of two the expanding
    coordinate sheds mantissa bits and long orbits degenerate; use the
    statistical samplers in `correlation` for distribution-level work.
    """
    _at_least(n, 0, "n")
    if exact:
        pts = [(frac(p[0]), frac(p[1]), frac(p[2]))]
        _check_in_cube(pts[0])
        for _ in range(n):
            pts.append(apply_f3(params, pts[-1]))
        return pts
    M = params.M
    a, b = float(params.a), float(params.b)
    Ma, Mb = M * a, M * b
    _check_in_cube(p)  # before float(), which overflows past 2^1024
    xu, xc, xs = float(p[0]), float(p[1]), float(p[2])
    pts = [(xu, xc, xs)]
    for _ in range(n):
        if xu < Ma:
            k = min(int(xu / a), M - 1)  # 0-based
            xu = (xu - k * a) / a
            xc = xc / M + k / M
            xs = (1.0 - Mb) * xs
        else:
            k = min(int(xc * M), M - 1)
            xu = (xu - Ma) / (1.0 - Ma)
            xc = M * xc - k
            xs = b * xs + 1.0 + b * (k + 1 - M - 1)
        # clamp <= 1 ulp drift; keeps the loop branch-free elsewhere
        xu = min(max(xu, 0.0), 1.0)
        xc = min(max(xc, 0.0), 1.0)
        xs = min(max(xs, 0.0), 1.0)
        pts.append((xu, xc, xs))
    return pts


def itinerary_stats(params: BakerParams, p=None, n: int = 10 ** 6,
                    seed: int | None = None) -> float:
    """Fraction of the first n steps spent in the alpha strips.

    With an explicit point the orbit is iterated directly (exact rationals
    when the point is rational and small n, floats otherwise).  With
    p=None a Lebesgue-random point is simulated through its branch
    itinerary, which for tau is an i.i.d. sequence (each alpha strip has
    probability a, the beta interval 1 - Ma, drawn by `symbol_law`); this
    is the faithful way to sample long orbits of maps whose float
    iteration degenerates.  n must be at least 1.
    """
    _at_least(n, 1, "n")
    M, a = params.M, float(params.a)
    if p is None:
        key = 0 if seed is None else check_seed(seed)
        ap, q, dtype = symbol_law(params)
        rng = np.random.Generator(np.random.Philox(key=key))
        hits = 0
        remaining = n
        while remaining:
            block = min(remaining, 1 << 22)
            # symbol < M, that is U < M p
            hits += int((rng.integers(0, q, size=block, dtype=dtype)
                         < M * ap).sum())
            remaining -= block
        return hits / n
    pts = orbit(params, p, n - 1)
    Ma = M * a
    return sum(1 for q in pts if q[0] < Ma) / n


# ---------------------------------------------------------------------------
# exact tiling check

def _box_volume(box: Box) -> Fraction:
    v = ONE
    for lo, hi in box:
        v *= hi - lo
    return v


def tiling_report(params: BakerParams) -> dict:
    """Exact image-tiling and volume-preservation check.

    The 2M image boxes always tile the cube (the map is a.e. invertible for
    every parameter pair); per-branch volume preservation holds iff
    a + b = 1/M, so `passed` is the exact measure-preservation test.
    """
    syms = all_symbols(params)
    images = [image_box(params, s) for s in syms]
    total = sum((_box_volume(ib) for ib in images), ZERO)

    def overlap(b1: Box, b2: Box) -> bool:
        return all(max(l1, l2) < min(h1, h2)
                   for (l1, h1), (l2, h2) in zip(b1, b2))

    disjoint = not any(overlap(images[i], images[j])
                       for i in range(len(images)) for j in range(i + 1, len(images)))
    volume_match = all(_box_volume(img) == _box_volume(domain_box(params, s))
                       for s, img in zip(syms, images))
    return {
        "images_disjoint": disjoint,
        "total_image_volume": total,
        "per_branch_volume_preserved": volume_match,
        "passed": disjoint and total == 1 and volume_match,
    }
