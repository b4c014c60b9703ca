"""Exact piecewise-constant function algebra with rational breakpoints.

Functions live on [0,1] (or [0,1]^2, [0,1]^3 as products of axis grids).
Cells are half-open [b_i, b_{i+1}) with the last cell closed at 1; point
evaluation at a breakpoint returns the right-hand cell's value.  All
breakpoints and values are `fractions.Fraction`, so every operation here
is exact.  Floats only enter through the Monte Carlo fast paths elsewhere.

There is one product-grid core, `_ProductGrid`: `PCFun1D`, `PCFun2D` and
`PCFun3D` only name their axes (`(breakpoints,)`, `(bps_x, bps_y)`,
`(bps_u, bps_c, bps_s)`), and point evaluation, `on_grid`, `equals`,
`simplify`, `+`, `-`, scalar `*`, `integral` and `l1_norm` are written once
for d axes over values nested one tuple level per axis.  Every weighted
cell sum is one axis contraction, `_contract`: the value tensor against
one weight vector per axis (cell widths, first moments, box overlaps),
with `None` for an axis that is kept.  It sums one axis at a time, so it
takes about one Fraction product per cell.

`PAFun1D` is the one-dimensional piecewise-*affine* sibling used as an
independent grid oracle for affine observables like x - 1/2; it shares the
breakpoint conventions.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import add, mul, sub
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    pass


class NotMAdic(ValueError):
    pass


class NotInKLevel(ValueError):
    """Function is not measurable w.r.t. the requested uniform partition."""


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction (exact)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def _check_breakpoints(bps: Sequence[Fraction]) -> None:
    if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
        raise ValueError("breakpoints must start at 0 and end at 1")
    for a, b in zip(bps, bps[1:]):
        if not a < b:
            raise ValueError("breakpoints must be strictly increasing")


def _cell_index(bps: Sequence[Fraction], x: Fraction) -> int:
    # right-hand cell convention; x == 1 belongs to the last cell
    if x >= 1:
        return len(bps) - 2
    return bisect_right(bps, x) - 1


def merge_breakpoints(*lists: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sorted(set().union(*map(set, lists))))


# ---------------------------------------------------------------------------
# the product-grid core: nested value tuples, one level per axis

def _widths(bps: Sequence[Fraction]) -> list[Fraction]:
    """Cell widths b1 - b0: the weights of an integral along an axis."""
    return [b - a for a, b in zip(bps, bps[1:])]


def _moments(bps: Sequence[Fraction]) -> list[Fraction]:
    """First moments (b1^2 - b0^2)/2: the integrals of x over the cells."""
    return [(b * b - a * a) / 2 for a, b in zip(bps, bps[1:])]


def _contract(values, weights: Sequence):
    """Sum a nested value tensor against one weight vector per axis.

    An axis whose weight is None is kept: the result is a Fraction when
    every axis is summed, else a nested tuple over the kept axes.  Slices
    of weight zero are skipped.
    """
    w, *rest = weights
    if w is None:
        return tuple(_contract(v, rest) for v in values) if rest else values
    rows, xs = zip(*[(v, x) for v, x in zip(values, w) if x])
    return _weighted_sum([_contract(v, rest) for v in rows] if rest else rows,
                         xs)


def _weighted_sum(rows: Sequence, xs: Sequence):
    """sum of x * row over the rows, entrywise when the rows are tuples."""
    if isinstance(rows[0], tuple):
        return tuple(_weighted_sum(col, xs) for col in zip(*rows))
    return sum(map(mul, rows, xs), ZERO)


def _map(fn, depth: int, *tensors):
    """fn applied cell by cell to nested value tensors of the same shape."""
    if depth == 1:
        return tuple(map(fn, *tensors))
    return tuple(_map(fn, depth - 1, *ts) for ts in zip(*tensors))


def _gather(values, index: Sequence):
    """The cells of `values` picked by one index list per axis."""
    head, *rest = index
    if not rest:
        return tuple(values[i] for i in head)
    return tuple(_gather(values[i], rest) for i in head)


def _has_shape(values, shape: Sequence[int]) -> bool:
    n, *rest = shape
    return len(values) == n and (
        not rest or all(_has_shape(v, rest) for v in values))


def _nested_tuple(values, depth: int):
    if depth == 0:
        return frac(values)
    return tuple(_nested_tuple(v, depth - 1) for v in values)


class _ProductGrid:
    """A piecewise-constant function on the product of its axis grids.

    Subclasses are frozen dataclasses whose fields are the axis grids, named
    in `_AXES`, followed by `values`, nested one tuple level per axis.
    """

    _AXES: tuple[str, ...] = ()

    def __post_init__(self):
        for bps in self.axes:
            _check_breakpoints(bps)
        if not _has_shape(self.values, [len(b) - 1 for b in self.axes]):
            raise ValueError("value tensor shape does not match the grid")

    @property
    def axes(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(getattr(self, name) for name in self._AXES)

    @classmethod
    def _build(cls, axes, values):
        return cls(*(tuple(frac(b) for b in bps) for bps in axes),
                   _nested_tuple(values, len(axes)))

    @classmethod
    def constant(cls, c):
        value = frac(c)
        for _ in cls._AXES:
            value = (value,)
        return cls(*[(ZERO, ONE)] * len(cls._AXES), value)

    def __call__(self, *point) -> Fraction:
        if len(point) != len(self._AXES):
            raise TypeError(f"{type(self).__name__} takes {len(self._AXES)} "
                            f"coordinates, got {len(point)}")
        v = self.values
        for bps, x in zip(self.axes, point):
            v = v[_cell_index(bps, frac(x))]
        return v

    def on_grid(self, *grids):
        """Cell values on grids (one per axis) that refine this function's."""
        return _gather(self.values, [
            range(len(bps) - 1) if grid == bps else
            [_cell_index(bps, (a + b) / 2) for a, b in zip(grid, grid[1:])]
            for bps, grid in zip(self.axes, grids)])

    def _common(self, other):
        """The common refinement of both grids, and both value tensors on it."""
        if type(other) is not type(self):
            raise DimensionMismatch(f"cannot combine {type(self).__name__} "
                                    f"with {type(other).__name__}")
        axes = tuple(map(merge_breakpoints, self.axes, other.axes))
        return axes, self.on_grid(*axes), other.on_grid(*axes)

    def equals(self, other) -> bool:
        _, a, b = self._common(other)
        return a == b

    def simplify(self):
        """Drop grid lines across which all values agree (canonical form);
        iterated pushforwards otherwise accumulate redundant breakpoints."""
        axes, vals = self.axes, self.values
        for d, bps in enumerate(axes):
            index = [range(len(b) - 1) for b in axes]
            # the slices along axis d, each one cell thick
            cells = vals if d == 0 else [
                _gather(vals, [*index[:d], [i], *index[d + 1:]])
                for i in index[d]]
            index[d] = [0] + [i for i in index[d][1:]
                              if cells[i] != cells[i - 1]]
            vals = _gather(vals, index)
            axes = (*axes[:d], (*(bps[i] for i in index[d]), bps[-1]),
                    *axes[d + 1:])
        return type(self)(*axes, vals)

    def _combine(self, op, other):
        axes, a, b = self._common(other)
        return type(self)(*axes, _map(op, len(axes), a, b))

    def __add__(self, other):
        return self._combine(add, other)

    def __sub__(self, other):
        return self._combine(sub, other)

    def __mul__(self, scalar):
        values = _map(partial(mul, frac(scalar)), len(self._AXES), self.values)
        return type(self)(*self.axes, values)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def integral(self) -> Fraction:
        return _contract(self.values, [_widths(b) for b in self.axes])

    def l1_norm(self) -> Fraction:
        return _contract(_map(abs, len(self._AXES), self.values),
                         [_widths(b) for b in self.axes])


@dataclass(frozen=True)
class PCFun1D(_ProductGrid):
    """Piecewise-constant function on [0,1]: values[i] on [bps[i], bps[i+1])."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    _AXES = ("breakpoints",)

    @staticmethod
    def build(breakpoints: Iterable, values: Iterable) -> "PCFun1D":
        return PCFun1D._build((breakpoints,), values)

    @staticmethod
    def zero() -> "PCFun1D":
        return PCFun1D.constant(0)

    @staticmethod
    def uniform(values: Iterable) -> "PCFun1D":
        vals = tuple(frac(v) for v in values)
        n = len(vals)
        return PCFun1D(tuple(Fraction(i, n) for i in range(n + 1)), vals)

    def refine(self, extra: Iterable) -> "PCFun1D":
        """Same function on a finer grid; inner products are invariant."""
        bps = merge_breakpoints(self.breakpoints,
                                [frac(b) for b in extra if 0 <= frac(b) <= 1])
        return PCFun1D(bps, self.on_grid(bps))

    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.values)

    def is_uniform_level(self, base: int) -> int | None:
        """Return L if the grid is exactly the uniform base**L grid, else None."""
        n = len(self.values)
        L, m = 0, 1
        while m < n:
            m *= base
            L += 1
        if m != n:
            return None
        expected = tuple(Fraction(i, n) for i in range(n + 1))
        return L if self.breakpoints == expected else None


def _pair(f: _ProductGrid, g: _ProductGrid) -> Fraction:
    """<f, g>: the product on the common refinement, contracted against the
    cell widths."""
    axes, a, b = f._common(g)
    return _contract(_map(mul, len(axes), a, b), [_widths(x) for x in axes])


def inner_product(f: PCFun1D, g: PCFun1D) -> Fraction:
    """Exact Lebesgue inner product via the common refinement."""
    if not isinstance(f, PCFun1D) or not isinstance(g, PCFun1D):
        raise DimensionMismatch("inner_product pairs one-dimensional PC "
                                "functions; use the _2d/_3d variants")
    return _pair(f, g)


def mean(f: PCFun1D) -> Fraction:
    return f.integral()


def project_zero_mean(f: PCFun1D) -> PCFun1D:
    m = mean(f)
    return PCFun1D(f.breakpoints, tuple(v - m for v in f.values))


def axpy(scalar, f: PCFun1D, g: PCFun1D) -> PCFun1D:
    """scalar * f + g, exact; operands of different dimension raise
    DimensionMismatch."""
    return f * scalar + g


def from_affine(slope, intercept, level: int, base: int = 2) -> PCFun1D:
    """Cell averages of slope*x + intercept on the uniform base**level grid."""
    m, c = frac(slope), frac(intercept)
    n = base ** level
    vals = []
    for i in range(n):
        lo, hi = Fraction(i, n), Fraction(i + 1, n)
        vals.append(m * (lo + hi) / 2 + c)
    return PCFun1D.uniform(vals)


def restrict_to_m_adic(f: PCFun1D, base: int, level: int) -> tuple[Fraction, ...]:
    """Values of f on the uniform base**level grid, or raise NotInKLevel.

    Requires f to be constant on every cell of that partition.
    """
    n = base ** level
    grid = tuple(Fraction(i, n) for i in range(n + 1))
    for b in f.simplify().breakpoints:
        if (b * n).denominator != 1:
            raise NotInKLevel(f"breakpoint {b} is not {base}-adic at level {level}")
    return f.on_grid(grid)


def osc_norm_star(f: PCFun1D, M: int, level: int) -> Fraction:
    """Max over level-(level-1) cells of the oscillation (sup - inf) of f.

    f must be measurable w.r.t. the uniform M**level partition.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    vals = restrict_to_m_adic(f, M, level)
    best = ZERO
    for i in range(M ** (level - 1)):
        block = vals[i * M:(i + 1) * M]
        best = max(best, max(block) - min(block))
    return best


# ---------------------------------------------------------------------------
# product grids in 2D / 3D

@dataclass(frozen=True)
class PCFun2D(_ProductGrid):
    """Piecewise-constant on [0,1]^2 over a product grid (axes: x_u, x_s)."""

    bps_x: tuple[Fraction, ...]
    bps_y: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]  # values[i][j] on cell i of x, j of y

    _AXES = ("bps_x", "bps_y")

    @staticmethod
    def build(bps_x, bps_y, values) -> "PCFun2D":
        return PCFun2D._build((bps_x, bps_y), values)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.values for v in row)


@dataclass(frozen=True)
class PCFun3D(_ProductGrid):
    """Piecewise-constant on [0,1]^3 over a product grid (axes: x_u, x_c, x_s)."""

    bps_u: tuple[Fraction, ...]
    bps_c: tuple[Fraction, ...]
    bps_s: tuple[Fraction, ...]
    values: tuple  # values[i][j][k]

    _AXES = ("bps_u", "bps_c", "bps_s")

    @staticmethod
    def build(bps_u, bps_c, bps_s, values) -> "PCFun3D":
        return PCFun3D._build((bps_u, bps_c, bps_s), values)

    @staticmethod
    def from_xc(f: PCFun1D) -> "PCFun3D":
        """Lift a function of x_c to the cube."""
        g = (ZERO, ONE)
        vals = (tuple((v,) for v in f.values),)
        return PCFun3D(g, f.breakpoints, g, vals)


def inner_product_2d(f: PCFun2D, g: PCFun2D) -> Fraction:
    return _pair(f, g)


def inner_product_3d(f: PCFun3D, g: PCFun3D) -> Fraction:
    return _pair(f, g)


def pair_with_affine_3d(f: PCFun3D, c0, cu, cc, cs) -> Fraction:
    """Exact <f, v> for affine v = c0 + cu*x_u + cc*x_c + cs*x_s.

    Each term is one contraction: c0 against the cell widths on every axis,
    and each coordinate against its first moments on its own axis.
    """
    widths = [_widths(b) for b in f.axes]
    total = ZERO
    for axis, coeff in enumerate(map(frac, (c0, cu, cc, cs)), start=-1):
        if coeff:
            weights = list(widths)
            if axis >= 0:
                weights[axis] = _moments(f.axes[axis])
            total += coeff * _contract(f.values, weights)
    return total


# ---------------------------------------------------------------------------
# piecewise-affine oracle

@dataclass(frozen=True)
class PAFun1D:
    """Piecewise-affine function: slope[i]*x + intercept[i] on cell i.

    Used as the independent grid oracle for affine observables; the reduced
    transfer operator maps this class to itself exactly.
    """

    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    intercepts: tuple[Fraction, ...]

    def __post_init__(self):
        _check_breakpoints(self.breakpoints)
        if len(self.slopes) != len(self.breakpoints) - 1 or \
           len(self.intercepts) != len(self.slopes):
            raise ValueError("need one (slope, intercept) pair per cell")

    @staticmethod
    def affine(slope, intercept) -> "PAFun1D":
        return PAFun1D((ZERO, ONE), (frac(slope),), (frac(intercept),))

    def piece_at(self, x) -> tuple[Fraction, Fraction]:
        i = _cell_index(self.breakpoints, frac(x))
        return self.slopes[i], self.intercepts[i]

    def __call__(self, x) -> Fraction:
        m, c = self.piece_at(x)
        return m * frac(x) + c


def inner_product_pa(f: PAFun1D, g: PAFun1D) -> Fraction:
    """Exact integral of f*g (a piecewise quadratic) over [0,1]."""
    bps = merge_breakpoints(f.breakpoints, g.breakpoints)
    total = ZERO
    for lo, hi in zip(bps, bps[1:]):
        mid = (lo + hi) / 2
        mf, cf = f.piece_at(mid)
        mg, cg = g.piece_at(mid)
        a2, a1, a0 = mf * mg, mf * cg + mg * cf, cf * cg
        total += (a2 * (hi ** 3 - lo ** 3) / 3
                  + a1 * (hi ** 2 - lo ** 2) / 2
                  + a0 * (hi - lo))
    return total


def pa_mean(f: PAFun1D) -> Fraction:
    return inner_product_pa(f, PAFun1D.affine(0, 1))


# ---------------------------------------------------------------------------
# JSON wire format: fractions as "p/q" strings

def pcfun1d_to_json(f: PCFun1D) -> str:
    return json.dumps({"breakpoints": list(map(str, f.breakpoints)),
                       "values": list(map(str, f.values))})


def pcfun1d_from_json(s: str) -> PCFun1D:
    obj = json.loads(s)
    return PCFun1D.build(obj["breakpoints"], obj["values"])


def pcfun3d_to_json(f: PCFun3D) -> str:
    return json.dumps({
        "xu": list(map(str, f.bps_u)), "xc": list(map(str, f.bps_c)),
        "xs": list(map(str, f.bps_s)), "values": _map(str, 3, f.values)})


def pcfun3d_from_json(s: str) -> PCFun3D:
    obj = json.loads(s)
    return PCFun3D.build(obj["xu"], obj["xc"], obj["xs"], obj["values"])
