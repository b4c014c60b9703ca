"""Exact piecewise-constant function algebra with rational breakpoints.

Functions live on [0,1] (or [0,1]^2, [0,1]^3 as products of axis grids).
Cells are half-open [b_i, b_{i+1}) with the last cell closed at 1; point
evaluation at a breakpoint returns the right-hand cell's value.  Every
operation here is exact.  Floats only enter through the Monte Carlo fast
paths elsewhere.

There is one product-grid core, `_ProductGrid`: `PCFun1D`, `PCFun2D` and
`PCFun3D` only name their axes (`(breakpoints,)`, `(bps_x, bps_y)`,
`(bps_u, bps_c, bps_s)`), and construction, point evaluation, `on_grid`,
`equals`, `simplify`, `+`, `-`, scalar `*`, `integral`, `l1_norm`, `repr`,
`==` and `hash` are written once for d axes.

A function *is* its integer lattice: `lattice`, the value tensor as
Python-int numerators (a read-only object array) over one denominator, and
`axis_lattices`, each axis's breakpoints the same way; both in lowest terms,
hence canonical.  `_to_int_vector` is the one conversion: rationals
(Fractions, ints, 'p/q' strings) become numerators over the lcm of their
denominators.  There are two ways in: the constructor parses its input once
and checks the grids and the value shape on integers; a kernel's output
comes from its lattices alone (`_from_lattice`, which brings the values to
lowest terms and checks nothing).  Fractions are made only where they are
read: the `values` and breakpoint tuples are views made on first read and
kept, and `repr`, the JSON writer, point evaluation and every returned
scalar build them.  On the lattice, `_union` sorts and dedupes integers;
`_refinement_index` finds the cell of each refining cell by one two-pointer
walk of both grids, and refuses a grid that misses a breakpoint.  Every
weighted cell sum is one axis contraction, `_contract_lattice`: a value
lattice against one integer weight vector per axis (cell widths or first
moments), with `None` for an axis that is kept.  It is an integer dot
product per axis.

`PAFun1D` is the one-dimensional piecewise-*affine* sibling used as an
independent grid oracle for affine observables like x - 1/2.  It runs on
the same lattice (`inner_product_pa` is three integer dot products on the
merged grid), and what keeps it independent is that it shares no step with
the piecewise-constant or the walk routes: its operator step
(`transfer.p0_apply_pa`) is written from the branch formulas alone.

`_adic_depth` is the one M-adic grid rule: the level analyses of `haar` and
`restrict_to_m_adic` both read it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, index, sub
from typing import Iterable, Sequence

import numpy as np

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


def _at_least(value, low: int, name: str) -> int:
    """The one count check: `value` as an int, refused below `low`."""
    count = index(value)
    if count < low:
        raise ValueError(f"{name} must be at least {low}, got {count!r}")
    return count


def _cell_index(bps: Sequence[Fraction], x: Fraction) -> int:
    # right-hand cell convention; x == 1 belongs to the last cell
    if x >= 1:
        return len(bps) - 2
    return bisect_right(bps, x) - 1


def _to_int_vector(values: Iterable) -> tuple[np.ndarray, int]:
    """The lattice form of a vector of rationals (anything `frac` takes):
    integer numerators as a Python-int object array, over the lcm of the
    denominators."""
    ratios = [frac(v).as_integer_ratio() for v in values]
    denom = math.lcm(*{d for _, d in ratios})
    return np.array([n * (denom // d) for n, d in ratios], dtype=object), denom


def _adic_depth(lattice: tuple[np.ndarray, int], M: int, what: str) -> int:
    """Smallest L with every breakpoint of a grid on the uniform M^L grid,
    for the grid as its lattice in lowest terms: its denominator is the lcm
    of the breakpoints' denominators, so L is the smallest with denom | M^L.
    `what` names the first breakpoint on no such grid in the refusal."""
    nums, denom = lattice
    # d divides a power of M iff it divides M^bit_length(d), since no
    # prime's exponent in d passes log2(d)
    off = lambda d: pow(M, d.bit_length(), d)  # noqa: E731
    if off(denom):
        b = next(b for b in _fractions(nums, denom) if off(b.denominator))
        raise NotMAdic(f"{what} {b} is not {M}-adic")
    L, top = 0, 1                   # top = M^L
    while top % denom:
        top *= M
        L += 1
    return L


def _readonly(nums: np.ndarray) -> np.ndarray:
    """`nums`, flagged read-only: a cached lattice must not be written."""
    nums.flags.writeable = False
    return nums


def _reduced(nums: np.ndarray, denom: int) -> tuple[np.ndarray, int]:
    """nums/denom in lowest terms, divided by gcd(denom, *nums): then
    `denom` is the lcm of the reduced denominators, as `_to_int_vector`
    gives it."""
    g = math.gcd(denom, *nums.ravel().tolist())
    return (nums // g, denom // g) if g > 1 else (nums, denom)


def _uniform_lattice(n: int) -> tuple[np.ndarray, int]:
    """The breakpoints i/n of the uniform grid with n cells: 0, 1, ..., n
    over n."""
    return _readonly(np.arange(n + 1).astype(object)), n


def _grid_lattice(bps: Iterable) -> tuple[np.ndarray, int]:
    """The lattice of a breakpoint list, checked on integers: the first
    numerator is 0, the last the denominator, and they strictly increase."""
    nums, denom = _to_int_vector(bps)
    if len(nums) < 2 or nums[0] != 0 or nums[-1] != denom:
        raise ValueError("breakpoints must start at 0 and end at 1")
    if not (nums[1:] > nums[:-1]).all():
        raise ValueError("breakpoints must be strictly increasing")
    return _readonly(nums), denom


def _same(a: tuple[np.ndarray, int], b: tuple[np.ndarray, int]) -> bool:
    """Whether two lattices hold the same breakpoints."""
    return a is b or (a[1] == b[1] and np.array_equal(a[0], b[0]))


def _union(lattices: Sequence[tuple[np.ndarray, int]]) -> tuple:
    """The sorted union of breakpoint lists given as lattices, on the
    lattice of the lcm of their denominators."""
    denom = math.lcm(*(d for _, d in lattices))
    nums = set().union(*((n * (denom // d)).tolist() for n, d in lattices))
    return _readonly(np.array(sorted(nums), dtype=object)), denom


def _refinement_index(own: tuple[np.ndarray, int],
                      grid: tuple[np.ndarray, int], name: str):
    """For each cell of `grid`, the cell of `own` that holds it, both given
    as lattices: one two-pointer walk of both grids.  A grid that misses a
    breakpoint of `own` does not refine it and raises ValueError."""
    if _same(own, grid):
        return range(len(own[0]) - 1)
    denom = math.lcm(own[1], grid[1])
    own_nums = (own[0] * (denom // own[1])).tolist()
    fine = (grid[0] * (denom // grid[1])).tolist()
    index, i = [], 0
    for lo, hi in zip(fine, fine[1:]):
        while own_nums[i + 1] <= lo:
            i += 1
        if hi > own_nums[i + 1]:
            raise ValueError(f"the {name} grid misses breakpoint "
                             f"{Fraction(own_nums[i + 1], denom)} and does "
                             f"not refine the function's")
        index.append(i)
    return index


# ---------------------------------------------------------------------------
# the product-grid core: a value lattice with one axis per grid axis

def _lattice(values, shape=None) -> tuple[np.ndarray, int]:
    """A nested value tensor as integer numerators (an object array of its
    shape) over one denominator.  A tensor not of `shape`, when given, is
    refused; numpy keeps the rows of a ragged tensor as cells, so a cell
    that is a sequence is a shape error too."""
    cells = np.array(values, dtype=object)
    mismatch = ValueError("value tensor shape does not match the grid")
    if shape is not None and cells.shape != shape:
        raise mismatch
    try:
        nums, denom = _to_int_vector(cells.ravel().tolist())
    except TypeError:
        if any(map(np.ndim, cells.flat)):
            raise mismatch from None
        raise
    return nums.reshape(cells.shape), denom


def _fractions(nums: np.ndarray, denom: int):
    """An integer tensor over `denom` as nested tuples of Fractions (one
    Fraction for a 0-d tensor); equal numerators share one Fraction."""
    made = {n: Fraction(n, denom) for n in set(nums.ravel().tolist())}
    if nums.ndim == 0:
        return made[nums.item()]
    return _map(made.__getitem__, nums.ndim, nums.tolist())


def _widths(lattice: tuple[np.ndarray, int]) -> tuple[np.ndarray, int]:
    """Cell widths b1 - b0 of a grid given as a lattice: the weights of an
    integral along an axis."""
    nums, denom = lattice
    return nums[1:] - nums[:-1], denom


def _moments(lattice: tuple[np.ndarray, int]) -> tuple[np.ndarray, int]:
    """First moments (b1^2 - b0^2)/2 of the cells of a grid given as a
    lattice: the integrals of x over the cells."""
    nums, denom = lattice
    squares = nums * nums
    return squares[1:] - squares[:-1], 2 * denom * denom


def _contract_lattice(lattice: tuple[np.ndarray, int], weights: Sequence):
    """Sum a value tensor against one weight vector per axis, on the lattice.

    `lattice` is the tensor as (integer numerators, denominator), each
    weight an integer vector with its denominator, or None for an axis that
    is kept.  Each summed axis is one integer dot product; the result is
    (numerators over the kept axes, denominator).
    """
    nums, denom = lattice
    for axis in reversed(range(len(weights))):
        if weights[axis] is not None:
            w, w_denom = weights[axis]
            nums = np.tensordot(nums, w, axes=(axis, 0))
            denom *= w_denom
    return nums, denom


def _contract(lattice: tuple[np.ndarray, int], weights: Sequence):
    """`_contract_lattice` as Fractions: one when every axis is summed,
    else nested tuples over the kept axes."""
    return _fractions(*_contract_lattice(lattice, weights))


def _map(fn, depth: int, values):
    """fn applied cell by cell to a nested value tensor."""
    if depth == 1:
        return tuple(map(fn, values))
    return tuple(_map(fn, depth - 1, v) for v in values)


def _axis_view(axis: int) -> cached_property:
    """The breakpoints of one axis as a Fraction tuple: a read-only view
    made from the axis lattice on first read and kept."""
    return cached_property(lambda self: _fractions(*self.axis_lattices[axis]))


class _ProductGrid:
    """A piecewise-constant function on the product of its axis grids,
    stored as `lattice` and `axis_lattices` alone.  Subclasses name their
    axes in `_AXES` and take the axis grids, then the values nested one
    level per axis; writing any attribute raises."""

    _AXES: tuple[str, ...] = ()

    def __init__(self, axes: Sequence, values):
        """Parse and check each grid (`_grid_lattice`), then the values."""
        axis_lattices = tuple(map(_grid_lattice, axes))
        nums, denom = _lattice(values, tuple(len(b) - 1 for b, _ in
                                             axis_lattices))
        self.__dict__.update(lattice=(_readonly(nums), denom),
                             axis_lattices=axis_lattices)

    @classmethod
    def _from_lattice(cls, nums: np.ndarray, denom: int, axis_lattices):
        """A kernel's output, unchecked: values nums/denom on the grids of
        `axis_lattices`, with the value lattice brought to lowest terms."""
        nums, denom = _reduced(nums, denom)
        self = object.__new__(cls)
        self.__dict__.update(lattice=(_readonly(nums), denom), axis_lattices=
                             tuple((_readonly(b), d) for b, d in axis_lattices))
        return self

    @classmethod
    def build(cls, *axes_then_values):
        """The constructor under its older name."""
        return cls(*axes_then_values)

    @cached_property
    def values(self):
        """The values as nested tuples of Fractions: a read-only view made
        from the lattice on first read and kept."""
        return _fractions(*self.lattice)

    @property
    def axes(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(getattr(self, name) for name in self._AXES)

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}"
                  for name in (*self._AXES, "values"))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __eq__(self, other) -> bool:
        # lattices in lowest terms are canonical: equal fields, equal lattices
        if type(other) is not type(self):
            return NotImplemented
        return _same(self.lattice, other.lattice) and \
            all(map(_same, self.axis_lattices, other.axis_lattices))

    def __hash__(self) -> int:
        return hash(tuple((denom, nums.shape, *nums.ravel().tolist()) for
                          nums, denom in (self.lattice, *self.axis_lattices)))

    def __reduce__(self):
        return self._from_lattice, (*self.lattice, self.axis_lattices)

    @classmethod
    def constant(cls, c):
        c, d = frac(c), len(cls._AXES)
        return cls._from_lattice(np.full((1,) * d, c.numerator, dtype=object),
                                 c.denominator, [_uniform_lattice(1)] * d)

    def __call__(self, *point) -> Fraction:
        if len(point) != len(self._AXES):
            raise TypeError(f"{type(self).__name__} takes {len(self._AXES)} "
                            f"coordinates, got {len(point)}")
        v = self.values
        for bps, x in zip(self.axes, point):
            v = v[_cell_index(bps, frac(x))]
        return v

    def _index(self, lattices) -> list:
        """Per axis, the cell of this function's grid under each cell of a
        grid given as a lattice."""
        return [_refinement_index(own, grid, name) for name, own, grid
                in zip(self._AXES, self.axis_lattices, lattices)]

    def on_grid(self, *grids):
        """Cell values on grids (one per axis) that refine this function's;
        a grid that misses one of its breakpoints raises ValueError."""
        return _fractions(*self._lattice_on(map(_to_int_vector, grids)))

    def _lattice_on(self, lattices) -> tuple[np.ndarray, int]:
        """`on_grid` on the lattice, for grids given as lattices:
        (numerators, denominator)."""
        nums, denom = self.lattice
        index = self._index(lattices)
        if all(isinstance(i, range) for i in index):
            return nums, denom
        return nums[np.ix_(*index)], denom

    def _common(self, other):
        """The common refinement of both grids as lattices, and both value
        tensors on it as lattices."""
        if type(other) is not type(self):
            raise DimensionMismatch(f"cannot combine {type(self).__name__} "
                                    f"with {type(other).__name__}")
        lattices = [a if _same(a, b) else _union([a, b])
                    for a, b in zip(self.axis_lattices, other.axis_lattices)]
        return (lattices, self._lattice_on(lattices),
                other._lattice_on(lattices))

    def equals(self, other) -> bool:
        _, (a, a_denom), (b, b_denom) = self._common(other)
        return bool((a * b_denom == b * a_denom).all())

    def simplify(self):
        """Drop grid lines across which all values agree (canonical form);
        iterated pushforwards otherwise accumulate redundant breakpoints."""
        nums, denom = self.lattice
        lattices = list(self.axis_lattices)
        for d in range(nums.ndim):
            cells = np.moveaxis(nums, d, 0)
            keep = [0] + [i for i in range(1, len(cells))
                          if not np.array_equal(cells[i], cells[i - 1])]
            nums = nums.take(keep, axis=d)
            grid, grid_denom = lattices[d]
            grid, grid_denom = _reduced(grid[[*keep, len(cells)]], grid_denom)
            lattices[d] = _readonly(grid), grid_denom
        return self._from_lattice(nums, denom, lattices)

    def _combine(self, op, other):
        """`op` (add or sub) cell by cell on the common refinement, over
        the product of both denominators."""
        lattices, (a, a_denom), (b, b_denom) = self._common(other)
        return self._from_lattice(op(a * b_denom, b * a_denom),
                                  a_denom * b_denom, lattices)

    def __add__(self, other):
        return self._combine(add, other)

    def __sub__(self, other):
        return self._combine(sub, other)

    def __mul__(self, scalar):
        s = frac(scalar)
        nums, denom = self.lattice
        return self._from_lattice(nums * s.numerator, denom * s.denominator,
                                  self.axis_lattices)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def integral(self) -> Fraction:
        return _contract(self.lattice, list(map(_widths, self.axis_lattices)))

    def l1_norm(self) -> Fraction:
        nums, denom = self.lattice
        return _contract((abs(nums), denom),
                         list(map(_widths, self.axis_lattices)))


class PCFun1D(_ProductGrid):
    """Piecewise-constant function on [0,1]: values[i] on [bps[i], bps[i+1])."""

    _AXES = ("breakpoints",)
    breakpoints = _axis_view(0)

    def __init__(self, breakpoints: Iterable, values: Sequence):
        super().__init__((breakpoints,), values)

    @staticmethod
    def zero() -> "PCFun1D":
        return PCFun1D.constant(0)

    @staticmethod
    def uniform(values: Iterable) -> "PCFun1D":
        nums, denom = _to_int_vector(values)
        if not len(nums):
            raise ValueError("a uniform grid needs at least one value")
        return PCFun1D._from_lattice(nums, denom,
                                     (_uniform_lattice(len(nums)),))

    def refine(self, extra: Iterable) -> "PCFun1D":
        """Same function on a finer grid; inner products are invariant."""
        inside = [b for b in map(frac, extra) if 0 <= b <= 1]
        grid = _union([self.axis_lattices[0], _to_int_vector(inside)])
        return self._from_lattice(*self._lattice_on((grid,)), (grid,))

    def sup_norm(self) -> Fraction:
        nums, denom = self.lattice
        return Fraction(abs(nums).max(), denom)

    def is_uniform_level(self, base: int) -> int | None:
        """Return L if the grid is exactly the uniform base**L grid, else None."""
        nums, denom = self.axis_lattices[0]
        n = len(nums) - 1
        L, m = 0, 1
        while m < n:
            m *= base
            L += 1
        # n + 1 strictly increasing integers from 0 to n are 0, 1, ..., n
        return L if m == n == denom else None


def _pair(f: _ProductGrid, g: _ProductGrid) -> Fraction:
    """<f, g>: the product on the common refinement, contracted against the
    cell widths, all on the lattice."""
    lattices, (a, a_denom), (b, b_denom) = f._common(g)
    return _contract((a * b, a_denom * b_denom), list(map(_widths, lattices)))


def inner_product(f: PCFun1D, g: PCFun1D) -> Fraction:
    """Exact Lebesgue inner product via the common refinement."""
    if not isinstance(f, PCFun1D) or not isinstance(g, PCFun1D):
        raise DimensionMismatch("inner_product pairs one-dimensional PC "
                                "functions; use the _2d/_3d variants")
    return _pair(f, g)


def mean(f: PCFun1D) -> Fraction:
    return f.integral()


def project_zero_mean(f: PCFun1D) -> PCFun1D:
    return f - PCFun1D.constant(mean(f))


def from_affine(slope, intercept, level: int, base: int = 2) -> PCFun1D:
    """Cell averages of slope*x + intercept on the uniform base**level grid:
    m (2i + 1)/2n + c on cell i of n; level must be at least 0."""
    n = base ** _at_least(level, 0, "level")
    m, c = frac(slope), frac(intercept)
    odd = np.arange(1, 2 * n, 2).astype(object)
    return PCFun1D._from_lattice(
        m.numerator * c.denominator * odd + 2 * n * c.numerator * m.denominator,
        2 * n * m.denominator * c.denominator, (_uniform_lattice(n),))


def _level_widths(f: PCFun1D, base: int, level: int):
    """f without redundant breakpoints, and the width of each of its cells
    in cells of the uniform base**level grid; NotInKLevel when f is not
    constant on every cell of that grid."""
    f = f.simplify()
    try:
        depth = _adic_depth(f.axis_lattices[0], base, "breakpoint")
    except NotMAdic as exc:
        raise NotInKLevel(f"{exc} at level {level}") from None
    if depth > level:
        raise NotInKLevel(f"a breakpoint needs {base}-adic level {depth}, "
                          f"not {level}")
    nums, denom = f.axis_lattices[0]
    return f, np.diff((nums * (base ** level // denom)).tolist())


def restrict_to_m_adic(f: PCFun1D, base: int, level: int) -> tuple[Fraction, ...]:
    """Values of f on the uniform base**level grid, or raise NotInKLevel.

    Requires f to be constant on every cell of that partition.
    """
    f, widths = _level_widths(f, base, level)
    nums, denom = f.lattice
    return _fractions(np.repeat(nums, widths), denom)


def _level_blocks(f: PCFun1D, M: int, level: int):
    """The value numerators of f on the uniform M**level grid, one row of M
    per level-(level-1) cell, and their denominator."""
    _at_least(level, 1, "level")
    f, widths = _level_widths(f, M, level)
    nums, denom = f.lattice
    return np.repeat(nums, widths).reshape(-1, M), denom


def osc_norm_star(f: PCFun1D, M: int, level: int) -> Fraction:
    """Max over level-(level-1) cells of the oscillation (sup - inf) of f.

    f must be measurable w.r.t. the uniform M**level partition.
    """
    blocks, denom = _level_blocks(f, M, level)
    return Fraction(max(blocks.max(axis=1) - blocks.min(axis=1)), denom)


# ---------------------------------------------------------------------------
# product grids in 2D / 3D

class PCFun2D(_ProductGrid):
    """Piecewise-constant on [0,1]^2 over a product grid (axes: x_u, x_s);
    values[i][j] on cell i of x, j of y."""

    _AXES = ("bps_x", "bps_y")
    bps_x, bps_y = _axis_view(0), _axis_view(1)

    def __init__(self, bps_x: Iterable, bps_y: Iterable, values: Sequence):
        super().__init__((bps_x, bps_y), values)

    def is_zero(self) -> bool:
        return not self.lattice[0].any()


class PCFun3D(_ProductGrid):
    """Piecewise-constant on [0,1]^3 over a product grid (axes: x_u, x_c,
    x_s); values[i][j][k]."""

    _AXES = ("bps_u", "bps_c", "bps_s")
    bps_u, bps_c, bps_s = _axis_view(0), _axis_view(1), _axis_view(2)

    def __init__(self, bps_u: Iterable, bps_c: Iterable, bps_s: Iterable,
                 values: Sequence):
        super().__init__((bps_u, bps_c, bps_s), values)

    @staticmethod
    def from_xc(f: PCFun1D) -> "PCFun3D":
        """Lift a function of x_c to the cube."""
        nums, denom = f.lattice
        flat = _uniform_lattice(1)
        return PCFun3D._from_lattice(nums[None, :, None], denom,
                                     (flat, *f.axis_lattices, flat))


def inner_product_2d(f: PCFun2D, g: PCFun2D) -> Fraction:
    return _pair(f, g)


def inner_product_3d(f: PCFun3D, g: PCFun3D) -> Fraction:
    return _pair(f, g)


def pair_with_affine_3d(f: PCFun3D, c0, cu, cc, cs) -> Fraction:
    """Exact <f, v> for affine v = c0 + cu*x_u + cc*x_c + cs*x_s.

    Each term is one contraction: c0 against the cell widths on every axis,
    and each coordinate against its first moments on its own axis.
    """
    widths = list(map(_widths, f.axis_lattices))
    total = ZERO
    for axis, coeff in enumerate(map(frac, (c0, cu, cc, cs)), start=-1):
        if coeff:
            weights = list(widths)
            if axis >= 0:
                weights[axis] = _moments(f.axis_lattices[axis])
            total += coeff * _contract(f.lattice, weights)
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
        _grid_lattice(self.breakpoints)
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


def _pa_lattice(f: PAFun1D) -> tuple[np.ndarray, np.ndarray, int]:
    """The slopes and the intercepts of f as integer numerators over one
    denominator."""
    nums, denom = _to_int_vector(f.slopes + f.intercepts)
    return nums[:len(f.slopes)], nums[len(f.slopes):], denom


def inner_product_pa(f: PAFun1D, g: PAFun1D) -> Fraction:
    """Exact integral of f*g (a piecewise quadratic) over [0,1].

    On each cell of the merged grid, with b its ends over E, the product
    a2 x^2 + a1 x + a0 integrates to a2 (b1^3 - b0^3)/3E^3 +
    a1 (b1^2 - b0^2)/2E^2 + a0 (b1 - b0)/E: three integer dot products over
    one denominator.
    """
    lf, lg = _to_int_vector(f.breakpoints), _to_int_vector(g.breakpoints)
    b, e = _union([lf, lg])
    sf, cf, f_denom = _pa_lattice(f)
    sg, cg, g_denom = _pa_lattice(g)
    i = _refinement_index(lf, (b, e), "merged")
    j = _refinement_index(lg, (b, e), "merged")
    sf, cf, sg, cg = sf[i], cf[i], sg[j], cg[j]
    squares, cubes = b * b, b * b * b
    total = (2 * np.dot(sf * sg, cubes[1:] - cubes[:-1])
             + 3 * e * np.dot(sf * cg + cf * sg, squares[1:] - squares[:-1])
             + 6 * e * e * np.dot(cf * cg, b[1:] - b[:-1]))
    return Fraction(total, 6 * e ** 3 * f_denom * g_denom)


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
