"""Haar wavelets, dyadic analysis/synthesis, and M-adic level components.

Coefficient convention: an expansion maps (l, k) to the synthesis weight
c_{l,k}, i.e. the represented function is sum c_{l,k} * chi_{l,k}.  Since
<chi_{l,k}, chi_{l,k}> = 2^{1-l}, the synthesis weight equals
2^{l-1} * <f, chi_{l,k}>.  This keeps the reduced operator's coefficient
dynamics rational-sparse.

Every analysis runs on one integer M-adic tower: one depth rule
(`pcfun._adic_depth`: a breakpoint lies on the uniform M^L grid when its
denominator divides M^L) and one sums pyramid (`_level_sums`: the integer
cell values of that grid, along axis 0, summed over the M^l cells of each
level l).  `analyze_levels` reads from it the level state of the exact
M = 2 routes: a list `levels` whose entry l holds the 2^(l-1) integer
numerators of level l (Python ints in an object array; entry 0 holds the
total), beside one Fraction scale; `analyze` is its dict form, and the
oracle report of `transfer` runs it on its stepped grids.  `tensor_analyze`
takes the same levels along the x_c axis of a 3D lattice, and `synthesize`
and `tensor_synthesize` share the inverse pyramid.

For M > 2 there is no convenient wavelet basis; `analyze_general_M` stores
level components as piecewise-constant functions obtained from conditional
expectations on the M-adic tower (K_l, with H_l the complement of K_{l-1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .pcfun import (ONE, ZERO, NotMAdic, PCFun1D, PCFun2D, PCFun3D,
                    _adic_depth, _level_blocks, _to_int_vector,
                    _uniform_lattice, _union, frac, inner_product)

HaarExpansion = dict            # (l, k) -> Fraction synthesis weight


class NonZeroMean(ValueError):
    pass


NonDyadicBreakpoints = NotMAdic     # the M = 2 refusal of `_adic_depth`


class InvalidHaarIndex(ValueError):
    pass


def check_index(l: int, k: int) -> None:
    if l < 1 or not 0 <= k < 2 ** (l - 1):
        raise InvalidHaarIndex(f"(l={l}, k={k}) outside l >= 1, 0 <= k < 2^(l-1)")


def wavelet(l: int, k: int) -> PCFun1D:
    """chi_{l,k}: +1 then -1 on the halves of [k*2^(1-l), (k+1)*2^(1-l))."""
    check_index(l, k)
    h = Fraction(1, 2 ** l)
    lo = 2 * k * h
    pts = [ZERO, lo, lo + h, lo + 2 * h, ONE]
    vals = [ZERO, Fraction(1), Fraction(-1), ZERO]
    bps, out = [ZERO], []
    for p, v in zip(pts[1:], vals):
        if p > bps[-1]:
            bps.append(p)
            out.append(v)
    return PCFun1D(tuple(bps), tuple(out))


def square_wave(l: int) -> PCFun1D:
    """s_l = sum_k chi_{l,k}: the +-1 square wave at frequency 2^(l-1)."""
    if l == 0:
        return PCFun1D.constant(1)
    signs = np.tile(np.array([1, -1], dtype=object), 2 ** (l - 1))
    return PCFun1D._from_lattice(signs, 1, (_uniform_lattice(2 ** l),))


def dyadic_level(f: PCFun1D) -> int:
    """Smallest L with all breakpoints on the uniform 2^L grid."""
    return _adic_depth(f.simplify().axis_lattices[0], 2, "breakpoint")


def _level_sums(cells: np.ndarray, M: int):
    """The sums pyramid along axis 0 of the integer cell values of a uniform
    M^L grid: the sums over the M^l cells of level l, for l = L down to 0.
    It is a generator, so a caller can drop each level once it is used."""
    yield cells
    while len(cells) > 1:
        total = cells[0::M]
        for j in range(1, M):
            total = total + cells[j::M]
        cells = total
        yield cells


def _grid_levels(cells: np.ndarray) -> list[np.ndarray]:
    """Haar levels along axis 0 of the integer cells of a uniform 2^L grid.

    levels[l][k] = (S_left - S_right) * 2^(l-1), with S the sums over the
    two halves of chi_{l,k}'s support, is its synthesis weight at scale
    1/(den * 2^L) for cell values cells/den; levels[0] = [total].
    """
    L = len(cells).bit_length() - 1
    levels: list = [None] * (L + 1)
    for l, sums in zip(range(L, -1, -1), _level_sums(cells, 2)):
        levels[l] = (sums[0::2] - sums[1::2]) << (l - 1) if l else sums
    return levels


def _haar_cells(constant, weights: Mapping, shape=()) -> np.ndarray:
    """Cell values of constant + sum weights[l, k] chi_{l,k} on the uniform
    2^L grid (L the deepest level) along axis 0, for integer weights (or
    integer arrays of `shape`): the inverse of the sums pyramid."""
    for l, k in weights:
        check_index(l, k)
    L = max((l for l, _ in weights), default=0)
    levels = [np.zeros((2 ** max(l - 1, 0), *shape), dtype=object)
              for l in range(L + 1)]
    levels[0][0] = constant
    for (l, k), c in weights.items():
        levels[l][k] = c
    cells = levels[0]
    for c in levels[1:]:
        cells = np.stack((cells + c, cells - c), axis=1).reshape(-1, *shape)
    return cells


def analyze_levels(f: PCFun1D) -> tuple[list[np.ndarray], Fraction]:
    """(levels, scale): the exact Haar expansion of a zero-mean dyadic PC
    function as integer level numerators and one rational scale."""
    f = f.simplify()
    L = _adic_depth(f.axis_lattices[0], 2, "breakpoint")
    nums, den = f._lattice_on((_uniform_lattice(2 ** L),))
    levels = _grid_levels(nums)
    scale = Fraction(1, den << L)
    if levels[0][0]:
        raise NonZeroMean(f"mean is {levels[0][0] * scale}, expected 0")
    return levels, scale


def _expansion(levels: list[np.ndarray], scale: Fraction) -> HaarExpansion:
    """Dict form of a level state: (l, k) -> synthesis weight, zeros dropped."""
    return {(l, k): c * scale for l in range(1, len(levels))
            for k, c in enumerate(levels[l]) if c}


def analyze(f: PCFun1D) -> HaarExpansion:
    """Exact Haar expansion of a zero-mean dyadic PC function."""
    return _expansion(*analyze_levels(f))


def synthesize(expansion: Mapping) -> PCFun1D:
    nums, den = _to_int_vector(expansion.values())
    cells = _haar_cells(0, dict(zip(expansion, nums)))
    return PCFun1D._from_lattice(cells, den, (_uniform_lattice(len(cells)),))


def coefficient(f: PCFun1D, l: int, k: int) -> Fraction:
    """Raw inner product <f, chi_{l,k}> (not the synthesis weight)."""
    return inner_product(f, wavelet(l, k))


def level_sup_norms(expansion: Mapping) -> dict[int, Fraction]:
    """Sup norm of each level component; wavelets in a level have disjoint
    interiors, so the sup is the largest |coefficient|."""
    out: dict[int, Fraction] = {}
    for (l, _), c in expansion.items():
        out[l] = max(out.get(l, ZERO), abs(c))
    return out


def holder_bound_check(f: PCFun1D, theta: Fraction, holder_norm: Fraction) -> list[dict]:
    """Per-level check of ||f_l||_inf <= 2^(-theta*l) * holder_norm.

    Intended for PC projections of Hoelder functions with known norm; the
    comparison 2^(-theta*l) is done exactly when theta is rational with
    small denominator (both sides raised to the denominator power).
    """
    theta, holder_norm = frac(theta), frac(holder_norm)
    sups = level_sup_norms(analyze(f))
    report = []
    q = theta.denominator
    for l in sorted(sups):
        sup = sups[l]
        # sup <= 2^(-theta l) * norm  <=>  (sup/norm)^q <= 2^(-p l q / q)
        ok = (sup == 0) if holder_norm == 0 else \
            (sup / holder_norm) ** q * 2 ** (theta.numerator * l) <= 1
        report.append({"level": l, "sup": sup,
                       "bound": float(holder_norm) * 2.0 ** (-float(theta) * l),
                       "ok": bool(ok)})
    return report


def monotone_sign_report(f: PCFun1D) -> dict:
    """Signs of raw coefficients per level (strictly increasing functions
    have all-negative coefficients; decreasing all-positive)."""
    exp = analyze(f)
    all_neg = all(c < 0 for c in exp.values()) and bool(exp)
    all_pos = all(c > 0 for c in exp.values()) and bool(exp)
    return {"all_negative": all_neg, "all_positive": all_pos,
            "levels": sorted({l for l, _ in exp})}


# ---------------------------------------------------------------------------
# general M

@dataclass(frozen=True)
class LevelComponents:
    """Orthogonal level components of an M-adic PC function.

    components[l] lies in H_l (constant on level-l cells, conditional
    expectation on level l-1 vanishing); their sum reconstructs the input.
    """

    M: int
    components: tuple[PCFun1D, ...]   # index 0 <-> level 1

    def component(self, l: int) -> PCFun1D:
        if 1 <= l <= len(self.components):
            return self.components[l - 1]
        return PCFun1D.zero()

    def sup_norms(self) -> dict[int, Fraction]:
        return {l + 1: c.sup_norm() for l, c in enumerate(self.components)}

    def reconstruct(self) -> PCFun1D:
        return sum(self.components, PCFun1D.zero())


def analyze_general_M(f: PCFun1D, M: int) -> LevelComponents:
    """Level components via conditional expectations on the M-adic tower.

    With S_l the level-l sums of the cell values nums/den on the M^L grid,
    the level-l cell means are S_l/(den M^(L-l)), so the level-l component
    is M S_l[i] - S_{l-1}[i // M] over den M^(L-l+1)."""
    f = f.simplify()
    L = _adic_depth(f.axis_lattices[0], M, "breakpoint")
    nums, den = f._lattice_on((_uniform_lattice(M ** L),))
    sums = list(_level_sums(nums, M))[::-1]       # sums[l]: level l
    if sums[0][0]:
        raise NonZeroMean(f"mean is {Fraction(sums[0][0], den * M ** L)}, "
                          "expected 0")
    return LevelComponents(M, tuple(
        PCFun1D._from_lattice(M * sums[l] - np.repeat(sums[l - 1], M),
                              den * M ** (L - l + 1),
                              (_uniform_lattice(M ** l),)).simplify()
        for l in range(1, L + 1)))


def is_xi_increasing(f: PCFun1D, M: int, level: int) -> bool:
    """Membership in the level-`level` monotone cone: strictly increasing
    across distinct level cells inside each level-(level-1) cell."""
    blocks, _ = _level_blocks(f, M, level)
    return bool((blocks[:, 1:] > blocks[:, :-1]).all())


# ---------------------------------------------------------------------------
# tensor analysis on the cube (M = 2)

@dataclass(frozen=True)
class TensorComponents:
    """Decomposition of a 3D function over the x_c Haar system.

    ``component00`` is the x_c-average (a function of (x_u, x_s)); ``waves``
    maps (l, k) to the 2D factor of chi_{l,k}, in synthesis-weight
    normalization.  The represented function is
    component00 (x) chi_0 + sum waves[l,k] (x) chi_{l,k}.
    """

    component00: PCFun2D
    waves: dict = field(default_factory=dict)

    def component(self, l: int, k: int) -> PCFun2D:
        return self.waves.get((l, k), PCFun2D.constant(0))


def tensor_analyze(F: PCFun3D) -> TensorComponents:
    """Exact tensor components of a PC function dyadic in x_c: the Haar
    levels of its lattice along the x_c axis, at scale 1/(den 2^L)."""
    L = _adic_depth(F.axis_lattices[1], 2, "x_c breakpoint")
    lu, _, ls = F.axis_lattices
    nums, den = F._lattice_on((lu, _uniform_lattice(2 ** L), ls))
    levels = _grid_levels(np.moveaxis(nums, 1, 0))
    plane = lambda cells: PCFun2D._from_lattice(  # noqa: E731
        cells, den << L, (lu, ls))
    return TensorComponents(plane(levels[0][0]), {
        (l, k): plane(cells) for l in range(1, L + 1)
        for k, cells in enumerate(levels[l]) if cells.any()})


def tensor_synthesize(comp: TensorComponents) -> PCFun3D:
    parts = [comp.component00, *comp.waves.values()]
    lu = _union([u.axis_lattices[0] for u in parts])
    ls = _union([u.axis_lattices[1] for u in parts])
    lattices = [u._lattice_on((lu, ls)) for u in parts]
    den = math.lcm(*(d for _, d in lattices))
    constant, *waves = (nums * (den // d) for nums, d in lattices)
    cells = _haar_cells(constant, dict(zip(comp.waves, waves)),
                        (len(lu[0]) - 1, len(ls[0]) - 1))
    return PCFun3D._from_lattice(np.moveaxis(cells, 0, 1), den,
                                 (lu, _uniform_lattice(len(cells)), ls))

