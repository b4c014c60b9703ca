"""Haar wavelets, dyadic analysis/synthesis, and M-adic level components.

Coefficient convention: an expansion maps (l, k) to the synthesis weight
c_{l,k}, i.e. the represented function is sum c_{l,k} * chi_{l,k}.  Since
<chi_{l,k}, chi_{l,k}> = 2^{1-l}, the synthesis weight equals
2^{l-1} * <f, chi_{l,k}>.  This keeps the reduced operator's coefficient
dynamics rational-sparse.

There is one analysis.  `analyze_levels` returns the level state of the
exact M = 2 routes: a list `levels` whose entry l holds the 2^(l-1) integer
numerators of level l (Python ints in an object array; entry 0 holds the
total), beside one Fraction scale.  It comes from a sums pyramid over the
integer cell values of the uniform 2^L grid, which the oracle report of
`transfer` also runs on its stepped grids.  `analyze` is its dict form.

For M > 2 there is no convenient wavelet basis; level components are stored
as piecewise-constant functions obtained from conditional expectations on
the M-adic partition tower (K_l, with H_l the complement of K_{l-1}).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .pcfun import (ONE, ZERO, PCFun1D, PCFun2D, PCFun3D, _to_int_vector,
                    frac, inner_product, merge_breakpoints)

HaarExpansion = dict            # (l, k) -> Fraction synthesis weight


class NonZeroMean(ValueError):
    pass


class NonDyadicBreakpoints(ValueError):
    pass


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
    # one shared Fraction per sign, not one per cell (2^20 of them at l = 20)
    return PCFun1D.uniform((ONE, -ONE) * 2 ** (l - 1))


def _dyadic_depth(bps, what: str) -> int:
    """Smallest L with all of `bps` on the uniform 2^L grid; `what` names
    the breakpoints in the error."""
    L = 0
    for b in bps:
        d = b.denominator
        if d & (d - 1):
            raise NonDyadicBreakpoints(f"{what} {b} is not dyadic")
        L = max(L, d.bit_length() - 1)
    return L


def dyadic_level(f: PCFun1D) -> int:
    """Smallest L with all breakpoints on the uniform 2^L grid."""
    return _dyadic_depth(f.simplify().breakpoints, "breakpoint")


def _grid_levels(nums: np.ndarray) -> list[np.ndarray]:
    """Sums pyramid of the integer cell values of a uniform 2^L grid.

    levels[l][k] = (S_left - S_right) * 2^(l-1), with S the sums over the
    two halves of chi_{l,k}'s support, is its synthesis weight at scale
    1/(den * 2^L) for cell values nums/den; levels[0] = [total].
    """
    L = nums.size.bit_length() - 1
    levels: list = [None] * (L + 1)
    cur = nums
    for l in range(L, 0, -1):
        left, right = cur[0::2], cur[1::2]
        levels[l] = (left - right) << (l - 1)
        cur = left + right
    levels[0] = cur
    return levels


def analyze_levels(f: PCFun1D) -> tuple[list[np.ndarray], Fraction]:
    """(levels, scale): the exact Haar expansion of a zero-mean dyadic PC
    function as integer level numerators and one rational scale."""
    f = f.simplify()
    L = _dyadic_depth(f.breakpoints, "breakpoint")
    n = 2 ** L
    nums, den = _to_int_vector(f.on_grid(tuple(Fraction(i, n)
                                               for i in range(n + 1))))
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
    if not expansion:
        return PCFun1D.zero()
    L = max(l for l, _ in expansion)
    n = 2 ** L
    vals = [ZERO] * n
    for (l, k), c in expansion.items():
        check_index(l, k)
        span = n // 2 ** l          # cells per half-support
        base = 2 * k * span
        for i in range(span):
            vals[base + i] += c
            vals[base + span + i] -= c
    return PCFun1D.uniform(vals)


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


def pair_expansions(a: Mapping, b: Mapping) -> Fraction:
    """<f, g> from expansions: sum c a_{l,k} b_{l,k} 2^(1-l)."""
    total = ZERO
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    for (l, k), c in small.items():
        d = big.get((l, k))
        if d:
            total += c * d * Fraction(2, 2 ** l)
    return total


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
        out = PCFun1D.zero()
        for c in self.components:
            out = out + c
        return out


def m_adic_level(f: PCFun1D, M: int) -> int:
    from .pcfun import NotMAdic
    L = 0
    for b in f.simplify().breakpoints:
        d = b.denominator
        level = 0
        while d > 1:
            if d % M:
                raise NotMAdic(f"breakpoint {b} is not {M}-adic")
            d //= M
            level += 1
        L = max(L, level)
    return L


def analyze_general_M(f: PCFun1D, M: int) -> LevelComponents:
    """Level components via conditional expectations on the M-adic tower."""
    f = f.simplify()
    L = m_adic_level(f, M)
    n = M ** L
    grid = tuple(Fraction(i, n) for i in range(n + 1))
    vals = list(f.on_grid(grid))
    means = [vals]
    while len(means[-1]) > 1:
        prev = means[-1]
        means.append([sum(prev[M * i:M * (i + 1)], ZERO) / M
                      for i in range(len(prev) // M)])
    if means[-1][0] != 0:
        raise NonZeroMean(f"mean is {means[-1][0]}, expected 0")
    comps = []
    for l in range(1, L + 1):
        fine = means[L - l]          # level-l means
        coarse = means[L - l + 1]    # level-(l-1) means
        m = M ** l
        comp_vals = [fine[i] - coarse[i // M] for i in range(m)]
        comps.append(PCFun1D.uniform(comp_vals).simplify())
    return LevelComponents(M, tuple(comps))


def is_xi_increasing(f: PCFun1D, M: int, level: int) -> bool:
    """Membership in the level-`level` monotone cone: strictly increasing
    across distinct level cells inside each level-(level-1) cell."""
    from .pcfun import restrict_to_m_adic
    vals = restrict_to_m_adic(f, M, level)
    for i in range(M ** (level - 1)):
        block = vals[i * M:(i + 1) * M]
        if any(a >= b for a, b in zip(block, block[1:])):
            return False
    return True


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

    def max_level(self) -> int:
        return max((l for l, _ in self.waves), default=0)


def tensor_analyze(F: PCFun3D) -> TensorComponents:
    """Exact tensor components of a zero-mean PC function, dyadic in x_c."""
    # lift x_c grid to a uniform dyadic grid
    L = _dyadic_depth(F.bps_c, "x_c breakpoint")
    n = 2 ** L
    grid_c = tuple(Fraction(i, n) for i in range(n + 1))
    vals = F.on_grid(F.bps_u, grid_c, F.bps_s)

    nu, ns = len(F.bps_u) - 1, len(F.bps_s) - 1

    def plane(level_means, idx):
        return tuple(tuple(level_means[i][idx][k] for k in range(ns))
                     for i in range(nu))

    # mean pyramid along x_c per (x_u, x_s) cell
    pyramid = [[[ [vals[i][j][k] for k in range(ns)] for j in range(n)]
                for i in range(nu)]]
    m = n
    while m > 1:
        prev = pyramid[-1]
        nxt = [[[ (prev[i][2 * j][k] + prev[i][2 * j + 1][k]) / 2
                  for k in range(ns)] for j in range(m // 2)]
               for i in range(nu)]
        pyramid.append(nxt)
        m //= 2
    comp00 = PCFun2D(F.bps_u, F.bps_s, plane(pyramid[-1], 0))
    waves = {}
    for l in range(1, L + 1):
        level_means = pyramid[L - l]
        for k in range(2 ** (l - 1)):
            cvals = tuple(tuple((level_means[i][2 * k][s] -
                                 level_means[i][2 * k + 1][s]) / 2
                                for s in range(ns)) for i in range(nu))
            comp = PCFun2D(F.bps_u, F.bps_s, cvals)
            if not comp.is_zero():
                waves[(l, k)] = comp
    return TensorComponents(comp00, waves)


def tensor_synthesize(comp: TensorComponents) -> PCFun3D:
    L = comp.max_level()
    n = 2 ** L
    grid_c = tuple(Fraction(i, n) for i in range(n + 1))
    parts = [(comp.component00, [ONE] * n)]
    for (l, k), u in comp.waves.items():
        w = wavelet(l, k)
        parts.append((u, list(w.on_grid(grid_c))))
    bu = merge_breakpoints(*[u.bps_x for u, _ in parts])
    bs = merge_breakpoints(*[u.bps_y for u, _ in parts])
    grids = [u.on_grid(bu, bs) for u, _ in parts]
    nu, ns = len(bu) - 1, len(bs) - 1
    vals = []
    for i in range(nu):
        plane = []
        for j in range(n):
            row = []
            for k in range(ns):
                total = ZERO
                for g, (_, wv) in zip(grids, parts):
                    if wv[j]:
                        total += g[i][k] * wv[j]
                row.append(total)
            plane.append(tuple(row))
        vals.append(tuple(plane))
    return PCFun3D(bu, grid_c, bs, tuple(vals))


# ---------------------------------------------------------------------------
# serialization

def expansion_to_json(expansion: Mapping) -> str:
    items = [{"l": l, "k": k, "coeff": str(c)}
             for (l, k), c in sorted(expansion.items())]
    return json.dumps(items)


def expansion_from_json(s: str) -> HaarExpansion:
    return {(int(e["l"]), int(e["k"])): frac(e["coeff"]) for e in json.loads(s)}
