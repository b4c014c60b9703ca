"""Perron-Frobenius machinery for the heterochaos baker maps.

Three exact representations of the reduced operator on functions of the
center coordinate are implemented and cross-checked:

* a grid route acting on piecewise-constant (and piecewise-affine)
  functions, straight from the branch formulas: `p0_apply` steps
  `p_alpha` + `p_beta` on the integer lattice of any rational grid
  (breakpoints over one denominator, values over another);
* a Haar-level route (M = 2): the alpha part copies a level-l
  coefficient to two level-(l+1) slots with weight w, the beta part folds a
  level-l coefficient down to level l-1 with weight (1-w)/2 and annihilates
  level 1;
* a square-wave route on the invariant span of s_l = sum_k chi_{l,k}, where
  the coefficient vector evolves by the absorbed-random-walk recursion,
  `ruin.walk_step` with (up, down) = (w, 1-w).

Every exact state holds Python ints in object arrays with one rational
scale kept beside them: for w = wp/wq the uniform integer step
`_p0_step_int` on a uniform M-adic grid (any M) divides the scale by M wq,
a Haar step (M = 2) by 2 wq and a square-wave step by wq.  The Haar state
is the level list of `haar.analyze_levels` (levels[l] holds the 2^(l-1)
numerators of level l), and `p0_haar_step` is the one Haar step.  The
oracle report runs the uniform integer step, the Haar step and
`walk_step` side by side and compares the grid's analysis with the
stepped levels; the uniform step is written apart from `p_alpha` and
`p_beta`, and the tests tie it to `p0_apply`.  These kernels keep their
input's dtype, so the report runs them on int64 for as long as a bound on
each step's outputs stays below 2^63, and on Python ints from then on.

The general weight w = M*a is derived from averaging the full 3D operator
over (x_u, x_s): the alpha branches carry total mass w = 1 - M*b and the
beta branches spread 1 - w evenly over M terms.  At the mostly-neutral
parameter this reduces to the familiar w = 1/2 formulas.

The full 3D operator is an exact pushforward on product grids (the branch
maps are diagonal affine), together with its projection split against the
x_c-average and the tensor-component actions.  The pushforward runs on
the integer lattice of `pcfun`: each axis's breakpoints are numerators
over one denominator, so a branch map is an integer affine map, the output
grid is one integer sort, and each branch writes its block of input cells
onto its image box.  All of that depends on the parameters and the input
grids only, so it is one cached plan (`_push_plan`) per pair, and a
pushforward is one gather of the input values per branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .baker import BakerParams, Kind, Symbol, branch_affines, domain_box
from .haar import _grid_levels
from .pcfun import (ONE, PAFun1D, PCFun1D, PCFun2D, PCFun3D,
                    _contract_lattice, _fractions, _moments, _pa_lattice,
                    _at_least, _readonly, _reduced, _refinement_index,
                    _to_int_vector, _uniform_lattice, _union, _widths, frac)
from .ruin import walk_step

HALF = Fraction(1, 2)


class NotInSquareWaveSpan(ValueError):
    pass


class FiberAverageNonZero(ValueError):
    pass


@dataclass(frozen=True)
class ReducedOp:
    """Reduced transfer operator with branch weight w = M*a in (0,1)."""

    M: int
    w: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w", frac(self.w))
        _at_least(self.M, 2, "M")
        if not 0 < self.w < 1:
            raise ValueError("weight must lie in (0,1)")

    @staticmethod
    def neutral(M: int = 2) -> "ReducedOp":
        return ReducedOp(M, HALF)

    @staticmethod
    def from_params(params: BakerParams) -> "ReducedOp":
        """w = M a, for parameters that preserve Lebesgue measure; off
        a + b = 1/M, M a != 1 - M b and the weight is ambiguous."""
        params.require_measure_preserving("the reduced operator")
        return ReducedOp(params.M, params.M * params.a)

    def require_m2(self, route: str) -> None:
        """Refuse M != 2 on the routes that are M = 2 representations."""
        if self.M != 2:
            raise ValueError(f"the {route} is the M = 2 representation; "
                             f"got M = {self.M}")


# ---------------------------------------------------------------------------
# grid route (PC and piecewise-affine)

def p_alpha(op: ReducedOp, f: PCFun1D) -> PCFun1D:
    """Alpha part: w u(Mx - k) on the k-th strip [k/M, (k+1)/M).  On f's
    lattice (breakpoints x over d, values over denom) strip k has the
    breakpoints (x + k d)/(M d) and the values times wp over denom wq."""
    M, wp, wq = op.M, op.w.numerator, op.w.denominator
    (x, d), (nums, denom) = f.axis_lattices[0], f.lattice
    grid = np.concatenate([x[:1]] + [x[1:] + k * d for k in range(M)])
    return PCFun1D._from_lattice(np.tile(wp * nums, M), denom * wq,
                                 (_reduced(grid, M * d),))


def p_beta(op: ReducedOp, f: PCFun1D) -> PCFun1D:
    """Beta part: ((1-w)/M) sum_j u((x+j)/M).  On f's lattice its
    breakpoints over d are M x mod d and d; branch j reads each cell's left
    end lo in the cell of M x that holds lo + j d, and the M values sum
    times wq - wp over denom wq M."""
    M, wp, wq = op.M, op.w.numerator, op.w.denominator
    (x, d), (nums, denom) = f.axis_lattices[0], f.lattice
    source = M * x
    y = np.array(sorted({d, *(source % d).tolist()}), dtype=object)
    total = sum(nums[np.searchsorted(source, y[:-1] + j * d, side="right") - 1]
                for j in range(M))
    return PCFun1D._from_lattice((wq - wp) * total, denom * wq * M,
                                 (_reduced(y, d),))


def p0_apply_pa(op: ReducedOp, f: PAFun1D, n: int = 1) -> PAFun1D:
    """Exact reduced operator on piecewise-affine functions (grid oracle).

    Each step is `_pa_step` on the lattice of f: breakpoints as integers
    over one denominator, slopes and intercepts as integers over another.
    """
    _at_least(n, 0, "n")
    if n == 0:
        return f
    x, x_denom = _to_int_vector(f.breakpoints)
    slopes, icpts, denom = _pa_lattice(f)
    for _ in range(n):
        x, slopes, icpts = _pa_step(x, x_denom, slopes, icpts, op)
        x_denom *= op.M
        denom *= op.w.denominator * op.M ** 2
    return PAFun1D(_fractions(x, x_denom), _fractions(slopes, denom),
                   _fractions(icpts, denom))


def _pa_step(x: np.ndarray, d: int, slopes: np.ndarray, icpts: np.ndarray,
             op: ReducedOp):
    """One step of P0 u = w u(Mx - k) + ((1-w)/M) sum_j u((x+j)/M) on a
    piecewise-affine u, straight from the branch formulas.

    u has breakpoints x/d and pieces (s x + c)/den.  The output breakpoints,
    over M d, are the alpha images x + k d and the beta images
    M (M x - j d) for j d <= M x <= (j+1) d; each output cell reads its
    source piece under each branch by an integer lookup of its left end in
    x.  The output pieces are over den wq M^2, for w = wp/wq:
    slope wp M^3 s_a + (wq - wp) sum_j s_j and intercept
    wp M^2 (c_a - k s_a) + (wq - wp) sum_j (M c_j + j s_j).
    """
    M, wp, wq = op.M, op.w.numerator, op.w.denominator
    xs = x.tolist()
    grid = {b + k * d for b in xs for k in range(M)}
    for j in range(M):
        grid.update(M * (M * b - j * d) for b in xs
                    if j * d <= M * b <= (j + 1) * d)
    y = np.array(sorted(grid), dtype=object)
    lo = y[:-1]
    k = lo // d                     # the alpha strip of each output cell
    i = np.searchsorted(x, lo - k * d, side="right") - 1
    s_out = wp * M ** 3 * slopes[i]
    c_out = wp * M ** 2 * (icpts[i] - k * slopes[i])
    source = M * M * x              # beta branch j reads (lo + j M d)/(M^2 d)
    for j in range(M):
        i = np.searchsorted(source, lo + j * M * d, side="right") - 1
        s_out = s_out + (wq - wp) * slopes[i]
        c_out = c_out + (wq - wp) * (M * icpts[i] + j * slopes[i])
    return y, s_out, c_out


def p0_apply(op: ReducedOp, f: PCFun1D, n: int = 1) -> PCFun1D:
    """Exact P0^n f on piecewise-constant functions: n >= 0 steps of
    `p_alpha` + `p_beta` on the lattice of any rational grid."""
    _at_least(n, 0, "n")
    for _ in range(n):
        f = p_alpha(op, f) + p_beta(op, f)
    return f


def _p0_step_int(nums: np.ndarray, op: ReducedOp) -> np.ndarray:
    """One step on the N = M^L cells of a uniform grid (L >= 1), at scale
    factor 1/(M wq): out = M wp u(Mx mod 1) + (wq - wp) sum_j u((x+j)/M).

    Output cell o of the M N cells reads input cell o mod N under the alpha
    branches, and o // M^2 + j N/M under beta branch j."""
    M, wp, wq = op.M, op.w.numerator, op.w.denominator
    # a beta value covers M^2 output cells: multiply before repeating
    beta = (wq - wp) * nums.reshape(M, -1).sum(axis=0)
    return np.concatenate([M * wp * nums] * M) + np.repeat(beta, M * M)


# ---------------------------------------------------------------------------
# Haar-level route (M = 2)

def p0_haar_step(levels: list, op: ReducedOp) -> list:
    """One step of P0 = P_alpha + P_beta on Haar levels (M = 2), at scale
    factor 1/(2 wq) for w = wp/wq.

    levels[l] holds the 2^(l-1) integer numerators of level l (see
    `haar.analyze_levels`); the result is one level deeper:

    chi_{l,k} -> w*(chi_{l+1,k} + chi_{l+1,k+2^(l-1)})
              +  ((1-w)/2)*chi_{l-1, k mod 2^(l-2)}   (the beta image;
                 level 1 is annihilated by the beta part),

    while the mean in levels[0] is kept (its numerator times 2 wq).
    """
    op.require_m2("Haar route")
    wp, wq = op.w.numerator, op.w.denominator
    new = [np.zeros(2 ** max(l - 1, 0), dtype=levels[0].dtype)
           for l in range(len(levels) + 1)]
    new[0] = 2 * wq * levels[0]
    for l in range(1, len(levels)):
        arr = levels[l]
        if not arr.any():
            continue
        up = 2 * wp * arr
        new[l + 1] += np.concatenate((up, up))
        if l >= 2:
            q = arr.size // 2
            new[l - 1] += (wq - wp) * (arr[:q] + arr[q:])
    return new


# ---------------------------------------------------------------------------
# square-wave route

def square_wave_levels(levels: list) -> np.ndarray | None:
    """The per-level numerators of an `haar.analyze_levels` state in
    span{s_l}, sw[i] for level i + 1, when every level is constant in k;
    None otherwise."""
    if all((arr == arr[0]).all() for arr in levels[1:]):
        return np.array([arr[0] for arr in levels[1:]], dtype=levels[0].dtype)
    return None


# ---------------------------------------------------------------------------
# oracle equivalence (integer kernels; used by the acceptance suite)

_INT64_END = 2 ** 63     # int64 holds every integer of smaller magnitude


def _max_abs(arrays: list) -> int:
    """The largest |entry| of integer arrays, as a Python int."""
    return int(abs(np.concatenate(arrays)).max()) if arrays else 0


def oracle_equivalence_report(f: PCFun1D, op: ReducedOp, n_steps: int) -> dict:
    """Iterate the PC grid, Haar level, and (if applicable) square-wave
    routes side by side in exact integer arithmetic and compare after every
    step.

    The Haar levels and the square-wave coefficients start from the sums
    pyramid of the grid numerators, at scale 1/(den 2^L0).  All three
    routes shrink their scales by 1/(2 wq) per step, so after n steps the
    analysis of the grid (on 2^(L0+n) cells) must equal the levels times
    2^n, and on the square-wave span each level must be constant and equal
    to the walked coefficient.

    The state runs on int64 while it provably fits.  Before each step the
    outputs are bounded from the current largest entries, as Python ints:
    a grid, Haar or walk step multiplies them by at most 2 wq, the analysis
    of 2^L cells by at most 2^L, and the comparison shifts the levels by n.
    When a bound could reach 2^63, the whole state becomes Python ints in
    object arrays, for the rest of the run; each step records the dtype it
    ran in.  Refused for M != 2 and n_steps < 0.
    """
    op.require_m2("oracle comparison")
    _at_least(n_steps, 0, "n_steps")
    L0 = f.is_uniform_level(2)
    if L0 is None:
        raise ValueError("input must live on a uniform dyadic grid")
    if L0 == 0:
        raise ValueError("input must be a nonconstant dyadic function")

    nums, _ = f.lattice
    if _max_abs([nums]) << L0 < _INT64_END:
        nums = nums.astype(np.int64)
    levels = _grid_levels(nums)
    sw = square_wave_levels(levels)

    wp, wq = op.w.numerator, op.w.denominator
    agree_all = True
    per_step = []
    for stepn in range(1, n_steps + 1):
        if nums.dtype != object:
            # max(m, 1): the bounds cover the integer weights themselves
            bounds = (
                2 * wq * max(_max_abs([nums]), 1) << (L0 + stepn),
                2 * wq * max(_max_abs(levels), 1) << stepn,
                2 * wq * max(_max_abs([] if sw is None else [sw]), 1))
            if max(bounds) >= _INT64_END:
                nums = nums.astype(object)
                levels = [arr.astype(object) for arr in levels]
                sw = None if sw is None else sw.astype(object)
        nums = _p0_step_int(nums, op)
        levels = p0_haar_step(levels, op)
        grid = _grid_levels(nums)
        ok = len(grid) == len(levels) and \
            all(np.array_equal(g, h << stepn) for g, h in zip(grid, levels))
        sw_ok = True
        if sw is not None:
            sw = walk_step(sw, 2 * wp, 2 * (wq - wp))
            sw_ok = len(sw) == len(levels) - 1 and \
                all((arr == c).all() for arr, c in zip(levels[1:], sw))
        per_step.append({"n": stepn, "dtype": str(nums.dtype),
                         "grid_vs_haar": ok,
                         "squarewave": sw_ok if sw is not None else None})
        agree_all = agree_all and ok and sw_ok

    return {"agree": agree_all, "squarewave_applicable": sw is not None,
            "steps": per_step}


# ---------------------------------------------------------------------------
# full 3D operator

@lru_cache(maxsize=64)
def _branch_tables(params: BakerParams) -> tuple:
    """What a pushforward takes from the parameters alone, built once per
    parameter set from `domain_box` and `branch_affines`, and read-only,
    since every call shares it: per axis (x_u, x_c, x_s) the ends of the
    branch domains as a lattice, and the map of every branch, in
    `branch_affines` order, as (m, c, lo, hi): x -> m x + c on the
    breakpoints from lo to hi."""
    branches = [(domain_box(params, Symbol(kind, k)), affine)
                for (kind, k), affine in branch_affines(params).items()]
    edges = tuple((_readonly(nums), denom) for nums, denom in (
        _to_int_vector(sorted({x for box, _ in branches for x in box[axis]}))
        for axis in range(3)))
    maps = tuple(tuple((*affine[axis], *box[axis]) for box, affine in branches)
                 for axis in range(3))
    return edges, maps


@lru_cache(maxsize=64)
def _branch_weights(params: BakerParams, region_weight: tuple) -> tuple:
    """The weight of each branch of the 2D map, in `branch_affines` order:
    its region's weight over its Jacobian mu mc, as integers over one
    denominator (read-only)."""
    w_alpha, w_beta = region_weight
    weights, denom = _to_int_vector(
        (w_alpha if kind is Kind.ALPHA else w_beta) / (mu * mc)
        for (kind, _), ((mu, _), (mc, _), _) in
        branch_affines(params).items())
    return tuple(weights.tolist()), denom


@lru_cache(maxsize=256)
def _push_plan(params: BakerParams, axes: tuple) -> tuple:
    """How a pushforward moves the cells of a product grid: built once per
    (parameters, input grids), and read-only, since every function on
    those grids shares it.  `axes` holds the input grids (x_u, x_c and
    possibly x_s) as lattices with the numerators as tuples.

    Per axis the grid is refined by the ends of the branch domains, and a
    branch maps its breakpoints from lo to hi by x -> m x + c; over
    the grid's denominator times the lcm of the branches' m and c
    denominators every image is an integer.  The output grid is the sorted
    union of the images, and refined cell i covers the output cells from
    the image of breakpoint i to that of i + 1.  Returns the output grids
    and, per branch, the box it writes and the `np.ix_` gather of the input
    cells under the cells of that box.
    """
    edges, maps = _branch_tables(params)
    grids, moves = [], []
    for axis, (nums, denom) in enumerate(axes):
        own = (np.array(nums, dtype=object), denom)
        refined = _union([own, edges[axis]])
        cell = np.array(_refinement_index(own, refined, "refined"),
                        dtype=np.intp)
        nums, denom = refined[0].tolist(), refined[1]
        at = {n: i for i, n in enumerate(nums)}
        scale = math.lcm(*(m.denominator * c.denominator
                           for m, c, _, _ in maps[axis]))
        images = []
        for m, c, lo, hi in maps[axis]:
            i0, i1 = (at[x.numerator * (denom // x.denominator)]
                      for x in (lo, hi))
            slope = m.numerator * (scale // m.denominator)
            shift = c.numerator * (denom * scale // c.denominator)
            images.append((i0, [slope * n + shift for n in nums[i0:i1 + 1]]))
        out = sorted(set().union(*(img for _, img in images)))
        position = {n: i for i, n in enumerate(out)}
        grid, grid_denom = _reduced(np.array(out, dtype=object), denom * scale)
        grids.append((_readonly(grid), grid_denom))
        moves.append([])
        for i0, img in images:
            pos = [position[n] for n in img]
            moves[-1].append((slice(pos[0], pos[-1]), np.repeat(
                cell[i0:i0 + len(pos) - 1], np.diff(pos))))
    return tuple(grids), tuple(
        (tuple(box for box, _ in move),
         tuple(map(_readonly, np.ix_(*(index for _, index in move)))))
        for move in zip(*moves))


def _plan(params: BakerParams, f) -> tuple:
    """The cached `_push_plan` of a pushforward of f, keyed by the content
    of its axis lattices."""
    return _push_plan(params, tuple((tuple(nums.tolist()), denom)
                                    for nums, denom in f.axis_lattices))


def p_full_3d(params: BakerParams, F: PCFun3D) -> PCFun3D:
    """Exact pushforward u -> u o f^{-1} on a product grid.

    Requires measure preservation (a + b = 1/M, else NotMeasurePreserving),
    where the 2M branch images tile the cube and the operator is plain
    composition with the inverse: each branch gathers its block of input
    cells onto its image box, on the lattice of F.
    """
    params.require_measure_preserving("the 3D pushforward")
    grids, branches = _plan(params, F)
    nums, denom = F.lattice
    out = np.zeros([len(g) - 1 for g, _ in grids], dtype=object)
    for box, gather in branches:
        out[box] = nums[gather]
    return PCFun3D._from_lattice(out, denom, grids)


def p_full_3d_n(params: BakerParams, F: PCFun3D, n: int) -> PCFun3D:
    _at_least(n, 0, "n")
    for _ in range(n):
        F = p_full_3d(params, F)
    return F


def p_full_2d(params: BakerParams, h: PCFun2D,
              region_weight: tuple[Fraction, Fraction] | None = None) -> PCFun2D:
    """Transfer operator of the 2D map on (x_u, x_c), as a pushforward with
    Jacobian weights (the 2D map is not invertible, so branch images
    overlap and contributions accumulate).

    `region_weight` multiplies the input by (w_alpha, w_beta) per region
    before pushing; this realizes weighted operators like the stable-slope
    cocycle used by `fiber_average_decay_check`.
    """
    grids, branches = _plan(params, h)
    weights, w_denom = _branch_weights(params,
                                       tuple(region_weight or (ONE, ONE)))
    nums, denom = h.lattice
    out = np.zeros([len(g) - 1 for g, _ in grids], dtype=object)
    for (box, gather), weight in zip(branches, weights):
        out[box] += nums[gather] * weight
    return PCFun2D._from_lattice(out, denom * w_denom, grids)


# ---------------------------------------------------------------------------
# projection split P = P_* + P_10 + P_01 + P_00

def pi0(F: PCFun3D) -> PCFun3D:
    """Projection onto the x_c-average component: average over x_c per
    (x_u, x_s) cell, re-tensored with the constant function.  The result is
    constant in x_c and carries the trivial x_c grid."""
    lu, lc, ls = F.axis_lattices
    avg, denom = _contract_lattice(F.lattice, (None, _widths(lc), None))
    return PCFun3D._from_lattice(avg[:, None, :], denom,
                                 (lu, _uniform_lattice(1), ls))


def component_split_apply(which: str, params: BakerParams, F: PCFun3D) -> PCFun3D:
    """Apply one of P_*, P_01, P_10, P_00 (built from pi0 and the full P)."""
    P = lambda G: p_full_3d(params, G)  # noqa: E731
    proj = {"star": (True, True), "01": (True, False),
            "10": (False, True), "00": (False, False)}
    if which not in proj:
        raise ValueError("which must be one of star, 01, 10, 00")
    complement_out, complement_in = proj[which]
    G = F - pi0(F) if complement_in else pi0(F)
    H = P(G)
    return H - pi0(H) if complement_out else pi0(H)


# ---------------------------------------------------------------------------
# tensor-component actions (M = 2, mostly neutral)

def _pullback_axis(grid: tuple[np.ndarray, int], m: Fraction, c: Fraction):
    """One axis of a pullback by t -> m t + c (m > 0), for a grid given as a
    lattice: the output grid (0, 1 and the preimages in [0,1] of the
    grid's breakpoints) as a lattice, and for each output cell the grid
    cell its image lies in, or -1 where the image is outside [0,1].

    On the denominator denom*cq*mp a preimage of nums/denom is
    k = (nums*cq - cp*denom)*mq, and the image of k is k + cp*denom*mq
    over denom*cq*mq, the denominator of the breakpoints nums*cq*mq."""
    nums, denom = grid
    bps = nums * (c.denominator * m.denominator)
    shift = c.numerator * denom * m.denominator
    k, k_denom = bps - shift, denom * c.denominator * m.numerator
    kept = k[(k >= 0) & (k <= k_denom)]
    out, _ = _union([(kept, k_denom), _uniform_lattice(1)])
    cell = np.searchsorted(bps, out[:-1] + shift, side="right") - 1
    cell[cell >= len(nums) - 1] = -1
    return _reduced(out, k_denom), cell


def _pullback_2d(u: PCFun2D, mx: Fraction, cx: Fraction,
                 my: Fraction, cy: Fraction) -> PCFun2D:
    """v(x, y) = u(mx*x + cx, my*y + cy) where both arguments lie in [0,1],
    zero outside (the rectangle convention for transported 2D factors).
    The grid lines of v are those of u pulled back, plus 0 and 1; each
    cell of v lies in one cell of u or outside [0,1]^2, so v is a gather
    of u's lattice."""
    (grid_x, cell_x), (grid_y, cell_y) = (
        _pullback_axis(g, m, c)
        for g, m, c in zip(u.axis_lattices, (mx, my), (cx, cy)))
    nums, denom = u.lattice
    in_x, in_y = cell_x >= 0, cell_y >= 0
    out = np.zeros((len(cell_x), len(cell_y)), dtype=object)
    out[np.ix_(in_x, in_y)] = nums[np.ix_(cell_x[in_x], cell_y[in_y])]
    return PCFun2D._from_lattice(out, denom, (grid_x, grid_y))


def _require_neutral2(params: BakerParams) -> None:
    if params.M != 2 or params.a != Fraction(1, 4) or params.b != Fraction(1, 4):
        raise ValueError("tensor-component formulas are the M = 2 neutral case")


def _pull(params: BakerParams, kind: Kind, u: PCFun2D) -> tuple:
    """u pulled back by the inverse (x_u, x_s) factors y -> (y - c) / m of
    each branch of `kind`, in branch order."""
    return tuple(_pullback_2d(u, 1 / mu, -cu / mu, 1 / ms, -cs / ms)
                 for (knd, _), ((mu, cu), _, (ms, cs)) in
                 branch_affines(params).items() if knd is kind)


def _tc_add(waves: dict, key, u: PCFun2D) -> None:
    if key in waves:
        waves[key] = waves[key] + u
    else:
        waves[key] = u


def p_hat_alpha(params: BakerParams, comp) -> "TensorComponents":
    """Tensor action of the alpha-branch part: level l components rise to
    level l+1; the x_c-average component feeds the level-1 wavelet with the
    antisymmetric combination of the two alpha pullbacks."""
    from .haar import TensorComponents
    _require_neutral2(params)
    waves: dict = {}
    for (l, k), u in comp.waves.items():
        a1, a2 = _pull(params, Kind.ALPHA, u)
        _tc_add(waves, (l + 1, k), a1)
        _tc_add(waves, (l + 1, k + 2 ** (l - 1)), a2)
    zero00 = PCFun2D.constant(0)
    if not comp.component00.is_zero():
        a1, a2 = _pull(params, Kind.ALPHA, comp.component00)
        _tc_add(waves, (1, 0), (a1 - a2) * HALF)
    waves = {key: u for key, u in waves.items() if not u.is_zero()}
    return TensorComponents(zero00, waves)


def p_hat_beta(params: BakerParams, comp) -> "TensorComponents":
    """Tensor action of the complementary part: level l+1 folds down to
    level l, level 1 lands in the x_c-average, and the x_c-average maps to
    itself through the beta pullbacks plus the symmetric alpha mean (the
    piece the projection split books on the H_0 -> H_0 block)."""
    from .haar import TensorComponents
    _require_neutral2(params)
    waves: dict = {}
    comp00 = PCFun2D.constant(0)
    for (l, k), u in comp.waves.items():
        b1, b2 = _pull(params, Kind.BETA, u)
        if l == 1:
            comp00 = comp00 + b1 - b2
        elif k < 2 ** (l - 2):
            _tc_add(waves, (l - 1, k), b1)
        else:
            _tc_add(waves, (l - 1, k - 2 ** (l - 2)), b2)
    if not comp.component00.is_zero():
        b1, b2 = _pull(params, Kind.BETA, comp.component00)
        a1, a2 = _pull(params, Kind.ALPHA, comp.component00)
        comp00 = comp00 + b1 + b2 + (a1 + a2) * HALF
    waves = {key: u for key, u in waves.items() if not u.is_zero()}
    return TensorComponents(comp00, waves)


def tensor_components_add(x, y):
    from .haar import TensorComponents
    waves = dict(x.waves)
    for key, u in y.waves.items():
        _tc_add(waves, key, u)
    waves = {key: u for key, u in waves.items() if not u.is_zero()}
    return TensorComponents(x.component00 + y.component00, waves)


# ---------------------------------------------------------------------------
# fiber-average decay

def xs_fiber_averages_zero(u: PCFun3D) -> bool:
    averages, _ = _contract_lattice(u.lattice,
                                    (None, None, _widths(u.axis_lattices[2])))
    return not averages.any()


def xs_first_moment(u: PCFun3D) -> PCFun2D:
    """m1(x_u, x_c) = integral of u * x_s over the stable fiber."""
    lu, lc, ls = u.axis_lattices
    return PCFun2D._from_lattice(
        *_contract_lattice(u.lattice, (None, None, _moments(ls))), (lu, lc))


def fiber_average_decay_check(params: BakerParams, u: PCFun3D,
                              v_affine: tuple, n_max: int,
                              theta: float = 1.0) -> list[dict]:
    """Exact series <P^n u, v> for u with vanishing stable-fiber averages
    and v affine, with the bound 2^(-theta n) ||u||_L1 ||v||_Ctheta attached,
    ||v||_Ctheta taken as sup |v| plus the Lipschitz constant of v.

    For such u only the x_s-linear part of v survives the pairing, and the
    x_s coordinate of f^n is affine along each (x_u, x_c) cylinder with a
    slope cocycle depending on the region itinerary alone; the pairing
    therefore collapses to iterating the slope-weighted 2D transfer
    operator against the first fiber moment of u.  Direct 3D iteration is
    cross-checked in the tests (its grids grow too fast for n this deep).
    Refused off a + b = 1/M (NotMeasurePreserving) and for n_max < 0.
    """
    params.require_measure_preserving("the fiber-average decay check")
    _at_least(n_max, 0, "n_max")
    if not xs_fiber_averages_zero(u):
        raise FiberAverageNonZero("stable-fiber averages of u must vanish")
    c0, cu, cc, cs = map(frac, v_affine)
    # the x_s slope of the alpha and beta regions, shared by their branches
    sigma = tuple(branch_affines(params)[kind, 1][2][0] for kind in Kind)

    u_l1 = float(u.l1_norm())
    # Euclidean Lipschitz constant of the affine map; float is fine for a bound
    lip = float(np.sqrt(float(cu) ** 2 + float(cc) ** 2 + float(cs) ** 2))
    vmax = max(abs(float(c0 + cu * x + cc * y + cs * z))
               for x in (0, 1) for y in (0, 1) for z in (0, 1))
    v_norm = vmax + lip

    h = xs_first_moment(u)
    rows = []
    for n in range(n_max + 1):
        value = cs * h.integral()
        bound = 2.0 ** (-theta * n) * u_l1 * v_norm
        rows.append({"n": n, "value": value, "bound": bound,
                     "ok": abs(float(value)) <= bound * (1 + 1e-12)})
        if n < n_max:
            h = p_full_2d(params, h, region_weight=sigma).simplify()
    return rows
