"""Exact operator-identity checks shared by the CLI and the test suite.

Everything here is an equality of piecewise-constant functions verified in
rational arithmetic; a check either holds exactly or fails.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .baker import BakerParams, Symbol, branch_affines, domain_box
from .haar import tensor_analyze, tensor_synthesize
from .pcfun import (PCFun1D, PCFun3D, _contract_lattice, _uniform_lattice,
                    _widths, inner_product_3d, project_zero_mean)
from .transfer import (ReducedOp, component_split_apply, p0_apply, p_full_3d,
                       p_full_3d_n, p_hat_alpha, p_hat_beta, pi0,
                       tensor_components_add)


def random_pc3(rng: np.random.Generator, zero_mean: bool = True,
               denominator: int = 16) -> PCFun3D:
    """Small random PC function on a level-1 dyadic product grid."""
    nums = rng.integers(-denominator, denominator + 1, size=(2, 2, 2))
    F = PCFun3D._from_lattice(nums.astype(object), denominator,
                              [_uniform_lattice(2)] * 3)
    if zero_mean:
        m = F.integral()
        F = F + PCFun3D.constant(-m)
    return F


def random_pc1(rng: np.random.Generator, level: int,
               denominator: int = 64) -> PCFun1D:
    nums = rng.integers(-denominator, denominator + 1, size=2 ** level)
    return project_zero_mean(PCFun1D._from_lattice(
        nums.astype(object), denominator, (_uniform_lattice(2 ** level),)))


def check_phat_sum(params: BakerParams, F: PCFun3D) -> bool:
    """(P_hat_alpha + P_hat_beta) F == P F, exactly."""
    comp = tensor_analyze(F)
    total = tensor_components_add(p_hat_alpha(params, comp),
                                  p_hat_beta(params, comp))
    return tensor_synthesize(total).equals(p_full_3d(params, F))


def check_formula_compositions(params: BakerParams, F: PCFun3D,
                               n: int) -> tuple[bool, bool]:
    """The two exact composition identities relating P^n to the projection
    split: P^n (I - pi0) = P_*^n + sum_k P^k P_10 P_*^(n-k-1) and
    P^n pi0 = P_00^n + sum_k P^k P_01 P_00^(n-k-1)."""
    Fc = F - pi0(F)
    lhs1 = p_full_3d_n(params, Fc, n)
    star_pows = [Fc]
    for _ in range(n):
        star_pows.append(component_split_apply("star", params, star_pows[-1]))
    rhs1 = star_pows[n]
    for k in range(n):
        term = component_split_apply("10", params, star_pows[n - k - 1])
        rhs1 = rhs1 + p_full_3d_n(params, term, k)
    first = lhs1.equals(rhs1)

    F0 = pi0(F)
    lhs2 = p_full_3d_n(params, F0, n)
    zz_pows = [F0]
    for _ in range(n):
        zz_pows.append(component_split_apply("00", params, zz_pows[-1]))
    rhs2 = zz_pows[n]
    for k in range(n):
        term = component_split_apply("01", params, zz_pows[n - k - 1])
        rhs2 = rhs2 + p_full_3d_n(params, term, k)
    second = lhs2.equals(rhs2)
    return first, second


def project_xc(F: PCFun3D) -> PCFun1D:
    """Average over (x_u, x_s): the reduction projection."""
    lu, lc, ls = F.axis_lattices
    nums, denom = _contract_lattice(F.lattice, (_widths(lu), None, _widths(ls)))
    return PCFun1D._from_lattice(nums, denom, (lc,)).simplify()


def check_reduction(params: BakerParams, f: PCFun1D, n: int) -> bool:
    """Projection of P^n on an x_c-only input equals P0^n, exactly.

    This is the identity that pins the general-weight reduced operator
    (w = M a) to the full 3D dynamics.
    """
    op = ReducedOp.from_params(params)
    lifted = PCFun3D.from_xc(f)
    full = project_xc(p_full_3d_n(params, lifted, n))
    return full.equals(p0_apply(op, f, n))


def _num(x: Fraction, denom: int) -> int:
    """The numerator of x over `denom`, a multiple of its denominator."""
    return x.numerator * (denom // x.denominator)


def _push_boxes(ends: list, values: np.ndarray, branches: list):
    """One forward step of boxes on the integer lattice.

    `ends` holds per axis the boxes' lower and upper ends as integers over
    one denominator, `branches` per branch its domain box and affine maps.
    Every box is clipped to every domain at once, (boxes x branches) per
    axis, and the clipped ends are mapped by their branch (the maps are
    diagonal); the clips that are non-empty on every axis are the new boxes.
    """
    domains, maps = zip(*branches)
    pushed, keep = [], True
    for axis, (lo, hi, denom) in enumerate(ends):
        bounds = [x for dom in domains for x in dom[axis]]
        slopes, shifts = zip(*(m[axis] for m in maps))
        # over e the domain bounds are integers, over e * scale the images
        e = math.lcm(denom, *(x.denominator for x in bounds))
        scale = math.lcm(*(x.denominator for x in slopes + shifts))
        bounds = np.array([_num(x, e) for x in bounds],
                          dtype=object).reshape(-1, 2)
        lo = np.maximum(lo[:, None] * (e // denom), bounds[:, 0])
        hi = np.minimum(hi[:, None] * (e // denom), bounds[:, 1])
        keep = keep & (lo < hi)
        slope = np.array([_num(m, scale) for m in slopes], dtype=object)
        shift = np.array([_num(c, e * scale) for c in shifts], dtype=object)
        pushed.append((slope * lo + shift, slope * hi + shift, e * scale))
    return ([(lo[keep], hi[keep], denom) for lo, hi, denom in pushed],
            np.broadcast_to(values[:, None], keep.shape)[keep])


def pair_with_pullback(params: BakerParams, F: PCFun3D, G: PCFun3D,
                       n: int) -> Fraction:
    """Exact <F, G o f^n>: boxes carrying F-values are pushed forward n times
    (split at the branch domains; branch maps are diagonal so boxes stay
    boxes) and finally integrated against G.

    It runs on the integer lattice of `pcfun` and shares no step with
    `p_full_3d`: the boxes are F's cells, not a product grid, each step
    clips them against the branch domains and maps their ends
    (`_push_boxes`), and the integral is one contraction of G's values
    against the per-axis (boxes x cells) overlap matrices.
    """
    branches = [(domain_box(params, Symbol(kind, k)), maps)
                for (kind, k), maps in branch_affines(params).items()]
    cells, values_denom = F.lattice
    where = np.nonzero(cells)
    values = cells[where]
    ends = [(nums[idx], nums[idx + 1], denom)
            for idx, (nums, denom) in zip(where, F.axis_lattices)]
    for _ in range(n):
        ends, values = _push_boxes(ends, values, branches)

    g_cells, denom = G.lattice
    denom *= values_denom
    overlaps = []
    for (lo, hi, box_denom), (nums, g_denom) in zip(ends, G.axis_lattices):
        e = math.lcm(box_denom, g_denom)
        lo, hi = lo[:, None] * (e // box_denom), hi[:, None] * (e // box_denom)
        nums = nums * (e // g_denom)
        width = np.minimum(hi, nums[1:]) - np.maximum(lo, nums[:-1])
        overlaps.append(np.maximum(width, 0))
        denom *= e
    ou, oc, os_ = overlaps
    per_box = np.tensordot(ou, g_cells, axes=(1, 0))     # boxes x c x s
    per_box = (per_box * oc[:, :, None]).sum(axis=1)     # boxes x s
    return Fraction(np.dot(values, (per_box * os_).sum(axis=1)), denom)


def check_duality(params: BakerParams, F: PCFun3D, G: PCFun3D,
                  n: int) -> bool:
    """<P^n F, G> == <F, G o f^n> exactly, through two independent routes."""
    lhs = inner_product_3d(p_full_3d_n(params, F, n), G)
    return lhs == pair_with_pullback(params, F, G, n)


def run_identity_suite(seed: int = 7) -> dict:
    """Quick exact-identity sweep used by `heterobaker verify-identities`:
    three random functions through the P-hat sum and the compositions at
    n = 2, two through the reduction at n = 3."""
    params = BakerParams.neutral(2)
    rng = np.random.Generator(np.random.Philox(key=seed))
    results = {"phat_sum": [], "formula_first": [], "formula_second": [],
               "reduction": []}
    for _ in range(3):
        F = random_pc3(rng)
        results["phat_sum"].append(check_phat_sum(params, F))
        ok1, ok2 = check_formula_compositions(params, F, 2)
        results["formula_first"].append(ok1)
        results["formula_second"].append(ok2)
    for level in (1, 2):
        f = random_pc1(rng, level)
        results["reduction"].append(check_reduction(params, f, 3))
    results["passed"] = all(all(v) for v in results.values())
    return results
