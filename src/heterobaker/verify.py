"""Exact operator-identity checks shared by the CLI and the test suite.

Everything here is an equality of piecewise-constant functions verified in
rational arithmetic; a check either holds exactly or fails.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .baker import BakerParams, Kind, all_symbols, branch_affine
from .haar import tensor_analyze, tensor_synthesize
from .pcfun import (ZERO, PCFun1D, PCFun3D, _contract, _lattice,
                    _to_int_vector, _widths, inner_product_3d,
                    project_zero_mean)
from .transfer import (ReducedOp, component_split_apply, p0_apply, p_full_3d,
                       p_full_3d_n, p_hat_alpha, p_hat_beta, pi0,
                       tensor_components_add)


def random_pc3(rng: np.random.Generator, zero_mean: bool = True,
               denominator: int = 16) -> PCFun3D:
    """Small random PC function on a level-1 dyadic product grid."""
    vals = rng.integers(-denominator, denominator + 1, size=(2, 2, 2))
    F = PCFun3D.build(["0", "1/2", "1"], ["0", "1/2", "1"], ["0", "1/2", "1"],
                      [[[Fraction(int(v), denominator) for v in row]
                        for row in plane] for plane in vals])
    if zero_mean:
        m = F.integral()
        F = F + PCFun3D.constant(-m)
    return F


def random_pc1(rng: np.random.Generator, level: int,
               denominator: int = 64) -> PCFun1D:
    n = 2 ** level
    vals = [Fraction(int(v), denominator)
            for v in rng.integers(-denominator, denominator + 1, size=n)]
    return project_zero_mean(PCFun1D.uniform(vals))


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
    vals = _contract(_lattice(F.values),
                     (_widths(F.bps_u), None, _widths(F.bps_s)))
    return PCFun1D(F.bps_c, vals).simplify()


def check_reduction(params: BakerParams, f: PCFun1D, n: int) -> bool:
    """Projection of P^n on an x_c-only input equals P0^n, exactly.

    This is the identity that pins the general-weight reduced operator
    (w = M a) to the full 3D dynamics.
    """
    op = ReducedOp.from_params(params)
    lifted = PCFun3D.from_xc(f)
    full = project_xc(p_full_3d_n(params, lifted, n))
    return full.equals(p0_apply(op, f, n))


def _split_interval(lo: Fraction, hi: Fraction, cuts) -> list:
    pts = [lo] + [c for c in cuts if lo < c < hi] + [hi]
    return list(zip(pts, pts[1:]))


def _box_integral(G: PCFun3D, values, box) -> Fraction:
    """Integral of G over a box; `values` is G's value lattice."""
    overlaps = [_to_int_vector([max(min(hi, g1) - max(lo, g0), ZERO)
                                for g0, g1 in zip(bps, bps[1:])])
                for (lo, hi), bps in zip(box, G.axes)]
    return _contract(values, overlaps)


def pair_with_pullback(params: BakerParams, F: PCFun3D, G: PCFun3D,
                       n: int) -> Fraction:
    """Exact <F, G o f^n>: boxes carrying F-values are pushed forward n times
    (splitting at region boundaries; branch maps are diagonal so boxes stay
    boxes) and finally integrated against G.  Independent of p_full_3d."""
    M, a = params.M, params.a
    u_cuts = [k * a for k in range(1, M + 1)]
    c_cuts = [Fraction(k, M) for k in range(1, M)]
    affines = {(s.kind, s.k): branch_affine(params, s)
               for s in all_symbols(params)}

    boxes = []
    for i, (u0, u1) in enumerate(zip(F.bps_u, F.bps_u[1:])):
        for j, (c0, c1) in enumerate(zip(F.bps_c, F.bps_c[1:])):
            for k, (s0, s1) in enumerate(zip(F.bps_s, F.bps_s[1:])):
                v = F.values[i][j][k]
                if v:
                    boxes.append((((u0, u1), (c0, c1), (s0, s1)), v))

    for _ in range(n):
        nxt = []
        for (bu, bc, bs), v in boxes:
            for u0, u1 in _split_interval(*bu, u_cuts):
                mid_u = (u0 + u1) / 2
                if mid_u < M * a:
                    kk = int(mid_u / a) + 1
                    (mu, cu), (mc, cc), (ms, cs) = affines[(Kind.ALPHA, kk)]
                    nxt.append((((mu * u0 + cu, mu * u1 + cu),
                                 (mc * bc[0] + cc, mc * bc[1] + cc),
                                 (ms * bs[0] + cs, ms * bs[1] + cs)), v))
                else:
                    for c0, c1 in _split_interval(*bc, c_cuts):
                        kk = min(int((c0 + c1) / 2 * M) + 1, M)
                        (mu, cu), (mc, cc), (ms, cs) = affines[(Kind.BETA, kk)]
                        nxt.append((((mu * u0 + cu, mu * u1 + cu),
                                     (mc * c0 + cc, mc * c1 + cc),
                                     (ms * bs[0] + cs, ms * bs[1] + cs)), v))
        boxes = nxt
    values = _lattice(G.values)
    return sum((v * _box_integral(G, values, box) for box, v in boxes), ZERO)


def check_duality(params: BakerParams, F: PCFun3D, G: PCFun3D,
                  n: int) -> bool:
    """<P^n F, G> == <F, G o f^n> exactly, through two independent routes."""
    lhs = inner_product_3d(p_full_3d_n(params, F, n), G)
    return lhs == pair_with_pullback(params, F, G, n)


def run_identity_suite(seed: int = 7, n_functions: int = 3,
                       n_compose: int = 2, n_reduce: int = 3) -> dict:
    """Quick exact-identity sweep used by `heterobaker verify-identities`."""
    params = BakerParams.neutral(2)
    rng = np.random.Generator(np.random.Philox(key=seed))
    results = {"phat_sum": [], "formula_first": [], "formula_second": [],
               "reduction": []}
    for _ in range(n_functions):
        F = random_pc3(rng)
        results["phat_sum"].append(check_phat_sum(params, F))
        ok1, ok2 = check_formula_compositions(params, F, n_compose)
        results["formula_first"].append(ok1)
        results["formula_second"].append(ok2)
    for level in (1, 2):
        f = random_pc1(rng, level)
        results["reduction"].append(check_reduction(params, f, n_reduce))
    results["passed"] = all(all(v) for v in results.values())
    return results
