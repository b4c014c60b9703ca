"""Correlation experiments: exact operator routes, Monte Carlo, rate fits.

The exact reduced routes compute <P0^n phi, psi> for observables of the
center coordinate.  On the square-wave span the coefficient vector obeys
the absorbed-walk recursion (`ruin.walk_step`), distinct levels are
orthonormal, and the pairing is a dot product.  In rational mode the state
is a vector of Python ints with one Fraction scale: a step runs the walk
with (up, down) = (wp, wq - wp) for w = wp/wq and divides the scale by wq,
and a pairing is one integer dot product times the two scales.

Geometric tails (affine observables project to a_l = c r^l with r = 1/2)
are handled in closed form: as long as the truncation level L satisfies
L >= n, walkers starting above L never feel the wall, so the
truncated-tail contribution is exactly

    c_phi c_psi kappa^n r^(2(L+1)) / (1 - r^2),   kappa = w r + (1-w)/r.

In double mode the same step runs on floats with (w, 1 - w); the state is
truncated at a fixed depth and the discarded tail is bounded through the
L2 contraction of the reduced operator.

Monte Carlo samples the exact joint law of (x, f^n x) for x ~ Lebesgue:
branch symbols of the expanding coordinate are i.i.d., the expanding
coordinate itself is reconstructed backward through the contracting
inverse branches, and the remaining coordinates run forward.  This
sidesteps the mantissa exhaustion that makes naive float orbits of
dyadic-slope maps collapse, and it uses common random numbers across n
(one orbit per sample, all time slices read from it).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy import stats as _scipy_stats

from .baker import BakerParams
from .observables import Observable3D
from .pcfun import ZERO
from .ruin import _to_int_vector, walk_step
from .transfer import (NotInSquareWaveSpan, ReducedOp, p0_haar_apply,
                       square_wave_profile)

HALF = Fraction(1, 2)


class NotMeasurePreserving(ValueError):
    pass


class NonPositiveValue(ValueError):
    pass


class NotMonotone(ValueError):
    pass


class TruncationBudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class CorrelationRecord:
    n: int
    value: float
    method: str                      # exact-squarewave | exact-haar | monte-carlo
    error: float                     # truncation bound / standard error
    exact: Fraction | None = None    # rational value when the route is exact


# ---------------------------------------------------------------------------
# exact reduced routes

def _squarewave_profile(obs: Observable3D):
    """(intrinsic coefficients, geometric tail coefficient c).

    Affine observables have a_l = c * (1/2)^l at every level (c = -m/2 for
    slope m; the observable is centered first, correlations are mean-free),
    returned as an empty list plus the tail coefficient.  PC observables
    return their finite profile and no tail.
    """
    if obs.xc_affine is not None:
        m, _ = obs.xc_affine
        return [], -m * HALF
    if obs.xc_pc is not None:
        from .haar import analyze
        from .pcfun import project_zero_mean
        prof = square_wave_profile(analyze(project_zero_mean(obs.xc_pc)))
        if prof is None:
            raise NotInSquareWaveSpan(
                f"{obs.name}: per-level Haar coefficients are not constant in k")
        return prof, ZERO
    raise NotInSquareWaveSpan(f"{obs.name} is not an exact x_c observable")


def _materialize(prof, c_tail, L: int):
    out = list(prof[:L]) + [ZERO] * max(0, L - len(prof))
    if c_tail:
        for l in range(len(prof) + 1, L + 1):
            out[l - 1] = c_tail * HALF ** l
    return out


def exact_reduced_correlation(phi: Observable3D, psi: Observable3D,
                              n_max: int, op: ReducedOp | None = None,
                              mode: str = "squarewave",
                              numeric: str = "rational",
                              truncation_level: int | None = None) -> list:
    """Series <P0^n phi, psi> for n = 0..n_max, exact per mode.

    squarewave: both observables must lie in the span of s_l; rational
    numeric is exact including geometric tails, double numeric attaches an
    L2 truncation bound.  haar: both observables must be PC in x_c; the
    sparse coefficient route (exact, no truncation).
    """
    op = op or ReducedOp.neutral(2)
    if mode == "haar":
        return _haar_series(phi, psi, n_max, op, truncation_level)
    if mode != "squarewave":
        raise ValueError("mode must be 'squarewave' or 'haar'")
    op.require_m2("square-wave subspace")
    prof_phi, c_phi = _squarewave_profile(phi)
    prof_psi, c_psi = _squarewave_profile(psi)
    pc_depth = max(len(prof_phi), len(prof_psi))
    if numeric == "rational":
        # with L >= n_max + PC depth, the discarded geometric tail evolves as
        # a free walk and can only pair against geometric coefficients; its
        # contribution is the closed form below and the series is exact
        L = n_max + 2 + pc_depth
        state, den_a = _to_int_vector(_materialize(prof_phi, c_phi, L))
        b, den_b = _to_int_vector(_materialize(prof_psi, c_psi, L + n_max + 1))
        state, b = state.astype(object), b.astype(object)
        scale = Fraction(1, den_a * den_b)
        wp, wq = op.w.numerator, op.w.denominator
        r = HALF
        kappa = op.w * r + (1 - op.w) / r
        tail_scale = c_phi * c_psi * r ** (2 * (L + 1)) / (1 - r * r)
        out = []
        for n in range(n_max + 1):
            val = int(state @ b[:state.size]) * scale + tail_scale * kappa ** n
            out.append(CorrelationRecord(n, float(val), "exact-squarewave",
                                         0.0, val))
            if n < n_max:
                state = walk_step(state, wp, wq - wp)
                scale /= wq
        return out
    if numeric != "double":
        raise ValueError("numeric must be 'rational' or 'double'")
    L = max(64, truncation_level or 0, pc_depth)
    depth = L + n_max + 1
    arr = np.array([float(x) for x in _materialize(prof_phi, c_phi, L)])
    b = _materialize(prof_psi, c_psi, depth)
    brr = np.array([float(x) for x in b])
    # discarded-tail bound: ||tail of phi||_2 ||psi||_2 via L2 contraction
    tail_l2 = abs(float(c_phi)) * 0.5 ** (L + 1) / math.sqrt(0.75)
    psi_l2 = math.sqrt(float(sum((x * x for x in b), ZERO)) +
                       float(c_psi) ** 2 * 0.25 ** (depth + 1) / 0.75)
    w = float(op.w)
    out = []
    state = arr
    for n in range(n_max + 1):
        val = float(state @ brr[:state.size])
        err = tail_l2 * psi_l2 + 1e-15 * (n + 1) * abs(val)
        out.append(CorrelationRecord(n, val, "exact-squarewave", err))
        if n < n_max:
            state = walk_step(state, w, 1 - w)
    return out


def _haar_pc_of(obs: Observable3D, level: int | None):
    """(PC representative, L2 norm of the discarded tail) for the haar route.

    PC observables are exact.  Affine observables are projected onto the
    dyadic level-L cell averages; the tail phi - phi_L has the closed-form
    L2 norm |m| 2^-L / sqrt(12), and pairings against it are bounded via
    the L2 contraction of the reduced operator.
    """
    from .pcfun import from_affine, project_zero_mean
    if obs.xc_pc is not None:
        return project_zero_mean(obs.xc_pc), 0.0
    if obs.xc_affine is not None:
        if level is None:
            raise TruncationBudgetExceeded(
                f"{obs.name}: the haar route needs an explicit "
                "truncation_level for non-PC observables")
        m, _ = obs.xc_affine
        tail = abs(float(m)) * 2.0 ** (-level) / math.sqrt(12.0)
        return from_affine(m, -m * HALF, level), tail
    raise ValueError(f"{obs.name} is not an exact x_c observable")


def _haar_series(phi: Observable3D, psi: Observable3D, n_max: int,
                 op: ReducedOp, truncation_level: int | None) -> list:
    from .haar import analyze, pair_expansions
    from .pcfun import inner_product
    f, tail_f = _haar_pc_of(phi, truncation_level)
    g, tail_g = _haar_pc_of(psi, truncation_level)
    norm_f = math.sqrt(float(inner_product(f, f))) + tail_f
    norm_g = math.sqrt(float(inner_product(g, g))) + tail_g
    err = tail_f * norm_g + norm_f * tail_g
    exact_route = err == 0.0
    cur = analyze(f)
    target = analyze(g)
    out = []
    for n in range(n_max + 1):
        val = pair_expansions(cur, target)
        out.append(CorrelationRecord(n, float(val), "exact-haar", err,
                                     val if exact_route else None))
        if n < n_max:
            cur = p0_haar_apply(cur, op, 1)
    return out


# ---------------------------------------------------------------------------
# Monte Carlo over the exact joint law

SHARD_SIZE = 1 << 14


def _shard_plan(samples: int) -> list[tuple[int, int]]:
    """Fixed-size shards (the last may be partial), a deterministic function
    of the sample count alone: the decomposition, and hence every reduction
    order, is identical for any worker count.  At least ~16 full shards, so
    batch-means standard errors are always defined."""
    size = min(SHARD_SIZE, max(samples // 16, 625))
    plan = []
    left, idx = samples, 0
    while left > 0:
        take = min(size, left)
        plan.append((idx, take))
        left -= take
        idx += 1
    return plan


def _simulate_shard(params: BakerParams, n_list: Sequence[int], n_max: int,
                    size: int, key: tuple[int, int], phi: Observable3D,
                    psi: Observable3D):
    """One shard: (sum phi, sum psi at time 0, {n: sum phi*psi_n}, end state)."""
    rng = np.random.Generator(np.random.Philox(key=key))
    M = params.M
    a, b = float(params.a), float(params.b)
    Ma, Mb = M * a, M * b

    if n_max:
        u = rng.random((size, n_max))
        symbols = np.where(u < Ma, np.minimum((u / a).astype(np.int64), M - 1),
                           M).astype(np.int8)
    xu_end = rng.random(size)
    xc = rng.random(size)
    xs = rng.random(size)

    want = set(n_list)
    xu_at = {}
    if n_max:
        cur = xu_end
        if n_max in want:
            xu_at[n_max] = cur
        for i in range(n_max - 1, -1, -1):
            w = symbols[:, i]
            alpha = w < M
            cur = np.where(alpha, a * (cur + w), (1.0 - Ma) * cur + Ma)
            if i in want or i == 0:
                xu_at[i] = cur
    else:
        xu_at[0] = xu_end

    phi0 = np.asarray(phi(xu_at[0], xc, xs), dtype=float)
    psi0 = np.asarray(psi(xu_at[0], xc, xs), dtype=float)
    per_n = {}
    if 0 in want:
        per_n[0] = float((phi0 * psi0).sum())
    for i in range(n_max):
        w = symbols[:, i]
        alpha = w < M
        k = np.minimum((xc * M).astype(np.int64), M - 1)
        xc = np.where(alpha, xc / M + w.clip(0, M - 1) / M, M * xc - k)
        xs = np.where(alpha, (1.0 - Mb) * xs, b * xs + 1.0 + b * (k + 1 - M - 1))
        t = i + 1
        if t in want:
            psin = np.asarray(psi(xu_at[t], xc, xs), dtype=float)
            per_n[t] = float((phi0 * psin).sum())
    return float(phi0.sum()), float(psi0.sum()), per_n, (xu_at.get(n_max), xc, xs)


def mc_correlation_series(params: BakerParams, phi: Observable3D,
                          psi: Observable3D, n_list: Sequence[int],
                          samples: int, seed: int,
                          workers: int = 1) -> dict:
    """Cor(phi, psi o f^n) estimates with batch-means standard errors.

    Shards of fixed size are keyed by (seed, shard index) on a Philox
    counter generator, so results are byte-identical for a given (config,
    seed) regardless of worker count.  Common random numbers: every n in
    n_list is read off the same orbit.
    """
    if not params.is_measure_preserving:
        raise NotMeasurePreserving("Monte Carlo pairing assumes a + b = 1/M")
    if samples < 10 ** 4:
        raise ValueError("use at least 10^4 samples")
    n_list = sorted(set(int(n) for n in n_list))
    n_max = max(n_list)
    shards = _shard_plan(samples)

    def run(entry):
        sidx, size = entry
        return size, _simulate_shard(params, n_list, n_max, size,
                                     (seed, sidx), phi, psi)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, shards))
    else:
        results = [run(s) for s in shards]

    tot_phi = sum(r[1][0] for r in results)
    tot_psi0 = sum(r[1][1] for r in results)
    out = {}
    for n in n_list:
        tot_prod = sum(r[1][2][n] for r in results)
        estimate = tot_prod / samples - (tot_phi / samples) * (tot_psi0 / samples)
        # batch means over the full-size shards
        full = max(size for size, _ in results)
        vals = []
        for size, (sphi, spsi0, per_n, _) in results:
            if size != full:
                continue
            vals.append(per_n[n] / size - (sphi / size) * (spsi0 / size))
        vals = np.asarray(vals)
        stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 \
            else float("nan")
        out[n] = CorrelationRecord(n, estimate, "monte-carlo", stderr)
    return out


def mc_correlation(params: BakerParams, phi: Observable3D, psi: Observable3D,
                   n: int, samples: int, seed: int,
                   workers: int = 1) -> tuple[float, float]:
    rec = mc_correlation_series(params, phi, psi, [n], samples, seed,
                                workers)[n]
    return rec.value, rec.error


def measure_invariance_chisq(params: BakerParams, n: int = 50,
                             samples: int = 10 ** 6, seed: int = 0,
                             boxes: int = 8, workers: int = 1) -> dict:
    """Chi-square uniformity test of f^n(uniform) on a boxes^3 grid.

    Passes (p-value above threshold) iff the parameters preserve Lebesgue
    measure, up to the usual statistical caveats; the threshold is far in
    the tail so measure-preserving parameters essentially never fail.
    """
    ident = Observable3D("one", lambda xu, xc, xs: np.ones_like(xc))
    shards = _shard_plan(samples)
    counts = np.zeros((boxes, boxes, boxes), dtype=np.int64)

    def run(entry):
        sidx, size = entry
        _, _, _, (xu, xc, xs) = _simulate_shard(params, [n], n, size,
                                                (seed, sidx), ident, ident)
        iu = np.minimum((xu * boxes).astype(np.int64), boxes - 1)
        ic = np.minimum((xc * boxes).astype(np.int64), boxes - 1)
        isx = np.minimum((xs * boxes).astype(np.int64), boxes - 1)
        hist = np.zeros((boxes, boxes, boxes), dtype=np.int64)
        np.add.at(hist, (iu, ic, isx), 1)
        return hist

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for h in pool.map(run, shards):
                counts += h
    else:
        for s in shards:
            counts += run(s)

    expected = samples / boxes ** 3
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = boxes ** 3 - 1
    pvalue = float(_scipy_stats.chi2.sf(stat, dof))
    return {"statistic": stat, "dof": dof, "pvalue": pvalue,
            "passed": pvalue > 1e-9}


# ---------------------------------------------------------------------------
# decay-rate fits

def _window(series, n_window) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = n_window
    ns, vs = [], []
    for rec in series:
        if lo <= rec.n <= hi:
            ns.append(rec.n)
            vs.append(rec.value)
    if len(ns) < 3:
        raise ValueError("window too small for a fit")
    v = np.asarray(vs, dtype=float)
    if np.any(v <= 0):
        raise NonPositiveValue("fit window contains non-positive values")
    return np.asarray(ns, dtype=float), v


def decay_slope_fit(series, n_window) -> dict:
    """Least squares of log value against log n; residual is the sum of
    squared log residuals.  Also returns n^(3/2) * value for plateau
    inspection."""
    ns, vs = _window(series, n_window)
    x, y = np.log(ns), np.log(vs)
    (slope, intercept), res = np.polyfit(x, y, 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    plateau = [(int(n), float(n ** 1.5 * v)) for n, v in zip(ns, vs)]
    return {"slope": float(slope), "intercept": float(intercept),
            "residual": residual, "plateau": plateau}


def exp_rate_fit(series, n_window) -> dict:
    """Least squares of log value against n; lambda = exp(slope)."""
    ns, vs = _window(series, n_window)
    y = np.log(vs)
    (slope, intercept), res = np.polyfit(ns, y, 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    return {"rate": float(math.exp(slope)), "intercept": float(intercept),
            "residual": residual}


def lower_bound_check(phi: Observable3D, psi: Observable3D, n_max: int,
                      op: ReducedOp | None = None) -> dict:
    """Constant-sign and inf n^(3/2)|<P0^n phi, psi>| report for strictly
    monotone center observables.

    Monotonicity is certified through the coefficient signs of a dyadic
    projection: strictly increasing functions have all-negative raw Haar
    coefficients, decreasing all-positive.
    """
    from .haar import analyze
    from .pcfun import from_affine, project_zero_mean

    def signature(obs: Observable3D) -> int:
        if obs.xc_affine is not None:
            pc = from_affine(*obs.xc_affine, level=8)
        elif obs.xc_pc is not None:
            pc = obs.xc_pc
        else:
            raise NotMonotone(f"{obs.name} is not an x_c observable")
        exp = analyze(project_zero_mean(pc))
        if exp and all(c < 0 for c in exp.values()):
            return 1     # increasing
        if exp and all(c > 0 for c in exp.values()):
            return -1    # decreasing
        raise NotMonotone(f"{obs.name}: coefficient signs are mixed")

    s_phi, s_psi = signature(phi), signature(psi)
    series = exact_reduced_correlation(phi, psi, n_max, op=op,
                                       mode="squarewave", numeric="double")
    expected_sign = 1 if s_phi == s_psi else -1
    signs_ok = all((rec.value > 0) == (expected_sign > 0)
                   for rec in series if rec.n >= 1)
    scaled = [(rec.n, rec.n ** 1.5 * abs(rec.value))
              for rec in series if rec.n >= 1]
    inf_scaled = min(v for _, v in scaled)
    return {"expected_sign": expected_sign, "signs_constant": signs_ok,
            "inf_scaled": inf_scaled, "scaled_tail": scaled[-5:]}
