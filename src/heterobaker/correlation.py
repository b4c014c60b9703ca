"""Correlation experiments: exact operator routes, Monte Carlo, rate fits.

The exact reduced routes compute <P0^n phi, psi> for observables of the
center coordinate.  On the square-wave span the coefficient vector obeys
the absorbed walk a'_l = w a_(l-1) + (1-w) a_(l+1), level 0 absorbed, and
distinct levels are orthonormal.  The mass the walk loses to the wall at
each step (its flux) fixes every pairing, so the square-wave route streams
that flux as integers, from the ruin-time law for a finite profile and
from a Catalan recurrence for the geometric profile c 2^-l of an affine
observable, and pairs it in O(1) or O(depth of psi) integer operations
per n.  Each value is one correctly rounded int / int, the same float in
both numeric modes; rational mode also keeps the Fraction.

Monte Carlo samples the exact joint law of (x, f^n x) for x ~ Lebesgue:
branch symbols of the expanding coordinate are i.i.d., the expanding
coordinate itself is reconstructed backward through the contracting
inverse branches, and the remaining coordinates run forward.  This
sidesteps the mantissa exhaustion that makes naive float orbits of
dyadic-slope maps collapse, and it uses common random numbers across n
(one orbit per sample, all time slices read from it).  The passes compute
only the coordinates the observables read (`Observable3D.reads`): the
backward pass runs only for an observable of x_u, and the forward x_s
update only for one of x_s or for the chi-square test's end state.  The
draws are the same either way, so the estimates are too.

Samples come in fixed-size shards, each drawn from its own Philox streams
keyed by (seed, shard index): one for the initial state and one per
64-step itinerary chunk, whose symbols follow the exact law
(`baker.symbol_law`).  A worker thread simulates a batch of whole
consecutive shards in one vectorised pass, drawing the itinerary a chunk
at a time (in reverse for the backward pass) instead of storing it.  A
batch holds at most _BATCH_BYTES (4 MiB) of per-sample state or a single
shard, so its memory grows with neither the sample count nor n_max.  Sums
are still reduced shard by shard in shard order, so estimates and
batch-means errors are byte-identical for any worker count.
"""

from __future__ import annotations

import collections
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .baker import BakerParams, NotMeasurePreserving, check_seed, symbol_law
from .observables import Observable3D
from .pcfun import ZERO, _at_least
from .transfer import (NotInSquareWaveSpan, ReducedOp, p0_haar_step,
                       square_wave_levels)

HALF = Fraction(1, 2)
_HAAR_MAX_LEVEL = 20      # deepest level the Haar route may reach


class NonPositiveValue(ValueError):
    pass


class NotMonotone(ValueError):
    pass


class TruncationBudgetExceeded(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class CorrelationRecord:
    n: int
    value: float
    method: str                      # exact-squarewave | exact-haar | monte-carlo
    error: float                     # Monte Carlo standard error; 0.0 if exact
    exact: Fraction | None = None    # rational value when the route is exact


# ---------------------------------------------------------------------------
# exact reduced routes

def _squarewave_profile(obs: Observable3D):
    """(intrinsic level numerators, their denominator, geometric tail
    coefficient c).

    Affine observables have a_l = c * (1/2)^l at every level (c = -m/2 for
    slope m; the observable is centered first, correlations are mean-free),
    returned as no levels plus the tail coefficient.  PC observables return
    their finite profile, level l + 1 being nums[l] / den, and no tail.
    """
    if obs.xc_affine is not None:
        m, _ = obs.xc_affine
        return [], 1, -m * HALF
    if obs.xc_pc is not None:
        from .haar import analyze_levels
        from .pcfun import project_zero_mean
        levels, scale = analyze_levels(project_zero_mean(obs.xc_pc))
        sw = square_wave_levels(levels)
        if sw is None:
            raise NotInSquareWaveSpan(
                f"{obs.name}: per-level Haar coefficients are not constant in k")
        return [int(c) * scale.numerator for c in sw], scale.denominator, ZERO
    raise NotInSquareWaveSpan(f"{obs.name} is not an exact x_c observable")


def _pc_flux(nums, p: int, q: int):
    """(2q)^m times the mass the profile nums (level l is nums[l - 1]) loses
    to the wall at step m = 1, 2, ..., for w = p/q.

    From level l the walk is absorbed at step m with probability
    f_l(m) = (l/m) C(m, j) w^j (1-w)^(j+l), j = (m - l)/2 (Feller XIV), so
    (2q)^m f_l(m) is an integer, (2(q - p))^l at m = l, and from m to m + 2
    it gains the factor m (m + 1) 4p(q - p) / ((j + 1)(j + l + 1)).
    """
    term = {}                    # (2q)^m f_l(m) at the last m of l's parity
    for m in itertools.count(1):
        x = 0
        for l in range(2 - m % 2, min(m, len(nums)) + 1, 2):
            j = (m - l) // 2
            term[l] = (2 * (q - p)) ** l if j == 0 else \
                term[l] * (m - 2) * (m - 1) * 4 * p * (q - p) // (j * (j + l))
            x += nums[l - 1] * term[l]
        yield x


def _geometric_flux(p: int, q: int):
    """(2q)^m times the mass the profile 2^-l loses to the wall at step
    m = 1, 2, ..., for w = p/q: its generating function E(t) solves
    E(t) (1 - (2w + (1-w)/2) t) = (1-w) t/2 - (1 - sqrt(1 - 4w(1-w)t^2))/2,
    whose root has the coefficients -2 Cat_(k-1) (w(1-w))^k at t^2k."""
    u = 4 * p * (q - p)
    y, cat = 0, u                # cat = Cat_(k-1) u^k for the next m = 2k
    for m in itertools.count(1):
        y = (3 * p + q) * y + (q - p if m == 1 else 0)
        if m % 2 == 0:
            y -= cat
            cat = cat * (2 * m - 2) * u // (m // 2 + 1)
        yield y


def _squarewave_series(prof_phi, prof_psi, n_max: int, w: Fraction):
    """(numerator, positive denominator) of <P0^n phi, psi>, n = 0..n_max.

    The walk's flux into the wall, fl_m = X_m / (D (2q)^m), fixes every
    pairing.  Against psi = c 2^-l, C_(n+1) = kappa C_n - c fl_(n+1) with
    kappa = w/2 + 2(1 - w).  Against psi of depth Q the levels 1..Q of the
    state are read off the flux: level 1 at time n is fl_(n+1) / (1-w),
    and the walk step read backwards, a_(k+1) = (a'_k - w a_(k-1)) / (1-w)
    with a' the next state, gives the levels above, one anti-diagonal
    (time + level = d) per flux value.  Scaled by D q^n 2^(n+k) the levels
    are integers and each division is exact.
    """
    p, q = w.numerator, w.denominator
    nums, den, c = prof_phi
    if c:
        flux = (c.numerator * y for y in _geometric_flux(p, q))
        den = c.denominator
    else:
        flux = _pc_flux(nums, p, q)
    b_nums, b_den, c_psi = prof_psi
    if c_psi or not b_nums:
        # <a^(n), 2^-l> = z / (den t (2q)^n)
        g = sum((Fraction(a, 1 << l) for l, a in enumerate(nums, 1)),
                Fraction(c.numerator, 3))
        t, z = g.denominator, g.numerator
        scale = c_psi.denominator * den * t
        yield c_psi.numerator * z, scale
        for _, x in zip(range(n_max), flux):
            z = (4 * q - 3 * p) * z - t * x
            scale *= 2 * q
            yield c_psi.numerator * z, scale
        return
    depth = len(b_nums)
    weights = [b << (depth - k) for k, b in enumerate(b_nums, 1)]
    scale = den * b_den << depth
    diags = collections.deque(maxlen=max(depth, 2))
    for d, x in enumerate(flux, 1):
        # diag[k] is level k + 1 at time d - 1 - k
        below = [0, *diags[-2]] if len(diags) > 1 else [0]
        diag = [x // (q - p)]
        for k in range(1, min(depth, d)):
            diag.append((diag[k - 1] - 4 * p * below[k - 1]) // (q - p))
        diags.append(diag)
        if d >= depth:           # time d - depth has all its levels
            yield sum(b * diags[k - depth][k]
                      for k, b in enumerate(weights)), scale
            if d - depth == n_max:
                return
            scale *= 2 * q


def exact_reduced_correlation(phi: Observable3D, psi: Observable3D,
                              n_max: int, op: ReducedOp | None = None,
                              mode: str = "squarewave",
                              numeric: str = "rational") -> list:
    """Series <P0^n phi, psi> for n = 0..n_max, exact in either mode, each
    record with error 0.0; n_max must be at least 0.

    squarewave: both observables must lie in the span of s_l.  Every value
    is the correctly rounded exact value; rational numeric also attaches
    the exact Fraction.  haar: both observables must be PC in x_c; the
    Haar-level route attaches the Fraction too, and is refused when an
    observable's dyadic depth plus n_max would pass level 20.
    """
    _at_least(n_max, 0, "n_max")
    op = op or ReducedOp.neutral(2)
    if mode == "haar":
        return _haar_series(phi, psi, n_max, op)
    if mode != "squarewave":
        raise ValueError("mode must be 'squarewave' or 'haar'")
    if numeric not in ("rational", "double"):
        raise ValueError("numeric must be 'rational' or 'double'")
    op.require_m2("square-wave subspace")
    series = _squarewave_series(_squarewave_profile(phi),
                                _squarewave_profile(psi), n_max, op.w)
    return [CorrelationRecord(n, num / den, "exact-squarewave", 0.0,
                              Fraction(num, den) if numeric == "rational"
                              else None)
            for n, (num, den) in enumerate(series)]


def _haar_pc_of(obs: Observable3D, n_max: int):
    """The zero-mean PC function of x_c that the haar route steps, refused
    before anything is built when its dyadic depth plus n_max passes
    level 20."""
    from .haar import dyadic_level
    from .pcfun import project_zero_mean
    if obs.xc_pc is None:
        hint = "; use the square-wave route for an affine one" \
            if obs.xc_affine is not None else ""
        raise ValueError(f"{obs.name}: the haar route takes PC observables "
                         f"of x_c only{hint}")
    depth = dyadic_level(obs.xc_pc)
    if depth + n_max > _HAAR_MAX_LEVEL:
        # each step doubles the state; level 20 alone is 2^19 Python ints
        raise TruncationBudgetExceeded(
            f"{obs.name}: n_max = {n_max} on depth {depth} would take the "
            f"haar route to level {depth + n_max}, past its limit of "
            f"{_HAAR_MAX_LEVEL}; lower n_max or use the square-wave route")
    return project_zero_mean(obs.xc_pc)


def _haar_series(phi: Observable3D, psi: Observable3D, n_max: int,
                 op: ReducedOp) -> list:
    """Step the Haar levels of phi and pair them with those of psi as
    sum_l (a_l . b_l) 2^(1-l) times the two scales."""
    from .haar import analyze_levels
    a, scale = analyze_levels(_haar_pc_of(phi, n_max))
    b, scale_b = analyze_levels(_haar_pc_of(psi, n_max))
    scale *= scale_b
    out = []
    for n in range(n_max + 1):
        # level l = i + 1 pairs with weight 2^(1-l)
        val = scale * sum((Fraction(int(x @ y), 1 << i)
                           for i, (x, y) in enumerate(zip(a[1:], b[1:]))), ZERO)
        out.append(CorrelationRecord(n, float(val), "exact-haar", 0.0, val))
        if n < n_max:
            a = p0_haar_step(a, op)
            scale /= 2 * op.w.denominator
    return out


# ---------------------------------------------------------------------------
# Monte Carlo over the exact joint law

SHARD_SIZE = 1 << 14
_BATCH_BYTES = 1 << 22    # per-sample state of one batch, see _batch_plan
_WORK_FLOATS = 16        # float64 working arrays of the passes, an upper estimate
_CHUNK = 64              # itinerary steps drawn per (shard, chunk) generator


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


def _batch_plan(shards: list[tuple[int, int]], n_max: int, kept: int,
                workers: int, itemsize: int = 1) -> list[list[tuple[int, int]]]:
    """Split the shard plan into batches of whole consecutive shards.

    A batch holds at most _BATCH_BYTES of per-sample state (one itinerary
    chunk of min(n_max, _CHUNK) symbols of `itemsize` bytes, one while a's
    denominator is at most 256; `kept` stored x_u slices; the float
    working arrays of the passes) or a single shard, so its memory grows
    with neither the sample count nor n_max.  On top of it, drawing a
    chunk holds one shard's draws, _CHUNK x shard size x itemsize (1 MiB
    at most for one-byte symbols).  There are at least `workers` batches
    when there are that many shards, and batch sizes differ by at most one
    shard.
    """
    per_sample = min(n_max, _CHUNK) * itemsize + 8 * (kept + _WORK_FLOATS)
    cap = max(1, _BATCH_BYTES // (shards[0][1] * per_sample))
    count = min(len(shards), max(workers, -(-len(shards) // cap)))
    q, r = divmod(len(shards), count)
    out, lo = [], 0
    for j in range(count):
        hi = lo + q + (j < r)
        out.append(shards[lo:hi])
        lo = hi
    return out


def _evaluate(obs: Observable3D, xu, xc, xs) -> np.ndarray:
    """obs at each sample, as floats; an observable that reads no coordinate
    returns one value, which every sample gets."""
    return np.broadcast_to(np.asarray(obs(xu, xc, xs), dtype=float), xc.shape)


def _symbols(u: np.ndarray, p: int, M: int) -> np.ndarray:
    """The symbols min(U // p, M) of draws U under `symbol_law`, in place."""
    np.floor_divide(u, p, out=u)
    return np.minimum(u, M, out=u)


def _itinerary_chunk(out: np.ndarray, keys: list, bounds: list, chunk: int,
                     law: tuple, M: int) -> np.ndarray:
    """The symbols of itinerary chunk `chunk` of a batch into `out`, step
    major (rows = the chunk's steps, columns = the batch's samples).

    Shard j (key keys[j], columns bounds[j]) makes one draw of rows x size
    integers in [0, q) from Philox(key, counter=[0, 0, chunk + 1, 0]);
    splitting it into several calls would change the stream.
    """
    _, q, dtype = law
    for key, (lo, hi) in zip(keys, bounds):
        rng = np.random.Generator(np.random.Philox(
            key=key, counter=[0, 0, chunk + 1, 0]))
        out[:, lo:hi] = rng.integers(0, q, size=(out.shape[0], hi - lo),
                                     dtype=dtype)
    return _symbols(out, law[0], M)


def _simulate_batch(params: BakerParams, law: tuple,
                    batch: list[tuple[int, int]], seed: int,
                    n_list: Sequence[int], phi: Observable3D,
                    psi: Observable3D, end_state: bool = False):
    """Consecutive shards of the same stream in one vectorised pass.

    `law` is `symbol_law(params)`.  Shard `sidx` is keyed by
    key = (seed, sidx); Philox(key) at counter 0 draws x_u at time n_max,
    x_c and x_s.  The itinerary is never stored whole: chunk c, steps
    [64c, min(64c + 64, n_max)), is drawn by `_itinerary_chunk` when a
    pass reaches it, the forward pass in order and the backward x_u pass
    again in reverse.  Every step of either pass runs once over the whole
    batch on a contiguous row of the chunk.  The passes compute a
    coordinate only where it is needed: the backward pass runs only when
    phi or psi reads x_u, the forward x_s update only when one reads x_s or
    `end_state` is set, and an unread coordinate is passed to the
    observables as drawn.
    Returns the per-shard sums
    [(size, sum phi, sum psi at time 0, {n: sum phi*psi_n})] and, with
    `end_state`, the batch's state (x_u, x_c, x_s) at time
    n_max = max(n_list).
    """
    M = params.M
    a, b = float(params.a), float(params.b)
    Ma, Mb = M * a, M * b
    n_max = max(n_list)
    total = sum(size for _, size in batch)
    xu_end, xc, xs = np.empty(total), np.empty(total), np.empty(total)
    keys, bounds, lo = [], [], 0
    for sidx, size in batch:
        # an explicit uint64 key: numpy reads the tuple (seed, sidx) as
        # float64 once seed >= 2^63, which rounds the seed
        key = np.array([seed, sidx], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        hi = lo + size
        for arr in (xu_end, xc, xs):
            rng.random(out=arr[lo:hi])
        keys.append(key)
        bounds.append((lo, hi))
        lo = hi
    buf = np.empty((min(n_max, _CHUNK), total), dtype=law[2])

    def chunk(c):
        """(first step, symbols) of chunk c for the whole batch."""
        first = c * _CHUNK
        rows = buf[:min(_CHUNK, n_max - first)]
        return first, _itinerary_chunk(rows, keys, bounds, c, law, M)

    def shard_sums(v):
        return [float(v[lo:hi].sum()) for lo, hi in bounds]

    chunks = range(-(-n_max // _CHUNK))
    want = set(n_list)
    reads = phi.reads | psi.reads
    xu_at = {}
    cur = xu_end
    # down to time 0 whenever x_u is read: psi at time 0 enters the centering
    if "xu" in reads:
        for c in reversed(chunks):
            first, itin = chunk(c)
            for i in range(itin.shape[0] - 1, -1, -1):
                if first + i + 1 in want and "xu" in psi.reads:
                    xu_at[first + i + 1] = cur
                w = itin[i]
                cur = np.where(w < M, a * (cur + w), (1.0 - Ma) * cur + Ma)

    phi0 = _evaluate(phi, cur, xc, xs)
    psi0 = _evaluate(psi, cur, xc, xs)
    per_n = {0: shard_sums(phi0 * psi0)} if 0 in want else {}
    step_xs = end_state or "xs" in reads
    for c in chunks:
        first, itin = chunk(c)
        for i, w in enumerate(itin, start=first + 1):
            # k = min(floor(M xc), M - 1) held as a float, so M xc - k and
            # b (k - M) round as with an integer k; where alpha selects it,
            # w / M equals clip(w, 0, M - 1) / M
            y = xc * M
            k = np.floor(y)
            np.minimum(k, M - 1, out=k)
            alpha = w < M
            xc = np.where(alpha, xc / M + w / M, y - k)
            if step_xs:
                xs = np.where(alpha, (1.0 - Mb) * xs, b * xs + 1.0 + b * (k - M))
            if i in want:
                psin = _evaluate(psi, xu_at.pop(i, xu_end), xc, xs)
                per_n[i] = shard_sums(phi0 * psin)
    sphi, spsi0 = shard_sums(phi0), shard_sums(psi0)
    sums = [(size, sphi[j], spsi0[j], {n: v[j] for n, v in per_n.items()})
            for j, (_, size) in enumerate(batch)]
    return sums, (xu_end, xc, xs) if end_state else None


def _run_batches(fn, batches: list, workers: int) -> list:
    """fn over the batches in order, on `workers` threads when above one."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, batches))
    return [fn(batch) for batch in batches]


def mc_correlation_series(params: BakerParams, phi: Observable3D,
                          psi: Observable3D, n_list: Sequence[int],
                          samples: int, seed: int,
                          workers: int = 1) -> dict:
    """Cor(phi, psi o f^n) estimates with batch-means standard errors.

    Shards of fixed size are keyed by (seed, shard index) on a Philox
    counter generator and reduced shard by shard in shard order, so results
    are byte-identical for a given (config, seed) regardless of worker
    count.  Common random numbers: every n in n_list is read off the same
    orbit.  Refuses a + b != 1/M, samples < 10^4, workers < 1, an empty
    n_list, an n that is not an integer >= 0, and float overflow.
    """
    params.require_measure_preserving("the Monte Carlo pairing")
    _at_least(samples, 10 ** 4, "samples")
    _at_least(workers, 1, "workers")
    n_list = sorted({_at_least(n, 0, "each n in n_list") for n in n_list})
    _at_least(len(n_list), 1, "the length of n_list")
    seed = check_seed(seed)
    law = symbol_law(params)
    n_max = max(n_list)
    kept = len(n_list) if "xu" in psi.reads else 0
    batches = _batch_plan(_shard_plan(samples), n_max, kept, workers,
                          law[2].itemsize)

    def run(batch):
        # numpy's errors are per thread; an overflow is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            return _simulate_batch(params, law, batch, seed, n_list, phi,
                                   psi)[0]

    results = [shard for sums in _run_batches(run, batches, workers)
               for shard in sums]

    tot_phi = sum(r[1] for r in results)
    tot_psi0 = sum(r[2] for r in results)
    full = max(r[0] for r in results)
    out = {}
    for n in n_list:
        tot_prod = sum(r[3][n] for r in results)
        estimate = tot_prod / samples - (tot_phi / samples) * (tot_psi0 / samples)
        # batch means over the full-size shards
        vals = np.asarray([per_n[n] / size - (sphi / size) * (spsi0 / size)
                           for size, sphi, spsi0, per_n in results
                           if size == full])
        with np.errstate(over="ignore", invalid="ignore"):
            stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) \
                if vals.size > 1 else float("nan")
        if not math.isfinite(estimate) or (vals.size > 1 and
                                           not math.isfinite(stderr)):
            raise ValueError(f"the Monte Carlo sums at n = {n} or their "
                             "batch-means error overflow the float range; "
                             "scale the observables down")
        out[n] = CorrelationRecord(n, estimate, "monte-carlo", stderr)
    return out


def mc_correlation(params: BakerParams, phi: Observable3D, psi: Observable3D,
                   n: int, samples: int, seed: int,
                   workers: int = 1) -> tuple[float, float]:
    rec = mc_correlation_series(params, phi, psi, [n], samples, seed,
                                workers)[n]
    return rec.value, rec.error


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with an integer number of degrees of
    freedom, in closed form (Abramowitz & Stegun 26.4.4-26.4.5).

    With y = x/2 and m = dof // 2 the tail is a Poisson tail for even dof,
    sum_{j<m} e^-y y^j / j!, and for odd dof
    erfc(sqrt y) + sum_{j=1..m} e^-y y^(j-1/2) / Gamma(j+1/2).  The terms
    are summed from their logarithms, shifted by the largest, so neither a
    large dof nor a large x overflows or underflows before the sum does.
    """
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    y, m = x / 2, dof // 2
    log_y = math.log(y)
    if dof % 2:
        head = math.erfc(math.sqrt(y))
        logs = [(j - 0.5) * log_y - y - math.lgamma(j + 0.5)
                for j in range(1, m + 1)]
    else:
        head = 0.0
        logs = [j * log_y - y - math.lgamma(j + 1) for j in range(m)]
    top = max(logs, default=0.0)
    return head + math.exp(top) * math.fsum(math.exp(t - top) for t in logs)


def measure_invariance_chisq(params: BakerParams, n: int = 50,
                             samples: int = 10 ** 6, seed: int = 0,
                             boxes: int = 8, workers: int = 1) -> dict:
    """Chi-square uniformity test of f^n(uniform) on a boxes^3 grid.

    Passes (p-value above threshold) iff the parameters preserve Lebesgue
    measure, up to the usual statistical caveats; the threshold is far in
    the tail so measure-preserving parameters essentially never fail.
    Refuses n < 0, samples < 1, boxes < 2 and workers < 1.
    """
    for name, value, least in (("n", n, 0), ("samples", samples, 1),
                               ("boxes", boxes, 2), ("workers", workers, 1)):
        _at_least(value, least, name)
    seed = check_seed(seed)
    law = symbol_law(params)
    ident = Observable3D("one", lambda xu, xc, xs: np.ones_like(xc),
                         reads=frozenset())

    def run(batch):
        cell = 0
        for x in _simulate_batch(params, law, batch, seed, [n], ident, ident,
                                 end_state=True)[1]:
            cell = cell * boxes + np.minimum((x * boxes).astype(np.int64),
                                             boxes - 1)
        return np.bincount(cell, minlength=boxes ** 3)

    batches = _batch_plan(_shard_plan(samples), n, 0, workers,
                          law[2].itemsize)
    counts = sum(_run_batches(run, batches, workers))
    expected = samples / boxes ** 3
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = boxes ** 3 - 1
    pvalue = _chi2_sf(stat, dof)
    return {"statistic": stat, "dof": dof, "pvalue": pvalue,
            "passed": pvalue > 1e-9}


# ---------------------------------------------------------------------------
# decay-rate fits

def _window(series, n_window) -> tuple[np.ndarray, np.ndarray]:
    return _window_arrays([rec.n for rec in series],
                          [rec.value for rec in series], n_window)


def _window_arrays(ns, vs, n_window) -> tuple[np.ndarray, np.ndarray]:
    """(n, value) as float arrays over lo <= n <= hi, in input order."""
    lo, hi = n_window
    ns = np.asarray(ns)
    keep = (ns >= lo) & (ns <= hi)
    if np.count_nonzero(keep) < 3:
        raise ValueError("window too small for a fit")
    if ns[keep].min() == ns[keep].max():
        raise ValueError("fit window needs at least two distinct n")
    v = np.asarray(vs, dtype=float)[keep]
    bad = ~np.isfinite(v)
    if bad.any():
        raise ValueError(f"fit window has the non-finite value {v[bad][0]} "
                         f"at n = {ns[keep][bad][0]}")
    if np.any(v <= 0):
        raise NonPositiveValue("fit window contains non-positive values")
    return ns[keep].astype(float), v


def _power_fit(ns: np.ndarray, vs: np.ndarray) -> dict:
    if ns.min() < 1:
        raise ValueError(f"a power-law fit needs n >= 1, got n = {ns.min():g}")
    x, y = np.log(ns), np.log(vs)
    (slope, intercept), res = np.polyfit(x, y, 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    return {"slope": float(slope), "intercept": float(intercept),
            "residual": residual}


def _plateau(ns: np.ndarray, vs: np.ndarray) -> list:
    with np.errstate(over="ignore"):
        out = [(int(n), float(n ** 1.5 * v)) for n, v in zip(ns, vs)]
    for n, p in out:
        if math.isinf(p):
            raise ValueError(f"n^1.5 * value is too large for a float at n = {n}")
    return out


def _exp_fit(ns: np.ndarray, vs: np.ndarray) -> dict:
    y = np.log(vs)
    (slope, intercept), res = np.polyfit(ns, y, 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    try:
        rate = math.exp(slope)
    except OverflowError:
        raise ValueError(f"the fitted rate exp({slope:.6g}) is too large for "
                         "a float") from None
    return {"rate": rate, "intercept": float(intercept), "residual": residual}


def decay_slope_fit(series, n_window) -> dict:
    """Least squares of log value against log n; residual is the sum of
    squared log residuals.  Also returns n^(3/2) * value for plateau
    inspection."""
    ns, vs = _window(series, n_window)
    return {**_power_fit(ns, vs), "plateau": _plateau(ns, vs)}


def exp_rate_fit(series, n_window) -> dict:
    """Least squares of log value against n; lambda = exp(slope)."""
    return _exp_fit(*_window(series, n_window))


def lower_bound_check(phi: Observable3D, psi: Observable3D, n_max: int,
                      op: ReducedOp | None = None) -> dict:
    """Constant-sign and inf n^(3/2)|<P0^n phi, psi>| report for strictly
    monotone center observables.

    An affine observable is increasing for a positive slope and decreasing
    for a negative one.  A PC one is certified through its coefficient
    signs: strictly increasing functions have all-negative raw Haar
    coefficients, decreasing all-positive.  n_max must be at least 1.
    """
    from .haar import monotone_sign_report
    from .pcfun import project_zero_mean
    _at_least(n_max, 1, "n_max")

    def signature(obs: Observable3D) -> int:
        if obs.xc_affine is not None:
            slope = obs.xc_affine[0]
            if slope == 0:
                raise NotMonotone(f"{obs.name}: slope 0 is not monotone")
            return 1 if slope > 0 else -1
        if obs.xc_pc is None:
            raise NotMonotone(f"{obs.name} is not an x_c observable")
        signs = monotone_sign_report(project_zero_mean(obs.xc_pc))
        if signs["all_negative"]:
            return 1     # increasing
        if signs["all_positive"]:
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
