"""Symmetric simple random walk on {1, 2, ...} with an absorbing wall at 0.

The level dynamics of the reduced transfer operator are compared against
this chain: mass at level l splits evenly to l-1 and l+1, and whatever
reaches 0 is absorbed.  `walk_step` is the one implementation of that
recursion, a'_l = up a_{l-1} + down a_{l+1} with level 0 absorbed, for
every route that steps it: the walk itself and the square-wave
coefficients of the reduced operator (up : down = w : 1-w) in the oracle
report.  Exact states are Python-int object arrays with one rational
scale kept beside them, so a step is integer arithmetic plus one division
of the scale.  The closed-form transition probability comes from
the reflection principle,

    p_{l,l'}^(n) = 2^-n * ( C(n, (n-l+l')/2) - C(n, (n-l-l')/2) )

for matching parity, with out-of-range binomials read as zero.  Exact
rational evaluation is used up to moderate n; beyond that a log-gamma
route evaluates the same expression stably in doubles (2^-n * C overflows
and cancels catastrophically if done naively).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .pcfun import ZERO, PCFun1D, _at_least, _fractions, _to_int_vector, frac

EXACT_N_CUTOFF = 64


class ZeroFunction(ValueError):
    pass


@dataclass(frozen=True)
class RuinState:
    """Sub-probability vector over levels l >= 1 at time n; q[i] is level i+1."""

    n: int
    q: tuple[Fraction, ...]

    def __post_init__(self):
        if any(x < 0 for x in self.q):
            raise ValueError("negative mass")

    @staticmethod
    def delta(l: int) -> "RuinState":
        _at_least(l, 1, "l")
        return RuinState(0, tuple([ZERO] * (l - 1) + [Fraction(1)]))

    @staticmethod
    def from_profile(masses: Sequence) -> "RuinState":
        return RuinState(0, tuple(frac(m) for m in masses))

    def mass(self, l: int) -> Fraction:
        return self.q[l - 1] if 1 <= l <= len(self.q) else ZERO

    def survival(self) -> Fraction:
        return sum(self.q, ZERO)


def walk_step(a: np.ndarray, up, down) -> np.ndarray:
    """One walk step on a level vector (a[i] is level i+1), dtype-generic:
    out_l = up*a_{l-1} + down*a_{l+1}, whatever reaches level 0 is absorbed.
    The result is one level longer and never trimmed."""
    out = np.zeros(a.size + 1, dtype=a.dtype)
    out[1:] += up * a
    out[:-2] += down * a[1:]
    return out


def trim_levels(a: np.ndarray) -> np.ndarray:
    """Drop trailing zero levels."""
    nz = np.flatnonzero(a)
    return a[:nz[-1] + 1] if nz.size else a[:0]


def step(state: RuinState) -> RuinState:
    """One step: q'_l = (q_{l-1} + q_{l+1})/2, with q'_1 = q_2/2."""
    return evolve_from(state, 1)


def evolve_from(q0: RuinState, n: int) -> RuinState:
    """n >= 0 steps of `step`: `walk_step` on the integer numerators of q0,
    at scale 1/2 per step, and one Fraction per level at the end."""
    _at_least(n, 0, "n")
    if n == 0:
        return q0
    nums, denom = _to_int_vector(q0.q)
    for _ in range(n):
        nums = trim_levels(walk_step(nums, 1, 1))
    return RuinState(q0.n + n, _fractions(nums, denom << n))


def transition_prob_exact(l: int, lp: int, n: int) -> Fraction:
    for value, name in ((l, "l"), (lp, "lp"), (n, "n")):
        _at_least(value, 1, name)
    if (n - l + lp) % 2:
        return ZERO
    k1 = (n - l + lp) // 2
    k2 = (n - l - lp) // 2
    c1 = math.comb(n, k1) if 0 <= k1 <= n else 0
    c2 = math.comb(n, k2) if 0 <= k2 <= n else 0
    return Fraction(c1 - c2, 2 ** n)


def transition_prob_float(l: int, lp: int, n: int) -> float:
    """Stable double-precision evaluation in logarithms.

    p is symmetric in l and l', so let l' <= l; then k1 <= n/2 and the
    binomial difference is 2^-n C(n,k1) (1 - r) with r = C(n,k2)/C(n,k1)
    = prod_(j<l') (k1-j)/(n-k1+1+j), a product of l' factors below 1.  Its
    logarithm is a sum of log1p terms, and p = exp(log 2^-n C(n,k1) +
    log(1 - r)): no term overflows, and 1 - r = -expm1(log r) does not
    cancel.
    """
    for value, name in ((l, "l"), (lp, "lp"), (n, "n")):
        _at_least(value, 1, name)
    if (n - l + lp) % 2:
        return 0.0
    l, lp = max(l, lp), min(l, lp)
    k1 = (n - l + lp) // 2
    if k1 < 0:
        return 0.0
    log_pmf = math.lgamma(n + 1) - math.lgamma(k1 + 1) - \
        math.lgamma(n - k1 + 1) - n * math.log(2.0)
    if k1 < lp:     # k2 < 0: C(n, k2) = 0
        return math.exp(log_pmf)
    log_r = math.fsum(math.log1p(-(n - 2 * k1 + 1 + 2 * j) / (n - k1 + 1 + j))
                      for j in range(lp))
    return math.exp(log_pmf + math.log(-math.expm1(log_r)))


def transition_prob(l: int, lp: int, n: int):
    """Exact Fraction for n <= 64, float via log-gamma beyond."""
    if n <= EXACT_N_CUTOFF:
        return transition_prob_exact(l, lp, n)
    return transition_prob_float(l, lp, n)


def q_via_transition(q0: RuinState, n: int) -> RuinState:
    """Closed-form superposition sum_{l'} q0_{l'} p^(n)_{l' l}, n >= 0."""
    _at_least(n, 0, "n")
    if n == 0:
        return q0
    lmax = len(q0.q) + n
    out = [ZERO] * lmax
    for i, mass in enumerate(q0.q):
        if not mass:
            continue
        lp = i + 1
        for l in range(max(1, lp - n), lp + n + 1):
            p = transition_prob_exact(l=lp, lp=l, n=n)
            if p:
                out[l - 1] += mass * p
    while out and out[-1] == 0:
        out.pop()
    return RuinState(n, tuple(out))


def surviving_path_histogram(l: int, n: int) -> dict[int, int]:
    """Endpoint histogram over all 2^n sign words of paths from l that never
    touch 0; one enumeration serves every endpoint."""
    hist: dict[int, int] = {}
    for word in range(1 << n):
        pos = l
        for i in range(n):
            pos += 1 if (word >> i) & 1 else -1
            if pos <= 0:
                break
        else:
            hist[pos] = hist.get(pos, 0) + 1
    return hist


def asymptotic_ratio_report(n_list: Sequence[int]) -> dict:
    """Ratios p^(n)_{l,l'} * n^(3/2) / (l*l') for parity-matching pairs with
    l, l' <= n^(1/4).  Diagnostic for the n^(-3/2) two-sided bound; the
    interval is reported, not asserted."""
    rows = []
    for n in n_list:
        cap = max(1, int(n ** 0.25))
        for l in range(1, cap + 1):
            for lp in range(1, cap + 1):
                if (n - l + lp) % 2:
                    continue
                p = transition_prob_float(l, lp, n)
                rows.append({"n": n, "l": l, "lp": lp, "p": p,
                             "ratio": p * n ** 1.5 / (l * lp)})
    ratios = [r["ratio"] for r in rows]
    return {"rows": rows, "r_min": min(ratios), "r_max": max(ratios)}


def initial_profile(f: PCFun1D) -> tuple[Fraction, RuinState]:
    """(C_phi, normalized level profile) of a zero-mean dyadic PC function:
    q0_l = ||f_l||_inf / C_phi with C_phi the sum of the level sup norms."""
    from .haar import analyze, level_sup_norms
    sups = level_sup_norms(analyze(f))
    if not sups:
        raise ZeroFunction("the zero function has no level profile")
    c_phi = sum(sups.values(), ZERO)
    lmax = max(sups)
    q0 = [sups.get(l, ZERO) / c_phi for l in range(1, lmax + 1)]
    return c_phi, RuinState.from_profile(q0)


def domination_check(f: PCFun1D, n_max: int, l_max: int | None = None) -> dict:
    """Verify ||f_l^(n)||_inf <= C_phi q_l^(n) for the neutral M=2 operator.

    Rows for n = 0..n_max >= 0 record both sides exactly; equality rows
    are flagged.  Equality at every (n, l) is the expected outcome for
    strictly monotone inputs.
    """
    from .haar import analyze, level_sup_norms
    from .transfer import ReducedOp, p0_apply
    _at_least(n_max, 0, "n_max")
    c_phi, q = initial_profile(f)
    op = ReducedOp.neutral(2)
    rows = []
    g = f
    for n in range(n_max + 1):
        sups = level_sup_norms(analyze(g))
        cap = l_max if l_max is not None else max(len(q.q), max(sups, default=1))
        for l in range(1, cap + 1):
            lhs = sups.get(l, ZERO)
            rhs = c_phi * q.mass(l)
            if lhs > rhs:
                rows.append({"n": n, "l": l, "lhs": lhs, "rhs": rhs,
                             "holds": False, "equality": False})
            else:
                rows.append({"n": n, "l": l, "lhs": lhs, "rhs": rhs,
                             "holds": True, "equality": lhs == rhs})
        if n < n_max:
            g = p0_apply(op, g, 1)
            q = step(q)
    return {
        "rows": rows,
        "all_hold": all(r["holds"] for r in rows),
        "all_equal": all(r["equality"] for r in rows),
        "c_phi": c_phi,
    }
