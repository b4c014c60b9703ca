"""The benchmark workloads.

Four recipes (Headline, Exact1D, MonteCarlo, Full3D) are run as two
workloads: `float` runs a Headline job then a MonteCarlo job, `exact` an
Exact1D job then a Full3D job.  The host this benchmark was tuned on
changes speed in phases of tens of seconds, and only long runs average
them out; two workloads leave room in the time budget for such runs.

A workload builds its inputs from the seed once (that is part of set-up)
and then runs numbered jobs.  `job(i, observe)` runs the fixed recipe of
package calls on the inputs of job i, checks every output, and returns
the list of failed checks (empty when the job passed).  `observe` is
applied to each observable passed into the package; the traced run uses
it to time the observables' `fn`.

Package functions are looked up on their modules at call time, so the
tracer's wrappers are the ones called while it is installed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction as Fr

import numpy as np

# Inputs are generated for this many jobs; job i uses entry i % POOL.  It is
# a multiple of every recipe's period, so each pool cycle holds whole periods.
POOL = 48


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed, i)))


def _derived_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class Headline:
    """The README experiment through `heterobaker.cli.main`.  The paper fixes
    the inputs, so the seed draws nothing."""

    workers = 1
    period = 1

    def __init__(self, hb, seed: int, workdir):
        self.hb = hb
        self.csv = os.path.join(workdir, "series.csv")
        self.fit = os.path.join(workdir, "fit.json")

    def _corr_slope(self, corr_args, slope_args, fails):
        cli = self.hb.cli
        if cli.main(["corr", "--M", "2", "--phi", "xc-1/2", "--psi", "xc-1/2",
                     "--method", "squarewave", *corr_args,
                     "--out", self.csv]) != 0:
            fails.append(f"corr {corr_args} exited non-zero")
        if cli.main(["slope", "--in", self.csv, *slope_args,
                     "--out", self.fit]) != 0:
            fails.append(f"slope {slope_args} exited non-zero")
        with open(self.csv) as fh:
            rows = {int(r["n"]): float(r["value"]) for r in
                    csv.DictReader(x for x in fh if not x.startswith("#"))}
        with open(self.fit) as fh:
            return rows, json.load(fh)

    def job(self, i: int, observe) -> list[str]:
        fails: list[str] = []
        rows, fit = self._corr_slope(
            ["--a", "1/4", "--b", "1/4", "--n-max", "8192"],
            ["--window", "512:8192"], fails)
        if sorted(rows) != list(range(8193)):
            fails.append("headline series does not cover n = 0..8192")
            return fails
        if rows[0] != 1 / 12 or rows[1] != 1 / 24:
            fails.append(f"first values {rows[0]!r}, {rows[1]!r} "
                         "are not 1/12, 1/24")
        if abs(fit["slope"] + 1.494) > 5e-4:
            fails.append(f"slope {fit['slope']} is not -1.494")
        p4096, p8192 = (n ** 1.5 * rows[n] for n in (4096, 8192))
        if abs(p8192 - p4096) / p4096 >= 0.002:
            fails.append(f"plateau drift {abs(p8192 - p4096) / p4096:.4%}")
        _, fit = self._corr_slope(
            ["--a", "3/10", "--b", "1/5", "--n-max", "512"],
            ["--model", "exp", "--window", "64:512"], fails)
        if not fit["rate"] < 0.98:
            fails.append(f"exponential-regime rate {fit['rate']} >= 0.98")
        return fails


def _pair_with_xc(g) -> Fr:
    """Exact <g, x_c - 1/2> for a PC function g."""
    bps = g.breakpoints
    return sum((v * (b1 - b0) * ((b0 + b1) / 2 - Fr(1, 2))
                for v, b0, b1 in zip(g.values, bps, bps[1:])), Fr(0))


def _recurrence_holds(c) -> bool:
    q = Fr(5, 4)
    return all(q * (n + 1) * c[n] - n * c[n + 1] - q * (n + 4) * c[n + 2]
               + (n + 3) * c[n + 3] == 0 for n in range(len(c) - 3))


class Exact1D:
    """Every exact 1D route on a seeded square-wave-span observable."""

    workers = 1
    period = 3
    WEIGHTS = (Fr(1, 2), Fr(2, 5), Fr(3, 5))
    DEPTH = 3

    def __init__(self, hb, seed: int, workdir):
        self.hb = hb
        self.inputs = []
        for i in range(POOL):
            rng = _rng(seed, i)
            # one depth and odd k: every level present and every denominator
            # 64, so the seed changes the values but not the size of the
            # arithmetic (jobs of several depths would differ in cost, which
            # widens a run's median)
            f = hb.PCFun1D.zero()
            for level in range(1, self.DEPTH + 1):
                k = int(rng.choice([-1, 1]) * (2 * rng.integers(0, 32) + 1))
                f = f + hb.square_wave(level) * Fr(k, 64)
            f = f.refine([Fr(1, 2 ** self.DEPTH)])
            self.inputs.append((f, int(rng.integers(1, 33))))

    def job(self, i: int, observe) -> list[str]:
        hb = self.hb
        f, start_level = self.inputs[i % POOL]
        w = self.WEIGHTS[i % 3]
        op = hb.ReducedOp(2, w)
        xc = observe(hb.affine_center())
        fo = observe(hb.observables.pc_center(f))
        fails: list[str] = []

        def exact(series):
            return [rec.exact for rec in series]

        sw_xc = exact(hb.exact_reduced_correlation(xc, xc, 128, op=op,
                                                   numeric="rational"))
        sw_fx = exact(hb.exact_reduced_correlation(fo, xc, 128, op=op,
                                                   numeric="rational"))
        sw_ff = exact(hb.exact_reduced_correlation(fo, fo, 10, op=op,
                                                   numeric="rational"))
        haar_ff = exact(hb.exact_reduced_correlation(fo, fo, 10, op=op,
                                                     mode="haar"))
        grid_ff, grid_fx = [], []
        g = f
        for n in range(9):
            grid_ff.append(hb.inner_product(g, f))
            grid_fx.append(_pair_with_xc(g))
            if n < 8:
                g = hb.p0_apply(op, g, 1)
        pa_xc = []
        pa = g = hb.PAFun1D.affine(1, Fr(-1, 2))
        for n in range(9):
            pa_xc.append(hb.inner_product_pa(g, pa))
            if n < 8:
                g = hb.p0_apply_pa(op, g, 1)
        oracle = hb.oracle_equivalence_report(f, op, 12)
        walker = hb.RuinState.delta(start_level)
        ruin_ok = hb.evolve_from(walker, 64).q == hb.q_via_transition(walker, 64).q

        if haar_ff != sw_ff:
            fails.append("haar and square-wave (f, f) series differ")
        if grid_ff != sw_ff[:9]:
            fails.append("grid and square-wave (f, f) series differ")
        if grid_fx != sw_fx[:9]:
            fails.append("grid and square-wave (f, x_c-1/2) series differ")
        if pa_xc != sw_xc[:9]:
            fails.append("affine oracle and square-wave series differ")
        if not (oracle["agree"] and oracle["squarewave_applicable"]):
            fails.append("oracle_equivalence_report disagrees")
        if not ruin_ok:
            fails.append(f"walk from level {start_level}: evolve_from and "
                         "q_via_transition differ at n = 64")
        if sw_xc[0] != Fr(1, 12):
            fails.append(f"c_0 = {sw_xc[0]}, expected 1/12")
        if w == Fr(1, 2):
            if sw_xc[1] != Fr(1, 24):
                fails.append(f"c_1 = {sw_xc[1]}, expected 1/24")
            if not _recurrence_holds(sw_xc):
                fails.append("neutral affine series breaks the recurrence")
        return fails


class MonteCarlo:
    """Monte Carlo series and chi-square invariance runs (M = 2)."""

    PARAMS = ((Fr(1, 4), Fr(1, 4)), (Fr(1, 5), Fr(3, 10)))
    period = len(PARAMS)
    N_LIST = [2 ** k for k in range(10)]
    SAMPLES = 2 ** 14
    CHI_SAMPLES = 2 ** 15
    CHI_N = 50
    Z_MAX = 5.0

    def __init__(self, hb, seed: int, workdir):
        self.hb = hb
        self.seed = seed
        self.workers = min(2, os.cpu_count() or 1)
        self.params = [hb.BakerParams(2, a, b) for a, b in self.PARAMS]
        self.skewed = hb.BakerParams(2, Fr(1, 8), Fr(1, 8))
        phi = hb.affine_center()
        self.exact = [
            [rec.value for rec in hb.exact_reduced_correlation(
                phi, phi, max(self.N_LIST), op=hb.ReducedOp.from_params(p),
                numeric="double")]
            for p in self.params]
        self.sample_steps = 0

    def job(self, i: int, observe) -> list[str]:
        hb = self.hb
        params = self.params[i % 2]
        exact = self.exact[i % 2]
        seed = _derived_seed(self.seed, i)
        phi = observe(hb.affine_center())
        fails: list[str] = []
        out = hb.mc_correlation_series(params, phi, phi, self.N_LIST,
                                       self.SAMPLES, seed, workers=self.workers)
        # The parameters preserve Lebesgue measure, so psi_n is uniform on
        # [-1/2, 1/2] like phi, and by Cauchy-Schwarz
        # E[(phi psi_n)^2] <= E[phi^4] = 1/80: sigma is a true bound on the
        # estimator's standard error, unlike the batch-means estimate, whose
        # 16 batches give t-distributed z-scores.  5 sigma at 2^14 samples is
        # 0.0044, so a wrong estimate is told from the exact value for
        # n <= 16 (|c_16| >= 0.0055); from n = 32 on, c_n is below it.
        sigma = math.sqrt(1 / 80 / self.SAMPLES)
        for n in self.N_LIST:
            rec = out[n]
            if abs(rec.value - exact[n]) > self.Z_MAX * sigma:
                fails.append(f"n={n}: MC {rec.value:.6g} vs exact "
                             f"{exact[n]:.6g} exceeds {self.Z_MAX} sigma")
            if not 0 < rec.error <= 3 * sigma:
                fails.append(f"n={n}: standard error {rec.error!r} out of range")
        chi = hb.measure_invariance_chisq(params, n=self.CHI_N,
                                          samples=self.CHI_SAMPLES, seed=seed,
                                          workers=self.workers)
        if not chi["passed"]:
            fails.append(f"invariance test failed at {params}: p={chi['pvalue']}")
        # every job, not every other one: jobs of two costs would put the
        # median between the two groups
        chi = hb.measure_invariance_chisq(self.skewed, n=self.CHI_N,
                                          samples=self.CHI_SAMPLES, seed=seed,
                                          workers=self.workers)
        if chi["passed"]:
            fails.append("invariance test passed at (2, 1/8, 1/8)")
        self.sample_steps += (self.SAMPLES * max(self.N_LIST)
                              + 2 * self.CHI_SAMPLES * self.CHI_N)
        return fails


class Full3D:
    """3D operator identities, fiber decay, tiling and the 3D CLI paths."""

    workers = 1
    period = 3
    # in this order the dearest parameter meets Exact1D's cheapest weight
    # (1/2) in an `exact` job, and the three kinds of `exact` job cost
    # within 5% of each other
    PARAMS = ((2, Fr(1, 5), Fr(3, 10)), (2, Fr(1, 4), Fr(1, 4)),
              (3, Fr(1, 6), Fr(1, 6)))
    # composition/duality/apply-op depth per M: a 3D grid grows about 6x per
    # step at M = 2 and 15x at M = 3, so M = 3 runs one step less
    DEPTH = {2: 3, 3: 2}
    FIBER_N = 20

    def __init__(self, hb, seed: int, workdir):
        self.hb = hb
        self.seed = seed
        self.out_json = os.path.join(workdir, "out.json")
        self.verify_json = os.path.join(workdir, "verify.json")
        verify = hb.verify
        self.inputs = []
        for i in range(POOL):
            rng = _rng(seed, i)
            F, G = verify.random_pc3(rng), verify.random_pc3(rng)
            # a fiber-mean-free u built from F's x_s profile; richer (x_u, x_c)
            # grids double per step and cannot reach n = 20
            d = sum((F.values[a][b][0] - F.values[a][b][1]
                     for a in range(2) for b in range(2)), Fr(0)) / 8
            u = hb.PCFun3D.build(["0", "1"], ["0", "1"], ["0", "1/2", "1"],
                                 [[[d, -d]]])
            v = tuple(Fr(int(x), 8) for x in rng.integers(-8, 9, size=4))
            path = os.path.join(workdir, f"F{i}.json")
            with open(path, "w") as fh:
                fh.write(hb.pcfun.pcfun3d_to_json(F))
            self.inputs.append((F, G, verify.project_xc(F), u, v, path))

    def job(self, i: int, observe) -> list[str]:
        hb, verify = self.hb, self.hb.verify
        M, a, b = self.PARAMS[i % 3]
        params = hb.BakerParams(M, a, b)
        depth = self.DEPTH[M]
        F, G, f, u, v, path = self.inputs[i % POOL]
        fails: list[str] = []
        if verify.check_formula_compositions(params, F, depth) != (True, True):
            fails.append("composition identities fail")
        if not verify.check_duality(params, F, G, depth):
            fails.append("duality fails")
        if not verify.check_reduction(params, f, depth + 1):
            fails.append("reduction identity fails")
        if M == 2 and a == b and not verify.check_phat_sum(params, F):
            fails.append("P_hat sum identity fails")
        rows = hb.fiber_average_decay_check(params, u, v, self.FIBER_N)
        if not all(r["ok"] for r in rows):
            fails.append("fiber-average decay bound fails")
        if not hb.tiling_report(params)["passed"]:
            fails.append("tiling report fails at a measure-preserving parameter")

        cli = hb.cli
        if cli.main(["verify-all", "--seed", str(_derived_seed(self.seed, i)),
                     "--out", self.verify_json]) != 0:
            fails.append("verify-all exited non-zero")
        with open(self.verify_json) as fh:
            if not json.load(fh)["passed"]:
                fails.append("verify-all reports a failed check")
        if cli.main(["apply-op", "--M", str(M), "--a", str(a), "--b", str(b),
                     "--op", "pfull3d", "--n", str(depth), "--in", path,
                     "--out", self.out_json]) != 0:
            fails.append("apply-op pfull3d exited non-zero")
        with open(self.out_json) as fh:
            pushed = hb.pcfun.pcfun3d_from_json(fh.read())
        if pushed.integral() != F.integral():
            fails.append("apply-op pfull3d does not preserve the integral")
        if hb.pcfun.inner_product_3d(pushed, G) != \
                verify.pair_with_pullback(params, F, G, depth):
            fails.append("apply-op pfull3d output breaks duality")
        return fails


class _Combined:
    """One job of each of PARTS, back to back, is one job.

    `period` is the number of jobs after which the recipes' inputs repeat
    their kinds (parameter, weight); a run stops on a multiple of it,
    so every run has the same mix of kinds."""

    PARTS: tuple = ()

    def __init__(self, hb, seed: int, workdir):
        self.parts = [part(hb, seed, workdir) for part in self.PARTS]
        self.workers = max(p.workers for p in self.parts)
        self.period = math.lcm(*(p.period for p in self.parts))

    @property
    def sample_steps(self) -> int:
        return sum(getattr(p, "sample_steps", 0) for p in self.parts)

    def job(self, i: int, observe) -> list[str]:
        return [f"{type(p).__name__}: {f}" for p in self.parts
                for f in p.job(i, observe)]


class Float(_Combined):
    """The double-mode and Monte Carlo routes: numpy, CSV, threads."""

    PARTS = (Headline, MonteCarlo)


class Exact(_Combined):
    """The Fraction routes, 1D and 3D."""

    PARTS = (Exact1D, Full3D)


WORKLOADS = {"float": Float, "exact": Exact}
