import math
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import heterobaker as hb
from heterobaker.correlation import CorrelationRecord, _chi2_sf
from heterobaker.observables import parse_observable, pc_center
from heterobaker.transfer import NotInSquareWaveSpan

NEUTRAL = hb.BakerParams.neutral(2)
PHI = hb.affine_center()

# frozen by two independent exact routes (piecewise-affine grid oracle and
# square-wave recursion with closed-form tail)
AFFINE_SERIES = [F(1, 12), F(1, 24), F(7, 192), F(5, 192), F(73, 3072),
                 F(115, 6144), F(859, 49152)]


def test_exact_squarewave_rational():
    series = hb.exact_reduced_correlation(PHI, PHI, 6, numeric="rational")
    assert [rec.exact for rec in series] == AFFINE_SERIES
    assert all(rec.error == 0.0 for rec in series)


def test_pa_oracle_agrees():
    op = hb.ReducedOp.neutral(2)
    pa = hb.PAFun1D.affine(1, F(-1, 2))
    cur = pa
    for n, expect in enumerate(AFFINE_SERIES):
        assert hb.inner_product_pa(cur, pa) == expect
        cur = hb.p0_apply_pa(op, cur, 1)


@pytest.mark.parametrize("w", [F(1, 2), F(3, 5)])
def test_pa_oracle_agrees_deep(w):
    # grid oracle vs square-wave-with-tail route, route against route, deep
    # enough that the closed-form tail term matters at every step
    op = hb.ReducedOp(2, w)
    series = hb.exact_reduced_correlation(PHI, PHI, 12, op=op,
                                          numeric="rational")
    pa = hb.PAFun1D.affine(1, F(-1, 2))
    cur = pa
    for n in range(13):
        assert hb.inner_product_pa(cur, pa) == series[n].exact
        cur = hb.p0_apply_pa(op, cur, 1)


def test_haar_mode_chi():
    obs = pc_center(hb.wavelet(1, 0))
    series = hb.exact_reduced_correlation(obs, obs, 2, mode="haar")
    assert series[0].exact == 1
    assert series[2].exact == F(1, 4)


def test_squarewave_matches_haar_on_staircase():
    stair = hb.staircase4()
    sw = hb.exact_reduced_correlation(stair, stair, 12, numeric="rational")
    ha = hb.exact_reduced_correlation(stair, stair, 12, mode="haar")
    assert [r.exact for r in sw] == [r.exact for r in ha]


def test_mixed_geometric_pc_exactness():
    # geometric phi against a PC psi deeper than n_max: the truncation depth
    # must cover the PC levels or exactness silently breaks
    deep = hb.PCFun1D.zero()
    for l, c in [(1, F(1, 2)), (6, F(1, 64)), (9, F(-1, 512))]:
        deep = deep + hb.square_wave(l) * c
    psi = pc_center(deep)
    sw = hb.exact_reduced_correlation(PHI, psi, 3, numeric="rational")
    op = hb.ReducedOp.neutral(2)
    pa = hb.PAFun1D.affine(1, F(-1, 2))
    psi_pa = hb.PAFun1D(deep.breakpoints,
                        tuple(F(0) for _ in deep.values), deep.values)
    for n in range(4):
        direct = hb.inner_product_pa(hb.p0_apply_pa(op, pa, n), psi_pa)
        assert sw[n].exact == direct


def test_haar_projection_bound():
    from heterobaker.correlation import TruncationBudgetExceeded
    ha = hb.exact_reduced_correlation(PHI, PHI, 5, mode="haar",
                                      truncation_level=8)
    sw = hb.exact_reduced_correlation(PHI, PHI, 5, numeric="rational")
    for a, b in zip(ha, sw):
        assert abs(a.value - float(b.exact)) <= a.error
    with pytest.raises(TruncationBudgetExceeded):
        hb.exact_reduced_correlation(PHI, PHI, 2, mode="haar")


def test_double_mode_tracks_rational():
    sr = hb.exact_reduced_correlation(PHI, PHI, 12, numeric="rational")
    sd = hb.exact_reduced_correlation(PHI, PHI, 12, numeric="double")
    for a, b in zip(sr, sd):
        assert b.value == pytest.approx(float(a.exact), rel=1e-12)
        assert abs(b.value - float(a.exact)) <= b.error + 1e-15


@pytest.fixture(scope="module")
def exact_affine_512():
    """The exact affine series to n = 512 at w = 1/2 and w = 3/5."""
    return {w: hb.exact_reduced_correlation(PHI, PHI, 512, op=hb.ReducedOp(2, w),
                                            numeric="rational")
            for w in (F(1, 2), F(3, 5))}


@pytest.mark.parametrize("w", [F(1, 2), F(3, 5)])
def test_double_mode_error_bar_is_a_bound(w, exact_affine_512):
    sd = hb.exact_reduced_correlation(PHI, PHI, 512, op=hb.ReducedOp(2, w),
                                      numeric="double")
    for a, b in zip(exact_affine_512[w], sd):
        assert abs(b.value - float(a.exact)) <= b.error


def test_exact_series_satisfies_recurrence(exact_affine_512):
    # an independent check of the integer walk kernel: at w = 1/2 the
    # affine series is P-recursive with characteristic roots 5/4 and +-1
    c = [rec.exact for rec in exact_affine_512[F(1, 2)]]
    for n in range(len(c) - 3):
        assert (F(5, 4) * (n + 1) * c[n] - n * c[n + 1]
                - F(5, 4) * (n + 4) * c[n + 2] + (n + 3) * c[n + 3]) == 0


def test_not_in_span():
    obs = pc_center(hb.wavelet(2, 0))
    with pytest.raises(NotInSquareWaveSpan):
        hb.exact_reduced_correlation(obs, obs, 2)
    general = parse_observable("xu*xc")
    with pytest.raises(NotInSquareWaveSpan):
        hb.exact_reduced_correlation(general, general, 2)


def test_mc_basic_moments():
    est, se = hb.mc_correlation(NEUTRAL, PHI, PHI, 0, 10 ** 5, seed=5)
    assert abs(est - 1 / 12) < 3 * se
    psi = parse_observable("xu-1/2")
    est, se = hb.mc_correlation(NEUTRAL, PHI, psi, 0, 10 ** 5, seed=5)
    assert abs(est) < 3 * se


def test_mc_matches_exact_n10():
    exact = hb.exact_reduced_correlation(PHI, PHI, 10, numeric="rational")
    est, se = hb.mc_correlation(NEUTRAL, PHI, PHI, 10, 2 * 10 ** 5, seed=7)
    assert abs(est - float(exact[10].exact)) < 3 * se


def test_mc_reproducible_across_workers():
    out1 = hb.mc_correlation_series(NEUTRAL, PHI, PHI, [1, 5], 10 ** 5, seed=9,
                                    workers=1)
    out2 = hb.mc_correlation_series(NEUTRAL, PHI, PHI, [1, 5], 10 ** 5, seed=9,
                                    workers=3)
    for n in (1, 5):
        assert out1[n].value == out2[n].value
        assert out1[n].error == out2[n].error


def test_mc_requires_preservation():
    with pytest.raises(hb.NotMeasurePreserving):
        hb.mc_correlation(hb.BakerParams(2, F(1, 5), F(1, 5)), PHI, PHI, 1,
                          10 ** 4, seed=1)


# Monte Carlo outputs (repr of value, error) recorded before the shards of
# a worker were batched into one vectorised pass; the (seed, shard) stream
# and the per-shard reductions must reproduce them bit for bit
MC_PINNED = {
    "affine": {
        0: ("0.08386467178680768", "0.0007244017543194419"),
        1: ("0.042274286852281975", "0.0008312701826082513"),
        64: ("0.0011950731441717798", "0.0006863849578292998"),
        512: ("0.000368471199810842", "0.00047065155826812524")},
    "staircase": {
        0: ("0.31292229426318313", "0.0007416931266857592"),
        1: ("0.10487677110675105", "0.0006933868300356101"),
        64: ("0.002512146018033865", "0.0006927659669166375"),
        512: ("-0.001242714683506565", "0.0009383466606412882")},
}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mc_stream_is_pinned(workers):
    ns = [0, 1, 64, 512]
    runs = {
        "affine": hb.mc_correlation_series(
            hb.BakerParams(2, F(1, 4), F(1, 4)), PHI, PHI, ns, 2 ** 14,
            seed=11, workers=workers),
        # 10^5 + 37 samples: 15 full shards and a partial last one, M = 3
        "staircase": hb.mc_correlation_series(
            hb.BakerParams(3, F(1, 6), F(1, 6)), hb.staircase4(),
            hb.staircase4(), ns, 10 ** 5 + 37, seed=5, workers=workers),
    }
    for key, out in runs.items():
        got = {n: (repr(out[n].value), repr(out[n].error)) for n in ns}
        assert got == MC_PINNED[key], key
    chi = hb.measure_invariance_chisq(hb.BakerParams(2, F(1, 8), F(1, 8)),
                                      n=50, samples=2 ** 15, seed=3,
                                      workers=workers)
    assert chi["statistic"] == 50300.125
    chi = hb.measure_invariance_chisq(hb.BakerParams(3, F(1, 6), F(1, 6)),
                                      n=7, samples=54321, seed=1,
                                      workers=workers)
    assert chi["statistic"] == 527.3569890097751


# Monte Carlo outputs (repr of value, error) of observables that read x_u,
# x_s or both, recorded while every pass still ran all three coordinates:
# (params, phi, psi, n_list, samples, seed) -> {n: (value, error)}.  The
# last three cases end on a partial shard; "cancel" reads x_u although its
# affine form has no x_u term, and "xc-xu" reads x_u in psi only, from an
# n_list without 0.
MC_FULL_PATH = {
    "xu-xc": (((2, F(1, 4), F(1, 4)), "xu-1/2", "xc-1/2", [0, 1, 64, 512],
               2 ** 14, 11), {
        0: ("-0.00037321857307419935", "0.000691049269718458"),
        1: ("0.01629035461565366", "0.000629284684346276"),
        64: ("0.0002841437889323494", "0.0006431687796731982"),
        512: ("-0.0007147621274415731", "0.0007531788040736911")}),
    "xs-xs": (((3, F(1, 6), F(1, 6)), "xs-1/2", "xs-1/2", [0, 1, 7, 50],
               10 ** 5 + 37, 5), {
        0: ("0.0831788966436845", "0.0001992171482510835"),
        1: ("0.027655099408836762", "0.00026348284800552257"),
        7: ("-0.0003020316373036197", "0.0002153286199305663"),
        50: ("-7.23509552492123e-05", "0.0002786011333104296")}),
    "cancel": (((2, F(1, 5), F(3, 10)), "(xu+xc)-xu", "xc-1/2", [1, 5, 40],
                3 * 10 ** 4 + 11, 23), {
        1: ("0.04019289743740154", "0.00119064450046577"),
        5: ("0.01676959542908682", "0.0008626848846061948"),
        40: ("-0.0006844122459758496", "0.0011910019533699929")}),
    "xc-xu": (((3, F(1, 6), F(1, 6)), "xc-1/2", "xu-1/2", [3, 20],
               5 * 10 ** 4 + 3, 17), {
        3: ("0.0002850709871280502", "0.0003357830477202158"),
        20: ("-0.0001123231590510582", "0.00032838645601494413")}),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("key", sorted(MC_FULL_PATH))
def test_mc_full_path_is_pinned(key, workers):
    (p, phi, psi, ns, samples, seed), pinned = MC_FULL_PATH[key]
    out = hb.mc_correlation_series(hb.BakerParams(*p), parse_observable(phi),
                                   parse_observable(psi), ns, samples,
                                   seed=seed, workers=workers)
    assert {n: (repr(out[n].value), repr(out[n].error)) for n in ns} == pinned


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("p,n,samples,seed,statistic", [
    ((2, F(1, 4), F(1, 4)), 50, 10 ** 5, 3, 525.75232),
    ((2, F(1, 5), F(1, 5)), 50, 10 ** 5, 3, 30270.01344),
    ((3, F(1, 5), F(2, 15)), 9, 3 * 10 ** 4 + 7, 8, 438.0689505781984)])
def test_chisq_statistic_is_pinned(p, n, samples, seed, statistic, workers):
    chi = hb.measure_invariance_chisq(hb.BakerParams(*p), n=n, samples=samples,
                                      seed=seed, workers=workers)
    assert chi["statistic"] == statistic


@pytest.mark.parametrize("samples,n_max,kept,workers", [
    (2 ** 14, 512, 10, 2), (10 ** 5 + 37, 512, 4, 3), (10 ** 6, 1, 2, 1),
    (10 ** 6, 50_000, 1, 2), (10 ** 4, 0, 1, 64)])
def test_batch_plan_bounds(samples, n_max, kept, workers):
    from heterobaker.correlation import (_BATCH_BYTES, _WORK_FLOATS,
                                         _batch_plan, _shard_plan)
    shards = _shard_plan(samples)
    batches = _batch_plan(shards, n_max, kept, workers)
    # whole consecutive shards, in order, none empty
    assert [s for batch in batches for s in batch] == shards
    assert all(batches)
    assert len(batches) >= min(workers, len(shards))
    per_sample = n_max + 8 * (kept + _WORK_FLOATS)
    for batch in batches:
        size = sum(n for _, n in batch)
        assert len(batch) == 1 or size * per_sample <= _BATCH_BYTES
    assert max(map(len, batches)) - min(map(len, batches)) <= 1


def test_mc_memory_is_bounded():
    # tracemalloc peak of this call before batching (one (shard, n_max)
    # float64 uniform array and int64 symbol temporaries per shard):
    # 106346806 bytes, about 101 MiB; the batched kernel holds a 4 MiB
    # itinerary budget
    import tracemalloc
    tracemalloc.start()
    try:
        hb.mc_correlation_series(NEUTRAL, PHI, PHI, [0, 1, 64, 1024], 2 ** 16,
                                 seed=1, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 106346806 // 2


@pytest.mark.parametrize("prof,c_tail,L", [
    ([], F(-1, 2), 1200), ([], F(1, 7), 1100), ([], F(2, 3), 40),
    ([F(3, 8), F(-1, 8)], F(0), 70), ([F(1, 3)] * 5, F(0), 3)])
def test_double_levels_match_fractions(prof, c_tail, L):
    from heterobaker.correlation import _double_levels, _materialize
    arr, l2 = _double_levels(prof, c_tail, L)
    nums, denom = _materialize(prof, c_tail, L)
    ref = [F(n, denom) for n in nums]
    expect = np.array([float(x) for x in ref])
    # same floats, including the sign of the zeros past the underflow
    assert np.array_equal(arr, expect)
    assert np.array_equal(np.signbit(arr), np.signbit(expect))
    assert l2 == sum((x * x for x in ref), F(0))


@pytest.mark.parametrize("text,reads", [
    ("xc-1/2", {"xc"}), ("xu*xc", {"xu", "xc"}), ("min(xs,1/2)", {"xs"}),
    # the affine form has no x_u term, but the float value rounds through x_u
    ("(xu+xc)-xu", {"xu", "xc"}), ("3/4", set()),
    ("affine-center", {"xc"}), ("staircase-4", {"xc"})])
def test_grammar_reads_the_variables_it_mentions(text, reads):
    assert parse_observable(text).reads == reads


def test_reads_defaults_to_every_coordinate_and_names_bad_ones():
    obs = hb.Observable3D("own", lambda xu, xc, xs: xu * xs)
    assert obs.reads == {"xu", "xc", "xs"}
    assert pc_center(hb.square_wave(2)).reads == {"xc"}
    assert hb.Observable3D("c", obs.fn, reads=["xc"]).reads == {"xc"}
    with pytest.raises(ValueError, match="xz"):
        hb.Observable3D("bad", obs.fn, reads={"xc", "xz"})


XC_ONLY = [PHI, hb.staircase4(), pc_center(hb.square_wave(3), "sw3"),
           parse_observable("min(xc,1/3)*xc")]


@pytest.mark.parametrize("p,samples,ns", [
    ((2, F(1, 4), F(1, 4)), 10 ** 4 + 5, [0, 1, 9, 30]),
    ((2, F(1, 5), F(3, 10)), 10 ** 4, [2, 17]),
    ((3, F(1, 6), F(1, 6)), 2 * 10 ** 4 + 1, [0, 4, 25]),
    ((3, F(1, 5), F(2, 15)), 10 ** 4, [1, 3, 12])])
def test_xc_only_passes_match_the_full_path(p, samples, ns):
    # the same fn declared as reading every coordinate runs all three
    # coordinates through both passes
    import dataclasses
    params = hb.BakerParams(*p)
    for phi, psi in zip(XC_ONLY, XC_ONLY[1:] + XC_ONLY[:1]):
        assert phi.reads == psi.reads == {"xc"}
        full = [dataclasses.replace(obs, reads={"xu", "xc", "xs"})
                for obs in (phi, psi)]
        fast = hb.mc_correlation_series(params, phi, psi, ns, samples,
                                        seed=4, workers=2)
        slow = hb.mc_correlation_series(params, *full, ns, samples, seed=4,
                                        workers=2)
        for n in ns:
            assert repr(fast[n].value) == repr(slow[n].value), (phi.name, n)
            assert repr(fast[n].error) == repr(slow[n].error), (phi.name, n)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.0, "3"])
def test_mc_entry_points_refuse_a_bad_seed(seed):
    # numpy's messages (an OverflowError "out of bounds for uint64", "Python
    # int too large to convert to C long") did not name the seed
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        hb.mc_correlation_series(NEUTRAL, PHI, PHI, [1], 10 ** 4, seed=seed)
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        hb.measure_invariance_chisq(NEUTRAL, n=2, samples=10 ** 4, seed=seed)


@pytest.mark.parametrize("kwargs,name", [
    ({"n": -1}, "n"), ({"samples": 0}, "samples"), ({"samples": -5}, "samples"),
    ({"boxes": 1}, "boxes"), ({"boxes": 0}, "boxes")])
def test_chisq_refuses_bad_arguments(kwargs, name):
    args = {"n": 2, "samples": 100, "seed": 1, **kwargs}
    with pytest.raises(ValueError, match=rf"^{name} must be at least"):
        hb.measure_invariance_chisq(NEUTRAL, **args)


def test_chisq_smallest_arguments_run():
    chi = hb.measure_invariance_chisq(NEUTRAL, n=0, samples=1, seed=1, boxes=2)
    assert chi["statistic"] == 7.0 and chi["dof"] == 7


def test_chi2_sf_exact_values():
    for dof in (1, 2, 7, 511):
        assert _chi2_sf(0.0, dof) == 1.0 and _chi2_sf(-3.5, dof) == 1.0
    for x in (1e-9, 0.3, 2.0, 17.25, 500.0, 1400.0):
        assert _chi2_sf(x, 2) == math.exp(-x / 2)
    # erfc alone for one degree of freedom
    assert _chi2_sf(2.0, 1) == math.erfc(1.0)


@pytest.mark.parametrize("x", [1e4, 1e8, 1e300, math.inf])
@pytest.mark.parametrize("dof", [1, 2, 511, 999])
def test_chi2_sf_huge_statistic_is_zero(x, dof):
    assert _chi2_sf(x, dof) == 0.0


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    ps = [1e-300, 1e-200, 1e-100, 1e-40, 1e-12, 1e-6, 1e-3, 0.05, 0.5, 0.9,
          0.999, 1 - 1e-6, 1 - 1e-12]
    for dof in [*range(1, 61), 511, 999]:
        xs = stats.chi2.isf(ps, dof)
        got = [_chi2_sf(float(x), dof) for x in xs]
        np.testing.assert_allclose(got, stats.chi2.sf(xs, dof), rtol=1e-10,
                                   err_msg=f"dof = {dof}")


def test_chisq_harness():
    ok = hb.measure_invariance_chisq(NEUTRAL, n=50, samples=10 ** 5, seed=3)
    assert ok["passed"]
    bad = hb.measure_invariance_chisq(hb.BakerParams(2, F(1, 5), F(1, 5)),
                                      n=50, samples=10 ** 5, seed=3)
    assert not bad["passed"]


def _synthetic(vals):
    return [CorrelationRecord(n, v, "synthetic", 0.0)
            for n, v in enumerate(vals)]


def test_slope_fit_synthetic_power_law():
    series = _synthetic([0.0] + [2.5 * n ** -1.5 for n in range(1, 200)])
    fit = hb.decay_slope_fit(series, (8, 199))
    assert fit["slope"] == pytest.approx(-1.5, abs=1e-12)
    assert fit["residual"] < 1e-20
    for n, p in fit["plateau"]:
        assert p == pytest.approx(2.5, rel=1e-12)


def test_exp_fit_synthetic():
    lam = 0.93
    series = _synthetic([0.0] + [0.4 * lam ** n for n in range(1, 200)])
    fit = hb.exp_rate_fit(series, (8, 199))
    assert fit["rate"] == pytest.approx(lam, rel=1e-12)
    assert fit["residual"] < 1e-20
    # model mismatch: the log-log fit of an exponential leaves residual
    bad = hb.decay_slope_fit(series, (8, 199))
    assert bad["residual"] > 1.0


def test_fit_errors():
    series = _synthetic([1.0, 0.5, -0.1, 0.2])
    with pytest.raises(hb.NonPositiveValue):
        hb.decay_slope_fit(series, (1, 3))


def test_lower_bound_check():
    rep = hb.lower_bound_check(PHI, PHI, 256)
    assert rep["signs_constant"] and rep["expected_sign"] == 1
    assert rep["inf_scaled"] > 0
    dec = parse_observable("1/2-xc")
    rep2 = hb.lower_bound_check(PHI, dec, 64)
    assert rep2["expected_sign"] == -1 and rep2["signs_constant"]
    bump = pc_center(hb.PCFun1D.uniform([1, -1, -1, 1]))
    with pytest.raises(hb.NotMonotone):
        hb.lower_bound_check(bump, PHI, 8)


def test_parse_observable_structure():
    obs = parse_observable("2*xc-1")
    assert obs.xc_affine == (F(2), F(-1))
    xs = np.array([0.25])
    assert obs(xs, xs, xs)[0] == pytest.approx(-0.5)
    gen = parse_observable("min(xu, xs)")
    assert gen.xc_affine is None
    assert gen(np.array([0.3]), np.array([0.9]), np.array([0.1]))[0] == \
        pytest.approx(0.1)
    assert parse_observable("xc-1/2").xc_affine == (F(1), F(-1, 2))


def test_import_leaves_scipy_out():
    # the package never loads scipy, the chi-square test included: its tail
    # probability is computed in closed form
    src = os.path.dirname(os.path.dirname(hb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, heterobaker as hb\n"
            "print('scipy' in sys.modules)\n"
            "chi = hb.measure_invariance_chisq(hb.BakerParams.neutral(2), n=5,"
            " samples=10 ** 4, seed=1)\n"
            "print(chi['passed'], 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True", "False"]
