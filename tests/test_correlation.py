import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import heterobaker as hb
from heterobaker.correlation import CorrelationRecord, _chi2_sf
from heterobaker.observables import (MAX_DEPTH, ParseError, parse_observable,
                                     pc_center)
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


def test_exact_routes_carry_no_error_bar():
    # the Haar route projected an affine observable onto a dyadic grid and
    # wrote the L2 bar of the tail it dropped; it takes PC ones only now
    from heterobaker.correlation import TruncationBudgetExceeded
    stair = hb.staircase4()
    with pytest.raises(ValueError, match="use the square-wave route"):
        hb.exact_reduced_correlation(PHI, PHI, 2, mode="haar")
    with pytest.raises(TruncationBudgetExceeded, match="past its limit of 20"):
        hb.exact_reduced_correlation(stair, stair, 19, mode="haar")
    ha = hb.exact_reduced_correlation(stair, stair, 6, mode="haar")
    assert all(rec.exact is not None for rec in ha)
    for numeric in ("rational", "double"):
        for phi, psi in ((PHI, PHI), (PHI, stair), (stair, stair)):
            sw = hb.exact_reduced_correlation(phi, psi, 6, numeric=numeric)
            assert all(rec.error == 0.0 for rec in sw)
    assert all(rec.error == 0.0 for rec in ha)


def _sw(*coefs):
    f = hb.PCFun1D.zero()
    for level, c in coefs:
        f = f + hb.square_wave(level) * c
    return f


# affine, PC profiles of depth 2 to 9 with a gap, and zero
SIZING = [
    PHI, parse_observable("3*xc-1"), hb.staircase4(),
    pc_center(_sw((1, F(1, 2)), (2, F(-1, 4)), (3, F(1, 8))), "sw-depth-3"),
    pc_center(_sw((1, F(3, 8)), (2, F(-1, 8)), (3, F(5, 16)), (4, F(-7, 32))),
              "sw-depth-4"),
    pc_center(_sw((1, F(1, 2)), (6, F(1, 64)), (9, F(-1, 512))), "sw-1-6-9"),
    parse_observable("0*xc")]


def _walk_series(phi, psi, w, n_max):
    """<P0^n phi, psi> by stepping the whole integer level vector with
    `ruin.walk_step`: phi materialised to depth n_max + 2 + its PC depth,
    psi to that depth plus n_max + 1.  Past that depth a geometric phi
    tail never meets the wall within n_max steps, so against a geometric
    psi it contributes c_phi c_psi kappa^n 4^-(L+1) / (1 - 1/4), with
    kappa = w/2 + 2(1 - w)."""
    from heterobaker.correlation import _squarewave_profile
    from heterobaker.ruin import walk_step

    def levels(profile, depth):
        nums, den, c = profile
        vals = [F(a, den) for a in nums] + [c / 2 ** l for l in
                                            range(len(nums) + 1, depth + 1)]
        den = math.lcm(*(v.denominator for v in vals))
        return np.array([int(v * den) for v in vals], dtype=object), den

    prof_phi, prof_psi = _squarewave_profile(phi), _squarewave_profile(psi)
    L = n_max + 2 + max(len(prof_phi[0]), len(prof_psi[0]))
    state, den_a = levels(prof_phi, L)
    b, den_b = levels(prof_psi, L + n_max + 1)
    scale = F(1, den_a * den_b)
    tail = prof_phi[2] * prof_psi[2] * F(1, 4) ** (L + 1) / F(3, 4)
    out = []
    for n in range(n_max + 1):
        out.append(int(state @ b[:state.size]) * scale + tail)
        state = walk_step(state, w.numerator, w.denominator - w.numerator)
        scale /= w.denominator
        tail *= w / 2 + 2 * (1 - w)
    return out


@pytest.mark.parametrize("w", [F(1, 10), F(2, 5), F(1, 2), F(3, 5), F(9, 10),
                               F(7, 13)])
def test_flux_series_matches_the_walk_loop(w):
    # the flux kernel against the whole walk, every pair of SIZING to
    # n = 40, and the affine pair to n = 400
    op = hb.ReducedOp(2, w)
    for phi in SIZING:
        for psi in SIZING:
            got = hb.exact_reduced_correlation(phi, psi, 40, op=op,
                                               numeric="rational")
            assert [rec.exact for rec in got] == _walk_series(phi, psi, w, 40)
    if w != F(7, 13):
        got = hb.exact_reduced_correlation(PHI, PHI, 400, op=op,
                                           numeric="rational")
        assert [rec.exact for rec in got] == _walk_series(PHI, PHI, w, 400)


def test_double_mode_tracks_rational():
    # every double is the correctly rounded exact value, down to the
    # subnormal range of a phi at scale 2^-1060
    tiny = parse_observable(f"1/{2 ** 1060}*xc-1/{2 ** 1061}")
    for w in (F(1, 10), F(1, 2), F(3, 5), F(9, 10)):
        op = hb.ReducedOp(2, w)
        for phi in (*SIZING, tiny):
            for psi in SIZING[:4]:
                sr = hb.exact_reduced_correlation(phi, psi, 40, op=op,
                                                  numeric="rational")
                sd = hb.exact_reduced_correlation(phi, psi, 40, op=op,
                                                  numeric="double")
                assert [b.value.hex() for b in sd] == \
                    [float(a.exact).hex() for a in sr]
                assert [a.value.hex() for a in sr] == \
                    [b.value.hex() for b in sd]
                assert all(b.error == 0.0 and b.exact is None for b in sd)


@pytest.fixture(scope="module")
def exact_affine_512():
    """The exact affine series to n = 512 at four weights."""
    return {w: hb.exact_reduced_correlation(PHI, PHI, 512, op=hb.ReducedOp(2, w),
                                            numeric="rational")
            for w in (F(1, 10), F(1, 2), F(3, 5), F(9, 10))}


@pytest.mark.parametrize("w", [F(1, 10), F(1, 2), F(3, 5), F(9, 10)])
def test_double_mode_error_bar_is_a_bound(w, exact_affine_512):
    # the bar is 0.0: each value is float(exact), bit for bit
    sd = hb.exact_reduced_correlation(PHI, PHI, 512, op=hb.ReducedOp(2, w),
                                      numeric="double")
    for a, b in zip(exact_affine_512[w], sd):
        assert b.value.hex() == float(a.exact).hex() and b.error == 0.0


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


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_refuses_sums_that_overflow(workers):
    # each product of 2^509 x_c with itself fits a float, a shard's sum does
    # not: the estimate came out inf, after numpy RuntimeWarnings
    import warnings
    big = parse_observable(f"{2 ** 509}*xc")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the Monte Carlo sums at n = 1 or "
                                             r"their batch-means error "
                                             r"overflow the float range"):
            hb.mc_correlation_series(NEUTRAL, big, big, [1], 10 ** 4, seed=1,
                                     workers=workers)
        # the batch-means error squares the products: at 2^500 they
        # overflow too, at 2^250 nothing does
        with pytest.raises(ValueError, match="overflow the float range"):
            hb.mc_correlation_series(NEUTRAL, *[parse_observable(
                f"{2 ** 500}*xc")] * 2, [1], 10 ** 4, seed=1, workers=workers)
        small = parse_observable(f"{2 ** 250}*xc")
        out = hb.mc_correlation_series(NEUTRAL, small, small, [1], 10 ** 4,
                                       seed=1, workers=workers)
    assert math.isfinite(out[1].value) and math.isfinite(out[1].error)


def test_mc_requires_preservation():
    with pytest.raises(hb.NotMeasurePreserving):
        hb.mc_correlation(hb.BakerParams(2, F(1, 5), F(1, 5)), PHI, PHI, 1,
                          10 ** 4, seed=1)


# Monte Carlo outputs (repr of value, error) recorded from the stream of
# version 0.2.0 (itinerary chunks of 64 steps keyed by (seed, shard, chunk),
# exact integer symbols); the stream and the per-shard reductions must
# reproduce them bit for bit
MC_PINNED = {
    "affine": {
        0: ("0.08410509185079615", "0.0008296672465185916"),
        1: ("0.04237669421141171", "0.0006541619842535155"),
        64: ("0.003186172365421299", "0.0005086021492986087"),
        512: ("0.0007104617694579334", "0.0007400588363503657")},
    "staircase": {
        0: ("0.31281407805798983", "0.0005411908446373075"),
        1: ("0.10284426688812266", "0.0008147606579329226"),
        64: ("0.002961223614134028", "0.0013322724609589928"),
        512: ("0.0011506435287656144", "0.0008574522050443525")},
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
    assert chi["statistic"] == 50014.78125
    chi = hb.measure_invariance_chisq(hb.BakerParams(3, F(1, 6), F(1, 6)),
                                      n=7, samples=54321, seed=1,
                                      workers=workers)
    assert chi["statistic"] == 556.8963568417371


# Monte Carlo outputs (repr of value, error) of observables that read x_u,
# x_s or both, from the stream of version 0.2.0:
# (params, phi, psi, n_list, samples, seed) -> {n: (value, error)}.  The
# last three cases end on a partial shard; "cancel" reads x_u although its
# affine form has no x_u term, and "xc-xu" reads x_u in psi only, from an
# n_list without 0.  "xu-xc" regenerates eight itinerary chunks in reverse.
MC_FULL_PATH = {
    "xu-xc": (((2, F(1, 4), F(1, 4)), "xu-1/2", "xc-1/2", [0, 1, 64, 512],
               2 ** 14, 11), {
        0: ("-0.0006272712196340069", "0.0007414247444445479"),
        1: ("0.01562621072920017", "0.0005977930930180113"),
        64: ("-0.00033511469751935", "0.000723435484080312"),
        512: ("0.0002653741096422372", "0.0006047803712188502")}),
    "xs-xs": (((3, F(1, 6), F(1, 6)), "xs-1/2", "xs-1/2", [0, 1, 7, 50],
               10 ** 5 + 37, 5), {
        0: ("0.08304004150123934", "0.000289892869770168"),
        1: ("0.02801108346892788", "0.00023077147842143425"),
        7: ("-0.0002994334407463708", "0.0001834292191853888"),
        50: ("0.0004583027692453308", "0.00029412163406835956")}),
    "cancel": (((2, F(1, 5), F(3, 10)), "(xu+xc)-xu", "xc-1/2", [1, 5, 40],
                3 * 10 ** 4 + 11, 23), {
        1: ("0.04165766592282448", "0.0010401954808527058"),
        5: ("0.017594548968160022", "0.0014954264035030882"),
        40: ("0.0006307790140005509", "0.0015802552702535737")}),
    "xc-xu": (((3, F(1, 6), F(1, 6)), "xc-1/2", "xu-1/2", [3, 20],
               5 * 10 ** 4 + 3, 17), {
        3: ("-4.6408426565433346e-05", "0.00036881448733094136"),
        20: ("0.00042305877004166013", "0.0003914246625587205")}),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("key", sorted(MC_FULL_PATH))
def test_mc_full_path_is_pinned(key, workers):
    (p, phi, psi, ns, samples, seed), pinned = MC_FULL_PATH[key]
    out = hb.mc_correlation_series(hb.BakerParams(*p), parse_observable(phi),
                                   parse_observable(psi), ns, samples,
                                   seed=seed, workers=workers)
    assert {n: (repr(out[n].value), repr(out[n].error)) for n in ns} == pinned


# the ids end in the statistics these cases had on the stream of version
# 0.1.0, so the test names stay those of the earlier pins
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("p,n,samples,seed,statistic", [
    ((2, F(1, 4), F(1, 4)), 50, 10 ** 5, 3, 518.46144),
    ((2, F(1, 5), F(1, 5)), 50, 10 ** 5, 3, 30292.85888),
    ((3, F(1, 5), F(2, 15)), 9, 3 * 10 ** 4 + 7, 8, 520.8571000099976)],
    ids=["p0-50-100000-3-525.75232", "p1-50-100000-3-30270.01344",
         "p2-9-30007-8-438.0689505781984"])
def test_chisq_statistic_is_pinned(p, n, samples, seed, statistic, workers):
    chi = hb.measure_invariance_chisq(hb.BakerParams(*p), n=n, samples=samples,
                                      seed=seed, workers=workers)
    assert chi["statistic"] == statistic


@pytest.mark.parametrize("samples,n_max,kept,workers", [
    (2 ** 14, 512, 10, 2), (10 ** 5 + 37, 512, 4, 3), (10 ** 6, 1, 2, 1),
    (10 ** 6, 50_000, 1, 2), (10 ** 4, 0, 1, 64)])
def test_batch_plan_bounds(samples, n_max, kept, workers):
    from heterobaker.correlation import (_BATCH_BYTES, _CHUNK, _WORK_FLOATS,
                                         _batch_plan, _shard_plan)
    shards = _shard_plan(samples)
    batches = _batch_plan(shards, n_max, kept, workers)
    # whole consecutive shards, in order, none empty
    assert [s for batch in batches for s in batch] == shards
    assert all(batches)
    assert len(batches) >= min(workers, len(shards))
    per_sample = min(n_max, _CHUNK) + 8 * (kept + _WORK_FLOATS)
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


def test_mc_memory_does_not_grow_with_n_max():
    # an x_c-only series to n = 8192 holds one 64-step itinerary chunk per
    # batch; a stored (n_max, shard) int8 itinerary read a tracemalloc peak
    # of 18435875 bytes (17.6 MiB) here, and 32.9 MiB at 2^16 samples
    import tracemalloc
    tracemalloc.start()
    try:
        hb.mc_correlation_series(NEUTRAL, PHI, PHI, [1, 8192], 2 ** 15,
                                 seed=1, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


@pytest.mark.parametrize("M,a,seed,shard,chunk,rows,size", [
    (2, F(1, 4), 11, 3, 0, 64, 1024),
    (3, F(1, 6), 2 ** 63 + 5, 1, 7, 9, 625),
    # q = 300 draws uint16
    (2, F(7, 300), 2 ** 64 - 1, 5, 2, 64, 700)])
def test_mc_stream_matches_its_definition(M, a, seed, shard, chunk, rows,
                                          size):
    # one (shard, chunk) of symbols rebuilt with plain numpy from the stream
    # definition, against the package's symbols for a batch in which that
    # shard follows 100 samples of shard - 1
    from heterobaker.baker import symbol_law
    from heterobaker.correlation import _itinerary_chunk
    p, q = a.numerator, a.denominator
    key = np.array([seed, shard], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key,
                                               counter=[0, 0, chunk + 1, 0]))
    u = rng.integers(0, q, size=(rows, size), dtype=np.min_scalar_type(q - 1))
    expected = np.minimum(u // p, M)
    keys = [np.array([seed, shard - 1], dtype=np.uint64), key]
    out = np.empty((rows, 100 + size), dtype=u.dtype)
    got = _itinerary_chunk(out, keys, [(0, 100), (100, 100 + size)], chunk,
                           symbol_law(hb.BakerParams(M, a, F(1, M) - a)), M)
    np.testing.assert_array_equal(got[:, 100:], expected)
    assert got.dtype == u.dtype and expected.max() == M


@pytest.mark.parametrize("M", [2, 3])
def test_symbols_follow_the_exact_law(M):
    # every U in [0, q) maps to min(U // p, M): each j < M takes exactly p
    # of the q values (probability a = p/q), the beta symbol M the rest
    from heterobaker.baker import symbol_law
    from heterobaker.correlation import _symbols
    for q in range(M + 1, 21):
        for p in range(1, -(-q // M)):
            if math.gcd(p, q) != 1:
                continue
            a = F(p, q)
            assert symbol_law(hb.BakerParams(M, a, a))[:2] == (p, q)
            u = np.arange(q, dtype=np.min_scalar_type(q - 1))
            sym = _symbols(u.copy(), p, M)
            assert sym.tolist() == [min(U // p, M) for U in range(q)]
            assert np.bincount(sym).tolist() == [p] * M + [q - M * p]


def test_draws_refuse_an_a_past_64_bits():
    from heterobaker.baker import symbol_law
    ok = F(1, 2 ** 64 - 1)
    assert symbol_law(hb.BakerParams(2, ok, ok))[2] == np.uint64
    a = F(1, 2 ** 64 + 1)
    params = hb.BakerParams(2, a, F(1, 2) - a)
    name = r"a = 1/18446744073709551617"
    with pytest.raises(ValueError, match=name):
        hb.mc_correlation_series(params, PHI, PHI, [1], 10 ** 4, seed=1)
    with pytest.raises(ValueError, match=name):
        hb.measure_invariance_chisq(params, n=1, samples=10, seed=1)
    with pytest.raises(ValueError, match=name):
        hb.itinerary_stats(params, n=10, seed=1)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fit", [hb.decay_slope_fit, hb.exp_rate_fit])
def test_fits_refuse_non_finite_values(fit, bad):
    # nan passed the v <= 0 check and came out as a NaN slope
    series = _synthetic([1.0, 0.5, 0.25, bad, 0.125])
    with pytest.raises(ValueError, match="non-finite value .* at n = 3"):
        fit(series, (1, 4))


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
    with pytest.raises(hb.NotMonotone, match="slope 0"):
        hb.lower_bound_check(PHI, parse_observable("0*xc+1/3"), 8)


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


DEEP_OBSERVABLES = {
    "sum": "+".join(["xc"] * 1501),
    "parentheses": "(" * 1200 + "xc" + ")" * 1200,
    "negations": "-" * 1500 + "xc",
}


@pytest.mark.parametrize("text", DEEP_OBSERVABLES.values(),
                         ids=DEEP_OBSERVABLES.keys())
def test_parser_refuses_deep_trees(text):
    # each of these died with a RecursionError
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_observable(text)


def test_parser_takes_trees_at_the_depth_limit():
    assert parse_observable("+".join(["xc"] * MAX_DEPTH)).xc_affine == \
        (F(MAX_DEPTH), F(0))
    assert parse_observable("-" * (MAX_DEPTH - 1) + "xc").xc_affine == \
        (F(-1), F(0))
    nested = "min(" * (MAX_DEPTH - 1) + "xc" + ",1/2)" * (MAX_DEPTH - 1)
    assert parse_observable(nested)(0, np.array([0.25, 0.75]), 0).tolist() \
        == [0.25, 0.5]


BIG = "1" + "0" * 400


@pytest.mark.parametrize("text,message", [
    # each died with an OverflowError in the Hoelder corners
    (f"{BIG}*xc", "constant 1000000000...0000000000 (401 characters) is too "
                  "large for a float"),
    (f"xc-{BIG}/3", "constant 1000000000...00000000/3 (403 characters)"),
    (f"max(xc,{BIG})", "constant 1000000000...0000000000"),
    # constants that fit a float, in values that the routes cannot square
    (f"1{'0' * 200}*xc", "magnitudes above 2^510"),
    (f"1{'0' * 100}*1{'0' * 100}*xc-1/2", "magnitudes above 2^510"),
    (f"{2 ** 510 + 1}", "magnitudes above 2^510")])
def test_parser_refuses_values_too_large_for_floats(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_observable(text)


def test_parser_takes_values_at_the_magnitude_limit():
    # x_c from -2^510 to 2^510, and a constant that underflows to 0.0
    obs = parse_observable(f"{2 ** 511}*xc-{2 ** 510}")
    assert obs.xc_affine == (2 ** 511, -2 ** 510)
    for numeric in ("rational", "double"):
        series = hb.exact_reduced_correlation(obs, obs, 3, numeric=numeric)
        assert all(0 < rec.value < math.inf for rec in series)
    assert parse_observable(f"1/{BIG}").xc_affine == (0, F(1, 10 ** 400))


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
