from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heterobaker as hb
from heterobaker.baker import Kind, branch_affine, domain_box, image_box

NEUTRAL = hb.BakerParams.neutral(2)


def test_params_invariants():
    assert NEUTRAL.is_measure_preserving
    assert NEUTRAL.center_type is hb.CenterType.MOSTLY_NEUTRAL
    assert hb.BakerParams(2, F(1, 5), F(1, 5)).center_type is \
        hb.CenterType.MOSTLY_EXPANDING
    assert hb.BakerParams(2, F(3, 10), F(1, 5)).center_type is \
        hb.CenterType.MOSTLY_CONTRACTING
    with pytest.raises(ValueError):
        hb.BakerParams(2, F(1, 2), F(1, 4))
    with pytest.raises(ValueError):
        hb.BakerParams(1, F(1, 4), F(1, 4))


def test_classify_examples():
    assert str(hb.classify(NEUTRAL, (F(1, 10), F(3, 10), F(1, 2)))) == "alpha1"
    assert str(hb.classify(NEUTRAL, (F(3, 5), F(3, 10), F(1, 2)))) == "beta1"
    # closed upper corner belongs to the last beta strip
    assert str(hb.classify(NEUTRAL, (1, 1, 1))) == "beta2"
    # left-closed strips
    assert str(hb.classify(NEUTRAL, (F(1, 4), 0, 0))) == "alpha2"
    assert str(hb.classify(NEUTRAL, (F(1, 2), F(1, 2), 0))) == "beta2"


def test_apply_tau():
    assert hb.apply_tau(NEUTRAL, F(1, 10)) == F(2, 5)
    assert hb.apply_tau(NEUTRAL, 0) == 0
    assert hb.apply_tau(NEUTRAL, F(3, 5)) == F(1, 5)


def test_apply_f3_examples():
    assert hb.apply_f3(NEUTRAL, (F(1, 10), F(3, 10), F(1, 2))) == \
        (F(2, 5), F(3, 20), F(1, 4))
    assert hb.apply_f3(NEUTRAL, (F(3, 5), F(3, 10), F(1, 2))) == \
        (F(1, 5), F(3, 5), F(5, 8))
    assert hb.apply_f3(NEUTRAL, (0, 0, 0)) == (0, 0, 0)


def test_apply_f2_matches_f3():
    p = (F(1, 7), F(2, 7), F(3, 7))
    yu, yc, _ = hb.apply_f3(NEUTRAL, p)
    assert hb.apply_f2(NEUTRAL, p[:2]) == (yu, yc)


def test_orbit():
    p = (F(1, 10), F(3, 10), F(1, 2))
    pts = hb.orbit(NEUTRAL, p, 0, exact=True)
    assert pts == [p]
    pts = hb.orbit(NEUTRAL, p, 2, exact=True)
    # second application rides the alpha_2 branch: x_c -> x_c/2 + 1/2
    assert pts[2] == (F(3, 5), F(23, 40), F(1, 8))
    floats = hb.orbit(NEUTRAL, p, 2)
    assert floats[2] == pytest.approx((0.6, 0.575, 0.125), abs=1e-12)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("axis,name", [(0, "x_u"), (1, "x_c"), (2, "x_s")])
@pytest.mark.parametrize("bad", [F(-1, 2), F(5)])
def test_orbit_refuses_points_outside_the_cube(exact, axis, name, bad):
    # x_s went unchecked in exact mode, and float mode clamped every
    # coordinate back into the cube after the first step
    p = [F(1, 2)] * 3
    p[axis] = bad
    for n in (0, 3):
        with pytest.raises(ValueError, match=f"{name} = "):
            hb.orbit(NEUTRAL, tuple(p), n, exact=exact)
    with pytest.raises(ValueError, match=f"{name} = {bad}"):
        hb.classify(NEUTRAL, tuple(p))


def test_inverse_examples():
    assert hb.apply_f3_inverse(NEUTRAL, (F(2, 5), F(3, 20), F(1, 4))) == \
        (F(1, 10), F(3, 10), F(1, 2))
    assert hb.apply_f3_inverse(NEUTRAL, (0, 0, 0)) == (0, 0, 0)
    assert hb.apply_f3_inverse(NEUTRAL, (F(1, 5), F(3, 5), F(5, 8))) == \
        (F(3, 5), F(3, 10), F(1, 2))


def test_inverse_boundary():
    with pytest.raises(hb.BoundaryPoint):
        hb.apply_f3_inverse(NEUTRAL, (F(1, 3), F(1, 2), F(1, 4)))
    with pytest.raises(hb.BoundaryPoint):
        hb.apply_f3_inverse(NEUTRAL, (F(1, 3), F(1, 3), F(3, 4)))
    with pytest.raises(ValueError):
        hb.apply_f3_inverse(hb.BakerParams(2, F(1, 5), F(1, 5)), (0, 0, 0))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([NEUTRAL, hb.BakerParams(2, F(1, 5), F(3, 10)),
                        hb.BakerParams.neutral(3), hb.BakerParams.neutral(4)]),
       st.integers(1, 256), st.integers(1, 256), st.integers(1, 256))
def test_round_trip(params, i, j, k):
    # denominator 257 is prime, so no coordinate lands on a branch seam
    p = (F(i, 257), F(j, 257), F(k, 257))
    assert hb.apply_f3_inverse(params, hb.apply_f3(params, p)) == p


@pytest.mark.parametrize("point", [
    (F(1, 3), F(1, 3), F(1, 4)),    # interior x_c seam, x_s below 1 - Mb
    (F(1, 3), F(2, 3), F(1, 4)),
    (F(1, 3), F(1, 5), F(1, 2)),    # the face x_s = 1 - Mb
    (F(1, 3), F(1, 5), F(2, 3)),    # interior beta slab seams
    (F(1, 3), F(1, 5), F(5, 6)),
])
def test_inverse_boundary_at_m3(point):
    # at M = 3 the alpha images meet at x_c = 1/3, 2/3 below x_s = 1/2,
    # and the beta slabs [1/2, 2/3], [2/3, 5/6], [5/6, 1] above it
    with pytest.raises(hb.BoundaryPoint):
        hb.apply_f3_inverse(hb.BakerParams.neutral(3), point)


def test_inverse_on_the_outer_faces_at_m3():
    # a point on a face of the cube lies in one closed image box only
    params = hb.BakerParams.neutral(3)
    for p in [(0, 0, 0), (1, 1, 1), (F(1, 3), 0, F(1, 4)), (F(1, 3), 1, 1)]:
        p = tuple(map(F, p))
        assert hb.apply_f3(params, hb.apply_f3_inverse(params, p)) == p


@pytest.mark.parametrize("M,a,b", [
    (2, F(1, 4), F(1, 4)), (2, F(1, 5), F(3, 10)), (3, F(1, 6), F(1, 6)),
    (3, F(1, 4), F(1, 12)), (4, F(1, 8), F(1, 8)),
])
def test_tiling_preserving(M, a, b):
    assert hb.tiling_report(hb.BakerParams(M, a, b))["passed"]


@pytest.mark.parametrize("M,a,b", [
    (2, F(1, 4), F(1, 5)), (2, F(1, 3), F(1, 3)), (3, F(1, 6), F(1, 5)),
])
def test_tiling_non_preserving(M, a, b):
    rep = hb.tiling_report(hb.BakerParams(M, a, b))
    assert not rep["passed"]
    assert not rep["per_branch_volume_preserved"]


def test_partial_hyperbolicity_factors():
    # diagonal linear parts: (1/a, 1/M, 1-Mb) on alpha, (1/(1-Ma), M, b) on beta
    params = hb.BakerParams(3, F(1, 6), F(1, 6))
    for sym in (hb.Symbol(Kind.ALPHA, 2), hb.Symbol(Kind.BETA, 3)):
        (mu, _), (mc, _), (ms, _) = branch_affine(params, sym)
        if sym.kind is Kind.ALPHA:
            assert (mu, mc, ms) == (6, F(1, 3), F(1, 2))
        else:
            assert (mu, mc, ms) == (2, 3, F(1, 6))
        dom, img = domain_box(params, sym), image_box(params, sym)
        for (lo, hi), (ilo, ihi), (m, _) in zip(dom, img,
                                                branch_affine(params, sym)):
            assert ihi - ilo == m * (hi - lo)


def test_itinerary_stats():
    assert hb.itinerary_stats(NEUTRAL, p=(0, 0, 0), n=50) == 1.0
    frac = hb.itinerary_stats(NEUTRAL, n=10 ** 6, seed=123)
    assert abs(frac - 0.5) < 0.002
    skew = hb.BakerParams(2, F(3, 20), F(7, 20))
    frac = hb.itinerary_stats(skew, n=10 ** 6, seed=123)
    assert abs(frac - 0.3) < 0.002


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_itinerary_stats_refuses_a_bad_seed(seed):
    # numpy said "key must be positive and less than 2**128"
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        hb.itinerary_stats(NEUTRAL, n=10, seed=seed)
    assert hb.itinerary_stats(NEUTRAL, n=10, seed=2 ** 64 - 1) >= 0
