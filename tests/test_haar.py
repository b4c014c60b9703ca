from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heterobaker as hb
from heterobaker.haar import (InvalidHaarIndex, NonDyadicBreakpoints,
                              NonZeroMean, TensorComponents, _adic_depth,
                              dyadic_level, level_sup_norms,
                              monotone_sign_report)
from heterobaker.pcfun import NotMAdic, _to_int_vector


def test_wavelet_examples():
    w = hb.wavelet(1, 0)
    assert w.values == (1, -1) and w.breakpoints == (0, F(1, 2), 1)
    w21 = hb.wavelet(2, 1)
    assert all(v == 0 for v, lo in zip(w21.values, w21.breakpoints)
               if lo < F(1, 2))
    with pytest.raises(InvalidHaarIndex):
        hb.wavelet(2, 2)


@pytest.mark.parametrize("level", [1, 2, 3, 5])
def test_square_wave_modulus_one(level):
    s = hb.square_wave(level)
    assert all(abs(v) == 1 for v in s.values)
    assert hb.inner_product(s, s) == 1


def test_analyze_examples():
    assert hb.analyze(hb.wavelet(1, 0)) == {(1, 0): F(1)}
    assert hb.analyze(hb.PCFun1D.uniform([0, 0])) == {}
    L = 5
    exp = hb.analyze(hb.from_affine(1, F(-1, 2), L))
    for (l, k), c in exp.items():
        assert c == -F(1, 2 ** (l + 1))
    assert {l for l, _ in exp} == set(range(1, L + 1))
    with pytest.raises(NonZeroMean):
        hb.analyze(hb.PCFun1D.constant(1))


# (0, 0) is not the constant: a synthesis takes wavelets only; a valid key
# beside each bad one keeps the grid well defined
@pytest.mark.parametrize("key", [(0, 0), (0, 1), (1, 1), (1, -1), (2, 2),
                                 (3, 4), (-1, 0)])
def test_synthesis_refuses_keys_outside_the_haar_system(key):
    with pytest.raises(InvalidHaarIndex):
        hb.synthesize({(1, 0): F(1), key: F(1, 2)})
    waves = {(1, 0): hb.PCFun2D.constant(1), key: hb.PCFun2D.constant(2)}
    with pytest.raises(InvalidHaarIndex):
        hb.tensor_synthesize(TensorComponents(hb.PCFun2D.constant(0), waves))
    if key == (0, 0):
        with pytest.raises(InvalidHaarIndex):
            hb.synthesize({key: F(1)})
        with pytest.raises(InvalidHaarIndex):
            hb.tensor_synthesize(TensorComponents(
                hb.PCFun2D.constant(0), {key: hb.PCFun2D.constant(1)}))


def test_coefficient_examples():
    f = hb.from_affine(1, F(-1, 2), 4)
    assert hb.coefficient(f, 1, 0) == -F(1, 4)
    assert hb.coefficient(hb.PCFun1D.constant(1), 3, 2) == 0
    assert hb.coefficient(f, 2, 0) == -F(1, 16)


dyadic_vals = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=32),
    min_size=8, max_size=8)


@settings(max_examples=40, deadline=None)
@given(dyadic_vals)
def test_synthesis_round_trip(vals):
    f = hb.project_zero_mean(hb.PCFun1D.uniform(vals))
    assert hb.synthesize(hb.analyze(f)).equals(f)


@settings(max_examples=40, deadline=None)
@given(dyadic_vals)
def test_parseval(vals):
    f = hb.project_zero_mean(hb.PCFun1D.uniform(vals))
    exp = hb.analyze(f)
    energy = sum((c * c * F(2, 2 ** l) for (l, _), c in exp.items()), F(0))
    assert energy == hb.inner_product(f, f)


def test_affine_energy_recovery():
    # sum over levels of the coefficient energy recovers 1/12 - tail
    L = 6
    f = hb.from_affine(1, F(-1, 2), L)
    assert hb.inner_product(f, f) == F(1, 12) * (1 - F(1, 4 ** L))


def test_holder_bound_and_signs():
    f = hb.from_affine(1, F(-1, 2), 6)
    report = hb.holder_bound_check(f, F(1), F(3, 2))
    assert all(r["ok"] for r in report)
    signs = monotone_sign_report(f)
    assert signs["all_negative"] and not signs["all_positive"]
    assert hb.holder_bound_check(hb.PCFun1D.uniform([0, 0]), F(1), F(1)) == []


def test_general_m_components():
    f = hb.PCFun1D.build([0, F(1, 3), 1], [F(2, 3), F(-1, 3)])
    comps = hb.analyze_general_M(f, 3)
    assert comps.component(1).equals(f)
    assert len(comps.components) == 1
    with pytest.raises(NotMAdic):
        hb.analyze_general_M(f, 2)


def test_depth_rule_for_composite_m():
    # a breakpoint lies on the M^L grid when its denominator divides M^L,
    # not only when it is a power of M: 1/2 = 2/4 and 1/4 = 9/36
    f = hb.project_zero_mean(hb.PCFun1D.uniform([1, 1, -1, -1]))
    comps = hb.analyze_general_M(f, 4)
    assert len(comps.components) == 1 and comps.component(1).equals(f)
    g = hb.PCFun1D.build([0, F(1, 4), 1], [3, -1])
    comps = hb.analyze_general_M(g, 6)
    assert len(comps.components) == 2 and comps.reconstruct().equals(g)
    # M = 2 and prime M keep their depths
    # (the rule reads a grid's lattice: numerators over the lcm of the
    # breakpoints' denominators)
    assert _adic_depth(_to_int_vector([F(3, 8), F(1, 2)]), 2, "b") == 3
    assert _adic_depth(_to_int_vector([F(2, 9), F(1, 3)]), 3, "b") == 2
    assert _adic_depth(_to_int_vector([F(1, 9), F(1, 2)]), 6, "b") == 2
    with pytest.raises(NotMAdic, match="1/3 is not 4-adic"):
        _adic_depth(_to_int_vector([F(1, 2), F(1, 3)]), 4, "breakpoint")
    with pytest.raises(NonDyadicBreakpoints):
        dyadic_level(hb.PCFun1D.build([0, F(1, 3), 1], [1, 2]))


def test_depth_rule_builds_no_breakpoint_fractions(monkeypatch):
    # the depth comes from a lattice's denominator, so an analysis of a
    # kernel output builds no breakpoint view; a refusal builds one to name
    # the first breakpoint off the tower
    from heterobaker import pcfun
    f = hb.p0_apply(hb.ReducedOp.neutral(2), hb.wavelet(2, 1), 2)
    F3 = hb.PCFun3D.from_xc(f)
    made, real = [], pcfun._fractions
    monkeypatch.setattr(pcfun, "_fractions",
                        lambda *args: made.append(args) or real(*args))
    assert dyadic_level(f) == 4
    hb.analyze_levels(f)
    hb.analyze_general_M(f, 2)
    hb.tensor_analyze(F3)
    hb.osc_norm_star(f, 2, 4)
    assert made == []
    with pytest.raises(NotMAdic, match="breakpoint 1/3 is not 2-adic"):
        dyadic_level(hb.PCFun1D.build([0, F(1, 4), F(1, 3), 1], [1, 2, 3]))
    assert made


def test_analysis_ignores_a_redundant_breakpoint():
    # 1/3 and 1/5 split cells without changing a value
    f = hb.PCFun1D.build([0, F(1, 5), F(1, 2), F(2, 3), 1], [1, 1, -1, -1])
    assert dyadic_level(f) == 1
    assert hb.analyze(f) == {(1, 0): 1}
    assert hb.analyze_general_M(f, 2).component(1).equals(hb.wavelet(1, 0))


def test_general_m_matches_dyadic():
    rng = np.random.Generator(np.random.Philox(key=1))
    vals = [F(int(v), 16) for v in rng.integers(-16, 17, size=8)]
    f = hb.project_zero_mean(hb.PCFun1D.uniform(vals))
    comps = hb.analyze_general_M(f, 2)
    exp = hb.analyze(f)
    for l in range(1, 4):
        slice_l = {key: c for key, c in exp.items() if key[0] == l}
        assert comps.component(l).equals(hb.synthesize(slice_l))
    # orthogonality and reconstruction
    for i in range(len(comps.components)):
        for j in range(i + 1, len(comps.components)):
            assert hb.inner_product(comps.components[i],
                                    comps.components[j]) == 0
    assert comps.reconstruct().equals(f)
    assert level_sup_norms(exp) == comps.sup_norms()


def test_tensor_analyze_examples():
    # F depending only on x_c: constant 2D factors, zero average component
    f = hb.from_affine(1, F(-1, 2), 3)
    Fc = hb.PCFun3D.from_xc(f)
    comp = hb.tensor_analyze(Fc)
    assert comp.component00.is_zero()
    for (l, k), u in comp.waves.items():
        assert u.equals(hb.PCFun2D.constant(-F(1, 2 ** (l + 1))))
    # x_c-independent F: everything sits in the average component
    g = hb.PCFun2D.build(["0", "1/2", "1"], ["0", "1"], [[1], [-1]])
    G = hb.PCFun3D.build(["0", "1/2", "1"], ["0", "1"], ["0", "1"],
                         [[[1]], [[-1]]])
    compG = hb.tensor_analyze(G)
    assert compG.waves == {}
    assert compG.component00.equals(g)
    # projection consistency and exact reconstruction
    assert hb.tensor_synthesize(comp).equals(Fc)
    assert hb.tensor_synthesize(compG).equals(G)


def test_tensor_parseval():
    # <F,F> = <phi00,phi00> + sum <phi_lk,phi_lk> 2^(1-l): the components
    # are orthogonal across the x_c wavelet system
    from heterobaker.pcfun import inner_product_2d, inner_product_3d
    from heterobaker.verify import random_pc3
    rng = np.random.Generator(np.random.Philox(key=8))
    Fv = random_pc3(rng)
    comp = hb.tensor_analyze(Fv)
    energy = inner_product_2d(comp.component00, comp.component00)
    for (l, _), u in comp.waves.items():
        energy += inner_product_2d(u, u) * F(2, 2 ** l)
    assert energy == inner_product_3d(Fv, Fv)


def test_tensor_round_trip_random():
    rng = np.random.Generator(np.random.Philox(key=4))
    from heterobaker.verify import random_pc3
    for _ in range(3):
        Fv = random_pc3(rng)
        comp = hb.tensor_analyze(Fv)
        assert hb.tensor_synthesize(comp).equals(Fv)
        avg = hb.pi0(Fv)
        assert hb.PCFun3D.from_xc(hb.PCFun1D.constant(0)).equals(
            avg - avg)  # smoke: pi0 grid is trivial in x_c
        assert comp.component00.equals(
            hb.PCFun2D(avg.bps_u, avg.bps_s,
                       tuple(tuple(plane[0]) for plane in avg.values)))


def test_dyadic_level():
    assert dyadic_level(hb.wavelet(3, 1)) == 3
    assert dyadic_level(hb.PCFun1D.constant(2)) == 0


# ---------------------------------------------------------------------------
# reference: Fraction mean pyramids on the uniform grid

def _ref_means(vals, M):
    """means[l][i]: the mean of `vals` (one per cell of the uniform M^L
    grid) over the i-th of the M^l level-l cells."""
    means = [list(vals)]
    while len(means[-1]) > 1:
        prev = means[-1]
        means.append([sum(prev[i:i + M], F(0)) / M
                      for i in range(0, len(prev), M)])
    return means[::-1]


cell_values = st.fractions(min_value=-2, max_value=2, max_denominator=12)


@st.composite
def m_adic_functions(draw):
    M = draw(st.sampled_from([2, 3, 5]))
    n = M ** draw(st.integers(1, 3 if M < 5 else 2))
    vals = draw(st.lists(cell_values, min_size=n, max_size=n))
    return M, hb.project_zero_mean(hb.PCFun1D.uniform(vals))


@settings(max_examples=40, deadline=None)
@given(m_adic_functions())
def test_general_m_matches_a_mean_pyramid(case):
    # level-l component: the level-l cell mean minus its parent cell's mean
    M, f = case
    means = _ref_means(f.values, M)
    comps = hb.analyze_general_M(f, M)
    assert len(comps.components) <= len(means) - 1
    for l in range(1, len(means)):
        expect = [means[l][i] - means[l - 1][i // M] for i in range(M ** l)]
        assert comps.component(l).equals(hb.PCFun1D.uniform(expect))


@st.composite
def xc_dyadic_functions(draw):
    n = 2 ** draw(st.integers(0, 3))
    bps_u = draw(st.sampled_from([["0", "1"], ["0", "1/3", "1"]]))
    bps_s = draw(st.sampled_from([["0", "1"], ["0", "2/5", "1"]]))
    row = st.lists(cell_values, min_size=len(bps_s) - 1,
                   max_size=len(bps_s) - 1)
    plane = st.lists(row, min_size=n, max_size=n)
    vals = draw(st.lists(plane, min_size=len(bps_u) - 1,
                         max_size=len(bps_u) - 1))
    return hb.PCFun3D.build(bps_u, [F(j, n) for j in range(n + 1)], bps_s,
                            vals)


@settings(max_examples=40, deadline=None)
@given(xc_dyadic_functions())
def test_tensor_analyze_matches_a_mean_pyramid(Fv):
    # per (x_u, x_s) cell: the x_c average, and half the difference of the
    # means over the two halves of each wavelet's support
    n = len(Fv.bps_c) - 1
    nu, ns = len(Fv.bps_u) - 1, len(Fv.bps_s) - 1
    means = [[_ref_means([Fv.values[i][j][s] for j in range(n)], 2)
              for s in range(ns)] for i in range(nu)]
    comp = hb.tensor_analyze(Fv)
    assert comp.component00.equals(hb.PCFun2D(
        Fv.bps_u, Fv.bps_s,
        tuple(tuple(means[i][s][0][0] for s in range(ns)) for i in range(nu))))
    expect = {}
    for l in range(1, n.bit_length()):
        for k in range(2 ** (l - 1)):
            u = hb.PCFun2D(Fv.bps_u, Fv.bps_s, tuple(
                tuple((means[i][s][l][2 * k] - means[i][s][l][2 * k + 1]) / 2
                      for s in range(ns)) for i in range(nu)))
            if not u.is_zero():
                expect[l, k] = u
    assert comp.waves.keys() == expect.keys()
    assert all(comp.waves[key].equals(u) for key, u in expect.items())
