from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heterobaker as hb
from heterobaker.haar import (InvalidHaarIndex, NonZeroMean, dyadic_level,
                              level_sup_norms, monotone_sign_report,
                              pair_expansions)
from heterobaker.pcfun import NotMAdic


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
    assert pair_expansions(exp, exp) == energy


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


def test_expansion_json_round_trip():
    from heterobaker.haar import expansion_from_json, expansion_to_json
    exp = hb.analyze(hb.from_affine(1, F(-1, 2), 3))
    assert expansion_from_json(expansion_to_json(exp)) == exp
