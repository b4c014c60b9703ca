import sys
from fractions import Fraction as F

import pytest

import heterobaker as hb
from heterobaker.ruin import (ZeroFunction, initial_profile,
                              surviving_path_histogram)


def test_step_examples():
    s = hb.RuinState.delta(1)
    s1 = hb.step(s)
    assert s1.q == (0, F(1, 2)) and s1.survival() == F(1, 2)
    s2 = hb.step(hb.RuinState.delta(2))
    assert s2.q == (F(1, 2), 0, F(1, 2)) and s2.survival() == 1
    z = hb.step(hb.RuinState.from_profile([0, 0]))
    assert z.survival() == 0


def test_survival_monotone():
    s = hb.RuinState.from_profile([F(1, 2), F(1, 4), F(1, 4)])
    prev = s.survival()
    for _ in range(12):
        lost = s.mass(1)
        s = hb.step(s)
        assert s.survival() <= prev
        assert (s.survival() < prev) == (lost > 0)
        prev = s.survival()


def test_transition_prob_examples():
    assert hb.transition_prob(1, 1, 2) == F(1, 4)
    assert hb.transition_prob(2, 2, 4) == F(5, 16)
    assert hb.transition_prob(1, 2, 2) == 0  # parity


def test_float_route_matches_exact():
    for (l, lp, n) in [(1, 1, 50), (3, 5, 64), (2, 4, 40), (7, 1, 63)]:
        exact = float(hb.transition_prob_exact(l, lp, n))
        assert hb.transition_prob_float(l, lp, n) == pytest.approx(
            exact, rel=1e-11)


@pytest.mark.parametrize("n", [65, 66, 127, 500, 1001, 1999, 2000, 3000])
def test_float_route_matches_exact_on_a_grid(n):
    # (1000, 1000, 2000) gave nan, (100, 2000, 3000) 0.0 for 7.8e-285
    levels = (1, 2, 3, 7, 50, 99, 100, 101, 500, 999, 1000, 1500, 2000)
    for l in levels:
        for lp in levels:
            exact = float(hb.transition_prob_exact(l, lp, n))
            got = hb.transition_prob_float(l, lp, n)
            assert (got == 0) == (exact == 0), (l, lp, n)
            if exact >= sys.float_info.min:
                assert abs(got - exact) <= 1e-10 * exact, (l, lp, n)


def test_recursion_vs_closed_form():
    s = hb.RuinState.delta(1)
    assert hb.evolve_from(s, 2).q == hb.q_via_transition(s, 2).q == \
        (F(1, 4), 0, F(1, 4))
    assert hb.q_via_transition(s, 0).q == s.q
    geo = hb.RuinState.from_profile([F(1, 2 ** l) for l in range(1, 65)])
    for n in (1, 7, 16, 33):
        assert hb.evolve_from(geo, n).q == hb.q_via_transition(geo, n).q


def test_reflection_vs_brute_force():
    for l in (1, 2, 3):
        for n in (3, 6, 9):
            hist = surviving_path_histogram(l, n)
            for lp in range(1, l + n + 1):
                assert F(hist.get(lp, 0), 2 ** n) == \
                    hb.transition_prob_exact(l, lp, n) if (n - l + lp) % 2 == 0 \
                    else hist.get(lp, 0) == 0
    assert surviving_path_histogram(1, 2).get(1, 0) == 1


def test_asymptotic_report():
    rep = hb.asymptotic_ratio_report([1000, 10000])
    assert all((r["n"] - r["l"] + r["lp"]) % 2 == 0 for r in rep["rows"])
    assert 0 < rep["r_min"] <= rep["r_max"]
    assert rep["r_max"] / rep["r_min"] < 2
    r5 = hb.transition_prob_float(1, 1, 10 ** 5) * (10 ** 5) ** 1.5
    r6 = hb.transition_prob_float(1, 1, 10 ** 6) * (10 ** 6) ** 1.5
    assert abs(r6 - r5) / r5 < 0.05


def test_initial_profile():
    c_phi, q0 = initial_profile(hb.wavelet(1, 0))
    assert c_phi == 1 and q0.q == (1,)
    with pytest.raises(ZeroFunction):
        initial_profile(hb.PCFun1D.uniform([0, 0]))


def test_domination_chi():
    rep = hb.domination_check(hb.wavelet(1, 0), 4)
    assert rep["all_hold"] and rep["c_phi"] == 1
    row = next(r for r in rep["rows"] if r["n"] == 2 and r["l"] == 1)
    assert row["lhs"] == F(1, 4) and row["rhs"] == F(1, 4) and row["equality"]


def test_domination_monotone_equality():
    stair = hb.PCFun1D.uniform([F(-3, 4), F(-1, 4), F(1, 4), F(3, 4)])
    rep = hb.domination_check(stair, 8)
    assert rep["all_hold"] and rep["all_equal"]
    assert rep["c_phi"] == F(3, 4)


def test_domination_strict_somewhere():
    mixed = hb.PCFun1D.uniform([F(1, 2), F(-1), F(3, 4), F(-1, 4)])
    rep = hb.domination_check(mixed, 6)
    assert rep["all_hold"]
    assert not rep["all_equal"]
    assert any(r["holds"] and not r["equality"] and r["rhs"] > 0
               for r in rep["rows"])
