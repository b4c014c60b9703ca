"""Every count and every measure-preservation requirement is refused the
same way: a count below its floor raises ValueError("{name} must be at
least {low}, got {value}"), a non-integral count TypeError, and a + b != 1/M
NotMeasurePreserving("{what} needs a + b = 1/M = 1/{M}, got a + b = ...")."""

import signal
from fractions import Fraction as F

import pytest

import heterobaker as hb
from heterobaker.observables import pc_center
from heterobaker.pcfun import from_affine, osc_norm_star
from heterobaker.transfer import p_full_3d_n

NEUTRAL = hb.BakerParams.neutral(2)
OFF = hb.BakerParams(2, F(1, 5), F(1, 5))      # a + b = 2/5, not 1/2
OP = hb.ReducedOp.neutral(2)
XC = hb.affine_center()
# a PC observable in the square-wave span: its series with n_max = -1 used
# to loop forever
PC = pc_center(hb.square_wave(1) * F(1, 2) + hb.square_wave(2) * F(1, 4))
U = hb.PCFun3D.build(["0", "1"], ["0", "1"], ["0", "1/2", "1"], [[[1, -1]]])
V = (F(-1, 2), 0, 0, 1)
STAIR = hb.PCFun1D.uniform(["-3/4", "-1/4", "1/4", "3/4"])
Q0 = hb.RuinState.delta(2)


def _mc(n_list=(1,), samples=10 ** 4, workers=1, params=NEUTRAL):
    return hb.mc_correlation_series(params, XC, XC, n_list, samples, seed=1,
                                    workers=workers)


def _within(seconds, fn):
    """fn(), stopped by SIGALRM after `seconds`: a call that never
    returns fails the test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


REFUSALS = {
    # the counts checked before, now in one wording
    "p0_apply": (lambda: hb.p0_apply(OP, hb.square_wave(1), -1), "n", -1),
    "p0_apply_pa": (lambda: hb.p0_apply_pa(OP, hb.PAFun1D.affine(1, 0), -1),
                    "n", -1),
    "p_full_3d_n": (lambda: p_full_3d_n(NEUTRAL, U, -1), "n", -1),
    "orbit": (lambda: hb.orbit(NEUTRAL, (0, 0, 0), -1), "n", -1),
    "itinerary_stats": (lambda: hb.itinerary_stats(NEUTRAL, n=0, seed=1),
                        "n", 0),
    "mc samples": (lambda: _mc(samples=9999), "samples", 9999),
    "from_affine": (lambda: from_affine(1, 0, -1), "level", -1),
    "osc_norm_star": (lambda: osc_norm_star(hb.wavelet(1, 0), 2, 0),
                      "level", 0),
    "RuinState.delta": (lambda: hb.RuinState.delta(0), "l", 0),
    "transition_prob_exact l": (lambda: hb.transition_prob_exact(0, 1, 1),
                                "l", 0),
    "transition_prob_exact lp": (lambda: hb.transition_prob_exact(1, 0, 1),
                                 "lp", 0),
    "transition_prob_float n": (lambda: hb.transition_prob_float(1, 1, 0),
                                "n", 0),
    "BakerParams": (lambda: hb.BakerParams(1, F(1, 4), F(1, 4)), "M", 1),
    "ReducedOp": (lambda: hb.ReducedOp(1, F(1, 2)), "M", 1),
    # the entry points that checked nothing
    "exact squarewave pc": (lambda: hb.exact_reduced_correlation(PC, PC, -1),
                            "n_max", -1),
    "exact squarewave affine": (
        lambda: hb.exact_reduced_correlation(XC, XC, -1), "n_max", -1),
    "exact haar": (lambda: hb.exact_reduced_correlation(PC, PC, -1,
                                                        mode="haar"),
                   "n_max", -1),
    "lower_bound_check": (lambda: hb.lower_bound_check(XC, XC, 0),
                          "n_max", 0),
    "mc empty n_list": (lambda: _mc(n_list=[]), "the length of n_list", 0),
    "mc negative n": (lambda: _mc(n_list=[-1, 5]), "each n in n_list", -1),
    "mc workers 0": (lambda: _mc(workers=0), "workers", 0),
    "mc workers -2": (lambda: _mc(workers=-2), "workers", -2),
    "chisq workers": (lambda: hb.measure_invariance_chisq(
        NEUTRAL, n=2, samples=100, seed=1, workers=0), "workers", 0),
    "evolve_from": (lambda: hb.evolve_from(Q0, -2), "n", -2),
    "q_via_transition": (lambda: hb.q_via_transition(Q0, -2), "n", -2),
    "fiber_average_decay_check": (
        lambda: hb.fiber_average_decay_check(NEUTRAL, U, V, -2), "n_max", -2),
    "domination_check": (lambda: hb.domination_check(STAIR, -1), "n_max", -1),
    "oracle_equivalence_report": (
        lambda: hb.oracle_equivalence_report(hb.square_wave(1), OP, -1),
        "n_steps", -1),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_count_below_its_floor_is_refused_naming_it(case):
    call, name, value = REFUSALS[case]
    with pytest.raises(ValueError, match=rf"^{name} must be at least "
                                         rf"-?\d+, got {value}$"):
        _within(5, call)


def test_a_non_integral_n_is_refused():
    # int(2.5) ran n = 2
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        _mc(n_list=[2.5])


@pytest.mark.parametrize("call", [
    lambda: hb.ReducedOp.from_params(OFF),
    lambda: hb.p_full_3d(OFF, U),
    lambda: hb.fiber_average_decay_check(OFF, U, V, 2),
    lambda: hb.apply_f3_inverse(OFF, (F(1, 3), F(1, 3), F(1, 3))),
    lambda: _mc(params=OFF),
], ids=["ReducedOp.from_params", "p_full_3d", "fiber_average_decay_check",
        "apply_f3_inverse", "mc_correlation_series"])
def test_measure_preservation_is_one_check(call):
    assert hb.NotMeasurePreserving is hb.baker.NotMeasurePreserving is \
        hb.correlation.NotMeasurePreserving
    with pytest.raises(hb.NotMeasurePreserving,
                       match=r"^[\w -]+ needs a \+ b = 1/M = 1/2, "
                             r"got a \+ b = 2/5$"):
        call()


@pytest.mark.parametrize("mode", ["squarewave", "haar"])
def test_an_unknown_numeric_is_refused_on_every_mode(mode):
    # the check came after the haar dispatch, which returned 3 records
    with pytest.raises(ValueError, match="^numeric must be 'rational' or "
                                         "'double'$"):
        hb.exact_reduced_correlation(hb.staircase4(), hb.staircase4(), 2,
                                     mode=mode, numeric="bogus")
