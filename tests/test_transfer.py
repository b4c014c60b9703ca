import hashlib
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heterobaker as hb
from heterobaker import transfer
from heterobaker.haar import _expansion
from heterobaker.pcfun import _same, _uniform_lattice, inner_product_3d
from heterobaker.transfer import (_p0_step_int, _pullback_2d, _to_int_vector,
                                  square_wave_levels, xs_fiber_averages_zero)
from heterobaker.verify import (check_duality, check_formula_compositions,
                                check_phat_sum, check_reduction,
                                pair_with_pullback, random_pc1, random_pc3)

OP = hb.ReducedOp.neutral(2)
NEUTRAL = hb.BakerParams.neutral(2)


def test_p_alpha_p_beta_examples():
    chi10, chi20 = hb.wavelet(1, 0), hb.wavelet(2, 0)
    assert hb.p_beta(OP, chi10).equals(hb.PCFun1D.zero())
    assert hb.p_alpha(OP, chi10).equals(
        (hb.wavelet(2, 0) + hb.wavelet(2, 1)) * F(1, 2))
    assert hb.p_beta(OP, chi20).equals(chi10 * F(1, 4))


def test_p0_mass_preservation():
    rng = np.random.Generator(np.random.Philox(key=2))
    f = hb.PCFun1D.uniform([F(int(v), 8) for v in rng.integers(-8, 9, size=8)])
    g = hb.p0_apply(OP, f, 3)
    assert hb.mean(g) == hb.mean(f)


def test_p0_pa_oracle_values():
    pa = hb.PAFun1D.affine(1, F(-1, 2))
    assert hb.inner_product_pa(pa, pa) == F(1, 12)
    vals = []
    cur = pa
    for _ in range(3):
        cur = hb.p0_apply_pa(OP, cur, 1)
        vals.append(hb.inner_product_pa(cur, pa))
    assert vals == [F(1, 24), F(7, 192), F(5, 192)]


def test_p0_chi_pairing():
    chi10 = hb.wavelet(1, 0)
    g = hb.p0_apply(OP, chi10, 2)
    assert hb.inner_product(g, chi10) == F(1, 4)


def _haar_step_image(f, op=OP):
    """Expansion of P0 f through one Haar step on the levels of f."""
    levels, scale = hb.analyze_levels(f)
    return _expansion(hb.p0_haar_step(levels, op),
                      scale / (2 * op.w.denominator))


def test_p0_haar_step_examples():
    assert _haar_step_image(hb.wavelet(1, 0)) == \
        {(2, 0): F(1, 2), (2, 1): F(1, 2)}
    # the generator image of chi_{2,0}: alpha keeps weight 1/2 per child,
    # beta folds down with 1/4 (checked against the PC-grid oracle)
    assert _haar_step_image(hb.wavelet(2, 0)) == \
        {(3, 0): F(1, 2), (3, 2): F(1, 2), (1, 0): F(1, 4)}
    assert _haar_step_image(hb.PCFun1D.zero()) == {}


def test_fast_path_matches_generic():
    # a redundant breakpoint leaves the operator unchanged: the grid route
    # on a uniform grid and on its refinement by a non-dyadic point agree
    # (the uniform integer step is checked in
    # test_grid_route_matches_the_uniform_integer_step)
    rng = np.random.Generator(np.random.Philox(key=77))
    for _ in range(4):
        f = random_pc1(rng, int(rng.integers(1, 5)))
        bumped = f.refine([F(1, 3)])
        for n in (1, 3, 5):
            assert hb.p0_apply(OP, f, n).equals(hb.p0_apply(OP, bumped, n))
    # and for a non-neutral weight
    op = hb.ReducedOp(2, F(2, 7))
    f = random_pc1(rng, 3)
    assert hb.p0_apply(op, f, 4).equals(hb.p0_apply(op, f.refine([F(1, 3)]), 4))
    # and for M = 3: a uniform 3-adic input against the same function on a
    # grid refined at 1/2
    for w in (F(1, 2), F(2, 5)):
        op3 = hb.ReducedOp(3, w)
        g = hb.project_zero_mean(hb.PCFun1D.uniform(
            [F(int(v), 9) for v in rng.integers(-9, 10, size=9)]))
        for n in (1, 3):
            assert hb.p0_apply(op3, g, n).equals(
                hb.p0_apply(op3, g.refine([F(1, 2)]), n))


def _grid_route_cases():
    """Seeded (operator, function, n): M in {2, 3, 4}, breakpoint
    denominators from 2 to 16 (most of them non-dyadic), and every fourth
    function on a uniform M-adic grid."""
    rng = np.random.Generator(np.random.Philox(key=2024))
    cases = []
    for i in range(36):
        M = (2, 3, 4)[i % 3]
        op = hb.ReducedOp(M, (F(1, 2), F(2, 5), F(3, 7), F(5, 6))[i % 4])
        if i % 4 == 3:
            size = M ** int(rng.integers(1, 4 - M // 2))
            f = hb.PCFun1D.uniform(
                [F(int(v), 12) for v in rng.integers(-12, 13, size=size)])
        else:
            q = int(rng.integers(2, 17))
            inner = {F(int(k), q) for k in rng.integers(1, q, size=3)}
            bps = [0, *sorted(inner), 1]
            f = hb.PCFun1D(bps, [F(int(v), int(rng.integers(1, 10))) for v
                                 in rng.integers(-9, 10, size=len(bps) - 1)])
        cases.append((op, f, 1 + i % 4))
    return cases


def test_grid_route_is_pinned():
    # recorded while non-uniform grids ran per-cell Fraction loops and
    # uniform ones the integer step: the lattice route keeps both outputs
    outs = []
    for op, f, n in _grid_route_cases():
        outs += [hb.p_alpha(op, f), hb.p_beta(op, f), hb.p0_apply(op, f, n)]
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == \
        "7d1f9ebe11332c74be88ea0781065163afed98038db874f16e223b8496a12da0"


@pytest.mark.parametrize("w", [F(1, 2), F(2, 5), F(3, 5)])
@pytest.mark.parametrize("M", [2, 3])
def test_grid_route_matches_the_uniform_integer_step(M, w):
    # _p0_step_int, the oracle report's grid step, is written apart from
    # p_alpha and p_beta: n integer steps over denom (M wq)^n
    rng = np.random.Generator(np.random.Philox(key=31))
    op = hb.ReducedOp(M, w)
    for L in (1, 2, 3):
        f = hb.PCFun1D.uniform(
            [F(int(v), 7) for v in rng.integers(-7, 8, size=M ** L)])
        nums, denom = f.lattice
        for n in range(1, 6):
            nums = _p0_step_int(nums, op)
            want = hb.PCFun1D._from_lattice(
                nums, denom * (M * w.denominator) ** n,
                (_uniform_lattice(len(nums)),))
            assert hb.p0_apply(op, f, n) == want


def test_grid_route_matches_the_pa_oracle():
    # p0_apply_pa shares no step with the PC route; on f's zero-slope copy
    # its slopes stay zero and its intercepts are P0^n f
    cases = [(op, f, n) for op, f, n in _grid_route_cases()
             if f.axis_lattices[0][1] & (f.axis_lattices[0][1] - 1)]
    assert len(cases) >= 20
    for op, f, n in cases:
        zeros = (F(0),) * len(f.values)
        pa = hb.p0_apply_pa(op, hb.PAFun1D(f.breakpoints, zeros, f.values), n)
        assert not any(pa.slopes)
        assert hb.p0_apply(op, f, n).equals(
            hb.PCFun1D(pa.breakpoints, pa.intercepts))


def test_haar_matches_grid():
    rng = np.random.Generator(np.random.Philox(key=12))
    for _ in range(5):
        f = random_pc1(rng, int(rng.integers(1, 4)))
        levels, scale = hb.analyze_levels(f)
        for n in range(1, 6):
            levels = hb.p0_haar_step(levels, OP)
            scale /= 4
            assert _expansion(levels, scale) == \
                hb.analyze(hb.p0_apply(OP, f, n))


def test_subspace_invariance():
    # P0 s_l = (1/2) s_{l-1} + (1/2) s_{l+1} with s_0 = 0
    for level in range(1, 9):
        out = hb.p0_apply(OP, hb.square_wave(level), 1)
        expect = hb.square_wave(level + 1) * F(1, 2)
        if level >= 2:
            expect = expect + hb.square_wave(level - 1) * F(1, 2)
        assert out.equals(expect)
    # deeper levels through the uniform integer step, which the oracle
    # report runs (and which test_grid_route_matches_the_uniform_integer_step
    # ties to p0_apply), compared on numerators without building functions
    for level in range(9, 21):
        nums, _ = _to_int_vector(hb.square_wave(level).values)
        out = _p0_step_int(nums, OP)  # scale 1/4, unit denominator
        lo, _ = _to_int_vector(hb.square_wave(level - 1).values)
        hi, _ = _to_int_vector(hb.square_wave(level + 1).values)
        # (1/2)(s_{l-1} + s_{l+1}) at scale 1/4: integers are 2*(lo + hi)
        assert np.array_equal(out, 2 * (np.repeat(lo, 4) + hi))


def test_operator_norm_witnesses():
    # every basis element up to level 10
    for level in range(1, 11):
        for k in range(2 ** (level - 1)):
            chi = hb.wavelet(level, k)
            assert hb.p_alpha(OP, chi).sup_norm() == F(1, 2)
            if level >= 2:
                assert hb.p_beta(OP, chi).sup_norm() <= F(1, 2)
            else:
                assert hb.p_beta(OP, chi).sup_norm() == 0


def test_p0_iterates_keep_coefficient_signs():
    # the usable form of monotonicity preservation: iterates of an
    # increasing input keep all-negative Haar coefficients (the operator
    # itself introduces seam jumps, so pointwise monotonicity is lost)
    f = hb.from_affine(1, F(-1, 2), 4)
    cur = f
    for _ in range(6):
        cur = hb.p0_apply(OP, cur, 1)
        assert all(c < 0 for c in hb.analyze(cur).values())


def test_cone_preservation():
    from heterobaker.haar import is_xi_increasing
    f2 = hb.PCFun1D.uniform([F(-3, 4), F(-1, 4), F(1, 4), F(3, 4)])
    assert is_xi_increasing(f2, 2, 2)
    assert is_xi_increasing(hb.p_alpha(OP, f2), 2, 3)
    assert is_xi_increasing(hb.p_beta(OP, f2), 2, 1)
    op3 = hb.ReducedOp.neutral(3)
    f3 = hb.PCFun1D.uniform([F(-1), F(0), F(1)])
    assert is_xi_increasing(f3, 3, 1)
    assert is_xi_increasing(hb.p_alpha(op3, f3), 3, 2)


@pytest.mark.parametrize("M", [2, 3])
def test_level_transfer_equalities(M):
    # oscillation-norm recursion is an equality on strictly increasing input
    op = hb.ReducedOp.neutral(M)
    f = hb.from_affine(1, F(-1, 2), 1, base=M)
    norms = {}
    cur = f
    for n in range(0, 9):
        comps = hb.analyze_general_M(cur, M)
        norms[n] = {l: hb.osc_norm_star(comps.component(l), M, l)
                    for l in range(1, n + 3)}
        cur = hb.p0_apply(op, cur, 1)
    for n in range(0, 8):
        for l in range(1, n + 2):
            up = norms[n].get(l + 1, F(0))
            down = norms[n].get(l - 1, F(0)) if l >= 2 else F(0)
            assert norms[n + 1][l] == F(1, 2) * down + F(1, 2) * up


def test_duality_small():
    rng = np.random.Generator(np.random.Philox(key=21))
    Fv, Gv = random_pc3(rng), random_pc3(rng)
    for n in (1, 2, 3):
        assert check_duality(NEUTRAL, Fv, Gv, n)


def test_p_full_3d_constant():
    one = hb.PCFun3D.constant(1)
    assert hb.p_full_3d(NEUTRAL, one).equals(one)


def test_reduction_identity():
    rng = np.random.Generator(np.random.Philox(key=23))
    f = random_pc1(rng, 2)
    assert check_reduction(NEUTRAL, f, 3)
    # the generalized weight is pinned by the same identity off neutral
    skew = hb.BakerParams(2, F(3, 10), F(1, 5))
    assert check_reduction(skew, f, 3)


def test_reduced_weight_needs_measure_preserving_parameters():
    assert hb.ReducedOp.from_params(hb.BakerParams(2, F(1, 5), F(3, 10))) == \
        hb.ReducedOp(2, F(2, 5))
    # off a + b = 1/M the alpha weight M a and 1 - M b differ
    with pytest.raises(ValueError, match=r"a \+ b = 1/M = 1/2, got a \+ b = 2/5"):
        hb.ReducedOp.from_params(hb.BakerParams(2, F(1, 5), F(1, 5)))


def test_phat_beta_h1_example():
    from heterobaker.haar import TensorComponents
    comp = TensorComponents(hb.PCFun2D.constant(0),
                            {(1, 0): hb.PCFun2D.constant(1)})
    out = hb.p_hat_beta(NEUTRAL, comp)
    assert out.waves == {}
    expect = hb.PCFun2D.build(["0", "1"], ["0", "1/2", "3/4", "1"],
                              [[0, 1, -1]])
    assert out.component00.equals(expect)


def test_phat_alpha_lands_in_h1():
    from heterobaker.haar import TensorComponents
    u0 = hb.PCFun2D.build(["0", "1/2", "1"], ["0", "1"], [[1], [-1]])
    comp = TensorComponents(u0, {})
    out = hb.p_hat_alpha(NEUTRAL, comp)
    assert set(out.waves) <= {(1, 0)}
    assert out.component00.is_zero()


def test_phat_sum_random():
    rng = np.random.Generator(np.random.Philox(key=31))
    for _ in range(3):
        assert check_phat_sum(NEUTRAL, random_pc3(rng))


def test_component_split_examples():
    f = hb.from_affine(1, F(-1, 2), 2)
    Fc = hb.PCFun3D.from_xc(f)
    zero = hb.PCFun3D.constant(0)
    assert hb.component_split_apply("01", NEUTRAL, Fc).equals(zero)
    assert hb.component_split_apply("00", NEUTRAL, Fc).equals(zero)
    # on the average component the split matches the tensor actions
    u0 = hb.PCFun2D.build(["0", "1/2", "1"], ["0", "1"], [[1], [-1]])
    G = hb.PCFun3D.build(["0", "1/2", "1"], ["0", "1"], ["0", "1"],
                         [[[1]], [[-1]]])
    comp = hb.tensor_analyze(G)
    p01 = hb.component_split_apply("01", NEUTRAL, G)
    p00 = hb.component_split_apply("00", NEUTRAL, G)
    assert p01.equals(hb.tensor_synthesize(hb.p_hat_alpha(NEUTRAL, comp)))
    assert p00.equals(hb.tensor_synthesize(hb.p_hat_beta(NEUTRAL, comp)))


def test_formula_compositions_small():
    rng = np.random.Generator(np.random.Philox(key=33))
    ok1, ok2 = check_formula_compositions(NEUTRAL, random_pc3(rng), 2)
    assert ok1 and ok2


def test_fiber_average_decay():
    u = hb.PCFun3D.build(["0", "1"], ["0", "1"], ["0", "1/2", "1"],
                         [[[1, -1]]])
    assert xs_fiber_averages_zero(u)
    rows = hb.fiber_average_decay_check(NEUTRAL, u, (F(-1, 2), 0, 0, 1), 6)
    for r in rows:
        assert r["ok"]
        assert r["value"] == F(-1, 4) * F(3, 8) ** r["n"]
    # n = 0 term bounded by the plain Hoelder pairing bound
    assert abs(float(rows[0]["value"])) <= rows[0]["bound"]
    # cross-check the cocycle identity against the direct 3D route
    from heterobaker.pcfun import pair_with_affine_3d
    G = u
    for n in range(3):
        assert pair_with_affine_3d(G, F(-1, 2), 0, 0, 1) == rows[n]["value"]
        G = hb.p_full_3d(NEUTRAL, G)
    # zero input gives the zero series
    z = hb.PCFun3D.constant(0)
    assert all(r["value"] == 0
               for r in hb.fiber_average_decay_check(NEUTRAL, z, (0, 0, 0, 1), 3))
    bad = hb.PCFun3D.build(["0", "1"], ["0", "1"], ["0", "1/2", "1"],
                           [[[1, 1]]])
    with pytest.raises(hb.FiberAverageNonZero):
        hb.fiber_average_decay_check(NEUTRAL, bad, (0, 0, 0, 1), 2)


def test_square_wave_profile_detection():
    f = hb.square_wave(1) * F(1, 2) + hb.square_wave(3) * F(-1, 8)
    levels, scale = hb.analyze_levels(f)
    prof = [c * scale for c in square_wave_levels(levels)]
    assert prof == [F(1, 2), F(0), F(-1, 8)]
    g = hb.wavelet(2, 0)
    assert square_wave_levels(hb.analyze_levels(g)[0]) is None
    assert sum((hb.square_wave(l) * c for l, c in enumerate(prof, start=1)),
               hb.PCFun1D.zero()).equals(f)


def test_oracle_equivalence_reports():
    rng = np.random.Generator(np.random.Philox(key=41))
    rep = hb.oracle_equivalence_report(random_pc1(rng, 4), OP, 10)
    assert rep["agree"] and not rep["squarewave_applicable"]
    f = hb.square_wave(1) * F(1, 3) + hb.square_wave(2) * F(1, 5)
    rep = hb.oracle_equivalence_report(f, OP, 10)
    assert rep["agree"] and rep["squarewave_applicable"]
    # the Haar step carries the mean, so a nonzero mean still agrees
    rep = hb.oracle_equivalence_report(f + hb.PCFun1D.constant(F(1, 7)), OP, 6)
    assert rep["agree"] and rep["squarewave_applicable"]


def _off_by_one(step):
    """A wrong step: the true one with its last entry (or last level) + 1."""
    def wrong(state, *args):
        out = step(state, *args)
        last = out[-1] if isinstance(out, list) else out
        last[-1] += 1
        return out
    return wrong


# on the inputs below, a weight whose oracle state leaves int64 mid-run
PROMOTING_W = F(2 ** 19 + 1, 2 ** 20)


@pytest.mark.parametrize("name", ["p0_haar_step", "_p0_step_int",
                                  "walk_step"])
@pytest.mark.parametrize("w", [F(1, 2), F(2, 5), PROMOTING_W])
def test_oracle_detects_a_wrong_step(monkeypatch, name, w):
    # each of the three routes the report compares is replaced in turn by a
    # step that is wrong in one entry; the report must disagree
    op = hb.ReducedOp(2, w)
    f = hb.square_wave(1) * F(1, 3) + hb.square_wave(2) * F(1, 5)
    assert hb.oracle_equivalence_report(f, op, 4)["agree"]
    monkeypatch.setattr(transfer, name, _off_by_one(getattr(transfer, name)))
    rep = transfer.oracle_equivalence_report(f, op, 4)
    assert rep["squarewave_applicable"] and not rep["agree"]


def _without_dtypes(report):
    return {**report, "steps": [{k: v for k, v in step.items() if k != "dtype"}
                                for step in report["steps"]]}


def _dtypes(report):
    return [step["dtype"] for step in report["steps"]]


def test_oracle_int64_and_object_reports_are_equal(monkeypatch):
    # the same report, step by step, whether the state runs on int64 or on
    # Python ints from the start (a bound of 0 refuses int64 at once)
    rng = np.random.Generator(np.random.Philox(key=12))
    cases = [(random_pc1(rng, level), hb.ReducedOp(2, w))
             for level in (1, 3, 5) for w in (F(1, 2), F(2, 5), F(7, 9))]
    cases.append((hb.square_wave(1) * F(1, 3) + hb.square_wave(3) * F(1, 5),
                  hb.ReducedOp(2, F(3, 5))))
    reports = [hb.oracle_equivalence_report(f, op, 8) for f, op in cases]
    assert all(_dtypes(rep)[0] == "int64" for rep in reports)
    monkeypatch.setattr(transfer, "_INT64_END", 0)
    for (f, op), rep in zip(cases, reports):
        forced = transfer.oracle_equivalence_report(f, op, 8)
        assert set(_dtypes(forced)) == {"object"}
        assert _without_dtypes(forced) == _without_dtypes(rep)
        assert rep["agree"]


def test_oracle_promotes_once_and_stays_exact(monkeypatch):
    # a weight with a large denominator outgrows int64 mid-run: the state
    # becomes Python ints once, never goes back, and still agrees
    f = hb.square_wave(1) * F(1, 3) + hb.square_wave(2) * F(1, 5)
    assert _dtypes(hb.oracle_equivalence_report(f, hb.ReducedOp(
        2, PROMOTING_W), 4)) == ["int64", "int64", "object", "object"]
    rng = np.random.Generator(np.random.Philox(key=13))
    g = random_pc1(rng, 4)
    op = hb.ReducedOp(2, F(1000, 2001))
    rep = hb.oracle_equivalence_report(g, op, 10)
    dtypes = _dtypes(rep)
    switch = dtypes.index("object")
    assert 0 < switch and set(dtypes[switch:]) == {"object"}
    assert rep["agree"]
    monkeypatch.setattr(transfer, "_INT64_END", 0)
    assert _without_dtypes(transfer.oracle_equivalence_report(g, op, 10)) == \
        _without_dtypes(rep)


@pytest.mark.parametrize("name,flag", [("p0_haar_step", "grid_vs_haar"),
                                       ("_p0_step_int", "grid_vs_haar"),
                                       ("walk_step", "squarewave")])
def test_oracle_detects_a_wrong_step_on_python_ints(monkeypatch, name, flag):
    # a step that is wrong only once the state is Python ints: the steps
    # after the promotion, and only those, disagree
    step = getattr(transfer, name)
    wrong = _off_by_one(step)
    monkeypatch.setattr(transfer, name, lambda state, *args: (
        wrong if (state[0] if isinstance(state, list) else state).dtype
        == object else step)(state, *args))
    f = hb.square_wave(1) * F(1, 3) + hb.square_wave(2) * F(1, 5)
    rep = transfer.oracle_equivalence_report(f, hb.ReducedOp(2, PROMOTING_W),
                                             4)
    assert _dtypes(rep) == ["int64", "int64", "object", "object"]
    assert [step[flag] for step in rep["steps"]] == [True, True, False, False]
    assert not rep["agree"]


def _pushforwards():
    rng = np.random.Generator(np.random.Philox(key=14))
    out = []
    for params in (hb.BakerParams(2, F(1, 5), F(3, 10)), NEUTRAL,
                   hb.BakerParams(3, F(1, 6), F(1, 6))):
        G = random_pc3(rng)
        for _ in range(2):
            G = hb.p_full_3d(params, G)
            out.append(G)
            out.append(hb.p_full_2d(params, _fiber_average(G),
                                    (1 - params.M * params.b, params.b)))
    return out


def _fiber_average(G):
    """The x_s average of a 3D function, as a function of (x_u, x_c)."""
    lu, lc, ls = G.axis_lattices
    return hb.PCFun2D._from_lattice(*transfer._contract_lattice(
        G.lattice, (None, None, transfer._widths(ls))), (lu, lc))


def test_pushforwards_do_not_depend_on_the_plan_cache():
    warm = _pushforwards()
    again = _pushforwards()
    hits = transfer._push_plan.cache_info().hits
    transfer._push_plan.cache_clear()
    cold = _pushforwards()
    info = transfer._push_plan.cache_info()
    assert info.misses > 0 and hits > 0
    assert warm == again == cold
    assert list(map(repr, warm)) == list(map(repr, cold))


def test_one_plan_moves_different_values():
    # functions on one grid share a plan, and each gets its own image: the
    # 3D image is checked against the box pullback (which has no plan), the
    # 2D one against the x_s average of the 3D image
    rng = np.random.Generator(np.random.Philox(key=15))
    params = hb.BakerParams(2, F(1, 5), F(3, 10))
    F1, F2, G = random_pc3(rng), random_pc3(rng), random_pc3(rng)
    F1, F2 = hb.p_full_3d(params, F1), hb.p_full_3d(params, F2)
    assert all(map(_same, F1.axis_lattices, F2.axis_lattices))
    before = transfer._push_plan.cache_info()
    images = [hb.p_full_3d(params, F1), hb.p_full_3d(params, F2)]
    planes = [hb.p_full_2d(params, _fiber_average(H)) for H in (F1, F2)]
    after = transfer._push_plan.cache_info()
    assert after.misses - before.misses <= 2     # one 3D and one 2D plan
    assert images[0] != images[1] and not planes[0].equals(planes[1])
    for H, image, plane in zip((F1, F2), images, planes):
        assert inner_product_3d(image, G) == \
            pair_with_pullback(params, H, G, 1)
        assert plane.equals(_fiber_average(image))


def test_plan_cache_is_bounded_and_read_only():
    assert transfer._push_plan.cache_info().maxsize is not None
    grids, branches = transfer._plan(NEUTRAL, random_pc3(
        np.random.Generator(np.random.Philox(key=16))))
    arrays = [nums for nums, _ in grids] + [
        index for _, gather in branches for index in gather]
    assert all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[-1][0] = 0
    assert all(isinstance(part, tuple) for part in
               (grids, branches, *(part for branch in branches
                                   for part in branch)))


def _pullback_2d_cellwise(u, mx, cx, my, cy):
    # the Fraction loop _pullback_2d replaced: grid points pulled back one by
    # one, then u read at each output cell's image midpoint
    def axis(bps, m, c):
        pts = {F(0), F(1)}
        for b in bps:
            t = (b - c) / m
            if 0 <= t <= 1:
                pts.add(t)
        for edge in (F(0), F(1)):
            t = (edge - c) / m
            if 0 < t < 1:
                pts.add(t)
        return tuple(sorted(pts))

    bx = axis(u.bps_x, mx, cx)
    by = axis(u.bps_y, my, cy)
    vals = []
    for x0, x1 in zip(bx, bx[1:]):
        xm = mx * (x0 + x1) / 2 + cx
        row = []
        inside_x = 0 <= xm <= 1
        for y0, y1 in zip(by, by[1:]):
            ym = my * (y0 + y1) / 2 + cy
            if inside_x and 0 <= ym <= 1:
                row.append(u(xm, ym))
            else:
                row.append(F(0))
        vals.append(tuple(row))
    return hb.PCFun2D(bx, by, tuple(vals))


_inner_bps = st.lists(st.fractions(min_value=0, max_value=1,
                                   max_denominator=48),
                      max_size=6).map(lambda bs: sorted(set(bs) - {0, 1}))
# the four branch factors of the tensor actions, then any positive slope
_slope_offset = st.sampled_from([(F(1, 4), F(0)), (F(1, 4), F(1, 4)),
                                 (F(2), F(0)), (F(1, 2), F(1, 2)),
                                 (F(4), F(-2)), (F(4), F(-3))]) | st.tuples(
    st.fractions(min_value=F(1, 16), max_value=16, max_denominator=16),
    st.fractions(min_value=-4, max_value=4, max_denominator=16))


@settings(max_examples=200, deadline=None)
@given(_inner_bps, _inner_bps, st.data(), _slope_offset, _slope_offset)
def test_pullback_2d_matches_the_cellwise_loop(bx, by, data, fx, fy):
    values = data.draw(st.lists(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        min_size=len(by) + 1, max_size=len(by) + 1),
        min_size=len(bx) + 1, max_size=len(bx) + 1))
    u = hb.PCFun2D([0, *bx, 1], [0, *by, 1], values)
    got = _pullback_2d(u, *fx, *fy)
    want = _pullback_2d_cellwise(u, *fx, *fy)
    assert got == want and repr(got) == repr(want)


def _p0_step_int_tiled(nums, op):
    M, wp, wq = op.M, op.w.numerator, op.w.denominator
    beta = (wq - wp) * nums.reshape(M, -1).sum(axis=0)
    return np.tile(M * wp * nums, M) + np.repeat(beta, M * M)


def _p0_haar_step_tiled(levels, op):
    wp, wq = op.w.numerator, op.w.denominator
    new = [np.zeros(2 ** max(l - 1, 0), dtype=levels[0].dtype)
           for l in range(len(levels) + 1)]
    new[0] = 2 * wq * levels[0]
    for l in range(1, len(levels)):
        arr = levels[l]
        if arr.any():
            new[l + 1] += np.tile(2 * wp * arr, 2)
            if l >= 2:
                q = arr.size // 2
                new[l - 1] += (wq - wp) * (arr[:q] + arr[q:])
    return new


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("M,w", [(2, F(1, 2)), (2, F(2, 5)), (3, F(4, 7))])
def test_int_steps_match_their_tiled_form(dtype, M, w):
    # the grid and Haar steps copy with np.concatenate; np.tile gave the same
    rng = np.random.Generator(np.random.Philox(key=17))
    op = hb.ReducedOp(M, w)
    nums = rng.integers(-50, 50, size=M ** 3).astype(dtype)
    for _ in range(4):
        want = _p0_step_int_tiled(nums, op)
        nums = _p0_step_int(nums, op)
        assert nums.dtype == want.dtype and np.array_equal(nums, want)
    if M == 2:
        levels = [rng.integers(-50, 50, size=2 ** max(l - 1, 0)).astype(dtype)
                  for l in range(5)]
        for _ in range(4):
            want = _p0_haar_step_tiled(levels, op)
            levels = transfer.p0_haar_step(levels, op)
            assert [a.dtype for a in levels] == [a.dtype for a in want]
            assert all(map(np.array_equal, levels, want))
