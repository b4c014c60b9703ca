import copy
import itertools
import math
import pickle
from collections import defaultdict
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heterobaker as hb
from heterobaker.pcfun import (NotInKLevel, inner_product_2d, inner_product_3d,
                               inner_product_pa,
                               pair_with_affine_3d, pcfun1d_from_json,
                               pcfun1d_to_json, pcfun3d_from_json,
                               pcfun3d_to_json, restrict_to_m_adic)
from heterobaker.transfer import (p_full_3d_n, pi0, xs_fiber_averages_zero,
                                  xs_first_moment)
from heterobaker.verify import pair_with_pullback, project_xc, random_pc3

rational = st.fractions(min_value=-4, max_value=4, max_denominator=64)


def random_pc(values):
    return hb.PCFun1D.uniform([F(v) for v in values])


def test_refine_examples():
    one = hb.PCFun1D.constant(1)
    r = one.refine([F(1, 2)])
    assert r.breakpoints == (0, F(1, 2), 1) and r.values == (1, 1)
    chi = hb.wavelet(1, 0)
    r = chi.refine([F(1, 4)])
    assert r.values == (1, 1, -1)


@settings(max_examples=40, deadline=None)
@given(st.lists(rational, min_size=2, max_size=8),
       st.lists(rational, min_size=4, max_size=4),
       st.fractions(min_value=0, max_value=1, max_denominator=37))
def test_refinement_invariance(vals_f, vals_g, extra):
    f, g = random_pc(vals_f), random_pc(vals_g)
    fr = f.refine([extra])
    assert hb.inner_product(f, g) == hb.inner_product(fr, g)
    assert hb.mean(f) == hb.mean(fr)


def test_inner_product_examples():
    chi10, chi21 = hb.wavelet(1, 0), hb.wavelet(2, 1)
    assert hb.inner_product(chi10, chi10) == 1
    assert hb.inner_product(chi21, chi21) == F(1, 2)
    assert hb.inner_product(hb.PCFun1D.constant(1), chi21) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(rational, min_size=2, max_size=8),
       st.lists(rational, min_size=3, max_size=6), rational, rational)
def test_bilinearity(vf, vg, s, t):
    f, g = random_pc(vf), random_pc(vg)
    lhs = hb.inner_product(f * s + g * t, g)
    assert lhs == s * hb.inner_product(f, g) + t * hb.inner_product(g, g)
    if any(v != 0 for v in f.values):
        assert hb.inner_product(f, f) > 0


def test_mean_project_axpy():
    f = hb.PCFun1D.build([0, F(1, 2), 1], [1, 0])
    assert hb.mean(f) == F(1, 2)
    assert hb.project_zero_mean(hb.PCFun1D.constant(F(3, 7))).equals(
        hb.PCFun1D.zero())
    chi = hb.wavelet(1, 0)
    assert (chi * 2 + chi).equals(chi * 3)


def test_from_affine():
    f = hb.from_affine(1, F(-1, 2), 1)
    assert f.values == (F(-1, 4), F(1, 4))
    assert hb.from_affine(0, F(2, 3), 3).equals(hb.PCFun1D.constant(F(2, 3)))
    for level in range(1, 6):
        assert hb.mean(hb.from_affine(1, F(-1, 2), level)) == 0
    with pytest.raises(ValueError, match="level must be at least 0"):
        hb.from_affine(1, F(-1, 2), -3)


def test_osc_norm_star():
    assert hb.osc_norm_star(hb.wavelet(1, 0), 2, 1) == 2
    assert hb.osc_norm_star(hb.PCFun1D.constant(5), 2, 3) == 0
    # oscillation of chi_{2,0} on [0,1/2) is 2; the cell [1/2,1) is flat
    assert hb.osc_norm_star(hb.wavelet(2, 0), 2, 2) == 2
    with pytest.raises(NotInKLevel):
        hb.osc_norm_star(hb.PCFun1D.build([0, F(1, 3), 1], [1, 0]), 2, 2)


def test_common_refinement_cell_count():
    f = hb.PCFun1D.build([0, F(1, 3), 1], [1, 2])
    g = hb.PCFun1D.build([0, F(1, 2), 1], [3, 4])
    h = f + g
    assert h.breakpoints == (0, F(1, 3), F(1, 2), 1)


def test_pa_oracle_basics():
    pa = hb.PAFun1D.affine(1, F(-1, 2))
    assert inner_product_pa(pa, pa) == F(1, 12)
    assert inner_product_pa(pa, hb.PAFun1D.affine(0, 1)) == 0
    assert pa(F(1, 4)) == F(-1, 4)


def test_json_round_trip():
    f = hb.PCFun1D.build([0, F(1, 4), 1], [F(-1, 3), F(1, 9)])
    assert pcfun1d_from_json(pcfun1d_to_json(f)).equals(f)
    G = hb.PCFun3D.build(["0", "1/2", "1"], ["0", "1"], ["0", "1/3", "1"],
                         [[[1, -1]], [["1/2", "-1/2"]]])
    assert pcfun3d_from_json(pcfun3d_to_json(G)).equals(G)


def test_evaluation_conventions():
    f = hb.PCFun1D.build([0, F(1, 2), 1], [1, 2])
    assert f(F(1, 2)) == 2      # right-hand cell at a breakpoint
    assert f(1) == 2            # last cell closed
    assert f(0) == 1


# ---------------------------------------------------------------------------
# reference: a cell-by-cell loop over the common refinement

# non-dyadic cut points: thirds, fifths and sevenths
CUTS = sorted({F(k, d) for d in (3, 5, 7) for k in range(1, d)})
CLASSES = {1: hb.PCFun1D, 2: hb.PCFun2D, 3: hb.PCFun3D}


def _axes(f):
    if isinstance(f, hb.PCFun1D):
        return (f.breakpoints,)
    if isinstance(f, hb.PCFun2D):
        return (f.bps_x, f.bps_y)
    return (f.bps_u, f.bps_c, f.bps_s)


def _own_cell(bps, lo, hi):
    """Index of the cell of `bps` that holds the cell [lo, hi)."""
    return next(i for i in range(len(bps) - 1)
                if bps[i] <= lo and hi <= bps[i + 1])


def _cells(*fs):
    """(bounds, values) for every cell of the common refinement of fs:
    one (lo, hi) per axis, and the value of each function on the cell."""
    dim = len(_axes(fs[0]))
    grids = [sorted(set().union(*(_axes(f)[d] for f in fs)))
             for d in range(dim)]
    per_axis = [[((lo, hi), [_own_cell(_axes(f)[d], lo, hi) for f in fs])
                 for lo, hi in zip(g, g[1:])] for d, g in enumerate(grids)]
    for combo in itertools.product(*per_axis):
        vals = []
        for n, f in enumerate(fs):
            v = f.values
            for _, idx in combo:
                v = v[idx[n]]
            vals.append(v)
        yield tuple(b for b, _ in combo), vals


def _value_at(f, point):
    v = f.values
    for bps, x in zip(_axes(f), point):
        v = v[next(i for i in range(len(bps) - 1) if bps[i] <= x < bps[i + 1])]
    return v


def _mid(bounds):
    return tuple((lo + hi) / 2 for lo, hi in bounds)


def _volume(bounds):
    return math.prod((hi - lo for lo, hi in bounds), start=F(1))


def _random_value(rng):
    return F(int(rng.integers(-9, 10)), int(rng.choice([1, 2, 3, 5, 7])))


def _random_pcn(rng, dim):
    """Random PC function on a product grid cut at thirds/fifths/sevenths."""
    axes = []
    for _ in range(dim):
        picks = rng.choice(len(CUTS), size=int(rng.integers(1, 5)),
                           replace=False)
        axes.append([F(0), *sorted(CUTS[i] for i in picks), F(1)])

    def values(shape):
        if not shape:
            return _random_value(rng)
        return [values(shape[1:]) for _ in range(shape[0])]

    return CLASSES[dim].build(*axes, values([len(a) - 1 for a in axes]))


def _fiber_mean_free(rng):
    """Random 3D function whose x_s fiber averages all vanish."""
    F3 = _random_pcn(rng, 3)
    ws = [b - a for a, b in zip(F3.bps_s, F3.bps_s[1:])]
    vals = [[[*row[:-1], -sum((v * w for v, w in zip(row[:-1], ws)), F(0))
              / ws[-1]] for row in plane] for plane in F3.values]
    return hb.PCFun3D.build(F3.bps_u, F3.bps_c, F3.bps_s, vals)


def _samples(seed, dim):
    rng = np.random.Generator(np.random.Philox(key=seed))
    fs = [_random_pcn(rng, dim) for _ in range(4)]
    if dim == 3:
        for params, n in ((hb.BakerParams(2, F(1, 5), F(3, 10)), 2),
                          (hb.BakerParams(3, F(1, 6), F(1, 6)), 1)):
            fs.append(p_full_3d_n(params, random_pc3(rng), n))
        fs.append(_fiber_mean_free(rng))
    return rng, fs


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [3, 4])
def test_integrals_match_the_cell_loop(seed, dim):
    _, fs = _samples(seed, dim)
    for f in fs:
        integral = sum((v * _volume(b) for b, (v,) in _cells(f)), F(0))
        l1 = sum((abs(v) * _volume(b) for b, (v,) in _cells(f)), F(0))
        assert (hb.mean(f) if dim == 1 else f.integral()) == integral
        assert f.l1_norm() == l1


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [3, 4])
def test_pairings_match_the_cell_loop(seed, dim):
    rng, fs = _samples(seed, dim)
    pair = {1: hb.inner_product, 2: inner_product_2d, 3: inner_product_3d}[dim]
    for f, g in zip(fs, fs[1:] + fs[:1]):
        ref = sum((x * y * _volume(b) for b, (x, y) in _cells(f, g)), F(0))
        assert pair(f, g) == ref
        if dim == 3:  # n = 0: the box integrals of g over the cells of f
            assert pair_with_pullback(hb.BakerParams.neutral(2), f, g, 0) == ref
    if dim == 3:
        for f in fs:
            c = [_random_value(rng) for _ in range(4)]

            def affine(point):
                return c[0] + sum(ci * x for ci, x in zip(c[1:], point))

            # an affine function integrates to volume * value at the midpoint
            ref = sum((v * _volume(b) * affine(_mid(b))
                       for b, (v,) in _cells(f)), F(0))
            assert pair_with_affine_3d(f, *c) == ref


@pytest.mark.parametrize("seed", [3, 4])
def test_projections_match_the_cell_loop(seed):
    _, fs = _samples(seed, 3)
    for f in fs:
        avg_c, along_c, moment_s, avg_s = (defaultdict(lambda: F(0))
                                           for _ in range(4))
        for (bu, bc, bs), (v,) in _cells(f):
            avg_c[bu, bs] += v * (bc[1] - bc[0])
            along_c[bc] += v * (bu[1] - bu[0]) * (bs[1] - bs[0])
            moment_s[bu, bc] += v * (bs[1] ** 2 - bs[0] ** 2) / 2
            avg_s[bu, bc] += v * (bs[1] - bs[0])

        p = pi0(f)
        assert (p.bps_u, p.bps_c, p.bps_s) == (f.bps_u, (0, 1), f.bps_s)
        for (bu, bs), ref in avg_c.items():
            assert _value_at(p, _mid((bu, (0, 1), bs))) == ref
        g = project_xc(f)
        for bc, ref in along_c.items():
            assert _value_at(g, _mid((bc,))) == ref
        h = xs_first_moment(f)
        assert (h.bps_x, h.bps_y) == (f.bps_u, f.bps_c)
        for (bu, bc), ref in moment_s.items():
            assert _value_at(h, _mid((bu, bc))) == ref
        assert xs_fiber_averages_zero(f) == all(
            v == 0 for v in avg_s.values())
    assert xs_fiber_averages_zero(fs[-1])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [3, 4])
def test_algebra_matches_the_cell_loop(seed, dim):
    rng, fs = _samples(seed, dim)
    for f, g in zip(fs, fs[1:] + fs[:1]):
        s = _random_value(rng)
        cases = ((f + g, lambda x, y: x + y), (f - g, lambda x, y: x - y),
                 (f * s, lambda x, y: x * s), (s * g, lambda x, y: s * y))
        for h, op in cases:
            for _, (x, y, z) in _cells(f, g, h):
                assert z == op(x, y)
        assert f.equals(g) == all(x == y for _, (x, y) in _cells(f, g))
        assert (f + g - g).equals(f) and g.equals(g * 1)
        assert not f.equals(f + CLASSES[dim].constant(1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_unary_minus_every_dimension(dim):
    _, fs = _samples(5, dim)
    for f in fs:
        assert (-f).equals(f * -1) and (f + -f).equals(CLASSES[dim].constant(0))


def test_point_evaluation_needs_one_coordinate_per_axis():
    with pytest.raises(TypeError, match="takes 3 coordinates, got 2"):
        hb.PCFun3D.constant(1)(0, 0)


# ---------------------------------------------------------------------------
# properties of the grid kernels against the plain Fraction rules

DENOMS = (2, 4, 8, 16, 32, 3, 5, 7, 12)


@st.composite
def grids(draw, max_cuts=4):
    """Breakpoints 0 < ... < 1 with denominators from DENOMS."""
    cuts = set()
    for _ in range(draw(st.integers(0, max_cuts))):
        d = draw(st.sampled_from(DENOMS))
        cuts.add(F(draw(st.integers(1, d - 1)), d))
    return (F(0), *sorted(cuts), F(1))


@st.composite
def pc_functions(draw, dim, max_cuts=4):
    axes = [draw(grids(max_cuts)) for _ in range(dim)]

    def values(shape):
        if not shape:
            return draw(rational)
        return [values(shape[1:]) for _ in range(shape[0])]

    return CLASSES[dim].build(*axes, values([len(a) - 1 for a in axes]))


@settings(max_examples=60, deadline=None)
@given(st.lists(grids(), min_size=1, max_size=3))
def test_union_is_the_sorted_union(lists):
    nums, denom = hb.pcfun._union([hb.pcfun._to_int_vector(bps)
                                   for bps in lists])
    assert tuple(F(n, denom) for n in nums) == \
        tuple(sorted(set().union(*lists)))


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_on_grid_is_the_midpoint_rule(dim, data):
    f = data.draw(pc_functions(dim))
    grids_ = [sorted(set(bps) | set(data.draw(grids()))) for bps in _axes(f)]
    index = [[hb.pcfun._cell_index(bps, (lo + hi) / 2)
              for lo, hi in zip(g, g[1:])] for bps, g in zip(_axes(f), grids_)]
    got = f.on_grid(*grids_)
    for cell in itertools.product(*(range(len(g) - 1) for g in grids_)):
        v, ref = got, f.values
        for axis, i in enumerate(cell):
            v, ref = v[i], ref[index[axis][i]]
        assert v == ref


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_contract_is_the_cell_loop(dim, data):
    f = data.draw(pc_functions(dim))
    # zero weights are skipped; an all-zero axis does not occur in use
    weights = [data.draw(st.none() | st.lists(
        rational | st.just(F(0)), min_size=len(bps) - 1,
        max_size=len(bps) - 1).filter(any)) for bps in _axes(f)]
    kept = [d for d, w in enumerate(weights) if w is None]
    ref = defaultdict(lambda: F(0))
    for cell in itertools.product(*(range(len(b) - 1) for b in _axes(f))):
        v = f.values
        for i in cell:
            v = v[i]
        for d, i in enumerate(cell):
            if weights[d] is not None:
                v *= weights[d][i]
        ref[tuple(cell[d] for d in kept)] += v
    got = hb.pcfun._contract(
        hb.pcfun._lattice(f.values),
        [w and hb.pcfun._to_int_vector(w) for w in weights])
    for key, value in ref.items():
        v = got
        for i in key:
            v = v[i]
        assert v == value
    assert f.integral() == sum((v * _volume(b) for b, (v,) in _cells(f)), F(0))


DUALITY_PARAMS = [hb.BakerParams(2, F(1, 5), F(3, 10)),
                  hb.BakerParams(2, F(1, 4), F(1, 4)),
                  hb.BakerParams(3, F(1, 6), F(1, 6))]


@pytest.mark.parametrize("params", DUALITY_PARAMS,
                         ids=["2-1/5-3/10", "2-1/4-1/4", "3-1/6-1/6"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_pushforward_is_dual_to_the_box_pullback(params, data):
    Fn = data.draw(pc_functions(3, max_cuts=2))
    G = data.draw(pc_functions(3, max_cuts=2))
    n = data.draw(st.integers(1, 2 if params.M == 2 else 1))
    assert inner_product_3d(p_full_3d_n(params, Fn, n), G) == \
        pair_with_pullback(params, Fn, G, n)


def test_pushforward_duality_on_a_non_dyadic_grid():
    Fn = hb.PCFun3D.build(["0", "1/3", "5/7", "1"], ["0", "2/5", "1"],
                          ["0", "1/12", "1"],
                          [[[1, "-2/3"], ["1/5", 0]], [[0, 3], ["-1/7", 1]],
                           [["5/2", -1], [2, "1/3"]]])
    G = hb.PCFun3D.build(["0", "1/5", "1"], ["0", "1/3", "7/12", "1"],
                         ["0", "3/7", "1"],
                         [[[1, 2], [-1, "1/2"], [0, 1]],
                          [["2/3", 0], [1, -1], ["1/4", 3]]])
    for params in DUALITY_PARAMS:
        for n in range(1, 3 if params.M == 2 else 2):
            assert inner_product_3d(p_full_3d_n(params, Fn, n), G) == \
                pair_with_pullback(params, Fn, G, n)


    # M = 3 two steps deep, on a smaller non-dyadic input
    small = hb.PCFun3D.build(["0", "2/7", "1"], ["0", "3/5", "1"],
                             ["0", "1/3", "1"],
                             [[[1, "-1/2"], ["2/3", 0]],
                              [["1/5", 2], [-1, "3/4"]]])
    params = DUALITY_PARAMS[2]
    assert inner_product_3d(p_full_3d_n(params, small, 2), G) == \
        pair_with_pullback(params, small, G, 2)


# ---------------------------------------------------------------------------
# the piecewise-affine oracle against the pointwise branch formulas

@st.composite
def pa_functions(draw):
    """Piecewise-affine functions on `grids`; a cell may repeat the piece of
    its left neighbour, which leaves a redundant breakpoint."""
    bps = draw(grids())
    pieces = []
    for _ in bps[1:]:
        if pieces and draw(st.booleans()):
            pieces.append(pieces[-1])
        else:
            pieces.append((draw(rational), draw(rational)))
    slopes, icpts = zip(*pieces)
    return hb.PAFun1D(bps, slopes, icpts)


OPS = st.builds(hb.ReducedOp, st.sampled_from([2, 3]),
                st.sampled_from([F(1, 2), F(2, 5), F(3, 5), F(1, 3)]))


def _p0_at(op, u, x):
    """w u(Mx mod 1) + ((1-w)/M) sum_j u((x+j)/M) at a point x < 1 (the last
    cell is closed at 1, where Mx mod 1 wraps to 0)."""
    M, w = op.M, op.w
    return (w * u(M * x - math.floor(M * x))
            + (1 - w) / M * sum((u((x + j) / M) for j in range(M)), F(0)))


@settings(max_examples=40, deadline=None)
@given(u=pa_functions(), op=OPS)
def test_pa_step_is_the_branch_formula(u, op):
    once = hb.p0_apply_pa(op, u)
    for f, g in ((u, once), (once, hb.p0_apply_pa(op, u, 2))):
        bps = g.breakpoints
        # a left end and a midpoint fix each cell's affine piece
        for x in (*bps[:-1], *((lo + hi) / 2 for lo, hi in zip(bps, bps[1:]))):
            assert g(x) == _p0_at(op, f, x)


def _pa_pair_cell_loop(f, g):
    """The Fraction rule: per merged cell, the pieces at its midpoint and
    the integral of their product, a quadratic."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    total = F(0)
    for lo, hi in zip(bps, bps[1:]):
        mid = (lo + hi) / 2
        mf, cf = f.piece_at(mid)
        mg, cg = g.piece_at(mid)
        total += (mf * mg * (hi ** 3 - lo ** 3) / 3
                  + (mf * cg + mg * cf) * (hi ** 2 - lo ** 2) / 2
                  + cf * cg * (hi - lo))
    return total


@settings(max_examples=40, deadline=None)
@given(f=pa_functions(), g=pa_functions(), op=OPS)
def test_pa_pairing_matches_the_cell_loop(f, g, op):
    assert inner_product_pa(f, g) == _pa_pair_cell_loop(f, g)
    f2 = hb.p0_apply_pa(op, f, 2)
    assert inner_product_pa(f2, g) == _pa_pair_cell_loop(f2, g)


def test_uniform_grid_needs_a_value():
    with pytest.raises(ValueError, match="at least one value"):
        hb.PCFun1D.uniform([])
    assert hb.PCFun1D.uniform([F(1, 3)] * 6).is_uniform_level(6) == 1
    assert hb.PCFun1D.build([0, F(1, 3), 1], [1, 2]).is_uniform_level(2) is None


def test_restrict_ignores_a_redundant_non_dyadic_breakpoint():
    f = hb.PCFun1D.build([0, F(1, 3), F(1, 2), 1], [1, 1, 2])
    assert restrict_to_m_adic(f, 2, 2) == (1, 1, 2, 2)
    assert hb.osc_norm_star(f, 2, 2) == 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_on_grid_refuses_a_grid_that_does_not_refine(dim):
    f = CLASSES[dim].build(*[[0, F(1, 3), 1]] * dim,
                           np.arange(2 ** dim).reshape([2] * dim).tolist())
    grids_ = [(F(0), F(1, 3), F(1))] * dim
    grids_[-1] = (F(0), F(1, 2), F(1))
    name = CLASSES[dim]._AXES[-1]
    with pytest.raises(ValueError, match=f"the {name} grid misses "
                                         "breakpoint 1/3"):
        f.on_grid(*grids_)


# ---------------------------------------------------------------------------
# a function is its lattice: construction, equality, hashing, copies

@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_user_built_functions_hold_only_their_lattice(dim, data):
    # the Fraction views wait for a reader, as for a kernel's output
    f = data.draw(pc_functions(dim))            # built by `build`
    assert set(vars(f)) == {"lattice", "axis_lattices"}
    g = CLASSES[dim](*_axes(f), f.values)       # by the constructor
    assert set(vars(g)) == {"lattice", "axis_lattices"}
    assert g == f and g.values == f.values and g.axes == f.axes


def test_positional_and_keyword_construction_agree():
    bps, vals = [0, F(1, 3), 1], [F(1, 2), -2]
    assert hb.PCFun1D(bps, vals) == hb.PCFun1D(breakpoints=bps, values=vals) \
        == hb.PCFun1D(bps, values=vals) == hb.PCFun1D.build(bps, vals)
    grid, rows = ["0", "1/2", "1"], [[1, 2], [3, 4]]
    assert hb.PCFun2D(grid, grid, rows) == \
        hb.PCFun2D(bps_x=grid, bps_y=grid, values=rows)
    cube = [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
    assert hb.PCFun3D(grid, grid, grid, cube) == \
        hb.PCFun3D(bps_u=grid, bps_c=grid, bps_s=grid, values=cube)
    with pytest.raises(TypeError):
        hb.PCFun1D(bps, vals, breakpoints=bps)


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_user_and_kernel_built_functions_agree(dim, data):
    f = data.draw(pc_functions(dim))
    user = CLASSES[dim](*_axes(f), f.values)
    # scaling by 3 then by 1/3 leaves the kernel to reduce its lattice
    for kernel in (f * 3 * F(1, 3), (f + f) * F(1, 2), f - f * 0):
        assert user == kernel and kernel == user
        assert hash(user) == hash(kernel)
        assert repr(user) == repr(kernel)
    assert user != f + CLASSES[dim].constant(1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_copies_and_pickles_are_equal(dim):
    rng = np.random.Generator(np.random.Philox(key=11))
    f = _random_pcn(rng, dim)
    for h in (f, f * F(2, 3)):          # built by a user and by a kernel
        for g in (copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
            assert set(vars(g)) == {"lattice", "axis_lattices"}
            assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
            for nums in (g.lattice[0], *(b for b, _ in g.axis_lattices)):
                assert not nums.flags.writeable
    with pytest.raises(AttributeError, match="immutable"):
        f.values = f.values


SHAPE_ERRORS = [
    (hb.PCFun1D, (["0", "1"], 1)),                             # under-nested
    (hb.PCFun1D, (["0", "1"], [[1]])),                         # over-nested
    (hb.PCFun1D, (["0", "1/2", "1"], [[1, 2], [3]])),          # ragged
    (hb.PCFun2D, (["0", "1"], ["0", "1"], [1])),
    (hb.PCFun2D, (["0", "1"], ["0", "1"], [[[1]]])),
    (hb.PCFun2D, (["0", "1/2", "1"], ["0", "1/2", "1"], [[1, 2], [3]])),
    (hb.PCFun2D, (["0", "1/2", "1"], ["0", "1"], [[1], [2, 3]])),
    (hb.PCFun3D, (["0", "1"], ["0", "1"], ["0", "1"], [[1]])),
    (hb.PCFun3D, (["0", "1"], ["0", "1"], ["0", "1"], [[[[1]]]])),
    (hb.PCFun3D, (["0", "1/2", "1"], ["0", "1"], ["0", "1"],
                  [[[1]], [[2], [3]]])),
    (hb.PCFun3D, (["0", "1/2", "1"], ["0", "1"], ["0", "1/2", "1"],
                  [[[1, 2]], [[3]]])),
]


@pytest.mark.parametrize("cls,fields", SHAPE_ERRORS)
def test_misshapen_values_are_a_shape_error(cls, fields):
    for make in (cls, cls.build):
        with pytest.raises(ValueError, match="value tensor shape does not "
                                             "match the grid"):
            make(*fields)


def test_a_cell_that_is_not_rational_is_refused():
    with pytest.raises(TypeError, match="cannot coerce 0.5"):
        hb.PCFun1D(["0", "1"], [0.5])
