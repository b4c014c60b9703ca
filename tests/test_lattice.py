"""The integer lattice the PC functions hold beside their Fraction values.

The pins hash the reprs of kernel outputs on seeded inputs; they were
recorded while every kernel still rebuilt its numerators from the Fraction
values and checked every grid it built, so they hold the lattice kernels to
the same rationals, grids and Fraction objects' reprs.
"""

import hashlib
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heterobaker as hb
from heterobaker.correlation import exact_reduced_correlation
from heterobaker.pcfun import _lattice, _to_int_vector
from heterobaker.transfer import p_full_2d, p_full_3d_n, pi0
from heterobaker.verify import project_xc, random_pc1, random_pc3

PARAMS = [hb.BakerParams(2, F(1, 5), F(3, 10)), hb.BakerParams.neutral(2),
          hb.BakerParams(3, F(1, 6), F(1, 6))]
OPS = [hb.ReducedOp.neutral(2), hb.ReducedOp(2, F(2, 5)),
       hb.ReducedOp(3, F(1, 2))]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _plane(F3):
    """The x_s = 0 plane of a 3D function, as a function of (x_u, x_c)."""
    return hb.PCFun2D(F3.bps_u, F3.bps_c,
                      tuple(tuple(v[0] for v in row) for row in F3.values))


def _kernel_outputs() -> dict:
    rng = np.random.Generator(np.random.Philox(key=20261018))
    Fs = [random_pc3(rng), random_pc3(rng, zero_mean=False, denominator=12)]
    fs = [random_pc1(rng, 2), random_pc1(rng, 3, denominator=48)]
    out = {}
    out["add"] = [Fs[0] + Fs[1], fs[0] + fs[1], Fs[0] + pi0(Fs[1])]
    out["sub"] = [Fs[0] - Fs[1], fs[1] - fs[0], Fs[1] - pi0(Fs[1])]
    out["mul"] = [Fs[0] * F(-3, 7), fs[1] * F(5, 6), F(2, 9) * fs[0]]
    out["pi0"] = [pi0(G) for G in Fs]
    out["p_full_3d_n"] = [p_full_3d_n(params, G, 3 if params.M == 2 else 2)
                          for params in PARAMS for G in Fs]
    out["p_full_2d"] = [
        p_full_2d(params, _plane(G), weight)
        for params in PARAMS[:2] for G in Fs
        for weight in (None, (1 - 2 * params.b, params.b))]
    out["project_xc"] = [project_xc(G) for G in Fs] + [
        project_xc(p_full_3d_n(PARAMS[0], Fs[0], 2))]
    out["p0_apply"] = [hb.p0_apply(op, f, 5) for op in OPS for f in fs] + [
        hb.p0_apply(OPS[1], fs[0].refine([F(1, 3)]), 2)]
    out["p0_apply_pa"] = [hb.p0_apply_pa(op, hb.PAFun1D.affine(1, F(-1, 2)), 6)
                          for op in OPS]
    return out


KERNEL_PINS = {
    "add":
        "add7536febc40c95deac7c4254125d7368d7952be0f7feb7515caf6a9a956543",
    "sub":
        "6d70c89b46da368273cbd9336401f77220e7b1c2d91b7dc2cfc26a33126bc285",
    "mul":
        "fb2220ef8f81347d80d947ef80f815b63d086980087e86c134c874d378ec6f16",
    "pi0":
        "8faa5200671f8a1235977403bedc2258688c9f73e571b1559510f184bf5e60cb",
    "p_full_3d_n":
        "dd5e7e5fd4e4f6e704841312010387b51dec7e146df9be7751baa680e4eac57d",
    "p_full_2d":
        "87e148517ccd07c50eefa2c80bf2dd5142aaccea22d8ba59aba259f2f20cbd2e",
    "project_xc":
        "ea56612dfba2676f80b85c08246c7a8d745373419956a522cbfb0372f949a5fe",
    "p0_apply":
        "00dc54e6bae2c10b0332cd0e16d9eb93640a08bc4133cb7038b692be28a9cbea",
    "p0_apply_pa":
        "7e4e96dc47dc357ab1810726d89bce2ac646186148598a990bce33b59040c95d",
}


def test_kernel_outputs_are_pinned():
    got = {key: _digest(value) for key, value in _kernel_outputs().items()}
    assert got == KERNEL_PINS


SERIES_PIN = "fbdec84ecf4d918ec1d09573d681fbbd6ca40c090ec87b85b5fc11cc5170591f"
WALK_PIN = "7f8e33b35313299949575afaf7368729f5f871619cab0a2f4cf88d34250df258"


def test_exact_series_are_pinned():
    xc = hb.affine_center()
    f = hb.square_wave(1) * F(3, 64) + hb.square_wave(3) * F(-5, 64)
    fo = hb.observables.pc_center(f)
    series = [exact_reduced_correlation(phi, psi, 40, op=op, numeric="rational")
              for op in OPS[:2] for phi, psi in ((xc, xc), (fo, xc), (fo, fo))]
    walks = [hb.evolve_from(hb.RuinState.delta(l), 30) for l in (1, 4)]
    walks.append(hb.evolve_from(hb.RuinState.from_profile(
        [F(1, 3), 0, F(2, 3)]), 17))
    assert _digest([[r.exact for r in s] for s in series]) == SERIES_PIN
    assert _digest(walks) == WALK_PIN



def _outputs(seed: int, params, op) -> list:
    """Every kernel that hands its output lattice over, on seeded inputs."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    F3, G3 = random_pc3(rng), random_pc3(rng, zero_mean=False)
    f1, g1 = random_pc1(rng, 2), random_pc1(rng, 3)
    n = 2 if params.M == 2 else 1
    return [F3 + G3, F3 - pi0(G3), G3 * F(-5, 3), f1 + g1, g1 - f1,
            f1 * F(7, 4), pi0(F3), p_full_3d_n(params, F3, n),
            p_full_2d(params, _plane(G3)), project_xc(G3),
            hb.p0_apply(op, f1, 3), F3.simplify(), (F3 + G3).simplify()]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), params=st.sampled_from(PARAMS),
       op=st.sampled_from(OPS[:2]))
def test_kernel_outputs_hold_the_lattice_of_their_values(seed, params, op):
    for G in _outputs(seed, params, op):
        # built from the lattices alone; the Fractions wait for a reader
        assert set(vars(G)) == {"lattice", "axis_lattices"}, type(G)
        nums, denom = G.lattice
        ref, ref_denom = _lattice(G.values)
        assert denom == ref_denom and np.array_equal(nums, ref)
        for (nums, denom), bps in zip(G.axis_lattices, G.axes):
            ref, ref_denom = _to_int_vector(bps)
            assert denom == ref_denom and np.array_equal(nums, ref)
        checked = type(G)(*G.axes, G.values)
        assert checked == G and checked.equals(G)


BAD_FUNCTIONS = [
    (hb.PCFun1D, ((F(0), F(1, 2), F(1, 3), F(1)), (F(1),) * 3),
     "strictly increasing"),
    (hb.PCFun1D, ((F(0), F(1, 2), F(1, 2), F(1)), (F(1),) * 3),
     "strictly increasing"),
    (hb.PCFun1D, ((F(0), F(3, 2)), (F(1),)), "end at 1"),
    (hb.PCFun1D, ((F(-1, 2), F(1)), (F(1),)), "start at 0"),
    (hb.PCFun1D, ((F(0), F(1, 2), F(1)), (F(1),)), "shape"),
    (hb.PCFun2D, ((F(0), F(1)), (F(0), F(2, 3), F(1, 3), F(1)),
                  ((F(1),) * 3,)), "strictly increasing"),
    (hb.PCFun2D, ((F(0), F(1)), (F(0), F(1)), ((F(1), F(2)),)), "shape"),
    (hb.PCFun3D, ((F(0), F(1)), (F(0), F(5, 4)), (F(0), F(1)),
                  (((F(1),),),)), "end at 1"),
    (hb.PCFun3D, ((F(0), F(1)),) * 3 + ((((F(1), F(2)),),),), "shape"),
]


@pytest.mark.parametrize("cls,fields,match", BAD_FUNCTIONS)
def test_public_constructors_still_check_their_input(cls, fields, match):
    with pytest.raises(ValueError, match=match):
        cls(*fields)
    with pytest.raises(ValueError, match=match):
        cls.build(*fields)


def test_user_built_pa_functions_are_checked():
    with pytest.raises(ValueError, match="strictly increasing"):
        hb.PAFun1D((F(0), F(2, 3), F(1, 3), F(1)), (F(1),) * 3, (F(0),) * 3)
    with pytest.raises(ValueError, match="one \\(slope, intercept\\)"):
        hb.PAFun1D((F(0), F(1)), (F(1), F(2)), (F(0),))


def test_cached_lattices_are_read_only():
    rng = np.random.Generator(np.random.Philox(key=3))
    F3 = random_pc3(rng)
    # one computed on first use, one handed over by a kernel
    for G in (hb.PCFun3D.build(F3.bps_u, F3.bps_c, F3.bps_s, F3.values),
              p_full_3d_n(PARAMS[0], F3, 1)):
        arrays = [G.lattice[0], *(nums for nums, _ in G.axis_lattices)]
        before = [nums.copy() for nums in arrays]
        for nums in arrays:
            with pytest.raises(ValueError, match="read-only"):
                nums[(0,) * nums.ndim] = 1
            with pytest.raises(ValueError, match="read-only"):
                nums += 1
        assert all(map(np.array_equal, arrays, before))
