import hashlib
import io
import json
import os
import re
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heterobaker as hb
from heterobaker.cli import main
from heterobaker.pcfun import pcfun1d_to_json, pcfun3d_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_orbit_csv(capsys):
    code, out = run(capsys, "orbit", "--point", "1/10,3/10,1/2", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,xu,xc,xs"
    assert lines[2].startswith("1,2/5,3/20,1/4")
    assert lines[-1].startswith("# config=")


def test_ruin_transition_value(capsys):
    code, out = run(capsys, "ruin-transition", "--l", "2", "--lp", "2",
                    "--n", "4")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[3]) == 0.3125


@pytest.mark.parametrize("l,lp,n", [(1000, 1000, 2000), (100, 2000, 3000)])
def test_ruin_transition_past_the_exact_route(capsys, l, lp, n):
    # the float route wrote p = nan, then p = 0.0 for 7.8e-285
    code, out = run(capsys, "ruin-transition", f"--l={l}", f"--lp={lp}",
                    "--n", str(n))
    p, ratio = map(float, out.splitlines()[1].split(",")[3:])
    exact = float(hb.transition_prob_exact(l, lp, n))
    assert code == 0 and abs(p - exact) <= 1e-10 * exact
    assert ratio == p * n ** 1.5 / (l * lp)


def test_ruin_csv(capsys):
    code, out = run(capsys, "ruin", "--delta", "1", "--n", "2")
    assert code == 0
    rows = [r for r in out.strip().splitlines()[1:] if not r.startswith("#")]
    assert rows[0] == "0,1,1"
    assert "2,1,1/4" in rows and "2,3,1/4" in rows


def test_corr_squarewave(capsys):
    code, out = run(capsys, "corr", "--phi", "xc-1/2", "--psi", "xc-1/2",
                    "--method", "squarewave", "--n-max", "2")
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]
            if not r.startswith("#")]
    assert float(rows[1][1]) == pytest.approx(1 / 24)
    assert float(rows[2][1]) == pytest.approx(7 / 192)


def test_apply_op(tmp_path, capsys):
    f = tmp_path / "chi.json"
    f.write_text(pcfun1d_to_json(hb.wavelet(1, 0)))
    code, out = run(capsys, "apply-op", "--op", "p0", "--n", "2",
                    "--in", str(f))
    assert code == 0
    g = hb.pcfun.pcfun1d_from_json(out)
    assert hb.inner_product(g, hb.wavelet(1, 0)) == F(1, 4)


def test_slope_json(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    lines = ["n,value,method,err"]
    lines += [f"{n},{2.0 * n ** -1.5},synthetic,0" for n in range(1, 128)]
    csv.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "slope", "--in", str(csv), "--window", "8:127")
    assert code == 0
    fit = json.loads(out)
    assert fit["slope"] == pytest.approx(-1.5, abs=1e-9)


def test_verify_identities(capsys):
    code, out = run(capsys, "verify-identities")
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_all(capsys):
    code, out = run(capsys, "verify-all")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and all(report["checks"].values())


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corr", "--phi", "xc-1/2"])  # missing --psi
    assert exc.value.code == 2


def test_mc_requires_seed(capsys):
    code, _ = run(capsys, "corr", "--phi", "xc-1/2", "--psi", "xc-1/2",
                  "--method", "mc", "--n-list", "1", "--samples", "10000")
    assert code == 2


def test_determinism(capsys):
    args = ("corr", "--phi", "xc-1/2", "--psi", "xc-1/2", "--method", "mc",
            "--n-list", "0,1", "--samples", "20000", "--seed", "11")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args, "--workers", "2")
    assert out1.replace("--workers", "") .splitlines()[1:3] == \
        out2.splitlines()[1:3]


def test_squarewave_refuses_m3(capsys):
    # the square-wave route is the M = 2 representation: at M = 3 it must
    # refuse, not print the M = 2 series
    code = main(["corr", "--M", "3", "--a", "1/6", "--b", "1/6",
                 "--phi", "xc-1/2", "--psi", "xc-1/2",
                 "--method", "squarewave", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "M = 3" in captured.err


def test_negative_n_max_names_the_flag(capsys):
    code = main(["corr", "--phi", "xc-1/2", "--psi", "xc-1/2",
                 "--n-max", "-3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--n-max" in err and "max()" not in err


def test_truncated_observable_names_the_flag(capsys):
    code = main(["corr", "--phi", "xc-", "--psi", "xc-1/2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--phi" in err and "unexpected end of input" in err


@pytest.mark.parametrize("flag,value", [("--phi", "1/0"), ("--a", "1/0"),
                                        ("--b", "0/0")])
def test_zero_denominator_names_the_flag(capsys, flag, value):
    argv = {"--phi": "xc-1/2", "--psi": "xc-1/2", "--n-max": "2"}
    argv[flag] = value
    code = main(["corr", *(x for kv in argv.items() for x in kv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert flag in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("method", ["squarewave", "haar", "mc"])
def test_corr_refuses_non_preserving_parameters(capsys, method):
    # (1/4, 1/5) at M = 2 does not preserve Lebesgue measure; the
    # square-wave and Haar routes read only w = M a, so they would print
    # the (1/4, 1/4) series instead
    code = main(["corr", "--a", "1/4", "--b", "1/5", "--phi", "xc-1/2",
                 "--psi", "xc-1/2", "--method", method, "--n-max", "2",
                 "--samples", "10000", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert all(s in captured.err for s in ("--a", "--b", "1/M"))


@pytest.mark.parametrize("obs,extra", [
    # depth 2 + 64 steps: refuse instead of doubling the state 64 times
    ("staircase-4", ["--n-max", "64"]),
    # an affine observable has no finite depth: the Haar route refuses it
    # and names the route that takes it
    ("xc-1/2", []),
])
def test_haar_refuses_deep_levels(capsys, obs, extra):
    code = main(["corr", "--method", "haar", "--phi", obs, "--psi", obs,
                 *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert all(flag in captured.err for flag in extra[::2])
    assert "square-wave" in captured.err


def test_orbit_point_needs_three_coordinates(capsys):
    code = main(["orbit", "--point", "1/2,1/3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--point needs three coordinates, got 2" in captured.err


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("point,name", [
    ("-1/2,1/2,1/2", "x_u"), ("1/2,-1/2,1/2", "x_c"), ("1/2,1/2,5", "x_s")])
def test_orbit_refuses_points_outside_the_cube(capsys, mode, point, name):
    # x_s = 5 ran in exact mode; float mode clamped any bad coordinate
    code = main(["orbit", f"--point={point}", "--mode", mode])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: point outside the cube: {name} = ")


@pytest.mark.parametrize("text", [
    "+".join(["xc"] * 1501),
    "(" * 1200 + "xc" + ")" * 1200,
    "-" * 1500 + "xc",
], ids=["sum", "parentheses", "negations"])
def test_deep_observables_name_the_flag(capsys, text):
    # each of these died with a RecursionError traceback
    code = main(["corr", f"--phi={text}", "--psi", "xc", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --phi: expression nests deeper than " \
        "200 levels\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_slope_refuses_non_finite_values(tmp_path, capsys, value):
    # these passed the v <= 0 check and wrote NaN or Infinity, which is not JSON
    csv = tmp_path / "series.csv"
    csv.write_text(f"n,value\n1,0.5\n2,{value}\n3,0.125\n")
    code = main(["slope", "--in", str(csv), "--window", "1:3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "non-finite value" in captured.err and "at n = 2" in captured.err


_FRACTION_TEXT = st.one_of(
    st.sampled_from(["1/4", "1/5", "3/10", "1/6", "1/3", "1/2", "0", "1/0",
                     "x", ""]),
    st.fractions(-1, 1, max_denominator=12).map(str))
# (M, a, b): preserving presets, so that runs get past the checks, or anything
_PRESETS = [(2, "1/4", "1/4"), (2, "1/5", "3/10"), (2, "3/10", "1/5")]
_PARAMS = st.integers(0, 3).flatmap(
    lambda i: st.just(_PRESETS[i]) if i < 3 else
    st.tuples(st.integers(-1, 4), _FRACTION_TEXT, _FRACTION_TEXT))
# up to 400 digits, uniform in the number of digits
_DIGITS = st.builds(lambda lead, k: str(lead) + "0" * k, st.integers(1, 99),
                    st.integers(0, 398))
_OBSERVABLE_TEXT = st.one_of(
    st.sampled_from(["xc-1/2", "1/2-xc", "3*xc+1", "2", "affine-center",
                     "staircase-4", "xu*xc", "min(xc,1/2)"]),
    st.text(alphabet="xucsmina0123456789/+-*(), ", max_size=24),
    # constants of up to 400 digits, on both sides of what fits a float
    st.builds(lambda c, d, form: form.format(c=c, d=d), _DIGITS, _DIGITS,
              st.sampled_from(["{c}*xc", "xc-{c}", "{c}", "{c}/{d}*xc-1/2",
                               "{c}*{d}*xc", "1/{c}*xc", "min(xc,{c})"])),
    # long runs of one nesting, on both sides of the parser's depth limit
    st.builds(lambda k, pre, core, post: pre * k + core + post * k,
              st.integers(0, 1500),
              st.sampled_from(["(", "-", "xc+", "min(xc,"]),
              st.sampled_from(["xc", "1/2", "xc-1/2"]),
              st.sampled_from(["", ")", "+xc", ",1)"])))
_N_LIST_TEXT = st.one_of(
    st.lists(st.integers(-1, 6), min_size=1, max_size=4).map(
        lambda ns: ",".join(map(str, ns))),
    st.text(alphabet="0123456789,- x", max_size=2))


def _runs_or_refuses(argv, head):
    """Run argv with warnings raised as errors: it either exits 0 with
    stdout starting with `head`, or exits 2 with empty stdout and one
    `error:` line.  Returns what it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert out.getvalue().startswith(head)
    return err.getvalue()


@settings(max_examples=200, deadline=None)
# --workers 0 ran serially without a word
@example(phi="xc-1/2", psi=None, params=_PRESETS[0], n_max=2, n_list=None,
         method="mc", seed=1, scale=0, workers=0)
# workers stop at 3: the pool may start a thread per batch
@given(phi=_OBSERVABLE_TEXT, psi=st.none() | _OBSERVABLE_TEXT, params=_PARAMS,
       n_max=st.integers(-2, 6), n_list=st.none() | _N_LIST_TEXT,
       method=st.sampled_from(["squarewave", "haar", "mc"]),
       seed=st.integers(0, 2 ** 64 - 1), scale=st.sampled_from(range(510)),
       workers=st.integers(-1, 3))
def test_corr_input_fuzz(phi, psi, params, n_max, n_list, method, seed,
                         scale, workers):
    # any input either runs or is refused with one named error line, and
    # no warning is raised on the way.  psi None pairs phi with itself, and
    # both are scaled by 2^scale, up to the parser's limit of 2^510: past
    # 2^258 the Monte Carlo sums overflow.  --workers below 1 is refused
    # first, on every method
    M, a, b = params
    psi = phi if psi is None else psi
    phi, psi = (f"{2 ** scale}*({text})" for text in (phi, psi))
    argv = ["corr", f"--phi={phi}", f"--psi={psi}", f"--M={M}", f"--a={a}",
            f"--b={b}", f"--n-max={n_max}", f"--method={method}",
            "--samples=10000", f"--seed={seed}", f"--workers={workers}"]
    if n_list is not None:
        argv.append(f"--n-list={n_list}")
    err = _runs_or_refuses(argv, "n,value,method,err\n")
    if workers < 1:
        assert err == f"error: --workers must be at least 1, got {workers}\n"


@pytest.mark.parametrize("method,obs", [
    ("squarewave", "xc-1/2"), ("haar", "staircase-4"), ("mc", "xc-1/2")])
def test_n_list_is_sorted_and_deduplicated(capsys, method, obs):
    # mc wrote n = 3, 1, 1 for --n-list 3,1,1; the exact methods n = 1, 3.
    # The footer hashed --n-list as typed, so the same rows got two hashes
    argv = ["corr", "--method", method, "--phi", obs, "--psi", obs,
            "--samples", "10000", "--seed", "1"]
    _, out = run(capsys, *argv, "--n-list", "3,1,1")
    _, want = run(capsys, *argv, "--n-list", "1,3")
    assert [row.split(",")[0] for row in out.splitlines()[1:-1]] == ["1", "3"]
    assert out == want


def test_exact_footer_hashes_only_what_sets_the_rows(capsys):
    # the exact methods read neither --samples nor --seed, and --n-max 3
    # writes the rows of --n-list 3,2,1,0
    argv = ("corr", "--phi", "xc-1/2", "--psi", "xc-1/2")
    _, want = run(capsys, *argv, "--n-max", "3")
    for extra in (("--n-max", "3", "--seed", "5", "--samples", "20000"),
                  ("--n-list", "3,2,1,0")):
        assert run(capsys, *argv, *extra)[1] == want


def test_mc_overflow_is_refused_without_warnings(capsys):
    # wrote 1,inf,monte-carlo,nan and exited 0, after numpy RuntimeWarnings
    big = f"{2 ** 509}*xc"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["corr", "--method", "mc", "--phi", big, "--psi", big,
                     "--n-list", "1", "--samples", "10000", "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out, caught) == (2, "", [])
    assert captured.err.startswith("error: the Monte Carlo sums at n = 1 ")
    assert captured.err.count("\n") == 1


def test_small_weight_rows_are_the_rounded_exact_values(capsys):
    # w = 1/10: the truncated double loop wrote 2.29e-40 at n = 200 and
    # 3.06e-83 at n = 400, inside an error bar of 4.5e-21
    code, out = run(capsys, "corr", "--a", "1/20", "--b", "9/20", "--phi",
                    "xc-1/2", "--psi", "xc-1/2", "--n-list", "200,400")
    assert code == 0
    exact = hb.exact_reduced_correlation(
        hb.affine_center(), hb.affine_center(), 400,
        op=hb.ReducedOp(2, F(1, 10)), numeric="rational")
    assert out.splitlines()[1:3] == [
        f"{n},{float(exact[n].exact)!r},exact-squarewave,0.0"
        for n in (200, 400)]


@pytest.mark.parametrize("argv,flag", [
    (["corr", "--phi", "xc", "--psi", "xc", "--n-list=--"], "--n-list"),
    (["corr", "--phi=--", "--psi", "xc"], "--phi"),
    (["corr", "--phi", "xc", "--psi", "xc", "--n-max=--"], "--n-max"),
    (["apply-op", "--op", "p0", "--in=--"], "--in")])
def test_a_lone_double_dash_value_names_the_flag(capsys, argv, flag):
    # argparse reads "--flag=--" as an empty list: --n-list died with an
    # AttributeError traceback, --n-max with a TypeError
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {flag}: expected a value, got '--'\n"


def test_huge_constants_name_the_flag(capsys):
    # died with an OverflowError traceback in the Hoelder corners
    code = main(["corr", "--phi", "1" + "0" * 400 + "*xc", "--psi", "xc",
                 "--n-max", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --phi: constant 1000000000...0000000000 " \
        "(401 characters) is too large for a float\n"
    code = main(["corr", "--phi", "xc", "--psi", "1" + "0" * 200 + "*xc",
                 "--n-max", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: --psi: expression reaches "
                                   "magnitudes above 2^510")


_CELL = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "1e-400", "0",
                     "-0.0", " 5", "1_0", "9" * 400, "0x10"]))
# rows that read, and lines that the reader skips
_GOOD_ROW = st.builds(lambda n, v: f"{n},{v!r}",
                      st.integers(1, 12) | st.integers(-2, 40),
                      st.floats(1e-300, 1e300) | st.floats(-1e300, 1e300))
_ROWS = st.lists(st.one_of(_GOOD_ROW, _GOOD_ROW, _GOOD_ROW,
                           st.sampled_from(["# a comment", "#", ""])),
                 min_size=3, max_size=20)
_HEADER = st.sampled_from(["n,value"] * 30 + [
    "n,value,method,err", "value,n", "n,value,value", "n,n,value", "a,b",
    "n", "", "# comment", "n, value", '"n","value"'])
_WINDOW = st.builds(lambda lo, hi: f"{lo}:{hi}", st.integers(-5, 10),
                    st.integers(10, 45) | st.integers(0, 10))


@settings(max_examples=150, deadline=None)
@given(header=_HEADER, rows=_ROWS,
       bad_row=st.one_of(st.none(), st.none(), st.none(),
                         st.lists(_CELL, max_size=4).map(",".join)),
       at=st.integers(0, 20),
       window=st.one_of(_WINDOW, _WINDOW, _WINDOW, st.sampled_from(
           ["512:8192", "a:b", "5", ":", "1:2:3", "", "0:" + "9" * 400])),
       model=st.sampled_from(["power", "exp"]))
def test_slope_input_fuzz(header, rows, bad_row, at, window, model):
    # any CSV text either fits or is refused with one named error line
    if bad_row is not None:
        rows.insert(at, bad_row)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.csv")
        with open(path, "w") as fh:
            fh.write("\n".join([header, *rows]) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["slope", "--in", path, f"--window={window}",
                         f"--model={model}"])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        # strict JSON: no NaN or Infinity
        json.loads(out.getvalue(), parse_constant=pytest.fail)


HEADLINE = ("corr", "--M", "2", "--a", "1/4", "--b", "1/4", "--phi", "xc-1/2",
            "--psi", "xc-1/2", "--method", "squarewave", "--n-max", "8192")
# sha256 of the headline's header and rows, without the footer line: the
# numbers, whatever the footer's hash of the settings and version
HEADLINE_ROWS_SHA256 = \
    "b324af52126e9f9bfc5d5c51f7c44ee3192c09d31e85430753882c41e3a598dc"


def test_headline_rows_are_pinned(capsys):
    assert main(list(HEADLINE)) == 0
    out = capsys.readouterr().out
    rows = out[:out.rindex("# config=")]
    assert hashlib.sha256(rows.encode()).hexdigest() == HEADLINE_ROWS_SHA256


def test_headline_has_the_readme_sha256(capsys):
    # the CI check: the first 64-hex value in backquotes in the README is
    # the sha256 of the headline's whole output
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        expected = re.search(r"`([0-9a-f]{64})`", fh.read()).group(1)
    assert main(list(HEADLINE)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        expected


def test_headline_csv_streams(tmp_path):
    # the rows were held three times over (tuples, lines, one string) before
    # the first byte was written, and each record had a __dict__: 6.1 MiB
    out = str(tmp_path / "series.csv")
    assert main([*HEADLINE[:-1], "16", "--out", out]) == 0   # imports, caches
    tracemalloc.start()
    try:
        assert main([*HEADLINE, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20


def test_headline_stdout_is_the_file(tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert main([*HEADLINE, "--out", str(out)]) == 0
    assert main([*HEADLINE, "--out", "-"]) == 0
    written = capsys.readouterr().out.encode()
    assert written == out.read_bytes()
    assert written.count(b"\n") == 8195      # header, n = 0..8192, footer


@pytest.mark.parametrize("argv,flag", [
    # a uniform dyadic input takes the integer kernel, which died on n < 0
    (["apply-op", "--op", "p0", "--n", "-1", "--in", "{pc1}"], "--n"),
    # the other operators returned their input unchanged
    (["apply-op", "--op", "palpha", "--n", "-1", "--in", "{pc1}"], "--n"),
    (["apply-op", "--op", "pfull3d", "--in", "{pc1}"], "--in"),
    (["apply-op", "--op", "p0", "--in", "{csv}"], "--in"),
    (["slope", "--in", "{csv}", "--window", "512"], "--window"),
    (["slope", "--in", "{csv}", "--window", "a:b"], "--window"),
    (["ruin", "--delta", "0"], "--delta"),
    (["ruin", "--n", "-3"], "--n"),
    # ran as w = M a whatever --b said: a + b = 9/20 at M = 2
    (["apply-op", "--op", "p0", "--a", "1/5", "--in", "{pc1}"], "--a"),
    # each exited 2 with "need l, l' >= 1 and n >= 1"
    (["ruin-transition", "--l", "0", "--lp", "1", "--n", "3"], "--l"),
    (["ruin-transition", "--l", "1", "--lp", "0", "--n", "3"], "--lp"),
    (["ruin-transition", "--l", "1", "--lp", "1", "--n", "3", "0"], "--n"),
    # each wrote its first rows, then Python's message on the digits str
    # writes; 2^14285 has 4301 digits
    (["ruin", "--init", "1e4299,0,1e-4299", "--n", "1"], "--init"),
    (["ruin", "--n", "14285"], "--delta"),
    (["orbit", "--a", "1/1000", "--b", "1/1000", "--point", "1/3,1/3,1/3",
      "--n", "3000", "--mode", "exact"], "--n"),
    # --n 0 wrote its input unchanged; --n 1 named no flag
    (["apply-op", "--op", "pfull3d", "--a", "1/5", "--n", "0", "--in",
      "{pc1}"], "--a"),
])
def test_bad_input_names_the_flag(tmp_path, capsys, argv, flag):
    pc1 = tmp_path / "chi.json"
    pc1.write_text(pcfun1d_to_json(hb.wavelet(1, 0)))
    csv = tmp_path / "series.csv"
    csv.write_text("n,value,method,err\n1,0.5,x,0\n2,0.25,x,0\n")
    code = main([a.format(pc1=pc1, csv=csv) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}")


def test_runs_within_the_digit_limit_are_written(capsys):
    # the orbit refusal names the longest --n that str can write, and a
    # ruin run of no steps writes the masses --init gave it
    argv = ["orbit", "--a", "1/1000", "--b", "1/1000", "--point",
            "1/3,1/3,1/3", "--mode", "exact", "--n"]
    assert main([*argv, "3000"]) == 2
    assert capsys.readouterr().err.endswith(
        "--n 1433 is the longest orbit that can be written\n")
    code, out = run(capsys, *argv, "1433")
    assert code == 0 and len(out.splitlines()) == 1436
    code, out = run(capsys, "ruin", "--init", "1e4299,0,1e-4299", "--n", "0")
    assert code == 0 and len(out.splitlines()) == 4


def test_truncation_level_is_an_unknown_flag(capsys):
    # it set the projection of an affine observable onto the Haar route,
    # which now takes PC observables only
    with pytest.raises(SystemExit) as exc:
        main(["corr", "--method", "haar", "--phi", "xc-1/2", "--psi",
              "xc-1/2", "--truncation-level", "-3", "--n-max", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --truncation-level" in \
        capsys.readouterr().err


@pytest.mark.parametrize("op,payload", [
    ("p0", {"breakpoints": ["0", "1/2", "1"], "values": [["1", "2"], ["3"]]}),
    ("pfull3d", {"xu": ["0", "1"], "xc": ["0", "1"], "xs": ["0", "1"],
                 "values": [[1]]}),
    ("pfull3d", {"xu": ["0", "1"], "xc": ["0", "1"], "xs": ["0", "1"],
                 "values": [[[[1]]]]}),
])
def test_apply_op_names_a_misshapen_value_tensor(tmp_path, capsys, op,
                                                  payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = main(["apply-op", "--op", op, "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --in")
    assert "value tensor shape does not match the grid" in captured.err


MC = ("corr", "--phi", "xc-1/2", "--psi", "xc-1/2", "--method", "mc",
      "--n-list", "1", "--samples", "10000")


@pytest.mark.parametrize("argv", [
    # numpy refused these with "key must be positive and less than 2**128"
    ("verify-all", "--seed", "-1"),
    ("verify-identities", "--seed", "-1"),
    # died with an OverflowError traceback
    (*MC, "--seed", str(2 ** 64)),
    # ran through an invalid int -> uint64 cast
    (*MC, "--seed", "-1"),
])
def test_seed_out_of_range_names_the_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "argument --seed: expected an integer in [0, 2^64)" in \
        capsys.readouterr().err


def test_high_seeds_key_their_own_streams(capsys):
    # numpy read the key (seed, shard) as float64 from 2^63 on: 2^63 + 1
    # ran the stream of 2^63, and 2^64 - 1 overflowed the cast
    rows = set()
    for seed in (2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1):
        code, out = run(capsys, *MC, "--seed", str(seed))
        assert code == 0
        rows.add(out.splitlines()[1])
    assert len(rows) == 3


def test_mc_names_an_a_it_cannot_draw(capsys):
    a = "1/18446744073709551617"
    b = str(F(1, 2) - F(a))
    code = main([*MC, "--a", a, "--b", b, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: a = {a}")


def test_mc_csv_does_not_depend_on_workers_or_out(tmp_path):
    # the footer hashed --workers and --out, so identical rows got two hashes
    paths = [tmp_path / f"mc{w}.csv" for w in (1, 2)]
    for w, path in zip((1, 2), paths):
        assert main([*MC, "--n-list", "1,5", "--samples", "20000", "--seed",
                     "7", "--workers", str(w), "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("text,cause", [
    # died with KeyError: 'n'
    ("a,b\n1,2\n", "the columns n and value"),
    ("n,value\n1,x\n", "value = 'x'"),
    # a short row died with a TypeError from float(None)
    ("n,value\n1,0.5\n2\n", "value = None"),
])
def test_slope_names_the_input_it_cannot_read(tmp_path, capsys, text, cause):
    csv = tmp_path / "other.csv"
    csv.write_text(text)
    code = main(["slope", "--in", str(csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --in")
    assert cause in captured.err


# sha256 of the bytes each run writes, recorded while every kernel still
# rebuilt its integer numerators from the Fraction values on each call
PINNED_FILES = {
    ("verify-all", "--seed", "7"):
        "5c38ce50ff23b4faf8927b5621f0c69c86986299407581f838a3c80165125fc4",
    ("apply-op", "--op", "p0", "--a", "1/5", "--b", "3/10", "--n", "6",
     "--in", "f1"):
        "ab8e4fccb77138c930979496723f1cbbc655da4ef296d8c94cb6db3a82292b25",
    ("apply-op", "--op", "p0", "--M", "3", "--a", "1/6", "--b", "1/6",
     "--n", "3", "--in", "g1"):
        "9e91f0b488c0f3a843bf590095ed38cd6d6d771113360c82e4f84b2c6be1369f",
    # the grid route's two parts, on a grid with non-dyadic breakpoints
    ("apply-op", "--op", "palpha", "--M", "3", "--a", "1/6", "--b", "1/6",
     "--n", "2", "--in", "g1"):
        "54eac7a4e091a830ce7c54b0e004085a04fb779af7a31d76b0e1473a539a73f9",
    ("apply-op", "--op", "pbeta", "--a", "1/5", "--b", "3/10", "--n", "1",
     "--in", "g1"):
        "2aac1df07e02c9edfc2a31938e48277ba1e85a555d59388b624fc7c74f9cc2c1",
    ("apply-op", "--op", "pfull3d", "--a", "1/5", "--b", "3/10", "--n", "3",
     "--in", "f3"):
        "cc297f1b9aec1acffaf856c8322829a2b338741e4324aece0a9d670ee2240b70",
    ("apply-op", "--op", "pfull3d", "--M", "3", "--a", "1/6", "--b", "1/6",
     "--n", "2", "--in", "f3"):
        "18eb349b59a4c0061737abccb03e66fdbfd687e919465ffd0165400d3d0eea11",
    # orbit --mode exact runs apply_f3 on every step, --mode float the float
    # loop; a ruin run without --init keeps --delta in its footer's hash
    ("orbit", "--point", "1/10,3/10,1/2", "--n", "40", "--mode", "exact"):
        "028b2421d91cb7eb90a1630b78d29516dfb6950b39bbc50034f4e1c5a2267950",
    ("orbit", "--point", "1/10,3/10,1/2", "--n", "40", "--mode", "float"):
        "d5d22eccd210840db97ed4be473b70b764e67cc63ac8526b6ce7e1456eb024ed",
    ("ruin", "--delta", "3", "--n", "12"):
        "f9537c963d11a1789f8b91ae2cbed0e5d54ab24ef716cbda1e66fdef3950c6d8",
}


@pytest.mark.parametrize("argv", PINNED_FILES, ids=lambda a: " ".join(a[:3]))
def test_written_bytes_are_pinned(tmp_path, argv):
    inputs = {
        "f1": pcfun1d_to_json(hb.PCFun1D.uniform(
            [F(k, 24) for k in (5, -3, 7, 1, -11, 2, 0, -1)])),
        "g1": pcfun1d_to_json(hb.PCFun1D.build(
            [0, F(1, 3), F(1, 2), F(5, 6), 1], [F(1, 4), F(-2, 3), 1, 0])),
        "f3": pcfun3d_to_json(hb.PCFun3D.build(
            *[[0, F(1, 3), F(1, 2), 1]] * 3,
            np.arange(-13, 14).reshape(3, 3, 3).tolist())),
    }
    key, argv = argv, list(argv)
    if "--in" in argv:
        i = argv.index("--in") + 1
        path = tmp_path / argv[i]
        path.write_text(inputs[argv[i]])
        argv[i] = str(path)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_FILES[key]


def test_mc_takes_a_constant_observable(capsys):
    code, out = run(capsys, "corr", "--phi", "1/2", "--psi", "xc",
                    "--method", "mc", "--n-list", "1", "--samples", "10000",
                    "--seed", "1")
    assert code == 0
    n, value, method, err = out.splitlines()[1].split(",")
    assert (n, method) == ("1", "monte-carlo")
    # a constant has no correlation with anything
    assert abs(float(value)) <= 5 * float(err)


# fractions past the float range, unreduced and negative ones on top of
# _FRACTION_TEXT
_WIDE_FRACTION_TEXT = _FRACTION_TEXT | st.sampled_from(
    ["2/8", "-1/2", "1e400", f"1/{10 ** 400}", "1/2/3", "1.5"])


def _comma_list(elements, max_size):
    return st.lists(elements, max_size=max_size).map(",".join) | \
        st.text(alphabet="0123456789/,-e. ", max_size=8)


@settings(max_examples=150, deadline=None)
@example(params=_PRESETS[0], point="1e-5000,0,0", n=1, mode="exact")
@given(params=_PARAMS, point=_comma_list(_WIDE_FRACTION_TEXT, 4),
       n=st.integers(-3, 200), mode=st.sampled_from(["exact", "float"]))
def test_orbit_input_fuzz(params, point, n, mode):
    # any input either runs or is refused with one named error line
    M, a, b = params
    _runs_or_refuses(["orbit", f"--M={M}", f"--a={a}", f"--b={b}",
                      f"--point={point}", f"--n={n}", f"--mode={mode}"],
                     "n,xu,xc,xs\n")


@settings(max_examples=150, deadline=None)
# past the digits that str writes: the header went out before the error
@example(delta=1, init="1e5000", n=1, mode="rational", dense=False)
@example(delta=1, init="1e-5000", n=1, mode="rational", dense=False)
# each mass fits, but their sum does not: the header and the n = 0 rows
# went out before the error
@example(delta=1, init="1e4299,0,1e-4299", n=1, mode="rational", dense=False)
@given(delta=st.integers(-3, 60) | st.just(10 ** 3),
       init=st.none() | _comma_list(_WIDE_FRACTION_TEXT, 6),
       n=st.integers(-3, 40), mode=st.sampled_from(["rational", "double"]),
       dense=st.booleans())
def test_ruin_input_fuzz(delta, init, n, mode, dense):
    argv = ["ruin", f"--delta={delta}", f"--n={n}", f"--mode={mode}"]
    if init is not None:
        argv.append(f"--init={init}")
    _runs_or_refuses(argv + ["--dense"] * dense, "n,l,q\n")


# the float route loops min(l, lp) times, and n^1.5 is checked first, so
# both levels may be large
@settings(max_examples=150, deadline=None)
@given(l=st.integers(-2, 70) | st.sampled_from([10 ** 30, 10 ** 400]),
       lp=st.integers(-2, 70) | st.integers(71, 10 ** 6) |
       st.sampled_from([10 ** 30, 10 ** 400]),
       ns=st.lists(st.integers(-2, 200) |
                   st.sampled_from([10 ** 210, 10 ** 400]),
                   min_size=1, max_size=4))
def test_ruin_transition_input_fuzz(l, lp, ns):
    _runs_or_refuses(["ruin-transition", f"--l={l}", f"--lp={lp}", "--n",
                      *map(str, ns)], "n,l,lp,p,ratio\n")


_JSON_LEAF = st.none() | st.booleans() | st.integers(-3, 3) | \
    st.floats(allow_nan=True, allow_infinity=True) | _WIDE_FRACTION_TEXT
_JSON = st.recursive(_JSON_LEAF, lambda inner: st.lists(inner, max_size=4) | (
    st.dictionaries(st.sampled_from(["breakpoints", "values", "xu", "xc",
                                     "xs"]), inner, max_size=5)),
    max_leaves=12)
# a grid from 0 to 1 with its values, as the writer spells them, so that
# most inputs get past the parser
_GRID = st.lists(st.fractions(0, 1, max_denominator=12), max_size=3).map(
    lambda xs: ["0", *sorted({str(x) for x in xs} - {"0", "1"}), "1"])


def _pc1_json(grid, values):
    return json.dumps({"breakpoints": grid, "values": values[:len(grid) - 1]})


def _pc3_json(grids, values):
    shape = [len(g) - 1 for g in grids]
    cells = np.resize(np.array(values or ["0"], dtype=object), shape)
    return json.dumps({"xu": grids[0], "xc": grids[1], "xs": grids[2],
                       "values": cells.tolist()})


_VALUES = st.lists(st.integers(-5, 5).map(str) | _WIDE_FRACTION_TEXT,
                   min_size=1, max_size=27)
_PC_TEXT = st.one_of(
    st.builds(_pc1_json, _GRID, _VALUES),
    st.builds(_pc3_json, st.tuples(_GRID, _GRID, _GRID), _VALUES),
    _JSON.map(json.dumps),
    st.text(max_size=12),
    st.integers(1, 5000).map(lambda k: "[" * k + "]" * k))


@settings(max_examples=150, deadline=None)
@given(op=st.sampled_from(["p0", "palpha", "pbeta", "pfull3d"]),
       params=st.sampled_from(_PRESETS + [(3, "1/6", "1/6")]) | _PARAMS,
       n=st.integers(-2, 3), text=_PC_TEXT)
def test_apply_op_input_fuzz(op, params, n, text):
    M, a, b = params
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w") as fh:
            fh.write(text)
        _runs_or_refuses(["apply-op", f"--op={op}", f"--M={M}", f"--a={a}",
                          f"--b={b}", f"--n={n}", f"--in={path}"], "{")


@pytest.mark.parametrize("argv,named", [
    # each raised a Python error (OverflowError) or, for --init "", ran
    # --delta 1 instead
    (["orbit", "--point=1e400,1/2,1/2", "--mode=float"], "x_u = "),
    (["ruin", "--init=1e400", "--mode=double"], "--init"),
    (["ruin", "--init="], "--init"),
    (["ruin-transition", "--l=1", "--lp=1", "--n", str(10 ** 210)], "--n"),
    (["ruin-transition", "--l=1", "--lp=1", "--n", str(10 ** 400)], "--n"),
    # each wrote what came before its value, then the error of str past
    # 4300 digits, which named no flag
    (["ruin", "--init=1e5000", "--n=1"], "--init"),
    (["ruin", "--init=1e-5000", "--n=1"], "--init"),
    (["orbit", "--point=1e-5000,0,0", "--n=1"], "--point"),
])
def test_out_of_range_input_is_refused(capsys, argv, named):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and named in captured.err


def test_apply_op_refuses_deeply_nested_json(tmp_path, capsys):
    # json raised RecursionError past about 1000 levels
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code = main(["apply-op", "--op", "p0", "--in", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: --in") and \
        "RecursionError" in captured.err


def test_ruin_init_footer_does_not_hash_delta(capsys):
    # --init replaces --delta, so the two runs wrote the same rows under
    # the footers config=2287047fa868 and config=c7ec6917a39e
    argv = ("ruin", "--init", "1/2,1/2", "--n", "2")
    assert run(capsys, *argv, "--delta", "1") == \
        run(capsys, *argv, "--delta", "5")


@pytest.mark.parametrize("argv", [
    ("corr", "--phi", "xc-1/2", "--psi", "xc-1/2", "--n-max", "4"),
    ("orbit", "--point", "1/10,3/10,1/2", "--n", "4"),
])
def test_fractions_hash_in_lowest_terms(capsys, argv):
    # --a 1/4 and --a 2/8 wrote the same rows under two footers
    want = run(capsys, *argv, "--a", "1/4", "--b", "1/4")
    assert run(capsys, *argv, "--a", "2/8", "--b", "0.25") == want
    if argv[0] == "orbit":
        assert run(capsys, "orbit", "--point", "2/20,0.3,2/4", "--n", "4",
                   "--a", "1/4", "--b", "1/4") == want
