"""Command-line front end.

Subcommands: orbit, apply-op, ruin, ruin-transition, corr, slope,
verify-identities, verify-all.  CSV outputs carry a header row and a
trailing comment line with a hash of the settings that set the rows and
the package version, so runs are auditably reproducible.  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .baker import BakerParams, check_seed, orbit, tiling_report
from .correlation import (TruncationBudgetExceeded, _exp_fit, _plateau,
                          _power_fit, _window_arrays,
                          exact_reduced_correlation, mc_correlation_series)
from .observables import ParseError, parse_observable
from .pcfun import _at_least, _to_int_vector, frac, pcfun1d_from_json, \
    pcfun1d_to_json, pcfun3d_from_json, pcfun3d_to_json
from .ruin import RuinState, evolve_from, step, transition_prob
from .transfer import ReducedOp, p0_apply, p_alpha, p_beta, p_full_3d_n
from .verify import run_identity_suite


def _digit_limit() -> int:
    """The most digits `str` writes of an integer; 0 for no limit, as in
    Python before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _frac(text: str, flag: str) -> Fraction:
    """The fraction `text`, refused unless `str` can write its numerator
    and denominator, which the exact outputs do."""
    try:
        value = frac(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: expected a fraction p/q with q != 0, "
                         f"got {text!r}") from None
    limit = _digit_limit()
    if limit and max(abs(value.numerator), value.denominator) >= 10 ** limit:
        raise ValueError(f"{flag}: {text!r} has a numerator or denominator "
                         f"of more than {limit} digits")
    return value


def _seed(text: str) -> int:
    """The type of every --seed: an integer in [0, 2^64), the range of the
    Philox key word the seed becomes."""
    try:
        return check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [0, 2^64), got {text!r}") from None


def _params_from(args) -> BakerParams:
    return BakerParams(args.M, _frac(args.a, "--a"), _frac(args.b, "--b"))


def _preserving_params_from(args) -> BakerParams:
    """The parameters, refused off a + b = 1/M, where the reduced operator
    and the Monte Carlo law are defined."""
    params = _params_from(args)
    if not params.is_measure_preserving:
        raise ValueError(
            f"--a {args.a} and --b {args.b} do not preserve Lebesgue "
            f"measure: {args.command} needs a + b = 1/M = 1/{params.M}, "
            f"got {params.a + params.b}")
    return params


# arguments that do not change the numbers a run writes
_UNHASHED = frozenset(("func", "out", "workers"))


def _config_hash(config: dict) -> str:
    blob = json.dumps({k: str(v) for k, v in sorted(config.items())
                       if k not in _UNHASHED}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@contextlib.contextmanager
def _output(path):
    """The file at `path`, opened for writing, or stdout for None and "-"."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write_csv(path, header, rows, config):
    """The header, then each row of the iterable `rows` as it comes, then
    the footer, which hashes the settings in `config`; no row is held once
    written."""
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
        fh.write(f"# config={_config_hash(config)} version={__version__}\n")


def _write_json(path, obj):
    with _output(path) as fh:
        fh.write(json.dumps(obj, indent=2, default=str) + "\n")


def cmd_orbit(args) -> int:
    params = _params_from(args)
    point = [_frac(c, "--point") for c in args.point.split(",")]
    if len(point) != 3:
        raise ValueError(f"--point needs three coordinates, got {len(point)}")
    pts = orbit(params, tuple(point), args.n, exact=args.mode == "exact")
    limit = _digit_limit()
    if args.mode == "exact" and limit:
        bound = 10 ** limit
        for i, p in enumerate(pts):
            if any(max(abs(c.numerator), c.denominator) >= bound for c in p):
                raise ValueError(
                    f"--n: step {i} of the exact orbit has a coordinate whose "
                    f"numerator or denominator has more than {limit} digits; "
                    f"--n {i - 1} is the longest orbit that can be written")
    rows = ((i, *(str(c) if args.mode == "exact" else repr(float(c))
                  for c in p)) for i, p in enumerate(pts))
    # the footer hashes the fractions in lowest terms, however spelled
    config = {**vars(args), "a": params.a, "b": params.b,
              "point": ",".join(map(str, point))}
    _write_csv(args.out, ["n", "xu", "xc", "xs"], rows, config)
    return 0


def _read_pcfun(path: str, parse, keys: str):
    with open(path) as fh:
        payload = fh.read()
    try:
        return parse(payload)
    except (KeyError, RecursionError, TypeError, ValueError,
            ZeroDivisionError) as exc:    # RecursionError: deep nesting
        raise ValueError(f"--in: {path} is not a PC function in JSON with keys "
                         f"{keys} ({type(exc).__name__}: {exc})") from None


def cmd_apply_op(args) -> int:
    _at_least(args.n, 0, "--n")
    params = _preserving_params_from(args)
    if args.op in ("p0", "palpha", "pbeta"):
        f = _read_pcfun(args.infile, pcfun1d_from_json, "breakpoints, values")
        op = ReducedOp.from_params(params)
        if args.op == "p0":
            g = p0_apply(op, f, args.n)
        else:
            fn = p_alpha if args.op == "palpha" else p_beta
            g = f
            for _ in range(args.n):
                g = fn(op, g)
        out = pcfun1d_to_json(g)
    else:  # pfull3d
        F = _read_pcfun(args.infile, pcfun3d_from_json, "xu, xc, xs, values")
        out = pcfun3d_to_json(p_full_3d_n(params, F, args.n))
    with _output(args.out) as fh:
        fh.write(out + "\n")
    return 0


def cmd_ruin(args) -> int:
    _at_least(args.n, 0, "--n")
    if args.init is not None:
        profile = [_frac(x, "--init") for x in args.init.split(",")]
        state = RuinState.from_profile(profile)
        # every later mass is at most the total
        if args.mode == "double" and state.survival() > sys.float_info.max:
            raise ValueError("--init: the masses sum past the float range "
                             "of --mode double")
    else:
        state = RuinState.delta(_at_least(args.delta, 1, "--delta"))
    limit = _digit_limit()
    if args.mode == "rational" and limit and args.n:
        # step 0 writes the checked masses; a step halves the scale and at
        # most doubles the largest numerator, so step m writes masses up to
        # max(nums) 2^m over denom 2^m
        nums, denom = _to_int_vector(state.q)
        top, bound = max(*nums, denom), 10 ** limit
        if args.n >= bound.bit_length() or top << args.n >= bound:
            flag = "--delta" if args.init is None else "--init"
            raise ValueError(
                f"{flag} and --n: by step {args.n} the masses may have a "
                f"numerator or denominator of more than {limit} digits")

    def rows(state):
        for n in range(args.n + 1):
            for l, q in enumerate(state.q, start=1):
                if q or args.dense:
                    yield n, l, float(q) if args.mode == "double" else q
            if n < args.n:
                state = step(state)

    # --init replaces --delta, which then sets nothing
    config = {k: v for k, v in vars(args).items()
              if k != "delta" or args.init is None}
    _write_csv(args.out, ["n", "l", "q"], rows(state), config)
    return 0


def cmd_ruin_transition(args) -> int:
    _at_least(args.l, 1, "--l")
    _at_least(args.lp, 1, "--lp")
    rows = []
    for n in args.n:
        try:
            # n^1.5 first, so that an n past the float range is refused
            # before the float route loops min(l, lp) <= n/2 times
            n_pow = _at_least(n, 1, "--n") ** 1.5
            p = transition_prob(args.l, args.lp, n)
            ratio = float(p) * n_pow / (args.l * args.lp)
        except OverflowError:
            raise ValueError("--l, --lp and --n: the ratio p n^1.5 / (l lp) "
                             "needs them inside the float range") from None
        rows.append((n, args.l, args.lp, float(p), ratio))
    _write_csv(args.out, ["n", "l", "lp", "p", "ratio"], rows, vars(args))
    return 0


def _observable(text: str, flag: str):
    try:
        return parse_observable(text)
    except ParseError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _n_values(args) -> list[int]:
    """The n a corr run writes, once each and in increasing order."""
    if args.n_list is None:
        return list(range(_at_least(args.n_max, 0, "--n-max") + 1))
    try:
        ns = [int(x) for x in args.n_list.split(",")]
    except ValueError:
        raise ValueError("--n-list must be comma-separated integers, "
                         f"got {args.n_list!r}") from None
    return sorted({_at_least(n, 0, "each n in --n-list") for n in ns})


def cmd_corr(args) -> int:
    _at_least(args.workers, 1, "--workers")
    phi = _observable(args.phi, "--phi")
    psi = _observable(args.psi, "--psi")
    params = _preserving_params_from(args)
    ns = _n_values(args)
    if args.method in ("squarewave", "haar"):
        op = ReducedOp.from_params(params)
        try:
            series = exact_reduced_correlation(
                phi, psi, max(ns), op=op, mode=args.method, numeric="double")
        except TruncationBudgetExceeded as exc:
            # the library names its parameter; name the flag that sets it
            n_flag = "--n-max" if args.n_list is None else "--n-list maximum"
            raise ValueError(str(exc).replace("n_max", n_flag)) from None
        wanted = set(ns)
        records = (rec for rec in series if rec.n in wanted)
    else:  # mc
        if args.seed is None:
            print("error: --seed is required for Monte Carlo", file=sys.stderr)
            return 2
        out = mc_correlation_series(params, phi, psi, ns, args.samples,
                                    args.seed, workers=args.workers)
        records = (out[n] for n in ns)
    rows = ((rec.n, repr(rec.value), rec.method, repr(rec.error))
            for rec in records)
    # the footer hashes what sets the rows: the n written, however they
    # were listed, the parameters in lowest terms, however spelled, and
    # the sampling flags only where they are read
    unread = {"n_list", "n_max"} | \
        (set() if args.method == "mc" else {"samples", "seed"})
    config = {k: v for k, v in vars(args).items() if k not in unread}
    config.update(a=params.a, b=params.b, n=ns)
    _write_csv(args.out, ["n", "value", "method", "err"], rows, config)
    return 0


def cmd_slope(args) -> int:
    import csv
    try:
        lo, hi = (int(x) for x in args.window.split(":"))
    except ValueError:
        raise ValueError("--window must be lo:hi with integers lo and hi, "
                         f"got {args.window!r}") from None
    # int64 bounds, which numpy compares with any column of n, even an
    # empty (float) one
    lo, hi = (min(max(x, -2 ** 63), 2 ** 63 - 1) for x in (lo, hi))
    ns, vs = [], []
    with open(args.infile) as fh:
        reader = csv.reader(r for r in fh if not r.startswith("#"))
        header = next(reader, None)
        # the last column of a name wins, as in csv.DictReader
        col = {name: i for i, name in enumerate(header or ())}
        if not {"n", "value"} <= col.keys():
            raise ValueError(f"--in: {args.infile} needs the columns n and "
                             f"value, got {header}")
        i_n, i_v = col["n"], col["value"]
        for row in reader:
            if not row:
                continue
            try:
                ns.append(int(row[i_n]))
                vs.append(abs(float(row[i_v])))
            except (IndexError, ValueError):    # IndexError: a short row
                n, v = (row[i] if i < len(row) else None for i in (i_n, i_v))
                raise ValueError(f"--in: {args.infile} has a row with n = "
                                 f"{n!r} and value = {v!r}") from None
    ns, vs = _window_arrays(ns, vs, (lo, hi))
    if args.model == "power":
        out = {**_power_fit(ns, vs), "plateau_tail": _plateau(ns[-5:], vs[-5:])}
    else:
        out = _exp_fit(ns, vs)
    _write_json(args.out, out)
    return 0


def cmd_verify_identities(args) -> int:
    report = run_identity_suite(seed=args.seed)
    _write_json(args.out, report)
    return 0 if report["passed"] else 1


def cmd_verify_all(args) -> int:
    import numpy as np
    from .haar import square_wave
    from .observables import affine_center, pc_center
    from .ruin import q_via_transition
    from .transfer import oracle_equivalence_report
    from .verify import random_pc1

    checks = {}
    report = run_identity_suite(seed=args.seed)
    checks["identities"] = report["passed"]

    grid = [(2, "1/4", "1/4"), (2, "1/5", "3/10"), (2, "1/3", "1/5"),
            (3, "1/6", "1/6"), (3, "1/5", "1/10")]
    ok = True
    for M, a, b in grid:
        params = BakerParams(M, frac(a), frac(b))
        ok = ok and tiling_report(params)["passed"] == params.is_measure_preserving
    checks["tiling"] = ok

    ok = True
    for l in (1, 3, 7):
        s = RuinState.delta(l)
        ok = ok and evolve_from(s, 24).q == q_via_transition(s, 24).q
    checks["ruin_closed_form"] = ok

    rng = np.random.Generator(np.random.Philox(key=args.seed))
    op = ReducedOp.neutral(2)
    ok = True
    for _ in range(5):
        f = random_pc1(rng, int(rng.integers(1, 5)))
        if not f.lattice[0].any():
            continue
        ok = ok and oracle_equivalence_report(f, op, 8)["agree"]
    checks["oracle_equivalence"] = ok

    phi = affine_center()
    series = exact_reduced_correlation(phi, phi, 1, numeric="rational")
    checks["hand_values"] = (series[0].exact == Fraction(1, 12) and
                             series[1].exact == Fraction(1, 24))

    chi = pc_center(square_wave(1))
    series = exact_reduced_correlation(chi, chi, 2, mode="haar")
    checks["chi_pairing"] = series[2].exact == Fraction(1, 4)

    from .pcfun import PCFun1D, PCFun3D
    from .ruin import domination_check
    params = BakerParams.neutral(2)
    u = PCFun3D.build(["0", "1"], ["0", "1"], ["0", "1/2", "1"], [[[1, -1]]])
    from .transfer import fiber_average_decay_check
    rows = fiber_average_decay_check(params, u, (Fraction(-1, 2), 0, 0, 1), 6)
    checks["fiber_decay"] = all(r["ok"] for r in rows)

    stair = PCFun1D.uniform(["-3/4", "-1/4", "1/4", "3/4"])
    rep = domination_check(stair, 4)
    checks["domination_equality"] = rep["all_hold"] and rep["all_equal"]

    passed = all(checks.values())
    _write_json(args.out, {"checks": checks, "passed": passed})
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heterobaker",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--M", type=int, default=2)
        p.add_argument("--a", default="1/4", help="fraction, e.g. 1/4")
        p.add_argument("--b", default="1/4")

    p = sub.add_parser("orbit", help="iterate the 3D map")
    add_params(p)
    p.add_argument("--point", required=True, help="xu,xc,xs as fractions")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--mode", choices=["float", "exact"], default="exact")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("apply-op", help="apply a named operator to a PC function")
    add_params(p)
    p.add_argument("--op", required=True,
                   choices=["p0", "palpha", "pbeta", "pfull3d"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_apply_op)

    p = sub.add_parser("ruin", help="absorbed-walk evolution (CSV: n,l,q)")
    p.add_argument("--delta", type=int, default=1, help="start level")
    p.add_argument("--init", help="comma list of initial masses from level 1")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--mode", choices=["rational", "double"], default="rational")
    p.add_argument("--dense", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_ruin)

    p = sub.add_parser("ruin-transition", help="closed-form transitions")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--lp", type=int, required=True)
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_ruin_transition)

    p = sub.add_parser("corr", help="correlation series (CSV: n,value,method,err)")
    add_params(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--method", choices=["squarewave", "haar", "mc"],
                   default="squarewave")
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--n-list", help="explicit comma-separated n values")
    p.add_argument("--samples", type=int, default=10 ** 6)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--workers", type=int, default=1, help=(
        "mc threads, same output for any count; 2 vs 1 on 2 cores at 10^6 "
        "samples: 0.66 vs 1.07 s wall, 1.18 vs 1.07 s CPU"))
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("slope", help="fit a corr CSV (JSON out)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", default="512:8192", help="lo:hi in n")
    p.add_argument("--model", choices=["power", "exp"], default="power")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("verify-identities", help="exact operator identities")
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("verify-all", help="full quick verification sweep")
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify_all)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # argparse drops the value of "--flag=--" and leaves an empty list
    dropped = [dest for dest, value in vars(args).items() if value == []]
    if dropped:
        flag = {"infile": "in"}.get(dropped[0], dropped[0]).replace("_", "-")
        print(f"error: --{flag}: expected a value, got '--'", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
