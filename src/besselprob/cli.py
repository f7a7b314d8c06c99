"""Command-line front end.

Commands: `verify lommel|ws|appendix`, `vandantzig pair|sample`,
`gammatype exists|boundary|density|quasilevy|convexity`,
`sample ratio-product`.  Output is canonical JSON (sorted keys, fixed
separators) or CSV; every run writes a manifest next to its output.

Exit codes: 0 pass/exists, 1 tolerance failure, 3 not-exists,
4 indeterminate, 2 domain or usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import shlex
import sys
import time

import numpy as np

from . import __version__, gammatype, quad, specfun, vandantzig
from .errors import AccuracyError, DivergenceError
from .gammatype import parse_number

EXIT_PASS = 0
EXIT_TOL = 1
EXIT_USAGE = 2
EXIT_NOT_EXISTS = 3
EXIT_INDETERMINATE = 4


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_list(text: str):
    return [parse_number(v) for v in text.split(",") if v.strip()]


def _emit(args, text: str) -> None:
    manifest = _manifest(args)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
        manifest_path = out + ".manifest.json"
    else:
        sys.stdout.write(text)
        manifest_path = "besselprob-manifest.json"
    manifest["output_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _manifest(args) -> dict:
    return {
        "command": shlex.join(["besselprob", *args.argv]),
        "seed": getattr(args, "seed", None),
        "precision": {"tol": getattr(args, "tol", None)},
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_s": round(time.perf_counter() - args.started, 6),
    }


# ---------------------------------------------------------------------------
# verify


def cmd_verify_lommel(args) -> int:
    alphas = _parse_list(args.alpha_list)
    ts = _parse_list(args.t_list)
    if any(a <= -0.5 for a in alphas):
        raise ValueError("alpha must exceed -1/2")

    def row(alpha, t):
        c = math.exp(-specfun.ln_gamma(alpha + 0.5)) / math.sqrt(math.pi) \
            * (0.5 * t) ** alpha
        lam = alpha - 0.5
        cos_part = quad.tanh_sinh(
            lambda x, dlo, dhi: math.cos(t * x) * (dlo * dhi) ** lam,
            -1.0, 1.0, tol=min(args.tol * 1e-2, 1e-12))
        lhs = c * cos_part.value
        rhs = specfun.bessel_j(alpha, t)
        return {
            "alpha": alpha,
            "t": t,
            "lhs": lhs,
            "rhs": rhs,
            "abs_err": abs(lhs - rhs),
        }

    rows = [row(a, t) for a in alphas for t in ts]
    ok = all(r["abs_err"] <= args.tol for r in rows)
    payload = {"rows": rows, "tol": args.tol, "pass": ok}
    _emit(args, _canonical(payload))
    return EXIT_PASS if ok else EXIT_TOL


def cmd_verify_ws(args) -> int:
    alphas = _parse_list(args.alpha_list)
    fracs = _parse_list(args.s_fractions)
    if any(a <= -0.5 for a in alphas):
        raise ValueError("alpha must exceed -1/2")
    if any(not 0.0 < f < 1.0 for f in fracs):
        raise ValueError("s fractions must lie strictly inside (0, 1)")

    def row(alpha, frac):
        s = frac * (alpha + 0.5)
        rhs = quad.ws_rhs(alpha, s)
        r = quad.ws_integral(alpha, s, tol=args.tol)
        return {
            "alpha": alpha,
            "s": s,
            "integral": r.value,
            "closed_form": rhs,
            "rel_err": abs(r.value - rhs) / abs(rhs),
            "converged": r.converged,
        }

    rows = [row(a, f) for a in alphas for f in fracs]
    ok = all(r["rel_err"] <= args.tol for r in rows)
    payload = {"rows": rows, "tol": args.tol, "pass": ok}
    _emit(args, _canonical(payload))
    return EXIT_PASS if ok else EXIT_TOL


def cmd_verify_appendix(args) -> int:
    rows = []
    if args.which in ("fresnel", "all"):
        for mu10 in range(1, 10):
            mu = mu10 / 10.0
            r = quad.fresnel_cos_moment(mu, tol=1e-9)
            target = math.exp(specfun.ln_gamma(mu)) * math.cos(0.5 * math.pi * mu)
            rows.append({
                "check": "fresnel",
                "mu": mu,
                "value": r.value,
                "target": target,
                "abs_err": abs(r.value - target),
                "pass": abs(r.value - target) <= 1e-8,
            })
    if args.which in ("selberg", "all"):
        for alpha, s in ((0.5, 0.75), (1.0, 1.2), (2.0, 2.2)):
            qv, cf = gammatype.selberg2_check(alpha, s)
            rows.append({
                "check": "selberg",
                "alpha": alpha,
                "s": s,
                "value": qv,
                "target": cf,
                "rel_err": abs(qv - cf) / abs(cf),
                "pass": abs(qv - cf) / abs(cf) <= 1e-6,
            })
    ok = all(r["pass"] for r in rows)
    payload = {"rows": rows, "pass": ok}
    _emit(args, _canonical(payload))
    return EXIT_PASS if ok else EXIT_TOL


# ---------------------------------------------------------------------------
# vandantzig


def cmd_vandantzig_pair(args) -> int:
    model = vandantzig.PowerSemicircle(args.alpha)
    grid = np.linspace(args.grid_max / 128.0, args.grid_max, 128)
    report = vandantzig.verify_pair(model, grid, mc_count=args.mc, seed=args.seed)
    ok = (report.max_identity_error <= 1e-8
          and report.bochner_min_eigenvalue >= -1e-10
          and report.mc_cf_max_z_score <= 4.0)
    _emit(args, _canonical(report.to_dict()))
    return EXIT_PASS if ok else EXIT_TOL


def _samples_csv(values) -> str:
    """One value per line, to 17 significant digits, under a `value`
    header."""
    return "value\n" + "".join(f"{v:.17g}\n" for v in values)


def cmd_vandantzig_sample(args) -> int:
    model = vandantzig.HittingTimeModel.build(args.alpha)
    if args.kind == "T":
        values = vandantzig.sample_hitting_time(model, args.seed, args.count)
    else:
        values = vandantzig.sample_subordinated(model, args.seed, args.count)
    _emit(args, _samples_csv(values))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# gammatype


def _load_spec(args) -> gammatype.GammaRatioSpec:
    if getattr(args, "spec_json", None):
        return gammatype.GammaRatioSpec.from_json(args.spec_json)
    if getattr(args, "spec_file", None):
        with open(args.spec_file, "r", encoding="utf-8") as f:
            return gammatype.GammaRatioSpec.from_json(f.read())
    raise ValueError("no spec given (use --spec-json or --spec-file)")


def cmd_gammatype_exists(args) -> int:
    if args.spec_json or args.spec_file:
        spec = _load_spec(args)
        verdict = gammatype.exists_spec(spec)
        payload = verdict.to_dict()
        if spec.has_atom_at_one:
            payload["atom_at_one"] = gammatype.atom_at_one(spec)
    elif None not in (args.a, args.b, args.c, args.d):
        verdict = gammatype.exists_D(
            parse_number(args.a), parse_number(args.b),
            parse_number(args.c), parse_number(args.d))
        payload = verdict.to_dict()
    else:
        raise ValueError("give either a spec or all of -a -b -c -d")
    _emit(args, _canonical(payload))
    return {"Exists": EXIT_PASS, "NotExists": EXIT_NOT_EXISTS,
            "Indeterminate": EXIT_INDETERMINATE}[verdict.state]


def cmd_gammatype_boundary(args) -> int:
    a = parse_number(args.a)
    b = parse_number(args.b)
    us = np.linspace(args.u_from, args.u_to, args.u_count)
    u_min = 0.5 * (3 * a + b) + 0.25
    if args.u_from < u_min - 1e-12:
        raise ValueError(f"u range must start at or above {u_min}")

    def row(u):
        s = gammatype.boundary_f_ab(a, b, float(u), resolution=args.resolution)
        return f"{s.u:.12g},{s.f_value:.12g},{s.bracket_width:.12g},{s.method}\n"

    text = "u,f_value,bracket_width,method\n" + "".join(row(u) for u in us)
    _emit(args, text)
    return EXIT_PASS


def cmd_gammatype_density(args) -> int:
    spec = _load_spec(args)
    rows = [{"x": x, "density": gammatype.density_via_inversion(
        spec, x, line_sigma=args.sigma, truncation=args.truncation)}
        for x in _parse_list(args.x_list)]
    _emit(args, _canonical({"rows": rows}))
    return EXIT_PASS


def cmd_gammatype_quasilevy(args) -> int:
    q = gammatype.QuasiLevySpec(parse_number(args.a), parse_number(args.b))
    root = gammatype.quasi_levy_root(q)
    ss = _parse_list(args.s_list) if args.s_list else [-q.a / 2.0, q.b / 2.0]
    checks = []
    for s in ss:
        rec = gammatype.quasi_levy_mellin(q, s)
        want = gammatype.mellin(q.ratio_spec(), s)
        checks.append({"s": s, "reconstructed": rec, "mellin": want,
                       "rel_err": abs(rec - want) / abs(want)})
    payload = {
        "a": q.a, "b": q.b, "c": q.c, "d": q.d,
        "drift": q.drift,
        "root": root,
        "reconstruction": checks,
    }
    _emit(args, _canonical(payload))
    ok = all(c["rel_err"] <= 1e-5 for c in checks)
    return EXIT_PASS if ok else EXIT_TOL


def cmd_gammatype_convexity(args) -> int:
    a = parse_number(args.a)
    b = parse_number(args.b)
    us = list(np.linspace(args.u_from, args.u_to, args.u_count))
    report = gammatype.convexity_scan(a, b, us, resolution=args.resolution)
    _emit(args, _canonical(report))
    return EXIT_PASS if report["monotonicity_violations"] == 0 else EXIT_TOL


def cmd_sample_ratio_product(args) -> int:
    spec = _load_spec(args)
    values = gammatype.sample_ratio_product(spec, args.seed, args.count)
    _emit(args, _samples_csv(values))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # every command takes --out; --tol and --seed only where they are read
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None)
    tol = argparse.ArgumentParser(add_help=False, parents=[common])
    tol.add_argument("--tol", type=float, default=1e-9)
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=20260808)

    p = argparse.ArgumentParser(prog="besselprob",
                                description="Bessel-function probability toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="identity verification suites")
    vsub = verify.add_subparsers(dest="subcommand", required=True)
    lommel = vsub.add_parser("lommel", parents=[tol])
    lommel.add_argument("--alpha-list", default="-0.4,0,0.5,1,2.5")
    lommel.add_argument("--t-list", default="0.5,1,5,10,20")
    lommel.set_defaults(func=cmd_verify_lommel)
    ws = vsub.add_parser("ws", parents=[tol])
    ws.add_argument("--alpha-list", default="0,0.5,1,2")
    ws.add_argument("--s-fractions", default="0.2,0.5,0.8")
    ws.set_defaults(func=cmd_verify_ws, tol=1e-6)
    appendix = vsub.add_parser("appendix", parents=[common])
    appendix.add_argument("--which", choices=("fresnel", "selberg", "all"),
                          default="all")
    appendix.set_defaults(func=cmd_verify_appendix)

    vd = sub.add_parser("vandantzig", help="characteristic-function pair checks")
    vdsub = vd.add_subparsers(dest="subcommand", required=True)
    pair = vdsub.add_parser("pair", parents=[seeded])
    pair.add_argument("--alpha", type=float, required=True)
    pair.add_argument("--grid-max", type=float, default=30.0)
    pair.add_argument("--mc", type=int, default=100_000)
    pair.set_defaults(func=cmd_vandantzig_pair)
    samp = vdsub.add_parser("sample", parents=[seeded])
    samp.add_argument("--alpha", type=float, required=True)
    samp.add_argument("--count", type=int, default=10_000)
    samp.add_argument("--kind", choices=("T", "Y"), default="T")
    samp.set_defaults(func=cmd_vandantzig_sample)

    gt = sub.add_parser("gammatype", help="Gamma-type moment analysis")
    gsub = gt.add_subparsers(dest="subcommand", required=True)
    exists = gsub.add_parser("exists", parents=[common])
    exists.add_argument("-a", default=None)
    exists.add_argument("-b", default=None)
    exists.add_argument("-c", default=None)
    exists.add_argument("-d", default=None)
    exists.add_argument("--spec-json", default=None)
    exists.add_argument("--spec-file", default=None)
    exists.set_defaults(func=cmd_gammatype_exists)
    boundary = gsub.add_parser("boundary", parents=[common])
    boundary.add_argument("-a", required=True)
    boundary.add_argument("-b", required=True)
    boundary.add_argument("--u-from", type=float, required=True)
    boundary.add_argument("--u-to", type=float, required=True)
    boundary.add_argument("--u-count", type=int, default=9)
    boundary.add_argument("--resolution", type=float, default=1e-3)
    boundary.set_defaults(func=cmd_gammatype_boundary)
    density = gsub.add_parser("density", parents=[common])
    density.add_argument("--spec-json", default=None)
    density.add_argument("--spec-file", default=None)
    density.add_argument("--x-list", required=True)
    density.add_argument("--sigma", type=float, default=None)
    density.add_argument("--truncation", type=float, default=None)
    density.set_defaults(func=cmd_gammatype_density)
    ql = gsub.add_parser("quasilevy", parents=[common])
    ql.add_argument("-a", required=True)
    ql.add_argument("-b", required=True)
    ql.add_argument("--s-list", default=None)
    ql.set_defaults(func=cmd_gammatype_quasilevy)
    convexity = gsub.add_parser("convexity", parents=[common])
    convexity.add_argument("-a", required=True)
    convexity.add_argument("-b", required=True)
    convexity.add_argument("--u-from", type=float, required=True)
    convexity.add_argument("--u-to", type=float, required=True)
    convexity.add_argument("--u-count", type=int, default=7)
    convexity.add_argument("--resolution", type=float, default=2e-3)
    convexity.set_defaults(func=cmd_gammatype_convexity)

    smp = sub.add_parser("sample", help="random variate generation")
    ssub = smp.add_subparsers(dest="subcommand", required=True)
    rp = ssub.add_parser("ratio-product", parents=[seeded])
    rp.add_argument("--spec-json", default=None)
    rp.add_argument("--spec-file", default=None)
    rp.add_argument("--count", type=int, default=10_000)
    rp.set_defaults(func=cmd_sample_ratio_product)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    args.started = time.perf_counter()
    # the commands leave their domain and accuracy errors to this mapping
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OverflowError, DivergenceError) as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    except AccuracyError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_TOL


if __name__ == "__main__":
    sys.exit(main())
