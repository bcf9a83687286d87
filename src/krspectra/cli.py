"""Command-line driver.

Subcommands: crystal, tensor, alcove, gaudin, bethe, spectra, compare.
Reports are JSON, graphs are DOT, exact scalars serialize as fraction
strings.  Exit codes: 0 pass, 1 fail, 2 usage error.  Configuration comes
from flags or from a single JSON file with the same field names; there is no
network access and no environment-variable configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import export
from .alcoves import AffinePoint, classify, walls_of
from .bethe import (
    bethe_commuting_certificate,
    bethe_family,
    degeneration_report,
    standard_torus,
)
from .gaudin import (
    GaudinConfig,
    invariance_check,
    manin_cdet_trace_identity,
    residue_generators,
    wall_family,
)
from .glrep import build_tensor
from .pipeline import (
    S_GRID,
    build_spectral_config,
    compare_pipeline,
    default_shift,
    kr_rep,
)
from .promotion import build_kr, promote, promotion_order, verify_uniqueness
from .scalars import QQi
from .spectra import eigenvalues_csv, scan_simple_spectrum
from .tableaux import CrystalError, build_crystal
from .tensorcrystal import string_statistics, tensor_many


# the operator dimension cap; build_config_from_opts is also called without it
DIMCAP = 512


class UsageError(ValueError):
    pass


def parse_fraction_list(text):
    return [Fraction(x) for x in text.split(",") if x != ""]


def parse_scalar_list(text):
    return [QQi.parse(x) for x in text.split(",") if x != ""]


def parse_factors(text):
    """Factor list "l,r;l,r;..." -> [(l, r), ...]."""
    out = []
    for part in text.split(";"):
        if not part:
            continue
        l, r = part.split(",")
        out.append((int(l), int(r)))
    if not out:
        raise UsageError("empty factor list")
    return out


def emit(report, opts):
    payload = dict(report)
    payload["config"] = {
        k: v for k, v in opts.items() if v is not None and k not in ("func",)
    }
    text = json.dumps(payload, indent=1, default=str)
    if opts.get("json"):
        export.write_json(opts["json"], payload)
    print(text)
    return 0 if report.get("passed", True) else 1


def build_config_from_opts(opts):
    n = opts["n"]
    factors = parse_factors(opts["factors"]) if opts.get("factors") else None
    if opts.get("z"):
        points = parse_scalar_list(opts["z"])
        if opts.get("k") and opts["k"] != len(points):
            raise UsageError(f"--k {opts['k']} does not match {len(points)} points")
        if factors is None:
            factors = [(1, 1)] * len(points)
        if len(points) != len(factors):
            raise UsageError("--z and --factors lengths differ")
        parts = []
        for (l, r), z in zip(factors, points):
            parts.append((kr_rep(n, l, r), z, QQi(default_shift(n, l, r))))
        rep = build_tensor(parts)
        chi = parse_fraction_list(opts["chi"]) if opts.get("chi") else [0] * n
        cfg = GaudinConfig(rep, chi)
    else:
        if factors is None:
            raise UsageError("need --factors or --z")
        s = Fraction(opts.get("s") or 1)
        cfg = build_spectral_config(n, factors, s)
        if opts.get("chi"):
            cfg = GaudinConfig(cfg.rep, parse_fraction_list(opts["chi"]))
    if cfg.rep.dim > opts.get("dimcap", DIMCAP):
        raise UsageError(
            f"tensor dimension {cfg.rep.dim} exceeds the cap; raise --dimcap"
        )
    return cfg


# ---------------------------------------------------------------------------
# crystal


def cmd_crystal(opts):
    action = opts["action"]
    n = opts["n"]
    cap = opts["cap"]
    if action == "export" and not (opts.get("kr") or opts.get("lam")):
        raise UsageError("crystal export needs --kr or --lambda")
    if opts.get("kr"):
        l, r = (int(x) for x in opts["kr"].split(","))
        crys = build_kr(n, l, r)
        affine = True
        lam = (l,) * r
    elif opts.get("lam"):
        lam = tuple(int(x) for x in opts["lam"].split(","))
        crys = build_crystal(n, lam, cap=cap)
        affine = False
    else:
        raise UsageError("need --kr l,r or --lambda parts")

    report = {"n": n, "lambda": list(lam), "size": len(crys.elements), "passed": True}
    if action == "verify":
        rep = verify_uniqueness(n, lam)
        report.update(rep)
        if opts.get("affine") and not rep.get("extendable", True):
            report["note"] = "reported non-extendable"
    if action in ("build", "export"):
        if affine:
            report["promotion_order"] = promotion_order(n, lam)
    if opts.get("dot"):
        export.write_text(opts["dot"], export.crystal_to_dot(crys, affine=affine))
        report["dot"] = opts["dot"]
    if opts.get("json_graph"):
        export.write_json(opts["json_graph"], export.crystal_to_json(crys, affine=affine))
    if action == "build" and affine:
        graph = build_crystal(n, lam, cap=cap)
        report["orbit_table"] = export.orbit_table(
            graph.elements, {t: promote(t, n) for t in graph.elements}
        )
    return emit(report, opts)


# ---------------------------------------------------------------------------
# tensor


def cmd_tensor(opts):
    n = opts["n"]
    factors = parse_factors(opts["factors"])
    crystals = [build_kr(n, l, r) for (l, r) in factors]
    prod = tensor_many(crystals)
    stats = {
        j: sorted(((ln, list(w)), c) for (ln, w), c in string_statistics(prod, j).items())
        for j in range(n)
    }
    report = {
        "n": n,
        "factors": factors,
        "size": len(prod.elements),
        "string_statistics": stats,
        "passed": True,
    }
    if opts.get("dot"):
        export.write_text(opts["dot"], export.crystal_to_dot(prod, affine=True))
    return emit(report, opts)


# ---------------------------------------------------------------------------
# alcove


def cmd_alcove(opts):
    x = AffinePoint(parse_fraction_list(opts["x"]))
    got = classify(x)
    if isinstance(got, list):
        report = {
            "point": [str(c) for c in x.coords],
            "regular": False,
            "walls": [repr(w) for w in got],
            "passed": True,
        }
    else:
        report = {
            "point": [str(c) for c in x.coords],
            "regular": True,
            "sigma": list(got.sigma),
            "translation": list(got.m),
            "walls_of_alcove": [repr(w) for w in walls_of(got)],
            "passed": True,
        }
    return emit(report, opts)


# ---------------------------------------------------------------------------
# gaudin


def cmd_gaudin(opts):
    action = opts["action"]
    cfg = build_config_from_opts(opts)
    if action == "commute":
        fam = residue_generators(cfg)
        inv = invariance_check(fam)
        report = fam.report()
        report["invariance"] = inv
        report["passed"] = inv["passed"]
    elif action == "wall":
        fam = wall_family(cfg)
        report = fam.report()
        report["passed"] = True
    elif action == "manin":
        report = {
            "trace_identity": manin_cdet_trace_identity(cfg),
        }
        report["passed"] = report["trace_identity"]
    else:
        raise UsageError(f"unknown gaudin action {action}")
    return emit(report, opts)


# ---------------------------------------------------------------------------
# bethe


def cmd_bethe(opts):
    action = opts["action"]
    n = opts["n"]
    if action == "commute":
        cfg = build_config_from_opts(opts)
        C = standard_torus(n, wall=opts.get("wall"))
        margin = max(2, (opts.get("grid") or 0) - n * cfg.k)
        report = bethe_commuting_certificate(C, cfg, margin=margin)
        fam = bethe_family(C, cfg)
        report["normality"] = fam.normality_report()
        report["passed"] = report["passed"] and report["normality"]["passed"]
    elif action == "degenerate":
        cfg = build_config_from_opts(opts)
        eps_list = parse_fraction_list(opts["eps"])
        chi = parse_fraction_list(opts["chi"]) if opts.get("chi") else [0] * n
        report = degeneration_report(
            GaudinConfig(cfg.rep, chi), chi, eps_list, c=Fraction(opts.get("c") or 1)
        )
        ratios = report["ratios"]
        report["passed"] = bool(ratios) and all(0.35 <= r <= 0.65 for r in ratios)
    else:
        raise UsageError(f"unknown bethe action {action}")
    return emit(report, opts)


# ---------------------------------------------------------------------------
# spectra


def cmd_spectra(opts):
    n = opts["n"]
    factors = parse_factors(opts["factors"])
    s_grid = (
        parse_fraction_list(opts["s_grid"])
        if opts.get("s_grid")
        else [Fraction(1), Fraction(2), Fraction(3)]
    )
    tol, seed = opts["tol"], opts["seed"]

    def build(s):
        cfg = build_spectral_config(n, factors, s)
        fam = bethe_family(standard_torus(n), cfg)
        torus = [cfg.rep.delta(a, a) for a in range(1, n + 1)]
        return fam.gens + torus, cfg.rep

    report = scan_simple_spectrum(build, s_grid, tol=tol, seed=seed)
    spec = report.pop("spectrum")
    report["passed"] = spec is not None
    if opts.get("csv") and spec is not None:
        export.write_text(opts["csv"], eigenvalues_csv(spec))
        report["csv"] = opts["csv"]
    return emit(report, opts)


# ---------------------------------------------------------------------------
# compare


def cmd_compare(opts):
    n = opts["n"]
    factors = parse_factors(opts["factors"])
    s_grid = parse_fraction_list(opts["s_grid"]) if opts.get("s_grid") else S_GRID
    report = compare_pipeline(
        n, factors, s_grid=s_grid, tol=opts["tol"], seed=opts["seed"]
    )
    return emit(report, opts)


# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--json", help="write the JSON report to this path")
    p.add_argument("--dot", help="write a DOT graph to this path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--cap", type=int, default=100000, help="crystal element cap")
    p.add_argument("--dimcap", type=int, default=DIMCAP, help="operator dimension cap")


def make_parser():
    ap = argparse.ArgumentParser(prog="krspectra")
    ap.add_argument("--config", help="JSON config file with the same field names")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("crystal")
    p.add_argument("action", choices=["build", "verify", "export"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kr", help="l,r for the KR crystal B_{l w_r}")
    p.add_argument("--lambda", dest="lam", help="partition, e.g. 2,1")
    p.add_argument("--affine", action="store_true")
    p.add_argument("--json-graph", dest="json_graph")
    _add_common(p)
    p.set_defaults(func=cmd_crystal)

    p = sub.add_parser("tensor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--factors", required=True, help="l,r;l,r;...")
    _add_common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("alcove")
    p.add_argument("action", choices=["classify"])
    p.add_argument("--n", type=int)
    p.add_argument("--x", required=True, help="rational coordinates a,b,c")
    _add_common(p)
    p.set_defaults(func=cmd_alcove)

    p = sub.add_parser("gaudin")
    p.add_argument("action", choices=["commute", "wall", "manin"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="number of factors (validated against --z)")
    p.add_argument("--chi", help="rational entries, e.g. 1/3,-1/3")
    p.add_argument("--z", help="exact points, e.g. 0,1 or -2+3*i,-2+i")
    p.add_argument("--factors", help="l,r;l,r;... (defaults to defining reps)")
    p.add_argument("--s")
    _add_common(p)
    p.set_defaults(func=cmd_gaudin)

    p = sub.add_parser("bethe")
    p.add_argument("action", choices=["commute", "degenerate"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--factors")
    p.add_argument("--z")
    p.add_argument("--chi")
    p.add_argument("--s")
    p.add_argument("--wall", type=int)
    p.add_argument("--grid", type=int, help="certificate grid size")
    p.add_argument("--eps", help="shift steps, e.g. 1/8,1/16,1/32")
    p.add_argument("--c", help="slope of the two-parameter slice")
    _add_common(p)
    p.set_defaults(func=cmd_bethe)

    p = sub.add_parser("spectra")
    p.add_argument("action", choices=["scan"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--factors", required=True)
    p.add_argument("--s-grid", dest="s_grid")
    p.add_argument("--csv", help="write eigenvalue tuples at the first simple s")
    _add_common(p)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("compare")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--factors", required=True)
    p.add_argument("--s-grid", dest="s_grid")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    return ap


def main(argv=None) -> int:
    ap = make_parser()
    ns = ap.parse_args(argv)
    opts = vars(ns)
    if opts.get("config"):
        with open(opts["config"]) as fh:
            doc = json.load(fh)
        command = doc.pop("command", None)
        action = doc.pop("action", None)
        args = [command] if command else []
        if action:
            args.append(action)
        for key, val in doc.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(val, bool):
                if val:
                    args.append(flag)
            else:
                args.extend([flag, str(val)])
        ns = ap.parse_args(args)
        opts = vars(ns)
    if not opts.get("command"):
        ap.print_usage()
        return 2
    try:
        return opts["func"](opts)
    except (UsageError, CrystalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - failures are reported, not raised
        print(f"failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
