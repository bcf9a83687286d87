"""Command-line driver.

Subcommands: crystal, tensor, alcove, gaudin, bethe, spectra, compare.
Reports are JSON, graphs are DOT, exact scalars serialize as fraction
strings.  Exit codes: 0 pass, 1 fail, 2 usage error.  Configuration comes
from flags or from a single JSON file with the same field names; there is no
network access and no environment-variable configuration.

Importing this module loads the crystal layer only (`tableaux`, `promotion`,
`tensorcrystal`, `alcoves`, `export`), which is all that `crystal`, `tensor`
and `alcove` run; `tensor` builds its product with
`promotion.kr_tensor_crystal`.  The exact layer (`scalars`, `glrep`,
`gaudin`, `bethe`, `spectra`, `pipeline`) is imported inside the handlers of
`gaudin`, `bethe`, `spectra` and `compare`, and their helpers, when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import export
from .alcoves import AffinePoint, classify, walls_of
from .promotion import (
    affine_extension,
    cycles,
    is_rectangle,
    kr_tensor_crystal,
    promotion_map,
    promotion_order,
    verify_uniqueness,
)
from .tableaux import CrystalError, build_crystal, shape_from_partition, ssyt_count
from .tensorcrystal import string_statistics


# the operator dimension cap; build_config_from_opts is also called without it
DIMCAP = 512
# the largest n whose Gaudin column determinant (every gaudin action, bethe
# degenerate) is built.  At n = 5 the default --dimcap admits (1,2)(1,2)(1,1),
# dim 500, where `gaudin wall` takes 12.3 s and 194 MB peak RSS, `gaudin
# commute` 13.0 s and 198 MB (both at chi = 1/3,1/3,1/5,1/7,-1/4) and
# `bethe degenerate --eps 1/8,1/16` 33 s and 314 MB (2-vCPU host), against
# 16.5 s for the slowest case at n = 4 (`bethe degenerate` on (1,2)(1,1)^3,
# dim 384).  Profiled, the cdet sweep over the dim-500 operator grid is 16 of
# the 25 s of `gaudin commute` (its Mat-polynomial products 9.8 s), the
# residues' Taylor expansions 3.4 s and span_rank 3.3 s
GAUDIN_MAX_N = 4


class UsageError(ValueError):
    pass


def parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}") from None


def parse_fraction_list(text):
    return [parse_fraction(x) for x in text.split(",") if x != ""]


def parse_s_grid(opts, default):
    """The --s-grid scales, or `default` without the flag; a given grid that
    holds no scale is refused."""
    grid = default if opts.get("s_grid") is None else parse_fraction_list(opts["s_grid"])
    if not grid:
        raise UsageError(f"--s-grid holds no scale: {opts['s_grid']!r}")
    return grid


def parse_scalar_list(text):
    from .scalars import QQi

    try:
        return [QQi.parse(x) for x in text.split(",") if x != ""]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a list of exact scalars: {text!r}") from None


def parse_factors(text):
    """Factor list "l,r;l,r;..." -> [(l, r), ...]; each part is two integers."""
    out = []
    for part in text.split(";"):
        if not part:
            continue
        try:
            l, r = (int(x) for x in part.split(","))
        except ValueError:
            raise UsageError(f"not two integers l,r: {part!r}") from None
        out.append((l, r))
    if not out:
        raise UsageError("empty factor list")
    return out


def emit(report, opts):
    payload = dict(report)
    payload["config"] = {
        k: v for k, v in opts.items() if v is not None and k not in ("func",)
    }
    # a non-finite float is not JSON: it raises here instead of printing
    text = json.dumps(payload, default=str, allow_nan=False)
    # the report is printed in any case, so "-" (stdout) writes no file
    if opts.get("json") not in (None, "-"):
        export.write_text(opts["json"], text)
    print(text)
    return 0 if report.get("passed", True) else 1


TENSOR_CAP_ERROR = "tensor product would have {size} > cap {cap} elements; raise --cap"
DIMCAP_ERROR = "tensor dimension {size} exceeds the cap; raise --dimcap"


def check_factor(n, l, r):
    """Refuse a KR factor (l, r) unless l >= 1 and 1 <= r <= n."""
    if l < 1 or not 1 <= r <= n:
        raise UsageError(f"invalid KR factor {l},{r}: need l >= 1 and 1 <= r <= n = {n}")


def check_size(n, factors, cap, message=DIMCAP_ERROR):
    """Refuse a product of KR factors (l, r) over `cap` before any of it is built.

    Every factor must have l >= 1 and 1 <= r <= n.  The size, the crystal's
    element count and the rep's dimension alike, is the product of the
    numbers of SSYT of the rectangles (l^r) with entries <= n; it is
    returned when within the cap.
    """
    for l, r in factors:
        check_factor(n, l, r)
    size = math.prod(ssyt_count((l,) * r, n) for (l, r) in factors)
    if size > cap:
        raise UsageError(message.format(size=size, cap=cap))
    return size


def config_parts(opts):
    """The factors, their (point, shift) pairs and the chi of `gaudin` or `bethe`.

    Every flag is checked here, the points after `--s` scales them, and
    nothing is built.
    """
    from .pipeline import default_shift, spectral_points
    from .scalars import QQi

    n = opts["n"]
    factors = parse_factors(opts["factors"]) if opts.get("factors") else None
    points = parse_scalar_list(opts["z"]) if opts.get("z") else None
    if points is not None and factors is None:
        factors = [(1, 1)] * len(points)
    if factors is None:
        raise UsageError("need --factors or --z")
    if points is not None and len(points) != len(factors):
        raise UsageError("--z and --factors lengths differ")
    if points is not None and opts.get("s") is not None:
        raise UsageError("--s scales the default points, so it does not go with --z")
    chi = parse_fraction_list(opts["chi"]) if opts.get("chi") else None
    if chi is not None and len(chi) != n:
        raise UsageError(f"--chi has {len(chi)} entries, need n = {n}")
    check_size(n, factors, opts.get("dimcap", DIMCAP))
    if points is None:
        located = spectral_points(n, factors, parse_fraction(opts.get("s") or 1))
    else:
        located = [(z, QQi(default_shift(n, l, r))) for (l, r), z in zip(factors, points)]
    points = [z for z, _ in located]
    if len(set(points)) < len(points):
        raise UsageError(f"evaluation points must be distinct, got {', '.join(map(str, points))}")
    return factors, located, chi or [0] * n


def build_config_from_opts(opts):
    """The configuration of the flags (`pipeline.located_config`)."""
    from .pipeline import located_config

    return located_config(opts["n"], *config_parts(opts))


# ---------------------------------------------------------------------------
# crystal


def cmd_crystal(opts):
    action = opts["action"]
    n = opts["n"]
    if action == "export" and not (opts.get("kr") or opts.get("lam")):
        raise UsageError("crystal export needs --kr or --lambda")
    if opts.get("kr"):
        factors = parse_factors(opts["kr"])
        if len(factors) != 1:
            raise UsageError(f"--kr takes one factor l,r, got {opts['kr']!r}")
        [(l, r)] = factors
        check_factor(n, l, r)
        lam = (l,) * r
    elif opts.get("lam"):
        try:
            lam = tuple(int(x) for x in opts["lam"].split(","))
        except ValueError:
            raise UsageError(f"not a partition: {opts['lam']!r}") from None
        shape_from_partition(lam)  # refused before any build
    else:
        raise UsageError("need --kr l,r or --lambda parts")
    affine = bool(opts.get("kr"))
    verify = action == "verify"
    graph = build_crystal(n, lam, cap=opts["cap"])
    pr = promotion_map(graph) if affine or verify else None
    # the one affine extension: for --kr, and for the certificate of a rectangle
    kr = affine_extension(graph, pr) if affine or (verify and is_rectangle(lam)) else None
    crys = kr if affine else graph

    report = {"n": n, "lambda": list(lam), "size": len(crys), "passed": True}
    if verify:
        rep = verify_uniqueness(graph, pr, kr)
        report.update(rep)
        if opts.get("affine") and not rep.get("extendable", True):
            report["note"] = "reported non-extendable"
    if action in ("build", "export") and affine:
        orbits = cycles(pr)
        report["promotion_order"] = promotion_order(orbits)
    if opts.get("dot"):
        export.write_text(opts["dot"], export.crystal_to_dot(crys))
        report["dot"] = opts["dot"]
    if opts.get("json_graph"):
        export.write_json(opts["json_graph"], export.crystal_to_json(crys))
    if action == "build" and affine:
        labels = graph.labels
        report["orbit_table"] = export.orbit_table(
            [[labels[k] for k in cycle] for cycle in orbits]
        )
    return emit(report, opts)


# ---------------------------------------------------------------------------
# tensor


def cmd_tensor(opts):
    n = opts["n"]
    factors = parse_factors(opts["factors"])
    check_size(n, factors, opts["cap"], TENSOR_CAP_ERROR)
    prod = kr_tensor_crystal(n, factors)
    stats = {
        j: sorted(((ln, list(w)), c) for (ln, w), c in string_statistics(prod, j).items())
        for j in range(n)
    }
    report = {
        "n": n,
        "factors": factors,
        "size": len(prod),
        "string_statistics": stats,
        "passed": True,
    }
    if opts.get("dot"):
        export.write_text(opts["dot"], export.crystal_to_dot(prod))
    return emit(report, opts)


# ---------------------------------------------------------------------------
# alcove


def cmd_alcove(opts):
    coords = parse_fraction_list(opts["x"])
    if len(coords) < 2:
        raise UsageError(f"--x needs two or more coordinates, got {opts['x']!r}")
    x = AffinePoint(coords)
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


def check_gaudin_n(n):
    """Refuse an n whose Gaudin column determinant is not built."""
    if n > GAUDIN_MAX_N:
        raise UsageError(f"n = {n} exceeds {GAUDIN_MAX_N}, the largest n of the Gaudin cdet")


def cmd_gaudin(opts):
    from .gaudin import invariance_check, residue_generators, wall_family

    action = opts["action"]
    check_gaudin_n(opts["n"])
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
    else:
        raise UsageError(f"unknown gaudin action {action}")
    return emit(report, opts)


# ---------------------------------------------------------------------------
# bethe


def cmd_bethe(opts):
    from .bethe import bethe_family, degeneration_report, standard_torus
    from .pipeline import located_config
    from .scalars import QQi

    action = opts["action"]
    n = opts["n"]
    name = "eps" if action == "commute" else "wall"
    if opts.get(name) is not None:
        raise UsageError(f"bethe {action} does not read --{name}")
    if action == "commute":
        wall = opts.get("wall")
        if wall is not None:
            if n < 2:
                raise UsageError(f"--wall needs n >= 2 for its alcove walls, got n = {n}")
            if not 1 <= wall <= n:
                raise UsageError(f"--wall {wall} is not a wall index 1..n = {n}")
        cfg = build_config_from_opts(opts)
        # the family holds every Laurent coefficient of each tau_a, so building
        # it proves [tau_a(u), tau_b(v)] = 0 identically or raises on a pair
        fam = bethe_family(standard_torus(n, wall=wall), cfg)
        report = fam.report()
        report["normality"] = fam.normality_report()
        report["passed"] = report["normality"]["passed"]
    elif action == "degenerate":
        check_gaudin_n(n)
        eps_list = parse_fraction_list(opts.get("eps") or "")
        if len(eps_list) < 2 or not all(eps_list):
            raise UsageError("bethe degenerate needs --eps with two or more nonzero steps")
        factors, located, chi = config_parts(opts)
        for eps in eps_list:
            # the evaluation points of the rescaled configuration, less 1
            moved = [z / QQi.of(eps) + d for z, d in located]
            if len(set(moved)) < len(moved):
                raise UsageError(
                    f"--eps {eps}: two points z_i/eps + d_i coincide, so their pole groups merge"
                )
        cfg = located_config(n, factors, located, chi)
        report = degeneration_report(cfg, eps_list)
        ratios = report["ratios"]
        report["passed"] = bool(ratios) and all(0.35 <= r <= 0.65 for r in ratios)
    else:
        raise UsageError(f"unknown bethe action {action}")
    return emit(report, opts)


# ---------------------------------------------------------------------------
# spectra


def cmd_spectra(opts):
    from .pipeline import SCAN_S_GRID, scan_simple_spectrum
    from .spectra import eigenvalues_csv

    n = opts["n"]
    factors = parse_factors(opts["factors"])
    check_size(n, factors, opts["dimcap"])
    report = scan_simple_spectrum(n, factors, parse_s_grid(opts, SCAN_S_GRID))
    spec = report.pop("spectrum")
    report["passed"] = spec is not None
    if opts.get("csv") and spec is not None:
        export.write_text(opts["csv"], eigenvalues_csv(spec))
        report["csv"] = opts["csv"]
    return emit(report, opts)


# ---------------------------------------------------------------------------
# compare


def cmd_compare(opts):
    from .pipeline import S_GRID, compare_pipeline

    n = opts["n"]
    if n < 2:
        raise UsageError(f"compare needs n >= 2 for its alcove walls, got n = {n}")
    factors = parse_factors(opts["factors"])
    check_size(n, factors, opts["dimcap"])
    s_grid = parse_s_grid(opts, S_GRID)
    report = compare_pipeline(n, factors, s_grid=s_grid)
    return emit(report, opts)


# ---------------------------------------------------------------------------


# the flags more than one subcommand reads; each subparser takes --json and
# those of the others its cmd_* reads
SHARED_FLAGS = {
    "json": dict(help="write the JSON report to this path too; - writes no file"),
    "dot": dict(help="write a DOT graph to this path"),
    "cap": dict(type=int, default=100000, help="crystal element cap"),
    "dimcap": dict(type=int, default=DIMCAP, help="operator dimension cap"),
}


def _add_shared(p, *names):
    for name in ("json",) + names:
        p.add_argument("--" + name, **SHARED_FLAGS[name])


@functools.cache
def make_parser():
    """The argument parser, built on first use and shared by every `main` call."""
    ap = argparse.ArgumentParser(prog="krspectra", allow_abbrev=False)
    ap.add_argument("--config", help="JSON config file with the same field names")
    sub = ap.add_subparsers(dest="command")
    # no prefix of a flag stands for it: a retired --c is not read as --chi
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("crystal")
    p.add_argument("action", choices=["build", "verify", "export"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kr", help="l,r for the KR crystal B_{l w_r}")
    p.add_argument("--lambda", dest="lam", help="partition, e.g. 2,1")
    p.add_argument("--affine", action="store_true")
    p.add_argument("--json-graph", dest="json_graph")
    _add_shared(p, "dot", "cap")
    p.set_defaults(func=cmd_crystal)

    p = add_parser("tensor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--factors", required=True, help="l,r;l,r;...")
    _add_shared(p, "dot", "cap")
    p.set_defaults(func=cmd_tensor)

    p = add_parser("alcove")
    p.add_argument("action", choices=["classify"])
    p.add_argument("--x", required=True, help="rational coordinates a,b,c")
    _add_shared(p)
    p.set_defaults(func=cmd_alcove)

    p = add_parser("gaudin")
    p.add_argument("action", choices=["commute", "wall"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chi", help="rational entries, e.g. 1/3,-1/3")
    p.add_argument("--z", help="exact points, e.g. 0,1 or -2+3*i,-2+i")
    p.add_argument("--factors", help="l,r;l,r;... (defaults to defining reps)")
    p.add_argument("--s")
    _add_shared(p, "dimcap")
    p.set_defaults(func=cmd_gaudin)

    p = add_parser("bethe")
    p.add_argument("action", choices=["commute", "degenerate"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--factors")
    p.add_argument("--z")
    p.add_argument("--chi")
    p.add_argument("--s")
    p.add_argument("--wall", type=int)
    p.add_argument("--eps", help="shift steps, e.g. 1/8,1/16,1/32")
    _add_shared(p, "dimcap")
    p.set_defaults(func=cmd_bethe)

    p = add_parser("spectra")
    p.add_argument("action", choices=["scan"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--factors", required=True)
    p.add_argument("--s-grid", dest="s_grid")
    p.add_argument("--csv", help="write eigenvalue tuples at the first simple s")
    _add_shared(p, "dimcap")
    p.set_defaults(func=cmd_spectra)

    p = add_parser("compare")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--factors", required=True)
    p.add_argument("--s-grid", dest="s_grid")
    _add_shared(p, "dimcap")
    p.set_defaults(func=cmd_compare)

    return ap


def config_argv(path):
    """The argv that the JSON object in the config file at `path` stands for."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read config {path}: {err}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"config {path} is not a JSON object")
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
    return args


def main(argv=None) -> int:
    ap = make_parser()
    opts = vars(ap.parse_args(argv))
    try:
        if opts.get("config"):
            opts = vars(ap.parse_args(config_argv(opts["config"])))
        if not opts.get("command"):
            ap.print_usage()
            return 2
        return opts["func"](opts)
    except (UsageError, CrystalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - failures are reported, not raised
        print(f"failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
