"""Command-line front end: reproducible experiments with JSON/CSV reports.

Every written report has the shape {"manifest": ..., "report": ...}.  The
manifest records the command, flags, seed, library version, input hashes and
wall time; the report payload is deterministic in exact mode, so re-running a
manifest reproduces it bit for bit (the wall-time field lives in the
manifest, outside the reproducible payload).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .complexes import (
    Complex,
    complete_complex,
    graphic_matroid_complex,
    load_complex,
    partite_complete_complex,
)
from .errors import HdxError, SizeCapError, UsageError
from .walks import (
    colored_walk,
    complement_walk,
    containment_operator,
    down_operator,
    fixed_union_walk,
    lower_walk,
    underlying_graph,
    up_operator,
)
from .spectra import (
    bipartite_norm,
    mixing_check,
    partite_mixing_check,
    square_spectrum,
    verify_colored_bound,
    verify_complement_bound,
    verify_fixed_union_bound,
    verify_trickling,
)
from .grassmann import (
    GrassmannPoset,
    conditioned_complement_walk,
    grassmann_containment_walk,
)
from . import agreement as agmod
from . import decoder as dcmod
from . import stav as stmod


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args, inputs, started, seed=None) -> dict:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    return {
        "command": args.command,
        "flags": flags,
        "seed": seed,
        "version": __version__,
        "input_hashes": {p: _hash_file(p) for p in inputs},
        "wall_time_s": round(time.time() - started, 6),
    }


def _emit(args, report: dict, inputs, started, seed=None) -> None:
    payload = {"manifest": _manifest(args, inputs, started, seed),
               "report": report}
    text = json.dumps(payload, indent=1, sort_keys=True, default=_json_default)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset, tuple)):
        return sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


# -- build ---------------------------------------------------------------------


def _cmd_build(args) -> int:
    started = time.time()
    inputs = []
    if args.complete:
        n, d = args.complete
        c = complete_complex(n, d)
    elif args.partite:
        c = partite_complete_complex([int(x) for x in args.partite.split(",")])
    elif args.matroid_edges:
        inputs.append(args.matroid_edges)
        with open(args.matroid_edges) as fh:
            edges = [tuple(int(x) for x in line.split()) for line in fh
                     if line.strip()]
        c = graphic_matroid_complex(edges, args.truncation)
    elif args.from_json:
        inputs.append(args.from_json)
        c = load_complex(args.from_json)
    else:
        raise UsageError("build needs one of --complete/--partite/"
                         "--matroid-edges/--from-json")
    c.save(args.output)
    _emit_build_note(args, c, inputs, started)
    return 0


def _emit_build_note(args, c: Complex, inputs, started):
    note = {"n_vertices": c.n_vertices, "d": c.d, "top_faces": c.n_top_faces,
            "partite": c.is_partite, "written": args.output}
    payload = {"manifest": _manifest(args, inputs, started), "report": note}
    print(json.dumps(payload, indent=1, sort_keys=True, default=_json_default),
          file=sys.stderr)


# -- spectrum ------------------------------------------------------------------


def _build_walk(c: Complex, args):
    kind = args.walk
    if kind == "up":
        return up_operator(c, args.k)
    if kind == "down":
        return down_operator(c, args.k)
    if kind == "containment":
        return containment_operator(c, args.k, args.l)
    if kind == "lower":
        return lower_walk(c, args.k, args.l)
    if kind == "complement":
        return complement_walk(c, args.l1, args.l2)
    if kind == "colored":
        return colored_walk(c, _colors(args.colors_i), _colors(args.colors_j))
    if kind == "fixed-union":
        return fixed_union_walk(c, args.l, args.j)
    raise UsageError(f"unknown walk {kind!r}")


def _colors(spec: str):
    return [int(x) for x in spec.split(",")]


def _cmd_spectrum(args) -> int:
    started = time.time()
    c = load_complex(args.complex)
    if args.walk == "underlying":
        g = underlying_graph(c)
        rep = square_spectrum(g)
        op = None
    else:
        op = _build_walk(c, args)
        if args.walk in ("lower", "fixed-union"):
            rep = square_spectrum(op)
        else:
            # level-to-level walks are bipartite operators by construction
            rep = bipartite_norm(op)
            if op.is_square:
                sq = square_spectrum(op)
                rep.lambda2, rep.lambda_min = sq.lambda2, sq.lambda_min
    if args.export_csv and op is not None:
        with open(args.export_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row_face", "col_face", "prob"])
            for row, col, p in op.triplets():
                writer.writerow([" ".join(map(str, row)),
                                 " ".join(map(str, col)), repr(p)])
    _emit(args, {"walk": args.walk, "spectrum": rep.to_json_dict()},
          [args.complex], started)
    return 0


# -- verify ---------------------------------------------------------------------


def _cmd_verify(args) -> int:
    started = time.time()
    c = load_complex(args.complex)
    checks = []
    if args.all:
        if c.d >= 1:
            checks.append(verify_complement_bound(c, 0, 0))
        if c.d >= 3:
            checks.append(verify_complement_bound(c, 1, 1))
        if c.d >= 2:
            for j in range(1, min(2, c.d - 1) + 1):
                if 1 + j + 1 <= c.d + 1:
                    checks.append(verify_fixed_union_bound(c, 1, j))
        if c.is_partite:
            try:
                checks.append(verify_colored_bound(c, [0], [1]))
            except HdxError as exc:
                checks.append({"name": "colored_walk", "skipped": str(exc)})
            if c.d == 2:
                checks.append(verify_trickling(c))
    else:
        if args.complement:
            checks.append(verify_complement_bound(c, args.l1, args.l2))
        if args.colored:
            checks.append(verify_colored_bound(c, _colors(args.colors_i),
                                               _colors(args.colors_j)))
        if args.trickling:
            checks.append(verify_trickling(c))
        if args.fixed_union:
            checks.append(verify_fixed_union_bound(c, args.l, args.j))
    if not checks:
        raise UsageError("verify: select --all or at least one check")
    rows = [chk.to_json_dict() if hasattr(chk, "to_json_dict") else chk
            for chk in checks]
    for row in rows:
        status = "PASS" if row.get("passed") else (
            "SKIP" if "skipped" in row else "FAIL")
        print(f"{status}  {row.get('name', '?')}  "
              f"lhs={row.get('lhs')} rhs={row.get('rhs')}", file=sys.stderr)
    _emit(args, {"checks": rows}, [args.complex], started)
    return 0


# -- mixing --------------------------------------------------------------------


def _cmd_mixing(args) -> int:
    started = time.time()
    c = load_complex(args.complex)
    inputs = [args.complex]
    if args.sets_file:
        inputs.append(args.sets_file)
        with open(args.sets_file) as fh:
            spec = json.load(fh)
        if spec.get("colored"):
            sets = [(entry["colors"], [tuple(f) for f in entry["faces"]])
                    for entry in spec["sets"]]
            rep = partite_mixing_check(c, sets)
        else:
            sets = [(entry["dim"], [tuple(f) for f in entry["faces"]])
                    for entry in spec["sets"]]
            rep = mixing_check(c, sets)
    else:
        if args.seed is None:
            raise UsageError("mixing with random sets needs --seed")
        if not 0 < args.density <= 1:
            raise UsageError(f"--density must be in (0, 1], got {args.density}")
        rng = np.random.default_rng(args.seed)
        verts = rng.permutation(c.n_vertices)
        size = max(1, int(args.density * c.n_vertices))
        sets = []
        for i in range(args.random_vertex_sets):
            chunk = verts[i * size:(i + 1) * size]
            if len(chunk) < size:
                raise UsageError("not enough vertices for disjoint random sets")
            sets.append((0, [(int(v),) for v in chunk]))
        rep = mixing_check(c, sets)
    _emit(args, rep.to_json_dict(), inputs, started, seed=args.seed)
    return 0


# -- grassmann -------------------------------------------------------------------


def _cmd_grassmann(args) -> int:
    started = time.time()
    p = GrassmannPoset(args.q, args.n, args.d, args.flavor)
    report = {"q": args.q, "n": args.n, "d": args.d, "flavor": args.flavor,
              "level_counts": [p.level_count(k) for k in range(args.d + 1)]}
    if args.walk == "containment":
        op = grassmann_containment_walk(p, args.k, args.l)
        lam = bipartite_norm(op).lambda_bip
        bound = args.q ** (-0.5 * args.k)
        report["walk"] = {"kind": "containment", "k": args.k, "l": args.l,
                          "lambda": lam, "bound": bound,
                          "within_bound": bool(lam <= bound + 1e-9)}
    elif args.walk == "complement":
        u0 = None
        l3 = -1
        if args.cond_dim is not None:
            lev = p.level_of_dim(args.cond_dim)
            u0 = p.level(lev)[0]
            l3 = lev
        op = conditioned_complement_walk(p, args.l1, args.l2, u0)
        lam = bipartite_norm(op).lambda_bip
        if p.flavor == "affine":
            bound = 4.0 / args.q ** (args.n - args.l1 - args.l2 - l3 - 1)
        else:
            bound = 4.0 / args.q ** (args.n - args.l1 - args.l2 - l3 - 2)
        report["walk"] = {"kind": "complement", "l1": args.l1, "l2": args.l2,
                          "cond_dim": args.cond_dim, "lambda": lam,
                          "bound": bound,
                          "within_bound": bool(lam <= bound + 1e-9)}
    _emit(args, report, [], started)
    return 0


# -- four-layer instances -----------------------------------------------------------


def _build_instance(c: Complex | None, args):
    if args.stav == "custom":
        if not args.stav_file:
            raise UsageError("--stav custom needs --stav-file")
        return stmod.load_stav(args.stav_file)
    if c is None:
        raise UsageError(f"--stav {args.stav} needs --complex")
    if args.stav == "hdx":
        return stmod.hdx_stav(c, args.d if args.d is not None else c.d, args.l)
    if args.stav == "neighborhood":
        return stmod.neighborhood_stav(c, args.l, args.k, args.nbhd_mode)
    if args.stav == "partite":
        return stmod.partite_ij_stav(c, _colors(args.colors_i),
                                     _colors(args.colors_j),
                                     args.k if args.k is not None else c.d)
    raise UsageError(f"unknown instance kind {args.stav!r}")


def _cmd_stav_check(args) -> int:
    started = time.time()
    inputs = [args.complex] if args.complex else []
    c = load_complex(args.complex) if args.complex else None
    if args.stav == "custom":
        inputs.append(args.stav_file)
    x = _build_instance(c, args)
    inv = stmod.invariant_report(x)
    good = stmod.goodness_check(x, gamma=args.gamma, r=args.r)
    _emit(args, {"invariants": inv.to_json_dict(),
                 "goodness": good.to_json_dict()}, inputs, started)
    return 0


def _cmd_agree_run(args) -> int:
    started = time.time()
    inputs = [args.complex]
    c = load_complex(args.complex)
    x = _build_instance(c, args)
    if args.ensemble:
        inputs.append(args.ensemble)
        f = agmod.load_ensemble(args.ensemble)
        plant = None
    else:
        if args.plant_seed is None:
            raise UsageError("agree-run needs --ensemble or --plant-seed")
        rng = np.random.default_rng(args.plant_seed)
        plant = rng.integers(0, args.alphabet, size=len(x.ground_labels))
        f = agmod.perfect_ensemble(x, plant, alphabet=args.alphabet)
        if args.alpha > 0:
            f = agmod.corrupt(f, args.alpha, args.corrupt_mode,
                              seed=args.plant_seed + 1)
    if args.mode == "mc" and args.seed is None:
        raise UsageError("Monte Carlo mode needs an explicit --seed")
    res = agmod.rejection(x, f, mode=args.mode, samples=args.samples,
                          seed=args.seed or 0)
    report = {"rejection": res.to_json_dict()}
    if isinstance(x, stmod.StavInstance):
        xi, conditioned = agmod.surprise(x, f)
        report["surprise"] = {"value": xi, "conditioned": bool(conditioned)}
    if plant is not None:
        report["dist_to_plant"] = agmod.dist_gamma(f, plant, 0.0, x)
    _emit(args, report, inputs, started, seed=args.seed)
    return 0


def _cmd_decode(args) -> int:
    started = time.time()
    inputs = [args.complex, args.ensemble]
    c = load_complex(args.complex)
    x = _build_instance(c, args)
    f = agmod.load_ensemble(args.ensemble)
    cfg = dcmod.DecoderConfig(tau_global=args.tau_global, tau_local=args.tau_local)
    out = dcmod.global_decode(x, f, cfg)
    report = out.to_json_dict()
    report["dist_exact"] = agmod.dist_gamma(f, out.g_ground, 0.0, x)
    defined = int((out.g_ground >= 0).sum())
    if defined < len(out.g_ground):  # a partite instance: g is defined on the v-layer
        report["dist_exact_compares"] = (f"each set on the {defined} of "
                                         f"{len(out.g_ground)} vertices where g is defined")
    args.output = args.report
    _emit(args, report, inputs, started)
    return 0


# -- wiring -----------------------------------------------------------------------


def _add_instance_flags(sub):
    sub.add_argument("--stav", default="hdx",
                     choices=["hdx", "neighborhood", "partite", "custom"])
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--l", type=int, default=1)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--nbhd-mode", default="independent",
                     choices=["independent", "complement"])
    sub.add_argument("--colors-i", default="0")
    sub.add_argument("--colors-j", default="1")
    sub.add_argument("--stav-file")


def build_parser() -> _Parser:
    parser = _Parser(prog="hdxlab")
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build")
    b.add_argument("--complete", nargs=2, type=int, metavar=("N", "D"))
    b.add_argument("--partite", help="comma-separated part sizes")
    b.add_argument("--matroid-edges", help="file of 'u v' edge lines")
    b.add_argument("--truncation", type=int, default=1)
    b.add_argument("--from-json")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=_cmd_build)

    s = subs.add_parser("spectrum")
    s.add_argument("complex")
    s.add_argument("--walk", required=True,
                   choices=["up", "down", "containment", "lower", "complement",
                            "colored", "fixed-union", "underlying"])
    s.add_argument("--k", type=int, default=0)
    s.add_argument("--l", type=int, default=0)
    s.add_argument("--l1", type=int, default=0)
    s.add_argument("--l2", type=int, default=0)
    s.add_argument("--j", type=int, default=1)
    s.add_argument("--colors-i", default="0")
    s.add_argument("--colors-j", default="1")
    s.add_argument("--export-csv")
    s.add_argument("-o", "--output")
    s.set_defaults(func=_cmd_spectrum)

    v = subs.add_parser("verify")
    v.add_argument("complex")
    v.add_argument("--all", action="store_true")
    v.add_argument("--complement", action="store_true")
    v.add_argument("--colored", action="store_true")
    v.add_argument("--trickling", action="store_true")
    v.add_argument("--fixed-union", action="store_true")
    v.add_argument("--l1", type=int, default=0)
    v.add_argument("--l2", type=int, default=0)
    v.add_argument("--l", type=int, default=1)
    v.add_argument("--j", type=int, default=1)
    v.add_argument("--colors-i", default="0")
    v.add_argument("--colors-j", default="1")
    v.add_argument("-o", "--output")
    v.set_defaults(func=_cmd_verify)

    m = subs.add_parser("mixing")
    m.add_argument("complex")
    m.add_argument("--sets-file")
    m.add_argument("--random-vertex-sets", type=int, default=2)
    m.add_argument("--density", type=float, default=0.3)
    m.add_argument("--seed", type=int)
    m.add_argument("-o", "--output")
    m.set_defaults(func=_cmd_mixing)

    g = subs.add_parser("grassmann")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--flavor", required=True, choices=["linear", "affine"])
    g.add_argument("--walk", default="containment",
                   choices=["containment", "complement"])
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--l", type=int, default=0)
    g.add_argument("--l1", type=int, default=0)
    g.add_argument("--l2", type=int, default=0)
    g.add_argument("--cond-dim", type=int, default=None)
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_grassmann)

    sc = subs.add_parser("stav-check")
    sc.add_argument("--complex")
    _add_instance_flags(sc)
    sc.add_argument("--gamma", type=float, required=True)
    sc.add_argument("--r", type=float, default=1.0)
    sc.add_argument("-o", "--output")
    sc.set_defaults(func=_cmd_stav_check)

    ar = subs.add_parser("agree-run")
    ar.add_argument("--complex", required=True)
    _add_instance_flags(ar)
    ar.add_argument("--ensemble")
    ar.add_argument("--plant-seed", type=int)
    ar.add_argument("--alphabet", type=int, default=2)
    ar.add_argument("--alpha", type=float, default=0.0)
    ar.add_argument("--corrupt-mode", default="resample_set",
                    choices=["resample_set", "flip_one"])
    ar.add_argument("--mode", default="exact", choices=["exact", "mc"])
    ar.add_argument("--samples", type=int, default=100_000)
    ar.add_argument("--seed", type=int)
    ar.add_argument("-o", "--output")
    ar.set_defaults(func=_cmd_agree_run)

    d = subs.add_parser("decode")
    d.add_argument("--complex", required=True)
    _add_instance_flags(d)
    d.add_argument("--ensemble", required=True)
    d.add_argument("--tau-global", type=float, default=dcmod.DEFAULT_TAU_GLOBAL)
    d.add_argument("--tau-local", type=float, default=dcmod.DEFAULT_TAU_LOCAL)
    d.add_argument("--report", required=True)
    d.set_defaults(func=_cmd_decode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 2
    except HdxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
