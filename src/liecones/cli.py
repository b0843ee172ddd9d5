"""Batch command-line front end with stable JSON reports.

Exit codes follow the library's three error classes (liecones.exactnum):
0 = computed, whatever the mathematical verdict; a command whose search or
splitting step raises Undetermined reports status UNDETERMINED.  1 = the
input or the command line was malformed, or outside a function's domain
(InputError), reported as status ERROR with no verdict.  2 = a re-check of
computed data failed (InvariantViolation) or another exception escaped.
The code that raises decides; this module translates no error.  Reports
are deterministic for fixed inputs and budgets and carry machine-checkable
witnesses; verdicts are re-verified before being emitted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .exactnum import QQ, Field, InputError, InvariantViolation, Undetermined, parse_scalar
from .glinalg import Matrix
from .lsa import (LieSuperalgebra, center, centroid, check_axioms, derivations,
                  is_nilpotent, is_solvable, json_entry, read_json, series)
from . import catalog as cat
from . import cartan as car
from . import cones
from . import orbits as orb
from . import cliffrep as cr
from . import hwm as hw

SCHEMA_VERSION = "1"

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "liecones report",
    "type": "object",
    "required": ["version", "tool", "command", "status", "inputs", "results", "budgets"],
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "tool": {"type": "string"},
        "command": {"type": "string"},
        "status": {"enum": ["OK", "OBSTRUCTED", "UNDETERMINED", "ERROR"]},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "budgets": {"type": "object"},
    },
    "additionalProperties": False,
}


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _report(command: str, inputs: dict, status: str, results: dict,
            budgets: dict | None = None) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "tool": f"liecones {__version__}",
        "command": command,
        "status": status,
        "inputs": inputs,
        "results": results,
        "budgets": budgets or {},
    }


def _load_algebra(args, check: bool = True) -> tuple[LieSuperalgebra, dict]:
    """The algebra named by --catalog or --algebra.

    A file algebra that fails check_axioms is an input error (exit 1, no
    verdict) unless check is False; catalog entries are tested by the suite.
    """
    if getattr(args, "catalog", None):
        return cat.build(args.catalog).algebra, {"catalog": args.catalog}
    if getattr(args, "algebra", None):
        g = LieSuperalgebra.load(args.algebra)
        if check:
            _require_axioms(g)
        return g, {"algebra_file": args.algebra, "name": g.name}
    raise InputError("need --algebra FILE or --catalog KEY")


def _require_axioms(g: LieSuperalgebra) -> None:
    """InputError listing the violations when g fails check_axioms."""
    rep = check_axioms(g)
    if not rep.all_ok:
        raise InputError("algebra file violates the axioms: "
                         + json.dumps([list(v) for v in rep.violations]))


def _scan_budgets(args, **extra) -> dict:
    """The report's budgets; a negative --budget or --cap is an input error."""
    if args.budget < 0 or args.cap < 0:
        raise InputError("--budget and --cap must be >= 0")
    return {"scan_bound": args.budget, "scan_cap": args.cap, **extra}


def _parse_functional(g: LieSuperalgebra, text: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    vals = tuple(parse_scalar(p, g.field) for p in parts)
    if len(vals) != g.space.even_dim:
        raise InputError(
            f"functional needs {g.space.even_dim} coordinates, got {len(vals)}")
    return vals


def _subspace_json(s) -> dict:
    return {"dim": s.dim, "basis": [[str(x) for x in r] for r in s.rows]}


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_validate(args) -> dict:
    g, inputs = _load_algebra(args, check=False)
    rep = check_axioms(g)
    results = {
        "dims": {"even": g.space.even_dim, "odd": g.space.odd_dim},
        "parity_ok": rep.parity_ok,
        "antisymmetry_ok": rep.antisymmetry_ok,
        "jacobi_ok": rep.jacobi_ok,
        "violations": [list(v) for v in rep.violations],
    }
    return _report("validate", inputs, "OK", results)


def cmd_analyze(args) -> dict:
    g, inputs = _load_algebra(args)
    cen = centroid(g)
    der = derivations(g)
    results = {
        "dims": {"even": g.space.even_dim, "odd": g.space.odd_dim},
        "center_dim": center(g).dim,
        "nilpotent": is_nilpotent(g),
        "solvable": is_solvable(g),
        "lower_central_dims": [s.dim for s in series(g, "lower_central")],
        "derived_dims": [s.dim for s in series(g, "derived")],
        "centroid_dim": {"even": len(cen.even), "odd": len(cen.odd)},
        "derivations_dim": {"even": len(der.even), "odd": len(der.odd)},
    }
    return _report("analyze", inputs, "OK", results)


def cmd_cartan(args) -> dict:
    g, inputs = _load_algebra(args)
    budgets = _scan_budgets(args)
    try:
        h0 = car.cartan_subalgebra_even(g, bound=args.budget, cap=args.cap)
    except Undetermined as exc:
        return _report("cartan", inputs, "UNDETERMINED",
                       {"error": str(exc)}, budgets)
    cd = car.cartan_subsuperalgebra(g, h0)
    results = {
        "h0": _subspace_json(cd.h0),
        "h": _subspace_json(cd.h),
        "compactly_embedded": cd.compactly_embedded,
    }
    return _report("cartan", inputs, "OK", results, budgets)


def _root_datum(command: str, g: LieSuperalgebra, inputs: dict, args, budgets: dict):
    """(h0, root datum) from the scanned compact Cartan subalgebra h0, or the
    command's UNDETERMINED report when the scan or the root splitting fails."""
    h0 = car.compact_cartan_even(g, bound=args.budget, cap=args.cap)
    if h0 is None:
        return _report(command, inputs, "UNDETERMINED",
                       {"note": "no compactly embedded Cartan found in scan"}, budgets)
    cd = car.cartan_subsuperalgebra(g, h0)
    try:
        return h0, car.root_decomposition(g, cd)
    except Undetermined as exc:
        return _report(command, inputs, "UNDETERMINED", {"error": str(exc)}, budgets)


def cmd_roots(args) -> dict:
    g, inputs = _load_algebra(args)
    budgets = _scan_budgets(args)
    found = _root_datum("roots", g, inputs, args, budgets)
    if isinstance(found, dict):
        return found
    h0, datum = found
    roots = [{"alpha": [str(v) for v in r.values],
              "even_dim": r.even_space.dim,
              "odd_dim": r.odd_space.dim} for r in datum.roots]
    results = {
        "h0": _subspace_json(h0),
        "roots": roots,
        "symmetric": car.check_root_symmetry([r.values for r in datum.roots]),
    }
    return _report("roots", inputs, "OK", results, budgets)


def cmd_cone_check(args) -> dict:
    g, inputs = _load_algebra(args)
    budgets = _scan_budgets(args, hill_steps=args.hill_steps)
    pd = cones.find_pd_functional(g, bound=args.budget, cap=args.cap,
                                  hill_steps=args.hill_steps)
    iso = cones.find_isotropic_odd(g)
    status = "OK" if pd.status == cones.POINTED_CERTIFIED or \
        iso.status == cones.ISOTROPIC_FOUND else "UNDETERMINED"
    results = {"pd_search": pd.as_json(), "isotropic_search": iso.as_json()}
    return _report("cone-check", inputs, status, results, budgets)


def cmd_star_reduced(args) -> dict:
    g, inputs = _load_algebra(args)
    budgets = _scan_budgets(args, hill_steps=args.hill_steps)
    rep = cones.star_reduced_report(g, bound=args.budget, cap=args.cap,
                                    hill_steps=args.hill_steps)
    status = {"OBSTRUCTED": "OBSTRUCTED", "CONE_OK": "OK",
              "UNDETERMINED": "UNDETERMINED"}[rep.status]
    results = rep.as_json()
    return _report("star-reduced", inputs, status, results, budgets)


def cmd_polarize(args) -> dict:
    g, inputs = _load_algebra(args)
    lam = _parse_functional(g, args.lam)
    inputs["lambda"] = [str(x) for x in lam]
    try:
        ps = orb.polarizing_flag(g, lam)
    except orb.NotAdmissible as exc:
        return _report("polarize", inputs, "UNDETERMINED",
                       {"not_admissible": str(exc)})
    return _report("polarize", inputs, "OK", ps.as_json())


def _load_box(g: LieSuperalgebra, args) -> list:
    spec = args.box
    low, high = args.low, args.high
    if spec == "central":
        return orb.central_box(g, low, high)
    if spec == "grid":
        return orb.grid_box(g, low, high)
    doc = read_json(spec, "box")
    if isinstance(doc, dict) and doc.get("type") in ("grid", "central"):
        lo, hi = json_entry(doc, "low", int, low), json_entry(doc, "high", int, high)
        return orb.grid_box(g, lo, hi) if doc["type"] == "grid" \
            else orb.central_box(g, lo, hi)
    if isinstance(doc, dict) and "functionals" in doc:
        rows = json_entry(doc, "functionals", list)
        if not all(isinstance(row, list) for row in rows):
            raise InputError("'functionals' must be an array of coordinate arrays")
        return [tuple(parse_scalar(str(x), g.field) for x in row) for row in rows]
    raise InputError("box file must give type grid/central or functionals")


def cmd_orbit_classify(args) -> dict:
    g, inputs = _load_algebra(args)
    box = _load_box(g, args)
    inputs["box"] = {"spec": args.box, "low": args.low, "high": args.high,
                     "size": len(box)}
    descriptors = orb.classify_orbits(g, box)
    results = {
        "orbit_count": len(descriptors),
        "admissible_count": sum(len(o.members) for o in descriptors),
        "orbits": [o.as_json() for o in descriptors],
    }
    return _report("orbit-classify", inputs, "OK", results)


def cmd_clifford(args) -> dict:
    inputs: dict = {}
    if args.catalog or args.algebra:
        g, inputs = _load_algebra(args)
        gam = parse_scalar(args.gamma or "1", g.field)
        inputs["gamma"] = str(gam)
        res = cr.classify_heisenberg_clifford(g, gam)
        results = {
            "classification": res.status,
            "module_count": len(res.modules),
            "modules": [m.as_json() for m in res.modules],
            "stone_von_neumann": res.stone_von_neumann,
            "details": res.details,
            "verification": [cr.verify_rep(m)["all_ok"] for m in res.modules],
        }
        return _report("clifford", inputs, "OK", results)
    if args.d is None:
        raise InputError("need --d N --normalization ... or --catalog KEY")
    norms = [parse_scalar(p, QQ).as_fraction()
             for p in (args.normalization or "").split(",") if p]
    if len(norms) != args.d:
        raise InputError("normalization list must have d entries")
    inputs = {"d": args.d, "normalization": [str(n) for n in norms]}
    rep = cr.clifford_module(args.d, norms)
    results = {"module": rep.as_json(), "verification": cr.verify_rep(rep)["all_ok"],
               "dimension": rep.dim}
    return _report("clifford", inputs, "OK", results)


def rep_to_json_full(rep: cr.MatrixRep) -> dict:
    doc = rep.as_json()
    doc["algebra"] = rep.algebra.to_json()
    return doc


def rep_from_json(doc) -> cr.MatrixRep:
    """Inverse of rep_to_json_full; any other shape raises InputError."""
    g = LieSuperalgebra.from_json(json_entry(doc, "algebra", dict))
    fld = Field.parse(json_entry(doc, "field", str))
    mats = []
    for M in json_entry(doc, "operators", list):
        if not (isinstance(M, list) and all(
                isinstance(row, list) and all(isinstance(x, str) for x in row) for row in M)):
            raise InputError("each operator must be an array of rows of scalar strings")
        mats.append(Matrix(fld, [[parse_scalar(x, fld) for x in row] for row in M]))
    return cr.MatrixRep(g, json_entry(doc, "even_dim", int), json_entry(doc, "odd_dim", int),
                        tuple(mats), label=json_entry(doc, "label", str, ""))


def cmd_verify_rep(args) -> dict:
    rep = rep_from_json(read_json(args.rep, "representation"))
    _require_axioms(rep.algebra)
    samples = []
    if args.adjoint_sample:
        for part in args.adjoint_sample.split(";"):
            coords = tuple(parse_scalar(x, rep.algebra.field)
                           for x in part.split(",") if x.strip())
            if len(coords) != rep.algebra.dim:
                raise InputError("adjoint sample needs full coordinate vectors")
            samples.append(coords)
    report = cr.verify_rep(rep, adjoint_sample=samples)
    return _report("verify-rep", {"rep_file": args.rep}, "OK", report)


def cmd_hwm(args) -> dict:
    g, inputs = _load_algebra(args)
    budgets = _scan_budgets(args, depth=args.depth)
    found = _root_datum("hwm", g, inputs, args, budgets)
    if isinstance(found, dict):
        return found
    h0, datum = found
    fld = g.field
    x0_parts = [p for p in args.x0.split(",") if p.strip()]
    if len(x0_parts) != h0.dim:
        raise InputError(f"--x0 needs {h0.dim} coordinates over the Cartan basis")
    x0 = tuple(parse_scalar(p, fld) for p in x0_parts)
    positives = hw.positive_system(datum, x0)
    vfield = positives[0].values[0].field if positives else fld.complexified()
    if args.weight:
        wparts = [p for p in args.weight.split(",") if p.strip()]
        if len(wparts) != h0.dim:
            raise InputError(f"--weight needs {h0.dim} coordinates")
        lam = tuple(parse_scalar(p, vfield) for p in wparts)
    else:
        lam = tuple(vfield.zero for _ in range(h0.dim))
    module = hw.CartanModule(args.dim_v, lam)
    tm = hw.build_truncated(datum, positives, module, args.depth)
    inputs["x0"] = [str(x) for x in x0]
    inputs["weight"] = [str(x) for x in lam]
    inputs["dim_v"] = args.dim_v
    return _report("hwm", inputs, "OK", tm.as_json(), budgets)


def cmd_catalog(args) -> dict:
    if args.action == "list":
        results = {"keys": cat.list_keys(), "table1_keys": cat.table1_keys()}
        return _report("catalog", {"action": "list"}, "OK", results)
    if args.action == "get":
        if not args.key:
            raise InputError("catalog get needs a key")
        entry = cat.build(args.key)
        results = {"algebra": entry.algebra.to_json(),
                   "props": {k: (list(v) if isinstance(v, tuple) else v)
                             for k, v in sorted(entry.props.items())}}
        return _report("catalog", {"action": "get", "key": args.key}, "OK", results)
    if args.action == "table1":
        if not args.key:
            raise InputError("catalog table1 needs a key")
        meta = cat.table1_metadata(args.key)
        return _report("catalog", {"action": "table1", "key": args.key}, "OK", meta)
    raise InputError(f"unknown catalog action {args.action!r}")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _add_algebra_args(p, scan: bool = False):
    p.add_argument("--algebra", help="algebra JSON file")
    p.add_argument("--catalog", help="catalog key, e.g. 'hc(2|2,++)'")
    p.add_argument("--out", help="also write the report to this file")
    if scan:
        p.add_argument("--budget", type=int, default=3, help="integer scan bound")
        p.add_argument("--cap", type=int, default=2000, help="scan candidate cap")


class _Parser(argparse.ArgumentParser):
    """A malformed command line is malformed input: main reports it as ERROR
    with exit 1 instead of argparse's usage message and exit 2."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="liecones",
        description="Exact structural tests and orbit-method computations "
                    "for finite-dimensional real Lie superalgebras.")
    ap.add_argument("--schema", action="store_true",
                    help="print the report JSON schema and exit")
    sub = ap.add_subparsers(dest="command")

    for name, fn in (("validate", cmd_validate), ("analyze", cmd_analyze)):
        p = sub.add_parser(name)
        _add_algebra_args(p)
        p.set_defaults(func=fn)

    for name, fn in (("cartan", cmd_cartan), ("roots", cmd_roots)):
        p = sub.add_parser(name)
        _add_algebra_args(p, scan=True)
        p.set_defaults(func=fn)

    for name, fn in (("cone-check", cmd_cone_check), ("star-reduced", cmd_star_reduced)):
        p = sub.add_parser(name)
        _add_algebra_args(p, scan=True)
        p.add_argument("--hill-steps", type=int, default=200)
        p.set_defaults(func=fn)

    p = sub.add_parser("polarize")
    _add_algebra_args(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated even-dual coordinates, e.g. '0,0,1'")
    p.set_defaults(func=cmd_polarize)

    p = sub.add_parser("orbit-classify")
    _add_algebra_args(p)
    p.add_argument("--box", default="central", help="'central' | 'grid' | box JSON file")
    p.add_argument("--low", type=int, default=-2)
    p.add_argument("--high", type=int, default=2)
    p.set_defaults(func=cmd_orbit_classify)

    p = sub.add_parser("clifford")
    _add_algebra_args(p)
    p.add_argument("--d", type=int, help="odd dimension for a bare spin module")
    p.add_argument("--normalization", help="comma-separated positive rationals")
    p.add_argument("--gamma", help="central character value (with --catalog)")
    p.set_defaults(func=cmd_clifford)

    p = sub.add_parser("verify-rep")
    p.add_argument("--rep", required=True, help="representation JSON file")
    p.add_argument("--adjoint-sample",
                   help="semicolon-separated coordinate vectors for the group axiom")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_rep)

    p = sub.add_parser("hwm")
    _add_algebra_args(p, scan=True)
    p.add_argument("--x0", required=True,
                   help="regular element in Cartan-basis coordinates, e.g. '1'")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--weight", help="highest weight coordinates (default 0)")
    p.add_argument("--dim-v", type=int, default=1)
    p.set_defaults(func=cmd_hwm)

    p = sub.add_parser("catalog")
    p.add_argument("action", choices=["list", "get", "table1"])
    p.add_argument("key", nargs="?")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = ap.parse_args(argv)
    except InputError as exc:
        _emit(_report(argv[0] if argv else "", {}, "ERROR", {"error": str(exc)}), None)
        return 1
    if args.schema:
        sys.stdout.write(json.dumps(REPORT_SCHEMA, sort_keys=True, indent=2) + "\n")
        return 0
    if not getattr(args, "command", None):
        ap.print_help()
        return 1
    try:
        report = args.func(args)
    except InputError as exc:
        _emit(_report(args.command, {}, "ERROR", {"error": str(exc)}),
              getattr(args, "out", None))
        return 1
    except InvariantViolation as exc:
        _emit(_report(args.command, {}, "ERROR",
                      {"error": f"internal invariant violation: {exc}"}),
              getattr(args, "out", None))
        return 2
    except Exception as exc:   # pragma: no cover - defensive
        _emit(_report(args.command, {}, "ERROR",
                      {"error": f"internal error: {type(exc).__name__}: {exc}"}),
              getattr(args, "out", None))
        return 2
    _emit(report, getattr(args, "out", None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
