"""Batch command-line front end with stable JSON reports.

Each command fills the report's inputs and budgets and returns (status,
results); main alone turns what a command raises into a report, by the
library's three error classes (liecones.exactnum).  0 = computed, whatever
the mathematical verdict: a search or splitting step that raises
Undetermined, or a functional that raises NotAdmissible, gives status
UNDETERMINED with the inputs kept.  1 = the input or the command line was
malformed, or outside a function's domain (InputError), or the --out file
could not be written: status ERROR with no verdict.  2 = a re-check of
computed data failed (InvariantViolation) or another exception escaped:
status ERROR.  ERROR reports carry empty inputs and budgets.  Reports are
deterministic for fixed inputs and budgets and carry machine-checkable
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


def _report_text(command: str, status: str, results: dict, inputs: dict,
                 budgets: dict) -> str:
    return json.dumps({
        "version": SCHEMA_VERSION,
        "tool": f"liecones {__version__}",
        "command": command,
        "status": status,
        "inputs": inputs,
        "results": results,
        "budgets": budgets,
    }, sort_keys=True, indent=2) + "\n"


def _load_algebra(args, inputs: dict, check: bool = True) -> LieSuperalgebra:
    """The algebra named by --catalog or --algebra, recorded in inputs.

    A file algebra that fails check_axioms is an input error (exit 1, no
    verdict) unless check is False; catalog entries are tested by the suite.
    """
    if getattr(args, "catalog", None):
        inputs["catalog"] = args.catalog
        return cat.build(args.catalog).algebra
    if getattr(args, "algebra", None):
        g = LieSuperalgebra.load(args.algebra)
        if check:
            _require_axioms(g)
        inputs.update(algebra_file=args.algebra, name=g.name)
        return g
    raise InputError("need --algebra FILE or --catalog KEY")


def _require_axioms(g: LieSuperalgebra) -> None:
    """InputError listing the violations when g fails check_axioms."""
    rep = check_axioms(g)
    if not rep.all_ok:
        raise InputError("algebra file violates the axioms: "
                         + json.dumps([list(v) for v in rep.violations]))


def _scan_budgets(args, budgets: dict, **extra) -> None:
    """Record the scan budgets; a negative --budget or --cap is an input error."""
    if args.budget < 0 or args.cap < 0:
        raise InputError("--budget and --cap must be >= 0")
    budgets.update(scan_bound=args.budget, scan_cap=args.cap, **extra)


def _coords(text: str, fld: Field, n: int, message: str) -> tuple:
    """The comma-separated scalars of text; InputError(message) unless there
    are n of them ({got} in message is replaced by the count found)."""
    vals = tuple(parse_scalar(p, fld) for p in text.split(",") if p.strip())
    if len(vals) != n:
        raise InputError(message.format(got=len(vals)))
    return vals


def _subspace_json(s) -> dict:
    return {"dim": s.dim, "basis": [[str(x) for x in r] for r in s.rows]}


# ---------------------------------------------------------------------------
# subcommand implementations: each fills the report's inputs and budgets and
# returns (status, results); main maps whatever they raise
# ---------------------------------------------------------------------------

def cmd_validate(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    g = _load_algebra(args, inputs, check=False)
    rep = check_axioms(g)
    return "OK", {
        "dims": {"even": g.space.even_dim, "odd": g.space.odd_dim},
        "parity_ok": rep.parity_ok,
        "antisymmetry_ok": rep.antisymmetry_ok,
        "jacobi_ok": rep.jacobi_ok,
        "violations": [list(v) for v in rep.violations],
    }


def cmd_analyze(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    g = _load_algebra(args, inputs)
    cen = centroid(g)
    der = derivations(g)
    return "OK", {
        "dims": {"even": g.space.even_dim, "odd": g.space.odd_dim},
        "center_dim": center(g).dim,
        "nilpotent": is_nilpotent(g),
        "solvable": is_solvable(g),
        "lower_central_dims": [s.dim for s in series(g, "lower_central")],
        "derived_dims": [s.dim for s in series(g, "derived")],
        "centroid_dim": {"even": len(cen.even), "odd": len(cen.odd)},
        "derivations_dim": {"even": len(der.even), "odd": len(der.odd)},
    }


def cmd_cartan(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    g = _load_algebra(args, inputs)
    _scan_budgets(args, budgets)
    h0 = car.cartan_subalgebra_even(g, bound=args.budget, cap=args.cap)
    cd = car.cartan_subsuperalgebra(g, h0)
    return "OK", {
        "h0": _subspace_json(cd.h0),
        "h": _subspace_json(cd.h),
        "compactly_embedded": cd.compactly_embedded,
    }


def _root_datum(g: LieSuperalgebra, args):
    """(h0, root datum) from the scanned compact Cartan subalgebra h0, or None
    when the scan finds none."""
    h0 = car.compact_cartan_even(g, bound=args.budget, cap=args.cap)
    if h0 is None:
        return None
    return h0, car.root_decomposition(g, car.cartan_subsuperalgebra(g, h0))


def cmd_roots(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    g = _load_algebra(args, inputs)
    _scan_budgets(args, budgets)
    found = _root_datum(g, args)
    if found is None:
        return "UNDETERMINED", {"note": "no compactly embedded Cartan found in scan"}
    h0, datum = found
    roots = [{"alpha": [str(v) for v in r.values],
              "even_dim": r.even_space.dim,
              "odd_dim": r.odd_space.dim} for r in datum.roots]
    return "OK", {
        "h0": _subspace_json(h0),
        "roots": roots,
        # root_decomposition raises unless the roots are closed under negation
        "symmetric": True,
    }


def cmd_cone_check(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    g = _load_algebra(args, inputs)
    _scan_budgets(args, budgets, hill_steps=args.hill_steps)
    pd = cones.find_pd_functional(g, bound=args.budget, cap=args.cap,
                                  hill_steps=args.hill_steps)
    iso = cones.find_isotropic_odd(g)
    status = "OK" if pd.status == cones.POINTED_CERTIFIED or \
        iso.status == cones.ISOTROPIC_FOUND else "UNDETERMINED"
    return status, {"pd_search": pd.as_json(), "isotropic_search": iso.as_json()}


def cmd_star_reduced(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    g = _load_algebra(args, inputs)
    _scan_budgets(args, budgets, hill_steps=args.hill_steps)
    rep = cones.star_reduced_report(g, bound=args.budget, cap=args.cap,
                                    hill_steps=args.hill_steps)
    status = {"OBSTRUCTED": "OBSTRUCTED", "CONE_OK": "OK",
              "UNDETERMINED": "UNDETERMINED"}[rep.status]
    return status, rep.as_json()


def cmd_polarize(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    g = _load_algebra(args, inputs)
    lam = _coords(args.lam, g.field, g.space.even_dim,
                  f"functional needs {g.space.even_dim} coordinates, got {{got}}")
    inputs["lambda"] = [str(x) for x in lam]
    return "OK", orb.polarizing_flag(g, lam).as_json()


def _load_box(g: LieSuperalgebra, args) -> list:
    boxes = {"grid": orb.grid_box, "central": orb.central_box}
    if args.box in boxes:
        return boxes[args.box](g, args.low, args.high)
    doc = read_json(args.box, "box")
    if isinstance(doc, dict) and isinstance(doc.get("type"), str) and doc["type"] in boxes:
        return boxes[doc["type"]](g, json_entry(doc, "low", int, args.low),
                                  json_entry(doc, "high", int, args.high))
    if isinstance(doc, dict) and "functionals" in doc:
        rows = json_entry(doc, "functionals", list)
        if not all(isinstance(row, list) for row in rows):
            raise InputError("'functionals' must be an array of coordinate arrays")
        return [tuple(parse_scalar(str(x), g.field) for x in row) for row in rows]
    raise InputError("box file must give type grid/central or functionals")


def cmd_orbit_classify(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    g = _load_algebra(args, inputs)
    box = _load_box(g, args)
    inputs["box"] = {"spec": args.box, "low": args.low, "high": args.high,
                     "size": len(box)}
    descriptors = orb.classify_orbits(g, box)
    return "OK", {
        "orbit_count": len(descriptors),
        "admissible_count": sum(len(o.members) for o in descriptors),
        "orbits": [o.as_json() for o in descriptors],
    }


def cmd_clifford(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    if args.catalog or args.algebra:
        g = _load_algebra(args, inputs)
        gam = parse_scalar(args.gamma or "1", g.field)
        inputs["gamma"] = str(gam)
        res = cr.classify_heisenberg_clifford(g, gam)
        return "OK", {
            "classification": res.status,
            "module_count": len(res.modules),
            "modules": [m.as_json() for m in res.modules],
            "stone_von_neumann": res.stone_von_neumann,
            "details": res.details,
            "verification": [cr.verify_rep(m)["all_ok"] for m in res.modules],
        }
    if args.d is None:
        raise InputError("need --d N --normalization ... or --catalog KEY")
    norms = [parse_scalar(p, QQ).as_fraction()
             for p in (args.normalization or "").split(",") if p]
    if len(norms) != args.d:
        raise InputError("normalization list must have d entries")
    inputs.update(d=args.d, normalization=[str(n) for n in norms])
    rep = cr.clifford_module(args.d, norms)
    return "OK", {"module": rep.as_json(), "verification": cr.verify_rep(rep)["all_ok"],
                  "dimension": rep.dim}


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


def cmd_verify_rep(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    inputs["rep_file"] = args.rep
    rep = rep_from_json(read_json(args.rep, "representation"))
    g = rep.algebra
    _require_axioms(g)
    samples = [_coords(part, g.field, g.dim, "adjoint sample needs full coordinate vectors")
               for part in args.adjoint_sample.split(";")] if args.adjoint_sample else []
    return "OK", cr.verify_rep(rep, adjoint_sample=samples)


def cmd_hwm(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    g = _load_algebra(args, inputs)
    _scan_budgets(args, budgets, depth=args.depth)
    found = _root_datum(g, args)
    if found is None:
        return "UNDETERMINED", {"note": "no compactly embedded Cartan found in scan"}
    h0, datum = found
    x0 = _coords(args.x0, g.field, h0.dim,
                 f"--x0 needs {h0.dim} coordinates over the Cartan basis")
    positives = hw.positive_system(datum, x0)
    vfield = positives[0].values[0].field if positives else g.field.complexified()
    lam = _coords(args.weight, vfield, h0.dim, f"--weight needs {h0.dim} coordinates") \
        if args.weight else tuple(vfield.zero for _ in range(h0.dim))
    tm = hw.build_truncated(datum, positives, hw.CartanModule(args.dim_v, lam), args.depth)
    inputs.update(x0=[str(x) for x in x0], weight=[str(x) for x in lam], dim_v=args.dim_v)
    return "OK", tm.as_json()


def cmd_catalog(args, inputs: dict, budgets: dict) -> tuple[str, dict]:
    inputs["action"] = args.action
    if args.action == "list":
        return "OK", {"keys": cat.list_keys(), "table1_keys": cat.table1_keys()}
    if not args.key:
        raise InputError(f"catalog {args.action} needs a key")
    inputs["key"] = args.key
    if args.action == "table1":
        return "OK", cat.table1_metadata(args.key)
    entry = cat.build(args.key)
    return "OK", {"algebra": entry.algebra.to_json(),
                  "props": {k: (list(v) if isinstance(v, tuple) else v)
                            for k, v in sorted(entry.props.items())}}


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
    command, out = (argv[0] if argv else ""), None
    inputs: dict = {}
    budgets: dict = {}
    try:
        args = ap.parse_args(argv)
        if args.schema:
            sys.stdout.write(json.dumps(REPORT_SCHEMA, sort_keys=True, indent=2) + "\n")
            return 0
        if not args.command:
            ap.print_help()
            return 1
        command, out = args.command, getattr(args, "out", None)
        status, results = args.func(args, inputs, budgets)
        code = 0
    except orb.NotAdmissible as exc:
        code, status, results = 0, "UNDETERMINED", {"not_admissible": str(exc)}
    except Undetermined as exc:
        code, status, results = 0, "UNDETERMINED", {"error": str(exc)}
    except InputError as exc:
        code, status, results = 1, "ERROR", {"error": str(exc)}
    except InvariantViolation as exc:
        code, status, results = 2, "ERROR", {"error": f"internal invariant violation: {exc}"}
    except Exception as exc:   # pragma: no cover - defensive
        code, status, results = 2, "ERROR", {
            "error": f"internal error: {type(exc).__name__}: {exc}"}
    if code:
        inputs, budgets = {}, {}
    text = _report_text(command, status, results, inputs, budgets)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            code, text = 1, _report_text(command, "ERROR",
                                         {"error": f"cannot write report file: {exc}"}, {}, {})
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
