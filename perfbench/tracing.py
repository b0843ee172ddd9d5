"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps public functions and methods of liecones modules
and rebinds every ``liecones.*`` module attribute that holds the same object
(``from .lsa import series`` copies the name into other modules).  Spans
(name, parent, job, start, end) stay in memory and are written out once at
the end; counters are kept beside them.  Repeated work is detected by
content, never by ``id()``, because ids are reused after garbage collection.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import Counter

# span name -> (module, attribute); "Class.method" attributes are methods.
SPANS = {
    "catalog.build": ("catalog", ["build", "build_su", "build_sq", "build_osp",
                                  "build_heisenberg_clifford", "build_clifford",
                                  "build_heisenberg", "build_sl2R", "build_gl11",
                                  "build_n3super", "build_abelian", "build_su2",
                                  "build_sl2C_real"]),
    "glinalg.rref": ("glinalg", ["Matrix.rref"]),
    "glinalg.solve": ("glinalg", ["Matrix.solve"]),
    "glinalg.charpoly": ("glinalg", ["Matrix.charpoly"]),
    "glinalg.eigensplit": ("glinalg", ["generalized_eigenspaces"]),
    "glinalg.sympy_factor": ("glinalg", ["rational_factors"]),
    "lsa.check_axioms": ("lsa", ["check_axioms"]),
    "lsa.subalgebra_on": ("lsa", ["subalgebra_on"]),
    "lsa.derivations": ("lsa", ["derivations"]),
    "cartan.scan": ("cartan", ["compact_cartan_even", "cartan_subalgebra_even"]),
    "cartan.cartan_subsuperalgebra": ("cartan", ["cartan_subsuperalgebra"]),
    "cartan.roots": ("cartan", ["root_decomposition"]),
    "cones.star_reduced": ("cones", ["star_reduced_report"]),
    "cones.pd_search": ("cones", ["find_pd_functional"]),
    "cones.isotropic": ("cones", ["find_isotropic_odd"]),
    "orbits.classify": ("orbits", ["classify_orbits"]),
    "orbits.member": ("orbits", ["coadjoint_orbit_member"]),
    "orbits.polarize": ("orbits", ["polarizing_flag"]),
    "cliffrep.module": ("cliffrep", ["clifford_module"]),
    "cliffrep.verify": ("cliffrep", ["verify_rep"]),
    "cliffrep.equivalent": ("cliffrep", ["equivalent"]),
    "hwm.shell": ("hwm", ["build_truncated"]),
    "cli.main": ("cli", ["main"]),
}

# counter name -> (module, attribute); counted, not timed.
COUNTERS = {
    "exactnum.add": ("exactnum", ["Scalar.__add__", "Scalar.__sub__"]),
    "exactnum.inverse": ("exactnum", ["Scalar.inverse"]),
    "exactnum.sturm": ("exactnum", ["real_root_signs"]),
    "glinalg.kernel": ("glinalg", ["Matrix.kernel_basis"]),
    "glinalg.det": ("glinalg", ["Matrix.det"]),
    "lsa.bracket": ("lsa", ["LieSuperalgebra.bracket"]),
    "lsa.series": ("lsa", ["series"]),
    "lsa.is_nilpotent": ("lsa", ["is_nilpotent"]),
    "cones.lp": ("cones", ["convex_hull_contains_zero"]),
    "orbits.admissible": ("orbits", ["in_admissible_cone"]),
    "hwm.cone_tests": ("hwm", ["weight_in_cone"]),
}

# Callers of cartan.candidate_vectors whose candidates are counted.
CANDIDATE_CALLERS = {"iter_cartan_even": "cartan.scan.candidates",
                     "find_pd_functional": "cones.pd_search.candidates"}

# Every per-layer metric: name -> unit, as declared in BENCHMARK.json.
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    PER_LAYER = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}


def algebra_key(g) -> tuple:
    """Content of an algebra (field, dimensions, structure constants)."""
    return (g.field.tag, g.space.even_dim, g.space.odd_dim,
            tuple(sorted((p, tuple(sorted(out.items()))) for p, out in g.brackets.items())))


class Tracer:
    """In-memory spans and counters; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent, job, t0, t1, child_time]
        self.stack: list[int] = []
        self.job = None
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.seen: dict[str, set] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.job, time.perf_counter(), 0.0, 0.0])
        self.stack.append(idx)
        self.counts[name + ".calls"] += 1
        return idx

    def close(self, idx: int) -> None:
        t1 = time.perf_counter()
        span = self.spans[idx]
        span[4] = t1
        self.stack.pop()
        dur = t1 - span[3]
        self.self_s[span[0]] += dur - span[5]
        if span[1] >= 0:
            self.spans[span[1]][5] += dur

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def repeat(self, name: str, key) -> None:
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, name, fn, before=None, after=None):
        tr = self

        def wrapper(*args, **kwargs):
            if tr.stack and tr.spans[tr.stack[-1]][0] == name:
                return fn(*args, **kwargs)          # nested call of the same layer
            if before is not None:
                before(*args, **kwargs)
            idx = tr.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if after is not None:
                after(out)
            return out
        return wrapper

    def _count_wrapper(self, name, fn, before=None):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if before is not None:
                before(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        import liecones  # noqa: F401  (loads every submodule)
        mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items()
                if n.startswith("liecones.")}
        counts = self.counts

        def on_rref(M):
            counts["glinalg.rref.cells"] += M.nrows * M.ncols

        def on_solve(M, b, *_):
            if self.inside("catalog.build"):
                counts["catalog.build.solve_calls"] += 1
            self.repeat("glinalg.solve", (M.rows, tuple(b)))

        def on_split(res):
            if not res.ok:
                counts["glinalg.split_failures"] += 1

        def on_series(g, kind, *_):
            self.repeat("lsa.series", (algebra_key(g), kind))

        def on_subalgebra(g, s, *_, **__):
            self.repeat("lsa.subalgebra_on", (algebra_key(g), s.rows))

        def on_nilpotent(g, *_):
            self.repeat("lsa.is_nilpotent", algebra_key(g))

        def on_member(res):
            if res is not None:
                counts["orbits.member.hits"] += 1

        hooks = {"glinalg.rref": (on_rref, None), "glinalg.solve": (on_solve, None),
                 "glinalg.eigensplit": (None, on_split),
                 "lsa.subalgebra_on": (on_subalgebra, None),
                 "orbits.member": (None, on_member)}
        count_hooks = {"lsa.series": on_series, "lsa.is_nilpotent": on_nilpotent}

        for name, (mod, attrs) in SPANS.items():
            if mod not in mods:          # liecones.cli is loaded by CLI processes only
                continue
            for attr in attrs:
                before, after = hooks.get(name, (None, None))
                self._rebind(mods, mods[mod], attr,
                             lambda fn, n=name, b=before, a=after: self._span_wrapper(n, fn, b, a))
        for name, (mod, attrs) in COUNTERS.items():
            for attr in attrs:
                self._rebind(mods, mods[mod], attr,
                             lambda fn, n=name: self._count_wrapper(n, fn, count_hooks.get(n)))

        scalar = mods["exactnum"].Scalar

        def mul(fn):
            def wrapper(x, y):
                counts["exactnum.mul.calls"] += 1
                if type(y) is scalar and not (x.b or x.c or x.e or y.b or y.c or y.e):
                    counts["exactnum.mul.rational"] += 1
                return fn(x, y)
            return wrapper
        self._rebind(mods, mods["exactnum"], "Scalar.__mul__", mul)

        def candidates(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                key = CANDIDATE_CALLERS.get(sys._getframe(1).f_code.co_name)
                return it if key is None else self._counted(it, key)
            return wrapper
        self._rebind(mods, mods["cartan"], "candidate_vectors", candidates)

    def _counted(self, it, key):
        for item in it:
            self.counts[key] += 1
            yield item

    def _rebind(self, mods, module, attr, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(module, attr)
        wrapped = make(orig)
        for m in mods.values():
            for k, v in list(vars(m).items()):
                if v is orig:
                    self._restore.append((m, k, orig))
                    setattr(m, k, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------
    def state(self) -> dict:
        """Counts and self times, mergeable across processes."""
        return {"counts": dict(self.counts), "self_s": dict(self.self_s)}

    def take(self) -> dict:
        """``state()``, then start counting afresh (spans are kept)."""
        st = self.state()
        self.counts.clear()
        self.self_s.clear()
        self.seen.clear()
        return st


def write_spans(path: str, spans: list) -> None:
    """One JSON list [name, parent index, job, start, end] per line, gzipped."""
    with gzip.open(path, "wt") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def merge(states: list[dict], prefix: str = "") -> dict:
    """Sum of several states, restricted to names that start with ``prefix``."""
    counts, self_s = Counter(), Counter()
    for st in states:
        counts.update({k: v for k, v in st["counts"].items() if k.startswith(prefix)})
        self_s.update({k: v for k, v in st["self_s"].items() if k.startswith(prefix)})
    return {"counts": dict(counts), "self_s": dict(self_s)}


def layer_metrics(state: dict, extra: dict) -> dict:
    """Every per-layer metric from merged counts and self times."""
    c, s = Counter(state["counts"]), Counter(state["self_s"])

    def share(num, den):
        return c[num] / c[den] if c[den] else 0.0

    values = dict(extra)
    for name in PER_LAYER:
        if name in values:
            continue
        layer, what = name.rsplit(".", 1)
        if what == "self_s":
            values[name] = s[layer]
        elif what in ("calls", "cells", "candidates", "solve_calls"):
            values[name] = c[name]
    values["exactnum.mul.rational_share"] = share("exactnum.mul.rational", "exactnum.mul.calls")
    values["glinalg.split_failure_share"] = share("glinalg.split_failures",
                                                  "glinalg.eigensplit.calls")
    values["orbits.member.hit_share"] = share("orbits.member.hits", "orbits.member.calls")
    for layer in ("glinalg.solve", "lsa.series", "lsa.subalgebra_on", "lsa.is_nilpotent"):
        values[layer + ".repeat_share"] = share(layer + ".repeats", layer + ".calls")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
