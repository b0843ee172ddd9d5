"""perfbench/tracing.py wraps liecones names from outside; each must resolve."""
import importlib
import importlib.util
import sys
from pathlib import Path

import liecones.cli  # noqa: F401  (the tracer wraps cli.main when it is loaded)
from liecones import catalog

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def resolve(mod, attr):
    owner = importlib.import_module(f"liecones.{mod}")
    if "." in attr:
        cls, meth = attr.split(".")
        return vars(getattr(owner, cls))[meth]
    return getattr(owner, attr)


def test_tracer_wraps_and_restores_every_name():
    names = [(mod, attr) for table in (tracing.SPANS, tracing.COUNTERS)
             for mod, attrs in table.values() for attr in attrs]
    names += [("exactnum", "Scalar.__mul__"), ("cartan", "candidate_vectors")]
    before = {n: resolve(*n) for n in names}
    originals = {id(v) for v in before.values()}
    aliases = {(name, k): v for name, m in sys.modules.items() if name.startswith("liecones.")
               for k, v in vars(m).items() if id(v) in originals}
    lsa = sys.modules["liecones.lsa"]
    g = catalog.build("h(1)").algebra
    tr = tracing.Tracer()
    tr.install()
    try:
        for n in names:
            assert resolve(*n) is not before[n], n
        assert lsa.is_nilpotent(g)
        assert tr.counts["lsa.is_nilpotent.calls"] == 1
        assert tr.counts["lsa.series.calls"] == 1
    finally:
        tr.uninstall()
    for n in names:
        assert resolve(*n) is before[n], n
    for (name, k), v in aliases.items():
        assert vars(sys.modules[name])[k] is v, (name, k)
