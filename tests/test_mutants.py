"""The mutant catalogue (tools/mutants.py) still matches the sources: running it
is opt-in and slow, but a snippet that no longer occurs would leave its mutant
untested without anyone noticing."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "tools", "mutants.py"))
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def read(path: str) -> str:
    with open(os.path.join(ROOT, path)) as f:
        return f.read()


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_snippet_occurs_once_in_src(m):
    assert m.path.startswith("src/") and m.old != m.new
    assert read(m.path).count(m.old) == 1
    for node in m.tests:
        path, name = node.split("::")
        assert f"def {name.split('[')[0]}(" in read(path)

