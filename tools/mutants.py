"""Mutant catalogue: each entry breaks one shortcut of the library in a
temporary copy of the repository and names the tests that must then fail.

    python3 tools/mutants.py

For each mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, checks that the named tests pass there, replaces the
entry's old snippet (which must occur exactly once in its file) and runs the
tests again.  The mutant is killed when every one of them fails.  The exit
status is 0 when every mutant is killed and 1 otherwise.  This takes
two pytest runs per mutant (about a minute for the catalogue on two cores) and
is not part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                   # relative to the repository root, under src/
    old: str
    new: str
    tests: tuple[str, ...]      # pytest node ids that must fail on the mutant


VERIFY = "tests/test_differential.py::test_verify_rep_matches_dense_checks"
AXIOMS = "tests/test_cliffrep.py::test_classified_modules_pass_axioms"
CONE = "tests/test_hwm.py::test_weight_in_cone_matches_enumeration"
CLIFFREP = "src/liecones/cliffrep.py"
HWM = "src/liecones/hwm.py"

MUTANTS = (
    Mutant("product drops a term", CLIFFREP,
           "acc[j] = acc[j] + t if j in acc else t",
           "acc[j] = t",
           (VERIFY,)),
    Mutant("zero entries kept in the sparse rows", CLIFFREP,
           "sparse = [M._sparse_rows() for M in rep.mats]",
           "sparse = [[dict(enumerate(r)) for r in M.rows] for M in rep.mats]",
           (VERIFY, AXIOMS)),
    Mutant("cancelled sums kept as zero entries", CLIFFREP,
           "out.append({j: x for j, x in r.items() if x})",
           "out.append(r)",
           (VERIFY, AXIOMS)),
    Mutant("even commutator added instead of subtracted", CLIFFREP,
           "negate=True) != rho(bracket(a, b))",
           "negate=False) != rho(bracket(a, b))",
           (VERIFY, AXIOMS)),
    Mutant("adjoint without conjugation", CLIFFREP,
           "-x.conjugate_i() if negate else x.conjugate_i()",
           "-x.conjugate_i() if negate else x",
           (VERIFY, AXIOMS)),
    Mutant("skew check without its sign", CLIFFREP,
           "-x.conjugate_i() if negate else x.conjugate_i()",
           "x.conjugate_i() if negate else x.conjugate_i()",
           (VERIFY, AXIOMS)),
    Mutant("inverted grading test", CLIFFREP,
           "((i < e) == (j < e)) == odd",
           "((i < e) == (j < e)) != odd",
           (VERIFY, AXIOMS)),
    Mutant("rho drops its coefficients", CLIFFREP,
           "terms = [(c, rows) for c, rows in zip(v, sparse) if c]",
           "terms = [(c, rows) for c, rows in zip(v, sparse) if c][:0]",
           (VERIFY, AXIOMS)),
    Mutant("weight_in_cone accepts a non-integer m", HWM,
           "m.is_rational() and m.a.denominator == 1",
           "m.is_rational()",
           (CONE,)),
    Mutant("weight_in_cone accepts m past the budget", HWM,
           "0 <= m.a <= budget",
           "0 <= m.a",
           (CONE,)),
    Mutant("weight_in_cone accepts a negative m", HWM,
           "0 <= m.a <= budget",
           "m.a <= budget",
           (CONE,)),
)


def failed_tests(root: str, tests: tuple[str, ...]) -> set[str]:
    """Run the tests in root and return the node ids of those that failed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           *tests], cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):       # 2-5: interrupted, usage error, nothing collected
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}


def run(m: Mutant) -> bool:
    """True when every test of the mutant fails on it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, tmp)
        if failed_tests(tmp, m.tests):
            raise RuntimeError(f"{m.name}: the tests fail without the mutation")
        path = os.path.join(tmp, m.path)
        with open(path) as f:
            text = f.read()
        if text.count(m.old) != 1:
            raise RuntimeError(f"{m.name}: the old snippet occurs {text.count(m.old)} times")
        with open(path, "w") as f:
            f.write(text.replace(m.old, m.new))
        failed = failed_tests(tmp, m.tests)
        return all(any(f.startswith(t) for f in failed) for t in m.tests)


def main() -> int:
    survivors = []
    for m in MUTANTS:
        killed = run(m)
        print(f"{'killed  ' if killed else 'SURVIVED'}  {m.name}", flush=True)
        if not killed:
            survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
