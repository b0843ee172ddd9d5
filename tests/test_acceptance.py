"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from liecones.exactnum import QQ, QQ_I
from liecones import catalog as cat
from liecones.cartan import (cartan_subalgebra_even, cartan_subsuperalgebra,
                             compact_cartan_even, fixed_point_projection,
                             normalizer, root_decomposition)
from liecones.cliffrep import (classify_heisenberg_clifford, clifford_module,
                               equivalent, parity_change, verify_rep)
from liecones.cones import convex_hull_contains_zero, nilpotent_vanishing_ideal
from liecones.hwm import CartanModule, build_truncated, positive_system, weight_in_cone
from liecones.lsa import (centroid, check_axioms, derivations, grassmann_extend,
                          is_nilpotent, nilpotency_class, quotient, series,
                          subalgebra_on)
from liecones.glinalg import vec_add, vec_is_zero, vec_scale
from liecones.orbits import (branching_multiplicity, classify_orbits, grid_box,
                             polarizing_flag)


def _ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}", flush=True)


AXIOM_KEYS = [
    "h(1)", "cl(1|1,+)", "cl(1|1,-)", "cl(1|2,++)", "cl(1|2,+-)",
    "cl(1|3,+++)", "cl(1|3,++-)", "cl(1|4,++++)", "cl(1|4,+++-)",
    "hc(2|2,++)", "hc(2|2,+-)", "su(1,1|1,1)", "sq(1,1)", "osp(1,1|2)",
    "osp(1|2)", "gl(1|1)", "sl(2,R)", "su(2)", "n3super", "abelian(2|1)",
]


def test_criterion_1_axiom_suite(corpus):
    """Every catalog algebra passes graded antisymmetry + Jacobi, < 10 s."""
    assert len(AXIOM_KEYS) >= 10
    t0 = time.time()
    for key in AXIOM_KEYS:
        rep = check_axioms(corpus[key].algebra)
        assert rep.all_ok, (key, rep.violations[:3])
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"
    _ok(1, f"{len(AXIOM_KEYS)} catalog algebras pass axioms in {elapsed:.2f}s")


def test_criterion_2_cartan_bijection(corpus):
    """N_g(h0) nilpotent, self-normalizing, even part exactly h0."""
    checked = 0
    for key in AXIOM_KEYS:
        g = corpus[key].algebra
        if g.space.even_dim == 0:
            continue
        h0 = cartan_subalgebra_even(g)
        cd = cartan_subsuperalgebra(g, h0)      # verifies nilpotent+self-normalizing
        assert cd.h.intersect(g.even_subspace) == h0, key
        assert normalizer(g, cd.h) == cd.h, key
        sub = subalgebra_on(g, cd.h)
        assert series(sub.algebra, "lower_central")[-1].dim == 0, key
        checked += 1
    assert checked >= 10
    _ok(2, f"Cartan bijection verified on {checked} catalog algebras")


def test_criterion_3_root_symmetry(corpus):
    """Where a compactly embedded Cartan exists: spaces sum to dim, Delta = -Delta,
    g0 = t0 (+) [t0, g0] -- exact subspace identities."""
    required = {"su(2)", "su(1,1|1,1)", "osp(1|2)"}
    seen = set()
    for key in AXIOM_KEYS:
        g = corpus[key].algebra
        if g.space.even_dim == 0:
            continue
        h0 = compact_cartan_even(g)
        if h0 is None:
            continue
        cd = cartan_subsuperalgebra(g, h0)
        if cd.compactly_embedded is not True:
            continue
        datum = root_decomposition(g, cd)       # verifier asserts all identities
        total = sum(r.even_space.dim + r.odd_space.dim for r in datum.roots)
        assert total == g.dim, key
        vals = {tuple(str(v) for v in r.values) for r in datum.roots}
        for r in datum.roots:
            assert tuple(str(v) for v in r.negated()) in vals, key
        from liecones.lsa import bracket_span
        comm = bracket_span(g, cd.h0, g.even_subspace)
        assert cd.h0.sum_with(comm) == g.even_subspace, key
        assert cd.h0.intersect(comm).dim == 0, key
        seen.add(key)
    assert required <= seen, f"missing {required - seen}"
    _ok(3, f"root decompositions verified on {sorted(seen)}")


def test_criterion_4_su1111_reproduction(corpus):
    """Four H_{a,b} match the paper case formulas; LP finds weights 1/4; < 1 s."""
    t0 = time.time()
    entry = corpus["su(1,1|1,1)"]
    hs = []
    for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        rv = cat.root_vectors_su(entry, 1, 1, 1, 1, a, b)   # verifies entry-for-entry
        hs.append(tuple(x.demote(QQ) for x in rv.H_coords))
    combo = convex_hull_contains_zero(hs)
    assert combo == (Fraction(1, 4),) * 4
    acc = tuple(QQ.zero for _ in hs[0])
    for c, h in zip(combo, hs):
        acc = vec_add(acc, vec_scale(QQ.rat(c), h))
    assert vec_is_zero(acc)
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(4, f"H_(a,b) case formulas + zero hull with weights 1/4 in {elapsed:.2f}s")


def test_criterion_5_sq11_projected_cone(corpus):
    """sq(1,1): Z1, Z2, Z3 lie in the projected odd-square cone, exact witnesses."""
    entry = corpus["sq(1,1)"]
    g = entry.algebra
    h0 = compact_cartan_even(g)
    assert h0 is not None
    P = fixed_point_projection(g, h0)
    e = g.space.even_dim
    i = QQ_I.i
    z = QQ_I.zero
    Z1 = cat.cm([[i, z, z, z], [z, z, z, z], [z, z, i, z], [z, z, z, z]])
    Z2 = cat.cm([[z, z, z, z], [z, i, z, z], [z, z, z, z], [z, z, z, i]])
    z1 = entry.coords_of(Z1, fld=QQ)[:e]
    z2 = entry.coords_of(Z2, fld=QQ)[:e]
    z3 = tuple(-(a + b) for a, b in zip(z1, z2))
    witnesses = {}
    for k in g.space.odd_indices():
        v = g.basis_vector(k)
        pv = P.apply(g.bracket(v, v)[:e])
        for label, target in (("Z1", z1), ("Z2", z2), ("Z3", z3)):
            for mult in (1, 2, 4):
                if pv == vec_scale(QQ.rat(mult), target):
                    witnesses.setdefault(label, (k, mult))
    assert set(witnesses) == {"Z1", "Z2", "Z3"}, witnesses
    # non-pointedness: Z1 + Z2 = -Z3 gives a line through the projected cone
    assert convex_hull_contains_zero([z1, z2, vec_scale(QQ.rat(2), z3)]) is not None
    _ok(5, f"Z1,Z2,Z3 hit by odd squares {sorted(witnesses.items())}")


def test_criterion_6_thm72_reproduction(corpus):
    """NONE exactly for indefinite forms; dims 2^(d - floor(d/2)); parity pairs."""
    for d in range(1, 5):
        plus = "+" * d
        indef = "+" * (d - 1) + "-" if d > 1 else "-"
        g_def = corpus[f"cl(1|{d},{plus})"].algebra
        res = classify_heisenberg_clifford(g_def, 1)
        assert res.status == "OK"
        expect_dim = 2 ** (d - d // 2)
        for m in res.modules:
            assert m.dim == expect_dim
            assert verify_rep(m)["all_ok"]
        if d % 2 == 0:
            assert len(res.modules) == 2
            m1, m2 = res.modules
            assert not equivalent(m1, m2, allow_parity=False)
            assert equivalent(m1, m2, allow_parity=True)
        else:
            assert len(res.modules) == 1
        if d > 1:
            g_ind = corpus[f"cl(1|{d},{indef})"].algebra
            assert classify_heisenberg_clifford(g_ind, 1).status == "NONE"
        else:
            assert classify_heisenberg_clifford(corpus["cl(1|1,-)"].algebra, 1).status == "NONE"
    _ok(6, "Thm 7.2: NONE iff indefinite; dims 2^(d-floor(d/2)); parity pairs exact")


def test_criterion_7_orbit_method(corpus):
    """h(1) and hc(2|2,++) on 5x5x5 boxes: Kirillov picture, polarization dims,
    branching multiplicity 2; < 30 s."""
    t0 = time.time()
    h1 = corpus["h(1)"].algebra
    orbits = classify_orbits(h1, grid_box(h1, -2, 2))
    big = [o for o in orbits if len(o.members) == 25]
    small = [o for o in orbits if len(o.members) == 1]
    assert len(big) == 4 and len(small) == 25
    assert {o.central_character[0] for o in big} == {"-2", "-1", "1", "2"}
    for o in orbits:
        ps = o.polarizing
        assert ps.m0.dim == h1.space.even_dim - ps.even_rank // 2

    hc = corpus["hc(2|2,++)"].algebra
    orbits = classify_orbits(hc, grid_box(hc, -2, 2))
    big = [o for o in orbits if len(o.members) == 25]
    assert len(big) == 2
    assert {o.central_character[0] for o in big} == {"1", "2"}
    for o in orbits:
        ps = o.polarizing
        assert ps.m0.dim == hc.space.even_dim - ps.even_rank // 2
    for o in big:
        assert branching_multiplicity(o.polarizing) == 2
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _ok(7, f"orbit partitions match the Kirillov picture in {elapsed:.1f}s")


def test_criterion_8_thm67_vanishing(corpus):
    """Three-step example: nonzero vanishing ideal, quotient is two-step."""
    g = corpus["n3super"].algebra
    assert nilpotency_class(g) == 3
    vi = nilpotent_vanishing_ideal(g)
    assert vi.dim == 1
    q = quotient(g, vi)
    assert nilpotency_class(q.algebra) == 2
    assert nilpotent_vanishing_ideal(q.algebra).dim == 0
    _ok(8, "vanishing ideal nonzero; quotient is two-step")


def test_criterion_9_derivation_formula(corpus):
    """dim Der(sl(2,R) x Lambda(n)) matches 2^n dim Der + n 2^n dim C for n=1,2."""
    sl2 = corpus["sl(2,R)"].algebra
    dd = derivations(sl2).dim
    dc = centroid(sl2).dim
    assert (dd, dc) == (3, 1)
    for n, expect in ((1, 8), (2, 20)):
        ext = grassmann_extend(sl2, n)
        got = derivations(ext).dim            # direct linear solve
        rhs = 2 ** n * dd + n * 2 ** n * dc   # formula right-hand side
        assert got == rhs == expect
    _ok(9, "dim Der(sl2 x Lambda(1)) = 8 and (sl2, n=2) = 20, by direct solve")


def test_criterion_10_hwm_shell(corpus):
    """osp(1|2): Delta+ = {alpha, 2 alpha}; depth-4 table is {lambda - m alpha}
    with PBW multiplicities; cone membership for every weight."""
    g = corpus["osp(1|2)"].algebra
    h0 = compact_cartan_even(g)
    cd = cartan_subsuperalgebra(g, h0)
    datum = root_decomposition(g, cd)
    pos = positive_system(datum, (1,))
    vals = sorted(str(r.values[0]) for r in pos)
    assert vals == ["1", "2"]                  # alpha and 2 alpha
    fld = pos[0].values[0].field
    lam = fld.rat(0)
    tm = build_truncated(datum, pos, CartanModule(1, (lam,)), 4)
    got = {str(w[0]): m for w, m in tm.weights.items()}
    assert got == {str(-m): 1 for m in range(9)}
    for w in tm.weights:
        assert weight_in_cone(tm, w)
    _ok(10, "depth-4 osp(1|2) shell: weights lambda - m alpha, m = 0..8, mult 1")


ACCEPTANCE_CLI_RUNS = [
    ["validate", "--catalog", "su(1,1|1,1)"],
    ["star-reduced", "--catalog", "sq(1,1)", "--cap", "400"],
    ["orbit-classify", "--catalog", "hc(2|2,++)", "--box", "central"],
    ["clifford", "--catalog", "cl(1|3,+++)", "--gamma", "1"],
    ["hwm", "--catalog", "osp(1|2)", "--x0", "1", "--depth", "4"],
    ["catalog", "list"],
]


def test_criterion_11_cli_determinism():
    """Every CLI acceptance run repeated twice is byte-identical."""
    for cmd in ACCEPTANCE_CLI_RUNS:
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "liecones.cli"] + cmd,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (cmd, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], cmd
        json.loads(outs[0])
    _ok(11, f"{len(ACCEPTANCE_CLI_RUNS)} CLI invocations byte-identical on repeat")
