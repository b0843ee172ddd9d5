"""Differential tests: each shortcut in the orbit classification, the Clifford
verifier, the zero-skipping kernels and the sparse tower product against a
plain dense or pairwise formula written here, or against the standalone call
it stands in for."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecones import cliffrep
from liecones.catalog import build
from liecones.cliffrep import MatrixRep, clifford_module, gamma_matrices, parity_change, verify_rep
from liecones.cones import functional_value
from liecones.exactnum import QQ, QQ_I, Field, FieldMismatchError, InputError, Scalar
from liecones.glinalg import (Matrix, Subspace, lin_comb, ungraded, vec_add, vec_scale,
                              vec_sub)
from liecones.lsa import LieSuperalgebra, grassmann_extend
from liecones.orbits import (_apply_exp, classify_orbits, coadjoint_orbit_member,
                             in_admissible_cone, polarizing_flag, polarizing_system_from_m0)

TOWERS = (QQ, QQ_I, Field(False, 2), Field(True, 2))
small = st.integers(min_value=-3, max_value=3)


# ---------------------------------------------------------------------------
# orbit classification against a pairwise union-find
# ---------------------------------------------------------------------------

def pairwise_partition(g, box) -> set[frozenset[int]]:
    """Orbits of the admissible box members, one membership test per pair."""
    admissible = [i for i, lam in enumerate(box) if in_admissible_cone(g, lam)[0]]
    parent = {i: i for i in admissible}

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for pos, a in enumerate(admissible):
        for b in admissible[pos + 1:]:
            if coadjoint_orbit_member(g, box[a], box[b]) is not None:
                parent[find(b)] = find(a)
    orbits: dict[int, set[int]] = {}
    for i in admissible:
        orbits.setdefault(find(i), set()).add(i)
    return {frozenset(o) for o in orbits.values()}


ORBIT_ALGEBRAS = {key: build(key).algebra for key in ("h(1)", "hc(2|2,++)", "hc(2|2,+-)",
                                                       "n3super")}
ORBIT_ALGEBRAS["h(1) x Lambda(1)"] = grassmann_extend(ORBIT_ALGEBRAS["h(1)"], 1)
H1 = ORBIT_ALGEBRAS["h(1)"]


@st.composite
def boxes(draw, even_dim: int):
    """Integer functionals, some of them repeated."""
    point = st.tuples(*(st.integers(min_value=-2, max_value=2) for _ in range(even_dim)))
    box = draw(st.lists(point, min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(box), max_size=4))
    order = draw(st.permutations(box + repeats))
    return [tuple(QQ.rat(c) for c in lam) for lam in order]


@pytest.mark.parametrize("key", sorted(ORBIT_ALGEBRAS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_classify_orbits_matches_pairwise_union(key, data):
    g = ORBIT_ALGEBRAS[key]
    box = data.draw(boxes(g.space.even_dim))
    orbits = classify_orbits(g, box)
    assert {frozenset(o.members) for o in orbits} == pairwise_partition(g, box)
    for o in orbits:
        assert o.members == sorted(o.members)
        assert o.representative == box[o.members[0]]
    assert [o.members[0] for o in orbits] == sorted(o.members[0] for o in orbits)


@pytest.mark.parametrize("key", sorted(ORBIT_ALGEBRAS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_classified_polarizations_match_standalone_ones(key, data):
    """Each orbit is polarized from the Omega_lambda and Gram matrix of the
    invariants pass; the standalone entry points recompute both."""
    g = ORBIT_ALGEBRAS[key]
    for o in classify_orbits(g, data.draw(boxes(g.space.even_dim))):
        ps = o.polarizing
        assert ps.as_json() == polarizing_flag(g, o.representative).as_json()
        assert ps.as_json() == polarizing_system_from_m0(
            g, o.representative, ps.m0, ps.flag_dims).as_json()


@pytest.mark.parametrize("key", sorted(ORBIT_ALGEBRAS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_shared_first_stages_match_fresh_member_tests(key, data):
    g = ORBIT_ALGEBRAS[key]
    box = data.draw(boxes(g.space.even_dim))
    first_stages: dict = {}          # shared by every representative, as in a group
    for lam in box[:3]:
        for lam2 in box:
            shared = coadjoint_orbit_member(g, lam, lam2, first_stages)
            fresh = coadjoint_orbit_member(g, lam, lam2)
            assert (shared and shared.as_json()) == (fresh and fresh.as_json())


# filiform even parts of class 3 and 4: exp(ad w) has up to four terms
N4 = LieSuperalgebra.from_table("n4", QQ, ["E1", "E2", "E3", "E4"], [],
                                {("E1", "E2"): {"E3": 1}, ("E1", "E3"): {"E4": 1}})
N5 = LieSuperalgebra.from_table("n5", QQ, ["E1", "E2", "E3", "E4", "E5"], [],
                                {("E1", "E2"): {"E3": 1}, ("E1", "E3"): {"E4": 1},
                                 ("E1", "E4"): {"E5": 1}})
EXP_ALGEBRAS = dict(ORBIT_ALGEBRAS, n4=N4, n5=N5)


@pytest.mark.parametrize("key", sorted(EXP_ALGEBRAS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_row_series_exponential_matches_dense_exponential(key, data):
    g = EXP_ALGEBRAS[key]
    e = g.space.even_dim
    lam = tuple(QQ.rat(c) for c in data.draw(st.lists(small, min_size=e, max_size=e)))
    w = tuple(QQ.rat(c) for c in data.draw(st.lists(small, min_size=e, max_size=e)))
    E = g.even_part.algebra.ad(w).exp_nilpotent()
    assert _apply_exp(g, lam, w) == tuple(
        sum((a * b for a, b in zip(lam, E.col(j))), QQ.zero) for j in range(e))


# ---------------------------------------------------------------------------
# verify_rep against the dense axiom checks
# ---------------------------------------------------------------------------

def dense_product(A: Matrix, B: Matrix) -> list[list]:
    n = A.nrows
    return [[sum((A.rows[i][k] * B.rows[k][j] for k in range(1, n)), A.rows[i][0] * B.rows[0][j])
             for j in range(n)] for i in range(n)]


def dense_rho(rep: MatrixRep, v) -> list[list]:
    """sum_k v[k] * M_k over every coefficient and entry."""
    fld, n = rep.field, rep.dim
    acc = [[fld.zero] * n for _ in range(n)]
    for c, M in zip(v, rep.mats):
        c = c.promote(fld)
        acc = [[acc[i][j] + c * M.rows[i][j] for j in range(n)] for i in range(n)]
    return acc


def dense_failures(rep: MatrixRep) -> list[dict]:
    """The failure list of the axiom checks without group samples, in the
    order verify_rep reports them."""
    g, fld, n = rep.algebra, rep.field, rep.dim
    mats = rep.mats
    out = []
    for k in range(g.dim):
        for i in range(n):
            for j in range(n):
                if ((i < rep.even_dim) == (j < rep.even_dim)) == bool(g.parity(k)) \
                        and mats[k].rows[i][j]:
                    out.append({"axiom": "grading", "basis": k})
                    break
            else:
                continue
            break
    minus_i = -fld.i

    def bracket_check(a, b, sign, scale, axiom):
        ab, ba = dense_product(mats[a], mats[b]), dense_product(mats[b], mats[a])
        lhs = [[x + sign * y for x, y in zip(r, s)] for r, s in zip(ab, ba)]
        rhs = [[scale * x for x in r] for r in dense_rho(rep, g.bracket_basis(a, b))]
        if lhs != rhs:
            out.append({"axiom": axiom, "pair": [a, b]})

    for a in g.space.odd_indices():
        for b in g.space.odd_indices():
            bracket_check(a, b, fld.one, minus_i, "anticommutator")
    for a in g.space.even_indices():
        for b in range(g.dim):
            bracket_check(a, b, -fld.one, fld.one, "even_commutator")
    for a in range(g.dim):
        adj = [[mats[a].rows[j][i].conjugate_i() for j in range(n)] for i in range(n)]
        if g.parity(a):
            if [list(r) for r in mats[a].rows] != adj:
                out.append({"axiom": "hermitian_odd", "basis": a})
    for a in g.space.even_indices():
        adj = [[-mats[a].rows[j][i].conjugate_i() for j in range(n)] for i in range(n)]
        if [list(r) for r in mats[a].rows] != adj:
            out.append({"axiom": "skew_even", "basis": a})
    return out


@st.composite
def perturbed_modules(draw):
    """A spin module over Q(i) or Q(i, sqrt c), with at most one entry changed."""
    d = draw(st.integers(min_value=1, max_value=4))
    c = draw(st.sampled_from((2, 3)))
    norms = draw(st.lists(st.sampled_from((2, 8, 2 * c, 8 * c)), min_size=d, max_size=d))
    rep = clifford_module(d, norms)
    fld = rep.field
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=d))
        i = draw(st.integers(min_value=0, max_value=rep.dim - 1))
        j = draw(st.integers(min_value=0, max_value=rep.dim - 1))
        delta = draw(st.sampled_from([fld.one, fld.i, -fld.one]
                                     + ([fld.sqrt] if fld.d else [])))
        rows = [list(r) for r in rep.mats[k].rows]
        rows[i][j] = rows[i][j] + delta
        mats = list(rep.mats)
        mats[k] = Matrix(fld, rows)
        rep = MatrixRep(rep.algebra, rep.even_dim, rep.odd_dim, tuple(mats))
    return rep


@settings(max_examples=40, deadline=None)
@given(perturbed_modules())
def test_verify_rep_matches_dense_checks(rep):
    report = verify_rep(rep)
    assert report["failures"] == dense_failures(rep)
    assert report["all_ok"] == (not report["failures"])


# ---------------------------------------------------------------------------
# zero-skipping kernels against dense formulas, over every tower shape
# ---------------------------------------------------------------------------

@st.composite
def tower_vectors(draw, fld: Field, n: int):
    """Vectors over fld, about half their entries zero."""
    out = []
    for _ in range(n):
        if draw(st.booleans()):
            out.append(fld.zero)
        else:
            a, b, c, e = (draw(small) for _ in range(4))
            out.append(fld.new(a, b if fld.has_i else 0, c if fld.d else 0,
                               e if fld.has_i and fld.d else 0))
    return tuple(out)


@pytest.mark.parametrize("fld", TOWERS, ids=lambda f: f.tag)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernels_match_dense_formulas(fld, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    lam = data.draw(tower_vectors(fld, n))
    v = data.draw(tower_vectors(fld, n))
    s = data.draw(tower_vectors(fld, 1))[0]
    dense_sum = fld.zero
    for a, b in zip(lam, v):
        dense_sum = dense_sum + a * b
    assert functional_value(lam, v) == dense_sum
    assert vec_scale(s, v) == tuple(s * x for x in v)
    assert vec_add(lam, v) == tuple(a + b for a, b in zip(lam, v))
    assert vec_sub(lam, v) == tuple(a - b for a, b in zip(lam, v))
    assert Matrix(fld, [lam, v]) - Matrix(fld, [v, lam]) == Matrix(
        fld, [[a - b for a, b in zip(lam, v)], [b - a for a, b in zip(lam, v)]])
    assert lin_comb(fld, n, (s, s * s), (lam, v)) == tuple(
        s * a + s * s * b for a, b in zip(lam, v))
    assert Matrix(fld, [v, lam]).scale(s) == Matrix(fld, [[s * x for x in v], [s * x for x in lam]])
    entries = [data.draw(tower_vectors(fld, 4)) for _ in range(3)]
    rep = MatrixRep(H1, 1, 1, tuple(Matrix(fld, [e[:2], e[2:]]) for e in entries))
    coeffs = data.draw(tower_vectors(fld, 3))
    assert rep.rho(coeffs).rows == tuple(tuple(r) for r in dense_rho(rep, coeffs))
    S = Subspace(fld, ungraded(4), [data.draw(tower_vectors(fld, 4)) for _ in range(3)])
    u = data.draw(tower_vectors(fld, 4))
    dense = u
    for row, pc in zip(S.rows, S.pivots):
        if dense[pc]:
            dense = tuple(x - dense[pc] * y for x, y in zip(dense, row))
    assert S.reduce(u) == dense
    M = Matrix(fld, [data.draw(tower_vectors(fld, 3)) for _ in range(3)])
    b = data.draw(tower_vectors(fld, 3))
    assert M.solver()(b) == M.solve(b)
    assert M.solver()(M.apply(b)) == M.solve(M.apply(b))


def test_kernels_keep_field_checks_on_zeros():
    assert functional_value((), ()) is None
    assert vec_add((QQ_I.zero, QQ_I.i), (QQ_I.zero, QQ_I.zero)) == (QQ_I.zero, QQ_I.i)
    zero = functional_value((QQ_I.zero, QQ_I.one), (QQ_I.one, QQ_I.zero))
    assert zero == QQ_I.zero and zero.field is QQ_I
    assert all(x.field is QQ_I for x in vec_scale(QQ_I.zero, (QQ_I.one, QQ_I.zero)))
    for lam, v in (((QQ.zero,), (QQ_I.one,)), ((QQ.one,), (QQ_I.zero,)),
                   ((QQ.zero, QQ.one), (QQ_I.zero, QQ.one))):
        with pytest.raises(FieldMismatchError):
            functional_value(lam, v)
    for s, v in ((QQ.zero, (QQ_I.one,)), (QQ.one, (QQ_I.zero,)), (QQ.zero, (QQ_I.zero,))):
        with pytest.raises(FieldMismatchError):
            vec_scale(s, v)
        with pytest.raises(FieldMismatchError):
            vec_add((s,), v)
        with pytest.raises(FieldMismatchError):
            vec_sub((s,), v)
        with pytest.raises(FieldMismatchError):
            Matrix(QQ, [[s]]) - Matrix(QQ_I, [v])
    assert all(x.field is QQ_I for x in vec_sub((QQ_I.zero, QQ_I.i), (QQ_I.zero, QQ_I.zero)))
    with pytest.raises(FieldMismatchError):
        Matrix(QQ, [[0, 1]]).scale(QQ_I.zero)
    # reduce skips zero row entries but still checks every entry of v
    S = Subspace(QQ_I, ungraded(3), [(QQ_I.one, QQ_I.zero, QQ_I.zero)])
    assert S.reduce((QQ.zero, QQ.one, QQ.zero)) == (QQ.zero, QQ.one, QQ.zero)
    with pytest.raises(FieldMismatchError):
        S.reduce((QQ_I.one, QQ.zero, QQ_I.zero))
    # rho passes over zero entries, so a module must hold one tower throughout
    mats = (Matrix(QQ_I, [[0, 0], [0, 0]]), Matrix(QQ, [[0, 1], [1, 0]]), Matrix(QQ_I, [[0, 0], [0, 0]]))
    with pytest.raises(InputError, match="one scalar tower"):
        MatrixRep(H1, 1, 1, mats)


# ---------------------------------------------------------------------------
# the sparse tower product against the 16-term formula
# ---------------------------------------------------------------------------

nonzero_fractions = st.builds(Fraction, st.integers(min_value=-40, max_value=40).filter(bool),
                              st.integers(min_value=1, max_value=12))


@st.composite
def sparse_scalars(draw, fld: Field):
    """Scalars of fld with a drawn set of nonzero coordinates: zero, monomials,
    binomials and so on up to every coordinate the tower has."""
    slots = [k for k in range(4) if (fld.has_i or not k & 1) and (fld.d or not k & 2)]
    coords = [0] * 4
    for k in draw(st.sets(st.sampled_from(slots))):
        coords[k] = draw(nonzero_fractions)
    return fld.new(*coords)


def sixteen_term_product(x: Scalar, y: Scalar) -> Scalar:
    """(a1 + b1 i + c1 s + e1 is)(a2 + b2 i + c2 s + e2 is) with s^2 = d and
    i^2 = -1, every coordinate pair multiplied."""
    d = Fraction(x.field.d or 0)
    a1, b1, c1, e1 = x.a, x.b, x.c, x.e
    a2, b2, c2, e2 = y.a, y.b, y.c, y.e
    return x.field.new(a1 * a2 - b1 * b2 + d * (c1 * c2 - e1 * e2),
                       a1 * b2 + b1 * a2 + d * (c1 * e2 + e1 * c2),
                       a1 * c2 + c1 * a2 - b1 * e2 - e1 * b2,
                       a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2)


@pytest.mark.parametrize("fld", TOWERS + (Field(True, 6),), ids=lambda f: f.tag)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tower_product_matches_sixteen_term_formula(fld, data):
    x, y = data.draw(sparse_scalars(fld)), data.draw(sparse_scalars(fld))
    xy = x * y
    assert xy == sixteen_term_product(x, y)
    assert all(type(c) is Fraction for c in (xy.a, xy.b, xy.c, xy.e))
    assert y * x == xy and x * fld.zero == fld.zero
    if x:
        assert x * x.inverse() == fld.one


# ---------------------------------------------------------------------------
# index-permuted gamma matrices against conjugation by a permutation matrix
# ---------------------------------------------------------------------------

def permutation_conjugate(M: Matrix, order: list[int]) -> Matrix:
    """P M P^T for the permutation matrix P with P[i][order[i]] = 1."""
    fld, n = M.field, len(order)
    P = Matrix(fld, [[fld.one if order[i] == j else fld.zero for j in range(n)]
                     for i in range(n)])
    return P * M * P.transpose()


@pytest.mark.parametrize("d", range(1, 7))
def test_permuted_gammas_match_permutation_conjugation(d, monkeypatch):
    gammas, half = gamma_matrices(d)
    monkeypatch.setattr(cliffrep, "_permuted", lambda M, order: M)
    tensor_order, _ = gamma_matrices(d)
    order = sorted(range(2 * half), key=lambda idx: (bin(idx).count("1") % 2, idx))
    assert gammas == [permutation_conjugate(G, order) for G in tensor_order]
    monkeypatch.undo()
    rep = clifford_module(d, (2, 4, 8, 16, 2, 4)[:d])
    swapped = parity_change(rep)
    order = list(range(rep.even_dim, rep.dim)) + list(range(rep.even_dim))
    assert (swapped.even_dim, swapped.odd_dim) == (rep.odd_dim, rep.even_dim)
    assert swapped.mats == tuple(permutation_conjugate(M, order) for M in rep.mats)
