"""Differential tests: each shortcut in the orbit classification, the Clifford
verifier and the zero-skipping kernels against a plain dense or pairwise
formula written here."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecones.catalog import build
from liecones.cliffrep import MatrixRep, clifford_module, verify_rep
from liecones.cones import functional_value
from liecones.exactnum import QQ, QQ_I, Field, FieldMismatchError, InputError
from liecones.glinalg import Matrix, lin_comb, vec_add, vec_scale
from liecones.lsa import grassmann_extend
from liecones.orbits import classify_orbits, coadjoint_orbit_member, in_admissible_cone

TOWERS = (QQ, QQ_I, Field(False, 2), Field(True, 2))


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

small = st.integers(min_value=-3, max_value=3)


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
    assert lin_comb(fld, n, (s, s * s), (lam, v)) == tuple(
        s * a + s * s * b for a, b in zip(lam, v))
    assert Matrix(fld, [v, lam]).scale(s) == Matrix(fld, [[s * x for x in v], [s * x for x in lam]])
    entries = [data.draw(tower_vectors(fld, 4)) for _ in range(3)]
    rep = MatrixRep(H1, 1, 1, tuple(Matrix(fld, [e[:2], e[2:]]) for e in entries))
    coeffs = data.draw(tower_vectors(fld, 3))
    assert rep.rho(coeffs).rows == tuple(tuple(r) for r in dense_rho(rep, coeffs))


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
        Matrix(QQ, [[0, 1]]).scale(QQ_I.zero)
    # rho passes over zero entries, so a module must hold one tower throughout
    mats = (Matrix(QQ_I, [[0, 0], [0, 0]]), Matrix(QQ, [[0, 1], [1, 0]]), Matrix(QQ_I, [[0, 0], [0, 0]]))
    with pytest.raises(InputError, match="one scalar tower"):
        MatrixRep(H1, 1, 1, mats)
