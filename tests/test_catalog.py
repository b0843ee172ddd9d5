import pytest

from liecones.exactnum import QQ, QQ_I
from liecones.catalog import (
    CatalogError, blocks, build, cm, list_keys, root_vectors_osp,
    root_vectors_su, table1_keys, table1_metadata, unit_mat,
)
from liecones.lsa import center, check_axioms, is_nilpotent, nilpotency_class


EXPECTED_DIMS = {
    "h(1)": (3, 0),
    "cl(1|2,+-)": (1, 2),
    "cl(1|4,++++)": (1, 4),
    "hc(2|2,++)": (3, 2),
    "su(1,1|1,1)": (7, 8),
    "sq(1,1)": (4, 4),
    "osp(1,1|2)": (4, 4),
    "osp(1|2)": (3, 2),
    "gl(1|1)": (2, 2),
    "su(2)": (3, 0),
    "n3super": (2, 3),
}


def test_catalog_dims(corpus):
    for key, dims in EXPECTED_DIMS.items():
        sp = corpus[key].algebra.space
        assert (sp.even_dim, sp.odd_dim) == dims, key


def test_catalog_axioms_and_cache(corpus):
    for key, entry in corpus.items():
        assert check_axioms(entry.algebra).all_ok, key
    assert build("h(1)") is build("h(1)")


def test_unknown_key():
    with pytest.raises(CatalogError):
        build("e8")


def test_nilpotent_entries(corpus):
    for key, entry in corpus.items():
        if entry.props.get("nilpotent"):
            assert is_nilpotent(entry.algebra), key
    assert nilpotency_class(corpus["hc(2|2,++)"].algebra) == 2
    assert nilpotency_class(corpus["n3super"].algebra) == 3


def test_heisenberg_clifford_brackets(corpus):
    hc = corpus["hc(2|2,++)"].algebra
    X, Y, Z = (hc.basis_vector(i) for i in range(3))
    f1, f2 = hc.basis_vector(3), hc.basis_vector(4)
    assert hc.bracket(X, Y) == Z
    assert hc.bracket(f1, f1) == Z
    assert hc.bracket(f1, f2) == tuple(QQ.zero for _ in range(5))
    assert hc.bracket(X, f1) == tuple(QQ.zero for _ in range(5))


def test_su_realization_shapes(corpus):
    e = corpus["su(1,1|1,1)"]
    assert e.block_sizes == (2, 2)
    # realization matrices are fixed points of the defining involution;
    # coords_of inverts matrix_of
    for k in (0, 5, 9):
        v = e.algebra.basis_vector(k)
        M = e.matrix_of(v)
        assert e.coords_of(M) == tuple(x.promote(QQ_I) for x in v)


def test_su2_compact_realization(corpus):
    e = corpus["su(2)"]
    M = cm([[QQ_I.i, 0], [0, -QQ_I.i]])     # diag(i, -i)
    coords = e.coords_of(M)
    assert coords is not None and all(z.is_real() for z in coords)


def test_root_vectors_su_case_formulas(corpus):
    e = corpus["su(1,1|1,1)"]
    seen = {}
    for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        rv = root_vectors_su(e, 1, 1, 1, 1, a, b)
        seen[(a, b)] = rv
        # H = [X, tau X] must be block diagonal i*(+-E_bb (+) +-E_aa)
        A, B, C, D = blocks(rv.H, 2)
        assert B.is_zero() and C.is_zero()
    # signs: (1,1) and (2,2) positive i; mixed negative i
    assert seen[(1, 1)].H.rows[0][0] == QQ_I.i
    assert seen[(1, 2)].H.rows[1][1] == -QQ_I.i
    assert seen[(2, 1)].H.rows[0][0] == -QQ_I.i
    assert seen[(2, 2)].H.rows[1][1] == QQ_I.i
    # the four H's sum to zero (hull witness of the obstruction)
    total = seen[(1, 1)].H + seen[(1, 2)].H + seen[(2, 1)].H + seen[(2, 2)].H
    assert total.is_zero()


def test_root_vectors_su_index_errors(corpus):
    e = corpus["su(1,1|1,1)"]
    with pytest.raises(CatalogError):
        root_vectors_su(e, 1, 1, 1, 1, 3, 1)


def test_root_vectors_osp_middle(corpus):
    e = corpus["osp(1,1|2)"]
    # p = q = 1: both block indices are middle indices; the p-side H matches
    # the printed display exactly, the q-side one is its negative
    two = QQ_I.rat(2)
    rv1 = root_vectors_osp(e, 1, 1, 1, 1, 1, "middle")
    A, B, C, D = blocks(rv1.H, 2)
    assert A.is_zero() and D.rows[0][1] == -two and D.rows[1][0] == two
    rv2 = root_vectors_osp(e, 1, 1, 1, 2, 1, "middle")
    A2, _, _, D2 = blocks(rv2.H, 2)
    assert A2.is_zero() and D2.rows[0][1] == two and D2.rows[1][0] == -two
    # the pair already forces 0 into the convex hull of the H's
    assert (rv1.H + rv2.H).is_zero()
    with pytest.raises(CatalogError):
        root_vectors_osp(e, 1, 1, 1, 1, 1, "plus")


def test_root_vectors_osp_generic():
    # generic-index H: positive multiple of the displayed pattern (the exact
    # bracket gives 4 E_{a,a'} - 4 E_{a',a}, twice the printed coefficient)
    e = build("osp(2,1|2)")
    for variant, sign in (("plus", 1), ("minus", -1)):
        rv = root_vectors_osp(e, 2, 1, 1, 1, 1, variant)
        A, B, C, D = blocks(rv.H, 3)
        four = QQ_I.rat(4 * sign)
        assert A.rows[0][1] == four and A.rows[1][0] == -four
        assert D.rows[0][1] == QQ_I.rat(-4) and D.rows[1][0] == QQ_I.rat(4)
    # q-side middle index
    rv = root_vectors_osp(e, 2, 1, 1, 3, 1, "middle")
    A, B, C, D = blocks(rv.H, 3)
    assert A.is_zero()


def test_table1_metadata():
    assert table1_metadata("su(p,q|r,s)")["even_quotient"] == "su(p,q) ⊕ su(r,s)"
    assert table1_metadata("psq(p,q)")["even_quotient"] == "su(p,q)"
    assert table1_metadata("H(p,q)")["even_quotient"] == "so(p,q)"
    assert "osp(p,q|2n)" in table1_keys()
    with pytest.raises(CatalogError):
        table1_metadata("nope")


def test_su_even_part_contains_expected_center(corpus):
    # su(1,1|1,1) contains the one-dimensional center iI (pre-quotient form)
    e = corpus["su(1,1|1,1)"]
    Z = center(e.algebra)
    assert Z.dim == 1
    M = e.matrix_of(tuple(x.promote(QQ_I) for x in Z.rows[0]))
    # central element is a multiple of i * identity
    N = M.nrows
    diag = M.rows[0][0]
    assert diag and all(M.rows[i][j] == (diag if i == j else QQ_I.zero)
                        for i in range(N) for j in range(N))
    assert diag.is_real() is False


def test_sq_entry_shape(corpus):
    # sq(1,1): all realization matrices have the [[A,B],[B,A]] pattern
    e = corpus["sq(1,1)"]
    for M in e.realization:
        A, B, C, D = blocks(M, 2)
        assert A == D and B == C


def test_osp11_even_part_structure(corpus):
    # even part so(1,1) (+) sp(2,R): 1-dim abelian center factor + 3-dim simple
    from liecones.lsa import center as lsa_center, series, subalgebra_on
    g = corpus["osp(1,1|2)"].algebra
    even = subalgebra_on(g, g.even_subspace).algebra
    assert even.dim == 4
    zc = lsa_center(even)
    assert zc.dim == 1                                  # the so(1,1) factor
    der = series(even, "derived")
    assert der[1].dim == 3 and der[1] == der[-1]        # perfect sp(2,R) part
