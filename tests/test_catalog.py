import hashlib
import json

import pytest

from liecones.exactnum import QQ, QQ_I, InputError
from liecones.catalog import (
    blocks, build, build_osp, build_su, cm, list_keys, root_vectors_osp,
    root_vectors_su, table1_keys, table1_metadata,
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


# sha256 of {"algebra": to_json(), "props": props} (sorted keys) for every
# list_keys() key and seven more real forms: the structure constants and
# props of each entry, pinned byte for byte.
PINNED = {
    "h(1)": "70df83a1fbfc519c709b4dc974976b36dbdf7162d47c64af0784b1f5aa6a1361",
    "cl(1|1,+)": "01c37bdbd4cba7026615492cff824b59a91d9c083366e41b9bbdc84a6921614f",
    "cl(1|1,-)": "3da95fe3f2003520b19f5b0a1e679977ffb9343e2e536eeb7b37beec379bf74b",
    "cl(1|2,++)": "690e8c2cbc03d01821b648d05ccdcb8912657c7731700ff8b234a8b04c5e111d",
    "cl(1|2,+-)": "3d046fe43e1617f66d9ffab5696fc39b05fc735271e03cbe6705bda1cf22b3e8",
    "cl(1|3,+++)": "dc4d62e070aad98cd4086f354d74fd063d77920c831e2a514464438d4d1baf66",
    "cl(1|3,++-)": "dbd79f2902a00592ab74bd3aaa6a3308c75b616f4d30b29c8aa7eca2e8e3ec2c",
    "cl(1|4,++++)": "b3f6128fd2a0ba1122819f835c3eabfeaee93c205091d38c4a38fa82e9d7d0be",
    "cl(1|4,+++-)": "fd7284313e23278efc7dea51318abc1161ffd719bcda025ab6a345efdb6d1684",
    "hc(2|2,++)": "e63e1d2d2c18e6cd99eeb2482c4a8f9192b56a956695214415faba3247ffdbe1",
    "hc(2|2,+-)": "504159016e382dcd99eeec86331442e70c135bdc6bc0440cc1d8fd66fa21cc04",
    "su(1,1|1,1)": "8e499a7abbd1a0ffdc11225c14b0580357237d2df006bf2e44480d3f3b44cc24",
    "sq(1,1)": "a3ca255237495619ff3f483e19e936ca8bc1769017f5bbd52a3735259b1e5476",
    "osp(1,1|2)": "0eabaac7ade7b532e55a50b4a466bf8da9866e219b05b03b5c46e791ac984c73",
    "osp(1|2)": "3b24c3fe8dc4b5be141048bf5a8f8dc1897910c1e069d983cbc74a1ffa3e4c84",
    "gl(1|1)": "c645e007f150769767899dd0c490c59e7a60af543b35543971c9602d9fed4efd",
    "sl(2,R)": "bd6f6a72521f0a8f039c9f66c1a27d263221f8e626b94addaeff84f5851eb478",
    "su(2)": "a14eef2e5caff0626f0a4134e41e27d12092a03f9a4d824805b06866966e7cdb",
    "n3super": "ef193fab3c377d88357e74404294641c20d19414358c71e299612d66fe2c9db7",
    "abelian(2|1)": "09f599660e03d7b41b0190694ae100a7887230638a7d0faf13024e81090a4cde",
    "su(2,0|1,0)": "f1cb8ba37dda4a24087169b39aa5570e9c3f2d1558c64c59c59bb354d99c6ff6",
    "su(1,0|2,0)": "ba21d429cebfffcec1111f18e91991b4438898b1d94cba2252f34256413cd5e7",
    "su(1,1|0,0)": "756241d5710b1a6da8eea2564c2c578f5cb9aa75018248c8904cd13547e26c22",
    "sq(2,0)": "eab569e889a6db3a08adecd65345f041a10f9e07bbbf7593fbdf91253a2593ab",
    "osp(2,0|2)": "a09c3904664f2bcc1f3026edc3edb648f5a72d7625e66cd9253a6eec69d8b980",
    "osp(1,0|4)": "161e60528193da4692bc98809d9d12d51b1d4a9e08aef87ca720c528f17e3c13",
    "sl(2,C)_R": "ed4b00d0bcc738f86dd9268e644faff1bdd6f7b45c603c36c0f5aa2636c0908c",
}


def test_pinned_keys_cover_the_corpus():
    assert set(list_keys()) <= set(PINNED)


@pytest.mark.parametrize("key", list(PINNED))
def test_catalog_bytes_are_pinned(key):
    e = build(key)
    doc = json.dumps({"algebra": e.algebra.to_json(), "props": e.props}, sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == PINNED[key]


def test_named_keys_match_their_builders():
    for key, entry in (("osp(1|2)", build_osp(1, 0, 1)), ("su(2)", build_su(2, 0, 0, 0))):
        assert build(key).algebra.name == entry.algebra.name == key
        assert build(key).algebra.brackets == entry.algebra.brackets
        assert build(key).realization == entry.realization


def test_unknown_key():
    with pytest.raises(InputError):
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


def test_blocks_keep_the_shape_of_empty_blocks():
    shapes = [(B.nrows, B.ncols) for B in blocks(cm([[1, 2], [3, 4]]), 2)]
    assert shapes == [(2, 2), (2, 0), (0, 2), (0, 0)]


def test_su2_compact_realization(corpus):
    e = corpus["su(2)"]
    M = cm([[QQ_I.i, 0], [0, -QQ_I.i]])     # diag(i, -i)
    coords = e.coords_of(M)
    assert coords is not None and all(z.is_real() for z in coords)


def test_coords_of_over_a_real_tower_rejects_non_real_matrices(corpus):
    # i R0 has the coordinates (i, 0, 0): in the complex span only
    e = corpus["su(2)"]
    R0 = e.realization[0]
    iR0 = R0.scale(QQ_I.i)
    assert e.coords_of(iR0) == (QQ_I.i, QQ_I.zero, QQ_I.zero)
    assert e.coords_of(iR0, fld=QQ) is None
    assert e.coords_of(R0, fld=QQ) == (QQ.one, QQ.zero, QQ.zero)


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
    with pytest.raises(InputError):
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
    with pytest.raises(InputError):
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
    with pytest.raises(InputError):
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
