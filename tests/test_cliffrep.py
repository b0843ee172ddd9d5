from fractions import Fraction

import pytest

from liecones import cliffrep
from liecones.exactnum import QQ, QQ_I, Field, InputError, Scalar, Undetermined
from liecones.glinalg import Matrix
from liecones.catalog import build
from liecones.lsa import LieSuperalgebra
from liecones.cliffrep import (
    MatrixRep, _contains_invertible, classify_heisenberg_clifford, clifford_module,
    equivalent, gamma_matrices, heisenberg_clifford_shape, parity_change,
    verify_rep,
)


def test_gamma_matrices_relations():
    for d in range(1, 6):
        gammas, half = gamma_matrices(d)
        n = 2 * half
        assert n == 2 ** (d - d // 2)
        I2 = Matrix.identity(QQ_I, n).scale(QQ_I.rat(2))
        Z = Matrix.zero(QQ_I, n, n)
        for a in range(d):
            assert gammas[a] == gammas[a].conj_transpose()
            for b in range(d):
                anti = gammas[a] * gammas[b] + gammas[b] * gammas[a]
                assert anti == (I2 if a == b else Z)


def test_gamma_matrices_graded():
    for d in (1, 2, 3, 4):
        gammas, half = gamma_matrices(d)
        rep_dims = (half, half)
        for G in gammas:
            for i in range(2 * half):
                for j in range(2 * half):
                    if (i < half) == (j < half):
                        assert not G.rows[i][j]       # off-diagonal blocks only


def test_clifford_module_example_d1():
    rep = clifford_module(1, [2])
    assert (rep.even_dim, rep.odd_dim) == (1, 1)
    assert rep.mats[1] == Matrix(QQ_I, [[0, 1], [1, 0]])
    # gamma^2 = (1/2) lambda([f,f]) Id = 1 * Id
    assert rep.mats[1] * rep.mats[1] == Matrix.identity(QQ_I, 2)
    assert verify_rep(rep)["all_ok"]


def test_clifford_module_dimensions():
    for d, dim in ((1, 2), (2, 2), (3, 4), (4, 4)):
        rep = clifford_module(d, [2] * d)
        assert rep.dim == dim == 2 ** (d - d // 2)
        assert verify_rep(rep)["all_ok"]


def test_clifford_module_single_sqrt_tower():
    rep = clifford_module(2, [1, 1])
    assert rep.field is Field(True, 2)
    assert verify_rep(rep)["all_ok"]
    with pytest.raises(InputError):
        clifford_module(2, [4, 6])       # sqrt(2) and sqrt(3): two towers
    with pytest.raises(InputError):
        clifford_module(1, [-2])


def test_verify_rep_catches_tampering():
    rep = clifford_module(2, [2, 2])
    bad_mats = list(rep.mats)
    bad_mats[1] = bad_mats[1].scale(QQ_I.rat(2))
    bad = MatrixRep(rep.algebra, rep.even_dim, rep.odd_dim, tuple(bad_mats))
    report = verify_rep(bad)
    assert not report["all_ok"]
    assert any(f["axiom"] == "anticommutator" and f["pair"] == [1, 1]
               for f in report["failures"])


def test_trivial_rep_passes_iff_brackets_vanish(algebra):
    ab = build("abelian(2|1)").algebra
    z = Matrix.zero(QQ_I, 1, 1)
    rep = MatrixRep(ab, 1, 0, tuple(z for _ in range(ab.dim)))
    assert verify_rep(rep)["all_ok"]
    cl = build("cl(1|1,+)").algebra
    # forced bracket [f,f] = Z nonzero: all-zero operators fail only if the
    # anticommutator axiom needs rho(Z) != 0 -- with rho = 0 both sides vanish,
    # so the trivial rep passes (lambda = 0 case)
    z2 = Matrix.zero(QQ_I, 1, 1)
    rep = MatrixRep(cl, 1, 0, tuple(z2 for _ in range(cl.dim)))
    assert verify_rep(rep)["all_ok"]


def test_verify_rep_group_conjugation(algebra):
    hc = algebra("hc(2|2,++)")
    res = classify_heisenberg_clifford(hc, 1)
    rep = res.modules[0]
    # the module is of the Z (+) odd subalgebra; exercise group axiom on Z
    sample = [tuple(QQ.rat(1) if k == 0 else QQ.rat(0) for k in range(rep.algebra.dim))]
    report = verify_rep(rep, adjoint_sample=sample)
    assert report["all_ok"]
    assert report["group_conjugation"][0]["status"] == "OK"


def test_verify_rep_group_conjugation_failure(algebra):
    """rho(Z) replaced by a nilpotent non-scalar N: exp(ad Z) is the identity
    but exp(N) moves rho(f1), so the sample fails once, at its first basis
    vector, next to the grading, bracket and skew failures N brings."""
    rep = classify_heisenberg_clifford(algebra("hc(2|2,++)"), 1).modules[0]
    nilpotent = Matrix(rep.field, [[0, 1], [0, 0]])
    bad = MatrixRep(rep.algebra, rep.even_dim, rep.odd_dim, (nilpotent,) + rep.mats[1:])
    sample = [tuple(QQ.rat(1) if k == 0 else QQ.rat(0) for k in range(rep.algebra.dim))]
    report = verify_rep(bad, adjoint_sample=sample)
    assert report["group_conjugation"] == [{"status": "FAILED"}]
    assert [f for f in report["failures"] if f["axiom"] == "group_conjugation"] == \
        [{"axiom": "group_conjugation", "basis": 1}]
    assert report["skew_even_ok"] is False and report["hermitian_odd_ok"] is True
    assert report["all_ok"] is False


def test_verify_rep_odd_sample_is_skipped():
    """ad(f1) is nilpotent but rho(f1) squares to the identity, so exp(rho(f1))
    has no exact series: the sample is skipped and records no failure."""
    rep = clifford_module(1, [2])
    report = verify_rep(rep, adjoint_sample=[(QQ.zero, QQ.one)])
    assert report["group_conjugation"] == [
        {"status": "SKIPPED", "why": "rho not exactly exponentiable"}]
    assert report["failures"] == [] and report["all_ok"] is True


def test_verify_rep_prop61(algebra):
    # sum of squares zero forces zero operators: supply a genuine zero-sum tuple
    cl = build("cl(1|2,+-)").algebra
    res_tuple = [
        tuple(QQ.zero if k != 1 else QQ.one for k in range(cl.dim)),
        tuple(QQ.zero if k != 2 else QQ.one for k in range(cl.dim)),
    ]
    # [f1,f1] + [f2,f2] = Z - Z = 0; the zero rep satisfies the consequence
    z = Matrix.zero(QQ_I, 1, 1)
    rep = MatrixRep(cl, 1, 0, tuple(z for _ in range(cl.dim)))
    report = verify_rep(rep, odd_tuples=[res_tuple])
    assert report["prop61_ok"]
    # a rep violating it is flagged
    one = Matrix(QQ_I, [[1]])
    mats = [z, one, one]
    bad = MatrixRep(cl, 1, 0, tuple(mats))
    report = verify_rep(bad, odd_tuples=[res_tuple])
    assert not report["prop61_ok"]


def test_parity_change_involutive():
    rep = clifford_module(3, [2, 2, 2])
    pc = parity_change(rep)
    assert (pc.even_dim, pc.odd_dim) == (rep.odd_dim, rep.even_dim)
    back = parity_change(pc)
    assert back.mats == rep.mats


def test_equivalence_parity_pairs():
    rep = clifford_module(2, [2, 2])
    pc = parity_change(rep)
    assert not equivalent(rep, pc, allow_parity=False)
    assert equivalent(rep, pc, allow_parity=True)
    assert equivalent(rep, rep)
    rep3 = clifford_module(3, [2, 2, 2])
    assert equivalent(rep3, parity_change(rep3), allow_parity=True)


def test_pencil_grid_finds_an_invertible_combination(monkeypatch):
    """diag(1, 0) and diag(0, 1) are singular and their sum is not: the grid
    finds it, and a budget below the grid point (1, 1) raises Undetermined."""
    mats = [Matrix(QQ, [[1, 0], [0, 0]]), Matrix(QQ, [[0, 0], [0, 1]])]
    assert _contains_invertible(mats) is True
    monkeypatch.setattr(cliffrep, "PENCIL_BUDGET", 3)
    with pytest.raises(Undetermined):
        _contains_invertible(mats)


def test_equivalence_is_equivalence_relation():
    reps = [clifford_module(2, [2, 2]), clifford_module(2, [4, 4])]
    # reflexive
    for r in reps:
        assert equivalent(r, r)
    # symmetric on the definite pair (scaled forms give equivalent graded reps
    # only when the Gram matrices match; here they differ, and the algebras
    # differ too, so the test is on same-algebra pairs)
    r = reps[0]
    pc = parity_change(r)
    assert equivalent(r, pc, allow_parity=True) == equivalent(pc, r, allow_parity=True)


def test_hc_shape_check(algebra):
    shape = heisenberg_clifford_shape(algebra("hc(2|2,++)"))
    assert shape.omega_even.rank() == 2
    assert shape.gram_odd == Matrix.identity(QQ, 2)
    with pytest.raises(InputError):
        heisenberg_clifford_shape(algebra("sl(2,R)"))
    with pytest.raises(InputError):
        heisenberg_clifford_shape(algebra("gl(1|1)"))


def test_classify_heisenberg_clifford(algebra):
    res = classify_heisenberg_clifford(algebra("cl(1|2,++)"), 1)
    assert res.status == "OK" and len(res.modules) == 2
    assert all(m.dim == 2 for m in res.modules)
    assert not equivalent(res.modules[0], res.modules[1], allow_parity=False)
    assert equivalent(res.modules[0], res.modules[1], allow_parity=True)

    res = classify_heisenberg_clifford(algebra("cl(1|2,+-)"), 1)
    assert res.status == "NONE"

    res = classify_heisenberg_clifford(algebra("cl(1|3,+++)"), 1)
    assert res.status == "OK" and len(res.modules) == 1
    assert res.modules[0].dim == 4

    # negative character on a negative-definite form is fine
    res = classify_heisenberg_clifford(algebra("cl(1|1,-)"), -1)
    assert res.status == "OK" and len(res.modules) == 1
    res = classify_heisenberg_clifford(algebra("cl(1|1,-)"), 1)
    assert res.status == "NONE"


def test_classification_rejects_zero_pivots(algebra):
    """A zero LDL pivot means no positive definite form: gamma = 0 gives zero
    pivots throughout, and an isotropic f1 stops the LDL at its first pivot."""
    res = classify_heisenberg_clifford(algebra("cl(1|2,++)"), 0)
    assert (res.status, res.details) == ("NONE", {"reason": "odd form not positive definite"})
    tables = ({("f1", "f2"): {"Z": 1}},                                   # [[0, 1], [1, 0]]
              {("f1", "f1"): {"Z": 1}, ("f1", "f2"): {"Z": 1}, ("f2", "f2"): {"Z": 1},
               ("f2", "f3"): {"Z": 1}})                        # pivots 1, then 0 before f3
    for table in tables:
        odd = sorted({name for pair in table for name in pair})
        g = LieSuperalgebra.from_table("isotropic", QQ, ["Z"], odd, table)
        for gamma in (1, -1):
            res = classify_heisenberg_clifford(g, gamma)
            assert (res.status, res.details) == (
                "NONE", {"reason": "odd form not positive definite"})


def test_classify_hc_with_symplectic_part(algebra):
    res = classify_heisenberg_clifford(algebra("hc(2|2,++)"), 1)
    assert res.status == "OK"
    assert res.stone_von_neumann is not None
    assert res.stone_von_neumann["symplectic_dim"] == 2
    for m in res.modules:
        assert verify_rep(m)["all_ok"]


def test_classified_modules_pass_axioms(algebra):
    for key in ("cl(1|1,+)", "cl(1|2,++)", "cl(1|3,+++)", "cl(1|4,++++)"):
        res = classify_heisenberg_clifford(algebra(key), 2)
        assert res.status == "OK"
        for m in res.modules:
            rep = verify_rep(m)
            assert rep["all_ok"], (key, rep["failures"][:2])


def test_equivalence_relation_with_conjugated_copy():
    # reflexive / symmetric / transitive across a conjugated copy and parity
    rep = clifford_module(2, [2, 2])
    U = Matrix(QQ_I, [[1, 0], [0, 2]])            # even invertible
    Uinv = U.inverse()
    conj = MatrixRep(rep.algebra, rep.even_dim, rep.odd_dim,
                     tuple(U * Mt * Uinv for Mt in rep.mats), label="conj")
    pc = parity_change(rep)
    assert equivalent(rep, conj) and equivalent(conj, rep)          # symmetric
    assert equivalent(conj, pc, allow_parity=True)                  # transitivity leg
    assert equivalent(rep, pc, allow_parity=True)
    assert not equivalent(conj, pc, allow_parity=False)


def test_matrix_rep_checks_operator_count_and_shape():
    rep = clifford_module(2, [2, 2])
    with pytest.raises(InputError):
        MatrixRep(rep.algebra, rep.even_dim, rep.odd_dim, rep.mats[:-1])
    with pytest.raises(InputError):
        MatrixRep(rep.algebra, rep.even_dim, rep.odd_dim + 1, rep.mats)


def test_verify_cost_is_per_nonzero_coordinate(monkeypatch):
    """Counts, not timings: verifying the d=6 spin module over Q(i, sqrt 3)
    makes at most two Fraction products per Scalar product (the 16-term
    formula makes eighteen), builds no Matrix, and compares and zero-tests
    only stored entries (dense relation checks make 3,200 comparisons and
    14,059 zero tests)."""
    rep = clifford_module(6, (6, 24, 6, 54, 6, 24))
    counts = {}
    for cls, name in ((Fraction, "__mul__"), (Scalar, "__mul__"), (Scalar, "__eq__"),
                      (Scalar, "__bool__"), (Matrix, "__init__")):
        key = (cls, name)
        counts[key] = 0

        def counted(*args, key=key, orig=getattr(cls, name)):
            counts[key] += 1
            return orig(*args)
        monkeypatch.setattr(cls, name, counted)
    assert verify_rep(rep)["all_ok"]
    products = counts[(Scalar, "__mul__")]
    assert products == 446 and counts[(Fraction, "__mul__")] <= 2 * products
    assert counts[(Matrix, "__init__")] == 0
    assert counts[(Scalar, "__eq__")] <= 150 and counts[(Scalar, "__bool__")] <= 3000
