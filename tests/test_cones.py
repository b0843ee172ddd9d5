from fractions import Fraction

import pytest

from liecones.exactnum import QQ, QQ_I, InputError
from liecones.glinalg import Matrix, vec_add, vec_is_zero, vec_scale
from liecones.catalog import cm
from liecones.cartan import cartan_subsuperalgebra, compact_cartan_even, fixed_point_projection, root_decomposition
from liecones.cones import (
    OddSquareForm, abelian_even_ideals_contained_in_center,
    certify_pointed, check_root_space_form, convex_hull_contains_zero,
    find_isotropic_odd, find_pd_functional, hermitian_is_positive_definite,
    is_positive_definite, is_positive_semidefinite, leading_principal_minors,
    nilpotent_vanishing_ideal, odd_square, star_reduced_report,
)
from liecones.lsa import grassmann_extend, nilpotency_class, quotient


def test_odd_square_examples(algebra):
    cl = algebra("cl(1|1,+)")
    f = cl.basis_vector(1)
    assert odd_square(cl, f) == cl.basis_vector(0)          # [f,f] = Z
    mixed = algebra("cl(1|2,+-)")
    v = vec_add(mixed.basis_vector(1), mixed.basis_vector(2))
    assert vec_is_zero(odd_square(mixed, v))                # Z - Z = 0
    h1 = algebra("h(1)")
    with pytest.raises(InputError):
        odd_square(h1, h1.basis_vector(0))                  # not odd


def test_gram_matrix_of_functional(algebra):
    cl = algebra("cl(1|2,++)")
    lam = (QQ.one,)                                         # Z*
    form = OddSquareForm.of(cl, lam)
    assert form.matrix == Matrix.identity(QQ, 2)
    hc = algebra("hc(2|2,++)")
    lam = (QQ.zero, QQ.zero, QQ.one)
    assert OddSquareForm.of(hc, lam).matrix == Matrix.identity(QQ, 2)


def test_pd_psd_primitives():
    S = Matrix(QQ, [[2, 1], [1, 2]])
    assert is_positive_definite(S) and is_positive_semidefinite(S)
    T = Matrix(QQ, [[1, 2], [2, 1]])
    assert not is_positive_definite(T) and not is_positive_semidefinite(T)
    Z = Matrix(QQ, [[0, 0], [0, 0]])
    assert not is_positive_definite(Z) and is_positive_semidefinite(Z)
    # PSD with zero diagonal forces zero off-diagonal
    W = Matrix(QQ, [[0, 1], [1, 0]])
    assert not is_positive_semidefinite(W)
    # rank-1 PSD
    R = Matrix(QQ, [[1, 1], [1, 1]])
    assert is_positive_semidefinite(R) and not is_positive_definite(R)
    minors = leading_principal_minors(S)
    assert [str(m) for m in minors] == ["2", "3"]


def test_hermitian_pd():
    H = Matrix(QQ_I, [[QQ_I.rat(2), QQ_I.i], [-QQ_I.i, QQ_I.rat(2)]])
    assert hermitian_is_positive_definite(H)
    B = Matrix(QQ_I, [[QQ_I.rat(1), QQ_I.rat(2) * QQ_I.i],
                      [-QQ_I.rat(2) * QQ_I.i, QQ_I.rat(1)]])
    assert not hermitian_is_positive_definite(B)
    with pytest.raises(InputError):
        hermitian_is_positive_definite(Matrix(QQ_I, [[QQ_I.i]]))


def test_find_pd_functional_examples(algebra):
    cl = algebra("cl(1|2,++)")
    cert = find_pd_functional(cl)
    assert cert.status == "POINTED_CERTIFIED"
    assert OddSquareForm.of(cl, cert.lam).matrix == Matrix.identity(QQ, 2)

    bad = algebra("cl(1|2,+-)")
    assert find_pd_functional(bad, cap=300).status == "UNDETERMINED"
    assert find_isotropic_odd(bad).status == "ISOTROPIC_FOUND"

    hc = algebra("hc(2|2,++)")
    cert = find_pd_functional(hc)
    assert cert.status == "POINTED_CERTIFIED"


def test_certify_pointed_reverifies(algebra):
    cl = algebra("cl(1|2,+-)")
    with pytest.raises(InputError):
        certify_pointed(cl, (QQ.one,))


def test_find_isotropic_examples(algebra):
    # Grassmann extension: X (x) xi1 is isotropic
    sl2 = algebra("sl(2,R)")
    ext = grassmann_extend(sl2, 1)
    cert = find_isotropic_odd(ext)
    assert cert.status == "ISOTROPIC_FOUND"
    assert vec_is_zero(ext.bracket(cert.isotropic, cert.isotropic))

    cl = algebra("cl(1|2,+-)")
    cert = find_isotropic_odd(cl)
    assert cert.status == "ISOTROPIC_FOUND"

    definite = algebra("cl(1|1,+)")
    assert find_isotropic_odd(definite).status == "UNDETERMINED"


def test_isotropic_quadratic_slice():
    # [f1,f1] = 4Z, [f2,f2] = -1Z: f1 + 2 f2 is isotropic, found on the slice
    from liecones.lsa import LieSuperalgebra
    g = LieSuperalgebra.from_table(
        "slice", QQ, ["Z"], ["f1", "f2"],
        {("f1", "f1"): {"Z": 4}, ("f2", "f2"): {"Z": -1}})
    cert = find_isotropic_odd(g)
    assert cert.status == "ISOTROPIC_FOUND"
    assert vec_is_zero(g.bracket(cert.isotropic, cert.isotropic))


def test_isotropic_witness_kills_every_gram(algebra):
    # x M(lambda) x = 0 for every lambda when [x,x] = 0
    cl = algebra("cl(1|2,+-)")
    cert = find_isotropic_odd(cl)
    x = cert.isotropic[cl.space.even_dim:]
    for lam_int in ((1,), (-2,), (3,)):
        M = OddSquareForm.of(cl, tuple(QQ.rat(c) for c in lam_int)).matrix
        val = QQ.zero
        for a, xa in enumerate(x):
            for b, xb in enumerate(x):
                val = val + xa * M.rows[a][b] * xb
        assert not val


def test_convex_hull_examples():
    one, zero = QQ.one, QQ.zero
    v = (one, zero)
    nv = (-one, zero)
    combo = convex_hull_contains_zero([v, nv])
    assert combo == (Fraction(1, 2), Fraction(1, 2))
    assert convex_hull_contains_zero([(one, zero), (zero, one)]) is None
    assert convex_hull_contains_zero([(zero, zero)]) == (Fraction(1),)
    with pytest.raises(InputError):
        convex_hull_contains_zero([])


@pytest.mark.parametrize("wrong", [
    [Fraction(1), Fraction(0)],                  # weights sum to 1, combination is not 0
    [Fraction(3, 2), Fraction(-1, 2)],           # a negative weight
    [Fraction(1, 4), Fraction(1, 4)],            # combination is 0, weights sum to 1/2
])
def test_convex_hull_recheck_rejects_bad_certificate(monkeypatch, wrong):
    from liecones import cones
    monkeypatch.setattr(cones, "_simplex_phase1", lambda A, b: list(wrong))
    one, zero = QQ.one, QQ.zero
    with pytest.raises(cones.InvariantViolation):
        convex_hull_contains_zero([(one, zero), (-one, zero)])


def test_su1111_h_vectors_hull(corpus):
    # the four H_{a,b} admit the exact zero combination with weights 1/4
    from liecones.catalog import root_vectors_su
    e = corpus["su(1,1|1,1)"]
    hs = []
    for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        rv = root_vectors_su(e, 1, 1, 1, 1, a, b)
        hs.append(tuple(x.demote(QQ) for x in rv.H_coords))
    combo = convex_hull_contains_zero(hs)
    assert combo == (Fraction(1, 4),) * 4
    # re-substitution
    acc = tuple(QQ.zero for _ in hs[0])
    for c, h in zip(combo, hs):
        acc = vec_add(acc, vec_scale(QQ.rat(c), h))
    assert vec_is_zero(acc)


def test_star_reduced_examples(corpus):
    assert star_reduced_report(corpus["hc(2|2,++)"].algebra).status == "CONE_OK"
    rep = star_reduced_report(corpus["cl(1|2,+-)"].algebra)
    assert rep.status == "OBSTRUCTED"
    assert rep.reasons[0]["kind"] == "isotropic_odd"
    rep = star_reduced_report(corpus["su(1,1|1,1)"].algebra, cap=400)
    assert rep.status == "OBSTRUCTED"
    assert rep.reasons[0]["kind"] == "root_square_hull"


def test_star_reduced_sq11_line(corpus):
    rep = star_reduced_report(corpus["sq(1,1)"].algebra, cap=400)
    assert rep.status == "OBSTRUCTED"
    assert rep.reasons[0]["kind"] == "projected_square_hull"


def test_star_reduced_purely_even_ok(corpus):
    for key in ("h(1)", "su(2)", "sl(2,R)"):
        assert star_reduced_report(corpus[key].algebra).status == "CONE_OK"


def test_pd_implies_hull_separation(algebra):
    # sampled odd-square generators never average to zero under a PD certificate
    for key in ("cl(1|2,++)", "hc(2|2,++)", "cl(1|3,+++)"):
        g = algebra(key)
        assert find_pd_functional(g).status == "POINTED_CERTIFIED"
        odd_idx = list(g.space.odd_indices())
        vs = []
        for i in odd_idx:
            sq = g.bracket(g.basis_vector(i), g.basis_vector(i))
            vs.append(sq[:g.space.even_dim])
        assert convex_hull_contains_zero(vs) is None


def test_abelian_ideal_center_lemma(algebra):
    # on PD-certified algebras every abelian even ideal found lies in the center
    for key in ("cl(1|2,++)", "hc(2|2,++)", "h(1)"):
        g = algebra(key)
        for rec in abelian_even_ideals_contained_in_center(g):
            assert rec["in_center"], (key, rec)


def test_check_root_space_form_vacuous(algebra):
    cl = algebra("cl(1|2,++)")
    cd = cartan_subsuperalgebra(cl, compact_cartan_even(cl))
    datum = root_decomposition(cl, cd)
    assert check_root_space_form(cl, datum, (QQ.one,)) == []


def test_check_root_space_form_su1111(corpus):
    g = corpus["su(1,1|1,1)"].algebra
    h0 = compact_cartan_even(g)
    cd = cartan_subsuperalgebra(g, h0)
    datum = root_decomposition(g, cd)
    P = fixed_point_projection(g, h0)
    e = g.space.even_dim
    # mu = nu o P is fixed by the Cartan action for any nu
    found_failure = False
    for j in range(e):
        nu = tuple(QQ.one if k == j else QQ.zero for k in range(e))
        mu = tuple(P.transpose().apply(nu))
        verdicts = check_root_space_form(g, datum, mu)
        if verdicts and any(not v["positive_definite"] for v in verdicts):
            found_failure = True
            break
    assert found_failure    # no admissible mu makes all root forms definite


def test_check_root_space_form_rejects_unfixed_mu(corpus):
    g = corpus["su(1,1|1,1)"].algebra
    h0 = compact_cartan_even(g)
    datum = root_decomposition(g, cartan_subsuperalgebra(g, h0))
    bad = tuple(QQ.one for _ in range(g.space.even_dim))
    with pytest.raises(InputError):
        check_root_space_form(g, datum, bad)


def test_nilpotent_vanishing_ideal(algebra):
    assert nilpotent_vanishing_ideal(algebra("hc(2|2,++)")).dim == 0
    assert nilpotent_vanishing_ideal(algebra("cl(1|3,+++)")).dim == 0
    g = algebra("n3super")
    vi = nilpotent_vanishing_ideal(g)
    assert vi.dim == 1
    q = quotient(g, vi)
    assert nilpotency_class(q.algebra) == 2
    with pytest.raises(InputError):
        nilpotent_vanishing_ideal(algebra("sl(2,R)"))


def test_sq11_projected_squares_hit_z1_z2_z3(corpus):
    # acceptance-5 style: odd elements whose projected squares are positive
    # multiples of Z1, Z2, Z3
    entry = corpus["sq(1,1)"]
    g = entry.algebra
    h0 = compact_cartan_even(g)
    P = fixed_point_projection(g, h0)
    e = g.space.even_dim
    i = QQ_I.i
    z1 = entry.coords_of(cm([[i, 0, 0, 0], [0, 0, 0, 0],
                             [0, 0, i, 0], [0, 0, 0, 0]]), fld=QQ)
    z2 = entry.coords_of(cm([[0, 0, 0, 0], [0, i, 0, 0],
                             [0, 0, 0, 0], [0, 0, 0, i]]), fld=QQ)
    z3 = tuple(-(a + b) for a, b in zip(z1, z2))
    targets = [z1[:e], z2[:e], z3[:e]]
    found = [None, None, None]
    odd_idx = list(g.space.odd_indices())
    for k in odd_idx:
        v = g.basis_vector(k)
        pv = P.apply(g.bracket(v, v)[:e])
        for t, target in enumerate(targets):
            for mult in (1, 2, 4):
                if pv == vec_scale(QQ.rat(mult), target):
                    found[t] = (k, mult)
    assert all(found), found


def test_simplex_fuzz_planted_and_separated():
    # planted zero combinations must be found; strictly separated sets must not
    import random
    rng = random.Random(20240810)
    for trial in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(2, 6)
        if trial % 2 == 0:
            # plant: last vector = -(sum of the others), so 0 is in the hull
            vecs = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]
                    for _ in range(k - 1)]
            last = [-sum(col) for col in zip(*vecs)] if vecs else [Fraction(0)] * n
            vecs.append(last)
            sv = [tuple(QQ.rat(x) for x in v) for v in vecs]
            combo = convex_hull_contains_zero(sv)
            assert combo is not None
        else:
            # all vectors have first coordinate >= 1: separated from zero
            vecs = [[Fraction(rng.randint(1, 5))] +
                    [Fraction(rng.randint(-5, 5)) for _ in range(n - 1)]
                    for _ in range(k)]
            sv = [tuple(QQ.rat(x) for x in v) for v in vecs]
            assert convex_hull_contains_zero(sv) is None


def test_rho_square_positive_scalar():
    # for odd X with definite-positive square under lambda, rho(X)^2 is a
    # strictly positive scalar matrix
    from liecones.cliffrep import clifford_module
    from liecones.glinalg import Matrix
    rep = clifford_module(3, [2, 4, 8])
    g = rep.algebra
    fld = rep.field
    for t, k in enumerate(g.space.odd_indices()):
        M = rep.mats[k]
        sq = M * M
        want = Matrix.identity(fld, rep.dim).scale(fld.rat(Fraction([2, 4, 8][t], 2)))
        assert sq == want


def test_star_reduced_consistent_with_definiteness(corpus):
    # every nilpotent catalog entry: CONE_OK exactly when the odd form admits a
    # definite functional (Thm 7.2 criterion); obstructed otherwise
    expectations = {
        "h(1)": "CONE_OK",            # purely even
        "cl(1|1,+)": "CONE_OK", "cl(1|1,-)": "CONE_OK",
        "cl(1|2,++)": "CONE_OK", "cl(1|2,+-)": "OBSTRUCTED",
        "cl(1|3,+++)": "CONE_OK", "cl(1|3,++-)": "OBSTRUCTED",
        "cl(1|4,++++)": "CONE_OK", "cl(1|4,+++-)": "OBSTRUCTED",
        "hc(2|2,++)": "CONE_OK", "hc(2|2,+-)": "OBSTRUCTED",
        "n3super": "OBSTRUCTED",      # isotropic odd basis vector
        "abelian(2|1)": "OBSTRUCTED", # zero odd form
    }
    for key, want in expectations.items():
        rep = star_reduced_report(corpus[key].algebra, cap=400)
        assert rep.status == want, (key, rep.status, rep.reasons)


def test_star_reduced_notes_undetermined_but_raises_invariant_violation(monkeypatch, algebra):
    from liecones import cartan
    from liecones.exactnum import InvariantViolation, Undetermined
    g = algebra("osp(1|2)")

    def undecided(*args):
        raise Undetermined("SPLITTING_FAILURE in the root engine")

    monkeypatch.setattr(cartan, "root_decomposition", undecided)
    assert "root decomposition unavailable: SPLITTING_FAILURE in the root engine" \
        in star_reduced_report(g).notes

    # a conjugation that moves root vectors off their opposite root spaces
    monkeypatch.undo()
    monkeypatch.setattr(cartan, "_conjugate_vector",
                        lambda v: tuple(x + x.field.one for x in v))
    with pytest.raises(InvariantViolation, match="conjugation symmetry fails"):
        star_reduced_report(g)
