import hashlib
import json
from fractions import Fraction

import pytest

from liecones.exactnum import QQ, QQ_I, InputError
from liecones.glinalg import Matrix, vec_add, vec_is_zero, vec_scale
from liecones.catalog import build, cm, list_keys
from liecones.cartan import cartan_subsuperalgebra, compact_cartan_even, fixed_point_projection, root_decomposition
from liecones.cones import (
    OddSquareForm, abelian_even_ideals_contained_in_center,
    certify_pointed, check_root_space_form, convex_hull_contains_zero,
    find_isotropic_odd, find_pd_functional, hermitian_is_positive_definite,
    is_positive_definite, is_positive_semidefinite, leading_principal_minors,
    nilpotent_vanishing_ideal, odd_square, star_reduced_report,
)
from liecones.lsa import (LieSuperalgebra, grassmann_extend, is_nilpotent, nilpotency_class,
                          quotient)
from liecones.orbits import (coadjoint_orbit_member, even_skew_form, in_admissible_cone,
                             kirillov_heisenberg_check, polarizing_flag, polarizing_system_from_m0)


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


def test_hill_climb_certifies_what_the_scan_misses():
    """With [f1, f1] = Z1 and [f2, f2] = Z2 the scan of cap 2 sees only
    lambda = (1, 0) and (0, 1), both singular; the climb from (1, 0)
    reaches (1, 1)."""
    g = LieSuperalgebra.from_table("cl(2)", QQ, ["Z1", "Z2"], ["f1", "f2"],
                                   {("f1", "f1"): {"Z1": 1}, ("f2", "f2"): {"Z2": 1}})
    cert = find_pd_functional(g, bound=1, cap=2)
    assert cert.status == "POINTED_CERTIFIED" and cert.lam == (QQ.one, QQ.one)
    assert find_pd_functional(g, bound=1, cap=2, hill_steps=0).status == "UNDETERMINED"


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


# sha256 of {"star_reduced", "pd_search", "isotropic" and, on nilpotent keys,
# "kirillov"} (sorted keys): star_reduced_report(g, cap=400),
# find_pd_functional(g, cap=400), find_isotropic_odd(g) and
# kirillov_heisenberg_check(g), pinned byte for byte on every list_keys() key
# and four more real forms.  They reach the isotropic, root-square and
# projected-square routes, CONE_OK and UNDETERMINED.
PINNED = {
    "h(1)": "52914e99de0d396e643ce48632975ce094e15ebc1afde8851ef141f961e84d2c",
    "cl(1|1,+)": "f9bda137236bd30430f13bfa4bb00c43f52fb60aae35b44617a00b6f0e24ff8c",
    "cl(1|1,-)": "f4e1bd0c2efd39e8d478710d6c2e1bf82542fe8f9f76a780bb94dc81877aa646",
    "cl(1|2,++)": "1813ac57f049e2e9c41d651d11f1fbe2bfcc6e0aa8dcca92d3730495d373fad2",
    "cl(1|2,+-)": "d172080e854e5966d8efb8153c3dcca99f334b834ec3d53306ffac0ca01b0041",
    "cl(1|3,+++)": "ddb45b6df6fca647230b0d79675d37189ea5baf17012182281625bfae38aaeeb",
    "cl(1|3,++-)": "1b6081c6286c3468f02a6601e308bdd74976966ba70fd1c5a3153ade18d55af2",
    "cl(1|4,++++)": "6fa4423f836aefe3b5c51f688cdd15fe574aa45f912fcae12c8606c81942ae52",
    "cl(1|4,+++-)": "5ba48c0c8b362b23a09ba7ee84ad74e7f48bc34383b7af6f7d3ae11290466284",
    "hc(2|2,++)": "2922590d992cfd6f68787146a5c1be2ed62664afbf6ba9f4eaf124ab3dac019e",
    "hc(2|2,+-)": "aa0162997b7930224496ddf9d29aee6aa11810d4c8b8622e2460e5324b476912",
    "su(1,1|1,1)": "1a4ac417a12318519ad41bb5b00f3f08817960a228b287b7d98b12858fcd5e22",
    "sq(1,1)": "178d59f9f6b5b4214602c0a81540a08dbc19e6f05b217c6979e20729976ddcd3",
    "osp(1,1|2)": "cf672abe60f554fed92eb5c53bb87f67cf0138af32d25dba81eb645333c5a640",
    "osp(1|2)": "ece8b6d7767c33658e1c098bd16a154859c7104aae5b3db91959bff8184d2ff2",
    "gl(1|1)": "587ecd52d8b562e8be4526ba1e0f44c41d256ce57a40cacddae2c5a91e7b8406",
    "sl(2,R)": "b3eb2e55c98b317a9d32640402c34b4873634612324ecdb03e22ac87d659d8ab",
    "su(2)": "b3eb2e55c98b317a9d32640402c34b4873634612324ecdb03e22ac87d659d8ab",
    "n3super": "a01c71a036be7e1db93385fe960f66c86549b7408930f16293a91e9c5184b8cb",
    "abelian(2|1)": "dd21d9f7f9d70ca49af28feecd5e376d69557749a06c878f591bab9b247030dd",
    "su(2,0|1,0)": "e9e29fbdc91f7bfb2cd80572bf246c150800a1daca7e6560a392c4512da5dd3d",
    "su(1,0|2,0)": "80cc932a953e73abda153d768e8d0d0e6190b42fdd23e42f7ac373abebf88a86",
    "sq(2,0)": "80cc932a953e73abda153d768e8d0d0e6190b42fdd23e42f7ac373abebf88a86",
    "osp(2,0|2)": "d61082326aee4f463674dff015e69aef9f9d35ed9bcf24366406d9b44fc2a57d",
}


def cone_results(g: LieSuperalgebra) -> dict:
    doc = {"star_reduced": star_reduced_report(g, cap=400).as_json(),
           "pd_search": find_pd_functional(g, cap=400).as_json(),
           "isotropic": find_isotropic_odd(g).as_json()}
    if is_nilpotent(g):
        doc["kirillov"] = kirillov_heisenberg_check(g)
    return doc


def test_pinned_cone_keys_cover_the_corpus():
    assert set(list_keys()) <= set(PINNED)


@pytest.mark.parametrize("key", list(PINNED))
def test_cone_results_are_pinned(key):
    doc = json.dumps(cone_results(build(key).algebra), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == PINNED[key]


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
def test_functionals_of_the_wrong_length_are_input_errors(delta, algebra):
    """One coordinate short or long is refused by every entry point that
    takes a functional on g0."""
    h = algebra("hc(2|2,++)")
    good = (QQ.zero, QQ.zero, QQ.one)
    bad = (QQ.one,) * (h.space.even_dim + delta)
    osp = algebra("osp(1|2)")
    datum = root_decomposition(osp, cartan_subsuperalgebra(osp, compact_cartan_even(osp)))
    calls = [lambda: OddSquareForm.of(h, bad), lambda: in_admissible_cone(h, bad),
             lambda: even_skew_form(h, bad), lambda: polarizing_flag(h, bad),
             lambda: polarizing_system_from_m0(h, bad, h.even_subspace),
             lambda: coadjoint_orbit_member(h, bad, good),
             lambda: coadjoint_orbit_member(h, good, bad),
             lambda: check_root_space_form(osp, datum, (QQ.one,) * (osp.space.even_dim + delta))]
    for call in calls:
        with pytest.raises(InputError, match="functional length must equal the even dimension"):
            call()
