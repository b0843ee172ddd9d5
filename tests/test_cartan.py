import pytest

from liecones import cartan
from liecones.exactnum import QQ, QQ_I, Field, InputError, InvariantViolation, Undetermined
from liecones.catalog import cm
from liecones.cartan import (
    candidate_vectors,
    cartan_subalgebra_even, cartan_subsuperalgebra, compact_cartan_even,
    fitting_null, fixed_point_projection,
    is_compactly_embedded, is_cartan_subalgebra_even,
    normalizer, root_decomposition,
)
from liecones.glinalg import Matrix
from liecones.lsa import LieSuperalgebra, bracket_span, check_axioms


def test_candidate_vectors_deterministic():
    a = list(candidate_vectors(2, 2, 30))
    b = list(candidate_vectors(2, 2, 30))
    assert a == b
    assert a[0] in ((1, 0), (0, 1))
    assert all(sum(abs(x) for x in v) <= sum(abs(x) for x in w)
               for v, w in zip(a, a[1:]))


def test_candidate_vectors_respect_a_zero_or_negative_cap(algebra):
    assert list(candidate_vectors(3, 2, 1)) == [(1, 0, 0)]
    for cap in (0, -5):
        assert list(candidate_vectors(3, 2, cap)) == []
    assert compact_cartan_even(algebra("su(2)"), cap=0) is None
    with pytest.raises(Undetermined):
        cartan_subalgebra_even(algebra("su(2)"), cap=0)


def test_fitting_null_examples(algebra):
    h1 = algebra("h(1)")
    w = h1.subspace([h1.basis_vector(2)])       # span{Z}
    assert fitting_null(h1, w) == h1.full_space

    sl2 = algebra("sl(2,R)")
    w = sl2.subspace([sl2.basis_vector(0)])     # span{H}
    assert fitting_null(sl2, w) == w

    gl = algebra("gl(1|1)")
    diag = gl.subspace([gl.basis_vector(0), gl.basis_vector(1)])
    fn = fitting_null(gl, diag)
    assert fn == diag                            # odd part excluded


def test_cartan_even_examples(algebra):
    ab = algebra("abelian(2|1)")
    assert cartan_subalgebra_even(ab) == ab.even_subspace
    sl2 = algebra("sl(2,R)")
    h0 = cartan_subalgebra_even(sl2)
    assert h0.dim == 1
    su = algebra("su(1,1|1,1)")
    h0 = cartan_subalgebra_even(su)
    assert is_cartan_subalgebra_even(su, h0)


def test_cartan_bijection_roundtrip(corpus):
    # even part of N_g(h0) equals h0 exactly, N_g(h0) nilpotent self-normalizing
    for key in ("h(1)", "gl(1|1)", "cl(1|2,++)", "hc(2|2,++)", "sl(2,R)", "osp(1|2)"):
        g = corpus[key].algebra
        h0 = cartan_subalgebra_even(g)
        cd = cartan_subsuperalgebra(g, h0)
        assert cd.h.intersect(g.even_subspace) == h0, key
        assert normalizer(g, cd.h) == cd.h, key


def test_cartan_subsuperalgebra_rejects_noncartan(algebra):
    h1 = algebra("h(1)")
    with pytest.raises(InputError):
        cartan_subsuperalgebra(h1, h1.subspace([h1.basis_vector(2)]))


def test_heisenberg_is_its_own_cartan(algebra):
    h1 = algebra("h(1)")
    cd = cartan_subsuperalgebra(h1, h1.full_space)
    assert cd.h == h1.full_space


def test_clifford_cartan_is_everything(algebra):
    cl = algebra("cl(1|2,++)")
    h0 = cartan_subalgebra_even(cl)
    assert h0 == cl.even_subspace              # g0 = R Z
    cd = cartan_subsuperalgebra(cl, h0)
    assert cd.h == cl.full_space
    assert cd.compactly_embedded is True


def test_is_compactly_embedded_examples(corpus):
    su2 = corpus["su(2)"]
    g = su2.algebra
    # span{diag(i,-i)}: ad charpoly x(x^2+4)
    v = su2.coords_of(cm([[QQ_I.i, 0], [0, -QQ_I.i]]), fld=QQ)
    k = g.subspace([v])
    assert is_compactly_embedded(g, k) is True
    M = g.ad(v)
    from liecones.exactnum import Poly
    assert M.charpoly() == Poly(QQ, [0, 4, 0, 1])

    sl2 = corpus["sl(2,R)"].algebra
    split = sl2.subspace([sl2.basis_vector(0)])
    assert is_compactly_embedded(sl2, split) is False
    assert is_compactly_embedded(sl2, sl2.subspace([])) is True


def test_non_abelian_k0_is_decided_by_its_trace_form(algebra):
    """Every basis row passes the spectral test, so the verdict comes from
    the trace form beta(x, y) = tr(ad x ad y).  In sl(2,R) with the elliptic
    basis K = E - F, P = H + 2E - 2F, R = H + E - 3F, -beta is indefinite.
    In e(2) = so(2) |x R^2 with the basis A = J, B = J + T1, C = J + T2,
    -beta is 2 on every entry: semidefinite of rank 1, not dim e(2) = 3.
    The even parts of su(2), su(2,0|1,0), su(1,0|2,0) and sq(2,0) are
    compact, and the fixed-point projection of su(2,0|1,0)_0 = u(2) keeps
    its centre only."""
    sl2 = LieSuperalgebra.from_table(
        "sl(2,R) elliptic", QQ, ["K", "P", "R"], [],
        {("K", "P"): {"P": -2, "R": 2}, ("K", "R"): {"K": 4, "P": -4, "R": 2},
         ("P", "R"): {"K": 6, "P": -4}})
    e2 = LieSuperalgebra.from_table(
        "e(2)", QQ, ["A", "B", "C"], [],
        {("A", "B"): {"A": -1, "C": 1}, ("A", "C"): {"A": 1, "B": -1},
         ("B", "C"): {"A": 2, "B": -1, "C": -1}})
    compact = [algebra(key) for key in ("su(2)", "su(2,0|1,0)", "su(1,0|2,0)", "sq(2,0)")]
    for g in (sl2, e2, *compact):
        assert check_axioms(g).all_ok
        assert bracket_span(g, g.even_subspace, g.even_subspace).dim
        assert all(cartan._spectrum_purely_imaginary_semisimple(g, b) is True
                   for b in g.even_subspace.rows)
        assert is_compactly_embedded(g, g.even_subspace) is (g in compact), g.name
    u2 = compact[1]
    P = fixed_point_projection(u2, u2.even_subspace)
    assert P * P == P and P.rank() == 1


def test_parity_blocks_recheck_the_grading():
    """[X, Y] = f with f odd: ad(X) sends the even Y to the odd f."""
    g = LieSuperalgebra.from_table("par", QQ, ["X", "Y"], ["f"], {("X", "Y"): {"f": 1}})
    for run in (lambda: cartan.fitting_null(g, g.subspace([g.basis_vector(0)])),
                lambda: cartan._spectrum_purely_imaginary_semisimple(g, g.basis_vector(0))):
        with pytest.raises(InvariantViolation):
            run()


def test_compactly_embedded_in_super_not_just_even(algebra):
    # hc(2|2,++): the center is compactly embedded; the X direction is not
    hc = algebra("hc(2|2,++)")
    assert is_compactly_embedded(hc, hc.subspace([hc.basis_vector(2)])) is True
    assert is_compactly_embedded(hc, hc.subspace([hc.basis_vector(0)])) is False


def test_root_decomposition_su2(corpus):
    g = corpus["su(2)"].algebra
    h0 = compact_cartan_even(g)
    cd = cartan_subsuperalgebra(g, h0)
    rd = root_decomposition(g, cd)
    vals = sorted(str(r.values[0]) for r in rd.roots)
    assert vals == ["-2", "0", "2"]
    assert all(r.even_space.dim == 1 for r in rd.roots)


def test_root_decomposition_abelian(algebra):
    g = algebra("abelian(2|1)")
    cd = cartan_subsuperalgebra(g, cartan_subalgebra_even(g))
    rd = root_decomposition(g, cd)
    assert len(rd.roots) == 1 and rd.roots[0].is_zero


def test_root_decomposition_clifford_all_weight_zero(algebra):
    g = algebra("cl(1|2,++)")
    cd = cartan_subsuperalgebra(g, cartan_subalgebra_even(g))
    rd = root_decomposition(g, cd)
    assert len(rd.roots) == 1
    assert rd.roots[0].odd_space.dim == 2


def test_root_decomposition_osp12(corpus):
    g = corpus["osp(1|2)"].algebra
    h0 = compact_cartan_even(g)
    assert h0 is not None
    cd = cartan_subsuperalgebra(g, h0)
    rd = root_decomposition(g, cd)
    by_val = {str(r.values[0]): (r.even_space.dim, r.odd_space.dim) for r in rd.roots}
    # alpha odd, 2 alpha even: the B(0|1) pattern
    assert by_val["1"] == (0, 1) and by_val["2"] == (1, 0)
    assert by_val["-1"] == (0, 1) and by_val["-2"] == (1, 0)


def test_root_decomposition_requires_compact(algebra):
    sl2 = algebra("sl(2,R)")
    cd = cartan_subsuperalgebra(sl2, cartan_subalgebra_even(sl2))
    assert cd.compactly_embedded is False
    with pytest.raises(InputError):
        root_decomposition(sl2, cd)


def test_fixed_point_projection_trivial(algebra):
    h1 = algebra("h(1)")
    P = fixed_point_projection(h1, h1.subspace([]))
    assert P == Matrix.identity(QQ, 3)


def test_fixed_point_projection_sq11(corpus):
    # u(1,1) inside sq(1,1): projection keeps the diagonal torus directions
    entry = corpus["sq(1,1)"]
    g = entry.algebra
    h0 = compact_cartan_even(g)
    assert h0 is not None and h0.dim == 2
    P = fixed_point_projection(g, h0)
    e = g.space.even_dim
    # idempotent
    assert P * P == P
    # commutes with every ad(K) restricted to the even part
    for b in h0.rows:
        ad_even = Matrix(g.field, [r[:e] for r in g.ad(b).rows[:e]])
        assert P * ad_even == ad_even * P
    # rank = dim of the centralizer of the torus
    assert P.rank() == 2


def test_su1111_compact_cartan_and_roots(corpus):
    g = corpus["su(1,1|1,1)"].algebra
    h0 = compact_cartan_even(g)
    assert h0 is not None and h0.dim == 3
    cd = cartan_subsuperalgebra(g, h0)
    rd = root_decomposition(g, cd)
    nz = [r for r in rd.roots if not r.is_zero]
    assert len(nz) == 8
    odd_roots = [r for r in nz if r.odd_space.dim]
    assert len(odd_roots) == 4 and all(r.odd_space.dim == 2 for r in odd_roots)
    assert sum(r.even_space.dim + r.odd_space.dim for r in rd.roots) == g.dim


def test_root_splitting_depends_on_declared_tower():
    # rotation with ad eigenvalues +-i*sqrt(3): the Cartan certifies compactly
    # embedded over Q, but the roots only split once sqrt(3) is in the tower
    from liecones.exactnum import Field
    from liecones.lsa import LieSuperalgebra

    def make(fld):
        return LieSuperalgebra.from_table(
            "rot3", fld, ["K", "X", "Y"], [],
            {("K", "X"): {"Y": 1}, ("K", "Y"): {"X": -3}})

    g = make(QQ)
    k = g.subspace([g.basis_vector(0)])
    assert is_compactly_embedded(g, k) is True
    cd = cartan_subsuperalgebra(g, k)
    with pytest.raises(Undetermined):
        root_decomposition(g, cd)

    g3 = make(Field(False, 3))
    k3 = g3.subspace([g3.basis_vector(0)])
    cd3 = cartan_subsuperalgebra(g3, k3)
    rd = root_decomposition(g3, cd3)
    vals = sorted(str(r.values[0]) for r in rd.roots)
    assert vals == ["-1*sqrt3", "0", "1*sqrt3"]


def scan_counts(g, monkeypatch) -> tuple[object, list[str]]:
    """compact_cartan_even on a fresh copy of g (no cached structure), and the
    candidates drawn, compact-embeddedness tests, centre computations and
    spectral tests it made, in order."""
    calls: list[str] = []
    draw, certify = cartan.candidate_vectors, cartan.is_compactly_embedded
    centre, spectral = cartan.center, cartan._spectrum_purely_imaginary_semisimple

    def drawn(*a):
        for v in draw(*a):
            calls.append("candidate")
            yield v

    monkeypatch.setattr(cartan, "candidate_vectors", drawn)
    monkeypatch.setattr(cartan, "is_compactly_embedded",
                        lambda *a: calls.append("certify") or certify(*a))
    monkeypatch.setattr(cartan, "center", lambda *a: calls.append("center") or centre(*a))
    monkeypatch.setattr(cartan, "_spectrum_purely_imaginary_semisimple",
                        lambda *a: calls.append("spectral") or spectral(*a))
    fresh = LieSuperalgebra(g.name, g.space, g.field, g.brackets)
    return compact_cartan_even(fresh), calls


@pytest.mark.parametrize("key", ["h(1)", "hc(2|2,++)", "hc(2|2,+-)", "n3super"])
def test_nilpotent_even_part_scans_one_candidate(algebra, monkeypatch, key):
    """g0 is nilpotent, so the first candidate gives its only Cartan
    subalgebra, g0 itself, which is not compactly embedded."""
    h0, calls = scan_counts(algebra(key), monkeypatch)
    assert h0 is None
    assert calls.count("candidate") == 1 and calls.count("certify") == 1


def test_noncompact_centre_stops_after_one_cartan(algebra, monkeypatch):
    """The centre of osp(1,1|2)_0 is a split so(1,1), which lies in every
    Cartan subalgebra: one failed certificate and one centre test decide."""
    h0, calls = scan_counts(algebra("osp(1,1|2)"), monkeypatch)
    assert h0 is None
    assert calls.count("certify") == 1 and calls.count("center") == 1
    assert calls[-1] == "spectral"


def test_compact_first_cartan_makes_no_centre_test(algebra, monkeypatch):
    h0, calls = scan_counts(algebra("su(1,1|1,1)"), monkeypatch)
    assert h0 is not None and h0.dim == 3
    assert calls.count("certify") == 1 and "center" not in calls
    assert calls.count("spectral") == h0.dim


def test_undetermined_centre_verdict_stops_the_scan(monkeypatch):
    """A centre row that does not pass stops the scan, UNDETERMINED as well as
    False.  Here the centre of g0 = sl(2,R) + R C acts on the odd part with
    entries +-sqrt2, so ad(C) is not rational and its spectral test is
    UNDETERMINED; every Cartan subalgebra contains C, so none certifies (a
    certified one has rational ad on its rows and on the rational
    combination C of them)."""
    fld = Field(False, 2)
    r2 = fld.sqrt
    g = LieSuperalgebra.from_table(
        "sl2+rot", fld, ["H", "X", "Y", "C"], ["F1", "F2"],
        {("H", "X"): {"X": 2}, ("H", "Y"): {"Y": -2}, ("X", "Y"): {"H": 1},
         ("C", "F1"): {"F2": r2}, ("C", "F2"): {"F1": -r2}})
    h0, calls = scan_counts(g, monkeypatch)
    assert h0 is None
    assert calls.count("center") == 1 and calls.count("certify") == 1
    assert calls[-1] == "spectral"
