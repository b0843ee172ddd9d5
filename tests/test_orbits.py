from fractions import Fraction

import pytest

from liecones import lsa, orbits
from liecones.cones import OddSquareForm
from liecones.exactnum import QQ, InputError
from liecones.lsa import LieSuperalgebra, check_axioms
from liecones.orbits import (
    NotAdmissible, branching_multiplicity, central_box,
    classify_orbits, coadjoint_orbit_member, even_skew_form, grid_box,
    in_admissible_cone, kirillov_heisenberg_check, polarizing_flag,
)


def test_in_admissible_cone_examples(algebra):
    h1 = algebra("h(1)")
    assert in_admissible_cone(h1, (1, 2, 3))[0]        # purely even: everything
    cl = algebra("cl(1|1,+)")
    assert in_admissible_cone(cl, (1,))[0]
    assert not in_admissible_cone(cl, (-1,))[0]
    bad = algebra("cl(1|2,+-)")
    assert not in_admissible_cone(bad, (1,))[0]
    assert not in_admissible_cone(bad, (-2,))[0]
    assert in_admissible_cone(bad, (0,))[0]            # zero form is PSD


def test_polarizing_flag_h1(algebra):
    h1 = algebra("h(1)")
    ps = polarizing_flag(h1, (0, 0, 1))
    # m0 = span{Y, Z}; maximal isotropic through the center
    assert ps.m0.dim == 2
    assert ps.m0.contains(h1.basis_vector(1)) and ps.m0.contains(h1.basis_vector(2))
    assert ps.even_rank == 2
    assert ps.clifford_dim == 1
    assert branching_multiplicity(ps) == 1
    # the paper's printed exponent is recorded alongside
    rep = ps.branching_report()
    assert rep["paper_exponent"] == ps.m.dim - ps.j.dim


def test_polarizing_flag_abelian(algebra):
    ab = algebra("abelian(2|1)")
    ps = polarizing_flag(ab, (1, 1))
    assert ps.m0 == ab.even_subspace


def test_polarizing_flag_hc(algebra):
    hc = algebra("hc(2|2,++)")
    ps = polarizing_flag(hc, (0, 0, 1))
    assert ps.m0.dim == 2                               # span{Y, Z}
    assert ps.j.dim == 1                                # span{Y}
    cq = ps.clifford.algebra
    assert (cq.space.even_dim, cq.space.odd_dim) == (1, 2)
    assert branching_multiplicity(ps) == 2
    # invariants: isotropy, dimension count, [g1,g1] inside m0
    assert ps.m0.dim == hc.space.even_dim - ps.even_rank // 2
    lam = ps.lam
    for u in ps.m0.rows:
        for v in ps.m0.rows:
            w = hc.bracket(u, v)
            assert not any(a * b for a, b in zip(lam, w[:3]))


def test_polarizing_flag_requires_admissible(algebra):
    cl = algebra("cl(1|2,++)")
    with pytest.raises(NotAdmissible):
        polarizing_flag(cl, (-1,))


def test_polarizing_flag_requires_nilpotent(algebra):
    with pytest.raises(InputError):
        polarizing_flag(algebra("sl(2,R)"), (1, 0, 0))


def test_coadjoint_member_h1(algebra):
    h1 = algebra("h(1)")
    a, b = 4, -7
    path = coadjoint_orbit_member(h1, (0, 0, 1), (a, b, 1))
    # (0, 0, 1) is its own normal form; (a, b, 1) reaches it by exp(-b X) and
    # then exp(a Y), and the path runs that word backwards with signs flipped
    assert [[str(x) for x in w] for w in path.exps] == [["0", str(-a), "0"], [str(b), "0", "0"]]
    assert coadjoint_orbit_member(h1, (0, 0, 1), (0, 0, 2)) is None


def test_coadjoint_member_abelian(algebra):
    ab = algebra("abelian(2|1)")
    path = coadjoint_orbit_member(ab, (1, 2), (1, 2))
    assert path is not None and path.exps == []
    assert coadjoint_orbit_member(ab, (1, 2), (2, 1)) is None


def test_coadjoint_member_three_step_exact():
    # filiform n4: orbit of e4* is {(a, c^2/2, c, 1)}
    n4 = LieSuperalgebra.from_table(
        "n4", QQ, ["E1", "E2", "E3", "E4"], [],
        {("E1", "E2"): {"E3": 1}, ("E1", "E3"): {"E4": 1}})
    assert check_axioms(n4).all_ok
    lam = (0, 0, 0, 1)
    assert coadjoint_orbit_member(n4, lam, (9, Fraction(9, 2), 3, 1)) is not None
    # c = 0: only exp(t E3), which the second stage keeps, moves the E1 value
    assert coadjoint_orbit_member(n4, lam, (5, 0, 0, 1)) is not None
    assert coadjoint_orbit_member(n4, lam, (0, 1, 1, 1)) is None
    assert coadjoint_orbit_member(n4, lam, (0, 0, 0, 2)) is None


def test_orbit_member_path_verification(algebra):
    hc = algebra("hc(2|2,++)")
    lam = tuple(QQ.rat(c) for c in (0, 0, 1))
    lam2 = tuple(QQ.rat(c) for c in (2, -1, 1))
    path = coadjoint_orbit_member(hc, lam, lam2)
    assert path is not None
    # re-apply the word and compare
    from liecones.orbits import _apply_exp
    cur = lam
    for w in path.exps:
        cur = _apply_exp(hc, cur, w)
    assert cur == lam2


def test_classify_h1_grid(algebra):
    h1 = algebra("h(1)")
    orbits = classify_orbits(h1, grid_box(h1, -2, 2))
    big = [o for o in orbits if len(o.members) == 25]
    small = [o for o in orbits if len(o.members) == 1]
    assert len(big) == 4 and len(small) == 25
    for o in big:
        assert o.central_character != ("0",)
        assert o.even_rank == 2 and o.clifford_dim == 1
    for o in small:
        assert o.central_character == ("0",) and o.even_rank == 0


def test_classify_clifford_central(algebra):
    cl = algebra("cl(1|2,++)")
    orbits = classify_orbits(cl, central_box(cl, -2, 2))
    # admissible iff c >= 0; orbits are points; clifford_dim 2 for c > 0 else 1
    assert len(orbits) == 3
    by_cc = {o.central_character[0]: o for o in orbits}
    assert by_cc["0"].clifford_dim == 1
    assert by_cc["1"].clifford_dim == 2 and by_cc["2"].clifford_dim == 2


def test_classify_hc_grid(algebra):
    hc = algebra("hc(2|2,++)")
    orbits = classify_orbits(hc, grid_box(hc, -2, 2))
    big = [o for o in orbits if len(o.members) == 25]
    assert len(big) == 2                       # central characters 1, 2
    for o in big:
        assert o.even_rank == 2
        assert branching_multiplicity(o.polarizing) == 2


def test_orbit_invariants_consistent(algebra):
    hc = algebra("hc(2|2,++)")
    orbits = classify_orbits(hc, grid_box(hc, -1, 1))
    for o in orbits:
        # every member has the recorded invariants (classify_orbits verifies;
        # re-check the representative explicitly)
        assert even_skew_form(hc, o.representative).rank() == o.even_rank


def test_purely_even_clifford_dim_one(algebra):
    h1 = algebra("h(1)")
    for o in classify_orbits(h1, central_box(h1, -1, 1)):
        assert o.clifford_dim == 1


def test_kirillov_heisenberg_check(algebra):
    rep = kirillov_heisenberg_check(algebra("cl(1|2,++)"))
    assert rep["status"] == "OK" and rep["branch"] == "clifford"
    rep = kirillov_heisenberg_check(algebra("h(1)"))
    assert rep["status"] == "OK" and rep["branch"] == "heisenberg_triple"
    rep = kirillov_heisenberg_check(algebra("hc(2|2,++)"))
    assert rep["status"] == "OK" and rep["branch"] == "heisenberg_triple"
    # preconditions violated: center too big
    rep = kirillov_heisenberg_check(algebra("abelian(2|1)"))
    assert rep["status"] == "PRECONDITIONS_VIOLATED"
    # isotropic odd vector present
    rep = kirillov_heisenberg_check(algebra("cl(1|2,+-)"))
    assert rep["status"] == "PRECONDITIONS_VIOLATED"
    assert rep["preconditions"]["no_isotropic_odd"] is False


def test_branching_multiplicities(algebra):
    assert branching_multiplicity(polarizing_flag(algebra("hc(2|2,++)"), (0, 0, 1))) == 2
    assert branching_multiplicity(polarizing_flag(algebra("cl(1|3,+++)"), (1,))) == 4
    assert branching_multiplicity(polarizing_flag(algebra("h(1)"), (0, 0, 1))) == 1


def test_polarization_choice_independence(algebra):
    # two different maximal isotropic polarizations give Clifford quotients of
    # equal dimension (descriptor-level independence)
    from liecones.orbits import polarizing_system_from_m0
    hc = algebra("hc(2|2,++)")
    lam = (0, 0, 1)
    ps1 = polarizing_flag(hc, lam)              # span{Y, Z}
    alt = hc.subspace([hc.basis_vector(0), hc.basis_vector(2)])   # span{X, Z}
    ps2 = polarizing_system_from_m0(hc, lam, alt)
    assert ps1.m0 != ps2.m0
    assert ps1.clifford_dim == ps2.clifford_dim
    assert (ps1.clifford.algebra.space.even_dim, ps1.clifford.algebra.space.odd_dim) \
        == (ps2.clifford.algebra.space.even_dim, ps2.clifford.algebra.space.odd_dim)


def test_polarizing_system_from_m0_rejects_bad(algebra):
    from liecones.orbits import polarizing_system_from_m0
    hc = algebra("hc(2|2,++)")
    lam = (0, 0, 1)
    with pytest.raises(InputError):
        # wrong dimension
        polarizing_system_from_m0(hc, lam, hc.subspace([hc.basis_vector(2)]))
    with pytest.raises(InputError, match=r"\[g1,g1\] is not inside"):
        # right dimension but without [g1, g1] = span{Z}: span{X, Y}
        polarizing_system_from_m0(
            hc, lam, hc.subspace([hc.basis_vector(0), hc.basis_vector(1)]))
    n4 = LieSuperalgebra.from_table(
        "n4", QQ, ["E1", "E2", "E3", "E4"], [],
        {("E1", "E2"): {"E3": 1}, ("E1", "E3"): {"E4": 1}})
    with pytest.raises(InputError, match="not isotropic"):
        # right dimension, a subalgebra, but e4*([E1, E3]) = 1: span{E1, E3, E4}
        polarizing_system_from_m0(
            n4, (0, 0, 0, 1), n4.subspace([n4.basis_vector(0), n4.basis_vector(2),
                                           n4.basis_vector(3)]))
    with pytest.raises(InputError, match="not inside g0"):
        # isotropy is read off Omega_lambda on g0, so m0 must be even: span{Z, f1}
        polarizing_system_from_m0(hc, lam, hc.subspace([hc.basis_vector(2), hc.basis_vector(3)]))


def test_coadjoint_member_deep_stage_undetermined():
    # filiform n5 has class 4, beyond the old layered stages, which left this
    # pair undecided: on the orbit of e5* the E4 value is +-a for the E1
    # coefficient a of the group element and the E2 value a cubic in a alone,
    # so E4 = 0 forces E2 = 0
    n5 = LieSuperalgebra.from_table(
        "n5", QQ, ["E1", "E2", "E3", "E4", "E5"], [],
        {("E1", "E2"): {"E3": 1}, ("E1", "E3"): {"E4": 1}, ("E1", "E4"): {"E5": 1}})
    assert coadjoint_orbit_member(n5, (0, 0, 0, 0, 1), (-1, -1, 0, 0, 1)) is None
    assert coadjoint_orbit_member(n5, (0, 0, 0, 0, 1), (0, 0, 0, 0, 2)) is None


def test_classification_cost_counts(algebra, monkeypatch):
    """Counts, not timings, of the work classify_orbits does on the 5x5x5 and
    7x7x7 grids of hc(2|2,++)."""
    hc = algebra("hc(2|2,++)")
    g = LieSuperalgebra(hc.name, hc.space, hc.field, hc.brackets)   # no cached structure
    calls: list[str] = []

    def counted(owner, name, wrap=lambda fn: fn):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, wrap(lambda *a, **k: calls.append(name) or fn(*a, **k)))

    counted(orbits, "in_admissible_cone")
    counted(OddSquareForm, "of", staticmethod)
    counted(orbits, "even_skew_form")
    counted(orbits, "_normal_form")
    counted(orbits, "subalgebra_on")
    counted(orbits, "quotient")
    counted(lsa, "_ideal_scan")
    counted(lsa, "_engel_refine")
    realized: list = []             # the subspaces lsa realizes, g's own among them
    realize = lsa.subalgebra_on
    monkeypatch.setattr(lsa, "subalgebra_on",
                        lambda h, s, name=None: realized.append(s) or realize(h, s, name))
    box = grid_box(g, -2, 2)
    descs = classify_orbits(g, box)
    admissible = sum(len(o.members) for o in descs)
    assert (len(box), admissible, len(descs)) == (125, 75, 27)
    # one odd Gram matrix per value of lambda on [g1, g1]
    assert calls.count("in_admissible_cone") == calls.count("of") == 5
    assert calls.count("even_skew_form") <= admissible
    # one Clifford quotient per orbit; the pairwise ideal scan runs only where
    # j does not contain [m, m], and those are the quotients that are not abelian
    scanned = [o for o in descs if o.polarizing.clifford.algebra.brackets]
    assert calls.count("quotient") == len(descs)
    assert calls.count("_ideal_scan") == len(scanned) == 2
    below_g0 = {o.polarizing.m0 for o in descs} - {g.even_subspace}
    assert len(below_g0) < len({o.polarizing.m0 for o in descs})
    assert calls.count("subalgebra_on") == len(below_g0)
    assert realized.count(g.full_space) == 1
    assert "_engel_refine" in calls
    last_flag_step = len(calls) - calls[::-1].index("_engel_refine")
    assert "quotient" not in calls[:last_flag_step]
    calls.clear()
    realized.clear()
    assert [o.as_json() for o in classify_orbits(g, box)] == [o.as_json() for o in descs]
    assert "_engel_refine" not in calls and calls.count("quotient") == len(descs)
    assert calls.count("_ideal_scan") == len(scanned)
    assert calls.count("subalgebra_on") == len(below_g0) and g.full_space not in realized
    calls.clear()
    classify_orbits(g, grid_box(g, -3, 3))
    assert calls.count("in_admissible_cone") == calls.count("of") == 7
    assert calls.count("_normal_form") == 0          # every group is flat
