"""Differential tests: each shortcut in the orbit classification, the Clifford
verifier, the zero-skipping kernels, the sparse tower product, the rational
scalar path, the unit-lead elimination, the once-per-unordered-triple
Jacobi check, the even Cartan scan, the trace-form compactness verdict, the
trace prefilter and the parity blocks of the spectral test, the block-wise
Fitting null component, the graded-commutant solve and its elimination stop,
the derivation equations, the transporter solve, the bracket-form routine,
bracket and ad over the nonzero constants, the recorded Cartan verdicts and
the [g, g] containment route of the ideal test and the quotient against a
plain dense, pairwise, exhaustive or entry-by-entry formula written here,
against the code a shortcut replaced, against the generic tower path, or
against the standalone call it stands in for."""

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecones import cartan, cliffrep, cones, glinalg
from liecones.catalog import build, list_keys
from liecones.cliffrep import MatrixRep, clifford_module, gamma_matrices, parity_change, verify_rep
from liecones.cones import OddSquareForm, functional_value
from liecones.exactnum import (QQ, QQ_I, Field, FieldMismatchError, InputError, Poly, Scalar,
                               real_root_signs)
from liecones.glinalg import (GradedSpace, Matrix, Subspace, _roots_of_low_degree,
                              coordinate_subspace, eliminate, joint_eigenspaces, kernel, lin_comb,
                              rational_factors, roots_in_field, ungraded, unit_vector, vec_add,
                              vec_scale, vec_sub)
from liecones.lsa import (LieSuperalgebra, QuotientResult, bracket_form, bracket_span, center,
                          centroid, check_axioms, derivation_equations, derivations,
                          differential_constants, grassmann_extend, is_ideal, is_nilpotent,
                          quotient, series, subalgebra_on, supercommutant, transporter)
from liecones.orbits import (PolarizingSystem, _apply_exp, _normal_form, central_box,
                             classify_orbits, coadjoint_orbit_member, even_skew_form, grid_box,
                             in_admissible_cone, polarizing_flag, polarizing_system_from_m0)

TOWERS = (QQ, QQ_I, Field(False, 2), Field(True, 2))
small = st.integers(min_value=-3, max_value=3)


# ---------------------------------------------------------------------------
# orbit classification against a pairwise union-find
# ---------------------------------------------------------------------------

def layered_member(g: LieSuperalgebra, lam, lam2) -> bool:
    """Coadjoint membership by elimination along the lower central series of
    g0, the procedure the flag normal form replaced: each layer, deepest
    first, is matched by one exponential of the directions that keep the
    layers already matched.  Complete up to nilpotency class 3."""
    lam, lam2 = (tuple(g.field.coerce(x) for x in v) for v in (lam, lam2))
    e, f = g.space.even_dim, g.field
    g0 = g.even_part.algebra
    layers = series(g0, "lower_central")[:-1]            # c_1 > c_2 > ... > c_s
    assert len(layers) <= 3, "the layered procedure is complete up to class 3"
    if any(functional_value(lam, y) != functional_value(lam2, y) for y in layers[-1].rows):
        return False
    cur = lam
    h_rows = [unit_vector(f, e, j) for j in range(e)]
    for k in range(len(layers) - 2, -1, -1):
        layer = layers[k]
        sol = bracket_form(g0, cur, h_rows, layer.rows).transpose().solve(
            tuple(functional_value(lam2, y) - functional_value(cur, y) for y in layer.rows))
        if sol is None:
            return False
        cur = _apply_exp(g, cur, lin_comb(f, e, sol, h_rows))
        stage = bracket_form(g0, cur, h_rows, layer.rows).transpose()
        h_rows = [lin_comb(f, e, sol0, h_rows) for sol0 in stage.kernel_basis()]
    assert cur == lam2
    return True


def along(g: LieSuperalgebra, lam, path) -> tuple:
    """lam moved by every exponential of an orbit path in turn."""
    for w in path.exps:
        lam = _apply_exp(g, lam, w)
    return lam


def pairwise_partition(g, box) -> set[frozenset[int]]:
    """Orbits of the admissible box members, one layered membership test per pair."""
    admissible = [i for i, lam in enumerate(box) if in_admissible_cone(g, lam)[0]]
    parent = {i: i for i in admissible}

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for pos, a in enumerate(admissible):
        for b in admissible[pos + 1:]:
            if layered_member(g, box[a], box[b]):
                parent[find(b)] = find(a)
    orbits: dict[int, set[int]] = {}
    for i in admissible:
        orbits.setdefault(find(i), set()).add(i)
    return {frozenset(o) for o in orbits.values()}


ORBIT_ALGEBRAS = {key: build(key).algebra for key in ("h(1)", "hc(2|2,++)", "hc(2|2,+-)",
                                                       "n3super")}
ORBIT_ALGEBRAS["h(1) x Lambda(1)"] = grassmann_extend(ORBIT_ALGEBRAS["h(1)"], 1)
H1 = ORBIT_ALGEBRAS["h(1)"]


def direct_sum(g: LieSuperalgebra, h: LieSuperalgebra) -> LieSuperalgebra:
    """g (+) h with the even coordinates of both first."""
    ge, go, he = g.space.even_dim, g.space.odd_dim, h.space.even_dim
    maps = ([i if i < ge else i + he for i in range(g.dim)],
            [ge + i if i < he else ge + go + i for i in range(h.dim)])
    br = {}
    for m, a in zip(maps, (g, h)):
        for (i, j), out in a.brackets.items():
            br[(m[i], m[j])] = {m[k]: c for k, c in out.items()}
    return LieSuperalgebra(f"{g.name}+{h.name}", GradedSpace(ge + he, go + h.space.odd_dim),
                           g.field, br)


# filiform even parts of class 3 and 4: exp(ad w) has up to four terms
N4 = LieSuperalgebra.from_table("n4", QQ, ["E1", "E2", "E3", "E4"], [],
                                {("E1", "E2"): {"E3": 1}, ("E1", "E3"): {"E4": 1}})
N5 = LieSuperalgebra.from_table("n5", QQ, ["E1", "E2", "E3", "E4", "E5"], [],
                                {("E1", "E2"): {"E3": 1}, ("E1", "E3"): {"E4": 1},
                                 ("E1", "E4"): {"E5": 1}})
# every positive-rank group of n4 is below dim g0 - dim z(g0) = 3, so it reaches the
# member tests; h(1) (+) abelian(2|1) has a three-dimensional z(g0) and flat groups only
UNION_ALGEBRAS = dict(ORBIT_ALGEBRAS, n4=N4,
                      flat=direct_sum(H1, build("abelian(2|1)").algebra))


@st.composite
def boxes(draw, even_dim: int):
    """Integer functionals, some of them repeated."""
    point = st.tuples(*(st.integers(min_value=-2, max_value=2) for _ in range(even_dim)))
    box = draw(st.lists(point, min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(box), max_size=4))
    order = draw(st.permutations(box + repeats))
    return [tuple(QQ.rat(c) for c in lam) for lam in order]


@pytest.mark.parametrize("key", sorted(UNION_ALGEBRAS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_classify_orbits_matches_pairwise_union(key, data):
    g = UNION_ALGEBRAS[key]
    box = data.draw(boxes(g.space.even_dim))
    orbits = classify_orbits(g, box)
    assert {frozenset(o.members) for o in orbits} == pairwise_partition(g, box)
    for o in orbits:
        assert o.members == sorted(o.members)
        assert o.representative == box[o.members[0]]
    assert [o.members[0] for o in orbits] == sorted(o.members[0] for o in orbits)


@pytest.mark.parametrize("key", sorted(UNION_ALGEBRAS))
def test_only_groups_below_the_flat_rank_run_member_tests(key, monkeypatch):
    """Flat groups, rank Omega_lambda = dim g0 - dim z(g0), are one orbit each
    and need no normal form; n4 has none and computes them."""
    g = UNION_ALGEBRAS[key]
    calls = []
    monkeypatch.setattr("liecones.orbits._normal_form",
                        lambda *a: calls.append(a) or _normal_form(*a))
    classify_orbits(g, grid_box(g, -1, 1))
    assert bool(calls) == (key == "n4")


@pytest.mark.parametrize("key", sorted(UNION_ALGEBRAS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_member_verdicts_match_the_layered_procedure(key, data):
    """Two drawn functionals, and a functional against its image under a drawn
    exp(ad w): the flag normal form decides as the layered procedure does, and
    every path it returns carries lam to lam2."""
    g = UNION_ALGEBRAS[key]
    e = g.space.even_dim
    lam, lam2, w = (tuple(QQ.rat(c) for c in data.draw(st.lists(small, min_size=e, max_size=e)))
                    for _ in range(3))
    for other in (lam2, _apply_exp(g, lam, w)):
        path = coadjoint_orbit_member(g, lam, other)
        assert (path is not None) == layered_member(g, lam, other)
        assert path is None or along(g, lam, path) == other


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


# class 5 and class 4, beyond the reach of the layered procedure
N6 = LieSuperalgebra.from_table("n6", QQ, ["E1", "E2", "E3", "E4", "E5", "E6"], [],
                                {("E1", "E2"): {"E3": 1}, ("E1", "E3"): {"E4": 1},
                                 ("E1", "E4"): {"E5": 1}, ("E1", "E5"): {"E6": 1},
                                 ("E2", "E3"): {"E5": 1}, ("E2", "E4"): {"E6": 1}})
M6 = LieSuperalgebra.from_table("m6", QQ, ["E1", "E2", "E3", "E4", "E5", "E6"], [],
                                {("E1", "E2"): {"E3": 1}, ("E1", "E3"): {"E4": 1},
                                 ("E1", "E4"): {"E5": 1}, ("E2", "E3"): {"E6": 1}})
DEEP_ALGEBRAS = {"n5": N5, "n6": N6, "m6": M6}


@pytest.mark.parametrize("key", sorted(DEEP_ALGEBRAS))
def test_moved_functionals_are_members_beyond_class_3(key):
    g = DEEP_ALGEBRAS[key]
    rng = random.Random(key)
    e = g.space.even_dim
    for _ in range(40):
        lam, w = (tuple(QQ.rat(rng.randint(-3, 3)) for _ in range(e)) for _ in range(2))
        moved = _apply_exp(g, lam, w)
        path = coadjoint_orbit_member(g, lam, moved)
        assert path is not None and along(g, lam, path) == moved


def n5_orbit_key(lam) -> tuple:
    """The coadjoint orbit of lam on the filiform n5 ([E1, Ek] = Ek+1), by its
    invariants: lambda5, lambda3 lambda5 - lambda4^2/2 and lambda2 lambda5^2 -
    lambda3 lambda4 lambda5 + lambda4^3/3 when lambda5 != 0; on E5's
    annihilator the n4 invariants lambda4 and lambda2 lambda4 - lambda3^2/2,
    then lambda3; a functional vanishing on [g0, g0] is fixed."""
    l1, l2, l3, l4, l5 = lam
    half, third = QQ.rat(Fraction(1, 2)), QQ.rat(Fraction(1, 3))
    if l5:
        return 5, l5, l3 * l5 - half * l4 * l4, l2 * l5 * l5 - l3 * l4 * l5 + third * l4 * l4 * l4
    if l4:
        return 4, l4, l2 * l4 - half * l3 * l3
    return (3, l3) if l3 else (0, *lam)


def test_n5_grid_orbits_are_its_invariant_classes():
    rng = random.Random("n5")
    for _ in range(40):
        lam, w = ([QQ.rat(rng.randint(-3, 3)) for _ in range(5)] for _ in range(2))
        assert n5_orbit_key(_apply_exp(N5, tuple(lam), tuple(w))) == n5_orbit_key(lam)
    box = grid_box(N5, -1, 1)
    classes: dict[tuple, set[int]] = {}
    for i, lam in enumerate(box):
        classes.setdefault(n5_orbit_key(lam), set()).add(i)
    orbits = classify_orbits(N5, box)
    assert len(orbits) == 77
    assert {frozenset(o.members) for o in orbits} == {frozenset(c) for c in classes.values()}


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
# the per-algebra and per-invariant orbit shortcuts against the code they replaced
# ---------------------------------------------------------------------------

def oracle_apply_exp(g: LieSuperalgebra, lam, w):
    """The row series with ad(w) on g0 built by Matrix.combination and read
    column by column."""
    f = g.field
    g0 = g.even_part.algebra
    A = Matrix.combination(f, g0.dim, g0.dim, zip(w, g0.ad_basis))
    out = term = lam
    for k in range(1, len(lam) + 1):
        term = vec_scale(f.rat(Fraction(1, k)),
                         tuple(functional_value(term, col) for col in zip(*A.rows)))
        if all(not x for x in term):
            return out
        out = vec_add(out, term)
    raise AssertionError("ad(w) is not nilpotent on g0")


def pairwise_is_ideal(g: LieSuperalgebra, s: Subspace) -> tuple[bool, tuple | None]:
    """The ideal test without the [g, g] containment route: (False, (i, v))
    for the first [e_i, v] outside s, over the pairs with a structure
    constant."""
    supports = [[t for t, x in enumerate(v) if x] for v in s.rows]
    for gi in range(g.dim):
        for v, supp in zip(s.rows, supports):
            if any((gi, t) in g.brackets for t in supp) and \
                    not s.contains(g.bracket(g.basis_vector(gi), v)):
                return False, (gi, v)
    return True, None


def pairwise_quotient(g: LieSuperalgebra, ideal: Subspace, name: str | None = None):
    """The quotient with every ideal scanned pair by pair and every bracket of
    two complement vectors reduced mod the ideal."""
    if not ideal.is_graded():
        raise InputError("subspace is not graded")
    ok, witness = pairwise_is_ideal(g, ideal)
    if not ok:
        raise InputError(f"subspace is not a graded ideal; witness pair {witness}")
    comp = ideal.complement_coordinates()
    even_new = sum(1 for j in comp if g.parity(j) == 0)
    space = GradedSpace(even_new, len(comp) - even_new,
                        tuple(g.space.basis_names[j] + "~" for j in comp))
    posn = {j: t for t, j in enumerate(comp)}
    br = {}
    for a_t, a in enumerate(comp):
        for b_t, b in enumerate(comp):
            out = {posn[k]: x for k, x in enumerate(ideal.reduce(g.bracket_basis(a, b))) if x}
            if out:
                br[(a_t, b_t)] = out
    return QuotientResult(LieSuperalgebra(name or f"{g.name}/I", space, g.field, br), ideal)


def oracle_polarization(g: LieSuperalgebra, lam, m0: Subspace, flag_dims) -> PolarizingSystem:
    """The polarizing system on m0 built for every m0 alike: realize m = m0
    (+) g1, restrict j to m and eliminate it again there, with ker(lam|m0)
    from a kernel solve and the quotient from the pairwise scan."""
    e = g.space.even_dim
    gram = OddSquareForm.of(g, lam).matrix
    msub = subalgebra_on(g, m0.sum_with(g.odd_subspace), name=f"{g.name}|m")
    coeff = Matrix(g.field, [[functional_value(lam, b[:e]) for b in m0.rows]])
    ker_rows = [lin_comb(g.field, g.dim, sol, m0.rows) for sol in coeff.kernel_basis()]
    gram_kernel = gram.kernel_basis()
    rad_rows = [lin_comb(g.field, g.dim, sol, g.odd_subspace.rows) for sol in gram_kernel]
    j = Subspace(g.field, g.space, ker_rows + rad_rows)
    j_in_m = Subspace(g.field, msub.algebra.space, [msub.restrict(r) for r in j.rows])
    cliff = pairwise_quotient(msub.algebra, j_in_m, name=f"{g.name}|m/j")
    return PolarizingSystem(g, lam, msub.subspace, m0, j, cliff, even_skew_form(g, lam).rank(),
                            gram.nrows - len(gram_kernel), flag_dims)


def drawn_box(rng: random.Random, g: LieSuperalgebra) -> list:
    """The central box of g0 with coordinates -1..1 (a 3x3 grid on the
    abelian g0 of n3super), eight drawn integer functionals and repeats of two
    members."""
    box = central_box(g, -1, 1)
    box += [tuple(g.field.rat(rng.randint(-2, 2)) for _ in range(g.space.even_dim))
            for _ in range(8)]
    return box + rng.sample(box, 2)


@pytest.mark.parametrize("key", sorted(EXP_ALGEBRAS))
def test_constant_exponential_matches_the_combination_series(key):
    g = EXP_ALGEBRAS[key]
    rng = random.Random(key)
    e = g.space.even_dim
    for _ in range(40):
        lam, w = ([g.field.rat(rng.randint(-3, 3)) for _ in range(e)] for _ in range(2))
        assert _apply_exp(g, tuple(lam), tuple(w)) == oracle_apply_exp(g, tuple(lam), tuple(w))


@pytest.mark.parametrize("key", sorted(EXP_ALGEBRAS))
def test_polarizations_match_restrict_and_re_eliminate(key):
    """Every classified and every standalone polarization, m = g at the
    rank-0 points among them, against the restriction to m it skips."""
    g = EXP_ALGEBRAS[key]
    rng = random.Random(key)
    for _ in range(4):
        box = drawn_box(rng, g)
        systems = [o.polarizing for o in classify_orbits(g, box)]
        systems += [polarizing_flag(g, lam) for lam in box if in_admissible_cone(g, lam)[0]]
        assert any(ps.m0 == g.even_subspace for ps in systems)
        for ps in systems:
            assert ps.as_json() == oracle_polarization(g, ps.lam, ps.m0, ps.flag_dims).as_json()


@pytest.mark.parametrize("key", sorted(EXP_ALGEBRAS))
def test_keyed_admissibility_matches_fresh_tests(key):
    """classify_orbits tests one candidate per value on [g1, g1]; n3super has
    [g0, g0] = 0 but a two-dimensional [g1, g1]."""
    g = EXP_ALGEBRAS[key]
    rng = random.Random(key)
    for _ in range(4):
        box = drawn_box(rng, g)
        fresh = [in_admissible_cone(g, lam) for lam in box]
        descs = classify_orbits(g, box)
        assert sorted(i for o in descs for i in o.members) == \
            [i for i, (ok, _) in enumerate(fresh) if ok]
        for o in descs:
            for i in o.members:
                assert o.polarizing.odd_rank == fresh[i][1].matrix.rank()


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


HC_KEYS = ("cl(1|1,+)", "cl(1|1,-)", "cl(1|2,++)", "cl(1|3,+++)", "cl(1|4,++++)", "hc(2|2,++)")


def sheared(g: LieSuperalgebra, t: int) -> LieSuperalgebra:
    """g with its first odd basis vector f replaced by f + t f' (f' the last
    one), so that its odd Gram matrix is not diagonal.  Every bracket of a
    Heisenberg-Clifford algebra is a multiple of the even Z, whose coordinates
    the shear leaves alone."""
    odd = g.space.odd_indices()
    a, b = odd[0], odd[-1]
    basis = [g.basis_vector(k) for k in range(g.dim)]
    basis[a] = vec_add(basis[a], vec_scale(g.field.rat(t), basis[b]))
    names = g.space.basis_names
    table = {}
    for i in range(g.dim):
        for j in range(i, g.dim):
            br = g.bracket(basis[i], basis[j])
            if any(br):
                table[(names[i], names[j])] = {names[k]: x for k, x in enumerate(br) if x}
    return LieSuperalgebra.from_table(f"{g.name}~{t}", g.field,
                                      [names[k] for k in g.space.even_indices()],
                                      [names[k] for k in g.space.odd_indices()], table)


@st.composite
def classified_modules(draw):
    """A module that classify_heisenberg_clifford builds for a cl or hc key,
    sheared when it has two odd vectors: P^-1 then mixes the gamma matrices,
    and for three or more odd vectors the operators are not monomial."""
    g = build(draw(st.sampled_from(HC_KEYS))).algebra
    e = g.space.even_dim
    sign = g.bracket_basis(e, e)[e - 1].sign()      # [f1, f1] = +-Z, Z the last even vector
    if g.space.odd_dim >= 2:
        g = sheared(g, draw(st.sampled_from((1, 2, 3, -1))))
    # 2 |gamma| is a square, so the pivots need one square root between them
    gam = sign * draw(st.sampled_from((Fraction(2), Fraction(1, 2), Fraction(8))))
    res = cliffrep.classify_heisenberg_clifford(g, gam)
    return draw(st.sampled_from(res.modules))


@st.composite
def perturbed_modules(draw):
    """A spin module over Q(i) or Q(i, sqrt c), or a classified module, with
    at most one entry changed or one nonzero entry cancelled to zero."""
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=6))
        c = draw(st.sampled_from((2, 3)))
        norms = draw(st.lists(st.sampled_from((2, 8, 2 * c, 8 * c)), min_size=d, max_size=d))
        rep = clifford_module(d, norms)
    else:
        rep = draw(classified_modules())
    fld = rep.field
    how = draw(st.sampled_from(("none", "add", "cancel")))
    if how != "none":
        k = draw(st.integers(min_value=0, max_value=rep.algebra.dim - 1))
        rows = [list(r) for r in rep.mats[k].rows]
        if how == "add":
            i = draw(st.integers(min_value=0, max_value=rep.dim - 1))
            j = draw(st.integers(min_value=0, max_value=rep.dim - 1))
            delta = draw(st.sampled_from([fld.one, fld.i, -fld.one]
                                         + ([fld.sqrt] if fld.d else [])))
            rows[i][j] = rows[i][j] + delta
        else:
            i, j = draw(st.sampled_from([(i, j) for i, r in enumerate(rows)
                                         for j, x in enumerate(r) if x]))
            rows[i][j] = rows[i][j] - rows[i][j]
        mats = list(rep.mats)
        mats[k] = Matrix(fld, rows)
        rep = MatrixRep(rep.algebra, rep.even_dim, rep.odd_dim, tuple(mats))
    return rep


# each *_ok flag of a verify_rep report and the failure axiom it stands for
FLAG_AXIOMS = {"grading_ok": "grading", "anticommutator_ok": "anticommutator",
               "even_commutator_ok": "even_commutator", "hermitian_odd_ok": "hermitian_odd",
               "skew_even_ok": "skew_even", "prop61_ok": "prop61_vanishing"}


# not monomial, so some product entries sum several terms; tried on every run
MIXED_CL3 = cliffrep.classify_heisenberg_clifford(sheared(build("cl(1|3,+++)").algebra, 1),
                                                  2).modules[0]


@settings(max_examples=40, deadline=None)
@given(perturbed_modules())
@example(MIXED_CL3)
def test_verify_rep_matches_dense_checks(rep):
    report = verify_rep(rep)
    assert report["failures"] == dense_failures(rep)
    assert report["all_ok"] == (not report["failures"])
    assert {flag: report[flag] for flag in FLAG_AXIOMS} == {
        flag: not any(f["axiom"] == axiom for f in report["failures"])
        for flag, axiom in FLAG_AXIOMS.items()}


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
# rational scalars against the generic tower path of Q(i) and Q(sqrt 2)
# ---------------------------------------------------------------------------

rationals = st.one_of(st.just(Fraction(0)), st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=12)))


def through(fld: Field, op, *xs: Scalar):
    """op on xs promoted to fld, demoted back to Q when the result is a scalar."""
    out = op(*(x.promote(fld) for x in xs))
    return out.demote(QQ) if isinstance(out, Scalar) else out


@pytest.mark.parametrize("fld", (QQ_I, Field(False, 2)), ids=lambda f: f.tag)
@settings(max_examples=150, deadline=None)
@given(rationals, rationals)
def test_rational_scalars_match_the_generic_tower_path(fld, a, b):
    x, y = QQ.rat(a), QQ.rat(b)
    ops = (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
           lambda u, v: -u, lambda u, v: u == v, lambda u, v: bool(u))
    for op in ops:
        assert op(x, y) == through(fld, op, x, y)
    for z in (x + y, x - y, -x, x * y) + ((x.inverse(),) if x else ()):
        assert z.field is QQ and all(type(t) is Fraction for t in (z.a, z.b, z.c, z.e))
        zk = z.promote(fld)
        assert str(z) == str(zk) and hash(z) == hash(zk.demote(QQ))
        assert hash(z) == hash(("Q", z.a, z.b, z.c, z.e))
    if x:
        assert x.inverse() == through(fld, Scalar.inverse, x)
        assert x * x.inverse() == QQ.one
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        with pytest.raises(ZeroDivisionError):
            through(fld, Scalar.inverse, x)


def test_rational_scalars_keep_tower_checks_and_shared_constants():
    for f in TOWERS:
        assert f.zero is f.zero and f.one is f.one and f.zero.field is f
        assert f.rat(0) == f.zero and not f.zero and f.one == f.rat(1)
    for x, y in ((QQ.zero, QQ_I.zero), (QQ.one, QQ_I.one), (QQ.rat(3), QQ_I.i)):
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
                   lambda u, v: u / v):
            for u, v in ((x, y), (y, x)):
                with pytest.raises(FieldMismatchError):
                    op(u, v)
        assert x != y


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=5))
def test_unit_leads_give_the_rref_of_unscaled_rows(rows):
    raw = [{c: QQ.rat(x) for c, x in enumerate(r) if x} for r in rows]
    unit = [{c: x * r[min(r)].inverse() for c, x in r.items()} if r else r for r in raw]
    assert all(r[min(r)] == QQ.one for r in unit if r)
    assert eliminate(unit).rows == eliminate(raw).rows
    rref = eliminate(raw).rows                    # rows already in RREF: every lead is one
    assert eliminate([dict(r) for r in rref.values()]).rows == rref


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


# ---------------------------------------------------------------------------
# check_axioms against the rotation scan it replaced on antisymmetric input
# ---------------------------------------------------------------------------

def rotation_scan_axioms(g: LieSuperalgebra, max_violations: int) -> tuple:
    """check_axioms as it was without the unordered-triple route: graded
    Jacobi at every rotation of every key of T[a, b, c] = [e_a, [e_b, e_c]],
    in sorted order; the report as (parity_ok, antisymmetry_ok, jacobi_ok,
    violations)."""
    f, p = g.field, g.parity
    violations = []
    parity_ok = True
    for (i, j), out in g.brackets.items():
        for k, c in out.items():
            if c and p(k) != (p(i) + p(j)) % 2:
                parity_ok = False
                if len(violations) < max_violations:
                    violations.append(("parity", i, j, k))
    antisymmetry_ok = True
    for i, j in sorted({(min(q), max(q)) for q in g.brackets}):
        sign = f.one if p(i) * p(j) else -f.one
        lhs, rhs = g.c(i, j), g.c(j, i)
        if any(rhs.get(k, f.zero) != sign * lhs.get(k, f.zero) for k in set(lhs) | set(rhs)):
            antisymmetry_ok = False
            if len(violations) < max_violations:
                violations.append(("antisymmetry", i, j))
    T: dict = {}
    for (b, c), bc in g.brackets.items():
        for m, x in bc.items():
            for a in range(g.dim):
                for k, y in g.c(a, m).items():
                    acc = T.setdefault((a, b, c), {})
                    acc[k] = acc.get(k, f.zero) + x * y
    jacobi_ok = True
    for i, j, k in sorted({t for a, b, c in T for t in ((a, b, c), (b, c, a), (c, a, b))}):
        total = [f.zero] * g.dim
        for e, key in ((p(i) * p(k), (i, j, k)), (p(j) * p(i), (j, k, i)),
                       (p(k) * p(j), (k, i, j))):
            for m, x in T.get(key, {}).items():
                total[m] += f.rat((-1) ** e) * x
        if any(total):
            jacobi_ok = False
            if len(violations) < max_violations:
                violations.append(("jacobi", i, j, k))
    return parity_ok, antisymmetry_ok, jacobi_ok, violations


def random_table(rng: random.Random, antisymmetric: bool) -> LieSuperalgebra:
    """Random constants in -2..2 on a (e|o) space with e, o <= 3, of the
    right parity three times in four; with antisymmetric, each pair i <= j is
    drawn and (j, i) filled in by graded antisymmetry (an even [e_i, e_i] is
    left zero), else every ordered pair is drawn on its own."""
    e, o = rng.randint(0, 3), rng.randint(1, 3)
    space = GradedSpace(e, o, tuple(f"b{i}" for i in range(e + o)))
    p, graded = space.parity, rng.random() < 0.75
    br = {}
    for i in range(space.dim):
        for j in range(i if antisymmetric else 0, space.dim):
            if rng.random() < 0.5 or (antisymmetric and i == j and not p(i)):
                continue
            out = {k: QQ.rat(rng.randint(-2, 2)) for k in range(space.dim)
                   if rng.random() < 0.5 and (not graded or p(k) == (p(i) + p(j)) % 2)}
            br[(i, j)] = out
            if antisymmetric and i != j:
                br[(j, i)] = {k: c if p(i) * p(j) else -c for k, c in out.items()}
    return LieSuperalgebra("random", space, QQ, br)


def seeded_table(kind: str, seed) -> LieSuperalgebra:
    return random_table(random.Random(f"axioms {seed}"), kind == "antisymmetric")


@pytest.mark.parametrize("case", [*list_keys(), *(f"{kind} {seed}" for kind in
                                                  ("antisymmetric", "free") for seed in range(40))])
def test_check_axioms_matches_the_rotation_scan(case):
    """Catalog algebras, and seeded random tables with and without graded
    antisymmetry (most of them fail Jacobi), at the default cap of 25 and
    with no cap: the whole report, violations in order."""
    g = build(case).algebra if case in list_keys() else seeded_table(*case.split())
    for cap in (25, 10 ** 6):
        rep = check_axioms(g, cap)
        assert (rep.parity_ok, rep.antisymmetry_ok, rep.jacobi_ok, rep.violations) == \
            rotation_scan_axioms(g, cap)


def test_random_tables_reach_both_check_axioms_routes():
    """The seeded tables above include antisymmetric ones that fail Jacobi,
    with more than 25 violations or with brackets of the wrong parity, and
    mostly ones that are not antisymmetric."""
    anti, free = ([check_axioms(seeded_table(kind, seed), 10 ** 6) for seed in range(40)]
                  for kind in ("antisymmetric", "free"))
    assert any(r.antisymmetry_ok and len(r.violations) > 25 for r in anti)
    assert any(r.antisymmetry_ok and not r.parity_ok and not r.jacobi_ok for r in anti)
    assert sum(not r.antisymmetry_ok for r in free) >= 25


# ---------------------------------------------------------------------------
# the even Cartan scan against the exhaustive scan
# ---------------------------------------------------------------------------

def exhaustive_cartans(g: LieSuperalgebra, bound: int, cap: int):
    """Every candidate of the regular-element scan, with no stopping rule."""
    e, fld = g.space.even_dim, g.field
    seen = set()
    for ints in cartan.candidate_vectors(e, bound, cap):
        y = tuple(fld.rat(c) for c in ints) + (fld.zero,) * g.space.odd_dim
        nil = kernel(g.even_part.algebra.ad(y[:e]).power(e), GradedSpace(e, 0))
        h0 = Subspace(fld, g.space, [r + (fld.zero,) * g.space.odd_dim for r in nil.rows])
        if h0.rows not in seen:
            seen.add(h0.rows)
            if cartan.is_cartan_subalgebra_even.__wrapped__(g, h0):
                yield y, h0


def exhaustive_compact_cartan(g: LieSuperalgebra, bound: int, cap: int):
    """The first of at most 40 scanned Cartan subalgebras that certifies
    compactly embedded, or None; both tests run afresh, not read from the
    verdicts the scan recorded on g."""
    for found, (_, h0) in enumerate(exhaustive_cartans(g, bound, cap)):
        if found == 40:
            break
        if cartan.is_compactly_embedded.__wrapped__(g, h0) is True:
            return h0
    return None


def signed_permutation(g: LieSuperalgebra, perm: list[int], sign: list[int]) -> LieSuperalgebra:
    """g in the basis whose vector a is sign[a] times old vector perm[a]."""
    inv = {old: new for new, old in enumerate(perm)}
    br = {(inv[i], inv[j]): {inv[k]: c if sign[inv[i]] * sign[inv[j]] * sign[inv[k]] > 0 else -c
                             for k, c in out.items()}
          for (i, j), out in g.brackets.items()}
    return LieSuperalgebra(g.name, g.space, g.field, br)


Q2 = Field(False, 2)
SCAN_ALGEBRAS = {key: build(key).algebra for key in list_keys()}
for _g in (direct_sum(build("su(2)").algebra, build("h(1)").algebra),      # compact (+) nilpotent
           direct_sum(build("sl(2,R)").algebra, build("n3super").algebra),  # split (+) nilpotent
           direct_sum(build("su(2)").algebra, build("gl(1|1)").algebra),    # non-compact centre
           direct_sum(build("osp(1|2)").algebra, build("cl(1|2,+-)").algebra),
           grassmann_extend(build("osp(1|2)").algebra, 1),
           grassmann_extend(build("cl(1|2,++)").algebra, 1),
           LieSuperalgebra.from_table(                                     # centre acts by sqrt2
               "sl(2,R)+rot", Q2, ["H", "X", "Y", "C"], ["F1", "F2"],
               {("H", "X"): {"X": 2}, ("H", "Y"): {"Y": -2}, ("X", "Y"): {"H": 1},
                ("C", "F1"): {"F2": Q2.sqrt}, ("C", "F2"): {"F1": -Q2.sqrt}})):
    SCAN_ALGEBRAS[_g.name] = _g


@pytest.mark.parametrize("key", sorted(SCAN_ALGEBRAS))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_cartan_scan_matches_exhaustive_scan(key, data):
    g = SCAN_ALGEBRAS[key]
    e, n = g.space.even_dim, g.dim
    perm = data.draw(st.permutations(range(e))) + data.draw(st.permutations(range(e, n)))
    g = signed_permutation(g, perm, data.draw(st.lists(st.sampled_from((1, -1)),
                                                       min_size=n, max_size=n)))
    bound = data.draw(st.integers(min_value=1, max_value=3))
    cap = data.draw(st.integers(min_value=12, max_value=48))
    assert list(cartan.iter_cartan_even(g, bound, cap)) == list(exhaustive_cartans(g, bound, cap))
    assert cartan.compact_cartan_even(g, bound, cap) == exhaustive_compact_cartan(g, bound, cap)


# ---------------------------------------------------------------------------
# the exact compactness verdict against the sampled certificate it replaced
# ---------------------------------------------------------------------------

def sampled_compactly_embedded(g: LieSuperalgebra, k0: Subspace) -> object:
    """The certificate before the trace form: the spectral test on the basis
    rows, True for an abelian k0, then the spectral test on at most 40
    integer combinations with coordinates in [-2, 2]; a non-abelian k0 that
    passes them all stays UNDETERMINED."""
    for b in k0.rows:
        verdict = cartan._spectrum_purely_imaginary_semisimple(g, b)
        if verdict is not True:
            return verdict
    if bracket_span(g, k0, k0).dim == 0:
        return True
    for ints in cartan.candidate_vectors(k0.dim, 2, 40):
        v = lin_comb(g.field, g.dim, (g.field.rat(c) for c in ints), k0.rows)
        verdict = cartan._spectrum_purely_imaginary_semisimple(g, v)
        if verdict is not True:
            return verdict
    return cartan.UNDETERMINED


TRACE_FORM_ALGEBRAS = dict(SCAN_ALGEBRAS, **{key: build(key).algebra for key in (
    "su(2,0|1,0)", "su(1,0|2,0)", "sq(2,0)")})
for _g in (LieSuperalgebra.from_table(                                      # K, P, R elliptic
               "sl(2,R)-elliptic", QQ, ["K", "P", "R"], [],
               {("K", "P"): {"P": -2, "R": 2}, ("K", "R"): {"K": 4, "P": -4, "R": 2},
                ("P", "R"): {"K": 6, "P": -4}}),
           LieSuperalgebra.from_table(                                      # J, J + T1, J + T2
               "e(2)", QQ, ["A", "B", "C"], [],
               {("A", "B"): {"A": -1, "C": 1}, ("A", "C"): {"A": 1, "B": -1},
                ("B", "C"): {"A": 2, "B": -1, "C": -1}})):
    TRACE_FORM_ALGEBRAS[_g.name] = _g


@pytest.mark.parametrize("key", sorted(TRACE_FORM_ALGEBRAS))
def test_trace_form_verdict_never_contradicts_the_sampled_certificate(key):
    """On g0, [g1, g1] and the first six scanned Cartan subalgebras of the
    scan-test algebras, of three with a compact non-abelian g0 and of two
    non-compact algebras whose basis rows all pass the spectral test, the
    exact verdict repeats every True and False of the sampled certificate,
    and is UNDETERMINED only where a basis row has non-rational ad."""
    g = TRACE_FORM_ALGEBRAS[key]
    cartans = [h0 for _, h0 in islice(cartan.iter_cartan_even(g), 6)]
    for k0 in (g.even_subspace, g.odd_square, *cartans):
        verdict = cartan.is_compactly_embedded.__wrapped__(g, k0)
        oracle = sampled_compactly_embedded(g, k0)
        if oracle != cartan.UNDETERMINED:
            assert verdict is oracle
        if verdict == cartan.UNDETERMINED:
            assert not all(c.is_rational() for b in k0.rows for r in g.ad(b).rows for c in r)


# ---------------------------------------------------------------------------
# the compactness certificate against the minimal-polynomial test it replaced
# ---------------------------------------------------------------------------

def oracle_minpoly(A: Matrix) -> Poly:
    """Monic minimal polynomial, found by the first linear dependence of powers."""
    f, n = A.field, A.nrows
    powers = [Matrix.identity(f, n)]
    for _ in range(1, n + 2):
        flat = [[p.rows[i][j] for p in powers] for i in range(n) for j in range(n)]
        dep = Matrix(f, flat).kernel_basis()
        if dep:
            return Poly(f, dep[0]).monic()
        powers.append(powers[-1] * A)
    raise AssertionError("minpoly search failed")


def oracle_is_squarefree(p: Poly) -> bool:
    return p.degree == 0 or p.gcd(p.derivative()).degree == 0


def oracle_spectral(g: LieSuperalgebra, v) -> object:
    """ad(v) semisimple with imaginary spectrum, as decided before: a
    squarefree minimal polynomial, then Sturm counts on the squarefree part
    of charpoly(ad(v)^2)."""
    M = g.ad(v)
    if not all(c.is_rational() for r in M.rows for c in r):
        return cartan.UNDETERMINED
    if not oracle_is_squarefree(oracle_minpoly(M)):
        return False
    s = (M * M).charpoly().squarefree_part()
    neg, zero, pos = real_root_signs(s)
    return pos == 0 and neg + zero + pos == s.degree


def unfiltered_spectral(g: LieSuperalgebra, v) -> object:
    """The spectral test as it was before the tr((ad v)^2) prefilter: Sturm
    counts on s, the squarefree part of charpoly(ad(v)^2), then r(ad v) = 0."""
    M = g.ad(v)
    if not all(c.is_rational() for r in M.rows for c in r):
        return cartan.UNDETERMINED
    sq = M * M
    s = sq.charpoly().squarefree_part()
    neg, zero, pos = real_root_signs(s)
    if pos or neg + zero != s.degree:
        return False
    t, k = s.shift_out_root_zero()
    r = Matrix.identity(g.field, M.nrows)
    for c in reversed(t.coeffs[:-1]):
        r = r * sq
        r = Matrix(g.field, [row[:i] + (row[i] + c,) + row[i + 1:]
                             for i, row in enumerate(r.rows)])
    return (r * M if k else r).is_zero()


@pytest.mark.parametrize("key", sorted(SCAN_ALGEBRAS))
def test_spectral_certificate_matches_minimal_polynomial_test(key):
    """The scan candidates of the first ten Cartan subalgebras of the scan
    and their rows, in g and in a signed permutation of g.  A vector of the
    copy is compared with the oracle at the same element of g, whose ad is
    conjugate to it, and the oracle runs once per line, as rescaling ad(v)
    by a nonzero rational keeps both properties."""
    g, rng = SCAN_ALGEBRAS[key], random.Random(key)
    e, n = g.space.even_dim, g.dim
    perm = rng.sample(range(e), e) + rng.sample(range(e, n), n - e)
    sign = [rng.choice((1, -1)) for _ in range(n)]

    def in_g(v):                # vector a of the copy is sign[a] times vector perm[a] of g
        u = [None] * n
        for a, x in enumerate(v):
            u[perm[a]] = x if sign[a] > 0 else -x
        return tuple(u)

    verdicts: dict[tuple, object] = {}
    for alg, to_g in ((g, lambda v: v), (signed_permutation(g, perm, sign), in_g)):
        for y, h0 in islice(cartan.iter_cartan_even(alg), 10):
            for v in (y, *h0.rows):
                u = to_g(v)
                lead = next(x for x in u if x).inverse()
                line = tuple(x * lead for x in u)
                if line not in verdicts:
                    verdicts[line] = oracle_spectral(g, u)
                assert cartan._spectrum_purely_imaginary_semisimple(alg, v) == verdicts[line]


nonzero = st.integers(min_value=-3, max_value=3).filter(bool)


@st.composite
def spectral_blocks(draw) -> tuple[list[list[int]], bool]:
    """One real block and whether it is semisimple with imaginary spectrum."""
    kind = draw(st.sampled_from(("zero", "rotation", "companion", "nilpotent", "rotation jordan",
                                 "real", "complex")))
    if kind == "zero":
        return [[0]], True
    if kind == "rotation":
        t = draw(nonzero)
        return [[0, -t], [t, 0]], True
    if kind == "companion":                 # x^2 + a: imaginary roots iff a > 0
        a = draw(small)
        return [[0, -a], [1, 0]], a > 0
    if kind == "nilpotent":
        return [[0, 1], [0, 0]], False
    if kind == "rotation jordan":
        t = draw(nonzero)
        return [[0, -t, 1, 0], [t, 0, 0, 1], [0, 0, 0, -t], [0, 0, t, 0]], False
    if kind == "real":
        return [[draw(nonzero)]], False
    a, b = draw(nonzero), draw(small)         # a +- ib off the imaginary axis
    return [[a, -b], [b, a]], False


def block_diagonal(blocks: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


@st.composite
def conjugated_block_matrices(draw) -> tuple[Matrix, bool]:
    """P B P^-1 for a block-diagonal B of known verdict and a unimodular P = L U."""
    blocks = draw(st.lists(spectral_blocks(), min_size=1, max_size=3))
    B = block_diagonal([b for b, _ in blocks])
    n = len(B)
    entries = st.lists(st.integers(min_value=-2, max_value=2), min_size=n * n, max_size=n * n)
    lower, upper = draw(entries), draw(entries)
    L = Matrix(QQ, [[1 if i == j else lower[i * n + j] if j < i else 0 for j in range(n)]
                    for i in range(n)])
    U = Matrix(QQ, [[1 if i == j else upper[i * n + j] if j > i else 0 for j in range(n)]
                    for i in range(n)])
    P = L * U
    return P * Matrix(QQ, B) * P.inverse(), all(ok for _, ok in blocks)


def acting_on(M: Matrix) -> LieSuperalgebra:
    """R v |x Q^n with [v, x] = M x, so that ad(v) = 0 (+) M."""
    n = M.nrows
    names = [f"X{i}" for i in range(n)]
    return LieSuperalgebra.from_table("Rv|xQ^n", QQ, ["V"] + names, [], {
        ("V", names[j]): {names[i]: M.rows[i][j] for i in range(n)} for j in range(n)})


@settings(max_examples=80, deadline=None)
@given(conjugated_block_matrices())
@example((Matrix(QQ, block_diagonal([[[0]], [[0, -1], [1, 0]], [[0, 1], [-1, 0]]])), True))
@example((Matrix(QQ, [[1, -1], [1, 1]]), False))
@example((Matrix(QQ, block_diagonal([[[0, 1], [1, 0]], [[0, -2], [2, 0]]])), False))
@example((Matrix(QQ, block_diagonal([[[1, -1], [1, 1]], [[0, -3], [3, 0]]])), False))
def test_spectral_certificate_on_conjugated_block_matrices(case):
    """ad(v) = 0 (+) M.  The first example repeats an eigenvalue of M^2 and
    has s(0) = 0; in the second, M^2 has the eigenvalues +-2i, off the real
    line.  The last two have tr(M^2) < 0, so the trace prefilter passes them
    on: s = x (x - 1)(x + 4) has a positive root, and s = x (x^2 + 4)(x + 9)
    has two roots off the real line."""
    M, expected = case
    g = acting_on(M)
    v = g.basis_vector(0)
    assert cartan._spectrum_purely_imaginary_semisimple(g, v) is expected
    assert oracle_spectral(g, v) is expected


@st.composite
def rational_matrices(draw) -> Matrix:
    """Dense n x n matrices with entries p/q, p in -3..3 and q in 1..3."""
    n = draw(st.integers(min_value=1, max_value=4))
    entries = st.builds(Fraction, st.integers(min_value=-3, max_value=3),
                        st.integers(min_value=1, max_value=3))
    return Matrix(QQ, draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=n, max_size=n)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(conjugated_block_matrices().map(lambda case: case[0]), rational_matrices()))
@example(Matrix(QQ, [[0, -1], [1, 0]]))
@example(Matrix(QQ, [[0, 1], [0, 0]]))
@example(Matrix(QQ, [[0, 1], [1, 0]]))
def test_trace_prefilter_keeps_the_unfiltered_verdicts(M):
    """The prefilter returns False only where the full test does, on random
    rational block matrices and dense rational matrices.  The examples have
    tr(M^2) = -2, 0 and 2: a rotation passes, a nilpotent and a symmetric
    M fail."""
    g = acting_on(M)
    v = g.basis_vector(0)
    assert cartan._spectrum_purely_imaginary_semisimple(g, v) is unfiltered_spectral(g, v)


def whole_fitting_null(g: LieSuperalgebra, w0: Subspace) -> Subspace:
    """The joint kernel of ad(w)^n over the rows w of w0, on the whole matrix."""
    cur = g.full_space
    for w in w0.rows:
        cur = cur.intersect(kernel(g.ad(w).power(g.dim), g.space))
    return cur


@pytest.mark.parametrize("key", sorted(SCAN_ALGEBRAS))
def test_parity_blocks_match_the_whole_matrix(key):
    """The spectral test and the Fitting null component, block by block,
    against the whole-matrix spectral test without the prefilter and the
    kernel of ad(w)^n: at the scan candidates, the rows and the whole of the
    first ten Cartan subalgebras of the scan, and the centre rows of g0."""
    g = SCAN_ALGEBRAS[key]
    pad = (g.field.zero,) * g.space.odd_dim
    centre = [z + pad for z in center(g.even_part.algebra).rows]
    for y, h0 in islice(cartan.iter_cartan_even(g), 10):
        for v in (y, *h0.rows, *centre):
            assert cartan._spectrum_purely_imaginary_semisimple(g, v) == unfiltered_spectral(g, v)
        for w0 in (h0, g.subspace([y])):
            assert cartan.fitting_null(g, w0) == whole_fitting_null(g, w0)


# ---------------------------------------------------------------------------
# one graded-commutant solve against the three equation builders it replaced
# ---------------------------------------------------------------------------

def allowed_entries(g: LieSuperalgebra, s: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(g.dim) for q in range(g.dim)
            if (g.parity(p) - g.parity(q)) % 2 == s]


def solve_endomorphisms(g: LieSuperalgebra, s: int, equations) -> list[Matrix]:
    entries = allowed_entries(g, s)
    pos = {e: u for u, e in enumerate(entries)}
    basis = eliminate(equations(pos, s)).null_basis(len(entries), g.field.one)
    mats = []
    z = g.field.zero
    for sol in basis:
        m = [[z] * g.dim for _ in range(g.dim)]
        for u, val in sol.items():
            p, q = entries[u]
            m[p][q] = val
        mats.append(Matrix(g.field, m))
    return mats


def oracle_derivations(g: LieSuperalgebra) -> tuple[list[Matrix], list[Matrix]]:
    n = g.dim

    def eqs(pos, s):
        rows = []
        for i in range(n):
            pi = g.parity(i)
            sgn = g.field.rat((-1) ** (s * pi))
            for j in range(i, n):
                for m in range(n):
                    if (g.parity(m) - (pi + g.parity(j))) % 2 != s:
                        continue
                    row: dict = {}

                    def add(key, val):
                        u = pos.get(key)
                        if u is not None and val:
                            row[u] = row[u] + val if u in row else val

                    for k, cv in g.c(i, j).items():
                        add((m, k), cv)
                    for p in range(n):
                        add((p, i), -g.c(p, j).get(m, g.field.zero))
                        add((p, j), -(sgn * g.c(i, p).get(m, g.field.zero)))
                    rows.append(row)
        return rows

    return solve_endomorphisms(g, 0, eqs), solve_endomorphisms(g, 1, eqs)


def oracle_centroid(g: LieSuperalgebra) -> tuple[list[Matrix], list[Matrix]]:
    """(T L)[m][q] = (-1)^{|T||e_i|} (L T)[m][q] for L = ad(e_i), entry by entry."""
    n = g.dim
    ads = [g.ad(g.basis_vector(i)) for i in range(n)]

    def eqs(pos, s):
        rows = []
        for i in range(n):
            sgn = g.field.rat((-1) ** (s * g.parity(i)))
            L = ads[i]
            for m in range(n):
                for q in range(n):
                    row: dict = {}
                    for p in range(n):
                        for key, val in (((m, p), L.rows[p][q]), ((p, q), -(sgn * L.rows[m][p]))):
                            u = pos.get(key)
                            if u is not None and val:
                                row[u] = row[u] + val if u in row else val
                    rows.append(row)
        return rows

    return solve_endomorphisms(g, 0, eqs), solve_endomorphisms(g, 1, eqs)


def oracle_differential_constants(g: LieSuperalgebra) -> tuple[list[Matrix], list[Matrix]]:
    """The elements of the centroid basis span that supercommute with Der(g)."""
    der = oracle_derivations(g)
    out: tuple[list[Matrix], list[Matrix]] = ([], [])
    for s, cbasis in enumerate(oracle_centroid(g)):
        if not cbasis:
            continue
        rows = []
        for dparity, dmats in enumerate(der):
            sgn = g.field.rat((-1) ** (s * dparity))
            for D in dmats:
                comms = [C * D - (D * C).scale(sgn) for C in cbasis]
                for p in range(g.dim):
                    for q in range(g.dim):
                        rows.append({t: comms[t].rows[p][q] for t in range(len(cbasis))})
        for sol in eliminate(rows).null_basis(len(cbasis), g.field.one):
            out[s].append(Matrix.combination(g.field, g.dim, g.dim,
                                             ((val, cbasis[t]) for t, val in sol.items())))
    return out


def oracle_intertwiners(rep1: MatrixRep, rep2: MatrixRep, parity: int) -> list[Matrix]:
    """T with T rho1(x) = rho2(x) T, entry by entry, over the larger tower."""
    fld = rep2.field if rep2.field.extends(rep1.field) else rep1.field
    n1, n2 = rep1.dim, rep2.dim
    e1, e2 = rep1.even_dim, rep2.even_dim
    positions = [(i, j) for i in range(n2) for j in range(n1)
                 if (0 if (i < e2) == (j < e1) else 1) == parity]
    pos_index = {p: t for t, p in enumerate(positions)}
    rows = []
    for k in range(rep1.algebra.dim):
        A, B = rep2.mats[k].promote(fld), rep1.mats[k].promote(fld)
        for i in range(n2):
            for j in range(n1):
                row: dict = {}
                for p in range(n1):
                    t = pos_index.get((i, p))
                    if t is not None and B.rows[p][j]:
                        row[t] = row.get(t, fld.zero) + B.rows[p][j]
                for p in range(n2):
                    t = pos_index.get((p, j))
                    if t is not None and A.rows[i][p]:
                        row[t] = row.get(t, fld.zero) - A.rows[i][p]
                rows.append(row)
    out = []
    for sol in eliminate(rows).null_basis(len(positions), fld.one):
        M = [[fld.zero] * n1 for _ in range(n2)]
        for t, val in sol.items():
            i, j = positions[t]
            M[i][j] = val
        out.append(Matrix(fld, M))
    return out


def rows_of(mats: list[Matrix]) -> list[tuple]:
    return [M.rows for M in mats]


COMMUTANT_ALGEBRAS = {key: build(key).algebra for key in list_keys()}
for _g in (grassmann_extend(build("sl(2,R)").algebra, 2), grassmann_extend(build("h(1)").algebra, 2)):
    COMMUTANT_ALGEBRAS[_g.name] = _g


@pytest.mark.parametrize("key", sorted(COMMUTANT_ALGEBRAS))
def test_endomorphism_solves_match_entrywise_builders(key):
    g = COMMUTANT_ALGEBRAS[key]
    cen, dc, der = centroid(g), differential_constants(g), derivations(g)
    for family, (even, odd) in ((der, oracle_derivations(g)), (cen, oracle_centroid(g)),
                                (dc, oracle_differential_constants(g))):
        assert rows_of(family.even) == rows_of(even)
        assert rows_of(family.odd) == rows_of(odd)


def scan_derivation_equations(g: LieSuperalgebra, s: int, pos) -> list[dict]:
    """The derivation equation builder that scans every basis index p for
    c_pj^m and c_ip^m, n^4 lookups whether or not the constants are nonzero."""
    n = g.dim
    rows = []
    for i in range(n):
        pi = g.parity(i)
        sgn = g.field.rat((-1) ** (s * pi))
        for j in range(i, n):
            cij = g.c(i, j)
            for m in range(n):
                if (g.parity(m) - (pi + g.parity(j))) % 2 != s:
                    continue
                row: dict = {}

                def add(key, val):
                    u = pos.get(key)
                    if u is not None and val:
                        row[u] = row[u] + val if u in row else val

                for k, cv in cij.items():
                    add((m, k), cv)
                for p in range(n):
                    cpj = g.c(p, j).get(m)
                    if cpj:
                        add((p, i), -cpj)
                    cip = g.c(i, p).get(m)
                    if cip:
                        add((p, j), -(sgn * cip))
                if row:
                    rows.append(row)
    return rows


@pytest.mark.parametrize("key", sorted(dict(SCAN_ALGEBRAS, **COMMUTANT_ALGEBRAS)))
@pytest.mark.parametrize("shuffled", [False, True])
def test_derivation_equations_match_the_index_scan(key, shuffled):
    """The same rows, entry for entry, in the catalog basis or in a signed
    permutation of it drawn from a generator seeded by the key."""
    g = dict(SCAN_ALGEBRAS, **COMMUTANT_ALGEBRAS)[key]
    if shuffled:
        e, n, rng = g.space.even_dim, g.dim, random.Random(key)
        g = signed_permutation(g, rng.sample(range(e), e) + rng.sample(range(e, n), n - e),
                               [rng.choice((1, -1)) for _ in range(n)])
    for s in (0, 1):
        pos = {entry: u for u, entry in enumerate(allowed_entries(g, s))}
        assert derivation_equations(g, s, pos) == scan_derivation_equations(g, s, pos)


@pytest.mark.parametrize("d", range(1, 6))
def test_intertwiners_match_entrywise_builder(d):
    rep = clifford_module(d, [2, 4, 2, 8, 4][:d])        # Q(i) at d = 1, Q(i, sqrt 2) above
    plain = clifford_module(d, [2] * d)                 # over Q(i)
    wide = MatrixRep(plain.algebra, plain.even_dim, plain.odd_dim,
                     tuple(M.promote(Field(True, 2)) for M in plain.mats))
    pc = parity_change(rep)
    for rep1, rep2 in ((rep, pc), (pc, rep), (rep, rep), (plain, wide), (wide, plain)):
        for parity in (0, 1):
            got = cliffrep._intertwiner_space(rep1, rep2, parity)
            assert rows_of(got) == rows_of(oracle_intertwiners(rep1, rep2, parity))
    assert cliffrep._intertwiner_space(rep, pc, 1)          # the parity change is odd-equivalent


@pytest.mark.parametrize("key", list_keys())
def test_pinned_commutant_solves_match_unpinned_ones(key, monkeypatch):
    """Centroid, differential constants and the intertwiners of the adjoint
    module with itself, with the elimination stop, against the same solves
    reading every equation; on su(1,1|1,1) the stop leaves equations unread."""
    solve = glinalg.eliminate
    unread = []

    def tally(rows, n=None, stop=None):
        rows = iter(rows)
        out = solve(rows, n, stop)
        unread.append(sum(1 for _ in rows))
        return out

    def families():
        g = build(key).algebra
        g = LieSuperalgebra(g.name, g.space, g.field, g.brackets)
        rep = MatrixRep(g, g.space.even_dim, g.space.odd_dim, g.ad_basis)
        return [[rows_of(fam.even), rows_of(fam.odd)]
                for fam in (centroid(g), differential_constants(g))] + \
            [rows_of(cliffrep._intertwiner_space(rep, rep, s)) for s in (0, 1)]

    monkeypatch.setattr(glinalg, "eliminate", tally)
    pinned = families()
    monkeypatch.setattr(glinalg, "eliminate", lambda rows, n=None, stop=None: solve(rows, n))
    assert pinned == families()
    if key == "su(1,1|1,1)":
        assert sum(unread) > 0


# ---------------------------------------------------------------------------
# one transporter solve against the four loops it replaced
# ---------------------------------------------------------------------------

def oracle_joint_ad_kernel(g: LieSuperalgebra, h: Subspace) -> Subspace:
    """{X : [b, X] = 0 for every row b of h}: the stacked rows of the ad(b)."""
    rows = []
    for b in h.rows:
        rows.extend(g.ad(b).rows)
    if not rows:
        return g.full_space
    return Subspace(g.field, g.space, Matrix(g.field, rows).kernel_basis())


def oracle_normalizer(g: LieSuperalgebra, h: Subspace) -> Subspace:
    """{X : [b, X] in h for every row b of h}: the columns of each ad(b)
    reduced mod h, on h's complement coordinates."""
    if h.dim == 0:
        return g.full_space
    rows = []
    comp = h.complement_coordinates()
    for b in h.rows:
        adb = g.ad(b)
        red_cols = []
        for j in range(g.dim):
            resid = h.reduce(adb.col(j))
            red_cols.append([resid[c] for c in comp])
        rows.extend(list(rr) for rr in zip(*red_cols))
    if not rows:
        return g.full_space
    return Subspace(g.field, g.space, Matrix(g.field, rows).kernel_basis())


def oracle_engel_socle(g: LieSuperalgebra, cur: Subspace, top: Subspace) -> Subspace:
    """cur plus the X in top with [g0, X] in cur, from the ad_basis of g0."""
    e = g.space.even_dim
    odd_zeros = (g.field.zero,) * g.space.odd_dim
    rows = []
    comp = cur.complement_coordinates()
    for ad_even in g.even_part.algebra.ad_basis:
        red_cols = []
        for tb in top.rows:
            resid = cur.reduce(ad_even.apply(tb[:e]) + odd_zeros)
            red_cols.append([resid[c] for c in comp])
        rows.extend(list(rr) for rr in zip(*red_cols))
    if rows:
        sols = Matrix(g.field, rows).kernel_basis()
    else:
        sols = [unit_vector(g.field, top.dim, t) for t in range(top.dim)]
    return Subspace(g.field, g.space,
                    list(cur.rows) + [lin_comb(g.field, g.dim, sol, top.rows) for sol in sols])


def oracle_fixed_points(g: LieSuperalgebra, k0: Subspace) -> tuple[Subspace, Subspace]:
    """Joint kernel and summed images of the ad(b)|g0, b a row of k0, in g0's
    coordinates: one kernel per row, intersected."""
    e = g.space.even_dim
    even_amb = GradedSpace(e, 0)
    ker = None
    im_rows = []
    for b in k0.rows:
        ad_even = g.even_part.algebra.ad(b[:e])
        kb = kernel(ad_even, even_amb)
        ker = kb if ker is None else ker.intersect(kb)
        im_rows.extend(ad_even.col(j) for j in range(e))
    return ker, Subspace(g.field, even_amb, im_rows)


@pytest.mark.parametrize("key", sorted(SCAN_ALGEBRAS))
@pytest.mark.parametrize("shuffled", [False, True])
def test_transporter_matches_the_loops_it_replaced(key, shuffled):
    """Centre, supercommutant and normalizer of scanned Cartan subalgebras h0
    and of N_g(h0), the self-normalizing test in g0, the Engel socle steps and
    the fixed-point kernel and image, in the catalog basis or in a signed
    permutation of it drawn from a generator seeded by the key."""
    g = SCAN_ALGEBRAS[key]
    if shuffled:
        e, n, rng = g.space.even_dim, g.dim, random.Random(key)
        g = signed_permutation(g, rng.sample(range(e), e) + rng.sample(range(e, n), n - e),
                               [rng.choice((1, -1)) for _ in range(n)])
    e = g.space.even_dim
    full, zero, even = g.full_space, g.subspace([]), g.even_subspace
    assert center(g).rows == oracle_joint_ad_kernel(g, full).rows
    for _, h0 in islice(cartan.iter_cartan_even(g, 2, 24), 3):
        h = cartan.fitting_null(g, h0)
        assert supercommutant(g, h0).rows == oracle_joint_ad_kernel(g, h0).rows
        for s in (h0, h):
            assert cartan.normalizer(g, s).rows == oracle_normalizer(g, s).rows
        assert transporter(g, h0.rows, even, h0).rows == \
            oracle_normalizer(g, h0).intersect(even).rows
        if cartan.is_compactly_embedded(g, h0) is True:
            ker, im = oracle_fixed_points(g, h0)
            assert tuple(r[:e] for r in transporter(g, h0.rows, even, zero).rows) == ker.rows
            assert tuple(r[:e] for r in bracket_span(g, h0, even).rows) == im.rows
    flag = g.engel_flag if is_nilpotent(g.even_part.algebra) else ()
    for cur in (zero, *flag):
        for top in (g.odd_square, even):
            if cur != top and top.contains_subspace(cur):
                assert cur.sum_with(transporter(g, even.rows, top, cur)).rows == \
                    oracle_engel_socle(g, cur, top).rows


# ---------------------------------------------------------------------------
# one bracket-form routine against the seven loops it replaced
# ---------------------------------------------------------------------------

def oracle_odd_gram(g: LieSuperalgebra, lam) -> Matrix:
    """lam([f_a, f_b]) over the odd basis, one dense bracket per pair."""
    odd = list(g.space.odd_indices())
    return Matrix(g.field, [[functional_value(lam, g.bracket_basis(a, b)[:g.space.even_dim])
                             for b in odd] for a in odd])


def oracle_skew(g: LieSuperalgebra, lam) -> Matrix:
    """Omega_lambda on g0, one row lambda o ad(e_i) per even index, summed
    over the nonzero structure constants."""
    e = g.space.even_dim
    rows = [[g.field.zero] * e for _ in range(e)]
    for (i, j), out in g.brackets.items():
        if i < e and j < e:
            rows[i][j] = sum((lam[k] * c for k, c in out.items() if k < e and lam[k]),
                             g.field.zero)
    return Matrix(g.field, rows)


def oracle_form_on(omega: Matrix, rows) -> Matrix:
    """u^T Omega v over even rows of g."""
    images = [omega.apply(v[:omega.ncols]) for v in rows]
    return Matrix(omega.field, [[functional_value(u[:omega.ncols], w) for w in images]
                                for u in rows])


def oracle_stages(g: LieSuperalgebra, cur, h_rows, layer_rows) -> tuple[Matrix, Matrix]:
    """Both coadjoint stage matrices, [layer row y][direction w] = cur([w, y]),
    from the rows cur o ad(e_i): one built from columns, one from rows."""
    f, e = g.field, g.space.even_dim
    skew = oracle_skew(g, cur).rows
    wps = [lin_comb(f, e, w, skew) for w in h_rows]
    cols = [[functional_value(wp, y) for y in layer_rows] for wp in wps]
    rows = [[functional_value(wp, y) for wp in wps] for y in layer_rows]
    return Matrix.from_cols(f, cols), Matrix(f, rows)


def oracle_root_form(gc: LieSuperalgebra, muc, basis) -> Matrix:
    """mu([X, conj Y]) over a basis, one dense bracket per pair."""
    rows = []
    for x in basis:
        row = []
        for y in basis:
            v = gc.bracket(x, tuple(s.conjugate_i() for s in y))
            row.append(functional_value(muc, v[:gc.space.even_dim]))
        rows.append(row)
    return Matrix(gc.field, rows)


def oracle_mu_fixed(g: LieSuperalgebra, h0: Subspace, mu) -> bool:
    e = g.space.even_dim
    return not any(functional_value(mu, r[:e]) for r in bracket_span(g, h0, g.even_subspace).rows)


def oracle_hc_forms(g: LieSuperalgebra) -> tuple[Matrix, Matrix, dict]:
    """The coordinates on the central line of the even complement brackets
    and of the odd brackets, and the bracket table of the Clifford part."""
    zs = bracket_span(g, g.full_space, g.full_space)
    e = g.space.even_dim
    comp = [c for c in range(e) if c not in set(zs.pivots)]
    odd = list(g.space.odd_indices())
    omega, gram = (Matrix(g.field, [[zs.coords_of(g.bracket_basis(i, j))[0] for j in idx]
                                    for i in idx]) for idx in (comp, odd))
    names = [f"f{t+1}" for t in range(len(odd))]
    table = {}
    for a_t, a in enumerate(odd):
        for b_t, b in enumerate(odd):
            coords = zs.coords_of(g.bracket_basis(a, b))
            if coords and coords[0]:
                table[(names[a_t], names[b_t])] = {"Z": coords[0]}
    return omega, gram, table


def random_rows(rng: random.Random, fld: Field, n: int, support, count: int, imag: bool = False):
    """count vectors of length n, entries -3..3 (zeros included) on support;
    imag adds an imaginary part in the same range."""
    def entry():
        return fld.new(rng.randint(-3, 3), rng.randint(-3, 3) if imag else 0)
    return [tuple(entry() if c in support else fld.zero for c in range(n)) for _ in range(count)]


@pytest.mark.parametrize("key", sorted(SCAN_ALGEBRAS))
@pytest.mark.parametrize("shuffled", [False, True])
def test_bracket_form_matches_the_loops_it_replaced(key, shuffled):
    """The odd Gram matrix, Omega_lambda, its restriction to random even
    rows, both coadjoint stage matrices, mu([X, conj Y]) on random rows of
    the complexification, the Cartan-fixed test of mu and the Heisenberg-
    Clifford forms, at seeded random lambda, in the catalog basis or in a
    signed permutation of it."""
    g = SCAN_ALGEBRAS[key]
    rng = random.Random(f"{key}/{shuffled}")
    e, n, f = g.space.even_dim, g.dim, g.field
    if shuffled:
        g = signed_permutation(g, rng.sample(range(e), e) + rng.sample(range(e, n), n - e),
                               [rng.choice((1, -1)) for _ in range(n)])
    even, odd = range(e), range(e, n)
    for _ in range(3):
        lam = random_rows(rng, f, e, even, 1)[0]
        assert OddSquareForm.of(g, lam).matrix.rows == oracle_odd_gram(g, lam).rows
        assert even_skew_form(g, lam).rows == oracle_skew(g, lam).rows
        rows = random_rows(rng, f, n, even, rng.randint(0, 3))
        assert bracket_form(g, lam, rows, rows).rows == \
            oracle_form_on(oracle_skew(g, lam), rows).rows
        g0 = g.even_part.algebra
        h_rows = random_rows(rng, f, e, even, rng.randint(0, 3))
        layer = random_rows(rng, f, e, even, rng.randint(1, 3))
        stage = bracket_form(g0, lam, h_rows, layer).transpose()
        by_cols, by_rows = oracle_stages(g, lam, h_rows, layer)
        # with no directions left, the row-built oracle is len(layer) x 0
        assert stage.rows == by_cols.rows == (by_rows.rows if h_rows else ())
        assert stage.kernel_basis() == by_rows.kernel_basis()
        gc = g.complexify()
        muc = tuple(x.promote(gc.field) for x in lam)
        basis = random_rows(rng, gc.field, n, odd, rng.randint(1, 3), imag=True)
        assert bracket_form(gc, muc, basis, [tuple(s.conjugate_i() for s in y) for y in basis]
                            ).rows == oracle_root_form(gc, muc, basis).rows
    for _, h0 in islice(cartan.iter_cartan_even(g, 2, 24), 2):
        # the mu vanishing on [h0, g0], and one of them drawn at random
        image = [r[:e] for r in bracket_span(g, h0, g.even_subspace).rows]
        fixed = Matrix(f, image or [[f.zero] * e]).kernel_basis()
        coeffs = random_rows(rng, f, len(fixed), range(len(fixed)), 1)[0]
        for mu in (random_rows(rng, f, e, even, 1)[0], lin_comb(f, e, coeffs, fixed)):
            assert cones._mu_fixed_by_cartan(g, h0, mu) == oracle_mu_fixed(g, h0, mu)
    try:
        shape = cliffrep.heisenberg_clifford_shape(g)
    except InputError:
        return
    omega, gram, table = oracle_hc_forms(g)
    assert (shape.omega_even.rows, shape.gram_odd.rows) == (omega.rows, gram.rows)
    for gamma in (1, -1):
        res = cliffrep.classify_heisenberg_clifford(g, gamma)
        if res.modules:
            cl = LieSuperalgebra.from_table(f"{g.name}|cl", f, ["Z"],
                                            [f"f{t+1}" for t in range(n - e)], table)
            assert res.modules[0].algebra.brackets == cl.brackets


@pytest.mark.parametrize("key", ["osp(1|2)", "sq(1,1)", "su(1,1|1,1)"])
def test_root_space_forms_match_the_loop_they_replaced(key):
    """check_root_space_form on the odd root spaces over Q(i), at seeded
    random mu = nu o P fixed by the compact Cartan subalgebra."""
    g, rng = SCAN_ALGEBRAS[key], random.Random(key)
    e = g.space.even_dim
    h0 = cartan.compact_cartan_even(g)
    datum = cartan.root_decomposition(g, cartan.cartan_subsuperalgebra(g, h0))
    P = cartan.fixed_point_projection(g, h0)
    gc = datum.complexified
    for _ in range(3):
        mu = tuple(P.transpose().apply(random_rows(rng, g.field, e, range(e), 1)[0]))
        muc = tuple(x.promote(gc.field) for x in mu)
        roots = [r for r in datum.roots if not r.is_zero and r.odd_space.dim]
        forms = [oracle_root_form(gc, muc, r.odd_space.rows) for r in roots]
        assert [v["positive_definite"] for v in cones.check_root_space_form(g, datum, mu)] == \
            [cones.hermitian_is_positive_definite(G) for G in forms]
        for r, G in zip(roots, forms):
            basis = r.odd_space.rows
            assert bracket_form(gc, muc, basis, [tuple(s.conjugate_i() for s in y)
                                                 for y in basis]).rows == G.rows


# ---------------------------------------------------------------------------
# the parity-block root engine against the whole-space split it replaced
# ---------------------------------------------------------------------------

def oracle_roots(g: LieSuperalgebra, h0: Subspace) -> list[tuple]:
    """(values, even space, odd space) of each root, sorted by values: the
    joint eigenspaces of the full ad(H) on g^C, cut by the even and the odd
    coordinates."""
    gc = g.complexify()
    fld, amb = gc.field, gc.space
    status, joint = joint_eigenspaces([gc.ad(tuple(x.promote(fld) for x in b))
                                       for b in h0.rows], amb)
    assert status == "OK"
    even, odd = (coordinate_subspace(fld, amb, ix)
                 for ix in (amb.even_indices(), amb.odd_indices()))
    roots = [(tuple(mu * -fld.i for mu in evs), space.intersect(even), space.intersect(odd))
             for evs, space in joint]
    return sorted(roots, key=lambda r: tuple(str(v) for v in r[0]))


ROOT_ALGEBRAS = {key: g for key, g in {**SCAN_ALGEBRAS, **COMMUTANT_ALGEBRAS}.items()
                 if cartan.compact_cartan_even(g) is not None}


def test_root_algebras_cover_superalgebras_sums_and_extensions():
    assert {"su(1,1|1,1)", "sq(1,1)", "osp(1|2)", "osp(1|2)(x)Lambda(1)",
            "osp(1|2)+cl(1|2,+-)", "su(2)", "abelian(2|1)"} <= set(ROOT_ALGEBRAS)


@pytest.mark.parametrize("key", sorted(ROOT_ALGEBRAS))
@pytest.mark.parametrize("shuffled", [False, True])
def test_parity_block_roots_match_the_whole_space_split(key, shuffled):
    """Same root values, even and odd root spaces and order, in the catalog
    basis or a seeded signed permutation of it."""
    g = ROOT_ALGEBRAS[key]
    if shuffled:
        rng = random.Random(key)
        e, n = g.space.even_dim, g.dim
        g = signed_permutation(g, rng.sample(range(e), e) + rng.sample(range(e, n), n - e),
                               [rng.choice((1, -1)) for _ in range(n)])
    h0 = cartan.compact_cartan_even(g)
    datum = cartan.root_decomposition(g, cartan.cartan_subsuperalgebra(g, h0))
    assert [(r.values, r.even_space, r.odd_space) for r in datum.roots] == oracle_roots(g, h0)


def oracle_roots_in_field(p: Poly) -> tuple[dict, Poly | None]:
    """Roots of a rational p by trial division: each tower root of a factor
    is divided out of p for as long as it divides."""
    fld = p.field
    candidates = set()
    for f, _ in rational_factors(p):
        candidates.update(_roots_of_low_degree(f) or ())
    roots, rem = {}, p
    for lam in sorted(candidates, key=str):
        mult = 0
        while True:
            q, r = rem.divmod(Poly(fld, [-lam, fld.one]))
            if not r.is_zero():
                break
            rem, mult = q, mult + 1
        if mult:
            roots[lam] = mult
    return roots, rem if rem.degree > 0 else None


@pytest.mark.parametrize("fld", (QQ, QQ_I, Field(False, 2)), ids=lambda f: f.tag)
@settings(max_examples=60, deadline=None)
@given(lead=st.sampled_from((1, -1, 2, Fraction(-3, 4))),
       linear=st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=3),
       quad=st.sampled_from(((1, 0, 1), (-2, 0, 1))), k=st.integers(0, 3),
       cubic=st.booleans())
def test_rational_root_multiplicities_match_trial_division(fld, lead, linear, quad, k, cubic):
    """p = lead * prod (x - a)^m * q^k * (x^3 - 2)^[cubic] with q = x^2 + 1
    or x^2 - 2: q splits over Q(i) or Q(sqrt 2) with both roots of
    multiplicity k, and x^3 - 2 never splits."""
    p = Poly(fld, [lead])
    want: dict = {}
    for a, m in linear:
        for _ in range(m):
            p = p * Poly(fld, [-a, 1])
        want[fld.rat(a)] = want.get(fld.rat(a), 0) + m
    for _ in range(k):
        p = p * Poly(fld, quad)
    if cubic:
        p = p * Poly(fld, [-2, 0, 0, 1])
    roots, leftover = roots_in_field(p)
    assert (roots, leftover) == oracle_roots_in_field(p)
    assert {a: m for a, m in roots.items() if a.is_rational()} == want
    assert sum(roots.values()) + (leftover.degree if leftover else 0) == p.degree


# ---------------------------------------------------------------------------
# the sample-driven isotropic search against the three-stage search it replaced
# ---------------------------------------------------------------------------

def oracle_isotropic(g: LieSuperalgebra) -> tuple[str, tuple | None]:
    """(status, witness) of the search over basis squares, then f_a +- f_b,
    then the slices f_a + t f_b over every ordered pair a != b."""
    f, d = g.field, g.space.odd_dim
    if d == 0:
        return cones.UNDETERMINED, None
    basis = [g.basis_vector(i) for i in g.space.odd_indices()]
    squares = [g.bracket(v, v) for v in basis]
    for v, sq in zip(basis, squares):
        if not any(sq):
            return cones.ISOTROPIC_FOUND, v
    for a in range(d):
        for b in range(a + 1, d):
            for sgn in (f.one, -f.one):
                v = vec_add(basis[a], vec_scale(sgn, basis[b]))
                if not any(g.bracket(v, v)):
                    return cones.ISOTROPIC_FOUND, v
    for a in range(d):
        for b in range(d):
            if a == b:
                continue
            cross = g.bracket(basis[a], basis[b])
            polys = [p for p in (Poly(f, [squares[a][k], f.rat(2) * cross[k], squares[b][k]])
                                 for k in range(g.dim)) if not p.is_zero()]
            if not polys:
                continue
            gcd = polys[0]
            for p in polys[1:]:
                gcd = gcd.gcd(p)
            if gcd.degree == 0:
                continue
            for t in sorted(roots_in_field(gcd)[0], key=str):
                v = vec_add(basis[a], vec_scale(t, basis[b]))
                if t.is_real() and any(v) and not any(g.bracket(v, v)):
                    return cones.ISOTROPIC_FOUND, v
    return cones.UNDETERMINED, None


def random_odd_form(rng: random.Random, fld: Field) -> LieSuperalgebra:
    """Central even part Z_0..Z_{m-1} and odd brackets [f_a, f_b] = sum c Z_k
    with small coefficients, some in the tower; Jacobi holds trivially."""
    m, d = rng.choice((1, 1, 2)), rng.randint(2, 4)
    units = [fld.one] + [u for u in (fld.i if fld.has_i else None,
                                     fld.sqrt if fld.d else None) if u is not None]
    table = {}
    for a in range(d):
        for b in range(a, d):
            out = {}
            for k in range(m):
                c = rng.choice((-3, -2, -1, 0, 0, 1, 2, 3))
                if c:
                    out[f"Z{k}"] = fld.rat(c) * rng.choice(units) if rng.random() < 0.2 \
                        else fld.rat(c)
            table[(f"f{a}", f"f{b}")] = out
    return LieSuperalgebra.from_table("form", fld, [f"Z{k}" for k in range(m)],
                                      [f"f{a}" for a in range(d)], table)


def isotropic_inputs() -> list[LieSuperalgebra]:
    """Catalog algebras, each also in two seeded signed-permuted bases,
    Grassmann extensions and direct sums of small keys, and random odd forms
    over Q, Q(i), Q(sqrt 2) and Q(i, sqrt 3)."""
    out = []
    for key in list_keys():
        g = build(key).algebra
        out.append(g)
        rng = random.Random(f"isotropic:{key}")
        e, n = g.space.even_dim, g.dim
        for _ in range(2):
            out.append(signed_permutation(
                g, rng.sample(range(e), e) + rng.sample(range(e, n), n - e),
                [rng.choice((1, -1)) for _ in range(n)]))
    small = [build(k).algebra for k in ("cl(1|1,+)", "cl(1|1,-)", "cl(1|2,++)", "cl(1|2,+-)",
                                         "h(1)", "osp(1|2)", "gl(1|1)", "n3super")]
    out += [grassmann_extend(g, 1) for g in small]
    out += [direct_sum(g, h) for g in small[:4] for h in small[:4]]
    rng = random.Random("isotropic:forms")
    out += [random_odd_form(rng, fld) for fld in (QQ, QQ_I, Q2, Field(True, 3))
            for _ in range(60)]
    return out


def isotropic_stage(g: LieSuperalgebra, cert) -> str:
    """Which stage gave the verdict: a basis vector, f_a +- f_b, f_a + t f_b
    with t != 0, +-1, or none."""
    if cert.isotropic is None:
        return cert.details.get("search", cert.details.get("note"))
    coords = [x for x in cert.isotropic if x]
    return ("basis" if len(coords) == 1 else
            "pair" if coords[1] in (g.field.one, -g.field.one) else "slice")


def test_sample_driven_isotropic_search_matches_the_three_stage_search():
    """Same status and witness on every input; the inputs reach every stage.
    A search that finds no zero square hands on every sample, in order."""
    stages = set()
    for g in isotropic_inputs():
        samples: list = []
        cert = cones.find_isotropic_odd(g, samples)
        assert (cert.status, cert.isotropic) == oracle_isotropic(g), g.name
        if cert.isotropic is None:
            assert samples == list(cones._odd_square_samples(g)), g.name
        stages.add(isotropic_stage(g, cert))
    assert stages == {"basis", "pair", "slice", "basis, pairs, 2-dim slices", "no odd part"}


def test_star_reduced_reads_the_samples_the_isotropic_search_walked(monkeypatch):
    """On the projected-hull route of sq(1,1) the odd squares are built once."""
    walks = []
    samples_of = cones._odd_square_samples
    monkeypatch.setattr(cones, "_odd_square_samples", lambda g: walks.append(g) or samples_of(g))
    report = cones.star_reduced_report(build("sq(1,1)").algebra)
    assert report.certificate.details == {"route": "projected_square_hull"}
    assert len(walks) == 1


# ---------------------------------------------------------------------------
# bracket and ad over the nonzero constants against the dense loops
# ---------------------------------------------------------------------------

def dense_bracket(g: LieSuperalgebra, u, v) -> tuple:
    """[u, v] by the loop over every pair of coordinates."""
    acc = [g.field.zero] * g.dim
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if ui and vj:
                for k, s in g.c(i, j).items():
                    acc[k] = acc[k] + ui * vj * s
    return tuple(acc)


def dense_ad(g: LieSuperalgebra, v) -> Matrix:
    """ad(v) column by column: [v, e_j] by the dense loop."""
    return Matrix.from_cols(g.field, [dense_bracket(g, v, g.basis_vector(j))
                                      for j in range(g.dim)])


def over(g: LieSuperalgebra, fld: Field) -> LieSuperalgebra:
    """g with its constants promoted to the tower fld."""
    return LieSuperalgebra(g.name, g.space, fld, {p: {k: s.promote(fld) for k, s in out.items()}
                                                  for p, out in g.brackets.items()})


def random_vector(rng: random.Random, fld: Field, n: int) -> tuple:
    """About half the coordinates zero; the others p/q with every coordinate
    of the tower drawn."""
    def coord(on):
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if on else 0
    return tuple(fld.new(coord(True), coord(fld.has_i), coord(fld.d), coord(fld.has_i and fld.d))
                 if rng.random() < 0.5 else fld.zero for _ in range(n))


BRACKET_TOWERS = (QQ, QQ_I, Q2, Field(True, 3))


@pytest.mark.parametrize("key", sorted(SCAN_ALGEBRAS))
def test_bracket_and_ad_match_the_dense_loops(key):
    """The catalog keys, direct sums and Grassmann extensions, each also in a
    signed permutation of its basis and complexified, at random vectors over
    every tower of Q, Q(i), Q(sqrt 2) and Q(i, sqrt 3) that extends its own."""
    g, rng = SCAN_ALGEBRAS[key], random.Random(f"bracket:{key}")
    e, n = g.space.even_dim, g.dim
    shuffled = signed_permutation(g, rng.sample(range(e), e) + rng.sample(range(e, n), n - e),
                                  [rng.choice((1, -1)) for _ in range(n)])
    for h in (g, shuffled, g.complexify()):
        for fld in BRACKET_TOWERS:
            if not fld.extends(h.field):
                continue
            a = over(h, fld)
            for _ in range(2):
                u, v = random_vector(rng, fld, n), random_vector(rng, fld, n)
                assert a.bracket(u, v) == dense_bracket(a, u, v)
                assert a.ad(u) == dense_ad(a, u)
    assert g.ad_basis == tuple(dense_ad(g, g.basis_vector(j)) for j in range(n))


# ---------------------------------------------------------------------------
# recorded Cartan and compactness verdicts against fresh ones
# ---------------------------------------------------------------------------

def test_recorded_verdicts_are_per_algebra_and_subspace(monkeypatch):
    """After the scan certifies h0, cartan_subsuperalgebra and the fixed-point
    projection make no spectral test on the same algebra, yet a non-Cartan
    subspace is still refused and a second algebra object with the same
    constants recomputes the same verdicts.  An input that raises is not
    recorded."""
    su = build("su(1,1|1,1)").algebra
    g = LieSuperalgebra(su.name, su.space, su.field, su.brackets)
    h0 = cartan.compact_cartan_even(g)
    spectral = cartan._spectrum_purely_imaginary_semisimple
    calls = []
    monkeypatch.setattr(cartan, "_spectrum_purely_imaginary_semisimple",
                        lambda *a: calls.append(a[0]) or spectral(*a))
    data = cartan.cartan_subsuperalgebra(g, h0)
    cartan.fixed_point_projection(g, h0)
    assert data.compactly_embedded is True and calls == []
    line = g.subspace([h0.rows[0]])
    with pytest.raises(InputError):
        cartan.cartan_subsuperalgebra(g, line)
    with pytest.raises(InputError):
        cartan.cartan_subsuperalgebra(g, g.even_subspace)
    odd = g.subspace([g.basis_vector(g.space.even_dim)])
    recorded = dict(g.verdicts)
    with pytest.raises(InputError):
        cartan.is_compactly_embedded(g, odd)
    assert g.verdicts == recorded
    twin = LieSuperalgebra(su.name, su.space, su.field, su.brackets)
    assert twin.verdicts == {}
    assert cartan.cartan_subsuperalgebra(twin, h0) == data
    assert calls and set(calls) == {twin}
    assert twin.verdicts == {key: g.verdicts[key] for key in twin.verdicts}


# ---------------------------------------------------------------------------
# the [g, g] containment route of is_ideal and quotient against the pairwise scan
# ---------------------------------------------------------------------------

def graded_subspaces(rng: random.Random, g: LieSuperalgebra) -> list[Subspace]:
    """The series members, the centre and [g1, g1]; [g, g] plus drawn
    homogeneous vectors; drawn homogeneous spans; and a drawn part of [g, g]
    plus one more drawn vector."""
    chain = series(g, "lower_central")
    square = bracket_span(g, g.full_space, g.full_space)
    n, f = g.dim, g.field
    parts = (g.space.even_indices(), g.space.odd_indices())

    def drawn(count):
        return [random_rows(rng, f, n, parts[rng.randint(0, 1)], 1)[0] for _ in range(count)]
    out = [*chain, *series(g, "derived"), center(g), g.odd_square]
    for _ in range(6):
        out.append(square.sum_with(g.subspace(drawn(rng.randint(0, 2)))))
        out.append(g.subspace(drawn(rng.randint(1, 3))))
        out.append(g.subspace(rng.sample(square.rows, square.dim // 2) + drawn(1)))
    return out


@pytest.mark.parametrize("key", sorted(SCAN_ALGEBRAS))
def test_ideal_containment_route_matches_the_pairwise_scan(key):
    """is_ideal's verdict and witness and quotient's table or error equal the
    pairwise scan and bracket loop's, on subspaces that contain [g, g], ideals
    that do not and subspaces that are no ideal."""
    g = SCAN_ALGEBRAS[key]
    rng = random.Random(key)
    square = bracket_span(g, g.full_space, g.full_space)
    routes = set()
    for s in graded_subspaces(rng, g):
        assert s.is_graded()
        verdict = pairwise_is_ideal(g, s)
        assert is_ideal(g, s) == verdict
        routes.add((s.contains_subspace(square), verdict[0]))
        if verdict[0]:
            assert quotient(g, s).algebra.to_json() == pairwise_quotient(g, s).algebra.to_json()
        else:
            errors = []
            for build_quotient in (quotient, pairwise_quotient):
                with pytest.raises(InputError) as err:
                    build_quotient(g, s)
                errors.append(str(err.value))
            assert errors[0] == errors[1]
    # an abelian g has [g, g] = 0, so every subspace takes the containment route
    assert routes == ({(True, True), (False, True), (False, False)} if g.brackets
                      else {(True, True)})


# ---------------------------------------------------------------------------
# the PD search against the scan and climb its one scoring step replaced
# ---------------------------------------------------------------------------

def scan_and_climb(g: LieSuperalgebra, bound: int, cap: int, hill_steps: int):
    """find_pd_functional as it was before its scan and climb shared one
    scoring step: the climb tries coordinate j, then +2^-k and -2^-k for
    k = 0..3, and moves to the first neighbour that scores higher."""
    e, d = g.space.even_dim, g.space.odd_dim
    f = g.field
    if d == 0:
        return cones.ConeCertificate(cones.POINTED_CERTIFIED, lam=tuple(f.zero for _ in range(e)),
                                     details={"odd_dim": 0, "note": "no odd part"})
    best_lam = None
    best_score = -1
    for ints in cartan.candidate_vectors(e, bound, cap):
        lam = tuple(f.rat(c) for c in ints)
        score = cones._pd_prefix_score(OddSquareForm.of(g, lam).matrix)
        if score == d:
            return cones.certify_pointed(g, lam)
        if score > best_score:
            best_score, best_lam = score, lam
    if best_lam is None:
        return cones.ConeCertificate(cones.UNDETERMINED, details={"budget": "scan exhausted"})
    lam = best_lam
    steps = [f.rat(Fraction(1, 2) ** k) for k in range(0, 4)]
    for _ in range(hill_steps):
        improved = False
        for j in range(e):
            for s in steps:
                for sgn in (1, -1):
                    cand = list(lam)
                    cand[j] = cand[j] + s * f.rat(sgn)
                    sc = cones._pd_prefix_score(OddSquareForm.of(g, cand).matrix)
                    if sc == d:
                        return cones.certify_pointed(g, tuple(cand))
                    if sc > best_score:
                        best_score, lam = sc, tuple(cand)
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    return cones.ConeCertificate(cones.UNDETERMINED,
                                 details={"budget": "hill climb exhausted",
                                          "best_score": best_score, "odd_dim": d})


def random_odd_square_table(rng: random.Random) -> LieSuperalgebra:
    """Central even part Z_0..Z_(e-1), e <= 3, and [f_a, f_b] = sum c Z_k with
    c in -2..2 on d <= 3 odd vectors; Jacobi holds trivially."""
    e, d = rng.randint(1, 3), rng.randint(1, 3)
    table = {(f"f{a}", f"f{b}"): {f"Z{k}": rng.randint(-2, 2) for k in range(e)}
             for a in range(d) for b in range(a, d)}
    return LieSuperalgebra.from_table("odd squares", QQ, [f"Z{k}" for k in range(e)],
                                      [f"f{a}" for a in range(d)], table)


def test_pd_search_matches_the_scan_and_climb_it_replaced():
    """Same certificate or budget report, byte for byte, on seeded odd-square
    tables and four budgets; the draws reach a scan certificate, a certificate
    only the climb finds, an exhausted scan and an exhausted climb."""
    rng = random.Random(7)
    outcomes = set()
    for _ in range(60):
        g = random_odd_square_table(rng)
        for bound, cap, hill_steps in ((1, 2, 200), (1, 3, 5), (2, 10, 50), (1, 0, 10)):
            want = scan_and_climb(g, bound, cap, hill_steps)
            assert cones.find_pd_functional(g, bound, cap, hill_steps).as_json() == \
                want.as_json(), (g.brackets, bound, cap, hill_steps)
            if want.status == cones.POINTED_CERTIFIED:
                outcomes.add("scan" if scan_and_climb(g, bound, cap, 0).status == want.status
                             else "climb")
            else:
                outcomes.add(want.details["budget"])
    assert outcomes == {"scan", "climb", "scan exhausted", "hill climb exhausted"}
