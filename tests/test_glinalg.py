from fractions import Fraction

import pytest

from liecones.exactnum import Field, QQ, QQ_I
from liecones.glinalg import (
    GradedSpace, Matrix, Subspace, generalized_eigenspaces, image,
    joint_eigenspaces, kernel, roots_in_field, ungraded,
)
from liecones.exactnum import Poly

Q2 = Field(False, 2)


def M(fld, rows):
    return Matrix(fld, rows)


def test_kernel_image_examples():
    z = M(QQ, [[0, 0], [0, 0]])
    assert kernel(z).dim == 2                      # kernel of zero 2x2 map
    ident = Matrix.identity(QQ, 3)
    assert image(ident).dim == 3                   # image of identity
    assert M(QQ, [[1, 1], [0, 1]]).solve((QQ.rat(2), QQ.rat(1))) == (QQ.one, QQ.one)


def test_solve_none_when_inconsistent():
    assert M(QQ, [[1, 0], [1, 0]]).solve((QQ.one, QQ.rat(2))) is None


def test_rank_nullity():
    A = M(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert A.rank() + kernel(A).dim == A.ncols


def test_rref_idempotent_canonical():
    A = M(QQ, [[2, 4], [1, 3]])
    R1, _ = A.rref()
    R2, _ = R1.rref()
    assert R1 == R2


def test_det_inverse_charpoly():
    A = M(QQ, [[2, 1], [1, 1]])
    assert A.det() == QQ.one
    assert A.inverse() * A == Matrix.identity(QQ, 2)
    cp = A.charpoly()
    # x^2 - 3x + 1
    assert cp == Poly(QQ, [1, -3, 1])
    assert A.minpoly() == cp


def test_charpoly_matches_det():
    A = M(QQ, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    # det(xI - A) at x=0 equals det(-A)
    assert A.charpoly()(QQ.zero) == A.scale(QQ.rat(-1)).det()


def test_exp_nilpotent():
    N = M(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    E = N.exp_nilpotent()
    assert E == M(QQ, [[1, 1, Fraction(1, 2)], [0, 1, 1], [0, 0, 1]])
    with pytest.raises(Exception):
        Matrix.identity(QQ, 2).exp_nilpotent()


def test_generalized_eigenspaces_examples():
    es = generalized_eigenspaces(M(QQ, [[2, 0, 0], [0, 2, 0], [0, 0, 3]]))
    assert es.ok
    dims = {str(lam): sp.dim for lam, sp in es.pairs}
    assert dims == {"2": 2, "3": 1}

    rot = M(QQ_I, [[0, -1], [1, 0]])
    es = generalized_eigenspaces(rot)
    assert es.ok
    assert {str(lam): sp.dim for lam, sp in es.pairs} == {"1*i": 1, "-1*i": 1}

    jordan = M(QQ, [[0, 1], [0, 0]])
    es = generalized_eigenspaces(jordan)
    assert es.ok
    assert len(es.pairs) == 1 and es.pairs[0][1].dim == 2 and not es.pairs[0][0]


def test_splitting_failure_is_result_not_exception():
    rot = M(QQ, [[0, -1], [1, 0]])     # eigenvalues +-i, not in Q
    es = generalized_eigenspaces(rot)
    assert es.status == "SPLITTING_FAILURE"
    # degree-2 splits in the right tower
    es2 = generalized_eigenspaces(M(Q2, [[0, 2], [1, 0]]))   # eigenvalues +-sqrt2
    assert es2.ok
    vals = sorted(str(lam) for lam, _ in es2.pairs)
    assert vals == ["-1*sqrt2", "1*sqrt2"]
    # irreducible cubic -> failure
    comp = M(QQ, [[0, 0, 2], [1, 0, 0], [0, 1, 0]])          # x^3 - 2
    assert generalized_eigenspaces(comp).status == "SPLITTING_FAILURE"


def test_roots_in_field_complex_coeffs():
    # (x - i)(x - 2) over Q(i)
    p = Poly(QQ_I, [QQ_I.rat(2) * QQ_I.i, -QQ_I.rat(2) - QQ_I.i, QQ_I.one])
    roots, leftover = roots_in_field(p)
    assert leftover is None
    assert roots == {QQ_I.i: 1, QQ_I.rat(2): 1}


def test_eigenspaces_sum_to_ambient():
    A = M(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 5]])
    es = generalized_eigenspaces(A)
    assert es.ok and sum(sp.dim for _, sp in es.pairs) == 3


def test_joint_eigenspaces_order_independent():
    A = M(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    B = M(QQ, [[3, 0, 0], [0, 4, 0], [0, 0, 4]])
    st1, dec1 = joint_eigenspaces([A, B])
    st2, dec2 = joint_eigenspaces([B, A])
    assert st1 == st2 == "OK"
    s1 = {tuple(str(x) for x in evs): sp for evs, sp in dec1}
    s2 = {tuple(reversed([str(x) for x in evs])): sp for evs, sp in dec2}
    assert s1 == s2
    assert sum(sp.dim for _, sp in dec1) == 3


def test_subspace_graded_parts():
    amb = GradedSpace(2, 2)
    S = Subspace(QQ, amb, [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert S.is_graded()
    assert S.even_part().dim == 1 and S.odd_part().dim == 1
    T = Subspace(QQ, amb, [(1, 0, 1, 0)])
    assert not T.is_graded()


def test_subspace_ops():
    amb = ungraded(3)
    S = Subspace(QQ, amb, [(1, 0, 0), (0, 1, 0)])
    T = Subspace(QQ, amb, [(0, 1, 0), (0, 0, 1)])
    assert S.intersect(T).dim == 1
    assert S.sum_with(T).dim == 3
    assert S.contains((QQ.rat(2), QQ.rat(-3), QQ.zero))
    assert not S.contains((QQ.zero, QQ.zero, QQ.one))
    assert S.coords_of((QQ.rat(2), QQ.rat(-3), QQ.zero)) == (QQ.rat(2), QQ.rat(-3))
    # canonicalization is idempotent
    S2 = Subspace(QQ, amb, S.rows)
    assert S2 == S and S2.rows == S.rows


from hypothesis import given, settings
from hypothesis import strategies as st

small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=m, max_size=m),
            min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_nullity_random(rows):
    A = M(QQ, rows)
    assert A.rank() + len(A.kernel_basis()) == A.ncols
    for v in A.kernel_basis():
        assert all(not x for x in A.apply(v))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rref_idempotent_random(rows):
    A = M(QQ, rows)
    R1, p1 = A.rref()
    R2, p2 = R1.rref()
    assert R1 == R2 and p1 == p2


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_solve_consistency_random(rows):
    A = M(QQ, rows)
    # b in the image: A x0 with x0 = (1, ..., 1) must be solvable and verify
    x0 = tuple(QQ.one for _ in range(A.ncols))
    b = A.apply(x0)
    x = A.solve(b)
    assert x is not None and A.apply(x) == b


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                         min_size=3, max_size=3), min_size=3, max_size=3))
def test_charpoly_cayley_hamilton_random(rows):
    A = M(QQ, rows)
    cp = A.charpoly()
    acc = Matrix.zero(QQ, 3, 3)
    power = Matrix.identity(QQ, 3)
    for c in cp.coeffs:
        acc = acc + power.scale(c)
        power = power * A
    assert acc.is_zero()


# ---------------------------------------------------------------------------
# differential tests of the elimination kernel
# ---------------------------------------------------------------------------

import itertools

import sympy

from liecones.cones import is_positive_semidefinite, leading_principal_minors

QI2 = Field(True, 2)

rational_entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


def rational_matrices(max_rows=5, max_cols=6):
    return st.integers(1, max_rows).flatmap(lambda m: st.integers(1, max_cols).flatmap(
        lambda n: st.lists(st.lists(rational_entries, min_size=n, max_size=n),
                           min_size=m, max_size=m)))


def fracs(rows):
    return [[x.as_fraction() for x in r] for r in rows]


def sympy_fracs(S):
    return [[Fraction(int(x.p), int(x.q)) for x in S.row(i)] for i in range(S.rows)]


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_kernel_matches_sympy_random(rows):
    A = M(QQ, rows)
    S = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
    R, piv = A.rref()
    SR, spiv = S.rref()
    assert piv == tuple(spiv)
    assert fracs(R.rows) == sympy_fracs(SR)
    assert A.rank() == S.rank()
    kern = [list(v) for v in A.kernel_basis()]
    assert [[x.as_fraction() for x in v] for v in kern] == \
        [[Fraction(int(x.p), int(x.q)) for x in v] for v in S.nullspace()]
    k = min(A.nrows, A.ncols)                    # det of the leading square block
    d = S[:k, :k].det()
    assert M(QQ, [r[:k] for r in rows[:k]]).det().as_fraction() == Fraction(int(d.p), int(d.q))


def sympy_particular_solution(S, b):
    """sympy's solution of S x = b with every free parameter 0, or None."""
    try:
        sol, params = S.gauss_jordan_solve(sympy.Matrix([sympy.Rational(v) for v in b]))
    except ValueError:                           # inconsistent system
        return None
    return [Fraction(int(v.p), int(v.q)) for v in sol.subs({p: 0 for p in params})]


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_matches_sympy_random(rows, data):
    A = M(QQ, rows)
    S = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
    rhs = [data.draw(st.lists(rational_entries, min_size=A.nrows, max_size=A.nrows))
           for _ in range(2)]
    rhs.append([sum(r, Fraction(0)) for r in rows])      # A (1, ..., 1): consistent
    for b in rhs:
        x = A.solve(tuple(QQ.rat(v) for v in b))
        want = sympy_particular_solution(S, b)
        assert (None if x is None else [v.as_fraction() for v in x]) == want
    B = Matrix.from_cols(QQ, rhs)
    cols = [A.solve(B.col(j)) for j in range(B.ncols)]
    want = None if None in cols else Matrix.from_cols(QQ, cols)
    assert A.solve_matrix(B) == want


tower_entries = st.tuples(*[st.sampled_from([0, 0, 0, 1, -1, 2])] * 4).map(
    lambda t: QI2.new(*t))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(tower_entries, min_size=n, max_size=n),
                       min_size=m, max_size=m))))
def test_kernel_identities_over_tower_random(rows):
    A = M(QI2, rows)
    R, piv = A.rref()
    assert R.rref() == (R, piv)
    kern = A.kernel_basis()
    assert len(piv) + len(kern) == A.ncols
    for k in kern:
        assert not any(A.apply(k))
    x0 = tuple(QI2.new(1, j, 0, 1) for j in range(A.ncols))
    b = A.apply(x0)
    x = A.solve(b)
    assert x is not None and A.apply(x) == b
    if A.nrows == A.ncols:
        n = A.nrows
        # det(-A) = charpoly(0), by the Hessenberg recurrence: no eliminate() pass
        assert A.scale(QI2.rat(-1)).det() == A.charpoly()(QI2.zero)
        if A.det():
            assert A * A.inverse() == Matrix.identity(QI2, n)


def symmetric(fld, n, vals):
    a = [[fld.zero] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i, n):
            v = next(it)
            a[i][j] = v
            a[j][i] = v.conjugate_i()
    for i in range(n):
        a[i][i] = a[i][i].real_part()
    return Matrix(fld, a)


hermitian_matrices = st.sampled_from([QQ, QQ_I]).flatmap(
    lambda fld: st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(rational_entries, rational_entries).map(
            lambda t, f=fld: f.new(t[0], t[1]) if f.has_i else f.rat(t[0])),
        min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2).map(
            lambda vals, f=fld, n=n: symmetric(f, n, vals))))


@settings(max_examples=80, deadline=None)
@given(hermitian_matrices)
def test_ldl_matches_sylvester_minors_random(S):
    n = S.nrows
    pivots, P = S.ldl()
    minors = leading_principal_minors(S)
    prod = S.field.one
    for k, p in enumerate(pivots):
        prod = prod * p
        assert prod == minors[k]
    if len(pivots) < n:
        assert not minors[len(pivots)]           # stopped at a zero pivot
        return
    assert all(P.rows[i][i] == S.field.one and not any(P.rows[i][i + 1:])
               for i in range(n))
    D = P * S * P.conj_transpose()
    assert D == Matrix(S.field, [[pivots[i] if i == j else S.field.zero
                                  for j in range(n)] for i in range(n)])


@settings(max_examples=80, deadline=None)
@given(hermitian_matrices.filter(lambda S: not S.field.has_i))
def test_psd_matches_all_principal_minors_random(S):
    idx = range(S.nrows)
    every_minor_nonneg = all(
        Matrix(QQ, [[S.rows[i][j] for j in sub] for i in sub]).det().sign() >= 0
        for k in range(1, S.nrows + 1) for sub in itertools.combinations(idx, k))
    assert is_positive_semidefinite(S) == every_minor_nonneg


def rational_rows(m, n):
    return st.lists(st.lists(rational_entries, min_size=n, max_size=n), min_size=m, max_size=m)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 4), st.data())
def test_product_matches_sympy_random(m, k, n, data):
    a, b = data.draw(rational_rows(m, k)), data.draw(rational_rows(k, n))
    want = sympy.Matrix([[sympy.Rational(x) for x in r] for r in a]) * \
        sympy.Matrix([[sympy.Rational(x) for x in r] for r in b])
    assert fracs((M(QQ, a) * M(QQ, b)).rows) == sympy_fracs(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]),
                                            min_size=4, max_size=4), max_size=4))
def test_is_graded_matches_graded_parts_random(even_dim, vecs):
    S = Subspace(QQ, GradedSpace(even_dim, 4 - even_dim), vecs)
    assert S.is_graded() == (S.even_part().dim + S.odd_part().dim == S.dim)


# ---------------------------------------------------------------------------
# differential tests of the spectral kernels
# ---------------------------------------------------------------------------

def faddeev_leverrier(A):
    """Reference charpoly coefficients (low degree first) by n dense products."""
    f, n = A.field, A.nrows
    cs = [f.zero] * n + [f.one]
    Mk = Matrix.identity(f, n)
    for k in range(1, n + 1):
        Mk = A * Mk
        cs[n - k] = Mk.trace() * f.rat(Fraction(-1, k))
        Mk = Mk + Matrix.identity(f, n).scale(cs[n - k])
    return tuple(cs)


def sparse_tower_matrices(fld):
    """Square matrices of size 0..8, mostly zeros, so the Hessenberg pivot
    search has to swap rows or skip whole columns."""
    parts = [st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2)])]
    parts += [st.sampled_from([0, 0, 0, 1, -1]) if on else st.just(0)
              for on in (fld.has_i, fld.d is not None, fld.has_i and fld.d is not None)]
    entry = st.tuples(*parts).map(lambda t: fld.new(*t))
    return st.integers(0, 8).flatmap(lambda n: st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)).map(
        lambda rows: Matrix(fld, rows))


SWAP = [[1, 2, 0, 3], [0, 1, 0, 0], [4, 0, 2, 1], [0, 5, 0, 0]]    # h_10 = 0, h_20 != 0
SKIP = [[1, 0, 2, 0], [0, 3, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]]    # first column done


@pytest.mark.parametrize("fld", [QQ, QQ_I, Q2, QI2], ids=lambda f: f.tag)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_charpoly_matches_faddeev_leverrier_random(fld, data):
    for A in (data.draw(sparse_tower_matrices(fld)), M(fld, SWAP), M(fld, SKIP)):
        cp = A.charpoly()
        assert cp.coeffs == faddeev_leverrier(A)
        if fld is QQ:
            want = sympy.Matrix(A.nrows, A.ncols, [sympy.Rational(x.as_fraction())
                                                    for r in A.rows for x in r])
            assert [c.as_fraction() for c in reversed(cp.coeffs)] == \
                [Fraction(int(c.p), int(c.q)) for c in want.charpoly().all_coeffs()]


def unimodular(fld, n, data):
    """A random integer matrix of determinant +-1: permuted L U, unit diagonals."""
    ints = st.integers(-2, 2)
    L = [[data.draw(ints) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    U = [[data.draw(ints) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    perm = data.draw(st.permutations(range(n)))
    return M(fld, [L[p] for p in perm]) * M(fld, U)


EIGENVALUES = {QQ: [0, 1, -1, 2], QQ_I: [0, 1, QQ_I.i, QQ_I.new(1, -1)],
               Q2: [0, 1, Q2.sqrt, -Q2.sqrt], QI2: [1, QI2.i, QI2.sqrt, QI2.new(1, 1)]}


@pytest.mark.parametrize("fld", [QQ, QQ_I, Q2, QI2], ids=lambda f: f.tag)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generalized_eigenspaces_match_kernel_of_power_random(fld, data):
    blocks = data.draw(st.lists(st.tuples(st.sampled_from(EIGENVALUES[fld]),
                                          st.integers(1, 3)), min_size=1, max_size=3))
    n = sum(size for _, size in blocks)
    J = [[fld.zero] * n for _ in range(n)]
    mult: dict = {}
    at = 0
    for lam, size in blocks:
        lam = fld.coerce(lam)
        mult[lam] = mult.get(lam, 0) + size
        for i in range(at, at + size):
            J[i][i] = lam
            if i + 1 < at + size:
                J[i][i + 1] = fld.one
        at += size
    P = unimodular(fld, n, data)
    A = P * M(fld, J) * P.inverse()
    es = generalized_eigenspaces(A)
    assert es.ok
    assert {lam for lam, _ in es.pairs} == set(mult)
    I = Matrix.identity(fld, n)
    for lam, space in es.pairs:
        assert space == kernel((A - I.scale(lam)).power(mult[lam]))
        assert space.dim == mult[lam]


@pytest.mark.parametrize("fld", [QQ, QQ_I, Q2, QI2], ids=lambda f: f.tag)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_joint_eigenspaces_match_intersect_everything_random(fld, data):
    """Commuting P (lam I + c N) P^-1 blocks: the pieces equal those of
    intersecting every piece with every eigenspace of the next matrix."""
    blocks = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = sum(blocks)
    P = unimodular(fld, n, data)
    Pinv = P.inverse()
    mats = []
    for _ in range(data.draw(st.integers(1, 3))):
        J = [[fld.zero] * n for _ in range(n)]
        at = 0
        for size in blocks:
            lam = fld.coerce(data.draw(st.sampled_from(EIGENVALUES[fld])))
            shift = data.draw(st.booleans())
            for i in range(at, at + size):
                J[i][i] = lam
                if shift and i + 1 < at + size:
                    J[i][i + 1] = fld.one
            at += size
        mats.append(P * M(fld, J) * Pinv)
    pieces = [((), Subspace(fld, ungraded(n), Matrix.identity(fld, n).rows))]
    for A in mats:
        es = generalized_eigenspaces(A)
        assert es.ok
        pieces = [(evs + (lam,), inter) for evs, piece in pieces for lam, space in es.pairs
                  for inter in [piece.intersect(space)] if inter.dim]
    assert joint_eigenspaces(mats) == ("OK", pieces)
