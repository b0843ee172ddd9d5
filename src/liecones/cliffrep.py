"""Explicit Clifford modules for Heisenberg-Clifford algebras and the exact
finite-dimensional unitary-representation axiom verifier.

Odd operators are scaled gamma matrices built from the exact tensor tower
(sigma_x, sigma_y, sigma_z over Q(i)); the anticommutation convention is
rho(X) rho(Y) + rho(Y) rho(X) = -i rho([X, Y]), which forces Hermitian odd
operators with positive squares.  Scalings stay inside one tower Q(i, sqrt c);
inputs that would need a second square root are rejected, not approximated.
The forms of a Heisenberg-Clifford algebra are lsa.bracket_form at Z*; one
LDL of the scaled odd Gram matrix both decides positive definiteness and
gives the congruence that diagonalizes it.  The verifier keeps one record,
its list of failures, and reads every *_ok flag and all_ok off that list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Sequence

from .exactnum import (Field, InputError, InvariantViolation, QQ, QQ_I, Scalar, Undetermined,
                       rational_sqrt_decomp)
from .glinalg import (GradedSpace, Matrix, SparseVec, Vector, graded_commutant, unit_vector,
                      vec_is_zero, vec_scale)
from .lsa import LieSuperalgebra, bracket_form, center, series


PENCIL_BUDGET = 20000      # grid points _contains_invertible tests before it gives up


# ---------------------------------------------------------------------------
# the representation value
# ---------------------------------------------------------------------------

@dataclass
class MatrixRep:
    """Graded matrix representation: one operator per algebra basis element.

    Module basis is ordered even block first; even algebra elements must act
    block-diagonally, odd ones block-off-diagonally.
    """
    algebra: LieSuperalgebra
    even_dim: int
    odd_dim: int
    mats: tuple[Matrix, ...]
    label: str = ""

    def __post_init__(self):
        if self.even_dim < 0 or self.odd_dim < 0:
            raise InputError("module block dimensions must be >= 0")
        if len(self.mats) != self.algebra.dim:
            raise InputError(f"one operator per algebra basis element required: "
                             f"{len(self.mats)} for dimension {self.algebra.dim}")
        if any((M.nrows, M.ncols) != (self.dim, self.dim) for M in self.mats):
            raise InputError(f"every operator must be {self.dim} x {self.dim}")
        if any(M.field is not self.field for M in self.mats):
            raise InputError("every operator must be over one scalar tower")

    @property
    def dim(self) -> int:
        return self.even_dim + self.odd_dim

    @property
    def field(self) -> Field:
        return self.mats[0].field if self.mats else QQ_I

    def rho(self, v: Vector) -> Matrix:
        return Matrix.combination(self.field, self.dim, self.dim, zip(v, self.mats))

    def as_json(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "even_dim": self.even_dim,
            "odd_dim": self.odd_dim,
            "field": self.field.tag,
            "operators": [[[str(x) for x in row] for row in M.rows] for M in self.mats],
            "label": self.label,
        }


# ---------------------------------------------------------------------------
# exact gamma matrices
# ---------------------------------------------------------------------------

def _sigma(fld: Field) -> tuple[Matrix, Matrix, Matrix]:
    i = fld.i
    sx = Matrix(fld, [[0, 1], [1, 0]])
    sy = Matrix(fld, [[fld.zero, -i], [i, fld.zero]])
    sz = Matrix(fld, [[1, 0], [0, -1]])
    return sx, sy, sz


def _kron(A: Matrix, B: Matrix) -> Matrix:
    fld = A.field
    rows = []
    for i in range(A.nrows):
        for k in range(B.nrows):
            row = []
            for j in range(A.ncols):
                a = A.rows[i][j]
                row.extend([a * b for b in B.rows[k]] if a else [fld.zero] * B.ncols)
            rows.append(row)
    return Matrix(fld, rows)


def gamma_matrices(d: int, fld: Field | None = None) -> tuple[list[Matrix], int]:
    """d mutually anticommuting Hermitian involutions on C^(2^ceil(d/2)),
    block-off-diagonal for the popcount grading; returns (gammas, half_dim)."""
    if d < 1:
        raise InputError("need d >= 1")
    fld = fld or QQ_I
    m = (d + 1) // 2
    sx, sy, sz = _sigma(fld)
    eye = Matrix.identity(fld, 2)

    def build(pos: int, mid: Matrix) -> Matrix:
        acc = None
        for k in range(m):
            fac = sz if k < pos else (mid if k == pos else eye)
            acc = fac if acc is None else _kron(acc, fac)
        return acc

    gammas = []
    for k in range(m):
        gammas.append(build(k, sx))
        gammas.append(build(k, sy))
    gammas = gammas[:d]
    # reorder the 2^m tensor basis, even-popcount states first
    size = 2 ** m
    order = sorted(range(size), key=lambda idx: (bin(idx).count("1") % 2, idx))
    return [_permuted(G, order) for G in gammas], size // 2


def _permuted(M: Matrix, order: Sequence[int]) -> Matrix:
    """P M P^T for the permutation matrix P with P[i][order[i]] = 1."""
    return Matrix(M.field, [[M.rows[oi][oj] for oj in order] for oi in order])


# ---------------------------------------------------------------------------
# Clifford modules
# ---------------------------------------------------------------------------

def _spin_operators(norms: Sequence[Fraction]) -> tuple[Field, int, list[Matrix]]:
    """sqrt(n_k / 2) gamma_k for positive rationals n_k (Hermitian, squares
    n_k / 2), the roots all inside one tower Q(i, sqrt c); returns the tower,
    the half dimension and the operators."""
    parts = [rational_sqrt_decomp(n / 2) for n in norms]
    cs = sorted({s for _, s in parts if s != 1})
    if len(cs) > 1:
        raise InputError(
            f"normalizations need several square roots {cs}; rescale the basis first")
    fld = Field(True, cs[0]) if cs else QQ_I
    gammas, half = gamma_matrices(len(norms), fld)
    return fld, half, [G.scale(fld.rat(r) if s == 1 else fld.new(0, 0, r, 0))
                       for (r, s), G in zip(parts, gammas)]


def clifford_algebra(normalization: Sequence[Fraction]) -> LieSuperalgebra:
    """Clifford algebra with [f_i, f_i] = n_i Z (central character 1 scaling)."""
    d = len(normalization)
    table = {(f"f{i+1}", f"f{i+1}"): {"Z": normalization[i]} for i in range(d)}
    return LieSuperalgebra.from_table(
        f"cl(1|{d},diag({','.join(str(n) for n in normalization)}))",
        QQ, ["Z"], [f"f{i+1}" for i in range(d)], table)


def clifford_module(d: int, normalization: Sequence) -> MatrixRep:
    """The spin module of the Clifford algebra with lambda([f_i,f_i]) = n_i > 0.

    Odd operators are sqrt(n_i/2) gamma_i (Hermitian, squares n_i/2); the
    center acts by i * Id (central character lambda(Z) = 1).
    """
    if d < 1 or len(normalization) != d:
        raise InputError("normalization length must be d >= 1")
    norms = [Fraction(n) for n in normalization]
    if any(n <= 0 for n in norms):
        raise InputError("normalization must be positive (definite form)")
    fld, half, spin = _spin_operators(norms)
    rho_z = Matrix.identity(fld, 2 * half).scale(fld.i)           # rho(Z) = i Id
    return MatrixRep(clifford_algebra(norms), half, half, (rho_z, *spin), label=f"spin(d={d})")


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def _is_scalar_matrix(M: Matrix) -> bool:
    diag = M.rows[0][0] if M.nrows else None
    for i in range(M.nrows):
        for j in range(M.ncols):
            want = diag if i == j else M.field.zero
            if M.rows[i][j] != want:
                return False
    return True


def _row_comb(terms: Iterable[tuple[Scalar, SparseVec]]) -> SparseVec:
    """sum c * row over the (c, row) terms, zeros dropped."""
    acc: SparseVec = {}
    for c, row in terms:
        for j, x in row.items():
            t = c * x
            acc[j] = acc[j] + t if j in acc else t
    return {j: x for j, x in acc.items() if x}


def _rows_sum(P: list[SparseVec], Q: list[SparseVec], negate: bool) -> list[SparseVec]:
    """P + Q, or P - Q, over the stored entries, without multiplying by -1;
    zeros dropped."""
    out = []
    for p, q in zip(P, Q):
        r = dict(p)
        for j, y in q.items():
            r[j] = (r[j] - y if negate else r[j] + y) if j in r else (-y if negate else y)
        out.append({j: x for j, x in r.items() if x})
    return out


def _adjoint(rows: list[SparseVec], negate: bool) -> list[SparseVec]:
    """The conjugate transpose {(j, i): conj(x)} of square sparse rows, or its negative."""
    out: list[SparseVec] = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = -x.conjugate_i() if negate else x.conjugate_i()
    return out


def verify_rep(rep: MatrixRep, adjoint_sample: Sequence[Vector] = (),
               odd_tuples: Sequence[Sequence[Vector]] = ()) -> dict:
    """Exact verification of the unitary-representation axioms on a
    finite-dimensional graded module; report-based, never raises on failure.
    Each failed check appends one entry to the failures list, and the *_ok
    flags and all_ok are read off that list."""
    g = rep.algebra
    fld = rep.field
    failures: list[dict] = []
    n = g.dim
    e = rep.even_dim
    sparse = [M._sparse_rows() for M in rep.mats]     # {col: entry} per row, no zeros

    for k in range(n):
        odd = bool(g.parity(k))
        if any(((i < e) == (j < e)) == odd for i, row in enumerate(sparse[k]) for j in row):
            failures.append({"axiom": "grading", "basis": k})

    products: dict[tuple[int, int], list[SparseVec]] = {}

    def product(a: int, b: int) -> list[SparseVec]:
        """M_a M_b as sparse rows, computed once for both bracket loops."""
        if (a, b) not in products:
            products[(a, b)] = [_row_comb((x, sparse[b][k]) for k, x in row.items())
                                for row in sparse[a]]
        return products[(a, b)]

    def rho(v: Vector) -> list[SparseVec]:
        """rho(v) as sparse rows, over the nonzero coefficients of v."""
        terms = [(c, rows) for c, rows in zip(v, sparse) if c]
        return [_row_comb((c, rows[i]) for c, rows in terms) for i in range(rep.dim)]

    def bracket(a: int, b: int) -> Vector:
        return tuple(x.promote(fld) for x in g.bracket_basis(a, b))

    minus_i = -fld.i
    for a in g.space.odd_indices():
        for b in g.space.odd_indices():
            rhs = rho(vec_scale(minus_i, bracket(a, b)))
            if _rows_sum(product(a, b), product(b, a), negate=False) != rhs:
                failures.append({"axiom": "anticommutator", "pair": [a, b]})

    for a in g.space.even_indices():
        for b in range(n):
            if _rows_sum(product(a, b), product(b, a), negate=True) != rho(bracket(a, b)):
                failures.append({"axiom": "even_commutator", "pair": [a, b]})

    # odd operators Hermitian, then even ones skew-Hermitian
    for a in (*g.space.odd_indices(), *g.space.even_indices()):
        skew = not g.parity(a)
        if sparse[a] != _adjoint(sparse[a], negate=skew):
            failures.append({"axiom": "skew_even" if skew else "hermitian_odd", "basis": a})

    group_results = []
    for v in adjoint_sample:
        v = tuple(g.field.coerce(x) for x in v)
        adv = g.ad(v)
        try:
            E = adv.exp_nilpotent()
        except InputError:
            group_results.append({"status": "SKIPPED", "why": "ad not nilpotent"})
            continue
        rv = rep.rho(tuple(x.promote(fld) for x in v))
        if _is_scalar_matrix(rv):
            conj = None      # pi(exp v) is scalar: conjugation is trivial
        else:
            try:
                B = rv.exp_nilpotent()
                conj = (B, B.inverse())
            except InputError:
                group_results.append({"status": "SKIPPED", "why": "rho not exactly exponentiable"})
                continue
        for j in range(n):
            target = rep.rho(tuple(x.promote(fld) for x in E.col(j)))
            got = rep.mats[j] if conj is None else conj[0] * rep.mats[j] * conj[1]
            if target != got:
                failures.append({"axiom": "group_conjugation", "basis": j})
                group_results.append({"status": "FAILED"})
                break
        else:
            group_results.append({"status": "OK"})

    for tup in odd_tuples:
        vecs = [tuple(g.field.coerce(x) for x in v) for v in tup]
        total = None
        for v in vecs:
            sq = g.bracket(v, v)
            total = sq if total is None else tuple(a + b for a, b in zip(total, sq))
        if total is not None and vec_is_zero(total):
            for v in vecs:
                if not rep.rho(tuple(x.promote(fld) for x in v)).is_zero():
                    failures.append({"axiom": "prop61_vanishing",
                                     "vector": [str(x) for x in v]})

    failed = {f["axiom"] for f in failures}
    report = {f"{axiom}_ok": axiom not in failed for axiom in
              ("grading", "anticommutator", "even_commutator", "hermitian_odd", "skew_even")}
    report.update(group_conjugation=group_results, prop61_ok="prop61_vanishing" not in failed,
                  failures=failures, all_ok=not failures)
    return report


# ---------------------------------------------------------------------------
# parity change and graded equivalence
# ---------------------------------------------------------------------------

def parity_change(rep: MatrixRep) -> MatrixRep:
    """Swap the even and odd module blocks."""
    n = rep.dim
    e = rep.even_dim
    order = list(range(e, n)) + list(range(e))
    mats = tuple(_permuted(M, order) for M in rep.mats)
    return MatrixRep(rep.algebra, rep.odd_dim, rep.even_dim, mats,
                     label=f"parity({rep.label})")


def _intertwiner_space(rep1: MatrixRep, rep2: MatrixRep, parity: int) -> list[Matrix]:
    """Basis of {T homogeneous of given parity : T rho1(x) = rho2(x) T}."""
    if rep1.algebra is not rep2.algebra:
        raise InputError("equivalence needs modules of one algebra")
    fld = rep1.field
    if rep2.field.extends(fld):
        fld = rep2.field
    elif not fld.extends(rep2.field):
        raise InputError("incompatible scalar towers")

    def over(M: Matrix) -> Matrix:
        return M if M.field is fld else M.promote(fld)

    return graded_commutant(fld, GradedSpace(rep2.even_dim, rep2.odd_dim),
                            GradedSpace(rep1.even_dim, rep1.odd_dim), parity,
                            [(over(A), over(B), 1) for A, B in zip(rep2.mats, rep1.mats)])


def _contains_invertible(mats: list[Matrix]) -> bool:
    """Exact search for an invertible element of a matrix pencil.

    det is a polynomial of total degree <= n in the coefficients, so the
    integer grid {0..n}^k is a complete test set; capped by PENCIL_BUDGET."""
    if not mats:
        return False
    n = mats[0].nrows
    if n != mats[0].ncols:
        return False
    for M in mats:
        if M.det():
            return True
    k = len(mats)
    fld = mats[0].field
    grid = range(n + 1)
    count = 0
    for combo in itertools.product(grid, repeat=k):
        count += 1
        if count > PENCIL_BUDGET:
            raise Undetermined("invertibility search budget exhausted")
        if not any(combo):
            continue
        acc = Matrix.combination(fld, n, n, ((fld.rat(c), M) for c, M in zip(combo, mats)))
        if acc.det():
            return True
    return False


def equivalent(rep1: MatrixRep, rep2: MatrixRep, allow_parity: bool = False) -> bool:
    """Graded unitary-equivalence test by exhaustive intertwiner solve."""
    if rep1.dim != rep2.dim:
        return False
    if (rep1.even_dim, rep1.odd_dim) == (rep2.even_dim, rep2.odd_dim):
        if _contains_invertible(_intertwiner_space(rep1, rep2, 0)):
            return True
    if allow_parity:
        if (rep1.even_dim, rep1.odd_dim) == (rep2.odd_dim, rep2.even_dim):
            if _contains_invertible(_intertwiner_space(rep1, rep2, 1)):
                return True
    return False


# ---------------------------------------------------------------------------
# Heisenberg-Clifford classification
# ---------------------------------------------------------------------------

@dataclass
class HCShape:
    omega_even: Matrix              # symplectic form on the even complement
    gram_odd: Matrix                # symmetric form on the odd part (Z coefficient)
    even_complement: list[int]      # coordinate indices of the symplectic part


def heisenberg_clifford_shape(g: LieSuperalgebra) -> HCShape:
    """Verify [g,g] = central line, [g0,g1] = 0, nondegenerate forms."""
    derived = series(g, "lower_central")[:2][-1]          # [g, g], cached on g
    if derived.dim != 1:
        raise InputError("derived algebra is not a line")
    zvec = derived.rows[0]
    if any(zvec[i] for i in g.space.odd_indices()):
        raise InputError("central direction is not even")
    if not center(g).contains(zvec):
        raise InputError("derived line is not central")
    e = g.space.even_dim
    if any((i, j) in g.brackets for i in range(e) for j in g.space.odd_indices()):
        raise InputError("[g0, g1] must vanish")
    # [g, g] is the line through zvec: Z* reads a bracket's coefficient on it
    pivot = derived.pivots[0]
    comp = [c for c in range(e) if c != pivot]
    z_star = unit_vector(g.field, e, pivot)
    basis = [g.basis_vector(c) for c in comp]
    omega = bracket_form(g, z_star, basis, basis)
    if omega.rank() != len(comp):
        raise InputError("even symplectic form is degenerate")
    gram = bracket_form(g, z_star, g.odd_subspace.rows, g.odd_subspace.rows)
    if g.space.odd_dim and gram.rank() != g.space.odd_dim:
        raise InputError("odd symmetric form is degenerate")
    return HCShape(omega, gram, comp)


@dataclass
class HCClassification:
    status: str                       # "NONE" | "OK"
    modules: list[MatrixRep] = dc_field(default_factory=list)
    stone_von_neumann: dict | None = None
    details: dict = dc_field(default_factory=dict)


def classify_heisenberg_clifford(g: LieSuperalgebra, gamma) -> HCClassification:
    """Irreducible representations with the given central character.

    gamma: value of the character on the central direction (rational).
    Returns NONE unless the scaled odd Gram matrix is positive definite;
    otherwise one module (odd d) or a parity pair (even d), with a symbolic
    Stone-von-Neumann descriptor whenever the even symplectic part is
    nontrivial.
    """
    shape = heisenberg_clifford_shape(g)
    f = g.field
    gam = f.coerce(gamma)
    d = g.space.odd_dim
    M = shape.gram_odd.scale(gam)
    # Sylvester: M is positive definite iff its LDL runs to the end with positive pivots
    pivots, P = M.ldl()
    if len(pivots) < d or any(not p.is_real() or p.sign() <= 0 for p in pivots):
        return HCClassification("NONE", details={"reason": "odd form not positive definite"})
    if not gam:
        return HCClassification("NONE", details={"reason": "trivial central character"})
    svn = None
    if shape.even_complement:
        svn = {"symplectic_dim": len(shape.even_complement),
               "central_character": str(gam),
               "model": "Stone-von-Neumann (symbolic; not materialized)"}
    if d == 0:
        return HCClassification("OK", [], svn, details={"clifford_dim": 1})
    for r in M.rows:
        for x in r:
            if not x.is_rational():
                raise InputError("central character must give a rational Gram matrix")
    if P * M * P.transpose() != Matrix(f, [[p if i == j else f.zero for j in range(d)]
                                             for i, p in enumerate(pivots)]):
        raise InvariantViolation("congruence diagonalization failed")  # pragma: no cover
    fld, half, primed = _spin_operators([p.as_fraction() for p in pivots])
    Pinv = P.inverse()
    # rho(Z) = i * gamma(Z) * Id; the Gram matrix above already absorbed gamma
    mats = [Matrix.identity(fld, 2 * half).scale(fld.new(0, gam.as_fraction(), 0, 0))]
    for b in range(d):
        mats.append(Matrix.combination(fld, 2 * half, 2 * half, zip(Pinv.rows[b], primed)))
    # the module represents the subalgebra spanned by Z and the odd part
    odd_names = [f"f{t+1}" for t in range(d)]
    table = {(odd_names[a], odd_names[b]): {"Z": x}
             for a, row in enumerate(shape.gram_odd.rows) for b, x in enumerate(row) if x}
    cl = LieSuperalgebra.from_table(f"{g.name}|cl", g.field, ["Z"], odd_names, table)
    rep = MatrixRep(cl, half, half, tuple(mats), label=f"hc-module(gamma={gam})")
    if d % 2 == 1:
        return HCClassification("OK", [rep], svn,
                                details={"clifford_dim": rep.dim, "fiber": "bijection"})
    return HCClassification("OK", [rep, parity_change(rep)], svn,
                            details={"clifford_dim": rep.dim, "fiber": "two-to-one"})
