"""Explicit Clifford modules for Heisenberg-Clifford algebras and the exact
finite-dimensional unitary-representation axiom verifier.

Odd operators are scaled gamma matrices built from the exact tensor tower
(sigma_x, sigma_y, sigma_z over Q(i)); the anticommutation convention is
rho(X) rho(Y) + rho(Y) rho(X) = -i rho([X, Y]), which forces Hermitian odd
operators with positive squares.  Scalings stay inside one tower Q(i, sqrt c);
inputs that would need a second square root are rejected, not approximated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Sequence

from .exactnum import (Field, InputError, InvariantViolation, QQ, QQ_I, Scalar, Undetermined,
                       rational_sqrt_decomp)
from .glinalg import Matrix, Vector, eliminate, vec_is_zero, vec_scale
from .lsa import LieSuperalgebra, bracket_span, center
from .cones import is_positive_definite


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

    def block_pattern_ok(self, M: Matrix, parity: int) -> bool:
        e = self.even_dim
        for i in range(self.dim):
            for j in range(self.dim):
                same_block = (i < e) == (j < e)
                if same_block == bool(parity) and M.rows[i][j]:
                    return False
        return True

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

def _sqrt_scaling(values: Sequence[Fraction]) -> tuple[Field, list[Scalar]]:
    """Exact square roots of positive rationals inside one tower Q(i, sqrt c)."""
    parts = [rational_sqrt_decomp(v) for v in values]
    cs = sorted({s for _, s in parts if s != 1})
    if len(cs) > 1:
        raise InputError(
            f"normalizations need several square roots {cs}; rescale the basis first")
    fld = Field(True, cs[0]) if cs else QQ_I
    out = []
    for r, s in parts:
        out.append(fld.rat(r) if s == 1 else fld.new(0, 0, r, 0))
    return fld, out


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
    fld, scales = _sqrt_scaling([n / 2 for n in norms])
    gammas, half = gamma_matrices(d, fld)
    alg = clifford_algebra(norms)
    mats = [Matrix.identity(fld, 2 * half).scale(fld.i)]          # rho(Z) = i Id
    for s, G in zip(scales, gammas):
        mats.append(G.scale(s))
    return MatrixRep(alg, half, half, tuple(mats), label=f"spin(d={d})")


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


def verify_rep(rep: MatrixRep, adjoint_sample: Sequence[Vector] = (),
               odd_tuples: Sequence[Sequence[Vector]] = ()) -> dict:
    """Exact verification of the unitary-representation axioms on a
    finite-dimensional graded module; report-based, never raises on failure."""
    g = rep.algebra
    fld = rep.field
    failures: list[dict] = []
    n = g.dim

    grading_ok = True
    for k in range(n):
        if not rep.block_pattern_ok(rep.mats[k], g.parity(k)):
            grading_ok = False
            failures.append({"axiom": "grading", "basis": k})

    products: dict[tuple[int, int], Matrix] = {}

    def product(a: int, b: int) -> Matrix:
        """M_a M_b, computed once for both bracket loops."""
        if (a, b) not in products:
            products[(a, b)] = rep.mats[a] * rep.mats[b]
        return products[(a, b)]

    def bracket(a: int, b: int) -> Vector:
        return tuple(x.promote(fld) for x in g.bracket_basis(a, b))

    minus_i = -fld.i
    anticommutator_ok = True
    for a in g.space.odd_indices():
        for b in g.space.odd_indices():
            lhs = product(a, b) + product(b, a)
            rhs = rep.rho(vec_scale(minus_i, bracket(a, b)))
            if lhs != rhs:
                anticommutator_ok = False
                failures.append({"axiom": "anticommutator", "pair": [a, b]})

    even_commutator_ok = True
    for a in g.space.even_indices():
        for b in range(n):
            lhs = product(a, b) - product(b, a)
            rhs = rep.rho(bracket(a, b))
            if lhs != rhs:
                even_commutator_ok = False
                failures.append({"axiom": "even_commutator", "pair": [a, b]})

    hermitian_odd_ok = True
    for a in g.space.odd_indices():
        if rep.mats[a] != rep.mats[a].conj_transpose():
            hermitian_odd_ok = False
            failures.append({"axiom": "hermitian_odd", "basis": a})

    skew_even_ok = True
    for a in g.space.even_indices():
        if rep.mats[a] != rep.mats[a].conj_transpose().scale(-fld.one):
            skew_even_ok = False
            failures.append({"axiom": "skew_even", "basis": a})

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
        ok = True
        for j in range(n):
            target = rep.rho(tuple(x.promote(fld) for x in E.col(j)))
            got = rep.mats[j] if conj is None else conj[0] * rep.mats[j] * conj[1]
            if target != got:
                ok = False
                failures.append({"axiom": "group_conjugation", "basis": j})
                break
        group_results.append({"status": "OK" if ok else "FAILED"})

    prop61_ok = True
    for tup in odd_tuples:
        vecs = [tuple(g.field.coerce(x) for x in v) for v in tup]
        total = None
        for v in vecs:
            sq = g.bracket(v, v)
            total = sq if total is None else tuple(a + b for a, b in zip(total, sq))
        if total is not None and vec_is_zero(total):
            for v in vecs:
                if not rep.rho(tuple(x.promote(fld) for x in v)).is_zero():
                    prop61_ok = False
                    failures.append({"axiom": "prop61_vanishing",
                                     "vector": [str(x) for x in v]})

    report = {
        "grading_ok": grading_ok,
        "anticommutator_ok": anticommutator_ok,
        "even_commutator_ok": even_commutator_ok,
        "hermitian_odd_ok": hermitian_odd_ok,
        "skew_even_ok": skew_even_ok,
        "group_conjugation": group_results,
        "prop61_ok": prop61_ok,
        "failures": failures,
    }
    report["all_ok"] = (grading_ok and anticommutator_ok and even_commutator_ok
                        and hermitian_odd_ok and skew_even_ok and prop61_ok
                        and all(r["status"] != "FAILED" for r in group_results))
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
    if rep2.field is not fld:
        if rep2.field.extends(fld):
            fld = rep2.field
        elif fld.extends(rep2.field):
            pass
        else:
            raise InputError("incompatible scalar towers")
    n1, n2 = rep1.dim, rep2.dim
    e1, e2 = rep1.even_dim, rep2.even_dim
    positions = []
    for i in range(n2):
        for j in range(n1):
            par = 0 if ((i < e2) == (j < e1)) else 1
            if par == parity:
                positions.append((i, j))
    pos_index = {p: t for t, p in enumerate(positions)}
    rows = []
    for k in range(rep1.algebra.dim):
        A = rep2.mats[k].promote(fld) if rep2.field is not fld else rep2.mats[k]
        B = rep1.mats[k].promote(fld) if rep1.field is not fld else rep1.mats[k]
        for i in range(n2):
            for j in range(n1):
                # (T B - A T)[i][j] = sum_p T[i][p] B[p][j] - A[i][p] T[p][j]
                row: dict[int, Scalar] = {}
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


def _contains_invertible(mats: list[Matrix], budget: int = 20000) -> bool:
    """Exact search for an invertible element of a matrix pencil.

    det is a polynomial of total degree <= n in the coefficients, so the
    integer grid {0..n}^k is a complete test set; capped by budget."""
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
        if count > budget:
            raise Undetermined("invertibility search budget exhausted")
        if sum(combo) == 0 or max(combo) == 0:
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
    z_index: Vector                 # the central direction spanning [g, g]
    omega_even: Matrix              # symplectic form on the even complement
    gram_odd: Matrix                # symmetric form on the odd part (Z coefficient)
    even_complement: list[int]      # coordinate indices of the symplectic part


def heisenberg_clifford_shape(g: LieSuperalgebra) -> HCShape:
    """Verify [g,g] = central line, [g0,g1] = 0, nondegenerate forms."""
    derived = bracket_span(g, g.full_space, g.full_space)
    if derived.dim != 1:
        raise InputError("derived algebra is not a line")
    zvec = derived.rows[0]
    if any(zvec[i] for i in g.space.odd_indices()):
        raise InputError("central direction is not even")
    if not center(g).contains(zvec):
        raise InputError("derived line is not central")
    e = g.space.even_dim
    for i in range(e):
        for j in g.space.odd_indices():
            if not vec_is_zero(g.bracket_basis(i, j)):
                raise InputError("[g0, g1] must vanish")
    zs = g.subspace([zvec])
    comp = [c for c in range(e) if c not in set(zs.pivots)]
    f = g.field
    om_rows = []
    for i in comp:
        row = []
        for j in comp:
            v = g.bracket_basis(i, j)
            coords = zs.coords_of(v)
            if coords is None:
                raise InputError("even bracket leaves the central line")
            row.append(coords[0])
        om_rows.append(row)
    omega = Matrix(f, om_rows)
    if omega.rank() != len(comp):
        raise InputError("even symplectic form is degenerate")
    gram_rows = []
    for a in g.space.odd_indices():
        row = []
        for b in g.space.odd_indices():
            v = g.bracket_basis(a, b)
            coords = zs.coords_of(v)
            if coords is None:
                raise InputError("odd bracket leaves the central line")
            row.append(coords[0])
        gram_rows.append(row)
    gram = Matrix(f, gram_rows)
    if g.space.odd_dim and gram.rank() != g.space.odd_dim:
        raise InputError("odd symmetric form is degenerate")
    return HCShape(zvec, omega, gram, comp)


def _congruence_diagonalize(S: Matrix) -> tuple[Matrix, list[Scalar]]:
    """P with P S P^T diagonal, for a positive-definite symmetric S."""
    diag, P = S.ldl()
    if len(diag) < S.nrows or any(d.sign() <= 0 for d in diag):
        raise InputError("congruence pivoting needs a PD matrix")
    D = P * S * P.transpose()
    if any(D.rows[i][j] != (diag[i] if i == j else S.field.zero) for i in range(S.nrows)
           for j in range(S.nrows)):
        raise InvariantViolation("congruence diagonalization failed")  # pragma: no cover
    return P, diag


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
    if d and not is_positive_definite(M):
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
    P, diag = _congruence_diagonalize(M)
    norms = [x.as_fraction() for x in diag]
    fld, scales = _sqrt_scaling([n / 2 for n in norms])
    gammas, half = gamma_matrices(d, fld)
    primed = [G.scale(s) for s, G in zip(scales, gammas)]
    Pinv = P.inverse()
    # rho(Z) = i * gamma(Z) * Id; the Gram matrix above already absorbed gamma
    mats = [Matrix.identity(fld, 2 * half).scale(fld.new(0, gam.as_fraction(), 0, 0))]
    for b in range(d):
        mats.append(Matrix.combination(fld, 2 * half, 2 * half, zip(Pinv.rows[b], primed)))
    # the module represents the subalgebra spanned by Z and the odd part
    zs = g.subspace([shape.z_index])
    alg_names_even = ["Z"]
    odd_names = [f"f{t+1}" for t in range(d)]
    table = {}
    for a_t, a in enumerate(g.space.odd_indices()):
        for b_t, b in enumerate(g.space.odd_indices()):
            coords = zs.coords_of(g.bracket_basis(a, b))
            if coords and coords[0]:
                table[(odd_names[a_t], odd_names[b_t])] = {"Z": coords[0]}
    cl = LieSuperalgebra.from_table(f"{g.name}|cl", g.field, alg_names_even, odd_names, table)
    rep = MatrixRep(cl, half, half, tuple(mats), label=f"hc-module(gamma={gam})")
    if d % 2 == 1:
        return HCClassification("OK", [rep], svn,
                                details={"clifford_dim": rep.dim, "fiber": "bijection"})
    return HCClassification("OK", [rep, parity_change(rep)], svn,
                            details={"clifford_dim": rep.dim, "fiber": "two-to-one"})
