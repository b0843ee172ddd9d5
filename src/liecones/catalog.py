"""Built-in generators of the example algebras used as the test corpus.

Matrix families (su, sq, osp) are realized as the exact fixed-point sets of
their defining (anti)linear involutions inside sl(m|n, C), computed over
rational real/imaginary coordinates; structure constants are then read off
by expanding superbrackets over the resulting real basis.  Nilpotent
families (Heisenberg, Clifford, Heisenberg-Clifford) are built from their
defining forms directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Callable, Sequence

from .exactnum import Field, InputError, InvariantViolation, QQ, QQ_I, Scalar
from .glinalg import GradedSpace, Matrix, Vector
from .lsa import LieSuperalgebra, SparseVec


# ---------------------------------------------------------------------------
# complex supermatrix helpers (entries in Q(i))
# ---------------------------------------------------------------------------

def cm(rows: Sequence[Sequence]) -> Matrix:
    return Matrix(QQ_I, rows)


def czeros(r: int, c: int) -> Matrix:
    return Matrix.zero(QQ_I, r, c)


def ceye(n: int) -> Matrix:
    return Matrix.identity(QQ_I, n)


def unit_mat(N: int, i: int, j: int, imaginary: bool = False) -> Matrix:
    z, o = QQ_I.zero, (QQ_I.i if imaginary else QQ_I.one)
    return Matrix(QQ_I, [[o if (r, c) == (i, j) else z for c in range(N)] for r in range(N)])


def ipq(p: int, q: int) -> Matrix:
    return Matrix(QQ_I, [[(QQ_I.one if i == j and i < p else
                           (-QQ_I.one if i == j else QQ_I.zero))
                          for j in range(p + q)] for i in range(p + q)])


def jn(n: int) -> Matrix:
    z, o = QQ_I.zero, QQ_I.one
    rows = [[z] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        rows[k][k + n] = o
        rows[k + n][k] = -o
    return Matrix(QQ_I, rows)


def blocks(X: Matrix, m: int) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    N = X.nrows
    A = Matrix(QQ_I, [r[:m] for r in X.rows[:m]]) if m else czeros(0, 0)
    B = Matrix(QQ_I, [r[m:] for r in X.rows[:m]]) if m and N > m else czeros(m, N - m)
    C = Matrix(QQ_I, [r[:m] for r in X.rows[m:]]) if N > m and m else czeros(N - m, m)
    D = Matrix(QQ_I, [r[m:] for r in X.rows[m:]]) if N > m else czeros(0, 0)
    return A, B, C, D


def assemble(A: Matrix, B: Matrix, C: Matrix, D: Matrix) -> Matrix:
    m, n = A.nrows, D.nrows
    rows = []
    for i in range(m):
        rows.append(list(A.rows[i]) + list(B.rows[i] if n else ()))
    for i in range(n):
        rows.append(list(C.rows[i] if m else ()) + list(D.rows[i]))
    return Matrix(QQ_I, rows)


def superbracket(X: Matrix, Y: Matrix, px: int, py: int) -> Matrix:
    """[X, Y] = XY - (-1)^{|X||Y|} YX on homogeneous supermatrices."""
    if px * py:
        return X * Y + Y * X
    return X * Y - Y * X


def _flatten_real(M: Matrix) -> list[Fraction]:
    out = []
    for r in M.rows:
        for x in r:
            if x.c or x.e:
                raise InputError("matrix entry outside Q(i)")
            out.extend((x.a, x.b))
    return out


def _block_positions(m: int, n: int, parity: int) -> list[tuple[int, int]]:
    N = m + n
    pos = []
    for i in range(N):
        for j in range(N):
            block_par = 0 if ((i < m) == (j < m)) else 1
            if block_par == parity:
                pos.append((i, j))
    return pos


def _solve_real_form(m: int, n: int, parity: int,
                     mat_constraints: Sequence[Callable[[Matrix], Matrix]],
                     scalar_constraints: Sequence[Callable[[Matrix], Scalar]] = (),
                     ) -> list[Matrix]:
    """Rational basis of the block-homogeneous solutions of linear constraints."""
    N = m + n
    gens: list[Matrix] = []
    for (i, j) in _block_positions(m, n, parity):
        gens.append(unit_mat(N, i, j))
        gens.append(unit_mat(N, i, j, imaginary=True))
    if not gens:
        return []
    cols = []
    for B in gens:
        col: list[Fraction] = []
        for con in mat_constraints:
            col.extend(_flatten_real(con(B)))
        for con in scalar_constraints:
            v = con(B)
            if v.c or v.e:
                raise InvariantViolation("scalar constraint outside Q(i)")
            col.extend((v.a, v.b))
        cols.append(col)
    Msys = Matrix.from_cols(QQ, cols)
    sols = Msys.kernel_basis()
    out = []
    for sol in sols:
        acc = czeros(N, N)
        for t, coeff in enumerate(sol):
            if coeff:
                acc = acc + gens[t].scale(coeff.promote(QQ_I))
        out.append(acc)
    return out


@dataclass
class CatalogEntry:
    key: str
    algebra: LieSuperalgebra
    realization: list[Matrix] | None = None   # one complex supermatrix per basis vector
    block_sizes: tuple[int, int] | None = None
    props: dict = dc_field(default_factory=dict)

    def matrix_of(self, v: Vector) -> Matrix:
        """Realization matrix of a (possibly complexified) coordinate vector."""
        if self.realization is None:
            raise InputError(f"{self.key} has no matrix realization")
        N = self.realization[0].nrows
        acc = czeros(N, N)
        for k, z in enumerate(v):
            if z:
                acc = acc + self.realization[k].scale(z.promote(QQ_I))
        return acc

    def coords_of(self, M: Matrix, fld: Field | None = None) -> Vector | None:
        """Coordinates of a matrix over the catalog basis (complex allowed)."""
        if self.realization is None:
            raise InputError(f"{self.key} has no matrix realization")
        gens = []
        for R in self.realization:
            gens.append(R)
            gens.append(R.scale(QQ_I.i))
        cols = [_flatten_real(G) for G in gens]
        target = _flatten_real(M)
        sol = Matrix.from_cols(QQ, cols).solve(tuple(QQ.rat(x) for x in target))
        if sol is None:
            return None
        out_field = fld or QQ_I
        out = []
        for k in range(len(self.realization)):
            re, im = sol[2 * k].as_fraction(), sol[2 * k + 1].as_fraction()
            out.append(out_field.new(re, im, 0, 0) if out_field.has_i
                       else out_field.rat(re))
        return tuple(out)


def _algebra_from_matrices(name: str, even: list[Matrix], odd: list[Matrix],
                           m: int, n: int) -> tuple[LieSuperalgebra, list[Matrix]]:
    basis = list(even) + list(odd)
    k = len(basis)
    cols = [_flatten_real(B) for B in basis]
    parities = [0] * len(even) + [1] * len(odd)
    pairs = [(a, b) for a in range(k) for b in range(k)]
    targets = [_flatten_real(superbracket(basis[a], basis[b], parities[a], parities[b]))
               for a, b in pairs]
    # one elimination of the basis system for all k^2 right-hand sides
    X = Matrix.from_cols(QQ, cols).solve_matrix(Matrix.from_cols(QQ, targets))
    if X is None:
        raise InvariantViolation(f"{name}: a bracket left the span of the basis")
    br: dict[tuple[int, int], SparseVec] = {}
    for col, pair in enumerate(pairs):
        out = {t: X.rows[t][col] for t in range(k) if X.rows[t][col]}
        if out:
            br[pair] = out
    names = tuple(f"e{t}" for t in range(len(even))) + tuple(f"f{t}" for t in range(len(odd)))
    space = GradedSpace(len(even), len(odd), names)
    return LieSuperalgebra(name, space, QQ, br), basis


# ---------------------------------------------------------------------------
# matrix families
# ---------------------------------------------------------------------------

def su_conjugation(p: int, q: int, r: int, s: int) -> Callable[[Matrix], Matrix]:
    m, n = p + q, r + s
    Im, In = ipq(p, q), ipq(r, s)
    i_unit = QQ_I.i

    def theta(X: Matrix) -> Matrix:
        if n == 0:
            return (Im * X.conj_transpose() * Im).scale(-QQ_I.one)
        A, B, C, D = blocks(X, m)
        A2 = (Im * A.conj_transpose() * Im).scale(-QQ_I.one)
        D2 = (In * D.conj_transpose() * In).scale(-QQ_I.one)
        B2 = (Im * C.conj_transpose() * In).scale(i_unit)
        C2 = (In * B.conj_transpose() * Im).scale(i_unit)
        return assemble(A2, B2, C2, D2)

    return theta


def build_su(p: int, q: int, r: int, s: int) -> CatalogEntry:
    """su(p,q|r,s) as the fixed points of its defining involution in sl(m|n,C)."""
    m, n = p + q, r + s
    if m <= 0 or min(p, q, r, s) < 0:
        raise InputError("invalid su parameters")
    theta = su_conjugation(p, q, r, s)

    def fix(X: Matrix) -> Matrix:
        return theta(X) - X

    def strace(X: Matrix) -> Scalar:
        A, _, _, D = blocks(X, m)
        return A.trace() - D.trace()

    even = _solve_real_form(m, n, 0, [fix], [strace])
    odd = _solve_real_form(m, n, 1, [fix]) if n else []
    key = f"su({p},{q}|{r},{s})" if n else (f"su({p})" if q == 0 else f"su({p},{q})")
    alg, basis = _algebra_from_matrices(key, even, odd, m, n)
    return CatalogEntry(key, alg, basis, (m, n),
                        props={"table1": "su(p,q|r,s)" if n else None})


def sq_conjugation(p: int, q: int) -> Callable[[Matrix], Matrix]:
    m = p + q
    Im = ipq(p, q)
    i_unit = QQ_I.i

    def theta(X: Matrix) -> Matrix:
        A, B, C, D = blocks(X, m)
        A2 = (Im * A.conj_transpose() * Im).scale(-QQ_I.one)
        D2 = (Im * D.conj_transpose() * Im).scale(-QQ_I.one)
        B2 = (Im * B.conj_transpose() * Im).scale(i_unit)
        C2 = (Im * C.conj_transpose() * Im).scale(i_unit)
        return assemble(A2, B2, C2, D2)

    return theta


def build_sq(p: int, q: int) -> CatalogEntry:
    """sq(p,q): pairs [[A,B],[B,A]] fixed by the star map; pre-quotient of psq."""
    m = p + q
    theta = sq_conjugation(p, q)

    def fix(X: Matrix) -> Matrix:
        return theta(X) - X

    def pattern(X: Matrix) -> Matrix:
        A, B, C, D = blocks(X, m)
        return assemble(A - D, B - C, C - B, D - A)

    even = _solve_real_form(m, m, 0, [fix, pattern])
    odd = _solve_real_form(m, m, 1, [fix, pattern])
    key = f"sq({p},{q})"
    alg, basis = _algebra_from_matrices(key, even, odd, m, m)
    return CatalogEntry(key, alg, basis, (m, m), props={"table1": "psq(p,q)"})


def osp_conjugation(p: int, q: int, n: int) -> Callable[[Matrix], Matrix]:
    m = p + q
    Im = ipq(p, q)

    def tau(X: Matrix) -> Matrix:
        A, B, C, D = blocks(X, m)
        return assemble(Im * A.conjugate() * Im, Im * B.conjugate(),
                        C.conjugate() * Im, D.conjugate())

    return tau


def _osp_linear(m: int, n: int) -> Callable[[Matrix], Matrix]:
    J = jn(n)

    def omega(X: Matrix) -> Matrix:
        A, B, C, D = blocks(X, m)
        A2 = A.transpose().scale(-QQ_I.one)
        B2 = (C.transpose() * J).scale(-QQ_I.one)
        C2 = (J * B.transpose()).scale(-QQ_I.one)
        D2 = J * D.transpose() * J
        return assemble(A2, B2, C2, D2)

    return omega


def build_osp(p: int, q: int, n: int) -> CatalogEntry:
    """osp(p,q|2n): even part so(p,q) (+) sp(2n,R)."""
    m = p + q
    if m <= 0 or n <= 0:
        raise InputError("invalid osp parameters")
    omega = _osp_linear(m, n)
    tau = osp_conjugation(p, q, n)

    def fix_lin(X: Matrix) -> Matrix:
        return omega(X) - X

    def fix_real(X: Matrix) -> Matrix:
        return tau(X) - X

    even = _solve_real_form(m, 2 * n, 0, [fix_lin, fix_real])
    odd = _solve_real_form(m, 2 * n, 1, [fix_lin, fix_real])
    key = f"osp({p},{q}|{2 * n})" if q else f"osp({p}|{2 * n})"
    alg, basis = _algebra_from_matrices(key, even, odd, m, 2 * n)
    return CatalogEntry(key, alg, basis, (m, 2 * n), props={"table1": "osp(p,q|2n)"})


# ---------------------------------------------------------------------------
# nilpotent families and small abstract algebras
# ---------------------------------------------------------------------------

def _parse_signs(signs: str) -> list[int]:
    if not re.fullmatch(r"[+-]*", signs):
        raise InputError(f"bad signature string {signs!r}")
    return [1 if ch == "+" else -1 for ch in signs]


def build_heisenberg_clifford(pairs: int, signs: str, key: str | None = None) -> CatalogEntry:
    """Heisenberg-Clifford algebra of an even symplectic rank-2*pairs part plus
    an odd symmetric form diag(signs); two-step nilpotent."""
    sg = _parse_signs(signs)
    even = [f"X{i+1}" for i in range(pairs)] + [f"Y{i+1}" for i in range(pairs)] + ["Z"]
    odd = [f"f{i+1}" for i in range(len(sg))]
    table: dict[tuple[str, str], dict[str, object]] = {}
    for i in range(pairs):
        table[(f"X{i+1}", f"Y{i+1}")] = {"Z": 1}
    for i, s in enumerate(sg):
        table[(f"f{i+1}", f"f{i+1}")] = {"Z": s}
    alg = LieSuperalgebra.from_table(key or f"hc({2*pairs}|{len(sg)},{signs})",
                                     QQ, even, odd, table)
    return CatalogEntry(alg.name, alg, props={"nilpotent": True,
                                              "signature": tuple(sg),
                                              "pairs": pairs})


def build_clifford(d: int, signs: str) -> CatalogEntry:
    entry = build_heisenberg_clifford(0, signs, key=f"cl(1|{d},{signs})")
    if d != len(_parse_signs(signs)):
        raise InputError("clifford signature length mismatch")
    return entry


def build_heisenberg(n: int) -> CatalogEntry:
    entry = build_heisenberg_clifford(n, "", key=f"h({n})")
    return entry


def build_sl2R() -> CatalogEntry:
    table = {("H", "E"): {"E": 2}, ("H", "F"): {"F": -2}, ("E", "F"): {"H": 1}}
    alg = LieSuperalgebra.from_table("sl(2,R)", QQ, ["H", "E", "F"], [], table)
    return CatalogEntry("sl(2,R)", alg, props={"nilpotent": False, "solvable": False,
                                               "centroid_dim": 1})


def build_gl11() -> CatalogEntry:
    table = {
        ("e1", "f1"): {"f1": 1}, ("e1", "f2"): {"f2": -1},
        ("e2", "f1"): {"f1": -1}, ("e2", "f2"): {"f2": 1},
        ("f1", "f2"): {"e1": 1, "e2": 1},
    }
    alg = LieSuperalgebra.from_table("gl(1|1)", QQ, ["e1", "e2"], ["f1", "f2"], table)
    E = [unit_mat(2, 0, 0), unit_mat(2, 1, 1)]
    O = [unit_mat(2, 0, 1), unit_mat(2, 1, 0)]
    return CatalogEntry("gl(1|1)", alg, E + O, (1, 1), props={"nilpotent": False})


def build_n3super() -> CatalogEntry:
    """Three-step nilpotent with [g1, [g1, g1]] != 0 (vanishing-ideal witness)."""
    table = {
        ("f1", "f1"): {"A": 1},
        ("f1", "f2"): {"B": 1},
        ("f1", "B"): {"u": 1},
        ("f2", "A"): {"u": -2},
    }
    alg = LieSuperalgebra.from_table("n3super", QQ, ["A", "B"], ["f1", "f2", "u"], table)
    return CatalogEntry("n3super", alg, props={"nilpotent": True, "steps": 3})


def build_abelian(e: int, o: int) -> CatalogEntry:
    alg = LieSuperalgebra.from_table(f"abelian({e}|{o})", QQ,
                                     [f"a{i}" for i in range(e)],
                                     [f"b{i}" for i in range(o)], {})
    return CatalogEntry(alg.name, alg, props={"nilpotent": True, "abelian": True})


def build_su2() -> CatalogEntry:
    entry = build_su(2, 0, 0, 0)
    return CatalogEntry("su(2)", replace(entry.algebra, name="su(2)"), entry.realization,
                        entry.block_sizes, props={"nilpotent": False, "centroid_dim": 1})


def build_sl2C_real() -> CatalogEntry:
    """sl(2,C) viewed as a 6-dimensional real Lie algebra (centroid = C)."""
    mats = []
    for base in (cm([[1, 0], [0, -1]]), cm([[0, 1], [0, 0]]), cm([[0, 0], [1, 0]])):
        mats.append(base)
        mats.append(base.scale(QQ_I.i))
    alg, basis = _algebra_from_matrices("sl(2,C)_R", mats, [], 2, 0)
    return CatalogEntry("sl(2,C)_R", alg, basis, (2, 0), props={"centroid_dim": 2})


# ---------------------------------------------------------------------------
# root vectors from the proofs
# ---------------------------------------------------------------------------

@dataclass
class RootVectorData:
    X: Matrix                 # odd root vector in the complexification
    tauX: Matrix
    H: Matrix                 # [X, tau(X)], an element of the real form
    H_coords: Vector          # rational coordinates over the catalog basis
    X_coords: Vector          # complex coordinates over the catalog basis


def root_vectors_su(entry: CatalogEntry, p: int, q: int, r: int, s: int,
                    a: int, b: int) -> RootVectorData:
    """X_{a,b} and H_{a,b} = [X_{a,b}, tau(X_{a,b})] for su(p,q|r,s).

    Indices are 1-based: a indexes the odd row block (size r+s), b the even
    column block (size p+q).
    """
    m, n = p + q, r + s
    if not (1 <= a <= n and 1 <= b <= m):
        raise InputError("root vector index out of range")
    N = m + n
    X = unit_mat(N, m + a - 1, b - 1)
    theta = su_conjugation(p, q, r, s)
    tauX = theta(X)
    H = superbracket(X, tauX, 1, 1)
    sign_a = 1 if a <= r else -1
    sign_b = 1 if b <= p else -1
    sigma = QQ_I.i if sign_a * sign_b == 1 else -QQ_I.i
    expected = unit_mat(N, b - 1, b - 1).scale(sigma) + \
        unit_mat(N, m + a - 1, m + a - 1).scale(sigma)
    if H != expected:
        raise InvariantViolation("H_{a,b} disagrees with the case formula")
    Hc = entry.coords_of(H)
    if Hc is None or any(not z.is_real() for z in Hc):
        raise InputError("H_{a,b} is not a real-form element")
    Xc = entry.coords_of(X)
    if Xc is None:
        raise InputError("X_{a,b} has no catalog coordinates")
    return RootVectorData(X, tauX, H, Hc, Xc)


def root_vectors_osp(entry: CatalogEntry, p: int, q: int, n: int,
                     a: int, b: int, variant: str) -> RootVectorData:
    """Root vectors of osp(p,q|2n) from the proof's B/C displays.

    variant: "plus" | "minus" (generic index pairs a <-> p+1-a in the p block,
    or the mirrored q-block pairs), or "middle" (odd p or q, self-paired index).
    """
    m = p + q
    N = m + 2 * n
    if not (1 <= b <= n and 1 <= a <= m):
        raise InputError("root vector index out of range")
    i_u = QQ_I.i

    def EB(r_, c_):
        # m x 2n elementary matrix inside the B block, 1-based indices
        return Matrix(QQ_I, [[QQ_I.one if (i == r_ - 1 and j == c_ - 1) else QQ_I.zero
                              for j in range(2 * n)] for i in range(m)])

    if a <= p:
        mate = p + 1 - a
        mid = (p % 2 == 1) and a == (p + 1) // 2
    else:
        mate = p + (q + 1) - (a - p)
        mid = (q % 2 == 1) and (a - p) == (q + 1) // 2
    if variant == "middle":
        if not mid:
            raise InputError("middle variant needs the odd-block middle index")
        B = EB(a, b) + EB(a, b + n).scale(i_u)
    elif variant in ("plus", "minus"):
        if mid:
            raise InputError("generic variant needs a non-middle index")
        sgn = QQ_I.one if variant == "plus" else -QQ_I.one
        B = EB(a, b) + EB(a, b + n).scale(i_u * sgn) \
            + EB(mate, b).scale(i_u) + EB(mate, b + n).scale(-sgn)
    else:
        raise InputError(f"unknown variant {variant!r}")
    C = (jn(n) * B.transpose()).scale(-QQ_I.one)
    X = assemble(czeros(m, m), B, C, czeros(2 * n, 2 * n))
    omega = _osp_linear(m, n)
    if omega(X) != X:
        raise InvariantViolation("root vector fails the osp condition")
    tau = osp_conjugation(p, q, n)
    tauX = tau(X)
    H = superbracket(X, tauX, 1, 1)
    A_blk, B_blk, C_blk, D_blk = blocks(H, m)
    if not (B_blk.is_zero() and C_blk.is_zero()):
        raise InvariantViolation("H_{a,b} is not block diagonal")
    Hc = entry.coords_of(H)
    if Hc is None or any(not z.is_real() for z in Hc):
        raise InputError("H_{a,b} is not a real-form element")
    Xc = entry.coords_of(X)
    if Xc is None:
        raise InputError("X_{a,b} has no catalog coordinates")
    return RootVectorData(X, tauX, H, Hc, Xc)


# ---------------------------------------------------------------------------
# Table 1 metadata
# ---------------------------------------------------------------------------

_TABLE1 = {
    "su(p,q|r,s)": {"complexification": "A(m-1|n-1)",
                    "even_quotient": "su(p,q) ⊕ su(r,s)"},
    "su*(2p|2q)": {"complexification": "A(m-1|n-1)",
                   "even_quotient": "su*(2p) ⊕ su*(2q)"},
    "sl(m|n,R)": {"complexification": "A(m-1|n-1)",
                  "even_quotient": "sl(m,R) ⊕ sl(n,R)"},
    "psu(p,q|r,s)": {"complexification": "A(m-1|m-1)",
                     "even_quotient": "su(p,q) ⊕ su(r,s)"},
    "pq~(m)": {"complexification": "A(m-1|m-1)", "even_quotient": "sl(m,C)"},
    "usp(m)": {"complexification": "A(m-1|m-1)", "even_quotient": "sl(m,C)"},
    "osp(p,q|2n)": {"complexification": "osp(m|2n,C)",
                    "even_quotient": "so(p,q) ⊕ sp(2n,R)"},
    "osp*(m|p,q)": {"complexification": "osp(m|2n,C)",
                    "even_quotient": "so*(m) ⊕ sp(p,q)"},
    "sp(n,R)": {"complexification": "P(n-1)", "even_quotient": "sl(n,R)"},
    "sp*(n)": {"complexification": "P(n-1)", "even_quotient": "su*(n)"},
    "psq(n,R)": {"complexification": "Q(n-1)", "even_quotient": "sl(n,R)"},
    "psq(p,q)": {"complexification": "Q(n-1)", "even_quotient": "su(p,q)"},
    "psq*(n)": {"complexification": "Q(n-1)", "even_quotient": "su*(n)"},
    "W(n,R)": {"complexification": "W(n)", "even_quotient": "gl(n,R)"},
    "S(n,R)": {"complexification": "S(n)", "even_quotient": "sl(n,R)"},
    "H(p,q)": {"complexification": "H(n)", "even_quotient": "so(p,q)"},
}


def table1_metadata(key: str) -> dict:
    if key not in _TABLE1:
        raise InputError(f"unknown Table 1 key {key!r}")
    out = dict(_TABLE1[key])
    out["real_form"] = key
    return out


def table1_keys() -> list[str]:
    return sorted(_TABLE1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_KEY_RES = [
    (re.compile(r"^h\((\d+)\)$"), lambda g: build_heisenberg(int(g[0]))),
    (re.compile(r"^cl\(1\|(\d+),([+-]+)\)$"), lambda g: build_clifford(int(g[0]), g[1])),
    (re.compile(r"^hc\((\d+)\|(\d+),([+-]*)\)$"),
     lambda g: _build_hc_checked(int(g[0]), int(g[1]), g[2])),
    (re.compile(r"^su\((\d+),(\d+)\|(\d+),(\d+)\)$"),
     lambda g: build_su(int(g[0]), int(g[1]), int(g[2]), int(g[3]))),
    (re.compile(r"^su\(2\)$"), lambda g: build_su2()),
    (re.compile(r"^sq\((\d+),(\d+)\)$"), lambda g: build_sq(int(g[0]), int(g[1]))),
    (re.compile(r"^osp\((\d+),(\d+)\|(\d+)\)$"),
     lambda g: _build_osp_checked(int(g[0]), int(g[1]), int(g[2]))),
    (re.compile(r"^osp\(1\|2\)$"), lambda g: _build_osp12()),
    (re.compile(r"^gl\(1\|1\)$"), lambda g: build_gl11()),
    (re.compile(r"^sl\(2,R\)$"), lambda g: build_sl2R()),
    (re.compile(r"^sl\(2,C\)_R$"), lambda g: build_sl2C_real()),
    (re.compile(r"^n3super$"), lambda g: build_n3super()),
    (re.compile(r"^abelian\((\d+)\|(\d+)\)$"),
     lambda g: build_abelian(int(g[0]), int(g[1]))),
]


def _build_hc_checked(even2p: int, d: int, signs: str) -> CatalogEntry:
    if even2p % 2:
        raise InputError("even symplectic dimension must be even")
    if len(signs) != d:
        raise InputError("signature length must equal the odd dimension")
    return build_heisenberg_clifford(even2p // 2, signs)


def _build_osp_checked(p: int, q: int, two_n: int) -> CatalogEntry:
    if two_n % 2:
        raise InputError("osp needs an even symplectic dimension")
    return build_osp(p, q, two_n // 2)


def _build_osp12() -> CatalogEntry:
    entry = build_osp(1, 0, 1)
    return CatalogEntry("osp(1|2)", replace(entry.algebra, name="osp(1|2)"),
                        entry.realization, entry.block_sizes, entry.props)


_CACHE: dict[str, CatalogEntry] = {}


def build(key: str) -> CatalogEntry:
    """Build (and cache) a catalog algebra by key, e.g. "cl(1|2,+-)"."""
    key = key.strip()
    if key in _CACHE:
        return _CACHE[key]
    for pat, fn in _KEY_RES:
        mm = pat.match(key)
        if mm:
            entry = fn(mm.groups())
            _CACHE[key] = entry
            return entry
    raise InputError(f"unknown catalog key {key!r}")


def list_keys() -> list[str]:
    """The canonical test corpus (all of these pass check_axioms)."""
    return [
        "h(1)",
        "cl(1|1,+)", "cl(1|1,-)",
        "cl(1|2,++)", "cl(1|2,+-)",
        "cl(1|3,+++)", "cl(1|3,++-)",
        "cl(1|4,++++)", "cl(1|4,+++-)",
        "hc(2|2,++)", "hc(2|2,+-)",
        "su(1,1|1,1)", "sq(1,1)",
        "osp(1,1|2)", "osp(1|2)",
        "gl(1|1)", "sl(2,R)", "su(2)",
        "n3super", "abelian(2|1)",
    ]
