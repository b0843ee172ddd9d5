"""Exact graded linear algebra: matrices, canonical subspaces, eigensplitting.

All data is over one scalar tower (see exactnum).  Every elimination runs
through one of two routines: eliminate(), a sparse-row Gauss-Jordan pass
behind rref, rank, kernels, solves, inverses, determinants and canonical
subspaces; and Matrix.ldl(), a natural-order symmetric/Hermitian pass
whose pivots decide definiteness.  Homogeneous maps cut out by linear
equations in their entries (the graded commutant behind centroids,
differential constants and intertwiners) are one eliminate() over the
entries of one block-position list, which stops reading equations once its
rank leaves only the known solutions: the identity when parity is 0 and each
equation is T M = M T, else none.  The RREF is unique, so the basis is that
of all the equations.  Subspaces are kept in reduced row-echelon form, which
makes equality decidable and serialization stable.
Characteristic polynomials come from a Hessenberg reduction, O(n^3) field
operations.  Eigenvalue extraction factors them over Q (via sympy, imported
on the first factorisation only; a rational polynomial's multiplicities are
its factor exponents) and splits quadratics inside the declared tower;
anything that does not split is reported as SPLITTING_FAILURE, never
approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactnum import (Field, InputError, InvariantViolation, Poly, Scalar, check_tower,
                       sqrt_in_field)

Vector = tuple[Scalar, ...]
SparseVec = dict[int, Scalar]


def vec_add(u: Vector, v: Vector) -> Vector:
    """u + v, adding only nonzero pairs; a zero summand leaves the other one."""
    out = []
    for x, y in zip(u, v, strict=True):
        if x and y:
            out.append(x + y)
        else:
            check_tower(x, y)
            out.append(x or y)
    return tuple(out)

def vec_sub(u: Vector, v: Vector) -> Vector:
    """u - v, subtracting only nonzero pairs; a zero pair gives x or -y."""
    out = []
    for x, y in zip(u, v, strict=True):
        if x and y:
            out.append(x - y)
        else:
            check_tower(x, y)
            out.append(-y if y else x)
    return tuple(out)

def vec_scale(s: Scalar, v: Vector) -> Vector:
    """s * v, multiplying only nonzero pairs; a zero pair gives the zero it holds."""
    out = []
    nonzero = bool(s)
    for x in v:
        if nonzero and x:
            out.append(s * x)
        else:
            check_tower(s, x)
            out.append(s if x else x)
    return tuple(out)

def lin_comb(fld: Field, n: int, coefs: Iterable[Scalar], rows: Iterable[Vector]) -> Vector:
    """sum_k coefs[k] * rows[k] in fld^n, over the nonzero coefficients."""
    v = zero_vector(fld, n)
    for coef, row in zip(coefs, rows):
        if coef:
            v = vec_add(v, vec_scale(coef, row))
    return v

def vec_is_zero(v: Vector) -> bool:
    return not any(v)

def zero_vector(fld: Field, n: int) -> Vector:
    return tuple(fld.zero for _ in range(n))

def unit_vector(fld: Field, n: int, j: int) -> Vector:
    return tuple(fld.one if k == j else fld.zero for k in range(n))


def densify(v: SparseVec, n: int, fld: Field) -> Vector:
    out = [fld.zero] * n
    for k, x in v.items():
        out[k] = x
    return tuple(out)


# ---------------------------------------------------------------------------
# the elimination kernel
# ---------------------------------------------------------------------------

def _sub_multiple(r: SparseVec, f: Scalar, p: SparseVec, skip: int) -> None:
    """r -= f * p in place, ignoring column skip of p."""
    for c, v in p.items():
        if c == skip:
            continue
        t = r.get(c)
        t = -(f * v) if t is None else t - f * v
        if t:
            r[c] = t
        elif c in r:
            del r[c]


@dataclass
class Elimination:
    """Outcome of one Gauss-Jordan pass over sparse rows.

    rows maps each pivot column to its reduced row (pivot entry one, zero in
    every other pivot column).  leads holds, per input row, the lead column
    and unnormalised lead value it had once reduced by the earlier rows (the
    pivots of an LU factorisation in input order), or None if it vanished.
    A lead column at or past the pivot limit marks an inconsistent row.
    """
    rows: dict[int, SparseVec]
    leads: list[tuple[int, Scalar] | None]

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def null_basis(self, ncols: int, one: Scalar) -> list[SparseVec]:
        """Canonical null-space basis: one vector per free column < ncols."""
        basis = []
        for j in range(ncols):
            if j in self.rows:
                continue
            v: SparseVec = {j: one}
            for pc, row in self.rows.items():
                x = row.get(j)
                if x:
                    v[pc] = -x
            basis.append(v)
        return basis


def eliminate(rows: Iterable[SparseVec], n: int | None = None,
              stop: int | None = None) -> Elimination:
    """Reduced row echelon form of sparse rows ({col: Scalar}) by Gauss-Jordan.

    Pivots are taken only in columns < n (every column when n is None), so
    columns from n on ride along as augmented right-hand sides.  With stop,
    no further row is read once there are stop pivots: the caller knows that
    the remaining rows lie in their span.
    """
    piv: dict[int, SparseVec] = {}
    leads: list[tuple[int, Scalar] | None] = []
    for raw in rows:
        r = {c: x for c, x in raw.items() if x}
        for j in [c for c in r if c in piv]:
            _sub_multiple(r, r.pop(j), piv[j], j)
        free = [c for c in r if n is None or c < n]
        if not free:
            leads.append((min(r), r[min(r)]) if r else None)
            continue
        j = min(free)
        lead = r[j]
        leads.append((j, lead))
        if lead != lead.field.one:      # rows already in RREF, as Subspace rows are, lead with one
            inv = lead.inverse()
            r = {c: x * inv for c, x in r.items()}
        for p in piv.values():
            f = p.pop(j, None)
            if f:
                _sub_multiple(p, f, r, j)
        piv[j] = r
        if len(piv) == stop:
            break
    return Elimination(piv, leads)


class Matrix:
    """Dense exact matrix over one tower; immutable.  The column count is
    passed only for a matrix with no rows (an m x 0 matrix has m empty rows)."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, fld: Field, rows: Sequence[Sequence], ncols: int = 0):
        self.field = fld
        self.rows = tuple(tuple(fld.coerce(x) for x in r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else ncols
        if any(len(r) != self.ncols for r in self.rows):
            raise InputError("ragged matrix")

    @staticmethod
    def identity(fld: Field, n: int) -> "Matrix":
        return Matrix(fld, [[fld.one if i == j else fld.zero for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def zero(fld: Field, m: int, n: int) -> "Matrix":
        return Matrix(fld, [[fld.zero] * n for _ in range(m)], n)

    @staticmethod
    def combination(fld: Field, m: int, n: int,
                    terms: Iterable[tuple[Scalar, "Matrix"]]) -> "Matrix":
        """sum c * M over the (c, M) terms as an m x n matrix over fld, over
        the nonzero coefficients and entries only."""
        z = fld.zero
        acc = [[z] * n for _ in range(m)]
        for c, M in terms:
            if c:
                c = c.promote(fld)
                for row, mrow in zip(acc, M.rows):
                    for j, x in enumerate(mrow):
                        if x:
                            row[j] = row[j] + c * x if row[j] else c * x
        return Matrix(fld, acc, n)

    @staticmethod
    def from_cols(fld: Field, cols: Sequence[Sequence]) -> "Matrix":
        return Matrix(fld, list(zip(*cols, strict=True)), len(cols))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field is other.field
                and (self.rows, self.ncols) == (other.rows, other.ncols))

    def __hash__(self):
        return hash((self.field.tag, self.rows))

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        pairs = zip(self.rows, other.rows, strict=True)
        return Matrix(self.field, [vec_add(r, s) for r, s in pairs], self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        pairs = zip(self.rows, other.rows, strict=True)
        return Matrix(self.field, [vec_sub(r, s) for r, s in pairs], self.ncols)

    def scale(self, s: Scalar) -> "Matrix":
        return Matrix(self.field, [vec_scale(s, r) for r in self.rows], self.ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise InputError("dimension mismatch in matrix product")
        z = self.field.zero
        orows = [[(j, b) for j, b in enumerate(orow) if b] for orow in other.rows]
        out = []
        for r in self.rows:
            row = [z] * other.ncols
            for a, orow in zip(r, orows):
                if a:
                    for j, b in orow:
                        row[j] = row[j] + a * b if row[j] else a * b
            out.append(row)
        return Matrix(self.field, out, other.ncols)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise InputError("dimension mismatch in matrix-vector product")
        z = self.field.zero
        out = []
        for r in self.rows:
            acc = z
            for a, x in zip(r, v):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)) or [()] * self.ncols, self.nrows)

    def conjugate(self) -> "Matrix":
        return Matrix(self.field, [[x.conjugate_i() for x in r] for r in self.rows], self.ncols)

    def conj_transpose(self) -> "Matrix":
        return self.conjugate().transpose()

    def trace(self) -> Scalar:
        acc = self.field.zero
        for i in range(min(self.nrows, self.ncols)):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def power(self, k: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise InputError("power of non-square matrix")
        acc = Matrix.identity(self.field, self.nrows)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    # elimination: every routine below is one eliminate() or ldl() pass -------
    def _sparse_rows(self) -> list[SparseVec]:
        return [{c: x for c, x in enumerate(r) if x} for r in self.rows]

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        e = eliminate(self._sparse_rows())
        rows = [densify(e.rows[pc], self.ncols, self.field) for pc in e.pivots]
        rows += [zero_vector(self.field, self.ncols)] * (self.nrows - len(rows))
        return Matrix(self.field, rows, self.ncols), e.pivots

    def rank(self) -> int:
        return len(eliminate(self._sparse_rows()).rows)

    def kernel_basis(self) -> list[Vector]:
        """Canonical basis of the null space (one vector per free column)."""
        e = eliminate(self._sparse_rows())
        return [densify(v, self.ncols, self.field)
                for v in e.null_basis(self.ncols, self.field.one)]

    def solve(self, b: Vector) -> Vector | None:
        """One exact solution of M x = b, or None."""
        if len(b) != self.nrows:
            raise InputError("dimension mismatch in solve")
        X = self.solve_matrix(Matrix(self.field, [[x] for x in b]))
        return None if X is None else X.col(0)

    def solve_matrix(self, B: "Matrix") -> "Matrix | None":
        """X with self @ X = B, or None: one elimination of [self | B]."""
        if B.nrows != self.nrows:
            raise InputError("dimension mismatch in solve")
        if B.field is not self.field:
            B = B.promote(self.field)
        n = self.ncols
        rows = self._sparse_rows()
        for row, b in zip(rows, B.rows):
            row.update((n + t, x) for t, x in enumerate(b) if x)
        e = eliminate(rows, n)
        if any(lead is not None and lead[0] >= n for lead in e.leads):
            return None
        X = [[self.field.zero] * B.ncols for _ in range(n)]
        for pc, row in e.rows.items():
            for c, x in row.items():
                if c >= n:
                    X[pc][c - n] = x
        return Matrix(self.field, X, B.ncols)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise InputError("inverse of non-square matrix")
        X = self.solve_matrix(Matrix.identity(self.field, self.nrows))
        if X is None or not (self * X == Matrix.identity(self.field, self.nrows)):
            raise InputError("matrix is singular")
        return X

    def det(self) -> Scalar:
        """Signed product of the lead values that eliminate() records."""
        if self.nrows != self.ncols:
            raise InputError("determinant of non-square matrix")
        leads = eliminate(self._sparse_rows()).leads
        if any(lead is None for lead in leads):
            return self.field.zero
        cols = [c for c, _ in leads]
        swaps = sum(1 for a in range(len(cols)) for b in range(a) if cols[b] > cols[a])
        det = -self.field.one if swaps % 2 else self.field.one
        for _, x in leads:
            det = det * x
        return det

    def ldl(self) -> tuple[list[Scalar], "Matrix"]:
        """Natural-order symmetric (Hermitian) elimination of a square matrix.

        Returns the pivots and the unit lower triangular P with
        P S P* = diag(pivots).  The k-th leading principal minor is the
        product of the first k pivots.  Stops early, with fewer pivots than
        rows, at a zero pivot whose row is not zero: no such P exists then.
        """
        n = self.nrows
        if n != self.ncols:
            raise InputError("ldl of non-square matrix")
        a = [list(r) for r in self.rows]
        P = [list(r) for r in Matrix.identity(self.field, n).rows]
        pivots: list[Scalar] = []
        for k in range(n):
            d = a[k][k]
            if d:
                inv = d.inverse()
                for i in range(k + 1, n):
                    f = a[i][k] * inv
                    if f:
                        for j in range(k + 1, n):
                            a[i][j] = a[i][j] - f * a[k][j]
                        for j in range(k + 1):
                            P[i][j] = P[i][j] - f * P[k][j]
            elif any(a[k][k + 1:]):
                break
            pivots.append(d)
        return pivots, Matrix(self.field, P)

    def charpoly(self) -> Poly:
        """Characteristic polynomial det(xI - M), monic.

        M is reduced to upper Hessenberg form H by similarity transforms
        (swapping in the first nonzero subdiagonal pivot of each column), then
        p_m = (x - h_mm) p_{m-1} - sum_i h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
        gives det(xI - H) (Cohen, Alg. 2.2.9): O(n^3) field operations.
        """
        if self.nrows != self.ncols:
            raise InputError("charpoly of non-square matrix")
        n = self.nrows
        f = self.field
        a = [list(r) for r in self.rows]
        for m in range(1, n - 1):
            piv = next((i for i in range(m, n) if a[i][m - 1]), None)
            if piv is None:
                continue
            if piv != m:
                a[piv], a[m] = a[m], a[piv]
                for r in a:
                    r[piv], r[m] = r[m], r[piv]
            inv = a[m][m - 1].inverse()
            for i in range(m + 1, n):
                u = a[i][m - 1] * inv
                if not u:
                    continue
                ai, am = a[i], a[m]
                for j in range(m - 1, n):
                    if am[j]:
                        ai[j] = ai[j] - u * am[j]
                for r in a:
                    if r[i]:
                        r[m] = r[m] + u * r[i]
        ps = [[f.one]]                 # ps[m] = det(xI - H[:m, :m]), low degree first
        for m in range(n):
            p = [-a[m][m] * c for c in ps[m]] + [f.zero]
            for d, c in enumerate(ps[m]):
                p[d + 1] = p[d + 1] + c
            t = f.one
            for i in range(m - 1, -1, -1):
                t = t * a[i + 1][i]
                if not t:
                    break
                if a[i][m]:
                    s = a[i][m] * t
                    for d, c in enumerate(ps[i]):
                        p[d] = p[d] - s * c
            ps.append(p)
        return Poly(f, ps[n])

    def exp_nilpotent(self) -> "Matrix":
        """Exact exp(M) for nilpotent M (polynomial series)."""
        n = self.nrows
        f = self.field
        acc = Matrix.identity(f, n)
        term = Matrix.identity(f, n)
        fact = 1
        for k in range(1, n + 1):
            term = term * self
            if term.is_zero():
                return acc
            fact *= k
            acc = acc + term.scale(f.rat(Fraction(1, fact)))
        raise InputError("matrix is not nilpotent")

    def promote(self, fld: Field) -> "Matrix":
        return Matrix(fld, [[x.promote(fld) for x in r] for r in self.rows], self.ncols)

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}]({body})"


# ---------------------------------------------------------------------------
# graded spaces and canonical subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedSpace:
    """Ambient Z2-graded coordinate space; even coordinates come first."""
    even_dim: int
    odd_dim: int
    basis_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.even_dim < 0 or self.odd_dim < 0:
            raise InputError("graded dimensions must be >= 0")
        if not self.basis_names:
            names = tuple(f"e{i}" for i in range(self.even_dim)) + \
                    tuple(f"f{i}" for i in range(self.odd_dim))
            object.__setattr__(self, "basis_names", names)
        if len(self.basis_names) != self.even_dim + self.odd_dim:
            raise InputError("basis_names length mismatch")

    @property
    def dim(self) -> int:
        return self.even_dim + self.odd_dim

    def parity(self, i: int) -> int:
        return 0 if i < self.even_dim else 1

    def even_indices(self) -> range:
        return range(self.even_dim)

    def odd_indices(self) -> range:
        return range(self.even_dim, self.dim)


def ungraded(n: int) -> GradedSpace:
    return GradedSpace(n, 0)


class Subspace:
    """Subspace of a graded coordinate space, stored as canonical RREF rows."""

    __slots__ = ("field", "ambient", "rows", "pivots", "_entries")

    def __init__(self, fld: Field, ambient: GradedSpace, vectors: Iterable[Sequence]):
        gens = []
        for v in vectors:
            if len(v) != ambient.dim:
                raise InputError("vector length does not match ambient dimension")
            gens.append({k: fld.coerce(x) for k, x in enumerate(v) if x})
        self.field = fld
        self.ambient = ambient
        e = eliminate(gens)
        self.pivots = e.pivots
        self.rows = tuple(densify(e.rows[pc], ambient.dim, fld) for pc in self.pivots)
        self._entries = tuple(tuple(e.rows[pc].items()) for pc in self.pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field is other.field
                and self.ambient == other.ambient and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field.tag, self.ambient, self.rows))

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after eliminating against the canonical rows, over
        their nonzero entries; once a row is subtracted, every entry of v must
        lie in the row's tower (FieldMismatchError), zeros included."""
        v = list(v)
        used = None
        for pc, entries in zip(self.pivots, self._entries):
            f = v[pc]
            if f:
                used = f
                for k, y in entries:
                    v[k] = v[k] - f * y
        if used is not None:
            for x in v:
                check_tower(used, x)
        return tuple(v)

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def coords_of(self, v: Vector) -> Vector | None:
        """Coefficients of v over the canonical basis rows, or None."""
        if not self.contains(v):
            return None
        return tuple(v[pc] for pc in self.pivots)

    def sum_with(self, other: "Subspace") -> "Subspace":
        return Subspace(self.field, self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        if not self.rows or not other.rows:
            return Subspace(self.field, self.ambient, [])
        # x = a . rows1 = b . rows2  <=>  (a, -b) in kernel of [rows1^T rows2^T]
        cols = [list(r) for r in self.rows] + [list(r) for r in other.rows]
        M = Matrix.from_cols(self.field, cols)
        vecs = [lin_comb(self.field, self.ambient.dim, k[:len(self.rows)], self.rows)
                for k in M.kernel_basis()]
        return Subspace(self.field, self.ambient, vecs)

    def is_graded(self) -> bool:
        """Canonical rows are unique, so the subspace is graded exactly when
        each of them is purely even or purely odd."""
        e = self.ambient.even_dim
        return all(not any(r[:e]) or not any(r[e:]) for r in self.rows)

    def complement_coordinates(self) -> tuple[int, ...]:
        """Non-pivot coordinates; the matching unit vectors complete the basis."""
        pivset = set(self.pivots)
        return tuple(j for j in range(self.ambient.dim) if j not in pivset)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient.dim})"


def coordinate_subspace(fld: Field, ambient: GradedSpace, indices: Iterable[int]) -> Subspace:
    return Subspace(fld, ambient, [unit_vector(fld, ambient.dim, j) for j in indices])


def full_subspace(fld: Field, ambient: GradedSpace) -> Subspace:
    return coordinate_subspace(fld, ambient, range(ambient.dim))


def kernel(M: Matrix, ambient: GradedSpace | None = None) -> Subspace:
    return Subspace(M.field, ambient or ungraded(M.ncols), M.kernel_basis())


def image(M: Matrix, ambient: GradedSpace | None = None) -> Subspace:
    return Subspace(M.field, ambient or ungraded(M.nrows),
                    [M.col(j) for j in range(M.ncols)])


# ---------------------------------------------------------------------------
# homogeneous maps cut out by linear equations in their entries
# ---------------------------------------------------------------------------

def block_positions(out_space: GradedSpace, in_space: GradedSpace,
                    parity: int) -> list[tuple[int, int]]:
    """Entries (i, j), row by row, of a parity-`parity` map in_space -> out_space."""
    return [(i, j) for i in range(out_space.dim) for j in range(in_space.dim)
            if (out_space.parity(i) + in_space.parity(j)) % 2 == parity]


def solve_block_maps(fld: Field, out_space: GradedSpace, in_space: GradedSpace, parity: int,
                     equations: Callable[[dict[tuple[int, int], int]], Iterable[SparseVec]],
                     known: int = 0) -> list[Matrix]:
    """Canonical basis of the parity-`parity` maps T: in_space -> out_space
    whose entries solve the sparse rows equations(index) returns, where
    index numbers the unknown entries (i, j) of block_positions; reading
    stops once the rank leaves only the `known` solutions the caller has."""
    positions = block_positions(out_space, in_space, parity)
    index = {e: u for u, e in enumerate(positions)}
    out = []
    elim = eliminate(equations(index), stop=len(positions) - known)
    for sol in elim.null_basis(len(positions), fld.one):
        T = [[fld.zero] * in_space.dim for _ in range(out_space.dim)]
        for u, x in sol.items():
            i, j = positions[u]
            T[i][j] = x
        out.append(Matrix(fld, T))
    return out


def graded_commutant(fld: Field, out_space: GradedSpace, in_space: GradedSpace, parity: int,
                     triples: Sequence[tuple[Matrix, Matrix, int]]) -> list[Matrix]:
    """Canonical basis of the parity-`parity` maps T: in_space -> out_space
    with T B = s A T for every (A, B, s) of triples: A acts on out_space and
    B on in_space, both over fld, and s is 1 or -1.  Each equation is built
    from the nonzero entries of A and B only, one triple at a time."""
    def equations(index):
        for A, B, s in triples:
            b_rows = B._sparse_rows()
            a_cols = [{m: r[i] for m, r in enumerate(A.rows) if r[i]} for i in range(A.ncols)]
            eqs: dict[tuple[int, int], SparseVec] = {}
            for (i, p), u in index.items():
                # T[i][p] enters (T B)[i][j] by B[p][j] and (A T)[m][p] by A[m][i]
                for j, b in b_rows[p].items():
                    row = eqs.setdefault((i, j), {})
                    row[u] = row[u] + b if u in row else b
                for m, a in a_cols[i].items():
                    row = eqs.setdefault((m, p), {})
                    t = -a if s == 1 else a
                    row[u] = row[u] + t if u in row else t
            yield from eqs.values()

    identity = parity == 0 and out_space == in_space and all(
        A is B and s == 1 for A, B, s in triples)
    return solve_block_maps(fld, out_space, in_space, parity, equations, known=int(identity))


# ---------------------------------------------------------------------------
# eigenvalue splitting over the tower
# ---------------------------------------------------------------------------

@dataclass
class EigenSplit:
    """Result of a generalized-eigenspace computation; never approximate."""
    status: str                      # "OK" | "SPLITTING_FAILURE"
    pairs: list[tuple[Scalar, Subspace]] = dc_field(default_factory=list)
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "OK"


def rational_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factorization over Q of a rational-coefficient polynomial.

    sympy is imported here, so a process that never factors never loads it.
    """
    for c in p.coeffs:
        if not c.is_rational():
            raise InputError("rational_factors needs rational coefficients")
    import sympy
    sp = sympy.Poly([sympy.Rational(c.as_fraction()) for c in reversed(p.coeffs)],
                    sympy.Symbol("x"), domain="QQ")
    _, fac = sp.factor_list()
    return [(Poly(p.field, [Fraction(str(c)) for c in reversed(f.all_coeffs())]), mult)
            for f, mult in fac]


def _roots_of_low_degree(f: Poly) -> list[Scalar] | None:
    """Roots in the tower of an irreducible (over Q) factor; None if unsplittable."""
    fld = f.field
    if f.degree == 1:
        b, a = f.coeffs
        return [-b / a]
    if f.degree == 2:
        c, b, a = f.coeffs
        disc = b * b - fld.rat(4) * a * c
        sq = sqrt_in_field(disc)
        if sq is None:
            return None
        two_a = fld.rat(2) * a
        return [(-b + sq) / two_a, (-b - sq) / two_a]
    return None


def roots_in_field(p: Poly) -> tuple[dict[Scalar, int], Poly | None]:
    """All roots of p inside its tower, with multiplicities.

    Returns (roots, leftover): leftover is a nontrivial factor whose roots lie
    outside the tower (None when p splits completely).  For rational p each
    tower root of an irreducible factor f with exponent m has multiplicity m:
    distinct monic irreducibles over Q share no root and each is separable.
    Otherwise the factors are those of the norm, whose exponents count
    conjugate roots together, so multiplicities come from trial division.
    """
    if p.is_zero():
        raise InputError("roots of the zero polynomial")
    fld = p.field
    roots: dict[Scalar, int] = {}
    if all(c.is_rational() for c in p.coeffs):
        rem = Poly(fld, [p.leading()])
        for f, mult in rational_factors(p):
            rts = _roots_of_low_degree(f)
            if rts:
                roots.update(dict.fromkeys(rts, mult))
            else:
                for _ in range(mult):
                    rem = rem * f.monic()
        return roots, rem if rem.degree > 0 else None
    # product over the Galois conjugates has rational coefficients
    norm = p * Poly(fld, [c.conjugate_i() for c in p.coeffs])
    if fld.d is not None:
        norm = norm * Poly(fld, [c.conjugate_sqrt() for c in norm.coeffs])
    if any(not c.is_rational() for c in norm.coeffs):
        raise InvariantViolation("norm polynomial is not rational")  # pragma: no cover
    candidates: set[Scalar] = set()
    for f, _ in rational_factors(norm):
        candidates.update(_roots_of_low_degree(f) or ())
    rem = p
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


def generalized_eigenspaces(M: Matrix, ambient: GradedSpace | None = None) -> EigenSplit:
    """Exact direct-sum decomposition into generalized eigenspaces.

    SPLITTING_FAILURE is returned (not raised) when the characteristic
    polynomial has roots outside the declared tower.
    """
    if M.nrows != M.ncols:
        raise InputError("generalized_eigenspaces of non-square matrix")
    amb = ambient or ungraded(M.ncols)
    cp = M.charpoly()
    roots, leftover = roots_in_field(cp)
    if leftover is not None:
        return EigenSplit("SPLITTING_FAILURE",
                          failure=f"characteristic factor does not split: {leftover}")
    pairs = []
    n = M.ncols
    total = 0
    for lam in sorted(roots, key=str):
        mult = roots[lam]
        # dim ker N^k never exceeds mult, so the first k reaching it gives
        # ker N^mult; semisimple N (every root decomposition) stops at k = 1
        N = Matrix(M.field, [[x - lam if i == j else x for j, x in enumerate(r)]
                             for i, r in enumerate(M.rows)])
        A, space = N, kernel(N, amb)
        for _ in range(1, mult):
            if space.dim == mult:
                break
            A = A * N
            space = kernel(A, amb)
        pairs.append((lam, space))
        total += space.dim
    if total != n:
        return EigenSplit("SPLITTING_FAILURE",
                          failure="eigenspace dimensions do not sum to the ambient")
    return EigenSplit("OK", pairs)


def joint_eigenspaces(mats: Sequence[Matrix], ambient: GradedSpace | None = None,
                      ) -> tuple[str, list[tuple[tuple[Scalar, ...], Subspace]]]:
    """Common refinement of generalized eigenspaces of a commuting family.

    Computed by intersecting the per-matrix decompositions, which agrees with
    iterated splitting for commuting operators and is order-independent.
    """
    amb = ambient or ungraded(mats[0].ncols if mats else 0)
    if not mats:
        return "OK", [((), full_subspace(Field(), amb))]
    splits = []
    for M in mats:
        es = generalized_eigenspaces(M, amb)
        if not es.ok:
            return "SPLITTING_FAILURE", []
        splits.append(es.pairs)
    current: list[tuple[tuple[Scalar, ...], Subspace]] = [((), full_subspace(mats[0].field, amb))]
    for pairs in splits:
        nxt = []
        for evs, space in current:
            # the eigenspaces are independent: once the pieces found fill
            # space, every later intersection is zero
            filled = 0
            for lam, espace in pairs:
                inter = space.intersect(espace)
                if inter.dim:
                    nxt.append((evs + (lam,), inter))
                    filled += inter.dim
                    if filled == space.dim:
                        break
        current = nxt
    return "OK", current
