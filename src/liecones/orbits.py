"""The orbit method for nilpotent Lie supergroups: admissible functionals,
polarizing systems, coadjoint orbits, induced-representation descriptors,
and branching multiplicities.

Coadjoint membership is decided by layer-wise elimination along the lower
central series of the even part; each layer contributes linear equations in
the remaining group freedom.  The procedure is exact and complete up to
nilpotency class 3 (single exponentials are surjective and the stabilizer
conditions stay linear there); deeper algebras raise Undetermined when
the linearized stages cannot conclude.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .exactnum import InputError, InvariantViolation, Undetermined
from .glinalg import (Matrix, Subspace, Vector, lin_comb, unit_vector, vec_add, vec_is_zero,
                      vec_scale)
from .lsa import (
    LieSuperalgebra, QuotientResult, bracket_span, center, is_nilpotent, is_subalgebra,
    quotient, series, subalgebra_on,
)
from .cones import OddSquareForm, functional_value, is_positive_semidefinite


class NotAdmissible(InputError):
    """The functional is outside the admissible cone (odd Gram matrix not
    positive semidefinite)."""


# ---------------------------------------------------------------------------
# functionals and forms
# ---------------------------------------------------------------------------

def coerce_functional(g: LieSuperalgebra, lam: Sequence) -> Vector:
    f = g.field
    lam = tuple(f.coerce(x) for x in lam)
    if len(lam) != g.space.even_dim:
        raise InputError("functional length must equal the even dimension")
    return lam


def even_skew_form(g: LieSuperalgebra, lam: Sequence) -> Matrix:
    """Omega_lambda(X, Y) = lambda([X, Y]) on the even part."""
    return Matrix(g.field, _skew_rows(g, coerce_functional(g, lam)))


def _skew_rows(g: LieSuperalgebra, lam: Vector) -> list[list]:
    """The rows lambda o ad(e_i) of Omega_lambda, summed over the nonzero
    structure constants."""
    e = g.space.even_dim
    rows = [[g.field.zero] * e for _ in range(e)]
    for (i, j), out in g.brackets.items():
        if i < e and j < e:
            rows[i][j] = sum((lam[k] * c for k, c in out.items() if k < e and lam[k]),
                             g.field.zero)
    return rows


def in_admissible_cone(g: LieSuperalgebra, lam: Sequence) -> tuple[bool, OddSquareForm]:
    """Exact PSD test of the odd Gram matrix of lambda."""
    lam = coerce_functional(g, lam)
    form = OddSquareForm.of(g, lam)
    return is_positive_semidefinite(form.matrix), form


# ---------------------------------------------------------------------------
# polarizing systems (radical-sum flag construction)
# ---------------------------------------------------------------------------

@dataclass
class PolarizingSystem:
    host: LieSuperalgebra
    lam: Vector
    m: Subspace                  # graded: m0 (+) all of g1
    m0: Subspace                 # even polarizing subalgebra
    j: Subspace                  # ker(lam|m0) (+) rad of odd Gram
    clifford: QuotientResult     # m / j on its own basis
    even_rank: int               # rank of Omega_lambda on g0
    odd_rank: int                # rank of the odd Gram matrix
    flag_dims: tuple[int, ...]

    @property
    def clifford_dim(self) -> int:
        d = self.odd_rank
        return 1 if d == 0 else 2 ** (d - d // 2)

    def branching_report(self) -> dict:
        return {
            "multiplicity": self.clifford_dim,
            "clifford_module_dim": self.clifford_dim,
            "paper_exponent": self.m.dim - self.j.dim,
            "paper_value": 2 ** (self.m.dim - self.j.dim),
        }

    def as_json(self) -> dict:
        return {
            "lambda": [str(x) for x in self.lam],
            "m0_dim": self.m0.dim,
            "m0_basis": [[str(x) for x in r] for r in self.m0.rows],
            "j_dim": self.j.dim,
            "even_rank": self.even_rank,
            "odd_rank": self.odd_rank,
            "clifford_dim": self.clifford_dim,
            "clifford_quotient": self.clifford.algebra.to_json(),
            "flag_dims": list(self.flag_dims),
            "branching": self.branching_report(),
        }


def _form_on(omega: Matrix, s: Subspace) -> Matrix:
    """u^T Omega v over the basis of an even subspace s of g."""
    images = [omega.apply(v[:omega.ncols]) for v in s.rows]
    return Matrix(omega.field, [[functional_value(u[:omega.ncols], w) for w in images]
                                for u in s.rows])


def polarizing_flag(g: LieSuperalgebra, lam: Sequence) -> PolarizingSystem:
    """Radical-sum polarization through [g1, g1], with the Clifford quotient."""
    lam = coerce_functional(g, lam)
    if not is_nilpotent(g):
        raise InputError("polarizing systems need a nilpotent algebra")
    admissible, form = in_admissible_cone(g, lam)
    if not admissible:
        raise NotAdmissible("odd Gram matrix is not positive semidefinite")
    omega = even_skew_form(g, lam)
    return _polarize(g, lam, omega, omega.rank(), form.matrix, [])


def _polarize(g: LieSuperalgebra, lam: Vector, omega: Matrix, even_rank: int, gram: Matrix,
              subalgebras: list) -> PolarizingSystem:
    """Sum of the Omega_lambda radicals of the Engel flag members, for an
    admissible lam with skew form omega of rank even_rank and odd Gram
    matrix gram; m0 = g0 when omega = 0, since then every member is its own
    radical."""
    chain = g.engel_flag
    if omega.is_zero():
        m0 = chain[-1]
    else:
        # the radical of Omega_lambda on each member, summed
        m0 = g.subspace([lin_comb(g.field, g.dim, sol, member.rows) for member in chain[1:]
                         for sol in _form_on(omega, member).kernel_basis()])
    return _assemble(g, lam, m0, tuple(s.dim for s in chain), omega, even_rank, gram,
                     subalgebras)


def polarizing_system_from_m0(g: LieSuperalgebra, lam: Sequence, m0: Subspace,
                              flag_dims: tuple[int, ...] = ()) -> PolarizingSystem:
    """Assemble and verify a polarizing system from a given even polarization.

    Checks: inside g0, maximal (dimension count), contains [g1, g1],
    subalgebra, Omega_lambda-isotropic; then builds j and the Clifford
    quotient, whose construction checks that j is an ideal of m.
    """
    lam = coerce_functional(g, lam)
    admissible, form = in_admissible_cone(g, lam)
    if not admissible:
        raise NotAdmissible("odd Gram matrix is not positive semidefinite")
    if not g.even_subspace.contains_subspace(m0):
        raise InputError("polarization is not inside g0")
    omega = even_skew_form(g, lam)
    return _assemble(g, lam, m0, flag_dims, omega, omega.rank(), form.matrix, [])


def _assemble(g: LieSuperalgebra, lam: Vector, m0: Subspace, flag_dims: tuple[int, ...],
              omega: Matrix, even_rank: int, gram: Matrix,
              subalgebras: list) -> PolarizingSystem:
    """The checks and the Clifford quotient of polarizing_system_from_m0, from
    lam's skew form, its rank and the odd Gram matrix; subalgebras holds the
    (m0 rows, realization of m = m0 (+) g1) pairs of the m0 already checked."""
    e = g.space.even_dim
    if even_rank % 2:
        raise InvariantViolation("skew form has odd rank")  # pragma: no cover
    if m0.dim != e - even_rank // 2:
        raise InputError("polarization has the wrong dimension")
    if not m0.contains_subspace(g.odd_square):
        raise InputError("[g1,g1] is not inside the polarization")
    msub = next((ms for rows, ms in subalgebras if rows == m0.rows), None)
    if msub is None and not is_subalgebra(g, m0):
        raise InputError("polarization is not a subalgebra")
    if not _form_on(omega, m0).is_zero():
        raise InputError("polarization is not isotropic")
    if msub is None:
        msub = subalgebra_on(g, m0.sum_with(g.odd_subspace), name=f"{g.name}|m")
        subalgebras.append((m0.rows, msub))
    m = msub.subspace
    # j = ker(lambda restricted to m0) (+) rad of the odd Gram form
    coeff_rows = [[functional_value(lam, b[:e]) for b in m0.rows]]
    ker_rows = [lin_comb(g.field, g.dim, sol, m0.rows)
                for sol in Matrix(g.field, coeff_rows).kernel_basis()]
    gram_kernel = gram.kernel_basis()
    odd_rank = gram.nrows - len(gram_kernel)
    odd_rad_rows = [lin_comb(g.field, g.dim, sol, g.odd_subspace.rows) for sol in gram_kernel]
    j = Subspace(g.field, g.space, ker_rows + odd_rad_rows)
    j_in_m_rows = [msub.restrict(r) for r in j.rows]
    if None in j_in_m_rows:
        raise InvariantViolation("j does not sit inside m")  # pragma: no cover
    j_in_m = Subspace(g.field, msub.algebra.space, j_in_m_rows)
    # quotient checks that j is an ideal of m, with a witness when it is not
    cliff = quotient(msub.algebra, j_in_m, name=f"{g.name}|m/j")
    ca = cliff.algebra
    if ca.space.even_dim > 1:
        raise InputError("Clifford quotient has a non-line even part")
    if ca.space.even_dim == 1 and any(any(ca.bracket(ca.basis_vector(0), ca.basis_vector(i)))
                                      for i in range(ca.dim)):
        raise InputError("Clifford quotient center is not central")
    return PolarizingSystem(g, lam, m, m0, j, cliff, even_rank, odd_rank, flag_dims)


def branching_multiplicity(ps: PolarizingSystem) -> int:
    """Multiplicity of the classical orbit representation in the restriction
    to the even group: the Clifford-module dimension of m/j.  The printed
    exponent 2^(dim m - dim j) is available in branching_report()."""
    return ps.clifford_dim


# ---------------------------------------------------------------------------
# coadjoint orbits
# ---------------------------------------------------------------------------

@dataclass
class OrbitPath:
    """Group word exp(W_1) exp(W_2) ... with lambda2 = lambda o Ad(word)."""
    exps: list[Vector]

    def as_json(self) -> dict:
        return {"exps": [[str(x) for x in w] for w in self.exps]}


def _apply_exp(g: LieSuperalgebra, lam: Vector, w_even: Vector) -> Vector:
    """lam o exp(ad w) as the row-vector series sum_k lam (ad w)^k / k!, which
    ends at its first zero term since ad w is nilpotent on g0."""
    f = g.field
    g0 = g.even_part.algebra
    A = Matrix.combination(f, g0.dim, g0.dim, zip(w_even, g0.ad_basis))   # ad(w) on g0
    out = term = lam
    for k in range(1, len(lam) + 1):
        term = vec_scale(f.rat(Fraction(1, k)),
                         tuple(functional_value(term, col) for col in zip(*A.rows)))
        if vec_is_zero(term):
            return out
        out = vec_add(out, term)
    raise InvariantViolation("ad(w) is not nilpotent on g0")  # pragma: no cover


def coadjoint_orbit_member(g: LieSuperalgebra, lam: Sequence, lam2: Sequence,
                           first_stages: dict | None = None) -> OrbitPath | None:
    """Exact parameters with lam2 = lam o Ad(exp W_1 exp W_2 ...), or None.

    The first stage's system depends on g and lam alone; first_stages, a dict
    shared by calls on one g, keeps it factored per lam across them."""
    lam = coerce_functional(g, lam)
    lam2 = coerce_functional(g, lam2)
    if not is_nilpotent(g):
        raise InputError("coadjoint machinery needs a nilpotent algebra")
    e = g.space.even_dim
    f = g.field
    g0 = g.even_part.algebra
    chain = series(g0, "lower_central")
    if chain[-1].dim != 0:
        raise InvariantViolation("even part is not nilpotent")  # pragma: no cover
    layers = chain[:-1]                                 # c_1 > c_2 > ... > c_s
    s = len(layers)
    # values on the deepest (central) layer are invariants
    deepest = layers[-1]
    for y in deepest.rows:
        if functional_value(lam, y) != functional_value(lam2, y):
            return None
    cur = lam
    path: list[Vector] = []
    h_rows: list[Vector] = [unit_vector(f, e, j) for j in range(e)]
    first_stages = {} if first_stages is None else first_stages
    for k in range(s - 2, -1, -1):
        layer = layers[k]
        first = k == s - 2
        solve = first_stages.get(lam) if first else None
        if solve is None:
            skew = _skew_rows(g, cur)                  # cur o ad(e_i)
            cols = [[functional_value(wp, y) for y in layer.rows]
                    for wp in (lin_comb(f, e, w, skew) for w in h_rows)]
            solve = Matrix.from_cols(f, cols).solver()
            if first:
                first_stages[lam] = solve
        sol = solve(tuple(functional_value(lam2, y) - functional_value(cur, y)
                          for y in layer.rows))
        deep_stage = s >= 4 and k <= s - 4
        if sol is None:
            if deep_stage:
                raise Undetermined(
                    "linearized stage failed below class-3 depth; membership undecided")
            return None
        w = lin_comb(f, e, sol, h_rows)
        cur = _apply_exp(g, cur, w)
        path.append(w)
        for y in layer.rows:
            if functional_value(cur, y) != functional_value(lam2, y):
                if deep_stage:
                    raise Undetermined("deep stage did not stabilize the layer")
                raise InvariantViolation("stage verification failed")  # pragma: no cover
        if k == 0:
            break
        # shrink the allowed directions to those that preserve the matched
        # layer; the last stage has no next one to read them
        skew = _skew_rows(g, cur)
        wps = [lin_comb(f, e, w0, skew) for w0 in h_rows]
        rows = [[functional_value(wp, y) for wp in wps] for y in layer.rows]
        h_rows = [lin_comb(f, e, sol0, h_rows)
                  for sol0 in (Matrix(f, rows).kernel_basis() if rows else [])]
    if tuple(cur) != tuple(lam2):
        raise InvariantViolation("orbit path verification failed")  # pragma: no cover
    # exact end-to-end re-verification of the recorded word
    check = lam
    for w in path:
        check = _apply_exp(g, check, w)
    if tuple(check) != tuple(lam2):
        raise InvariantViolation("path re-verification failed")  # pragma: no cover
    return OrbitPath(path)


# ---------------------------------------------------------------------------
# orbit classification over finite candidate boxes
# ---------------------------------------------------------------------------

def grid_box(g: LieSuperalgebra, low: int, high: int) -> list[Vector]:
    """All integer functionals with coordinates in [low, high], lexicographic."""
    return [tuple(g.field.rat(c) for c in p)
            for p in product(range(low, high + 1), repeat=g.space.even_dim)]


def central_box(g: LieSuperalgebra, low: int, high: int) -> list[Vector]:
    """Functionals supported on the dual of the center of the even part."""
    zc = center(g.even_part.algebra)
    return [lin_comb(g.field, g.space.even_dim, [g.field.rat(c) for c in p], zc.rows)
            for p in product(range(low, high + 1), repeat=zc.dim)]


@dataclass
class OrbitDescriptor:
    representative: Vector
    members: list[int]                  # indices into the candidate box
    even_rank: int
    clifford_dim: int
    central_character: tuple[str, ...]
    polarizing: PolarizingSystem

    def as_json(self) -> dict:
        return {
            "representative": [str(x) for x in self.representative],
            "member_count": len(self.members),
            "members": self.members,
            "even_rank": self.even_rank,
            "clifford_dim": self.clifford_dim,
            "central_character": list(self.central_character),
            "polarizing": self.polarizing.as_json(),
        }


def classify_orbits(g: LieSuperalgebra, box: Sequence[Sequence]) -> list[OrbitDescriptor]:
    """Partition the admissible members of a finite candidate box into
    coadjoint orbits and attach polarizing-system descriptors.

    Members are grouped by the orbit invariants (central character, rank of
    Omega_lambda); a rank-0 functional is a fixed point, and every other
    member is tested against the representative of each orbit found so far
    in its group."""
    if not is_nilpotent(g):
        raise InputError("orbit classification needs a nilpotent algebra")
    cands = [coerce_functional(g, lam) for lam in box]
    grams = {}                      # the odd Gram matrix of each admissible member
    for i, lam in enumerate(cands):
        admissible, form = in_admissible_cone(g, lam)
        if admissible:
            grams[i] = form.matrix
    # Omega_lambda and its rank, per admissible member; they depend on
    # lambda only through its values on [g0, g0]
    derived = bracket_span(g, g.even_subspace, g.even_subspace)
    skew: dict[tuple, tuple[Matrix, int]] = {}
    omegas = {}
    for i in grams:
        key = tuple(functional_value(cands[i], y[:g.space.even_dim]) for y in derived.rows)
        if key not in skew:
            skew[key] = (omega := even_skew_form(g, cands[i]), omega.rank())
        omegas[i] = skew[key]
    zc = center(g.even_part.algebra)
    inv = {i: (tuple(str(functional_value(cands[i], z)) for z in zc.rows), omegas[i][1])
           for i in grams}
    groups: dict[tuple, list[int]] = {}
    for i in grams:
        groups.setdefault(inv[i], []).append(i)
    orbits: list[list[int]] = []
    for (_, rank), members in sorted(groups.items()):
        if rank == 0:
            # Omega_lambda = 0: lambda o ad X vanishes on g0 for every even X,
            # so Ad*(G0) fixes lambda and its orbit is {lambda}
            points: dict[Vector, list[int]] = {}
            for i in members:
                points.setdefault(cands[i], []).append(i)
            orbits.extend(points.values())
            continue
        found: list[list[int]] = []
        first_stages: dict = {}
        for i in members:
            for orbit in found:
                if coadjoint_orbit_member(g, cands[orbit[0]], cands[i], first_stages) is not None:
                    orbit.append(i)
                    break
            else:
                found.append([i])
        orbits.extend(found)
    out = []
    subalgebras: list = []
    for members in sorted(orbits):
        r = members[0]
        ps = _polarize(g, cands[r], *omegas[r], grams[r], subalgebras)
        cc, rank = inv[r]
        for i in members[1:]:
            if inv[i] != (cc, rank):
                raise InvariantViolation("orbit invariants differ inside one orbit")
            if grams[i] != grams[r] and grams[i].rank() != ps.odd_rank:
                raise InvariantViolation("odd rank differs inside one orbit")
        out.append(OrbitDescriptor(cands[r], members, rank, ps.clifford_dim, cc, ps))
    return out


# ---------------------------------------------------------------------------
# Heisenberg / Clifford dichotomy for the induction step
# ---------------------------------------------------------------------------

def kirillov_heisenberg_check(g: LieSuperalgebra) -> dict:
    """For nilpotent g with one-dimensional center and no self-commuting odd
    vectors: report the Clifford branch (central even part) or exhibit a
    (3|0) Heisenberg triple."""
    from .cones import find_isotropic_odd, find_pd_functional

    report: dict = {"preconditions": {}, "branch": None, "witness": None}
    nil = is_nilpotent(g)
    report["preconditions"]["nilpotent"] = nil
    zc = center(g)
    report["preconditions"]["center_dim"] = zc.dim
    iso = find_isotropic_odd(g)
    pd = find_pd_functional(g, cap=400)
    if iso.status == "ISOTROPIC_FOUND":
        no_iso = False
    elif pd.status == "POINTED_CERTIFIED":
        no_iso = True          # definite Gram certifies absence
    else:
        no_iso = "UNDETERMINED"
    report["preconditions"]["no_isotropic_odd"] = no_iso
    if not nil or zc.dim != 1 or no_iso is False:
        report["status"] = "PRECONDITIONS_VIOLATED"
        return report
    report["status"] = "OK"
    if g.even_subspace == zc:
        report["branch"] = "clifford"
        return report
    e = g.space.even_dim
    zvec = zc.rows[0]
    for i in range(e):
        for j in range(i + 1, e):
            v = g.bracket_basis(i, j)
            if vec_is_zero(v) or not zc.contains(v):
                continue
            coeff = zc.coords_of(v)[0]
            x = g.basis_vector(i)
            y = vec_scale(coeff.inverse(), g.basis_vector(j))
            triple = Subspace(g.field, g.space, [x, y, zvec])
            if triple.dim == 3:
                report["branch"] = "heisenberg_triple"
                report["witness"] = {"X_index": i, "Y_index": j,
                                     "Y_scale": str(coeff.inverse())}
                return report
    report["branch"] = "not_found"
    report["status"] = "SEARCH_EXHAUSTED"
    return report
