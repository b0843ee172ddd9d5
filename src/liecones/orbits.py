"""The orbit method for nilpotent Lie supergroups: admissible functionals,
polarizing systems, coadjoint orbits, induced-representation descriptors,
and branching multiplicities.

Coadjoint orbits are read off the Pukanszky-Vergne flag normal form: one
pass up the Engel flag of g0 moves lambda, by one exponential of its
stabilizer per jump vector of the flag, to the one point of its orbit that
vanishes on every jump vector.  Two functionals share an orbit exactly when
they share that point, at every nilpotency class, and the two words give an
exact group path between them.  lambda o ad(w) is read off g0's structure
constants.  Classification keeps the odd Gram verdict, rank and radical per
value of lambda on [g1, g1], the rank of Omega_lambda per value on [g0, g0],
and realizes m = g (m0 = g0) once per algebra (full_part).  A flat group,
rank Omega_lambda = dim g0 - dim z(g0), is one orbit lambda + z(g0)^perp and
is decided by its invariants.  ker(lambda|m0) is read off lambda's first
nonzero value on m0, and a j that contains [m, m] gives an abelian m/j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .exactnum import InputError, InvariantViolation
from .glinalg import Matrix, Subspace, Vector, lin_comb, vec_add, vec_is_zero, vec_scale, vec_sub
from .lsa import (
    LieSuperalgebra, QuotientResult, bracket_form, center, is_nilpotent,
    is_subalgebra, quotient, series, subalgebra_on,
)
from .cones import (
    ISOTROPIC_FOUND, POINTED_CERTIFIED, OddSquareForm, coerce_functional, find_isotropic_odd,
    find_pd_functional, functional_value, is_positive_semidefinite,
)


class NotAdmissible(InputError):
    """The functional is outside the admissible cone (odd Gram matrix not
    positive semidefinite)."""


# ---------------------------------------------------------------------------
# functionals and forms
# ---------------------------------------------------------------------------

def even_skew_form(g: LieSuperalgebra, lam: Sequence) -> Matrix:
    """Omega_lambda(X, Y) = lambda([X, Y]) on the even part."""
    even = g.even_subspace.rows
    return bracket_form(g, coerce_functional(g, lam), even, even)


def in_admissible_cone(g: LieSuperalgebra, lam: Sequence) -> tuple[bool, OddSquareForm]:
    """Exact PSD test of the odd Gram matrix of lambda."""
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


def polarizing_flag(g: LieSuperalgebra, lam: Sequence) -> PolarizingSystem:
    """Radical-sum polarization through [g1, g1], with the Clifford quotient."""
    lam = coerce_functional(g, lam)
    if not is_nilpotent(g):
        raise InputError("polarizing systems need a nilpotent algebra")
    return _polarize(g, lam, *_admissible(g, lam), [])


def _admissible(g: LieSuperalgebra, lam: Vector) -> tuple[int, list[Vector]]:
    """The rank of Omega_lambda and the odd Gram radical of an admissible lam;
    NotAdmissible when its odd Gram matrix is not positive semidefinite."""
    admissible, form = in_admissible_cone(g, lam)
    if not admissible:
        raise NotAdmissible("odd Gram matrix is not positive semidefinite")
    return even_skew_form(g, lam).rank(), _odd_radical(g, form.matrix)


def _odd_radical(g: LieSuperalgebra, gram: Matrix) -> list[Vector]:
    """The radical of an odd Gram matrix, as rows of g."""
    return [lin_comb(g.field, g.dim, sol, g.odd_subspace.rows) for sol in gram.kernel_basis()]


def _polarize(g: LieSuperalgebra, lam: Vector, even_rank: int, odd_rad: list[Vector],
              subalgebras: list) -> PolarizingSystem:
    """Sum of the Omega_lambda radicals of the Engel flag members, for an
    admissible lam with skew form of rank even_rank and odd Gram radical
    odd_rad; m0 = g0 at rank 0, since then every member is its own radical."""
    chain = g.engel_flag
    if even_rank == 0:
        m0 = chain[-1]
    else:
        # the radical of Omega_lambda on each member, summed
        m0 = g.subspace([lin_comb(g.field, g.dim, sol, member.rows) for member in chain[1:]
                         for sol in bracket_form(g, lam, member.rows, member.rows).kernel_basis()])
    return _assemble(g, lam, m0, tuple(s.dim for s in chain), even_rank, odd_rad, subalgebras)


def polarizing_system_from_m0(g: LieSuperalgebra, lam: Sequence, m0: Subspace,
                              flag_dims: tuple[int, ...] = ()) -> PolarizingSystem:
    """Assemble and verify a polarizing system from a given even polarization.

    Checks: inside g0, maximal (dimension count), contains [g1, g1],
    subalgebra, Omega_lambda-isotropic; then builds j and the Clifford
    quotient, whose construction checks that j is an ideal of m.
    """
    lam = coerce_functional(g, lam)
    even_rank, odd_rad = _admissible(g, lam)
    if not g.even_subspace.contains_subspace(m0):
        raise InputError("polarization is not inside g0")
    return _assemble(g, lam, m0, flag_dims, even_rank, odd_rad, [])


def _assemble(g: LieSuperalgebra, lam: Vector, m0: Subspace, flag_dims: tuple[int, ...],
              even_rank: int, odd_rad_rows: list[Vector], subalgebras: list) -> PolarizingSystem:
    """The checks and the Clifford quotient of polarizing_system_from_m0, from
    the rank of lam's skew form and the radical of its odd Gram matrix;
    subalgebras holds the (m0 rows, realization of m = m0 (+) g1) pairs of the
    m0 below g0 already checked, and g.full_part realizes m = g."""
    e = g.space.even_dim
    if even_rank % 2:
        raise InvariantViolation("skew form has odd rank")  # pragma: no cover
    if m0.dim != e - even_rank // 2:
        raise InputError("polarization has the wrong dimension")
    if not m0.contains_subspace(g.odd_square):
        raise InputError("[g1,g1] is not inside the polarization")
    whole = m0.dim == e                 # m0 = g0, so m = g
    msub = g.full_part if whole else next((ms for r, ms in subalgebras if r == m0.rows), None)
    if msub is None and not is_subalgebra(g, m0):
        raise InputError("polarization is not a subalgebra")
    # m0 = g0 means even_rank = 0 (dimension check), so Omega_lambda = 0 on it
    if not whole and not bracket_form(g, lam, m0.rows, m0.rows).is_zero():
        raise InputError("polarization is not isotropic")
    if msub is None:
        msub = subalgebra_on(g, m0.sum_with(g.odd_subspace), name=f"{g.name}|m")
        subalgebras.append((m0.rows, msub))
    m = msub.subspace
    # j = ker(lambda restricted to m0) (+) rad of the odd Gram form; with c_t = lambda(b_t)
    # and p the first t with c_t != 0 (if any), ker is spanned by b_t - (c_t / c_p) b_p, t != p
    coeff = [functional_value(lam, b[:e]) for b in m0.rows]
    p = next((t for t, c in enumerate(coeff) if c), None)
    inv = None if p is None else coeff[p].inverse()
    ker_rows = [vec_sub(b, vec_scale(c * inv, m0.rows[p])) if c else b
                for t, (b, c) in enumerate(zip(m0.rows, coeff)) if t != p]
    odd_rank = g.space.odd_dim - len(odd_rad_rows)
    j = Subspace(g.field, g.space, ker_rows + odd_rad_rows)
    if whole:
        j_in_m = j          # g's realization is on the identity rows: j is already j-in-m
    else:
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
    ends at its first zero term since ad w is nilpotent on g0; the term
    t o ad w is the one row [t([w, e_j]) for e_j in g0] of bracket_form."""
    f = g.field
    g0 = g.even_part.algebra
    out = term = lam
    for k in range(1, len(lam) + 1):
        term = vec_scale(f.rat(Fraction(1, k)),
                         bracket_form(g0, term, [w_even], g0.full_space.rows).rows[0])
        if vec_is_zero(term):
            return out
        out = vec_add(out, term)
    raise InvariantViolation("ad(w) is not nilpotent on g0")  # pragma: no cover


def _normal_form(g: LieSuperalgebra, lam: Vector) -> tuple[Vector, list[Vector]]:
    """(N, word): N = lam o Ad(exp W_1 exp W_2 ...) is the one point of lam's
    orbit that vanishes on every jump vector of g.engel_flag.

    Up the flag g_0 < g_1 < ... of ideals of g0 ([g0, g_j] in g_(j-1)), s spans
    the stabilizer of cur on g_(j-1), and y is the first canonical row of g_j
    outside g_(j-1).  An X of s fixes cur on g_(j-1) and moves cur(y) by
    cur([X, y]), so y is a jump when some cur([X, y]) is nonzero, and then
    exp(t X) sets cur(y) to 0; s shrinks to the X with cur([X, y]) = 0.  Two
    functionals of one orbit therefore meet at every step, and the functionals
    of two orbits never do (Pukanszky; Corwin-Greenleaf I, 3.1)."""
    f, e = g.field, g.space.even_dim
    chain = g.engel_flag
    cur, word = lam, []
    s = list(g.even_subspace.rows)
    for lower, member in zip(chain, chain[1:]):
        y = next(r for r in member.rows if not lower.contains(r))
        col = [r[0] for r in bracket_form(g, cur, s, [y]).rows]
        k = next((i for i, c in enumerate(col) if c), None)
        if k is None:
            continue
        t = -functional_value(cur, y[:e]) / col[k]
        if t:
            w = vec_scale(t, s[k][:e])
            cur = _apply_exp(g, cur, w)
            word.append(w)
        s = [lin_comb(f, g.dim, sol, s) for sol in Matrix(f, [col]).kernel_basis()]
    return cur, word


def coadjoint_orbit_member(g: LieSuperalgebra, lam: Sequence, lam2: Sequence) -> OrbitPath | None:
    """Exact parameters with lam2 = lam o Ad(exp W_1 exp W_2 ...), or None:
    lam and lam2 share an orbit exactly when they share a flag normal form, and
    the word runs to it from lam and back from it to lam2."""
    lam = coerce_functional(g, lam)
    lam2 = coerce_functional(g, lam2)
    if not is_nilpotent(g):
        raise InputError("coadjoint machinery needs a nilpotent algebra")
    point, path = _normal_form(g, lam)
    point2, back = _normal_form(g, lam2)
    if point != point2:
        return None
    path += [tuple(-x for x in w) for w in reversed(back)]
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
    Omega_lambda); a rank-0 functional is a fixed point, a group of rank
    dim g0 - dim z(g0) is one orbit, and the members of every other group are
    split by their flag normal form, with no membership test."""
    if not is_nilpotent(g):
        raise InputError("orbit classification needs a nilpotent algebra")
    e = g.space.even_dim
    cands = [coerce_functional(g, lam) for lam in box]
    # one _odd_radical (None if not admissible) per value of lambda on [g1, g1],
    # one rank of Omega_lambda per value on [g0, g0]: lambda([u, v]) reads no more
    *_, derived = series(g.even_part.algebra, "lower_central")[:2]     # [g0, g0], or g0 = 0
    gram: dict[tuple, tuple | None] = {}
    skew: dict[tuple, int] = {}
    odds, ranks = {}, {}
    for i, lam in enumerate(cands):
        key = tuple(functional_value(lam, y[:e]) for y in g.odd_square.rows)
        if key not in gram:
            admissible, form = in_admissible_cone(g, lam)
            gram[key] = _odd_radical(g, form.matrix) if admissible else None
        if gram[key] is None:
            continue
        odds[i] = gram[key]
        key = tuple(functional_value(lam, y[:e]) for y in derived.rows)
        if key not in skew:
            skew[key] = even_skew_form(g, lam).rank()
        ranks[i] = skew[key]
    zc = center(g.even_part.algebra)
    flat = e - zc.dim
    inv = {i: (tuple(str(functional_value(cands[i], z)) for z in zc.rows), ranks[i])
           for i in odds}
    groups: dict[tuple, list[int]] = {}
    for i in odds:
        groups.setdefault(inv[i], []).append(i)
    orbits: list[list[int]] = []
    for (_, rank), members in sorted(groups.items()):
        if 0 < rank == flat:
            # Omega_lambda has radical z(g0): the orbit is open and closed in lambda + z(g0)^perp
            orbits.append(members)
            continue
        # at rank 0 lambda o ad X vanishes on g0 for every even X, so Ad*(G0)
        # fixes lambda and its orbit is {lambda}; any other orbit is its normal form
        points: dict[Vector, list[int]] = {}
        for i in members:
            points.setdefault(cands[i] if rank == 0 else _normal_form(g, cands[i])[0],
                              []).append(i)
        orbits.extend(points.values())
    out = []
    subalgebras: list = []
    for members in sorted(orbits):
        r = members[0]
        ps = _polarize(g, cands[r], ranks[r], odds[r], subalgebras)
        cc, rank = inv[r]
        for i in members[1:]:
            if inv[i] != (cc, rank):
                raise InvariantViolation("orbit invariants differ inside one orbit")
            if len(odds[i]) != len(odds[r]):
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
    report: dict = {"preconditions": {}, "branch": None, "witness": None}
    nil = is_nilpotent(g)
    report["preconditions"]["nilpotent"] = nil
    zc = center(g)
    report["preconditions"]["center_dim"] = zc.dim
    if find_isotropic_odd(g).status == ISOTROPIC_FOUND:
        no_iso = False
    elif find_pd_functional(g, cap=400).status == POINTED_CERTIFIED:
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
