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
from typing import Sequence

from .exactnum import InputError, InvariantViolation, Undetermined
from .glinalg import (Matrix, Subspace, Vector, lin_comb, unit_vector, vec_add, vec_is_zero,
                      vec_scale, zero_vector)
from .lsa import (
    LieSuperalgebra, QuotientResult, bracket_span, center,
    is_ideal, is_nilpotent, is_subalgebra, quotient, series, subalgebra_on,
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


def even_skew_form(g: LieSuperalgebra, lam: Vector) -> Matrix:
    """Omega_lambda(X, Y) = lambda([X, Y]) on the even part."""
    e = g.space.even_dim
    rows = []
    for i in range(e):
        row = []
        for j in range(e):
            row.append(functional_value(lam, g.bracket_basis(i, j)[:e]))
        rows.append(row)
    return Matrix(g.field, rows)


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


def _engel_refine(g: LieSuperalgebra, bottom: Subspace, top: Subspace) -> list[Subspace]:
    """Codimension-one ideal chain of g0 from bottom to top.

    At each step the elements of top that g0 maps into the current member
    form a strictly larger ideal (Engel); the new generator is taken in
    deterministic reverse basis order.
    """
    e = g.space.even_dim
    chain = [bottom]
    cur = bottom
    g0 = g.even_part.algebra
    while cur != top:
        rows = []
        comp = cur.complement_coordinates()
        for gi in range(e):
            ad_even = g0.ad(g0.basis_vector(gi))
            red_cols = []
            for tb in top.rows:
                w = ad_even.apply(tuple(tb[:e]))
                w_full = tuple(w) + tuple(g.field.zero for _ in range(g.dim - e))
                resid = cur.reduce(w_full)
                red_cols.append([resid[c] for c in comp])
            for rr in zip(*red_cols):
                rows.append(list(rr))
        if rows:
            sols = Matrix(g.field, rows).kernel_basis()
        else:
            sols = [unit_vector(g.field, top.dim, t) for t in range(top.dim)]
        socle_vecs = [lin_comb(g.field, g.dim, sol, top.rows) for sol in sols]
        socle = Subspace(g.field, g.space, list(cur.rows) + socle_vecs)
        if socle.dim <= cur.dim:
            raise InvariantViolation("Engel socle did not grow; not nilpotent?")
        pick = None
        for row in reversed(socle.rows):
            if not cur.contains(row):
                pick = row
                break
        cur = Subspace(g.field, g.space, list(cur.rows) + [pick])
        ok, witness = _is_even_ideal(g, cur)
        if not ok:
            raise InvariantViolation(f"flag member is not an ideal of g0: {witness}")
        chain.append(cur)
    return chain


def _is_even_ideal(g: LieSuperalgebra, s: Subspace) -> tuple[bool, object]:
    e = g.space.even_dim
    for gi in range(e):
        gv = g.basis_vector(gi)
        for v in s.rows:
            if not s.contains(g.bracket(gv, v)):
                return False, (gi, tuple(str(x) for x in v))
    return True, None


def _form_radical(g: LieSuperalgebra, lam: Vector, member: Subspace) -> Subspace:
    """Radical of Omega_lambda restricted to an even subspace."""
    if member.dim == 0:
        return member
    rows = []
    e = g.space.even_dim
    for w in member.rows:
        row = []
        for v in member.rows:
            row.append(functional_value(lam, g.bracket(v, w)[:e]))
        rows.append(row)
    rad_vecs = [lin_comb(g.field, g.dim, sol, member.rows)
                for sol in Matrix(g.field, rows).kernel_basis()]
    return Subspace(g.field, g.space, rad_vecs)


def polarizing_flag(g: LieSuperalgebra, lam: Sequence) -> PolarizingSystem:
    """Radical-sum polarization through [g1, g1], with the Clifford quotient."""
    lam = coerce_functional(g, lam)
    if not is_nilpotent(g):
        raise InputError("polarizing systems need a nilpotent algebra")
    admissible, _ = in_admissible_cone(g, lam)
    if not admissible:
        raise NotAdmissible("odd Gram matrix is not positive semidefinite")
    return _polarize(g, lam, _engel_flag(g))


def _engel_flag(g: LieSuperalgebra) -> list[Subspace]:
    """Codimension-one ideal chain of g0 through [g1, g1]; depends on g only."""
    k_ideal = bracket_span(g, g.odd_subspace, g.odd_subspace)
    chain = _engel_refine(g, g.subspace([]), k_ideal)
    return chain + _engel_refine(g, k_ideal, g.even_subspace)[1:]


def _polarize(g: LieSuperalgebra, lam: Vector, chain: list[Subspace]) -> PolarizingSystem:
    """Sum of the Omega_lambda radicals of the flag members, for an
    admissible lam; the flag is _engel_flag(g)."""
    m0 = chain[0]
    for member in chain[1:]:
        m0 = m0.sum_with(_form_radical(g, lam, member))
    return polarizing_system_from_m0(g, lam, m0,
                                     flag_dims=tuple(s.dim for s in chain))


def polarizing_system_from_m0(g: LieSuperalgebra, lam: Sequence, m0: Subspace,
                              flag_dims: tuple[int, ...] = ()) -> PolarizingSystem:
    """Assemble and verify a polarizing system from a given even polarization.

    Checks: subalgebra, Omega_lambda-isotropic, maximal (dimension count),
    contains [g1, g1]; then builds j and the Clifford quotient.
    """
    lam = coerce_functional(g, lam)
    admissible, form = in_admissible_cone(g, lam)
    if not admissible:
        raise NotAdmissible("odd Gram matrix is not positive semidefinite")
    e = g.space.even_dim
    odd = g.odd_subspace
    k_ideal = bracket_span(g, odd, odd)
    omega = even_skew_form(g, lam)
    even_rank = omega.rank()
    if even_rank % 2:
        raise InvariantViolation("skew form has odd rank")  # pragma: no cover
    if m0.dim != e - even_rank // 2:
        raise InputError("polarization has the wrong dimension")
    if not m0.contains_subspace(k_ideal):
        raise InputError("[g1,g1] is not inside the polarization")
    if not is_subalgebra(g, m0):
        raise InputError("polarization is not a subalgebra")
    for u in m0.rows:
        for v in m0.rows:
            if functional_value(lam, g.bracket(u, v)[:e]):
                raise InputError("polarization is not isotropic")
    m = m0.sum_with(odd)
    # j = ker(lambda restricted to m0) (+) rad of the odd Gram form
    coeff_rows = [[functional_value(lam, b[:e]) for b in m0.rows]]
    ker_rows = [lin_comb(g.field, g.dim, sol, m0.rows)
                for sol in Matrix(g.field, coeff_rows).kernel_basis()]
    gram = form.matrix
    odd_rank = gram.rank()
    odd_basis = [g.basis_vector(idx) for idx in g.space.odd_indices()]
    odd_rad_rows = [lin_comb(g.field, g.dim, sol, odd_basis) for sol in gram.kernel_basis()]
    j = Subspace(g.field, g.space, ker_rows + odd_rad_rows)
    msub = subalgebra_on(g, m, name=f"{g.name}|m")
    j_in_m_rows = []
    for r in j.rows:
        coords = msub.restrict(r)
        if coords is None:
            raise InvariantViolation("j does not sit inside m")  # pragma: no cover
        j_in_m_rows.append(coords)
    j_in_m = Subspace(g.field, msub.algebra.space, j_in_m_rows)
    ok, witness = is_ideal(msub.algebra, j_in_m)
    if not ok:
        raise InputError(f"j is not an ideal of m (witness {witness})")
    cliff = quotient(msub.algebra, j_in_m, name=f"{g.name}|m/j")
    ca = cliff.algebra
    if ca.space.even_dim > 1:
        raise InputError("Clifford quotient has a non-line even part")
    if ca.space.even_dim == 1:
        zvec = ca.basis_vector(0)
        for i in range(ca.dim):
            if not vec_is_zero(ca.bracket(zvec, ca.basis_vector(i))):
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

    @property
    def single(self) -> Vector | None:
        nonzero = [w for w in self.exps if not vec_is_zero(w)]
        if not nonzero:
            return None
        return nonzero[0] if len(nonzero) == 1 else None

    def as_json(self) -> dict:
        return {"exps": [[str(x) for x in w] for w in self.exps]}


def _apply_exp(g: LieSuperalgebra, lam: Vector, w_even: Vector) -> Vector:
    E = g.even_part.algebra.ad(w_even).exp_nilpotent()
    return tuple(functional_value(lam, E.col(j)) for j in range(len(lam)))


def coadjoint_orbit_member(g: LieSuperalgebra, lam: Sequence, lam2: Sequence,
                           ) -> OrbitPath | None:
    """Exact parameters with lam2 = lam o Ad(exp W_1 exp W_2 ...), or None."""
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
    nil_class = s
    # values on the deepest (central) layer are invariants
    deepest = layers[-1]
    for y in deepest.rows:
        if functional_value(lam, y) != functional_value(lam2, y):
            return None
    cur = lam
    path: list[Vector] = []
    h_rows: list[Vector] = [unit_vector(f, e, j) for j in range(e)]
    for k in range(s - 2, -1, -1):
        layer = layers[k]
        targets = []
        cols = []
        for w in h_rows:
            adw = g0.ad(w)
            cols.append([functional_value(cur, adw.apply(tuple(y[:e])))
                         for y in layer.rows])
        for y in layer.rows:
            targets.append(functional_value(lam2, y) - functional_value(cur, y))
        M = Matrix.from_cols(f, cols)
        sol = M.solve(tuple(targets))
        deep_stage = nil_class >= 4 and k <= s - 4
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
        # shrink the allowed directions: preserve the matched layer
        rows = []
        for y in layer.rows:
            rows.append([functional_value(cur, g0.ad(w0).apply(tuple(y[:e])))
                         for w0 in h_rows])
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
    e = g.space.even_dim
    f = g.field
    out = []

    def rec(prefix):
        if len(prefix) == e:
            out.append(tuple(f.rat(c) for c in prefix))
            return
        for c in range(low, high + 1):
            rec(prefix + [c])

    rec([])
    return out


def central_box(g: LieSuperalgebra, low: int, high: int) -> list[Vector]:
    """Functionals supported on the dual of the center of the even part."""
    zc = center(g.even_part.algebra)
    e = g.space.even_dim
    f = g.field
    out = []

    def rec(prefix, acc):
        if len(prefix) == zc.dim:
            out.append(tuple(acc))
            return
        for c in range(low, high + 1):
            nxt = vec_add(acc, vec_scale(f.rat(c), zc.rows[len(prefix)]))
            rec(prefix + [c], nxt)

    rec([], zero_vector(f, e))
    return [tuple(v[:e]) for v in out]


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
    admissible = [i for i, lam in enumerate(cands) if in_admissible_cone(g, lam)[0]]
    zc = center(g.even_part.algebra)

    def invariants(lam):
        cc = tuple(str(functional_value(lam, z)) for z in zc.rows)
        rank = even_skew_form(g, lam).rank()
        return cc, rank

    inv = {i: invariants(cands[i]) for i in admissible}
    groups: dict[tuple, list[int]] = {}
    for i in admissible:
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
        for i in members:
            for orbit in found:
                if coadjoint_orbit_member(g, cands[orbit[0]], cands[i]) is not None:
                    orbit.append(i)
                    break
            else:
                found.append([i])
        orbits.extend(found)
    chain = _engel_flag(g) if orbits else []
    out = []
    for members in sorted(orbits):
        rep = cands[members[0]]
        ps = _polarize(g, rep, chain)
        cc, rank = inv[members[0]]
        for i in members[1:]:
            if inv[i] != (cc, rank):
                raise InvariantViolation("orbit invariants differ inside one orbit")
            gram_rank = OddSquareForm.of(g, cands[i]).matrix.rank()
            if gram_rank != ps.odd_rank:
                raise InvariantViolation("odd rank differs inside one orbit")
        out.append(OrbitDescriptor(rep, members, rank, ps.clifford_dim, cc, ps))
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
