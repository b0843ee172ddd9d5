"""The invariant cone generated by odd squares, its exact certificates, and
the star-reduced obstruction battery.

The cone itself is never materialized; every verdict is carried by a
certificate that is re-verified independently of the search that found it:
a functional lambda with positive-definite odd Gram matrix lambda([f_a,
f_b]) (pointedness), an odd vector X with [X,X] = 0 (forced kernel), or an
exact convex combination of square images hitting zero (a line in the cone).
The Gram matrix and the root-space forms mu([X, conj Y]) are lsa.bracket_form.
The PD search scores its integer scan and its hill climb by one step (the
positive prefix of the Gram matrix's LDL pivots), and the battery sends the
root squares and the projected odd squares through one hull step.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator, Sequence

from .exactnum import InputError, InvariantViolation, Poly, Scalar, Undetermined, check_tower
from .glinalg import Matrix, Subspace, Vector, roots_in_field, vec_add, vec_is_zero, vec_scale
from .lsa import (LieSuperalgebra, bracket_form, bracket_span, center, is_ideal, is_nilpotent,
                  series)
from . import cartan as _cartan


POINTED_CERTIFIED = "POINTED_CERTIFIED"
LINE_FOUND = "LINE_FOUND"
ISOTROPIC_FOUND = "ISOTROPIC_FOUND"
UNDETERMINED = "UNDETERMINED"
OBSTRUCTED = "OBSTRUCTED"
CONE_OK = "CONE_OK"


# ---------------------------------------------------------------------------
# odd squares and the Gram matrix of a functional
# ---------------------------------------------------------------------------

def odd_square(g: LieSuperalgebra, x: Vector) -> Vector:
    """[X, X] for a purely odd X."""
    if any(x[i] for i in g.space.even_indices()) or vec_is_zero(x):
        raise InputError("odd_square needs a nonzero purely odd vector")
    return g.bracket(x, x)


def functional_value(lam: Vector, v: Vector) -> Scalar | None:
    """sum_k lam[k] * v[k] over the nonzero pairs; None for empty input."""
    acc = None
    for a, b in zip(lam, v, strict=True):
        if a and b:
            acc = a * b if acc is None else acc + a * b
        else:
            check_tower(a, b)
    if acc is None and lam:
        return lam[0].field.zero
    return acc


def coerce_functional(g: LieSuperalgebra, lam: Sequence) -> Vector:
    """lam over g's field, checked to be a functional on g0."""
    lam = tuple(g.field.coerce(x) for x in lam)
    if len(lam) != g.space.even_dim:
        raise InputError("functional length must equal the even dimension")
    return lam


@dataclass
class OddSquareForm:
    """Gram matrix M(lambda)[a][b] = lambda([f_a, f_b]) over the odd basis."""
    host: LieSuperalgebra
    lam: Vector           # coordinates on g0* (length = even_dim)
    matrix: Matrix

    @staticmethod
    def of(g: LieSuperalgebra, lam: Sequence) -> "OddSquareForm":
        lam = coerce_functional(g, lam)
        M = bracket_form(g, lam, g.odd_subspace.rows, g.odd_subspace.rows)
        if M != M.transpose():
            raise InvariantViolation("odd Gram matrix is not symmetric")  # pragma: no cover
        return OddSquareForm(g, lam, M)


# ---------------------------------------------------------------------------
# exact definiteness tests
# ---------------------------------------------------------------------------

def leading_principal_minors(S: Matrix) -> list[Scalar]:
    """Exact leading principal minors, each via an independent determinant."""
    out = []
    for k in range(1, S.nrows + 1):
        sub = Matrix(S.field, [r[:k] for r in S.rows[:k]])
        out.append(sub.det())
    return out


def _pd_prefix_score(S: Matrix) -> int:
    """Length of the maximal all-positive prefix of leading minors, read off
    the LDL pivots (the k-th minor is the product of the first k)."""
    score = 0
    for p in S.ldl()[0]:
        if not p.is_real() or p.sign() <= 0:
            break
        score += 1
    return score


def is_positive_definite(S: Matrix) -> bool:
    """Sylvester criterion for a symmetric real matrix: all LDL pivots > 0."""
    if S.nrows != S.ncols:
        raise InputError("definiteness of a non-square matrix")
    return _pd_prefix_score(S) == S.nrows


def is_positive_semidefinite(S: Matrix) -> bool:
    """Exact PSD test: a full natural-order LDL with no negative pivot."""
    if S.nrows != S.ncols:
        raise InputError("definiteness of a non-square matrix")
    pivots, _ = S.ldl()
    return len(pivots) == S.nrows and all(p.sign() >= 0 for p in pivots)


def hermitian_is_positive_definite(S: Matrix) -> bool:
    """Sylvester test for a Hermitian matrix over a complex tower."""
    if S != S.conj_transpose():
        raise InputError("matrix is not Hermitian")
    return _pd_prefix_score(S) == S.nrows


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass
class ConeCertificate:
    status: str
    lam: Vector | None = None
    isotropic: Vector | None = None
    details: dict = dc_field(default_factory=dict)

    def as_json(self) -> dict:
        out = {"status": self.status}
        if self.lam is not None:
            out["lambda"] = [str(x) for x in self.lam]
        if self.isotropic is not None:
            out["isotropic"] = [str(x) for x in self.isotropic]
        if self.details:
            out["details"] = {k: v for k, v in sorted(self.details.items())}
        return out


def certify_pointed(g: LieSuperalgebra, lam: Sequence) -> ConeCertificate:
    """Build a POINTED_CERTIFIED certificate, re-verifying via Sylvester."""
    form = OddSquareForm.of(g, lam)
    if any(m.sign() <= 0 for m in leading_principal_minors(form.matrix)):
        raise InputError("claimed PD functional fails the Sylvester test")
    return ConeCertificate(POINTED_CERTIFIED, lam=form.lam,
                           details={"odd_dim": g.space.odd_dim})


def certify_isotropic(g: LieSuperalgebra, x: Vector) -> ConeCertificate:
    if vec_is_zero(x):
        raise InputError("isotropic witness must be nonzero")
    if not vec_is_zero(odd_square(g, x)):
        raise InputError("claimed isotropic vector has nonzero square")
    return ConeCertificate(ISOTROPIC_FOUND, isotropic=x)


def find_pd_functional(g: LieSuperalgebra, bound: int = 3, cap: int = 2000,
                       hill_steps: int = 200) -> ConeCertificate:
    """Deterministic integer scan over g0*, then rational hill climbing: each
    step takes the first neighbour (lam_j +- 2^-k, k = 0..3) that scores higher."""
    e, d = g.space.even_dim, g.space.odd_dim
    f = g.field
    if d == 0:
        return ConeCertificate(POINTED_CERTIFIED, lam=tuple(f.zero for _ in range(e)),
                               details={"odd_dim": 0, "note": "no odd part"})

    def score(lam: Vector) -> int:
        return _pd_prefix_score(OddSquareForm.of(g, lam).matrix)

    best, lam = -1, None
    for ints in _cartan.candidate_vectors(e, bound, cap):
        cand = tuple(f.rat(c) for c in ints)
        sc = score(cand)
        if sc == d:
            return certify_pointed(g, cand)
        if sc > best:
            best, lam = sc, cand
    if lam is None:
        return ConeCertificate(UNDETERMINED, details={"budget": "scan exhausted"})
    steps = [f.rat(Fraction(1, 2) ** k) for k in range(0, 4)]
    for _ in range(hill_steps):
        for cand in (lam[:j] + (lam[j] + s * f.rat(sgn),) + lam[j + 1:]
                     for j in range(e) for s in steps for sgn in (1, -1)):
            sc = score(cand)
            if sc == d:
                return certify_pointed(g, cand)
            if sc > best:
                best, lam = sc, cand
                break
        else:
            break
    return ConeCertificate(UNDETERMINED,
                           details={"budget": "hill climb exhausted",
                                    "best_score": best, "odd_dim": d})


def find_isotropic_odd(g: LieSuperalgebra, samples: list | None = None) -> ConeCertificate:
    """Nonzero odd X with [X,X] = 0: the odd-square samples (basis vectors,
    then f_a +- f_b), then the 2-dim slices f_a + t f_b for a < b.  The slice
    through (b, a) adds nothing: its X = f_b + t f_a is f_b (t = 0), whose
    square is a sample, or t (f_a + f_b / t), a root of the (a, b) slice.
    When given, the empty list samples gets each (label, X, [X, X]) read."""
    f = g.field
    d = g.space.odd_dim
    if d == 0:
        return ConeCertificate(UNDETERMINED, details={"note": "no odd part"})
    samples = [] if samples is None else samples
    for label, v, sq in _odd_square_samples(g):
        if vec_is_zero(sq):
            return certify_isotropic(g, v)
        samples.append((label, v, sq))
    # quadratic slices: [f_a + t f_b, f_a + t f_b] = S_a + 2t B_ab + t^2 S_b, S_a != 0
    for a in range(d):
        _, fa, sa = samples[a]
        for b in range(a + 1, d):
            _, fb, sb = samples[b]
            cross = g.bracket(fa, fb)
            polys = [p for p in (Poly(f, [sa[k], f.rat(2) * cross[k], sb[k]])
                                 for k in range(g.dim)) if not p.is_zero()]
            gcd = polys[0]
            for p in polys[1:]:
                gcd = gcd.gcd(p)
                if gcd.degree == 0:
                    break
            if gcd.degree == 0:
                continue
            roots, _ = roots_in_field(gcd)
            for t in sorted(roots, key=str):
                if not t.is_real():
                    continue
                v = vec_add(fa, vec_scale(t, fb))
                if vec_is_zero(g.bracket(v, v)):
                    return certify_isotropic(g, v)
    return ConeCertificate(UNDETERMINED, details={"search": "basis, pairs, 2-dim slices"})


# ---------------------------------------------------------------------------
# exact LP: zero in the convex hull
# ---------------------------------------------------------------------------

def _simplex_phase1(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """One exact feasible x >= 0 with A x = b, or None (Bland's rule)."""
    m, n = len(A), len(A[0]) if A else 0
    T = []
    for i in range(m):
        row = list(A[i])
        rhs = b[i]
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        T.append(row + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs])
    basis = [n + i for i in range(m)]
    ncols = n + m
    cost = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            cost[j] += T[i][j]
    while True:
        enter = None
        for j in range(n):       # artificials never re-enter
            if j not in basis and cost[j] > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][ncols] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            break                # unbounded cannot happen in phase 1; defensive
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                fct = T[i][enter]
                T[i] = [x - fct * y for x, y in zip(T[i], T[leave])]
        if cost[enter]:
            fct = cost[enter]
            cost = [x - fct * y for x, y in zip(cost, T[leave])]
        basis[leave] = enter
    if cost[ncols] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][ncols]
        elif T[i][ncols] != 0:
            return None          # artificial stuck at nonzero level
    return x


def convex_hull_contains_zero(vectors: Sequence[Vector]) -> tuple[Fraction, ...] | None:
    """Exact coefficients c >= 0, sum 1, sum c_i v_i = 0; or None.

    Vector coordinates must be rational scalars.
    """
    if not vectors:
        raise InputError("empty vector list")
    n = len(vectors[0])
    cols = []
    for v in vectors:
        col = []
        for x in v:
            if not x.is_rational():
                raise InputError("hull test needs rational coordinates")
            col.append(x.as_fraction())
        cols.append(col)
    A = [[cols[j][i] for j in range(len(vectors))] for i in range(n)]
    A.append([Fraction(1)] * len(vectors))
    b = [Fraction(0)] * n + [Fraction(1)]
    sol = _simplex_phase1(A, b)
    if sol is None:
        return None
    # exact re-verification, kept under python -O
    if any(c < 0 for c in sol) or sum(sol) != 1 or any(
            sum(cols[j][i] * sol[j] for j in range(len(vectors))) for i in range(n)):
        raise InvariantViolation("LP certificate fails its exact re-check")
    return tuple(sol)


# ---------------------------------------------------------------------------
# per-root Hermitian forms (interior-dual-functional test)
# ---------------------------------------------------------------------------

def _mu_fixed_by_cartan(g: LieSuperalgebra, h0: Subspace, mu: Vector) -> bool:
    return bracket_form(g, mu, h0.rows, g.even_subspace.rows).is_zero()


def _odd_root_spaces(datum) -> Iterator[tuple]:
    """(root, basis, conjugate basis) of each nonzero root's odd root space."""
    for root in datum.roots:
        if not root.is_zero and root.odd_space.dim:
            basis = root.odd_space.rows
            yield root, basis, [tuple(s.conjugate_i() for s in y) for y in basis]


def check_root_space_form(g: LieSuperalgebra, datum, mu: Sequence) -> list[dict]:
    """Per nonzero root: is <X,Y> = mu([X, conj Y]) positive definite on the
    odd root space?  mu must vanish on [h0, g0]."""
    mu = coerce_functional(g, mu)
    if not _mu_fixed_by_cartan(g, datum.cartan.h0, mu):
        raise InputError("mu is not fixed by the even Cartan action")
    gc = datum.complexified
    muc = tuple(x.promote(gc.field) for x in mu)
    verdicts = []
    for root, basis, conj in _odd_root_spaces(datum):
        G = bracket_form(gc, muc, basis, conj)
        verdicts.append({
            "root": [str(v) for v in root.values],
            "odd_dim": root.odd_space.dim,
            "positive_definite": hermitian_is_positive_definite(G),
        })
    return verdicts


# ---------------------------------------------------------------------------
# nilpotent vanishing ideal (third-layer kernel)
# ---------------------------------------------------------------------------

def nilpotent_vanishing_ideal(g: LieSuperalgebra) -> Subspace:
    """Ideal generated by [g1, [g1, g1]]; forced kernel of every unitary rep."""
    if not is_nilpotent(g):
        raise InputError("nilpotent_vanishing_ideal needs a nilpotent algebra")
    ideal = bracket_span(g, g.odd_subspace, g.odd_square)
    while True:
        bigger = ideal.sum_with(bracket_span(g, g.full_space, ideal))
        if bigger == ideal:
            return ideal
        ideal = bigger


# ---------------------------------------------------------------------------
# Lemma 5.1-style sanity check
# ---------------------------------------------------------------------------

def abelian_even_ideals_contained_in_center(g: LieSuperalgebra) -> list[dict]:
    """Canonical candidate ideals (center, series members, odd-square span):
    report each abelian even ideal and whether it sits inside the center."""
    zc = center(g)
    candidates = [("center", zc)]
    for kind in ("derived", "lower_central"):
        for t, s in enumerate(series(g, kind)):
            candidates.append((f"{kind}[{t}]", s.intersect(g.even_subspace)))
    candidates.append(("[g1,g1]", g.odd_square))
    out = []
    seen = set()
    for label, s in candidates:
        if s.rows in seen or s.dim == 0:
            continue
        seen.add(s.rows)
        if not g.even_subspace.contains_subspace(s):
            continue
        ok, _ = is_ideal(g, s)
        if not ok:
            continue
        if bracket_span(g, s, s).dim != 0:
            continue
        out.append({"ideal": label, "dim": s.dim,
                    "in_center": zc.contains_subspace(s)})
    return out


# ---------------------------------------------------------------------------
# the obstruction battery
# ---------------------------------------------------------------------------

@dataclass
class StarReducedReport:
    status: str
    reasons: list = dc_field(default_factory=list)
    certificate: ConeCertificate | None = None
    notes: list = dc_field(default_factory=list)

    def as_json(self) -> dict:
        out = {"status": self.status, "reasons": self.reasons, "notes": self.notes}
        if self.certificate is not None:
            out["certificate"] = self.certificate.as_json()
        return out


def _odd_square_samples(g: LieSuperalgebra) -> Iterator[tuple[str, Vector, Vector]]:
    """(label, X, [X, X]) for the odd basis vectors f_a, then f_a + f_b and
    f_a - f_b for a < b; lazily, so that a search stops at its first hit."""
    basis = [g.basis_vector(i) for i in g.space.odd_indices()]
    for t, v in enumerate(basis):
        yield f"f{t}", v, g.bracket(v, v)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            for sign, w in (("+", basis[b]), ("-", vec_scale(-g.field.one, basis[b]))):
                v = vec_add(basis[a], w)
                yield f"f{a}{sign}f{b}", v, g.bracket(v, v)


def _root_square_vectors(g: LieSuperalgebra, datum) -> list[Vector]:
    """Real vectors [X, tau X] for X ranging over odd root-space bases
    (nonzero roots only)."""
    gc = datum.complexified
    out = []
    for _, basis, conj in _odd_root_spaces(datum):
        for x, xbar in zip(basis, conj):
            h = gc.bracket(x, xbar)
            if vec_is_zero(h):
                continue
            real = []
            for s in h:
                if not s.is_real():
                    raise InvariantViolation("root square is not tau-fixed")  # pragma: no cover
                real.append(s.demote(g.field))
            out.append(tuple(real))
    return out


def _hull_obstruction(kind: str, shown: str, labelled: list[tuple],
                      notes: list) -> StarReducedReport | None:
    """OBSTRUCTED with one reason when 0 is a convex combination of the
    (label, rational vector) pairs; the reason lists the labels under shown."""
    combo = convex_hull_contains_zero([v for _, v in labelled]) if labelled else None
    if combo is None:
        return None
    reason = {"kind": kind, "coefficients": [str(c) for c in combo],
              shown: [label for label, _ in labelled]}
    return StarReducedReport(OBSTRUCTED, [reason],
                             ConeCertificate(LINE_FOUND, details={"route": kind}), notes)


def star_reduced_report(g: LieSuperalgebra, bound: int = 3, cap: int = 2000,
                        hill_steps: int = 200) -> StarReducedReport:
    """Run the obstruction battery; tri-state verdict with exact witnesses.
    Each obstruction returns as soon as it is found, with its one reason."""
    notes: list = []
    samples: list = []
    iso = find_isotropic_odd(g, samples)
    if iso.status == ISOTROPIC_FOUND:
        reason = {"kind": "isotropic_odd", "witness": [str(x) for x in iso.isotropic]}
        return StarReducedReport(OBSTRUCTED, [reason], iso, notes)

    k0 = _cartan.compact_cartan_even(g, bound=bound, cap=cap)
    if k0 is None:
        if g.odd_square == g.even_subspace:
            notes.append("g0 = [g1,g1] but no compactly embedded Cartan was found "
                         "within the scan budget; existence undetermined")
    else:
        try:
            datum = _cartan.root_decomposition(g, _cartan.cartan_subsuperalgebra(g, k0))
        except Undetermined as exc:
            notes.append(f"root decomposition unavailable: {exc}")
        else:
            found = _hull_obstruction("root_square_hull", "vectors", [
                ([str(x) for x in v], v) for v in _root_square_vectors(g, datum)], notes)
            if found:
                return found
        P = _cartan.fixed_point_projection(g, k0)
        projected = ((label, P.apply(sq[:g.space.even_dim])) for label, _, sq in samples)
        found = _hull_obstruction("projected_square_hull", "generators", [
            (label, v) for label, v in projected if not vec_is_zero(v)], notes)
        if found:
            return found

    pd = find_pd_functional(g, bound=bound, cap=cap, hill_steps=hill_steps)
    if pd.status == POINTED_CERTIFIED:
        return StarReducedReport(CONE_OK, [], pd, notes)
    notes.append("no positive-definite functional within budget")
    return StarReducedReport(UNDETERMINED, [], None, notes)
