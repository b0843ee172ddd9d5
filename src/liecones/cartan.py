"""Cartan subalgebras and subsuperalgebras, compact-embeddedness certificates,
root decompositions, and the fixed-point projection.

Compact embeddedness is certified spectrally: every ad(K) must be semisimple
(squarefree minimal polynomial) with purely imaginary spectrum (all real
roots of charpoly(ad(K)^2) nonpositive, and all complex roots real), plus a
deterministic sample of integer combinations for non-abelian families.  The
inner automorphism group is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .exactnum import (InputError, InvariantViolation, Scalar, Undetermined, is_squarefree,
                       real_root_signs)
from .glinalg import (
    GradedSpace, Matrix, Subspace, Vector, joint_eigenspaces, kernel,
    vec_add, vec_scale, zero_vector,
)
from .lsa import LieSuperalgebra, bracket_span, is_nilpotent, is_subalgebra, subalgebra_on


UNDETERMINED = "UNDETERMINED"


# ---------------------------------------------------------------------------
# Fitting null components and Cartan subsuperalgebras
# ---------------------------------------------------------------------------

def fitting_null(g: LieSuperalgebra, w0: Subspace) -> Subspace:
    """Joint generalized 0-eigenspace of ad(W) over a basis of the even w0."""
    if w0.rows and not g.even_subspace.contains_subspace(w0):
        raise InputError("fitting_null needs an even subspace")
    cur = g.full_space
    n = g.dim
    for w in w0.rows:
        K = kernel(g.ad(w).power(n), g.space)
        cur = cur.intersect(K)
    if not is_subalgebra(g, cur):
        raise InvariantViolation("Fitting null component is not a subalgebra")  # pragma: no cover
    return cur


def normalizer(g: LieSuperalgebra, h: Subspace) -> Subspace:
    """N_g(h) = {X : [X, h] <= h}, computed exactly."""
    if h.dim == 0:
        return g.full_space
    rows = []
    comp = h.complement_coordinates()
    for b in h.rows:
        adb = g.ad(b)
        # [X, b] = -+ [b, X]; membership of [X, b] in h is the same condition
        # as membership of [b, X], so use ad(b) columns
        red_cols = []
        for j in range(g.dim):
            resid = h.reduce(adb.col(j))
            red_cols.append([resid[c] for c in comp])
        for rr in zip(*red_cols):
            rows.append(list(rr))
    if not rows:
        return g.full_space
    return Subspace(g.field, g.space, Matrix(g.field, rows).kernel_basis())


def is_cartan_subalgebra_even(g: LieSuperalgebra, h0: Subspace) -> bool:
    """h0 <= g0 nilpotent and self-normalizing inside g0."""
    even = g.even_subspace
    if not even.contains_subspace(h0) or h0.dim == 0:
        return False
    if not is_subalgebra(g, h0):
        return False
    if not is_nilpotent(subalgebra_on(g, h0).algebra):
        return False
    norm_even = normalizer(g, h0).intersect(even)
    return norm_even == h0


def candidate_vectors(n: int, bound: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Deterministic integer vectors of increasing 1-norm, coordinates in
    [-bound, bound]; at most cap vectors."""
    count = 0
    for norm in range(1, n * bound + 1):
        for vec in _fixed_norm_vectors(n, bound, norm):
            yield vec
            count += 1
            if count >= cap:
                return


def _fixed_norm_vectors(n: int, bound: int, norm: int) -> Iterator[tuple[int, ...]]:
    def rec(prefix: list[int], remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        lo = max(-bound, -remaining)
        hi = min(bound, remaining)
        for v in range(hi, lo - 1, -1):
            prefix.append(v)
            yield from rec(prefix, remaining - abs(v), slots - 1)
            prefix.pop()
    yield from rec([], norm, n)


def iter_cartan_even(g: LieSuperalgebra, bound: int = 3, cap: int = 4000,
                     ) -> Iterator[tuple[Vector, Subspace]]:
    """Verified even Cartan subalgebras found by the regular-element scan.

    Yields (regular candidate Y, Cartan subalgebra of g0) pairs in scan order,
    deduplicated; each yield is verified nilpotent + self-normalizing.
    """
    e = g.space.even_dim
    if e == 0:
        return
    seen: set[tuple] = set()
    f = g.field
    for ints in candidate_vectors(e, bound, cap):
        y = tuple(f.rat(c) for c in ints) + tuple(f.zero for _ in range(g.dim - e))
        ad_even = g.even_part.algebra.ad(y[:e])
        nil = kernel(ad_even.power(e), GradedSpace(e, 0))
        h0 = Subspace(f, g.space,
                      [tuple(r) + tuple(f.zero for _ in range(g.dim - e))
                       for r in nil.rows])
        if h0.rows in seen:
            continue
        seen.add(h0.rows)
        if is_cartan_subalgebra_even(g, h0):
            yield y, h0


def cartan_subalgebra_even(g: LieSuperalgebra, bound: int = 3, cap: int = 4000) -> Subspace:
    """First verified Cartan subalgebra of g0 from the deterministic scan."""
    for _, h0 in iter_cartan_even(g, bound, cap):
        return h0
    raise Undetermined(
        f"no Cartan subalgebra of {g.name} found within bound {bound} / cap {cap}")


@dataclass
class CartanData:
    h0: Subspace               # even Cartan subalgebra
    h: Subspace                # Cartan subsuperalgebra N_g(h0)
    compactly_embedded: object  # True | False | "UNDETERMINED"


def cartan_subsuperalgebra(g: LieSuperalgebra, h0: Subspace) -> CartanData:
    """N_g(h0) for a verified even Cartan h0 (Cartan bijection direction)."""
    if not is_cartan_subalgebra_even(g, h0):
        raise InputError("h0 is not a Cartan subalgebra of the even part")
    h = fitting_null(g, h0)
    if not is_nilpotent(subalgebra_on(g, h).algebra):
        raise InvariantViolation("N_g(h0) is not nilpotent")
    if normalizer(g, h) != h:
        raise InvariantViolation("N_g(h0) is not self-normalizing")
    if h.intersect(g.even_subspace) != h0:
        raise InvariantViolation("N_g(h0) does not restrict to h0")
    return CartanData(h0, h, is_compactly_embedded(g, h0))


# ---------------------------------------------------------------------------
# compact embeddedness
# ---------------------------------------------------------------------------

def _spectrum_purely_imaginary_semisimple(g: LieSuperalgebra, v: Vector) -> object:
    """True/False/UNDETERMINED for one element: ad(v) semisimple with
    spectrum in iR, certified by Sturm counts on rational data."""
    M = g.ad(v)
    if not all(c.is_rational() for r in M.rows for c in r):
        return UNDETERMINED
    if not is_squarefree(M.minpoly()):
        return False
    sq = M * M
    cp = sq.charpoly()
    s = cp.squarefree_part()
    neg, zero, pos = real_root_signs(s)
    if pos > 0:
        return False
    # all roots of ad^2 must be real (else ad has eigenvalues off both axes)
    if neg + zero + pos != s.degree:
        return False
    return True


def is_compactly_embedded(g: LieSuperalgebra, k0: Subspace,
                          sample_bound: int = 2, sample_cap: int = 40) -> object:
    """Spectral certificate that k0 <= g0 is compactly embedded in g.

    For abelian k0 the basis test is sufficient; otherwise a deterministic
    sample of integer combinations is also tested and the verdict stays
    UNDETERMINED unless the family is abelian.
    """
    if k0.dim == 0:
        return True
    if not g.even_subspace.contains_subspace(k0):
        raise InputError("k0 must be an even subspace")
    if not is_subalgebra(g, k0):
        raise InputError("k0 must be a subalgebra")
    for b in k0.rows:
        verdict = _spectrum_purely_imaginary_semisimple(g, b)
        if verdict is not True:
            return verdict
    abelian = bracket_span(g, k0, k0).dim == 0
    if abelian:
        return True
    # non-abelian: sampled combinations, necessary-only certificate
    count = 0
    for ints in candidate_vectors(k0.dim, sample_bound, sample_cap):
        v = zero_vector(g.field, g.dim)
        for coef, row in zip(ints, k0.rows):
            if coef:
                v = vec_add(v, vec_scale(g.field.rat(coef), row))
        verdict = _spectrum_purely_imaginary_semisimple(g, v)
        if verdict is not True:
            return verdict
        count += 1
        if count >= sample_cap:
            break
    return UNDETERMINED


def compact_cartan_even(g: LieSuperalgebra, bound: int = 3, cap: int = 4000,
                        max_candidates: int = 40) -> Subspace | None:
    """First Cartan subalgebra of g0 from the scan that certifies compactly
    embedded in g; None when none of the scanned candidates does."""
    found = 0
    for _, h0 in iter_cartan_even(g, bound, cap):
        if is_compactly_embedded(g, h0) is True:
            return h0
        found += 1
        if found >= max_candidates:
            break
    return None


# ---------------------------------------------------------------------------
# root decompositions
# ---------------------------------------------------------------------------

@dataclass
class Root:
    values: tuple[Scalar, ...]          # alpha(H_i) on the h0 basis, real scalars
    even_space: Subspace                # inside the complexified coordinates
    odd_space: Subspace

    @property
    def is_zero(self) -> bool:
        return not any(self.values)

    def negated(self) -> tuple[Scalar, ...]:
        return tuple(-v for v in self.values)


@dataclass
class RootDatum:
    cartan: CartanData
    complexified: LieSuperalgebra
    roots: list[Root]

    def nonzero_roots(self) -> list[Root]:
        return [r for r in self.roots if not r.is_zero]

    def root_values(self) -> list[tuple[Scalar, ...]]:
        return [r.values for r in self.roots]


def _conjugate_vector(v: Vector) -> Vector:
    return tuple(x.conjugate_i() for x in v)


def root_decomposition(g: LieSuperalgebra, cartan: CartanData) -> RootDatum:
    """Joint ad-eigenspace decomposition of the complexification g^C.

    Roots are stored through their real values alpha(H) with eigenvalue
    i*alpha(H); requires cartan.compactly_embedded is True.
    """
    if cartan.compactly_embedded is not True:
        raise InputError("root decomposition needs a compactly embedded Cartan")
    gc = g.complexify()
    fld = gc.field
    mats = []
    for b in cartan.h0.rows:
        bb = tuple(x.promote(fld) for x in b)
        mats.append(gc.ad(bb))
    status, joint = joint_eigenspaces(mats, gc.space)
    if status != "OK":
        raise Undetermined("SPLITTING_FAILURE in the root engine")
    i_unit = fld.i
    roots: list[Root] = []
    for evs, space in joint:
        vals = []
        for mu in evs:
            alpha = mu * (-i_unit)       # mu = i * alpha
            if not alpha.is_real():
                raise Undetermined(
                    "eigenvalue not purely imaginary; Cartan not compact")
            vals.append(alpha)
        roots.append(Root(tuple(vals), space.even_part(), space.odd_part()))
    roots.sort(key=lambda r: tuple(str(v) for v in r.values))
    datum = RootDatum(cartan, gc, roots)
    _verify_root_datum(g, datum)
    return datum


def _verify_root_datum(g: LieSuperalgebra, datum: RootDatum) -> None:
    total = sum(r.even_space.dim + r.odd_space.dim for r in datum.roots)
    if total != g.dim:
        raise InvariantViolation("root spaces do not sum to the full dimension")
    table = {tuple(str(v) for v in r.values): r for r in datum.roots}
    for r in datum.roots:
        key = tuple(str(v) for v in r.negated())
        if key not in table:
            raise InvariantViolation("root system is not symmetric")
        opp = table[key]
        if (r.even_space.dim, r.odd_space.dim) != (opp.even_space.dim, opp.odd_space.dim):
            raise InvariantViolation("opposite root spaces have different dimensions")
        # conjugation symmetry tau(g^alpha) = g^{-alpha}
        carrier = opp.even_space.sum_with(opp.odd_space)
        for v in r.even_space.rows + r.odd_space.rows:
            if not carrier.contains(_conjugate_vector(v)):
                raise InvariantViolation("conjugation symmetry fails")
    # Prop 2.4(iv): g0 = h0 (+) [h0, g0]
    even = g.even_subspace
    h0 = datum.cartan.h0
    comm = bracket_span(g, h0, even).intersect(even)
    if h0.intersect(comm).dim != 0 or h0.sum_with(comm) != even:
        raise InvariantViolation("g0 = h0 (+) [h0, g0] fails")


def check_root_symmetry(values: Iterable[tuple[Scalar, ...]]) -> bool:
    """True iff the multiset of nonzero root values is closed under negation."""
    from collections import Counter
    nonzero = [tuple(str(x) for x in v) for v in values if any(v)]
    neg = [tuple(str(-ss) for ss in v) for v in values if any(v)]
    c1, c2 = Counter(nonzero), Counter(neg)
    return c1 == c2


# ---------------------------------------------------------------------------
# fixed-point projection (Lemma 5.6 machinery)
# ---------------------------------------------------------------------------

def fixed_point_projection(g: LieSuperalgebra, k0: Subspace) -> Matrix:
    """Projection of g0 onto the joint kernel of ad(k0) along the sum of the
    images; requires a compactly embedded k0 (the splitting must be direct)."""
    e = g.space.even_dim
    f = g.field
    even_amb = GradedSpace(e, 0)
    if k0.dim == 0:
        return Matrix.identity(f, e)
    if is_compactly_embedded(g, k0) is not True:
        raise InputError("fixed_point_projection needs a compactly embedded k0")
    ker_total: Subspace | None = None
    im_rows: list[Vector] = []
    for b in k0.rows:
        ad_even = g.even_part.algebra.ad(b[:e])
        kb = kernel(ad_even, even_amb)
        ker_total = kb if ker_total is None else ker_total.intersect(kb)
        im_rows.extend(ad_even.col(j) for j in range(e))
    im = Subspace(f, even_amb, im_rows)
    if ker_total.dim + im.dim != e or ker_total.intersect(im).dim != 0:
        raise InvariantViolation("kernel and image sum is not direct")
    basis = list(ker_total.rows) + list(im.rows)
    B = Matrix.from_cols(f, basis)
    # P sends the kernel basis to itself and the image basis to zero
    target_cols = list(ker_total.rows) + [zero_vector(f, e)] * im.dim
    T = Matrix.from_cols(f, target_cols)
    P = T * B.inverse()
    return P
