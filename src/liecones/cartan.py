"""Cartan subalgebras and subsuperalgebras, compact-embeddedness certificates,
root decompositions, and the fixed-point projection.

Compact embeddedness is certified spectrally, one characteristic polynomial
per diagonal block B of ad(K): ad of an even element preserves g0 and g1, and
passes when each block does.  With s the squarefree part of charpoly(B^2), B
has purely imaginary spectrum iff every root of s is real and <= 0 (Sturm
counts), and is then semisimple iff the squarefree polynomial r(x) = s(x^2),
or x (s/x)(x^2) when s(0) = 0, annihilates it; a nonzero B with
tr(B^2) >= 0 fails first.  A non-abelian k0 whose rows pass is decided
exactly by one LDL of its trace form tr(ad x ad y).  Each Cartan and
compactness verdict is recorded on the algebra.  The Fitting null component,
like the root engine, is also found block by block.  The inner automorphism
group is never materialized.

The regular-element scan stops once its answer is proved: at g0 itself when
g0 is nilpotent, and, in the search for a compact Cartan subalgebra, once the
centre of g0, which lies in every Cartan subalgebra, does not pass the
spectral test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from itertools import islice
from typing import Iterator

from .exactnum import InputError, InvariantViolation, Scalar, Undetermined, real_root_signs
from .glinalg import (
    GradedSpace, Matrix, Subspace, Vector, joint_eigenspaces, kernel, zero_vector,
)
from .lsa import (LieSuperalgebra, bracket_span, center, is_nilpotent, is_subalgebra,
                  subalgebra_on, transporter)


UNDETERMINED = "UNDETERMINED"
MAX_CANDIDATES = 40                 # scanned Cartan subalgebras compact_cartan_even tests


# ---------------------------------------------------------------------------
# Fitting null components and Cartan subsuperalgebras
# ---------------------------------------------------------------------------

def fitting_null(g: LieSuperalgebra, w0: Subspace) -> Subspace:
    """Joint generalized 0-eigenspace of ad(W) over a basis of the even w0:
    each ad(w) preserves g0 and g1, so its part in each is the kernel of the
    k-th power of that k x k diagonal block."""
    if w0.rows and not g.even_subspace.contains_subspace(w0):
        raise InputError("fitting_null needs an even subspace")
    cur = g.full_space
    for w in w0.rows:
        cur = cur.intersect(g.subspace(
            pad_lo + r + pad_hi for _, pad_lo, B, pad_hi in _parity_blocks(g, g.ad(w))
            for r in B.power(B.nrows).kernel_basis()))
    if not is_subalgebra(g, cur):
        raise InvariantViolation("Fitting null component is not a subalgebra")  # pragma: no cover
    return cur


def _parity_blocks(g: LieSuperalgebra, M: Matrix) -> list[tuple[int, Vector, Matrix, Vector]]:
    """(parity, zeros before, block, zeros after) for the nonempty g0 and g1
    diagonal blocks of M = ad of an even element, which preserves both."""
    n, e, z = g.dim, g.space.even_dim, g.field.zero
    if any(any(r[e:]) if i < e else any(r[:e]) for i, r in enumerate(M.rows)):
        raise InvariantViolation("ad of an even element does not preserve the grading")
    return [(parity, (z,) * lo, Matrix(M.field, [r[lo:hi] for r in M.rows[lo:hi]]),
             (z,) * (n - hi)) for parity, (lo, hi) in enumerate(((0, e), (e, n))) if lo < hi]


def normalizer(g: LieSuperalgebra, h: Subspace) -> Subspace:
    """N_g(h) = {X : [X, h] <= h}, computed exactly."""
    return transporter(g, h.rows, g.full_space, h)


def _recorded(test):
    """test(g, s) recorded on g under (test, s.rows); a raise is not recorded."""
    @wraps(test)
    def recorded(g: LieSuperalgebra, s: Subspace) -> object:
        key = (test.__name__, s.rows)
        if key not in g.verdicts:
            g.verdicts[key] = test(g, s)
        return g.verdicts[key]
    return recorded


@_recorded
def is_cartan_subalgebra_even(g: LieSuperalgebra, h0: Subspace) -> bool:
    """h0 <= g0 nilpotent and self-normalizing inside g0."""
    even = g.even_subspace
    if not even.contains_subspace(h0) or h0.dim == 0:
        return False
    if not is_subalgebra(g, h0):
        return False
    if not is_nilpotent(subalgebra_on(g, h0).algebra):
        return False
    return transporter(g, h0.rows, even, h0) == h0


def candidate_vectors(n: int, bound: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Deterministic integer vectors of increasing 1-norm, coordinates in
    [-bound, bound]; at most cap vectors."""
    if cap <= 0:
        return
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
    deduplicated; each yield is verified nilpotent + self-normalizing.  The
    scan ends after h0 = g0: g0 is then nilpotent, so each proper subalgebra
    lies properly in its normalizer and g0 is its only Cartan subalgebra.
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
            if h0.dim == e:
                return


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
    """True/False/UNDETERMINED for one even element: ad(v) semisimple with
    spectrum in iR, certified by Sturm counts on rational data.  ad(v)
    preserves g0 and g1, so it passes exactly when both diagonal blocks do."""
    M = g.ad(v)
    if not all(c.is_rational() for r in M.rows for c in r):
        return UNDETERMINED
    return all(_imaginary_semisimple(B) for _, _, B, _ in _parity_blocks(g, M))


def _imaginary_semisimple(M: Matrix) -> bool:
    """The rational M is semisimple with spectrum in iR.  Let s be the
    squarefree part of charpoly(M^2).  The spectrum of M is imaginary iff
    every root of s is real and <= 0.  Then r(x) = s(x^2), or x (s/x)(x^2)
    when s(0) = 0, is squarefree, and every eigenvalue of M is a root of r,
    so M is semisimple iff r(M) = 0."""
    trace_sq = sum(x.a * M.rows[j][i].a for i, r in enumerate(M.rows) for j, x in enumerate(r) if x)
    if trace_sq >= 0 and not M.is_zero():
        return False
    sq = M * M
    s = sq.charpoly().squarefree_part()
    neg, zero, pos = real_root_signs(s)
    if pos or neg + zero != s.degree:
        return False
    t, k = s.shift_out_root_zero()
    r = Matrix.identity(M.field, M.nrows)
    for c in reversed(t.coeffs[:-1]):      # Horner in M^2; t is monic
        r = r * sq
        r = Matrix(M.field, [row[:i] + (row[i] + c,) + row[i + 1:]
                             for i, row in enumerate(r.rows)])
    return (r * M if k else r).is_zero()


@_recorded
def is_compactly_embedded(g: LieSuperalgebra, k0: Subspace) -> object:
    """Exact certificate that k0 <= g0 is compactly embedded in g;
    UNDETERMINED only when a basis row has non-rational ad.

    Every basis row must pass the spectral test, which decides an abelian k0.
    Otherwise k0 passes iff its trace form beta(x, y) = tr(ad x ad y), ad on
    all of g, is negative semidefinite with radical k0 ∩ z(g), the kernel of
    ad (Knapp, Lie Groups Beyond an Introduction, ch. IV): L = ad(k0) then
    carries a negative-definite invariant form, so L = z(L) (+) [L, L] with
    [L, L] compact semisimple.  The z(L) parts of the rows span z(L), and
    each, the difference of two commuting semisimple operators with
    imaginary spectrum, is one too.
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
    if bracket_span(g, k0, k0).dim == 0:
        return True
    ads = [g.ad(b) for b in k0.rows]
    pivots, _ = Matrix(g.field, [[-(A * B).trace() for B in ads] for A in ads]).ldl()
    return (len(pivots) == k0.dim and all(p.sign() >= 0 for p in pivots)
            and sum(1 for p in pivots if p) == k0.dim - k0.intersect(center(g)).dim)


def compact_cartan_even(g: LieSuperalgebra, bound: int = 3, cap: int = 4000) -> Subspace | None:
    """First Cartan subalgebra of g0 from the scan that certifies compactly
    embedded in g; None when none of the first MAX_CANDIDATES scanned Cartan
    subalgebras does, or, after the first failure, when a basis row of z(g0)
    does not pass the spectral test (False or UNDETERMINED).  That is exact:
    z(g0) normalizes, so lies in, every Cartan h0, and is_compactly_embedded
    is True only when the rows b_k of h0 have rational, semisimple ad with
    imaginary spectrum; h0 is nilpotent, so it is then abelian and those
    ad's commute.  z(g0) = {sum c_k b_k :
    sum c_k ad(b_k)|g0 = 0} is cut out by rational equations in the pivot
    coordinates of h0, so each canonical row of the centre has rational c,
    and its ad, a rational combination of the ad(b_k), is rational,
    semisimple and has imaginary spectrum: it passes.  A row that does not
    pass rules out every compact h0, whether its verdict is False or
    UNDETERMINED."""
    pad = (g.field.zero,) * g.space.odd_dim
    for found, (_, h0) in enumerate(islice(iter_cartan_even(g, bound, cap), MAX_CANDIDATES)):
        if is_compactly_embedded(g, h0) is True:
            return h0
        if found == 0 and any(_spectrum_purely_imaginary_semisimple(g, z + pad) is not True
                              for z in center(g.even_part.algebra).rows):
            return None
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


def _conjugate_vector(v: Vector) -> Vector:
    return tuple(x.conjugate_i() for x in v)


def root_decomposition(g: LieSuperalgebra, cartan: CartanData) -> RootDatum:
    """Joint ad-eigenspace decomposition of the complexification g^C.

    Roots are stored through their real values alpha(H) with eigenvalue
    i*alpha(H); requires cartan.compactly_embedded is True.  h0 is even, so
    each ad(H) is block diagonal on g0 (+) g1: the even and the odd block are
    split on their own, and each root space comes out graded.
    """
    if cartan.compactly_embedded is not True:
        raise InputError("root decomposition needs a compactly embedded Cartan")
    gc = g.complexify()
    per_row = [_parity_blocks(gc, gc.ad(tuple(x.promote(gc.field) for x in b)))
               for b in cartan.h0.rows]
    spaces: dict[tuple[Scalar, ...], tuple[list[Vector], list[Vector]]] = {}
    for blocks in zip(*per_row):
        status, joint = joint_eigenspaces([B for _, _, B, _ in blocks])
        if status != "OK":
            raise Undetermined("SPLITTING_FAILURE in the root engine")
        parity, pad_lo, _, pad_hi = blocks[0]
        for evs, space in joint:
            rows = spaces.setdefault(evs, ([], []))[parity]
            rows.extend(pad_lo + r + pad_hi for r in space.rows)
    i_unit = gc.field.i
    roots: list[Root] = []
    for evs, (even_rows, odd_rows) in spaces.items():
        vals = []
        for mu in evs:
            alpha = mu * (-i_unit)       # mu = i * alpha
            if not alpha.is_real():
                raise Undetermined(
                    "eigenvalue not purely imaginary; Cartan not compact")
            vals.append(alpha)
        roots.append(Root(tuple(vals), gc.subspace(even_rows), gc.subspace(odd_rows)))
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


# ---------------------------------------------------------------------------
# fixed-point projection (Lemma 5.6 machinery)
# ---------------------------------------------------------------------------

def fixed_point_projection(g: LieSuperalgebra, k0: Subspace) -> Matrix:
    """Projection of g0 onto the joint kernel of ad(k0) along the sum of the
    images; requires a compactly embedded k0 (the splitting must be direct)."""
    e = g.space.even_dim
    f = g.field
    if k0.dim == 0:
        return Matrix.identity(f, e)
    if is_compactly_embedded(g, k0) is not True:
        raise InputError("fixed_point_projection needs a compactly embedded k0")
    ker = transporter(g, k0.rows, g.even_subspace, g.subspace([]))
    im = bracket_span(g, k0, g.even_subspace)
    if ker.dim + im.dim != e or ker.intersect(im).dim != 0:
        raise InvariantViolation("kernel and image sum is not direct")
    # P sends the kernel basis to itself and the image basis to zero
    B = Matrix.from_cols(f, [r[:e] for r in ker.rows + im.rows])
    T = Matrix.from_cols(f, [r[:e] for r in ker.rows] + [zero_vector(f, e)] * im.dim)
    return T * B.inverse()
