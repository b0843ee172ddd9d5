"""Lie superalgebra values: structure constants, axioms, ideals, series,
centroid, derivations, Grassmann base extensions, quotients.

The structure-constants tensor is the single source of truth.  Constants are
stored for all ordered pairs; graded antisymmetry is checked, not implied.
When loading user files, an omitted mirror pair (j, i) is filled in by
antisymmetry, while explicitly supplied pairs are kept verbatim so that
inconsistent input is caught by check_axioms.  Once antisymmetry holds, the
graded Jacobi sum is graded-alternating, and check_axioms evaluates it once
per unordered triple.

A LieSuperalgebra is an immutable value: name, space, field and the
read-only brackets are fixed at construction.  It owns its derived
structure (the full, even and odd coordinate subspaces, the centre, both
series, the even part as a subalgebra, the ad(e_j) basis, [g1, g1] and the
Engel flag of g0 through it, and recorded test verdicts), each computed once.

One routine, transporter(g, acting, source, target) = {X in source :
[a, X] in target for every a of acting}, answers the centre, the
supercommutant, the normalizer, the self-normalizing test of a Cartan
subalgebra of g0, the socle step of the Engel flag and the fixed-point
kernel of a compactly embedded subalgebra.  Another, bracket_form(g, lam,
left, right) = [[lam([u, v]) for v in right] for u in left], is the one
source of the odd Gram matrix, Omega_lambda and the polarization, coadjoint
stage, root-space and Heisenberg-Clifford forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from itertools import permutations
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .exactnum import Field, InputError, InvariantViolation, Scalar, parse_scalar
from .glinalg import (
    GradedSpace, Matrix, SparseVec, Subspace, Vector, coordinate_subspace, densify,
    full_subspace, graded_commutant, lin_comb, solve_block_maps, unit_vector,
)


_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def json_entry(doc, key: str, kind: type, default=None):
    """doc[key] from a parsed JSON document, checked to be of type kind
    (dict, list, str or int); default when the key is omitted, or InputError
    when default is None."""
    if not isinstance(doc, dict):
        raise InputError(f"expected an object with {key!r}, got {type(doc).__name__}")
    if key not in doc:
        if default is None:
            raise InputError(f"missing key {key!r}")
        return default
    val = doc[key]
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise InputError(f"{key!r} must be {_JSON_TYPE_NAMES[kind]}, "
                         f"got {type(val).__name__}")
    return val


def read_json(path: str, what: str):
    """The JSON document in a file; InputError when it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot load {what} file: {exc}") from exc


def _nonzero(brackets: Mapping) -> dict[tuple[int, int], SparseVec]:
    return {pair: {k: s for k, s in out.items() if s}
            for pair, out in brackets.items() if any(out.values())}


def _fill_mirrors(space: GradedSpace, fld: Field,
                  brackets: Mapping) -> dict[tuple[int, int], SparseVec]:
    """The nonzero brackets, then each omitted mirror pair (j, i) filled in by
    graded antisymmetry; check_axioms reports violations in this order."""
    out = _nonzero(brackets)
    for (i, j), v in list(out.items()):
        if (j, i) in out or i == j:
            continue
        sign = -fld.one if (space.parity(i) * space.parity(j)) == 0 else fld.one
        out[(j, i)] = {k: sign * c for k, c in v.items()}
    return out


@dataclass(frozen=True, eq=False)
class LieSuperalgebra:
    """Finite-dimensional Lie superalgebra over one scalar tower; immutable."""
    name: str
    space: GradedSpace
    field: Field
    brackets: Mapping[tuple[int, int], Mapping[int, Scalar]]

    def __post_init__(self):
        object.__setattr__(self, "brackets", MappingProxyType(
            {pair: MappingProxyType(out) for pair, out in _nonzero(self.brackets).items()}))

    # -- construction ------------------------------------------------------
    @staticmethod
    def from_table(name: str, fld: Field, even: Sequence[str], odd: Sequence[str],
                   table: dict[tuple[str, str], dict[str, object]]) -> "LieSuperalgebra":
        """Build from a {(left, right): {out: coeff}} table of basis names;
        omitted mirror pairs are filled in by graded antisymmetry."""
        names = list(even) + list(odd)
        index = {nm: i for i, nm in enumerate(names)}
        space = GradedSpace(len(even), len(odd), tuple(names))
        br: dict[tuple[int, int], SparseVec] = {}
        for (l, r), out in table.items():
            br[(index[l], index[r])] = {index[k]: fld.coerce(c) for k, c in out.items()}
        return LieSuperalgebra(name, space, fld, _fill_mirrors(space, fld, br))

    @property
    def dim(self) -> int:
        return self.space.dim

    def parity(self, i: int) -> int:
        return self.space.parity(i)

    # -- bracket machinery ---------------------------------------------------
    def c(self, i: int, j: int) -> SparseVec:
        return self.brackets.get((i, j), {})

    def bracket_basis(self, i: int, j: int) -> Vector:
        return densify(self.c(i, j), self.dim, self.field)

    def bracket(self, u: Vector, v: Vector) -> Vector:
        br, sv = self.brackets, [(j, vj) for j, vj in enumerate(v) if vj]
        acc: SparseVec = {}
        for i, ui in enumerate(u):
            if ui:
                for j, vj in sv:
                    out = br.get((i, j))
                    if out is not None:
                        f = ui * vj
                        for k, s in out.items():
                            acc[k] = acc[k] + f * s if k in acc else f * s
        return densify(acc, self.dim, self.field)

    def ad(self, v: Vector) -> Matrix:
        """ad(v)[k][j] = sum of v_i c(i, j)[k], over the nonzero constants only."""
        rows = [[self.field.zero] * self.dim for _ in range(self.dim)]
        for (i, j), out in self.brackets.items():
            if v[i]:
                for k, c in out.items():
                    rows[k][j] += v[i] * c
        return Matrix(self.field, rows)

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.field, self.dim, i)

    def subspace(self, vectors: Iterable[Sequence]) -> Subspace:
        return Subspace(self.field, self.space, vectors)

    # -- derived structure, each computed once on first use -----------------
    @cached_property
    def full_space(self) -> Subspace:
        return full_subspace(self.field, self.space)

    @cached_property
    def even_subspace(self) -> Subspace:
        return coordinate_subspace(self.field, self.space, self.space.even_indices())

    @cached_property
    def odd_subspace(self) -> Subspace:
        return coordinate_subspace(self.field, self.space, self.space.odd_indices())

    @cached_property
    def even_part(self) -> "SubalgebraResult":
        """g0 on its own basis, the leading even coordinates of g; raises
        InputError when an even bracket leaves g0."""
        return subalgebra_on(self, self.even_subspace, name=f"{self.name}|0")

    @cached_property
    def full_part(self) -> "SubalgebraResult":
        """g on its own identity rows, named g|m: the orbit method's m when m0 = g0."""
        return subalgebra_on(self, self.full_space, name=f"{self.name}|m")

    @cached_property
    def _center(self) -> Subspace:
        return transporter(self, self.full_space.rows, self.full_space, self.subspace([]))

    @cached_property
    def _lower_central(self) -> tuple[Subspace, ...]:
        return _series(self, derived=False)

    @cached_property
    def _derived(self) -> tuple[Subspace, ...]:
        return _series(self, derived=True)

    @cached_property
    def ad_basis(self) -> tuple[Matrix, ...]:
        """ad(e_j) for each basis vector; ad(v) is their combination by v."""
        return tuple(self.ad(self.basis_vector(j)) for j in range(self.dim))

    @cached_property
    def verdicts(self) -> dict:
        """Verdicts of tests on subspaces of g by (test, rows); see cartan._recorded."""
        return {}

    @cached_property
    def odd_square(self) -> Subspace:
        """[g1, g1], an ideal of g0."""
        return bracket_span(self, self.odd_subspace, self.odd_subspace)

    @cached_property
    def engel_flag(self) -> tuple[Subspace, ...]:
        """Codimension-one ideal chain of g0 from 0 through [g1, g1] to g0."""
        chain = _engel_refine(self, self.subspace([]), self.odd_square)
        return tuple(chain + _engel_refine(self, self.odd_square, self.even_subspace)[1:])

    def complexify(self) -> "LieSuperalgebra":
        fld = self.field.complexified()
        br = {p: {k: s.promote(fld) for k, s in out.items()}
              for p, out in self.brackets.items()}
        return LieSuperalgebra(self.name + "^C", self.space, fld, br)

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        entries = []
        for (i, j) in sorted(self.brackets):
            out = self.brackets[(i, j)]
            entries.append({"left": i, "right": j,
                            "out": [{"k": k, "c": str(out[k])} for k in sorted(out)]})
        return {"name": self.name, "field": self.field.tag,
                "even": self.space.even_dim, "odd": self.space.odd_dim,
                "basis": list(self.space.basis_names), "brackets": entries}

    @staticmethod
    def from_json(doc) -> "LieSuperalgebra":
        """Build from the documented algebra document (see to_json); any
        other shape raises InputError."""
        fld = Field.parse(json_entry(doc, "field", str))
        names = json_entry(doc, "basis", list, [])
        if not all(isinstance(nm, str) for nm in names):
            raise InputError("'basis' must list names as strings")
        space = GradedSpace(json_entry(doc, "even", int), json_entry(doc, "odd", int),
                            tuple(names))
        br: dict[tuple[int, int], SparseVec] = {}
        for ent in json_entry(doc, "brackets", list, []):
            i, j = json_entry(ent, "left", int), json_entry(ent, "right", int)
            if not (0 <= i < space.dim and 0 <= j < space.dim):
                raise InputError(f"bracket index ({i},{j}) out of range")
            if (i, j) in br:
                raise InputError(f"bracket ({i},{j}) given twice")
            outs = json_entry(ent, "out", list)
            out = {json_entry(o, "k", int): parse_scalar(json_entry(o, "c", str), fld)
                   for o in outs}
            if len(out) != len(outs):
                raise InputError(f"bracket ({i},{j}) repeats an output index")
            if not all(0 <= k < space.dim for k in out):
                raise InputError(f"bracket ({i},{j}) output index out of range")
            br[(i, j)] = out
        return LieSuperalgebra(json_entry(doc, "name", str, "g"), space, fld,
                               _fill_mirrors(space, fld, br))

    @staticmethod
    def load(path: str) -> "LieSuperalgebra":
        return LieSuperalgebra.from_json(read_json(path, "algebra"))

    def __repr__(self):
        return (f"LieSuperalgebra({self.name}, dim ({self.space.even_dim}"
                f"|{self.space.odd_dim}), field {self.field.tag})")


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    parity_ok: bool
    antisymmetry_ok: bool
    jacobi_ok: bool
    violations: list = dc_field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.parity_ok and self.antisymmetry_ok and self.jacobi_ok


def check_axioms(g: LieSuperalgebra, max_violations: int = 25) -> AxiomReport:
    """Exhaustive parity / graded-antisymmetry / graded-Jacobi check."""
    f = g.field
    violations = []
    parity_ok = True
    for (i, j), out in g.brackets.items():
        want = (g.parity(i) + g.parity(j)) % 2
        for k, s in out.items():
            if s and g.parity(k) != want:
                parity_ok = False
                if len(violations) < max_violations:
                    violations.append(("parity", i, j, k))
    antisymmetry_ok = True
    # a pair with no bracket in either order is antisymmetric: walk the
    # pairs i <= j that have one, in the order of the full i <= j scan
    for i, j in sorted({(min(p), max(p)) for p in g.brackets}):
        sign = f.one if (g.parity(i) * g.parity(j)) else -f.one
        lhs = g.c(i, j)
        rhs = g.c(j, i)
        for k in set(lhs) | set(rhs):
            a = lhs.get(k, f.zero)
            b = rhs.get(k, f.zero)
            if b != sign * a:
                antisymmetry_ok = False
                if len(violations) < max_violations:
                    violations.append(("antisymmetry", i, j))
                break
    # Graded Jacobi over the nonzero structure constants only: with
    # T[a, b, c] = [e_a, [e_b, e_c]], J(i, j, k) is a signed sum of T at the
    # three rotations of (i, j, k), so only rotations of keys of T can fail.
    # Graded antisymmetry makes J graded-alternating, J(i, k, j) = -(-1)^{pi pj
    # + pj pk + pk pi} J(i, j, k) (Kac 1977): J is then evaluated once per
    # unordered key of T, and a failure fails at each of its distinct orderings.
    by_right: dict[int, list] = {}
    for (a, m), out in g.brackets.items():
        by_right.setdefault(m, []).append((a, out))
    T: dict[tuple[int, int, int], SparseVec] = {}
    for (b, c), bc in g.brackets.items():
        for m, x in bc.items():
            for a, am in by_right.get(m, ()):
                acc = T.setdefault((a, b, c), {})
                for k, y in am.items():
                    acc[k] = acc[k] + x * y if k in acc else x * y
    triples = {tuple(sorted(t)) for t in T} if antisymmetry_ok else \
        {t for a, b, c in T for t in ((a, b, c), (b, c, a), (c, a, b))}
    failed: set[tuple[int, int, int]] = set()
    for i, j, k in triples:
        pi, pj, pk = g.parity(i), g.parity(j), g.parity(k)
        total: SparseVec = {}
        for e, key in ((pi * pk, (i, j, k)), (pj * pi, (j, k, i)), (pk * pj, (k, i, j))):
            for m, x in T.get(key, {}).items():
                total[m] = (total[m] - x if e else total[m] + x) if m in total else (-x if e else x)
        if any(total.values()):
            failed.update(permutations((i, j, k)) if antisymmetry_ok else [(i, j, k)])
    room = max(max_violations - len(violations), 0)
    violations.extend(("jacobi", *t) for t in sorted(failed)[:room])
    return AxiomReport(parity_ok, antisymmetry_ok, not failed, violations)


# ---------------------------------------------------------------------------
# subspace machinery: centers, series, ideals
# ---------------------------------------------------------------------------

def supercommutant(g: LieSuperalgebra, h: Subspace) -> Subspace:
    """Z_g(h) = {X : [h, X] = 0}; h must be a graded subsuperalgebra."""
    if not h.is_graded():
        raise InputError("supercommutant of a non-graded subspace")
    if not is_subalgebra(g, h):
        raise InputError("supercommutant of a non-subalgebra")
    return transporter(g, h.rows, g.full_space, g.subspace([]))


def transporter(g: LieSuperalgebra, acting: Sequence[Vector], source: Subspace,
                target: Subspace) -> Subspace:
    """{X in source : [a, X] in target for every a of acting}: the kernel of
    the residuals of [a, s] mod target, on target's complement coordinates,
    over the basis rows s of source, mapped back through those rows."""
    comp = target.complement_coordinates()
    rows = []
    for a in acting:
        resid = [target.reduce(g.bracket(a, s)) for s in source.rows]
        rows.extend([r[c] for r in resid] for c in comp)
    if not (rows and source.rows):
        return source
    return g.subspace(lin_comb(g.field, g.dim, sol, source.rows)
                      for sol in Matrix(g.field, rows).kernel_basis())


def center(g: LieSuperalgebra) -> Subspace:
    return g._center


def bracket_span(g: LieSuperalgebra, s1: Subspace, s2: Subspace) -> Subspace:
    return g.subspace([g.bracket(u, v) for u in s1.rows for v in s2.rows])


def bracket_form(g: LieSuperalgebra, lam: Sequence[Scalar], left: Sequence[Vector],
                 right: Sequence[Vector]) -> Matrix:
    """[[lam([u, v]) for v in right] for u in left], lam read on the leading
    len(lam) coordinates of a bracket: each entry sums a b t_ij over the
    nonzero coordinates a of u and b of v, where t_ij = lam([e_i, e_j]) =
    sum of c(i, j)[m] lam[m] is contracted once per call, on first use."""
    k, zero = len(lam), g.field.zero
    supports = [[(j, b) for j, b in enumerate(v) if b] for v in right]
    contracted: dict[tuple[int, int], Scalar] = {}
    rows = []
    for u in left:
        su = [(i, a) for i, a in enumerate(u) if a]
        row = []
        for sv in supports:
            acc = zero
            for i, a in su:
                for j, b in sv:
                    if (i, j) not in contracted:
                        t = zero
                        for m, c in g.c(i, j).items():
                            if m < k and lam[m]:
                                t = t + c * lam[m] if t else c * lam[m]
                        contracted[i, j] = t
                    t = contracted[i, j]
                    if t:
                        acc = acc + a * b * t if acc else a * b * t
            row.append(acc)
        rows.append(row)
    return Matrix(g.field, rows)


def is_subalgebra(g: LieSuperalgebra, s: Subspace) -> bool:
    return s.contains_subspace(bracket_span(g, s, s))


def _contains_square(g: LieSuperalgebra, s: Subspace) -> bool:
    """Whether s contains [g, g] (all of g when g is perfect), so that [g, s] lies in s."""
    return s.contains_subspace(series(g, "lower_central")[:2][-1])


def is_ideal(g: LieSuperalgebra, s: Subspace) -> tuple[bool, tuple | None]:
    """(True, None), or (False, (i, v)) for the first [e_i, v] outside s; an s
    that contains [g, g] is an ideal outright, and any other is scanned over
    the pairs with a structure constant."""
    return (True, None) if _contains_square(g, s) else _ideal_scan(g, s)


def _ideal_scan(g: LieSuperalgebra, s: Subspace) -> tuple[bool, tuple | None]:
    supports = [[t for t, x in enumerate(v) if x] for v in s.rows]
    for gi in range(g.dim):
        for v, supp in zip(s.rows, supports):
            if any((gi, t) in g.brackets for t in supp) and \
                    not s.contains(g.bracket(g.basis_vector(gi), v)):
                return False, (gi, v)
    return True, None


def _engel_refine(g: LieSuperalgebra, bottom: Subspace, top: Subspace) -> list[Subspace]:
    """Codimension-one ideal chain of g0 from bottom to top.

    At each step the elements of top that g0 maps into the current member
    form a strictly larger ideal (Engel); the new generator is taken in
    deterministic reverse basis order.
    """
    chain = [bottom]
    cur = bottom
    even = g.even_subspace.rows
    while cur != top:
        socle = cur.sum_with(transporter(g, even, top, cur))
        if socle.dim <= cur.dim:
            raise InvariantViolation("Engel socle did not grow; not nilpotent?")
        pick = next(row for row in reversed(socle.rows) if not cur.contains(row))
        cur = Subspace(g.field, g.space, list(cur.rows) + [pick])
        for gi in range(len(even)):
            for v in cur.rows:
                if not cur.contains(g.bracket(g.basis_vector(gi), v)):
                    raise InvariantViolation("flag member is not an ideal of g0: "
                                             f"{(gi, tuple(str(x) for x in v))}")
        chain.append(cur)
    return chain


def series(g: LieSuperalgebra, kind: str) -> tuple[Subspace, ...]:
    """Descending derived or lower_central chain, up to stabilization."""
    if kind == "derived":
        return g._derived
    if kind == "lower_central":
        return g._lower_central
    raise InputError(f"unknown series kind {kind!r}")


def _series(g: LieSuperalgebra, derived: bool) -> tuple[Subspace, ...]:
    chain = [g.full_space]
    while True:
        cur = chain[-1]
        nxt = bracket_span(g, cur if derived else g.full_space, cur)
        if nxt == cur:
            break
        chain.append(nxt)
        if nxt.dim == 0:
            break
    return tuple(chain)


def is_nilpotent(g: LieSuperalgebra) -> bool:
    return series(g, "lower_central")[-1].dim == 0


def is_solvable(g: LieSuperalgebra) -> bool:
    return series(g, "derived")[-1].dim == 0


def nilpotency_class(g: LieSuperalgebra) -> int:
    """Smallest s with c_{s+1} = 0; raises when g is not nilpotent."""
    chain = series(g, "lower_central")
    if chain[-1].dim != 0:
        raise InputError(f"{g.name} is not nilpotent")
    return len(chain) - 1


# ---------------------------------------------------------------------------
# derivations, centroid, differential constants
# ---------------------------------------------------------------------------

@dataclass
class EndoFamily:
    """Homogeneous basis of a space of endomorphisms of g."""
    host: LieSuperalgebra
    even: list[Matrix]
    odd: list[Matrix]

    @property
    def dim(self) -> int:
        return len(self.even) + len(self.odd)


def derivation_equations(g: LieSuperalgebra, s: int, pos: dict) -> list[SparseVec]:
    """The nonzero rows, over the unknown entries pos of a parity-s map D, of
    D[e_i, e_j] - [D e_i, e_j] - (-1)^{s|e_i|} [e_i, D e_j] at m, for i <= j,
    from index lists of the nonzero constants c_pj^m per (j, m) and c_ip^m per (i, m)."""
    n = g.dim
    by_right: dict[tuple[int, int], list] = {}      # (j, m) -> [(p, c_pj^m)]
    by_left: dict[tuple[int, int], list] = {}       # (i, m) -> [(p, c_ip^m)]
    for (p, q), out in g.brackets.items():
        for m, c in out.items():
            by_right.setdefault((q, m), []).append((p, c))
            by_left.setdefault((p, m), []).append((q, c))
    rows = []
    for i in range(n):
        pi = g.parity(i)
        sgn = g.field.rat((-1) ** (s * pi))
        for j in range(i, n):
            cij = g.c(i, j)
            for m in range(n):
                if (g.parity(m) - (pi + g.parity(j))) % 2 != s:
                    continue
                row: SparseVec = {}
                terms = [((m, k), cv) for k, cv in cij.items()]
                terms += [((p, i), -c) for p, c in by_right.get((j, m), ())]
                terms += [((p, j), -(sgn * c)) for p, c in by_left.get((i, m), ())]
                for key, val in terms:          # eliminate() drops cancelled sums
                    u = pos.get(key)
                    if u is not None:
                        row[u] = row[u] + val if u in row else val
                if row:
                    rows.append(row)
    return rows


def derivations(g: LieSuperalgebra) -> EndoFamily:
    """Basis of Der(g), split by parity, by exact linear solve."""
    return EndoFamily(g, *(solve_block_maps(g.field, g.space, g.space, s,
                                            partial(derivation_equations, g, s))
                           for s in (0, 1)))


def _ad_commutant(g: LieSuperalgebra, extra: Sequence[tuple[Matrix, int]] = ()) -> EndoFamily:
    """Homogeneous T in End(g) with T M = (-1)^{|T||M|} M T for M = ad(e_i)
    of parity |e_i| and for each (M, |M|) of extra.  The odd ad(e_i) come
    first: they tie g0 to g1, so the solve is pinned down soonest."""
    ops = [(g.ad_basis[i], g.parity(i)) for i in (*g.space.odd_indices(), *g.space.even_indices())]
    ops += extra
    return EndoFamily(g, *(graded_commutant(g.field, g.space, g.space, s,
                                            [(M, M, (-1) ** (s * pm)) for M, pm in ops])
                           for s in (0, 1)))


def centroid(g: LieSuperalgebra) -> EndoFamily:
    """Supercommutant of the multiplication algebra inside End(g)."""
    return _ad_commutant(g)


def differential_constants(g: LieSuperalgebra) -> EndoFamily:
    """Supercommutant of Der(g) inside the centroid."""
    der = derivations(g)
    return _ad_commutant(g, [(D, 0) for D in der.even] + [(D, 1) for D in der.odd])


# ---------------------------------------------------------------------------
# Grassmann base extension
# ---------------------------------------------------------------------------

def _xi_product(S: tuple[int, ...], T: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    if set(S) & set(T):
        return None
    inversions = sum(1 for s in S for t in T if s > t)
    merged = tuple(sorted(S + T))
    return (-1) ** inversions, merged


def grassmann_extend(g: LieSuperalgebra, n: int) -> LieSuperalgebra:
    """g tensor Lambda(n): basis e_i (x) xi_S over subsets S of {1..n}."""
    if n < 0:
        raise InputError("n must be >= 0")
    subsets = []
    for mask in range(1 << n):
        subsets.append(tuple(i + 1 for i in range(n) if mask >> i & 1))
    raw = [(i, S) for S in subsets for i in range(g.dim)]

    def par(item):
        i, S = item
        return (g.parity(i) + len(S)) % 2

    ordered = [it for it in raw if par(it) == 0] + [it for it in raw if par(it) == 1]
    even_dim = sum(1 for it in raw if par(it) == 0)
    pos = {it: t for t, it in enumerate(ordered)}

    def name(item):
        i, S = item
        base = g.space.basis_names[i]
        return base if not S else base + "*" + "".join(f"x{k}" for k in S)

    space = GradedSpace(even_dim, len(raw) - even_dim, tuple(name(it) for it in ordered))
    br: dict[tuple[int, int], SparseVec] = {}
    for (i, S) in raw:
        for (j, T) in raw:
            prod = _xi_product(S, T)
            if prod is None:
                continue
            sign, merged = prod
            # (a (x) u)(b (x) v) = (-1)^{|u||b|} ab (x) uv
            sgn = g.field.rat(sign * (-1) ** (len(S) * g.parity(j)))
            out: SparseVec = {}
            for k, cv in g.c(i, j).items():
                val = sgn * cv
                if val:
                    out[pos[(k, merged)]] = val
            if out:
                br[(pos[(i, S)], pos[(j, T)])] = out
    return LieSuperalgebra(f"{g.name}(x)Lambda({n})", space, g.field, br)


# ---------------------------------------------------------------------------
# quotients and subalgebras
# ---------------------------------------------------------------------------

@dataclass
class QuotientResult:
    algebra: LieSuperalgebra
    ideal: Subspace


def quotient(g: LieSuperalgebra, ideal: Subspace, name: str | None = None) -> QuotientResult:
    """Quotient by a verified graded ideal, on the complement-coordinate basis;
    one that contains [g, g] needs no pairwise test and leaves g/I abelian."""
    if not ideal.is_graded():
        raise InputError("subspace is not graded")
    abelian = _contains_square(g, ideal)
    ok, witness = (True, None) if abelian else _ideal_scan(g, ideal)
    if not ok:
        raise InputError(f"subspace is not a graded ideal; witness pair {witness}")
    comp = ideal.complement_coordinates()
    even_new = sum(1 for j in comp if g.parity(j) == 0)
    names = tuple(g.space.basis_names[j] + "~" for j in comp)
    space = GradedSpace(even_new, len(comp) - even_new, names)
    posn = {j: t for t, j in enumerate(comp)}
    br: dict[tuple[int, int], SparseVec] = {}
    for a_t, a in enumerate(() if abelian else comp):
        for b_t, b in enumerate(comp):
            v = ideal.reduce(g.bracket_basis(a, b))
            out = {posn[k]: x for k, x in enumerate(v) if x}
            if out:
                br[(a_t, b_t)] = out
    qname = name or f"{g.name}/I"
    return QuotientResult(LieSuperalgebra(qname, space, g.field, br), ideal)


@dataclass
class SubalgebraResult:
    algebra: LieSuperalgebra
    subspace: Subspace

    def restrict(self, v: Vector) -> Vector | None:
        return self.subspace.coords_of(v)


def subalgebra_on(g: LieSuperalgebra, s: Subspace, name: str | None = None) -> SubalgebraResult:
    """Realize a graded subsuperalgebra on its own basis."""
    if not s.is_graded():
        raise InputError("subspace is not graded")
    if not is_subalgebra(g, s):
        raise InputError("subspace is not closed under the bracket")
    # The canonical rows of a graded subspace are a homogeneous basis (even
    # rows, supported on the leading even coordinates, come first), so
    # coords_of reads off the bracket coordinates without a solve.
    basis = s.rows
    e_dim = sum(1 for pc in s.pivots if g.parity(pc) == 0)
    space = GradedSpace(e_dim, len(basis) - e_dim,
                        tuple(f"s{t}" for t in range(len(basis))))
    br: dict[tuple[int, int], SparseVec] = {}
    for a in range(len(basis)):
        for b in range(len(basis)):
            v = g.bracket(basis[a], basis[b])
            coords = s.coords_of(v)
            if coords is None:
                raise InvariantViolation("bracket left the subspace")  # pragma: no cover
            out = {k: x for k, x in enumerate(coords) if x}
            if out:
                br[(a, b)] = out
    sname = name or f"{g.name}|sub"
    return SubalgebraResult(LieSuperalgebra(sname, space, g.field, br), s)
