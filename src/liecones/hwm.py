"""Truncated highest-weight shells: positive systems from a regular element
and the free PBW weight table of the lowering algebra.

The module is the free PBW shell (odd generators square-free, even ones
unbounded), so the recorded multiplicities are exact upper bounds for the
irreducible module; the weight-cone containment statement is checked
literally on coordinates.  Density and irreducibility are analytic claims
with no finite certificate and are reported as untested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactnum import InputError, InvariantViolation, Scalar
from .cartan import Root, RootDatum
from .cliffrep import MatrixRep


UNTESTED_CLAIMS = (
    "density of the t-finite vectors",
    "irreducibility of the generated module",
)


@dataclass
class CartanModule:
    """Finite-dimensional Cartan module descriptor with a single even weight."""
    dim: int
    weight: tuple[Scalar, ...]
    label: str = "V"

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"module dimension must be >= 1, got {self.dim}")


def module_from_rep(rep: MatrixRep, h0_dim: int) -> CartanModule:
    """Extract the single t0-weight from a Cartan-subsuperalgebra module.

    The first h0_dim operators must act as i * lambda_k * Id; anything else
    means several weights and is rejected.
    """
    fld = rep.field
    weight = []
    for k in range(h0_dim):
        M = rep.mats[k]
        diag = M.rows[0][0] if M.nrows else fld.zero
        for i in range(M.nrows):
            for j in range(M.ncols):
                want = diag if i == j else fld.zero
                if M.rows[i][j] != want:
                    raise InputError("V has multiple t0-weights")
        lam_k = diag * (-fld.i)
        if not lam_k.is_real():
            raise InputError("Cartan action is not i * real")
        weight.append(lam_k)
    return CartanModule(rep.dim, tuple(weight), label=rep.label or "V")


def positive_system(datum: RootDatum, x0: Sequence) -> list[Root]:
    """Delta+ = {alpha : alpha(X0) > 0}; X0 given in h0-basis coordinates.

    Requires alpha(X0) != 0 for every nonzero root.
    """
    h0 = datum.cartan.h0
    coords = tuple(x0)
    if len(coords) != h0.dim:
        raise InputError("X0 must be given in h0-basis coordinates")
    positives = []
    for root in datum.roots:
        if root.is_zero:
            continue
        val = None
        for t, a in zip(coords, root.values):
            af = a.field
            term = af.coerce(t) * a
            val = term if val is None else val + term
        s = val.sign()
        if s == 0:
            raise InputError(f"root {[str(v) for v in root.values]} vanishes on X0")
        if s > 0:
            positives.append(root)
    return positives


@dataclass
class TruncatedModule:
    datum: RootDatum
    positives: list[Root]
    module: CartanModule
    depth: int
    weights: dict[tuple[Scalar, ...], int]
    generator_parities: tuple[int, ...]

    def multiplicity(self, weight: Sequence[Scalar]) -> int:
        return self.weights.get(tuple(weight), 0)

    def sorted_table(self) -> list[tuple[tuple[Scalar, ...], int]]:
        return sorted(self.weights.items(), key=lambda kv: tuple(str(x) for x in kv[0]))

    def as_json(self) -> dict:
        return {
            "depth": self.depth,
            "module_dim": self.module.dim,
            "highest_weight": [str(x) for x in self.module.weight],
            "positive_roots": [[str(v) for v in r.values] for r in self.positives],
            "weights": [{"weight": [str(x) for x in w], "multiplicity": m}
                        for w, m in self.sorted_table()],
            "untested_claims": list(UNTESTED_CLAIMS),
        }


def build_truncated(datum: RootDatum, positives: Sequence[Root],
                    module: CartanModule | MatrixRep, depth: int) -> TruncatedModule:
    """Free span of PBW monomials over the negative root spaces, tensored with
    the Cartan module; the weight table counts monomials of total exponent
    <= depth (odd generators at most once)."""
    if isinstance(module, MatrixRep):
        module = module_from_rep(module, datum.cartan.h0.dim)
    if depth < 0:
        raise InputError("depth must be >= 0")
    if len(module.weight) != datum.cartan.h0.dim:
        raise InputError("weight length must match the Cartan dimension")
    # generators of g^- : one per basis vector of each negative root space
    table = {tuple(str(v) for v in r.values): r for r in datum.roots}
    gens: list[tuple[tuple[Scalar, ...], int]] = []   # (root values of alpha, parity)
    for root in positives:
        key = tuple(str(v) for v in root.negated())
        neg = table.get(key)
        if neg is None:
            raise InvariantViolation("negative root space missing")  # pragma: no cover
        for _ in range(neg.even_space.dim):
            gens.append((root.values, 0))
        for _ in range(neg.odd_space.dim):
            gens.append((root.values, 1))
    weights: dict[tuple[Scalar, ...], int] = {}

    def add_weight(drop: tuple[Scalar, ...], count_left: int, idx: int):
        if idx == len(gens):
            key = tuple(lw - d for lw, d in zip(module.weight, drop))
            weights[key] = weights.get(key, 0) + module.dim
            return
        alpha, parity = gens[idx]
        max_exp = min(count_left, 1) if parity else count_left
        for expo in range(max_exp + 1):
            if expo:
                drop = tuple(d + a for d, a in zip(drop, alpha))
            add_weight(drop, count_left - expo, idx + 1)

    zero_drop = tuple(v - v for v in module.weight)
    add_weight(zero_drop, depth, 0)
    return TruncatedModule(datum, list(positives), module, depth, weights,
                           tuple(p for _, p in gens))


def weight_in_cone(tm: TruncatedModule, weight: Sequence[Scalar]) -> bool:
    """Literal check that weight = lambda - sum m_i alpha_i with m_i >= 0.

    Enumerates bounded nonnegative integer combinations of the positive roots
    (depth is the exact bound used by the shell)."""
    target = tuple(lw - w for lw, w in zip(tm.module.weight, weight))
    alphas = []
    seen = set()
    for r in tm.positives:
        key = tuple(str(v) for v in r.values)
        if key not in seen:
            seen.add(key)
            alphas.append(r.values)

    def rec(rem: tuple[Scalar, ...], idx: int, budget: int) -> bool:
        if all(not x for x in rem):
            return True
        if idx == len(alphas) or budget == 0:
            return False
        alpha = alphas[idx]
        for m in range(budget + 1):
            if m:
                rem = tuple(x - a for x, a in zip(rem, alpha))
            if rec(rem, idx + 1, budget - m):
                return True
        return False

    return rec(target, 0, tm.depth)
