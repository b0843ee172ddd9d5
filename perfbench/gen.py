"""Seeded input generation.

Everything the program sees is made here from the workload seed: signed
permutations of catalog algebras inside each parity block, orbit windows,
Clifford normalizations, central characters and shell depths.  The generator
keeps what it needs to know the right answers (where the central direction
went and with which sign), so the oracle never asks the program.

Algebras are built cold through the uncached public builders of
``liecones.catalog``; the memoizing ``catalog.build`` is left to the CLI.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

# Catalog keys, in the order of ``catalog.list_keys()``.
KEYS = (
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
)

# Index of the central direction Z in the catalog basis of the nilpotent
# Heisenberg / Clifford keys (X.., Y.., Z for h and hc; Z alone for cl).
Z_INDEX = {"h(1)": 2, "hc(2|2,++)": 2, "hc(2|2,+-)": 2}
for _k in KEYS:
    if _k.startswith("cl("):
        Z_INDEX[_k] = 0

SQUAREFREE = (2, 3, 5, 6, 7)
Q_PATTERN = (1, 2, 1, 3, 1, 2)       # fixed, so that only c varies the work


def rng_for(workload: str, seed: int, *salt) -> random.Random:
    """Independent stream per workload, seed and salt (str seeding is stable)."""
    return random.Random(":".join(str(x) for x in (workload, seed) + salt))


def cold_entry(key: str, lap):
    """Build a catalog entry without touching the catalog's memo; ``lap()``
    then ends this step of the set-up (see ``run.timed_setup``)."""
    from liecones import catalog as cat
    builders = {
        "h(1)": lambda: cat.build_heisenberg(1),
        "hc(2|2,++)": lambda: cat.build_heisenberg_clifford(1, "++"),
        "hc(2|2,+-)": lambda: cat.build_heisenberg_clifford(1, "+-"),
        "su(1,1|1,1)": lambda: cat.build_su(1, 1, 1, 1),
        "sq(1,1)": lambda: cat.build_sq(1, 1),
        "osp(1,1|2)": lambda: cat.build_osp(1, 1, 1),
        "osp(1|2)": lambda: cat.build_osp(1, 0, 1),
        "gl(1|1)": cat.build_gl11,
        "sl(2,R)": cat.build_sl2R,
        "su(2)": lambda: cat.build_su(2, 0, 0, 0),
        "n3super": cat.build_n3super,
        "abelian(2|1)": lambda: cat.build_abelian(2, 1),
    }
    if key.startswith("cl(1|"):
        d, signs = key[len("cl(1|"):-1].split(",")
        entry = cat.build_clifford(int(d), signs)
    else:
        entry = builders[key]()
    lap()
    return entry


@dataclass(frozen=True)
class SignedPerm:
    """New basis vector a is sign[a] * (old basis vector perm[a])."""
    perm: tuple[int, ...]
    sign: tuple[int, ...]

    def new_index(self, old: int) -> int:
        return self.perm.index(old)

    @staticmethod
    def draw(rng: random.Random, even: int, odd: int) -> "SignedPerm":
        ev, od = list(range(even)), list(range(even, even + odd))
        rng.shuffle(ev)
        rng.shuffle(od)
        return SignedPerm(tuple(ev + od), tuple(rng.choice((1, -1)) for _ in ev + od))


def permute_algebra(g, sp: SignedPerm, name: str):
    """A fresh LieSuperalgebra equal to g in the signed-permuted basis."""
    from liecones.glinalg import GradedSpace
    from liecones.lsa import LieSuperalgebra
    inv = {old: new for new, old in enumerate(sp.perm)}
    br = {}
    for (i, j), out in g.brackets.items():
        a, b = inv[i], inv[j]
        br[(a, b)] = {inv[k]: (c if sp.sign[a] * sp.sign[b] * sp.sign[inv[k]] > 0 else -c)
                      for k, c in out.items()}
    names = tuple(g.space.basis_names[old] for old in sp.perm)
    space = GradedSpace(g.space.even_dim, g.space.odd_dim, names)
    return LieSuperalgebra(name, space, g.field, br)


@dataclass
class Seeded:
    """A permuted algebra and what the generator knows about it."""
    key: str
    algebra: object
    sp: SignedPerm

    @property
    def z_slot(self) -> tuple[int, int]:
        """(coordinate, sign) of the central direction: z = sign * lam[coordinate]."""
        old = Z_INDEX[self.key]
        a = self.sp.new_index(old)
        return a, self.sp.sign[a]


def seeded_algebra(key: str, base, rng: random.Random) -> Seeded:
    g = base.algebra
    sp = SignedPerm.draw(rng, g.space.even_dim, g.space.odd_dim)
    return Seeded(key, permute_algebra(g, sp, key), sp)


# ---------------------------------------------------------------------------
# orbit windows
# ---------------------------------------------------------------------------

@dataclass
class Window:
    """An integer box of functionals in the permuted basis."""
    key: str
    lows: tuple[int, ...]
    side: int

    def points(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*[range(lo, lo + self.side) for lo in self.lows]))


def draw_window(s: Seeded, side: int, z_low: int, rng: random.Random) -> Window:
    """Window whose central coordinate covers z_low.. in true values; the
    other offsets come from the seed."""
    e = s.algebra.space.even_dim
    za, zsign = s.z_slot
    lows = []
    for a in range(e):
        if a == za:
            lows.append(z_low if zsign > 0 else -(z_low + side - 1))
        else:
            lows.append(rng.randint(-3, 1))
    return Window(s.key, tuple(lows), side)


def expected_partition(s: Seeded, w: Window) -> set[frozenset[int]]:
    """Kirillov picture of the window, from the generator's knowledge of Z.

    h(1): all points admissible; one orbit per nonzero z, points at z = 0.
    hc(2|2,++): admissible iff z >= 0; same orbits.
    hc(2|2,+-): admissible only at z = 0, where every point is its own orbit.
    """
    za, zsign = s.z_slot
    levels: dict[int, list[int]] = {}
    singles = []
    for idx, p in enumerate(w.points()):
        z = zsign * p[za]
        if s.key == "hc(2|2,++)" and z < 0:
            continue
        if s.key == "hc(2|2,+-)" and z != 0:
            continue
        if z == 0:
            singles.append(idx)
        else:
            levels.setdefault(z, []).append(idx)
    return {frozenset(v) for v in levels.values()} | {frozenset([i]) for i in singles}


# ---------------------------------------------------------------------------
# Clifford data
# ---------------------------------------------------------------------------

def draw_normalization(d: int, rng: random.Random) -> tuple[int, list[Fraction]]:
    """Norms 2*c*q^2 for one squarefree c != 1, so that the module lives in
    Q(i, sqrt c) (the scalings are sqrt(norm / 2) = q sqrt c)."""
    c = rng.choice(SQUAREFREE)
    return c, [Fraction(2 * c * q * q) for q in Q_PATTERN[:d]]


def draw_gamma(rng: random.Random, sign: int) -> Fraction:
    return sign * Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))
