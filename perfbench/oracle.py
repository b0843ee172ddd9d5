"""Expected answers, written down from the paper and its acceptance criteria,
and witness re-checks in plain ``fractions.Fraction`` arithmetic.

Nothing here calls liecones: results are read (scalars through their four
rational coordinates, algebras through their structure constants) and
re-derived independently.  Only basis-invariant facts are compared, because
every algebra the program sees is a signed permutation of a catalog algebra.
"""

from __future__ import annotations

import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# hand-written tables (basis-invariant facts)
# ---------------------------------------------------------------------------

# star-reduced verdicts.  CONE_OK iff some even functional makes the odd
# Gram form positive definite (vacuous without odd part); definite Clifford
# and Heisenberg-Clifford forms are, indefinite ones have isotropic odd
# vectors; su(1,1|1,1) (quarter-weight root hull, criterion 4) and sq(1,1)
# (projected Z1+Z2+Z3 = 0, criterion 5) are obstructed; osp(1|2) is the
# positive osp; gl(1|1), osp(1,1|2), n3super and abelian(2|1) have odd
# vectors with vanishing square.
STAR_STATUS = {
    "h(1)": "CONE_OK", "sl(2,R)": "CONE_OK", "su(2)": "CONE_OK",
    "cl(1|1,+)": "CONE_OK", "cl(1|1,-)": "CONE_OK", "cl(1|2,++)": "CONE_OK",
    "cl(1|3,+++)": "CONE_OK", "cl(1|4,++++)": "CONE_OK", "hc(2|2,++)": "CONE_OK",
    "osp(1|2)": "CONE_OK",
    "cl(1|2,+-)": "OBSTRUCTED", "cl(1|3,++-)": "OBSTRUCTED",
    "cl(1|4,+++-)": "OBSTRUCTED", "hc(2|2,+-)": "OBSTRUCTED",
    "su(1,1|1,1)": "OBSTRUCTED", "sq(1,1)": "OBSTRUCTED",
    "osp(1,1|2)": "OBSTRUCTED", "gl(1|1)": "OBSTRUCTED",
    "n3super": "OBSTRUCTED", "abelian(2|1)": "OBSTRUCTED",
}

# Keys whose even part has a Cartan subalgebra that is compactly embedded in
# g: central even parts (cl), abelian, su(2), sl(2,R) (so(2)), osp(1|2),
# su(1,1|1,1) and sq(1,1).  Nilpotent keys with nonzero brackets, gl(1|1)
# (real weights +-1) and osp(1,1|2) (so(1,1) factor) have none.
HAS_COMPACT_CARTAN = {
    "cl(1|1,+)", "cl(1|1,-)", "cl(1|2,++)", "cl(1|2,+-)", "cl(1|3,+++)",
    "cl(1|3,++-)", "cl(1|4,++++)", "cl(1|4,+++-)", "su(1,1|1,1)", "sq(1,1)",
    "osp(1|2)", "sl(2,R)", "su(2)", "abelian(2|1)",
}

# (dim Der, dim centroid), invariants of each algebra.  Simple sl(2,R) and
# su(2): inner derivations and centroid R; h(1): Der = gl(2) + inner (6);
# abelian(2|1): all of gl(2|1) for both.  The remaining values are the
# dimensions of the solution spaces of the defining linear systems in the
# catalog basis, which any change of basis must preserve.
DER_CENTROID = {
    "h(1)": (6, 3), "cl(1|1,+)": (2, 2), "cl(1|1,-)": (2, 2),
    "cl(1|2,++)": (4, 3), "cl(1|2,+-)": (4, 3), "cl(1|3,+++)": (7, 4),
    "cl(1|3,++-)": (7, 4), "cl(1|4,++++)": (11, 5), "cl(1|4,+++-)": (11, 5),
    "hc(2|2,++)": (13, 5), "hc(2|2,+-)": (13, 5), "su(1,1|1,1)": (15, 1),
    "sq(1,1)": (8, 2), "osp(1,1|2)": (8, 1), "osp(1|2)": (5, 1),
    "gl(1|1)": (5, 2), "sl(2,R)": (3, 1), "su(2)": (3, 1), "n3super": (8, 5),
    "abelian(2|1)": (9, 9),
}

# Lower central series dimensions of n3super: g, [g,g] = <A,B,u>, <u>, 0.
N3SUPER_LOWER_CENTRAL = [5, 3, 1, 0]


class Mismatch(Exception):
    """A result disagrees with the oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# tower arithmetic: x = a + b i + c sqrt(d) + e i sqrt(d) as a 4-tuple
# ---------------------------------------------------------------------------

def tower(s) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return (Fraction(s.a), Fraction(s.b), Fraction(s.c), Fraction(s.e))


_TERM = re.compile(r"([+-]?\d+(?:/\d+)?)(\*i)?(\*sqrt\d+)?")


def parse_tower(text: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """A scalar as printed in reports ("3/4", "-1/2*i", "1+2*i*sqrt3")."""
    out = [Fraction(0)] * 4
    matched = ""
    for m in _TERM.finditer(text):
        out[(1 if m.group(2) else 0) + (2 if m.group(3) else 0)] += Fraction(m.group(1))
        matched += m.group(0)
    expect(matched == text and text != "", f"unparsable scalar {text!r}")
    return tuple(out)


def t_mul(x, y, d: int):
    a1, b1, c1, e1 = x
    a2, b2, c2, e2 = y
    return (a1 * a2 - b1 * b2 + d * (c1 * c2 - e1 * e2),
            a1 * b2 + b1 * a2 + d * (c1 * e2 + e1 * c2),
            a1 * c2 + c1 * a2 - b1 * e2 - e1 * b2,
            a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2)


def t_add(x, y):
    return tuple(p + q for p, q in zip(x, y))


ZERO = (Fraction(0),) * 4


def t_mat(M):
    return [[tower(s) for s in row] for row in M.rows]


def t_matmul(A, B, d):
    n, m, k = len(A), len(B[0]), len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ZERO
            for t in range(k):
                if A[i][t] != ZERO and B[t][j] != ZERO:
                    acc = t_add(acc, t_mul(A[i][t], B[t][j], d))
            row.append(acc)
        out.append(row)
    return out


def t_scalar_id(n: int, x):
    return [[x if i == j else ZERO for j in range(n)] for i in range(n)]


def t_conj_transpose(A):
    return [[(A[j][i][0], -A[j][i][1], A[j][i][2], -A[j][i][3]) for j in range(len(A))]
            for i in range(len(A[0]))]


def check_clifford_relations(mats, d_field: int, z_value, gram) -> None:
    """rho(Z) = i*z_value*Id, rho(f_a) Hermitian and
    {rho(f_a), rho(f_b)} = z_value * gram[a][b] * Id, all in the tower."""
    T = [t_mat(M) for M in mats]
    n = len(T[0])
    i_z = (Fraction(0), Fraction(z_value), Fraction(0), Fraction(0))
    expect(T[0] == t_scalar_id(n, i_z), "rho(Z) is not i*gamma*Id")
    odd = T[1:]
    for a, A in enumerate(odd):
        expect(A == t_conj_transpose(A), f"rho(f{a}) is not Hermitian")
        for b in range(a, len(odd)):
            B = odd[b]
            AB, BA = t_matmul(A, B, d_field), t_matmul(B, A, d_field)
            anti = [[t_add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(AB, BA)]
            want = (Fraction(z_value) * gram[a][b], Fraction(0), Fraction(0), Fraction(0))
            expect(anti == t_scalar_id(n, want), f"anticommutator ({a},{b}) is wrong")


# ---------------------------------------------------------------------------
# structure constants in Fractions (catalog algebras are over Q)
# ---------------------------------------------------------------------------

def rational(s) -> Fraction:
    a, b, c, e = tower(s)
    expect(b == c == e == 0, f"expected a rational scalar, got {s}")
    return a


def structure(g) -> dict[tuple[int, int], dict[int, Fraction]]:
    return {p: {k: rational(c) for k, c in out.items()} for p, out in g.brackets.items()}


def bracket(C, n: int, u, v) -> list[Fraction]:
    out = [Fraction(0)] * n
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    for k, c in C.get((i, j), {}).items():
                        out[k] += ui * vj * c
    return out


def det(rows: list[list[Fraction]]) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def check_pd_functional(g, lam) -> None:
    """lam([f_a, f_b]) is positive definite (Sylvester, own determinants)."""
    C = structure(g)
    e, n = g.space.even_dim, g.dim
    lam = [Fraction(x) for x in lam]
    expect(len(lam) == e, "functional has the wrong length")
    odd = range(e, n)
    G = [[sum((lam[k] * c for k, c in C.get((a, b), {}).items() if k < e), Fraction(0))
          for b in odd] for a in odd]
    for k in range(1, len(G) + 1):
        expect(det([r[:k] for r in G[:k]]) > 0, "PD certificate fails Sylvester")


def check_isotropic(g, x) -> None:
    x = [Fraction(v) for v in x]
    expect(any(x), "isotropic witness is zero")
    expect(not any(x[:g.space.even_dim]), "isotropic witness is not odd")
    expect(not any(bracket(structure(g), g.dim, x, x)), "witness square is nonzero")


def check_hull(coefficients, vectors=None) -> None:
    c = [Fraction(x) for x in coefficients]
    expect(all(x >= 0 for x in c) and sum(c) == 1, "hull weights are not a convex combination")
    if vectors is not None:
        vs = [[Fraction(x) for x in v] for v in vectors]
        for i in range(len(vs[0])):
            expect(sum(cj * v[i] for cj, v in zip(c, vs)) == 0, "hull combination is nonzero")


def check_star_json(g, key: str, doc: dict) -> None:
    """A star_reduced_report as_json() document: status and every witness."""
    expect(doc["status"] == STAR_STATUS[key], f"{key}: star-reduced {doc['status']}")
    cert = doc.get("certificate") or {}
    if doc["status"] == "CONE_OK":
        check_pd_functional(g, cert["lambda"])
    for r in doc["reasons"]:
        if r["kind"] == "isotropic_odd":
            check_isotropic(g, r["witness"])
        elif r["kind"] == "root_square_hull":
            check_hull(r["coefficients"], r["vectors"])
        elif r["kind"] == "projected_square_hull":
            check_hull(r["coefficients"])


def check_roots(values, dims, total_dim: int) -> None:
    """Root spaces sum to dim g and Delta = -Delta (values as 4-tuples)."""
    expect(sum(dims) == total_dim, "root spaces do not sum to dim g")
    vals = {tuple(v) for v in values}
    for v in vals:
        neg = tuple(tuple(-x for x in t) for t in v)
        expect(neg in vals, "root system is not symmetric")


def shell_expected(alpha, depth: int) -> dict:
    """Weights lambda - m alpha (lambda = 0), m = 0 .. 2 depth, multiplicity 1:
    one odd generator of root alpha (exponent <= 1) and one even of 2 alpha."""
    return {tuple(-m * a for a in alpha): 1 for m in range(2 * depth + 1)}


def schema_errors(schema: dict, doc) -> list[str]:
    """Validate against the subset of JSON Schema that ``--schema`` uses."""
    errs = []
    types = {"object": dict, "string": str}
    if not isinstance(doc, types[schema["type"]]):
        return ["report is not an object"]
    for k in schema.get("required", []):
        if k not in doc:
            errs.append(f"missing {k}")
    props = schema.get("properties", {})
    if schema.get("additionalProperties") is False:
        errs += [f"unexpected {k}" for k in doc if k not in props]
    for k, sub in props.items():
        if k not in doc:
            continue
        v = doc[k]
        if "const" in sub and v != sub["const"]:
            errs.append(f"{k} != {sub['const']!r}")
        if "enum" in sub and v not in sub["enum"]:
            errs.append(f"{k} not in enum")
        if "type" in sub and not isinstance(v, types[sub["type"]]):
            errs.append(f"{k} has the wrong type")
    return errs
