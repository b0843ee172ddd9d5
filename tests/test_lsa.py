import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecones.exactnum import QQ, InputError
from liecones.glinalg import GradedSpace, Matrix, vec_add, vec_scale, vec_sub
from liecones.lsa import (
    LieSuperalgebra, bracket_form, center, centroid,
    check_axioms, derivations, differential_constants, grassmann_extend,
    is_ideal, is_nilpotent, is_solvable, is_subalgebra, nilpotency_class, quotient,
    series, subalgebra_on, supercommutant, transporter,
)
from liecones import catalog


def test_check_axioms_heisenberg(algebra):
    rep = check_axioms(algebra("h(1)"))
    assert rep.all_ok and not rep.violations


def test_check_axioms_flags_bad_antisymmetry():
    # [X,Y] = Z and [Y,X] = Z with even parities violates antisymmetry
    g = LieSuperalgebra.from_table(
        "bad", QQ, ["X", "Y", "Z"], [],
        {("X", "Y"): {"Z": 1}, ("Y", "X"): {"Z": 1}})
    rep = check_axioms(g)
    assert not rep.antisymmetry_ok
    assert any(v[0] == "antisymmetry" and set(v[1:]) == {0, 1} for v in rep.violations)


def test_check_axioms_catalog_su(corpus):
    rep = check_axioms(corpus["su(1,1|1,1)"].algebra)
    assert rep.all_ok


def test_mirror_fill_from_json(algebra):
    h1 = algebra("h(1)")
    doc = h1.to_json()
    # keep only the (X, Y) bracket; mirror must be inferred on load
    doc["brackets"] = [e for e in doc["brackets"] if e["left"] < e["right"]]
    g = LieSuperalgebra.from_json(doc)
    assert check_axioms(g).all_ok
    assert g.brackets[(1, 0)] == {2: -QQ.one}


def test_json_roundtrip(corpus):
    for key in ("h(1)", "gl(1|1)", "cl(1|2,+-)"):
        g = corpus[key].algebra
        g2 = LieSuperalgebra.from_json(json.loads(json.dumps(g.to_json())))
        assert g2.brackets == g.brackets
        assert g2.space == g.space


def test_center_examples(algebra):
    h1 = algebra("h(1)")
    Z = center(h1)
    assert Z.dim == 1 and Z.contains(h1.basis_vector(2))
    ab = algebra("abelian(2|1)")
    assert center(ab).dim == 3
    hc = algebra("hc(2|2,++)")
    assert center(hc).dim == 1


def test_supercommutant_full_is_center(algebra):
    g = algebra("gl(1|1)")
    assert supercommutant(g, g.full_space) == center(g)
    # supercommutant of the center is everything
    assert supercommutant(g, center(g)) == g.full_space


def test_transporter_sl2_by_hand(algebra):
    """{X in source : [a, X] in target for every a of acting} on sl(2,R),
    where [H, E] = 2E, [H, F] = -2F and [E, F] = H."""
    g = algebra("sl(2,R)")
    H, E, F = (g.basis_vector(i) for i in range(3))
    full, zero, span = g.full_space, g.subspace([]), g.subspace
    assert transporter(g, full.rows, full, zero) == zero                  # the centre
    assert transporter(g, [H], full, zero) == span([H])                   # centralizer of H
    assert transporter(g, [E], full, span([E])) == span([H, E])           # normalizer of E
    # [H, aH + bE + cF] = 2bE - 2cF lies on E + F exactly when b = -c
    assert transporter(g, [H], full, span([vec_add(E, F)])) == span([H, vec_sub(E, F)])
    # [E, aH + cF] = -2aE + cH lies in span{H} exactly when a = 0
    assert transporter(g, [E], span([H, F]), span([H])) == span([F])
    assert transporter(g, [], span([E]), zero) == span([E])


def test_bracket_form_hc22_by_hand(algebra):
    """lam = Z* on hc(2|2,++), where [X1, Y1] = Z and [f_a, f_a] = Z: Omega on
    span{X1, Y1} is the standard symplectic form, the odd Gram matrix is I,
    and lam([X1 + Y1, X1 - Y1]) = -lam([X1, Y1]) + lam([Y1, X1]) = -2."""
    g = algebra("hc(2|2,++)")
    X1, Y1, Z = (g.basis_vector(i) for i in range(3))
    lam = (QQ.zero, QQ.zero, QQ.one)
    assert bracket_form(g, lam, [X1, Y1], [X1, Y1]) == Matrix(QQ, [[0, 1], [-1, 0]])
    assert bracket_form(g, lam, g.odd_subspace.rows, g.odd_subspace.rows) == \
        Matrix.identity(QQ, 2)
    assert bracket_form(g, lam, [vec_add(X1, Y1)], [vec_sub(X1, Y1)]) == Matrix(QQ, [[-2]])
    # lam([2 X1, -3 Y1]) = -6 lam(Z)
    two_x, minus_three_y = vec_scale(QQ.rat(2), X1), vec_scale(QQ.rat(-3), Y1)
    assert bracket_form(g, lam, [two_x], [minus_three_y]) == Matrix(QQ, [[-6]])
    assert bracket_form(g, lam, [Z], [X1, Y1, Z]) == Matrix(QQ, [[0, 0, 0]])
    assert bracket_form(g, (QQ.one, QQ.one), [X1, Y1], [X1, Y1]).is_zero()   # Z unread
    assert bracket_form(g, lam, [], [X1]) == Matrix(QQ, [])


def test_series_examples(algebra):
    h1 = algebra("h(1)")
    lc = series(h1, "lower_central")
    assert [s.dim for s in lc] == [3, 1, 0]
    assert is_nilpotent(h1) and nilpotency_class(h1) == 2
    sl2 = algebra("sl(2,R)")
    assert not is_nilpotent(sl2) and not is_solvable(sl2)
    assert series(sl2, "derived")[-1].dim == 3
    for key in ("hc(2|2,++)", "hc(2|2,+-)", "cl(1|3,++-)"):
        assert nilpotency_class(catalog.build(key).algebra) <= 2


def test_n3super_is_three_step(algebra):
    g = algebra("n3super")
    assert nilpotency_class(g) == 3


def test_derivations_abelian_full_gl():
    g = catalog.build_abelian(3, 0).algebra
    assert derivations(g).dim == 9


def test_derivations_gl11_graded(algebra):
    g = algebra("gl(1|1)")
    der = derivations(g)
    # every derivation satisfies the graded Leibniz rule by construction;
    # spot-check one even basis element
    for s, mats in ((0, der.even), (1, der.odd)):
        for D in mats:
            for i in range(g.dim):
                for j in range(g.dim):
                    lhs = D.apply(g.bracket_basis(i, j))
                    sgn = g.field.rat((-1) ** (s * g.parity(i)))
                    rhs_v = g.bracket(D.col(i), g.basis_vector(j))
                    rhs_w = g.bracket(g.basis_vector(i), D.col(j))
                    rhs = tuple(a + sgn * b for a, b in zip(rhs_v, rhs_w))
                    assert lhs == rhs


def test_centroid_dims_paper_values():
    assert centroid(catalog.build("sl(2,C)_R").algebra).dim == 2
    assert centroid(catalog.build("sl(2,R)").algebra).dim == 1


def test_centroid_odd_part_trivial_simple(corpus):
    # simple with nontrivial odd part: odd centroid must vanish
    for key in ("su(1,1|1,1)", "osp(1|2)"):
        cen = centroid(corpus[key].algebra)
        assert not cen.odd


def test_differential_constants(algebra):
    assert differential_constants(algebra("sl(2,R)")).dim == 1
    assert differential_constants(catalog.build("sl(2,C)_R").algebra).dim == 2


def test_grassmann_extension_dims(algebra):
    sl2 = algebra("sl(2,R)")
    g0 = grassmann_extend(sl2, 0)
    assert (g0.space.even_dim, g0.space.odd_dim) == (3, 0)
    assert g0.brackets == {tuple(k): v for k, v in sl2.brackets.items()}
    g1 = grassmann_extend(sl2, 1)
    assert (g1.space.even_dim, g1.space.odd_dim) == (3, 3)
    assert check_axioms(g1).all_ok


def test_grassmann_derivation_formula():
    # dim Der(s x Lambda(n)) = 2^n dim Der(s) + n 2^n dim C(s), by direct solve
    sl2 = catalog.build("sl(2,R)").algebra
    dd, dc = derivations(sl2).dim, centroid(sl2).dim
    for n in (1, 2):
        ext = grassmann_extend(sl2, n)
        assert derivations(ext).dim == 2 ** n * dd + n * 2 ** n * dc


def test_grassmann_odd_tensor_selfbracket(algebra):
    # [X (x) xi1, X (x) xi1] = 0 for even X
    sl2 = algebra("sl(2,R)")
    ext = grassmann_extend(sl2, 1)
    for i in range(3):
        name = sl2.space.basis_names[i]
        idx = ext.space.basis_names.index(name + "*x1")
        v = ext.basis_vector(idx)
        assert ext.space.parity(idx) == 1
        assert all(not x for x in ext.bracket(v, v))


def test_quotient_examples(algebra):
    h1 = algebra("h(1)")
    q = quotient(h1, center(h1))
    assert q.algebra.dim == 2 and not q.algebra.brackets
    qq = quotient(h1, h1.full_space)
    assert qq.algebra.dim == 0
    # span{X} misses [h1, h1] = span{Z}, so the pairwise scan runs, and it is
    # not an ideal: [Y, X] = -Z is the witness
    x = h1.basis_vector(0)
    assert is_ideal(h1, h1.subspace([x])) == (False, (1, x))
    with pytest.raises(InputError, match=r"witness pair \(1, \(Scalar\[Q\]\(1\), "):
        quotient(h1, h1.subspace([x]))


def test_subalgebra_extraction(algebra):
    hc = algebra("hc(2|2,++)")
    # span{Y, Z} + odd part is a subsuperalgebra
    s = hc.subspace([hc.basis_vector(1), hc.basis_vector(2),
                     hc.basis_vector(3), hc.basis_vector(4)])
    assert is_subalgebra(hc, s)
    sub = subalgebra_on(hc, s)
    assert (sub.algebra.space.even_dim, sub.algebra.space.odd_dim) == (2, 2)
    assert check_axioms(sub.algebra).all_ok


def test_all_catalog_pass_axioms(corpus):
    for key, entry in corpus.items():
        assert check_axioms(entry.algebra).all_ok, key


def test_algebra_is_immutable(algebra):
    g = algebra("h(1)")
    pair = next(iter(g.brackets))
    with pytest.raises(TypeError):
        g.brackets[pair] = {}
    with pytest.raises(TypeError):
        g.brackets[pair][0] = QQ.one
    for attr in ("name", "space", "field", "brackets"):
        with pytest.raises(AttributeError):
            setattr(g, attr, getattr(g, attr))


def test_derived_structure_computed_once(algebra):
    g = algebra("hc(2|2,++)")
    for kind in ("lower_central", "derived"):
        assert series(g, kind) is series(g, kind)
    assert center(g) is center(g)
    assert g.even_part is g.even_part and g.full_space is g.full_space


def test_even_part_ad_is_even_block_of_ad(corpus):
    for key, entry in corpus.items():
        g = entry.algebra
        e = g.space.even_dim
        w = tuple(g.field.rat(t + 1) for t in range(e)) + (g.field.zero,) * g.space.odd_dim
        for v in [g.basis_vector(i) for i in range(e)] + [w]:
            block = Matrix(g.field, [r[:e] for r in g.ad(v).rows[:e]])
            assert g.even_part.algebra.ad(v[:e]) == block, key


def brute_force_jacobi(g):
    """Every (i, j, k) whose graded Jacobi sum is nonzero, by dense triples."""
    f, e, p = g.field, [g.basis_vector(i) for i in range(g.dim)], g.parity
    bad = []
    for i, j, k in itertools.product(range(g.dim), repeat=3):
        total = [f.zero] * g.dim
        for s, a, b, c in ((p(i) * p(k), i, j, k), (p(j) * p(i), j, k, i),
                           (p(k) * p(j), k, i, j)):
            t = g.bracket(e[a], g.bracket(e[b], e[c]))
            total = [x + f.rat((-1) ** s) * y for x, y in zip(total, t)]
        if any(total):
            bad.append(("jacobi", i, j, k))
    return bad


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["h(1)", "gl(1|1)", "osp(1|2)", "cl(1|2,+-)", "n3super",
                        "hc(2|2,++)", "sl(2,R)"]),
       st.data(), st.sampled_from([1, -1, 2, Fraction(1, 2)]), st.booleans())
def test_sparse_jacobi_matches_brute_force(key, data, delta, mirror):
    """One structure constant c(i, j)[k] moved by delta; with mirror, c(j, i)[k]
    moves too, so that graded antisymmetry still holds (unless i = j is even)
    and check_axioms takes its once-per-unordered-triple route."""
    g = catalog.build(key).algebra
    i, j, k = (data.draw(st.integers(0, g.dim - 1)) for _ in range(3))
    br = {pair: dict(out) for pair, out in g.brackets.items()}
    sign = 1 if g.parity(i) * g.parity(j) else -1
    for a, b, d in ((i, j, delta), (j, i, sign * delta)) if mirror and i != j else ((i, j, delta),):
        out = br.setdefault((a, b), {})
        out[k] = out.get(k, g.field.zero) + g.field.coerce(d)
    h = LieSuperalgebra(g.name, g.space, g.field, br)
    full = check_axioms(h, max_violations=10 ** 6)
    want = brute_force_jacobi(h)
    assert [v for v in full.violations if v[0] == "jacobi"] == want
    assert full.jacobi_ok == (not want)
    assert check_axioms(h).violations == full.violations[:25]


# Integers stay small: a huge declared dimension is a well-formed document
# whose cost is the size of the algebra, not a shape error.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
ALGEBRA_KEYS = ("name", "field", "even", "odd", "basis", "brackets", "left", "right",
                "out", "k", "c")


def json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield from json_paths(val, prefix + (key,))


def from_json_or_input_error(doc):
    try:
        LieSuperalgebra.from_json(doc)
    except InputError:
        pass


@settings(max_examples=150, deadline=None)
@given(json_values | st.dictionaries(st.sampled_from(ALGEBRA_KEYS), json_values, max_size=6))
def test_from_json_arbitrary_values_raise_only_input_error(doc):
    from_json_or_input_error(doc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(catalog.list_keys()), st.data())
def test_from_json_mutated_documents_raise_only_input_error(key, data):
    doc = catalog.build(key).algebra.to_json()
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        if not path:
            doc = data.draw(json_values)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(json_values | st.sampled_from(
                ["Q", "Q_i", "Q_sqrt(2)", "Q_sqrt(" + "9" * 5000 + ")", "1/0", "1/2*i",
                 "-3*sqrt2", "9" * 5000]))
    from_json_or_input_error(doc)


@pytest.mark.parametrize("key", [None, "su(1,1|1,1)"])
def test_check_axioms_cost_follows_the_brackets(key):
    """Counted, not timed: at most two lookups per bracket pair plus one per
    basis vector, so 3,000 bracket-free dimensions cost no pair scan."""
    if key is None:
        g = LieSuperalgebra("z", GradedSpace(3000, 0), QQ, {})
    else:
        src = catalog.build(key).algebra
        g = LieSuperalgebra(src.name, src.space, src.field, src.brackets)
    calls = []
    lookup = g.c
    object.__setattr__(g, "c", lambda i, j: calls.append((i, j)) or lookup(i, j))
    assert check_axioms(g).all_ok
    pairs = {(min(p), max(p)) for p in g.brackets}
    assert len(calls) <= 2 * len(pairs) + g.dim
