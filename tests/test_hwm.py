from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecones.exactnum import QQ, QQ_I, InputError
from liecones.glinalg import Matrix
from liecones.catalog import build
from liecones.cartan import (Root, cartan_subsuperalgebra, compact_cartan_even,
                             root_decomposition)
from liecones.cliffrep import MatrixRep, clifford_module
from liecones.hwm import (CartanModule, build_truncated,
                          module_from_rep, positive_system, weight_in_cone)
from liecones.lsa import subalgebra_on


@pytest.fixture(scope="module")
def osp_datum():
    g = build("osp(1|2)").algebra
    h0 = compact_cartan_even(g)
    cd = cartan_subsuperalgebra(g, h0)
    return g, root_decomposition(g, cd)


def test_positive_system_osp(osp_datum):
    _, datum = osp_datum
    pos = positive_system(datum, (1,))
    vals = sorted(str(r.values[0]) for r in pos)
    assert vals == ["1", "2"]
    neg = positive_system(datum, (-1,))
    assert sorted(str(r.values[0]) for r in neg) == ["-1", "-2"]
    with pytest.raises(InputError):
        positive_system(datum, (0,))


def test_positive_system_su2(corpus):
    g = corpus["su(2)"].algebra
    cd = cartan_subsuperalgebra(g, compact_cartan_even(g))
    datum = root_decomposition(g, cd)
    pos = positive_system(datum, (1,))
    assert len(pos) == 1 and str(pos[0].values[0]) == "2"


def test_depth_zero_single_weight(osp_datum):
    _, datum = osp_datum
    pos = positive_system(datum, (1,))
    fld = pos[0].values[0].field
    V = CartanModule(3, (fld.rat(5),))
    tm = build_truncated(datum, pos, V, 0)
    assert tm.sorted_table() == [((fld.rat(5),), 3)]


def test_osp_shell_depth2(osp_datum):
    _, datum = osp_datum
    pos = positive_system(datum, (1,))
    fld = pos[0].values[0].field
    lam = fld.rat(10)
    tm = build_truncated(datum, pos, CartanModule(1, (lam,)), 2)
    got = {str(w[0]): m for w, m in tm.weights.items()}
    # monomials f_alpha^eps f_{2alpha}^k with eps <= 1, eps + k <= 2
    assert got == {"10": 1, "9": 1, "8": 1, "7": 1, "6": 1}


def test_osp_shell_depth4_acceptance_pattern(osp_datum):
    _, datum = osp_datum
    pos = positive_system(datum, (1,))
    fld = pos[0].values[0].field
    lam = fld.rat(0)
    tm = build_truncated(datum, pos, CartanModule(1, (lam,)), 4)
    got = {str(w[0]): m for w, m in tm.weights.items()}
    assert got == {str(-m): 1 for m in range(0, 9)}
    for w in tm.weights:
        assert weight_in_cone(tm, w)


def test_monotone_in_depth(osp_datum):
    _, datum = osp_datum
    pos = positive_system(datum, (1,))
    fld = pos[0].values[0].field
    V = CartanModule(2, (fld.rat(4),))
    prev = None
    for depth in range(0, 5):
        tm = build_truncated(datum, pos, V, depth)
        assert tm.multiplicity((fld.rat(4),)) == 2      # lambda stays at dim V
        if prev is not None:
            for w, m in prev.weights.items():
                assert tm.weights.get(w, 0) >= m
        prev = tm


def test_two_even_positive_roots_depth1():
    # abstract datum: Delta+ = {alpha, beta} even, one-step monomials
    f = QQ
    from liecones.glinalg import Subspace, GradedSpace
    amb = GradedSpace(2, 0)
    one_dim = Subspace(f, amb, [(1, 0)])
    empty = Subspace(f, amb, [])

    class Dummy:
        pass

    alpha = Root((f.rat(1), f.rat(0)), one_dim, empty)
    beta = Root((f.rat(0), f.rat(1)), one_dim, empty)
    datum = Dummy()
    cartan = Dummy()
    cartan.h0 = Subspace(f, amb, [(1, 0), (0, 1)])
    datum.cartan = cartan
    datum.roots = [alpha, beta,
                   Root(alpha.negated(), one_dim, empty),
                   Root(beta.negated(), one_dim, empty)]
    lam = (f.rat(3), f.rat(3))
    tm = build_truncated(datum, [alpha, beta], CartanModule(1, lam), 1)
    got = {tuple(str(x) for x in w): m for w, m in tm.weights.items()}
    assert got == {("3", "3"): 1, ("2", "3"): 1, ("3", "2"): 1}


def test_odd_generators_square_free(osp_datum):
    # number of monomials with fixed even part is 2^{#odd generators used}
    _, datum = osp_datum
    pos = positive_system(datum, (1,))
    fld = pos[0].values[0].field
    tm = build_truncated(datum, pos, CartanModule(1, (fld.rat(0),)), 3)
    # depth 3: eps + k <= 3 gives drops eps + 2k in 0..6, multiplicity 1 each
    assert sorted(int(str(w[0])) for w in tm.weights) == list(range(-6, 1))
    assert tm.generator_parities.count(1) == 1


def test_module_from_rep_extracts_weight(osp_datum):
    g, datum = osp_datum
    cd = datum.cartan
    sub = subalgebra_on(g, cd.h)
    # build a 1-dim rep of the (here 1-dimensional, purely even) Cartan:
    # H acts by i * 7
    fld = QQ_I
    mats = tuple(Matrix(fld, [[fld.new(0, 7)]]) for _ in range(sub.algebra.dim))
    rep = MatrixRep(sub.algebra, 1, 0, mats)
    V = module_from_rep(rep, cd.h0.dim)
    assert V.dim == 1 and str(V.weight[0]) == "7"


def test_module_from_rep_rejects_multiweight():
    cl = build("cl(1|1,+)").algebra
    rep = clifford_module(1, [2])
    bad = MatrixRep(rep.algebra, rep.even_dim, rep.odd_dim,
                    (Matrix(QQ_I, [[QQ_I.i, 0], [0, -QQ_I.i]]),) + rep.mats[1:])
    with pytest.raises(InputError, match="V has multiple t0-weights"):
        module_from_rep(bad, 1)


def test_untested_claims_reported(osp_datum):
    _, datum = osp_datum
    pos = positive_system(datum, (1,))
    fld = pos[0].values[0].field
    tm = build_truncated(datum, pos, CartanModule(1, (fld.rat(1),)), 1)
    doc = tm.as_json()
    assert "untested_claims" in doc and len(doc["untested_claims"]) == 2


def test_cartan_module_rejects_nonpositive_dim():
    for dim in (0, -3):
        with pytest.raises(InputError):
            CartanModule(dim, (QQ.zero,))


def test_cartan_module_rejects_a_non_real_weight():
    """A weight coordinate with an imaginary part is refused, whether given
    directly or read off a Cartan operator that is not i times a real scalar."""
    for lam in ((QQ_I.i,), (QQ_I.one, QQ_I.new(1, 1))):
        with pytest.raises(InputError, match="is not real"):
            CartanModule(1, lam)
    assert CartanModule(1, (QQ_I.new(3, 0),)).weight == (QQ_I.rat(3),)
    cl = build("cl(1|1,+)").algebra
    rep = MatrixRep(cl, 1, 0, (Matrix(QQ_I, [[QQ_I.new(2, 1)]]), Matrix.zero(QQ_I, 1, 1)))
    with pytest.raises(InputError, match="is not real"):
        module_from_rep(rep, 1)


def enumerated_in_cone(tm, weight) -> bool:
    """weight_in_cone with every root's coefficient enumerated, the last one too."""
    target = tuple(lw - w for lw, w in zip(tm.module.weight, weight))
    alphas = []
    for r in tm.positives:
        if all(r.values != a for a in alphas):
            alphas.append(r.values)

    def rec(rem, idx, budget):
        if all(not x for x in rem):
            return True
        if idx == len(alphas) or budget == 0:
            return False
        for m in range(budget + 1):
            if m:
                rem = tuple(x - a for x, a in zip(rem, alphas[idx]))
            if rec(rem, idx + 1, budget - m):
                return True
        return False

    return rec(target, 0, tm.depth)


# weight = lambda - q * u for the unit root u of osp(1|2): q above lambda,
# non-integer, inside the shell, or past its depth
OFFSETS = st.sampled_from([Fraction(q) for q in range(-2, 11)]
                          + [Fraction(1, 2), Fraction(3, 2), Fraction(7, 2), Fraction(-1, 3)])


@settings(max_examples=40, deadline=None)
@given(lam=st.integers(min_value=-3, max_value=6), depth=st.integers(min_value=0, max_value=4),
       x0=st.sampled_from((1, -1)), reverse=st.booleans(), q=OFFSETS)
@example(lam=0, depth=2, x0=1, reverse=False, q=Fraction(1, 2))
@example(lam=0, depth=2, x0=1, reverse=True, q=Fraction(1, 2))
@example(lam=1, depth=2, x0=1, reverse=False, q=Fraction(6))
@example(lam=1, depth=2, x0=-1, reverse=True, q=Fraction(6))
@example(lam=2, depth=3, x0=1, reverse=False, q=Fraction(-1))
def test_weight_in_cone_matches_enumeration(osp_datum, lam, depth, x0, reverse, q):
    _, datum = osp_datum
    pos = positive_system(datum, (x0,))
    pos = pos[::-1] if reverse else pos
    fld = pos[0].values[0].field
    tm = build_truncated(datum, pos, CartanModule(1, (fld.rat(lam),)), depth)
    weight = (fld.rat(lam) - fld.rat(q * x0),)
    # the cone of alpha, 2 alpha with at most depth roots: integer q in 0..2 depth
    inside = q.denominator == 1 and 0 <= q <= 2 * depth
    assert weight_in_cone(tm, weight) == enumerated_in_cone(tm, weight) == inside
    assert inside == (weight in tm.weights)
