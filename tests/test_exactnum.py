from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecones.exactnum import (
    Field, FieldMismatchError, Poly, QQ, QQ_I,
    parse_scalar, rational_sqrt_decomp, real_root_signs, sqrt_in_field,
    squarefree_decomp,
)

Q2 = Field(False, 2)
QI2 = Field(True, 2)


def test_field_tags_roundtrip():
    for f in (QQ, QQ_I, Q2, QI2, Field(True, 5)):
        assert Field.parse(f.tag) is f
    assert [f.tag for f in (QQ, QQ_I, Q2, QI2)] == ["Q", "Q_i", "Q_sqrt(2)", "Q_i_sqrt(2)"]
    with pytest.raises(AttributeError):
        QQ.tag = "Q_i"
    assert hash(QI2.new(1, 2, 3, 4)) == hash(("Q_i_sqrt(2)",) + tuple(map(Fraction, (1, 2, 3, 4))))


def test_field_rejects_non_squarefree():
    with pytest.raises(Exception):
        Field(False, 12)


def test_squarefree_decomp():
    assert squarefree_decomp(1) == (1, 1)
    assert squarefree_decomp(12) == (2, 3)
    assert squarefree_decomp(8) == (2, 2)
    assert rational_sqrt_decomp(Fraction(1, 2)) == (Fraction(1, 2), 2)
    assert rational_sqrt_decomp(Fraction(9, 4)) == (Fraction(3, 2), 1)


def test_basic_arithmetic_tower():
    i = QI2.i
    s = QI2.sqrt
    x = QI2.rat(Fraction(3, 4)) + QI2.rat(Fraction(1, 2)) * i + s
    assert str(QI2.rat(Fraction(3, 4)) + QI2.rat(Fraction(1, 2)) * i) == "3/4+1/2*i"
    assert i * i == QI2.rat(-1)
    assert s * s == QI2.rat(2)
    assert (i * s) * (i * s) == QI2.rat(-2)
    y = x * x.inverse()
    assert y == QI2.one
    assert (x / x) == QI2.one


def test_hash_keeps_the_four_coordinate_value():
    """Rational scalars hash int zeros for their three zero coordinates; the
    value is that of the four-Fraction tuple, so set and dict order stay."""
    sample = [QQ.zero, QQ.one, QQ.rat(Fraction(-7, 3)), QQ_I.rat(5), QQ_I.new(0, Fraction(1, 2)),
              Q2.new(3, 0, -1), QI2.zero, QI2.new(1, 2, 3, 4), QI2.new(Fraction(-1, 6), 0, 0, 2)]
    for x in sample:
        assert hash(x) == hash((x.field.tag,) + tuple(map(Fraction, (x.a, x.b, x.c, x.e))))
    assert len({x.field for x in sample}) == 4


def test_mismatch_is_error_not_promotion():
    with pytest.raises(FieldMismatchError):
        QQ.one + QQ_I.one
    # explicit promotion is fine
    assert QQ.one.promote(QQ_I) + QQ_I.one == QQ_I.rat(2)


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)
scalars = st.builds(lambda a, b, c, e: QI2.new(a, b, c, e),
                    *(small_fractions for _ in range(4)))


@settings(max_examples=120, deadline=None)
@given(scalars, scalars)
def test_field_axioms_add_sub(a, b):
    assert (a + b) - b == a


@settings(max_examples=120, deadline=None)
@given(scalars)
def test_field_axioms_inverse(a):
    if a:
        assert a * a.inverse() == QI2.one


def test_sign_exact():
    # sign of 3 - 2*sqrt2 (positive: 9 > 8) and 1 - sqrt2 (negative)
    assert Q2.new(3, 0, -2, 0).sign() == 1
    assert Q2.new(1, 0, -1, 0).sign() == -1
    assert Q2.new(-3, 0, 2, 0).sign() == -1
    assert QQ.rat(0).sign() == 0
    with pytest.raises(Exception):
        QQ_I.i.sign()


def test_parse_scalar():
    assert parse_scalar("3/4", QQ) == QQ.rat(Fraction(3, 4))
    assert parse_scalar("3/4+1/2*i", QQ_I) == QQ_I.new(Fraction(3, 4), Fraction(1, 2))
    assert parse_scalar("1/2*sqrt2", Q2) == Q2.new(0, 0, Fraction(1, 2))
    assert parse_scalar("-i", QQ_I) == QQ_I.new(0, -1)
    assert parse_scalar("1-2*i*sqrt2", QI2) == QI2.new(1, 0, 0, -2)
    for s in ("0", "-5", "2/3*i", "1+1*i*sqrt2"):
        assert str(parse_scalar(s, QI2)) == s


def test_conjugations():
    z = QI2.new(1, 2, 3, 4)
    assert z.conjugate_i() == QI2.new(1, -2, 3, -4)
    assert z.conjugate_sqrt() == QI2.new(1, 2, -3, -4)
    assert z.real_part() == QI2.new(1, 0, 3, 0)
    assert z.imag_part() == QI2.new(2, 0, 4, 0)


def P(*coeffs):
    return Poly(QQ, list(coeffs))


def test_poly_divmod_gcd():
    p = P(-1, 0, 1)           # x^2 - 1
    q = P(-1, 1)              # x - 1
    quo, rem = p.divmod(q)
    assert rem.is_zero() and quo == P(1, 1)
    assert p.gcd(q) == q.monic()
    r = P(2, 0, 2)            # 2x^2 + 2
    assert r.squarefree_part() == P(1, 0, 1)


def test_real_root_signs_examples():
    assert real_root_signs(P(0, -4, 0, 1)) == (1, 1, 1)   # x(x^2-4)
    assert real_root_signs(P(0, 4, 0, 1)) == (0, 1, 0)    # x(x^2+4)
    # x^2 - 2: Sturm chain by hand: (x^2-2, 2x, 2) ->
    #   at -inf signs (+,-,+): 2 variations; at 0: (-,0,+): 1; at +inf (+,+,+): 0
    assert real_root_signs(P(-2, 0, 1)) == (1, 0, 1)
    # multiplicities ignored
    assert real_root_signs(P(1, -2, 1)) == (0, 0, 1)      # (x-1)^2
    assert real_root_signs(P(1, 0, 1)) == (0, 0, 0)       # x^2+1


factors = st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=2, max_size=3)
                             .filter(lambda cs: cs[-1] != 0), st.integers(1, 3)),
                   min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(factors, st.integers(0, 2))
def test_real_root_signs_with_repeated_factors_match_sympy(fs, k):
    """Sturm counts of x**k * prod f**m, not squarefree, against sympy's real roots."""
    import sympy
    p = P(*([0] * k + [1]))
    for cs, m in fs:
        for _ in range(m):
            p = p * P(*cs)
    x = sympy.Symbol("x")
    roots = set(sympy.real_roots(sympy.Poly([c.as_fraction() for c in reversed(p.coeffs)], x)))
    expected = (sum(1 for r in roots if r.is_negative), int(0 in roots),
                sum(1 for r in roots if r.is_positive))
    assert real_root_signs(p) == expected


def test_real_root_signs_positive_scaling_invariance():
    p = P(-6, 1, 1)  # (x+3)(x-2)
    for c in (1, 2, Fraction(7, 3)):
        assert real_root_signs(p.scale(QQ.rat(c))) == (1, 0, 1)


def test_real_root_signs_requires_rational():
    p = Poly(QQ_I, [QQ_I.i, QQ_I.one])
    with pytest.raises(Exception):
        real_root_signs(p)


def test_sqrt_in_field():
    assert sqrt_in_field(QQ.rat(Fraction(9, 4))) == QQ.rat(Fraction(3, 2))
    assert sqrt_in_field(QQ.rat(2)) is None
    assert sqrt_in_field(Q2.rat(2)) == Q2.new(0, 0, 1)
    assert sqrt_in_field(QQ_I.rat(-4)) == QQ_I.new(0, 2)
    assert sqrt_in_field(QI2.rat(-2)) == QI2.new(0, 0, 0, 1)
    assert sqrt_in_field(QQ_I.rat(-2)) is None


def test_field_tag_domain_bound():
    """d <= MAX_D keeps the squarefree test to at most 10**6 trial divisions."""
    from liecones.exactnum import MAX_D, InputError
    assert MAX_D == 10 ** 12
    assert Field.parse("Q_i_sqrt(999999999989)").d == 999999999989     # a prime
    for tag in (f"Q_sqrt({MAX_D + 1})", "Q_sqrt(100000000000000000000000000057)"):
        with pytest.raises(InputError, match="tower bound"):
            Field.parse(tag)
