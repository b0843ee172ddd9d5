"""Exact scalar tower over the rationals and univariate polynomial utilities.

Scalars live in Q, Q(i), Q(sqrt d) or Q(i, sqrt d) for a single squarefree
d > 1, with coordinates over the basis {1, i, sqrt d, i*sqrt d}.  All
arithmetic is exact; mixing two different towers raises FieldMismatchError
rather than promoting silently.  Over Q the three other coordinates are zero,
so arithmetic, equality, hashing and zero tests read the first coordinate
alone and the inverse is 1/a; each tower keeps one shared zero and one.

The package's three error classes live here, and every module raises one of
them (or a subclass): InputError when the arguments are outside a function's
domain, Undetermined when a bounded search or splitting step cannot decide,
and InvariantViolation when a re-check of data the library computed itself
fails.  The command line maps them to exit codes 1, 0 with UNDETERMINED, and 2.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence


class InputError(ValueError):
    """The arguments are outside the function's domain."""


class Undetermined(Exception):
    """A bounded search or splitting step cannot decide."""


class InvariantViolation(RuntimeError):
    """A re-check of data the library computed itself failed."""


class FieldMismatchError(InputError):
    """Raised when two scalars from different towers meet in one operation."""


def check_tower(x: "Scalar", y: "Scalar") -> None:
    """FieldMismatchError unless x and y lie in one tower."""
    if x.field is not y.field:
        raise FieldMismatchError(f"mixed scalar towers {x.field.tag} and {y.field.tag}")


def squarefree_decomp(n: int) -> tuple[int, int]:
    """Write n > 0 as r**2 * s with s squarefree; returns (r, s)."""
    if n <= 0:
        raise InputError("squarefree_decomp needs a positive integer")
    r, s, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        r *= p ** (e // 2)
        if e % 2:
            s *= p
        p += 1 if p == 2 else 2
    return r, s * n


def rational_sqrt_decomp(q: Fraction) -> tuple[Fraction, int]:
    """Write q > 0 as (r**2) * s with s a squarefree integer: sqrt(q) = r*sqrt(s)."""
    q = Fraction(q)
    if q <= 0:
        raise InputError("rational_sqrt_decomp needs a positive rational")
    # q = a/b = (a*b)/b^2
    r1, s = squarefree_decomp(q.numerator * q.denominator)
    return Fraction(r1, q.denominator), s


_FIELD_RE = re.compile(r"^Q(_i)?(_sqrt\((\d+)\))?$")


MAX_D = 10 ** 12      # squarefreeness by trial division: at most 10**6 steps


class Field:
    """One of the towers Q, Q_i, Q_sqrt(d), Q_i_sqrt(d); d squarefree,
    1 < d <= MAX_D."""

    _cache: dict[tuple[bool, int | None], "Field"] = {}

    def __new__(cls, has_i: bool = False, d: int | None = None):
        if d is not None:
            if d <= 1:
                raise InputError("d must be a squarefree integer > 1")
            if d > MAX_D:
                raise InputError(f"d = {d} is above the tower bound {MAX_D}")
            _, s = squarefree_decomp(d)
            if s != d:
                raise InputError(f"d = {d} is not squarefree")
        key = (bool(has_i), d)
        inst = cls._cache.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.has_i = bool(has_i)
            inst.d = d
            inst._tag = "Q" + ("_i" if has_i else "") + ("" if d is None else f"_sqrt({d})")
            inst._rational = not has_i and d is None
            # basis (1, i, sqrt d, i sqrt d), bit 0 = i, bit 1 = sqrt d: e_j * e_k
            # = sign * factor * e_(j ^ k) with i^2 = -1 and sqrt(d)^2 = d (0 in
            # a tower without sqrt d, whose coordinates 2 and 3 are always zero)
            inst._products = tuple(tuple(((-1) ** (j & k & 1) * ((d or 0) if j & k & 2 else 1),
                                          j ^ k) for k in range(4)) for j in range(4))
            inst.zero, inst.one = _rat(inst, _F0), _rat(inst, _F1)   # shared, never mutated
            cls._cache[key] = inst
        return inst

    @property
    def tag(self) -> str:
        return self._tag

    @staticmethod
    def parse(tag: str) -> "Field":
        m = _FIELD_RE.match(tag.strip()) if isinstance(tag, str) else None
        if not m:
            raise InputError(f"unknown field tag {tag!r}")
        try:
            d = int(m.group(3)) if m.group(3) else None
        except ValueError as exc:     # more digits than int() converts
            raise InputError(f"bad field tag: {exc}") from exc
        return Field(m.group(1) is not None, d)

    def extends(self, other: "Field") -> bool:
        """True when every element of `other` embeds into this tower."""
        if other.has_i and not self.has_i:
            return False
        return other.d is None or other.d == self.d

    def complexified(self) -> "Field":
        return Field(True, self.d)

    # scalar constructors -------------------------------------------------
    def new(self, a=0, b=0, c=0, e=0) -> "Scalar":
        return Scalar(self, Fraction(a), Fraction(b), Fraction(c), Fraction(e))

    def rat(self, a) -> "Scalar":
        return _rat(self, Fraction(a))

    @property
    def i(self) -> "Scalar":
        if not self.has_i:
            raise InputError(f"{self.tag} has no imaginary unit")
        return Scalar(self, _F0, _F1, _F0, _F0)

    @property
    def sqrt(self) -> "Scalar":
        if self.d is None:
            raise InputError(f"{self.tag} has no adjoined square root")
        return Scalar(self, _F0, _F0, _F1, _F0)

    def coerce(self, x) -> "Scalar":
        if isinstance(x, Scalar):
            if x.field is not self:
                if self.extends(x.field):
                    return x.promote(self)
                raise FieldMismatchError(f"cannot coerce {x.field.tag} into {self.tag}")
            return x
        if isinstance(x, (int, Fraction)):
            return self.rat(x)
        if isinstance(x, str):
            return parse_scalar(x, self)
        raise InputError(f"cannot coerce {x!r} into {self.tag}")

    def __repr__(self):
        return f"Field({self.tag})"


_F0 = Fraction(0)
_F1 = Fraction(1)


class Scalar:
    """Element a + b*i + c*sqrt(d) + e*i*sqrt(d) of a fixed tower."""

    __slots__ = ("field", "a", "b", "c", "e")

    def __init__(self, field: Field, a: Fraction, b: Fraction, c: Fraction, e: Fraction):
        self.field = field
        self.a = a
        self.b = b
        self.c = c
        self.e = e
        if field.d is None and (c or e):
            raise InputError(f"{field.tag} has no sqrt component")
        if not field.has_i and (b or e):
            raise InputError(f"{field.tag} has no imaginary component")

    # basic protocol -------------------------------------------------------
    _check = check_tower

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field is other.field and self.a == other.a and (
            self.field._rational or (self.b == other.b and self.c == other.c and self.e == other.e))

    def __hash__(self):
        if self.field._rational:    # hash(Fraction(0)) == hash(0): the value is unchanged
            return hash((self.field._tag, self.a, 0, 0, 0))
        return hash((self.field._tag, self.a, self.b, self.c, self.e))

    def __bool__(self):
        if self.field._rational:
            return bool(self.a)
        return bool(self.a or self.b or self.c or self.e)

    def __add__(self, other):
        self._check(other)
        if self.field._rational:
            return _rat(self.field, self.a + other.a)
        return Scalar(self.field, self.a + other.a, self.b + other.b,
                      self.c + other.c, self.e + other.e)

    def __sub__(self, other):
        self._check(other)
        if self.field._rational:
            return _rat(self.field, self.a - other.a)
        return Scalar(self.field, self.a - other.a, self.b - other.b,
                      self.c - other.c, self.e - other.e)

    def __neg__(self):
        if self.field._rational:
            return _rat(self.field, -self.a)
        return Scalar(self.field, -self.a, -self.b, -self.c, -self.e)

    def __mul__(self, other):
        self._check(other)
        if self.field._rational:
            return _rat(self.field, self.a * other.a)
        a1, b1, c1, e1 = self.a, self.b, self.c, self.e
        a2, b2, c2, e2 = other.a, other.b, other.c, other.e
        if not (b1 or c1 or e1 or b2 or c2 or e2):
            return _rat(self.field, a1 * a2)
        # one integer product per nonzero coordinate pair, summed per target
        # coordinate as numerator/denominator and reduced once at the end
        acc: list[tuple[int, int] | None] = [None] * 4
        ys = [(k, y.numerator, y.denominator) for k, y in enumerate((a2, b2, c2, e2)) if y]
        for row, x in zip(self.field._products, (a1, b1, c1, e1)):
            if x:
                xn, xd = x.numerator, x.denominator
                for k, yn, yd in ys:
                    f, t = row[k]
                    n, m = f * xn * yn, xd * yd
                    q = acc[t]
                    acc[t] = (n, m) if q is None else (q[0] * m + n * q[1], q[1] * m)
        return Scalar(self.field, *(_F0 if q is None else Fraction(*q) for q in acc))

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("scalar division by zero")
        if self.field._rational:
            return _rat(self.field, 1 / self.a)
        z1 = self.conjugate_i()
        z2 = self.conjugate_sqrt()
        z3 = z1.conjugate_sqrt()
        num = z1 * z2 * z3
        norm = self * num
        if norm.b or norm.c or norm.e:
            raise InvariantViolation("norm computation failed")  # pragma: no cover
        n = norm.a
        return Scalar(self.field, num.a / n, num.b / n, num.c / n, num.e / n)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    # structure ------------------------------------------------------------
    def conjugate_i(self) -> "Scalar":
        """i -> -i (complex conjugation of the tower)."""
        return Scalar(self.field, self.a, -self.b, self.c, -self.e)

    def conjugate_sqrt(self) -> "Scalar":
        """sqrt(d) -> -sqrt(d)."""
        return Scalar(self.field, self.a, self.b, -self.c, -self.e)

    def real_part(self) -> "Scalar":
        return Scalar(self.field, self.a, _F0, self.c, _F0)

    def imag_part(self) -> "Scalar":
        """Coefficient of i, as an element of the same tower."""
        return Scalar(self.field, self.b, _F0, self.e, _F0)

    def is_real(self) -> bool:
        return not (self.b or self.e)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.e)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise InputError(f"{self} is not rational")
        return self.a

    def sign(self) -> int:
        """Sign of a real scalar a + c*sqrt(d); exact."""
        if not self.is_real():
            raise InputError(f"sign of non-real scalar {self}")
        a, c = self.a, self.c
        if not c:
            return (a > 0) - (a < 0)
        if not a:
            return (c > 0) - (c < 0)
        # compare a against -c*sqrt(d): same signs decide outright
        if a > 0 and c > 0:
            return 1
        if a < 0 and c < 0:
            return -1
        lhs, rhs = a * a, c * c * self.field.d
        if lhs == rhs:  # impossible for d squarefree > 1 unless a = c = 0
            return 0  # pragma: no cover
        return (1 if a > 0 else -1) if lhs > rhs else (1 if c > 0 else -1)

    def promote(self, field: Field) -> "Scalar":
        if not field.extends(self.field):
            raise FieldMismatchError(f"{field.tag} does not extend {self.field.tag}")
        return Scalar(field, self.a, self.b, self.c, self.e)

    def demote(self, field: Field) -> "Scalar":
        """Reinterpret in a subfield; error when components stick out."""
        s = Scalar(field, self.a, _F0, _F0, _F0)
        if self.b or self.e:
            if not field.has_i:
                raise InputError(f"{self} has imaginary parts")
            s = Scalar(field, s.a, self.b, _F0, self.e if field.d else _F0)
        if self.c or self.e:
            if field.d is None:
                raise InputError(f"{self} has sqrt parts")
            s = Scalar(field, s.a, s.b, self.c, self.e)
        return s

    # formatting -----------------------------------------------------------
    def __str__(self):
        terms = []
        d = self.field.d

        def frac(f: Fraction) -> str:
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

        if self.a:
            terms.append(frac(self.a))
        if self.b:
            terms.append(f"{frac(self.b)}*i")
        if self.c:
            terms.append(f"{frac(self.c)}*sqrt{d}")
        if self.e:
            terms.append(f"{frac(self.e)}*i*sqrt{d}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += ("+" + t) if not t.startswith("-") else t
        return out

    def __repr__(self):
        return f"Scalar[{self.field.tag}]({self})"


def _rat(field: Field, a: Fraction) -> Scalar:
    """The rational scalar a of field; its zero coordinates need no check."""
    s = object.__new__(Scalar)
    s.field, s.a, s.b, s.c, s.e = field, a, _F0, _F0, _F0
    return s


QQ = Field()
QQ_I = Field(True)


_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?\d+(?:/\d+)?)"
    r"(?:\*(?P<i>i))?"
    r"(?:\*?(?P<sq>sqrt(?P<d>\d+)))?$"
)


def parse_scalar(text: str, field: Field) -> Scalar:
    """Parse the documented grammar: e.g. "3/4", "-1/2*i", "3+1/2*i*sqrt2"."""
    s = text.replace(" ", "")
    if not s:
        raise InputError("empty scalar literal")
    # split into signed terms at top level
    parts: list[str] = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "*/+-":
            parts.append(cur)
            cur = ch
        else:
            cur += ch
    parts.append(cur)
    total = field.zero
    for p in parts:
        if p in ("i", "+i", "-i"):
            p = p.replace("i", "1*i")
        if p.startswith(("sqrt", "+sqrt", "-sqrt")):
            p = p.replace("sqrt", "1*sqrt", 1)
        if p.startswith(("i*", "+i*", "-i*")):
            p = p.replace("i*", "1*i*", 1)
        m = _TERM_RE.match(p)
        if not m:
            raise InputError(f"bad scalar term {p!r} in {text!r}")
        try:    # a zero denominator, or more digits than int() converts
            coef = Fraction(m.group("coef"))
            d = None if m.group("d") is None else int(m.group("d"))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad scalar term {p!r} in {text!r}: {exc}") from exc
        has_i = m.group("i") is not None
        if d is not None:
            if field.d != d:
                raise InputError(f"sqrt{d} not available in {field.tag}")
            term = field.new(0, 0, 0, coef) if has_i else field.new(0, 0, coef, 0)
        else:
            term = field.new(0, coef, 0, 0) if has_i else field.rat(coef)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial with coefficients in one tower, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[Scalar | int | Fraction | str]):
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        if self.is_zero():
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.tag, self.coeffs))

    def __call__(self, x: Scalar) -> Scalar:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                if cj:
                    out[i + j] = out[i + j] + ci * cj
        return Poly(self.field, out)

    def scale(self, s: Scalar) -> "Poly":
        return Poly(self.field, [c * s for c in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def derivative(self) -> "Poly":
        f = self.field
        return Poly(f, [f.rat(k) * c for k, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(f, []), self
        quo = [f.zero] * (dq + 1)
        inv_lead = other.leading().inverse()
        for k in range(dq, -1, -1):
            if len(rem) < len(other.coeffs) + k:
                continue
            coef = rem[len(other.coeffs) - 1 + k] * inv_lead
            quo[k] = coef
            if coef:
                for j, oc in enumerate(other.coeffs):
                    rem[j + k] = rem[j + k] - coef * oc
            rem.pop()
        return Poly(f, quo), Poly(f, rem)

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def squarefree_part(self) -> "Poly":
        if self.degree <= 0:
            return self.monic()
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self.monic()
        return self.divmod(g)[0].monic()

    def shift_out_root_zero(self) -> tuple["Poly", int]:
        """Factor x**k out; returns (p / x**k, k)."""
        k = 0
        cs = list(self.coeffs)
        while cs and not cs[0]:
            cs.pop(0)
            k += 1
        return Poly(self.field, cs), k

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(f"({c})")
            elif k == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{k}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Sturm sequences over Q
# ---------------------------------------------------------------------------

def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(Poly(p.field, [-c for c in rem.coeffs]))
    return [q for q in chain if not q.is_zero()]


def _variations(signs: Iterable[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(seq, seq[1:]) if x * y < 0)


def real_root_signs(p: Poly) -> tuple[int, int, int]:
    """Exact (negative, zero, positive) counts of distinct real roots of p.

    Requires rational coefficients (field tag Q); multiplicities are ignored.
    p need not be squarefree: with x**k shifted out, q(0) != 0, and the Sturm
    chain of q ends at gcd(q, q'), which vanishes at none of the sample points.
    """
    if p.is_zero():
        raise InputError("real_root_signs of the zero polynomial")
    for c in p.coeffs:
        if not c.is_rational():
            raise InputError("real_root_signs needs rational coefficients")
    q, k = p.shift_out_root_zero()
    count_zero = 1 if k > 0 else 0
    if q.degree <= 0:
        return (0, count_zero, 0)
    chain = _sturm_chain(q)
    zero = p.field.zero
    sign_at_zero = [g(zero).sign() for g in chain]
    sign_neg_inf = [g.leading().sign() * (-1) ** g.degree for g in chain]
    sign_pos_inf = [g.leading().sign() for g in chain]
    v_neg, v_0, v_pos = (_variations(s) for s in (sign_neg_inf, sign_at_zero, sign_pos_inf))
    return (v_neg - v_0, count_zero, v_0 - v_pos)


def sqrt_in_field(x: Scalar) -> Scalar | None:
    """An exact square root of a rational scalar inside its own tower, or None."""
    if not x.is_rational():
        return None
    f = x.field
    q = x.as_fraction()
    if q == 0:
        return f.zero
    r, s = rational_sqrt_decomp(abs(q))
    if q > 0:
        if s == 1:
            return f.rat(r)
        if f.d == s:
            return f.new(0, 0, r, 0)
        return None
    if not f.has_i:
        return None
    if s == 1:
        return f.new(0, r, 0, 0)
    if f.d == s:
        return f.new(0, 0, 0, r)
    return None
