"""Exact rational scalars, polynomials, and rational functions.

Everything this package computes is a rational number or a polynomial with
rational coefficients, held as canonical `fractions.Fraction`s, so every
identity can be checked with exact equality.  The kernels (polynomial
products, division, evaluation, gcd and Sturm chains) put their operands
over one common denominator, sum in integers, and form a `Fraction` only
for each result; the square-free part is the first entry of the Sturm
chain.  Floating point appears only in the numerical harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

__all__ = [
    "ExactRational",
    "InvariantError",
    "RatFunction",
    "RatPoly",
    "Rational",
    "ValidationError",
    "as_poly",
    "cauchy_root_bound",
    "poly_definite_integral",
    "poly_eval",
    "poly_gcd",
    "square_free_part",
    "sturm_real_root_count",
]

#: The universal scalar.  `fractions.Fraction` keeps itself in canonical form
#: (reduced, positive denominator, zero as 0/1), and its `str()` is exactly
#: the "p/q" (or bare "p") text encoding used by the JSON and CSV exports.
ExactRational = Fraction

#: Accepted wherever a rational scalar is expected.  Floats are rejected on
#: purpose: admitting them would silently break exactness.
Rational = Union[int, Fraction]


class ValidationError(ValueError):
    """A documented precondition on caller-supplied input was violated."""


class InvariantError(RuntimeError):
    """An internal cross-check that must hold by construction failed."""


def _rat(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ValidationError(f"expected an exact rational, got {type(x).__name__}")


def _int(x: object, message: str, lo: "int | None" = None, hi: "int | None" = None) -> int:
    """x itself when it is an int (never a bool) within [lo, hi]; else ValidationError."""
    if (
        isinstance(x, bool)
        or not isinstance(x, int)
        or (lo is not None and x < lo)
        or (hi is not None and x > hi)
    ):
        raise ValidationError(message)
    return x


def _tuple(x: object, message: str) -> tuple:
    """The items of x as a tuple when x is iterable; else ValidationError."""
    try:
        items = iter(x)
    except TypeError:
        raise ValidationError(message) from None
    return tuple(items)


def _memo(fn):
    """Unbounded typed `functools.lru_cache` of fn, with ValidationError for an unhashable argument.

    Typed keys keep True, 1 and Fraction(1) apart, so a call that fn refuses
    never finds the cached result of one it accepted.
    """
    cached = lru_cache(maxsize=None, typed=True)(fn)

    @wraps(fn)
    def call(*args):
        try:
            return cached(*args)
        except TypeError:
            try:
                hash(args)
            except TypeError:
                raise ValidationError(f"{fn.__name__} takes hashable arguments only") from None
            raise

    call.cache_info = cached.cache_info
    call.cache_clear = cached.cache_clear
    return call


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatPoly:
    """Univariate polynomial with rational coefficients, ascending degree.

    Trailing zero coefficients are stripped on construction, so the
    representation is canonical, ``==`` is mathematical equality, and the
    zero polynomial is the empty tuple.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        try:
            cs = tuple(_rat(c) for c in self.coeffs)
        except TypeError:
            raise ValidationError("polynomial coefficients must be iterable") from None
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def of(cls, coeffs: Iterable[Rational]) -> "RatPoly":
        return cls(tuple(coeffs))

    @classmethod
    def constant(cls, c: Rational) -> "RatPoly":
        return cls((_rat(c),))

    @classmethod
    def monomial(cls, degree: int, coeff: Rational = 1) -> "RatPoly":
        _int(degree, "monomial degree must be a nonnegative integer", lo=0)
        return cls((Fraction(0),) * degree + (_rat(coeff),))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Canonical degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValidationError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, m: int) -> Fraction:
        """Coefficient of degree m, zero beyond the stored degree."""
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return Fraction(0)

    def __call__(self, x: Rational) -> Fraction:
        return poly_eval(self, x)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RatPoly(tuple(c + b[m] if m < len(b) else c for m, c in enumerate(a)))

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Union[RatPoly, Rational]") -> "RatPoly":
        if isinstance(other, RatPoly):
            if self.is_zero or other.is_zero:
                return RatPoly()
            # one integer convolution of the numerators over da * db:
            # out[k] = sum_i a[i] b[k - i], a dot product with b reversed
            a, da = _common_denominator(self.coeffs)
            b, db = _common_denominator(other.coeffs)
            rb, den, n = b[::-1], da * db, len(b) - 1
            out = []
            for k in range(len(a) + n):
                lo, hi = max(0, k - n), min(k, len(a) - 1) + 1
                out.append(Fraction(sum(map(mul, a[lo:hi], rb[n - k + lo :])), den))
            return RatPoly(tuple(out))
        scalar = _rat(other)
        return RatPoly(tuple(c * scalar for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        _int(n, "polynomial powers must be nonnegative integers", lo=0)
        result = RatPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "RatPoly") -> "tuple[RatPoly, RatPoly]":
        if not isinstance(other, RatPoly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # lc(b)^e a = q b + r in integers, for self = a/da and other = b/db
        a, da = _common_denominator(self.coeffs)
        b, db = _common_denominator(other.coeffs)
        scale = b[-1] ** max(len(a) - len(b) + 1, 0)
        q, r = _divmod_int([scale * c for c in a], b)
        da *= scale
        return RatPoly.of(Fraction(c * db, da) for c in q), RatPoly.of(Fraction(c, da) for c in r)

    def derivative(self) -> "RatPoly":
        return RatPoly(tuple(m * self.coeffs[m] for m in range(1, len(self.coeffs))))

    def antiderivative(self) -> "RatPoly":
        """The primitive with zero constant term."""
        return RatPoly((Fraction(0),) + tuple(c / (m + 1) for m, c in enumerate(self.coeffs)))

    def monic(self) -> "RatPoly":
        if self.is_zero:
            return self
        lead = self.leading
        return RatPoly(tuple(c / lead for c in self.coeffs))

    def to_strings(self) -> list[str]:
        """Ascending-degree "p/q" strings; round-trips bit-exactly."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "RatPoly":
        items = _tuple(items, "rational literals must come as an iterable of strings")
        if not all(isinstance(s, str) for s in items):
            raise ValidationError("rational literals must be strings")
        try:
            return cls(tuple(Fraction(s) for s in items))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal: {exc}") from exc


def as_poly(p: Union[RatPoly, Sequence[Rational]]) -> RatPoly:
    """Coerce a coefficient sequence (ascending degree) to RatPoly."""
    if isinstance(p, RatPoly):
        return p
    if isinstance(p, (list, tuple)):
        return RatPoly.of(p)
    raise ValidationError(f"expected a polynomial or coefficient sequence, got {type(p).__name__}")


def poly_eval(p: Union[RatPoly, Sequence[Rational]], x: Rational) -> Fraction:
    """Exact value at a rational point n/d: one integer Horner pass over the numerators."""
    p = as_poly(p)
    n, d = _rat(x).as_integer_ratio()
    nums, den = _common_denominator(p.coeffs)
    return Fraction(_homogeneous_eval(nums, n, d), den * d ** max(p.degree, 0))


def poly_definite_integral(
    p: Union[RatPoly, Sequence[Rational]], a: Rational, b: Rational
) -> Fraction:
    """Exact signed integral of p over [a, b]."""
    prim = as_poly(p).antiderivative()
    return poly_eval(prim, b) - poly_eval(prim, a)


# ---------------------------------------------------------------------------
# integer long division, one remainder sequence for gcd and Sturm chains
# ---------------------------------------------------------------------------


def _common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator."""
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def _int_coeffs(p: RatPoly) -> list[int]:
    """Primitive integer coefficients of a positive rational multiple of p."""
    return _positive_primitive(_common_denominator(p.coeffs)[0])


def _positive_primitive(ints: list[int]) -> list[int]:
    content = gcd(*ints)
    return [i // content for i in ints]


def _divmod_int(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, ascending coefficients.

    Every quotient coefficient must be an integer, as it is when b is monic,
    when b is primitive and divides a, or when a was first scaled by
    lc(b)^(deg a - deg b + 1); anything else is an InvariantError.
    """
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in reversed(range(len(q))):
        t, rem = divmod(r[k + db], lb)
        if rem:
            raise InvariantError("integer polynomial division left a fraction")
        q[k] = t
        r[k : k + db] = [c - t * d for c, d in zip(r[k : k + db], b)]
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """The sequence a, b, -rem(a, b), ... in primitive integers, deg a >= deg b.

    Each pseudo-remainder, the remainder of lc(b)^e * a by b with
    e = deg a - deg b + 1, is lc(b)^e times the true remainder, so its sign
    is flipped back when lc(b) < 0 and e is odd, and it is divided by its
    positive content.  On a square-free p and p' this is the Sturm chain
    of p; the last entry is always gcd(a, b) up to a constant (Knuth, TAOCP
    vol. 2, section 4.6.1, Algorithm E).
    """
    seq = [a, b]
    while True:
        a, b = seq[-2], seq[-1]
        r = _divmod_int([b[-1] ** (len(a) - len(b) + 1) * c for c in a], b)[1]
        if not r:
            return seq
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-c for c in r]
        seq.append(_positive_primitive(r))


def poly_gcd(
    p: Union[RatPoly, Sequence[Rational]], q: Union[RatPoly, Sequence[Rational]]
) -> RatPoly:
    """Monic gcd over the rationals: the last entry of the remainder sequence."""
    p, q = as_poly(p), as_poly(q)
    if p.is_zero or q.is_zero:
        return (p + q).monic()
    if p.degree == 0 or q.degree == 0:
        return RatPoly.constant(1)
    a, b = sorted((_int_coeffs(p), _int_coeffs(q)), key=len, reverse=True)
    return RatPoly.of(_remainder_sequence(a, b)[-1]).monic()


def _cancel(p: RatPoly, q: RatPoly) -> tuple[RatPoly, RatPoly]:
    """p/g and q/g for g = gcd(p, q), times the one rational that makes q/g monic.

    q must be nonzero, and a zero or constant p or q leaves g = 1.  The
    quotients are taken in the primitive integers the gcd is computed on,
    where they stay integers by Gauss's lemma.
    """
    if p.degree > 0 and q.degree > 0:
        a, b = _int_coeffs(p), _int_coeffs(q)
        g = _remainder_sequence(*sorted((a, b), key=len, reverse=True))[-1]
        if len(g) > 1:
            a, b = _divmod_int(a, g)[0], _divmod_int(b, g)[0]
            scale = p.leading / (a[-1] * q.leading)
            return RatPoly.of(c * scale for c in a), RatPoly.of(Fraction(c, b[-1]) for c in b)
    lead = q.leading
    return (p, q) if lead == 1 else (p * (1 / lead), q.monic())


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatFunction:
    """Reduced quotient of two polynomials with a monic denominator.

    The canonical form (coprime numerator and denominator, monic denominator)
    makes ``==`` mathematical equality of rational functions.
    """

    num: RatPoly
    den: RatPoly = RatPoly((Fraction(1),))

    def __post_init__(self) -> None:
        num, den = as_poly(self.num), as_poly(self.den)
        if den.is_zero:
            raise ValidationError("rational function with zero denominator")
        if num.is_zero:
            num, den = RatPoly(), RatPoly.constant(1)
        else:
            num, den = _cancel(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def constant(cls, c: Rational) -> "RatFunction":
        return cls(RatPoly.constant(c))

    @classmethod
    def from_poly(cls, p: Union[RatPoly, Sequence[Rational]]) -> "RatFunction":
        return cls(as_poly(p))

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, x: Rational) -> Fraction:
        d = poly_eval(self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return poly_eval(self.num, x) / d

    def __add__(self, other: "Union[RatFunction, Rational]") -> "RatFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = _cancel(self.den, other.den)
        return RatFunction(self.num * db + other.num * da, da * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunction":
        return RatFunction(-self.num, self.den)

    def __sub__(self, other: "Union[RatFunction, Rational]") -> "RatFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Union[RatFunction, Rational]") -> "RatFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # cross-reduce first to keep the final gcd cheap
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return RatFunction(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other: "Union[RatFunction, Rational]") -> "RatFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # a zero divisor becomes a zero denominator, which the constructor refuses
        return self * RatFunction(other.den, other.num)

    def _coerce(self, other):
        if isinstance(other, RatFunction):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return RatFunction.constant(other)
        return NotImplemented


# ---------------------------------------------------------------------------
# Sturm root counting
# ---------------------------------------------------------------------------


def cauchy_root_bound(p: Union[RatPoly, Sequence[Rational]]) -> Fraction:
    """A rational B with every real root of p inside (-B, B]."""
    p = as_poly(p)
    if p.is_zero:
        raise ValidationError("the zero polynomial has no root bound")
    if p.degree == 0:
        return Fraction(1)
    top = max(abs(c) for c in p.coeffs[:-1])
    return 1 + top / abs(p.leading)


def square_free_part(p: Union[RatPoly, Sequence[Rational]]) -> RatPoly:
    """Monic, with the distinct roots of p, each simple: the first entry of its Sturm chain."""
    p = as_poly(p)
    if p.is_zero:
        raise ValidationError("the zero polynomial has no square-free part")
    first = _int_sturm_chain(p)[0] if p.degree > 0 else [1]
    return RatPoly.of(Fraction(c, first[-1]) for c in first)


def sturm_real_root_count(
    p: Union[RatPoly, Sequence[Rational]], a: Rational, b: Rational
) -> int:
    """Exact number of distinct real roots of p in the half-open interval (a, b].

    Endpoints are allowed to be roots: a root at b is counted, a root at a is
    not.  The Sturm chain of the square-free part drops its zero entries, so
    at a root c the sign variations V(c) equal those just right of c, and
    V(a) - V(b) counts the roots in (a, b] exactly.
    """
    p = as_poly(p)
    if p.is_zero:
        raise ValidationError("the zero polynomial has no root count")
    a, b = _rat(a), _rat(b)
    if not a < b:
        raise ValidationError("root counting needs a < b")
    if p.degree == 0:
        return 0

    chain = _int_sturm_chain(p)
    return _sturm_variations(chain, a) - _sturm_variations(chain, b)


def _int_sturm_chain(p: RatPoly) -> list[list[int]]:
    """Sturm chain of the square-free part of a nonconstant p, in integers.

    Every entry is a positive multiple of its entry in the rational chain
    q, q', -rem(q, q'), ... of q = `square_free_part(p)`, so sign variations
    are those of that chain.  The remainder sequence of p and p' ends in
    their gcd: a constant makes it the chain, else p over the gcd (exact by
    Gauss's lemma) starts one more.
    """
    def sequence(a: list[int]) -> list[list[int]]:
        a = a if a[-1] > 0 else [-c for c in a]
        return _remainder_sequence(a, _positive_primitive([m * c for m, c in enumerate(a)][1:]))

    seq = sequence(_int_coeffs(p))
    if len(seq[-1]) > 1:
        seq = sequence(_divmod_int(seq[0], seq[-1])[0])
    return seq


def _homogeneous_eval(coeffs: list[int], n: int, d: int) -> int:
    """d^deg * P(n/d) by Horner's rule in integers; its sign is that of P(n/d) for d > 0."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * scale
        scale *= d
    return acc


def _sturm_variations(chain: list[list[int]], x: Fraction) -> int:
    """Sign variations of an integer Sturm chain at x, zero entries dropped."""
    n, d = x.numerator, x.denominator
    signs = []
    for coeffs in chain:
        v = _homogeneous_eval(coeffs, n, d)
        if v:
            signs.append(v > 0)
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)
