"""Polynomial reconstruction pairs and the reconstructing basis on a stencil.

A polynomial f of degree M has a unique polynomial h of the same degree whose
unit-width sliding average is f.  The coefficient maps between the two are
sparse triangular sums (`pair_f_from_h`, `pair_h_from_f`); the second is the
deconvolution map, with the tau numbers as its weights.

On a stencil, p_f = sum alpha_f,l(xi) f_{i+l} interpolates the cell averages
on the M+1 cell offsets, alpha_f,l the inverse Vandermonde columns, and
p_h = sum alpha_h,l(xi) f_{i+l} reconstructs, with xi the offset from the
pivot in cell widths: the derivative of the interpolant of the primitive on
the M+2 cell faces (Shu 2009), so alpha_h,l sums the face cardinal slopes
right of cell l.  The face-value coefficients, alpha_h at xi = 1/2, have an
integer product form of their own and are computed without the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Sequence, Union

from .deconv import deconv_forward_coeff, deconv_inverse_coeff
from .exact import (
    InvariantError,
    RatPoly,
    Rational,
    ValidationError,
    _common_denominator,
    _int,
    _memo,
    _rat,
    _tuple,
    as_poly,
)
from .vandermonde import Stencil, _cardinals, _faces, _stencil, inv_vandermonde

__all__ = [
    "PairCoeffs",
    "ReconstructionBasis",
    "basis",
    "face_coeffs",
    "pair_f_from_h",
    "pair_h_from_f",
    "poly_sliding_average",
]

CoeffList = Union[Sequence[Rational], "tuple[Fraction, ...]"]


def _coeff_tuple(c: CoeffList) -> tuple[Fraction, ...]:
    if isinstance(c, RatPoly):
        raise ValidationError(
            "pair maps act on raw coefficient lists; pass poly.coeffs "
            "(trailing zeros are significant for the list length)"
        )
    return tuple(_rat(x) for x in _tuple(c, "expected a coefficient list"))


def _pair_map(c: CoeffList, weight) -> list[Fraction]:
    # c_out[m] = (1/m!) sum_k w_k (m+2k)! c[m+2k], w_k = weight(k), summed in
    # integers: c = N/den and w = W/dw over common denominators, and one
    # Fraction per output coefficient
    nums, den = _common_denominator(_coeff_tuple(c))
    ws, dw = _common_denominator([weight(k) for k in range((len(nums) + 1) // 2)])
    scaled = [a * factorial(j) for j, a in enumerate(nums)]
    return [
        Fraction(sum(map(mul, ws, scaled[m::2])), den * dw * factorial(m))
        for m in range(len(nums))
    ]


def pair_f_from_h(c_h: CoeffList) -> list[Fraction]:
    """Coefficients of the sliding average of a polynomial, term by term.

    c_f[m] = sum_k c_h[m+2k] * C(m+2k, 2k) / ((2k+1) 2^(2k)); the output has
    the same length as the input.
    """
    return _pair_map(c_h, deconv_forward_coeff)


def pair_h_from_f(c_f: CoeffList) -> list[Fraction]:
    """Inverse of `pair_f_from_h`: deconvolve a polynomial's coefficients.

    c_h[m] = (1/m!) sum_k tau_{2k} c_f[m+2k] (m+2k)!.
    """
    return _pair_map(c_f, deconv_inverse_coeff)


def poly_sliding_average(p: Union[RatPoly, Sequence[Rational]]) -> RatPoly:
    """The unit-width sliding average q(x) = integral of p over [x-1/2, x+1/2].

    It is `pair_f_from_h` on the coefficients, so degree and leading
    coefficient are preserved for every nonzero p.
    """
    return RatPoly.of(pair_f_from_h(as_poly(p).coeffs))


@dataclass(frozen=True)
class PairCoeffs:
    """A polynomial reconstruction pair, as two coefficient lists.

    Construct with `from_f` or `from_h`; direct construction revalidates the
    round trip.
    """

    c_f: tuple[Fraction, ...]
    c_h: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cf = _coeff_tuple(self.c_f)
        ch = _coeff_tuple(self.c_h)
        if len(cf) != len(ch):
            raise ValidationError("pair coefficient lists must have equal length")
        if tuple(pair_h_from_f(cf)) != ch:
            raise ValidationError("coefficient lists are not a reconstruction pair")
        object.__setattr__(self, "c_f", cf)
        object.__setattr__(self, "c_h", ch)

    @classmethod
    def from_f(cls, c_f: CoeffList) -> "PairCoeffs":
        cf = _coeff_tuple(c_f)
        return cls(cf, tuple(pair_h_from_f(cf)))

    @classmethod
    def from_h(cls, c_h: CoeffList) -> "PairCoeffs":
        ch = _coeff_tuple(c_h)
        return cls(tuple(pair_f_from_h(ch)), ch)


@dataclass(frozen=True)
class ReconstructionBasis:
    """Cardinal bases of the interpolating and reconstructing polynomials.

    Position p in either tuple corresponds to the node offset p - m_minus.
    Each family is any iterable of M+1 RatPoly members, stored as a tuple.
    """

    stencil: Stencil
    alpha_f: tuple[RatPoly, ...]
    alpha_h: tuple[RatPoly, ...]

    def __post_init__(self) -> None:
        _stencil(self.stencil)
        n = self.stencil.m + 1
        message = f"each basis family of stencil {self.stencil} holds {n} RatPoly members"
        for name in ("alpha_f", "alpha_h"):
            family = _tuple(getattr(self, name), message)
            if len(family) != n or not all(isinstance(p, RatPoly) for p in family):
                raise ValidationError(message)
            object.__setattr__(self, name, family)

    def alpha_f_at(self, ell: int) -> RatPoly:
        return self.alpha_f[self._position(ell)]

    def alpha_h_at(self, ell: int) -> RatPoly:
        return self.alpha_h[self._position(ell)]

    def _position(self, ell: int) -> int:
        lo, hi = -self.stencil.m_minus, self.stencil.m_plus
        return _int(ell, f"offset {ell} outside the window {lo}..{hi}", lo=lo, hi=hi) - lo


@_memo
def basis(s: Stencil) -> ReconstructionBasis:
    """The alpha_f / alpha_h basis polynomials of a stencil, built once.

    alpha_f,l collects column l of the inverse Vandermonde matrix; alpha_h,l =
    sum_{q > l} L_q' sums the face cardinals L_q, in integers at the odd
    u = 2 xi over one denominator, from the right face inwards, then takes
    d/dxi.  Construction cross-checks that every member has degree exactly M
    and that each family sums to the constant 1.
    """
    _stencil(s)
    m_total = s.m
    alpha_f = [RatPoly.of(col) for col in zip(*inv_vandermonde(s).entries)]
    cards = _cardinals(_faces(s))
    weights, den = _common_denominator([Fraction(1, w) for _, w in cards])
    suffix = [0] * (m_total + 2)
    alpha_h = []
    for c, (q, _) in zip(weights[:0:-1], cards[:0:-1]):
        suffix = [a + c * b for a, b in zip(suffix, q)]
        alpha_h.append(RatPoly.of(Fraction((k * a) << k, den) for k, a in enumerate(suffix[1:], 1)))
    alpha_h.reverse()

    for family in (alpha_f, alpha_h):
        if any(p.degree != m_total for p in family):
            raise InvariantError(f"basis member of stencil {s} has wrong degree")
        # column m of the family over one denominator sums to den * delta_m0
        nums, den = _common_denominator([c for p in family for c in p.coeffs])
        if [sum(nums[m :: m_total + 1]) for m in range(m_total + 1)] != [den] + [0] * m_total:
            raise InvariantError(f"basis of stencil {s} does not sum to 1")
    return ReconstructionBasis(s, tuple(alpha_f), tuple(alpha_h))


def _product_folds(factors) -> list[tuple[int, int]]:
    # entry i: the product of the first i factors, and the sum of the i
    # products of those factors that leave one of them out
    out = [(1, 0)]
    for g in factors:
        prod, rest = out[-1]
        out.append((prod * g, rest * g + prod))
    return out


@_memo
def face_coeffs(s: Stencil) -> tuple[Fraction, ...]:
    """Reconstruction coefficients at the right cell face, xi = 1/2.

    The dot product of these with the cell averages f_{i+l} approximates
    h_{i+1/2} to order M+1.  No basis polynomial is built: the face value is
    the derivative at xi = 1/2 of the polynomial interpolating the primitive
    of the averages on its M+2 nodes x_q = q - m_minus - 1/2, whose gaps to
    the face are the integers g_q = 1 + m_minus - q.  Node m weighs
    sum_{p != m} prod_{q not in {m, p}} g_q over prod_{q != m} (m - q), and
    coefficient l is the sum of the weights of the nodes right of cell l.
    Prefix and suffix folds give every weight in O(M) integer products over
    the common denominator (M+1)!.  Raises InvariantError unless the
    coefficients sum to 1.
    """
    _stencil(s)
    n = s.m + 2
    gaps = [1 + s.m_minus - q for q in range(n)]
    # g_q over q < i in pre[i] and over q >= i in suf[i]
    pre = _product_folds(gaps)
    suf = _product_folds(reversed(gaps))[::-1]
    nums = []
    acc = 0
    for m in range(n - 1, 0, -1):
        (pl, rl), (pr, rr) = pre[m], suf[m + 1]
        acc += (-1) ** (n - 1 - m) * comb(n - 1, m) * (rl * pr + pl * rr)
        nums.append(acc)
    nums.reverse()
    den = factorial(n - 1)
    if sum(nums) != den:
        raise InvariantError(f"face coefficients of stencil {s} do not sum to 1")
    return tuple(Fraction(a, den) for a in nums)
