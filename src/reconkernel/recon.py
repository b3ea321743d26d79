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
right of cell l.  At xi = 1/2 those slopes are one integer vector over
(M+1)!, `_face_weights`: its suffix sums are the face-value coefficients,
alpha_h at xi = 1/2, computed without the basis; it is also the weight
vector of the flux difference and of the face-error constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
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


def _face_weights(s: Stencil) -> list[int]:
    # (M+1)! L_q'(1/2) for the M+2 face cardinals L_q.  With the integer gaps
    # g_r = 1 + m_minus - r from node x_r to the face, L_q'(1/2) is e_q over
    # prod_{r != q} (q - r) = (-1)^(M+1-q) q! (M+1-q)!, e_q the y coefficient
    # of prod_{r != q} (y + g_r): the exact quotient (w_1 - w_0/g_q)/g_q of
    # the three lowest coefficients w_0, w_1, w_2 of prod_r (y + g_r), or w_2
    # when the face is node q
    _stencil(s)
    n = s.m + 2
    gaps = [1 + s.m_minus - q for q in range(n)]
    w0, w1, w2 = 1, 0, 0
    for g in gaps:
        w0, w1, w2 = w0 * g, w1 * g + w0, w2 * g + w1
    return [
        (-1) ** (n - 1 - q) * comb(n - 1, q) * ((w1 - w0 // g) // g if g else w2)
        for q, g in enumerate(gaps)
    ]


@_memo
def face_coeffs(s: Stencil) -> tuple[Fraction, ...]:
    """Reconstruction coefficients at the right cell face, xi = 1/2.

    The dot product of these with the cell averages f_{i+l} approximates
    h_{i+1/2} to order M+1.  No basis polynomial is built: the face value is
    the derivative at xi = 1/2 of the polynomial interpolating the primitive
    of the averages on its M+2 faces, so coefficient l sums the slopes at
    1/2 of the face cardinals right of cell l, over the common denominator
    (M+1)!.  Raises InvariantError unless the coefficients sum to 1.
    """
    weights = _face_weights(s)
    nums = list(accumulate(weights[:0:-1]))[::-1]
    den = factorial(s.m + 1)
    if sum(nums) != den:
        raise InvariantError(f"face coefficients of stencil {s} do not sum to 1")
    return tuple(Fraction(a, den) for a in nums)
